"""Tests for phase-noise vacuum sampling and the correlator estimate."""

import csv

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ontofield.lattice import build_lattice, evolution_phase, spectral_evolve, to_position
from ontofield.vacuum import (
    CorrelatorEstimate,
    EnsembleSpec,
    _draw_phases,
    _position_block,
    ensemble_correlator,
    sample_vacuum,
)


def small_spec(count=400, seed=6):
    return EnsembleSpec(lattice=build_lattice(2 * np.pi, 16, 1.0), count=count, seed=seed)


def max_pulls(estimate):
    n = estimate.mean.shape[0]
    off = ~np.eye(n, dtype=bool)
    diag_pull = np.max(np.abs(np.diag(estimate.mean) - 1.0) / np.diag(estimate.stderr))
    off_pull = np.max(np.abs(estimate.mean[off]) / estimate.stderr[off])
    return float(diag_pull), float(off_pull)


def test_ensemble_spec_validation():
    lat = build_lattice(2 * np.pi, 8, 1.0)
    with pytest.raises(ValueError):
        EnsembleSpec(lattice=lat, count=0, seed=0)
    with pytest.raises(ValueError):
        EnsembleSpec(lattice=lat, count=10, seed=1.5)


def test_samples_are_pure_phases_in_momentum_space():
    sample = sample_vacuum(small_spec(), sample_index=3)
    assert sample.space == "momentum"
    assert np.allclose(np.abs(sample.values), 1.0, atol=1e-15)


def test_sampling_is_reproducible_and_index_separated():
    spec = small_spec()
    again = small_spec()
    assert np.array_equal(sample_vacuum(spec, 7).values, sample_vacuum(again, 7).values)
    assert not np.allclose(sample_vacuum(spec, 7).values, sample_vacuum(spec, 8).values)
    reseeded = EnsembleSpec(lattice=spec.lattice, count=spec.count, seed=99)
    assert not np.allclose(sample_vacuum(spec, 7).values, sample_vacuum(reseeded, 7).values)


def test_each_sample_carries_unit_power_per_mode():
    # Parseval: total position-space power equals the mode count exactly.
    spec = small_spec()
    sample = sample_vacuum(spec, 0)
    position = to_position(sample, spec.lattice)
    assert np.sum(np.abs(position.values) ** 2) == pytest.approx(16.0, rel=1e-13)


def test_correlator_requires_a_minimum_ensemble():
    spec = small_spec(count=400)
    with pytest.raises(ValueError):
        ensemble_correlator(spec, samples=50)


def test_correlator_mean_is_hermitian_with_positive_errors():
    estimate = ensemble_correlator(small_spec())
    assert np.max(np.abs(estimate.mean - estimate.mean.conj().T)) < 1e-13
    assert np.all(estimate.stderr > 0.0)
    assert not estimate.zero_variance.any()
    assert estimate.count == 400


def test_correlator_approaches_the_identity():
    diag_pull, off_pull = max_pulls(ensemble_correlator(small_spec()))
    assert diag_pull < 3.0
    assert off_pull < 3.0


@pytest.mark.parametrize("t", [0.5, 1.0, 2.0])
def test_correlator_is_stationary_under_free_evolution(t):
    # Each mode only rotates its phase, so the equal-time statistics cannot
    # depend on the evolution time.
    estimate = ensemble_correlator(small_spec(), evolve_time=t)
    diag_pull, off_pull = max_pulls(estimate)
    assert diag_pull < 3.0
    assert off_pull < 3.0


def test_batch_size_does_not_change_the_estimate():
    spec = small_spec(count=300)
    whole = ensemble_correlator(spec, batch_size=300)
    chunked = ensemble_correlator(spec, batch_size=64)
    assert np.allclose(whole.mean, chunked.mean, atol=1e-12)
    assert np.allclose(whole.stderr, chunked.stderr, atol=1e-12)


def test_samples_argument_truncates_the_ensemble():
    spec = small_spec(count=400)
    part = ensemble_correlator(spec, samples=200)
    assert part.count == 200


def test_correlator_csv_layout(tmp_path):
    estimate = ensemble_correlator(small_spec(count=100))
    path = tmp_path / "correlator.csv"
    estimate.write_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "x_index,y_index,re,im,stderr"
    assert len(lines) == 1 + 16 * 16


@pytest.mark.parametrize("t", [np.nan, np.inf, -np.inf])
def test_correlator_rejects_a_non_finite_evolve_time(t):
    with pytest.raises(ValueError, match="finite"):
        ensemble_correlator(small_spec(), evolve_time=t)


def _csv_writer_bytes(estimate, path):
    # The row-by-row csv.writer layout that write_csv must keep byte for byte.
    fmt = "%.17g"
    n = estimate.mean.shape[0]
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x_index", "y_index", "re", "im", "stderr"])
        for x in range(n):
            for y in range(n):
                m = estimate.mean[x, y]
                writer.writerow([str(x), str(y), fmt % m.real, fmt % m.imag, fmt % estimate.stderr[x, y]])
    return path.read_bytes()


def test_correlator_csv_matches_the_csv_module_on_awkward_values(tmp_path):
    # 65 sites give 4225 rows, more than one formatting block.
    n = 65
    rng = np.random.default_rng(11)
    mean = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    stderr = np.abs(rng.normal(size=(n, n)))
    awkward = [-0.0, 5e-324, 1e300, 1.0, -1.5e-17]
    # Flat pair indices at both ends and on both sides of the block edge.
    for flat, value in zip([1, 2, 4095, 4096, n * n - 1], awkward):
        mean.flat[flat] = complex(value, -value)
        stderr.flat[flat] = abs(value)
    estimate = CorrelatorEstimate(
        mean=mean, stderr=stderr, count=100, zero_variance=stderr == 0.0
    )
    path = tmp_path / "correlator.csv"
    estimate.write_csv(path)
    assert path.read_bytes() == _csv_writer_bytes(estimate, tmp_path / "reference.csv")
    assert b"\r\n0,1,-0,0,0\r\n" in path.read_bytes()


_seeds = st.one_of(st.integers(-(2**70), -1), st.integers(0, 2**10), st.integers(2**64, 2**70))


@st.composite
def _ensembles(draw):
    dims = draw(st.integers(1, 3))
    points = draw(st.lists(st.sampled_from([2, 4, 6]), min_size=dims, max_size=dims))
    cutoff = draw(st.one_of(st.none(), st.floats(0.5, 3.0)))
    mode = draw(st.sampled_from(["freeze", "zero"]))
    lattice = build_lattice([2 * np.pi] * dims, points, 1.0, cutoff, mode)
    start = draw(st.integers(0, 40))
    stop = draw(st.integers(start + 1, start + 12))
    return EnsembleSpec(lattice=lattice, count=100, seed=draw(_seeds)), start, stop


@settings(max_examples=25, deadline=None)
@given(_ensembles())
def test_block_draws_equal_per_sample_draws(case):
    spec, start, stop = case
    grid = spec.lattice.grid_points
    block = _draw_phases(spec, start, stop)
    assert block.shape == (stop - start, *grid)
    for row, index in enumerate(range(start, stop)):
        # A fresh generator per sample is the stream's definition.
        key = np.array([spec.seed % 2**64, index], dtype=np.uint64)
        fresh = np.random.Generator(np.random.Philox(key=key))
        expected = np.exp(1j * fresh.uniform(0.0, 2.0 * np.pi, size=grid))
        assert block[row].tobytes() == expected.tobytes()
        assert block[row].tobytes() == sample_vacuum(spec, index).values.tobytes()


@settings(max_examples=25, deadline=None)
@given(_ensembles(), st.sampled_from([0.0, 0.37, -2.5]))
def test_batched_transform_equals_per_sample_transform(case, t):
    # The block path of ensemble_correlator, row by row against the public
    # one-field functions.
    spec, start, stop = case
    lattice = spec.lattice
    block = _position_block(spec, start, stop, evolution_phase(lattice, t) if t != 0.0 else None)
    assert block.shape == (stop - start, *lattice.grid_points)
    for row, index in enumerate(range(start, stop)):
        field = sample_vacuum(spec, index)
        if t != 0.0:
            field = spectral_evolve(field, lattice, t)
        assert block[row].tobytes() == to_position(field, lattice).values.tobytes()
