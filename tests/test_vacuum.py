"""Tests for phase-noise vacuum sampling and the correlator estimate."""

import csv
import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ontofield.vacuum as vacuum
from ontofield.lattice import ComplexField, build_lattice, spectral_evolve, to_position
from ontofield.vacuum import (
    CorrelatorEstimate,
    CorrelatorMemoryError,
    EnsembleSpec,
    _draw_phases,
    ensemble_correlator,
    ensemble_correlators,
    sample_vacuum,
)
from fresh_interpreter import run_script, with_src


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
    with pytest.raises(ValueError, match="count must be >= 100 samples"):
        EnsembleSpec(lattice=lat, count=50, seed=0)
    with pytest.raises(ValueError):
        EnsembleSpec(lattice=lat, count=100, seed=1.5)


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
    # The index is a word of the uint64 key; 2**64 - 1 draws (see the block-draw test).
    with pytest.raises(ValueError, match=r"^sample_index must be an integer in \[0, 2\*\*64\)"):
        sample_vacuum(spec, 2**64)


def test_each_sample_carries_unit_power_per_mode():
    # Parseval: total position-space power equals the mode count exactly.
    spec = small_spec()
    sample = sample_vacuum(spec, 0)
    position = to_position(sample, spec.lattice)
    assert np.sum(np.abs(position.values) ** 2) == pytest.approx(16.0, rel=1e-13)


def test_correlator_requires_a_minimum_ensemble():
    with pytest.raises(ValueError, match=">= 100 samples"):
        ensemble_correlator(small_spec(count=50))


def test_joint_pass_needs_a_time():
    with pytest.raises(ValueError, match="at least one time"):
        ensemble_correlators(small_spec(), ())


def test_correlator_mean_is_hermitian_with_positive_errors():
    # 16 sites fill one strip; 288 fill two, so their lower blocks are mirrored.
    for lattice in (small_spec().lattice, build_lattice([6.0, 3.0, 2.0], [12, 6, 4], 1.0, 2.5)):
        estimate = ensemble_correlator(EnsembleSpec(lattice=lattice, count=400, seed=6))
        assert np.array_equal(estimate.mean, estimate.mean.conj().T)
        assert np.array_equal(estimate.stderr, estimate.stderr.T)
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


def test_batch_size_does_not_change_the_estimate(monkeypatch):
    spec = small_spec(count=300)
    estimates = []
    for rows in (300, 64):
        monkeypatch.setattr(vacuum, "_BATCH_ROWS", rows)
        estimates.append(ensemble_correlator(spec))
    whole, chunked = estimates
    assert np.allclose(whole.mean, chunked.mean, atol=1e-12)
    assert np.allclose(whole.stderr, chunked.stderr, atol=1e-12)


def _position_stack(spec, start, stop, t):
    # Samples start <= i < stop as one stack through the one-field evolve and transform.
    modes = ComplexField("momentum", _draw_phases(spec, start, stop))
    if t != 0.0:
        modes = spectral_evolve(modes, spec.lattice, t)
    return to_position(modes, spec.lattice).values


def _einsum_correlator(spec, evolve_time):
    # Reference for ensemble_correlator's BLAS products: the same blocks and
    # estimate formulas, with each block's sums formed by einsum.
    n_sites = int(np.prod(spec.lattice.grid_points))
    sum_w = np.zeros((n_sites, n_sites), dtype=complex)
    sum_sq = np.zeros((n_sites, n_sites))
    for start in range(0, spec.count, vacuum._BATCH_ROWS):
        stop = min(start + vacuum._BATCH_ROWS, spec.count)
        block = _position_stack(spec, start, stop, evolve_time).reshape(stop - start, n_sites)
        sum_w += np.einsum("sx,sy->xy", block.conj(), block)
        abs_sq = np.abs(block) ** 2
        sum_sq += np.einsum("sx,sy->xy", abs_sq, abs_sq)
    mean = sum_w / spec.count
    variance = np.maximum((sum_sq - spec.count * np.abs(mean) ** 2) / (spec.count - 1), 0.0)
    return mean, np.sqrt(variance / spec.count)


@pytest.mark.parametrize("t", [0.0, 0.8])
def test_blas_accumulation_matches_the_einsum_reference(t):
    # 600 samples: two full blocks and a partial third.
    spec = EnsembleSpec(
        lattice=build_lattice([2 * np.pi, np.pi], [6, 4], 1.0), count=600, seed=2**63 + 5
    )
    assert spec.count % vacuum._BATCH_ROWS != 0 and spec.count > 2 * vacuum._BATCH_ROWS
    estimate = ensemble_correlator(spec, evolve_time=t)
    mean, stderr = _einsum_correlator(spec, t)
    assert estimate.mean == pytest.approx(mean, rel=0, abs=1e-14)
    assert estimate.stderr == pytest.approx(stderr, rel=1e-13, abs=0)


def test_joint_pass_matches_the_einsum_reference_at_both_times():
    # 512 sites: two accumulation strips and one mirrored off-diagonal block.
    spec = EnsembleSpec(
        lattice=build_lattice([8.0, 6.0, 4.0], [16, 8, 4], 1.0), count=300, seed=2**63 + 5
    )
    assert np.prod(spec.lattice.grid_points) > vacuum._STRIP_SITES
    times = (0.0, 0.7)
    for t, estimate in zip(times, ensemble_correlators(spec, times), strict=True):
        mean, stderr = _einsum_correlator(spec, t)
        assert np.max(np.abs(estimate.mean - mean)) <= 1e-14, t
        assert np.all(np.abs(estimate.stderr - stderr) <= 1e-13 * stderr), t


@pytest.mark.parametrize("seed", [0, 6, 2**63 + 5])
def test_joint_pass_equals_one_call_per_time_bit_for_bit(seed):
    # 288 sites: a full 256-site strip, a partial one and a mirrored block
    # between them; 300 samples: a full block of draws and a partial one.
    # The evolved times come first, so a phase multiplied into the shared
    # draws in place would reach the estimates after it.
    lattice = build_lattice([6.0, 3.0, 2.0], [12, 6, 4], 1.0, 2.5)
    spec = EnsembleSpec(lattice=lattice, count=300, seed=seed)
    times = (0.7, -1.2, 0.0)
    joint = ensemble_correlators(spec, times)
    assert len(joint) == len(times)
    for t, estimate in zip(times, joint):
        alone = ensemble_correlator(spec, evolve_time=t)
        assert estimate.count == alone.count == spec.count
        for field in ("mean", "stderr", "zero_variance"):
            assert getattr(estimate, field).tobytes() == getattr(alone, field).tobytes(), (t, field)


def _vacuum_digests(tmp_path, env):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"```json\n(.*?)```", readme, re.S)
    tmp_path.mkdir()
    config = tmp_path / "vacuum.json"
    config.write_text(next(b for b in blocks if json.loads(b)["experiment"] == "vacuum"))
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, "-m", "ontofield.cli", "run", str(config), "--output-dir", str(out)],
        env=with_src(env), capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.glob("*.csv"))}


def test_blas_thread_count_does_not_change_the_correlator_bytes(tmp_path):
    single = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
    inherited = _vacuum_digests(tmp_path / "inherited", dict(os.environ))
    assert sorted(inherited) == ["correlator.csv", "correlator_evolved.csv"]
    assert _vacuum_digests(tmp_path / "single", single) == inherited


_DRAW_DIGEST_SCRIPT = """
import hashlib
import numpy as np
from ontofield.lattice import build_lattice
from ontofield.vacuum import EnsembleSpec, _draw_phases
spec = EnsembleSpec(build_lattice([6.0, 5.0, 3.0], [8, 8, 4], 1.0), count=300, seed=2**63 + 5)
angles = np.empty((300, 8, 8, 4))
phases = _draw_phases(spec, 0, 300, angles)
print(hashlib.sha256(phases.tobytes()).hexdigest())
print(hashlib.sha256(np.exp(1j * angles).tobytes()).hexdigest())
"""


def _draw_digests(env):
    return run_script(_DRAW_DIGEST_SCRIPT, env=env).split()


def test_phase_draw_bytes_do_not_depend_on_the_simd_dispatch():
    # The phases are np.cos and np.sin of the angles, which must give the
    # bits of np.exp(1j * angles) at either dispatch level.
    umath = pytest.importorskip("numpy._core._multiarray_umath")
    # Turning off a feature this CPU lacks would change nothing.
    features = getattr(umath, "__cpu_features__", {})
    dispatch = [name for name in getattr(umath, "__cpu_dispatch__", []) if features.get(name)]
    if not dispatch:
        pytest.skip("this numpy build and CPU have no SIMD dispatch level to turn off")
    host = _draw_digests(dict(os.environ))
    assert host[0] == host[1]
    assert _draw_digests({**os.environ, "NPY_DISABLE_CPU_FEATURES": " ".join(dispatch)}) == host


def test_correlator_csv_layout(tmp_path):
    estimate = ensemble_correlator(small_spec(count=100))
    path = tmp_path / "correlator.csv"
    estimate.write_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "x_index,y_index,re,im,stderr"
    assert len(lines) == 1 + 16 * 16


@pytest.mark.parametrize("t", [np.nan, np.inf, -np.inf])
def test_correlator_rejects_a_non_finite_evolve_time(monkeypatch, t):
    # Refused with the other arguments, before any sample is drawn.
    monkeypatch.setattr(vacuum, "_draw_phases", None)
    with pytest.raises(ValueError, match="^evolve_times must be finite"):
        ensemble_correlator(small_spec(), evolve_time=t)


def test_correlator_too_large_for_memory_raises_before_allocating(monkeypatch):
    # 64^3 sites need _PAIR_BYTES * 262144^2 bytes (terabytes) per estimate.
    # The check must refuse the run before any phase or block is built.
    def must_not_run(*args, **kwargs):
        raise AssertionError("the ensemble started before the memory check")

    monkeypatch.setattr(vacuum, "spectral_evolve", must_not_run)
    monkeypatch.setattr(vacuum, "_draw_phases", must_not_run)
    monkeypatch.setattr(vacuum, "to_position", must_not_run)
    spec = EnsembleSpec(lattice=build_lattice([8.0] * 3, [64] * 3, 1.0), count=100, seed=0)
    block_bytes = vacuum._BLOCK_SITE_BYTES * vacuum._BATCH_ROWS * 262144
    with pytest.raises(CorrelatorMemoryError, match="physical memory") as info:
        ensemble_correlator(spec, evolve_time=1.0)
    assert str(vacuum._PAIR_BYTES * 262144**2 + block_bytes) in str(info.value)
    with pytest.raises(CorrelatorMemoryError, match="physical memory") as info:
        ensemble_correlators(spec, (0.0, 1.0))
    assert str(2 * vacuum._PAIR_BYTES * 262144**2 + block_bytes) in str(info.value)


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
    lattice = build_lattice([2 * np.pi] * dims, points, 1.0, cutoff)
    start = draw(st.integers(0, 40))
    stop = draw(st.integers(start + 1, start + 12))
    return EnsembleSpec(lattice=lattice, count=100, seed=draw(_seeds)), start, stop


def _pinned(seed):
    lattice = build_lattice([2.0, 3.0, 1.0], [4, 6, 2], 1.0)
    return EnsembleSpec(lattice=lattice, count=100, seed=seed), 5, 9


@settings(max_examples=25, deadline=None)
@given(_ensembles())
@example(_pinned(2**63 + 5))
@example(_pinned(-3))
@example((_pinned(7)[0], 2**64 - 1, 2**64))  # the last index the uint64 key holds
def test_block_draws_equal_per_sample_draws(case):
    spec, start, stop = case
    grid = spec.lattice.grid_points
    block = _draw_phases(spec, start, stop)
    assert block.shape == (stop - start, *grid)
    for row, index in enumerate(range(start, stop)):
        # A fresh generator per sample is the stream's definition.  The key
        # is built as uint64: numpy turns a list holding an int of 2^63 or
        # more into float64, which is a different key.
        key = np.array([spec.seed % 2**64, index], dtype=np.uint64)
        fresh = np.random.Generator(np.random.Philox(key=key))
        expected = np.exp(1j * fresh.uniform(0.0, 2.0 * np.pi, size=grid))
        assert block[row].tobytes() == expected.tobytes()
        assert block[row].tobytes() == sample_vacuum(spec, index).values.tobytes()


@settings(max_examples=25, deadline=None)
@given(_ensembles(), st.sampled_from([0.0, 0.37, -2.5]))
def test_batched_transform_equals_per_sample_transform(case, t):
    # The block path of ensemble_correlator, a stack of samples through one
    # call each, row by row against the same functions on each sample.
    spec, start, stop = case
    lattice = spec.lattice
    block = _position_stack(spec, start, stop, t)
    assert block.shape == (stop - start, *lattice.grid_points)
    for row, index in enumerate(range(start, stop)):
        field = sample_vacuum(spec, index)
        if t != 0.0:
            field = spectral_evolve(field, lattice, t)
        assert block[row].tobytes() == to_position(field, lattice).values.tobytes()
