"""Tests for the periodic momentum lattice and field transforms."""

import csv

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from ontofield.lattice import (
    _ARRAY_MIN_ROWS,
    _read_body,
    ComplexField,
    build_lattice,
    evolution_phase,
    load_field,
    position_axes,
    save_field,
    spectral_evolve,
    to_momentum,
    to_position,
)


@pytest.mark.parametrize(
    "lengths, points",
    [
        (8.0, 7),
        (8.0, 0),
        ([1.0, 1.0, 1.0, 1.0], [4, 4, 4, 4]),
        ([1.0, 2.0], 8),
        (-3.0, 8),
    ],
)
def test_build_rejects_bad_geometry(lengths, points):
    with pytest.raises(ValueError):
        build_lattice(lengths, points, 1.0)


def test_build_rejects_negative_mass():
    with pytest.raises(ValueError):
        build_lattice(8.0, 8, -1.0)


@pytest.mark.parametrize("mass", [1e300, np.float64(1e155)])
def test_build_rejects_a_mass_whose_square_overflows(recwarn, mass):
    # The dispersion needs M^2; the error names the key, and no numpy
    # overflow warning comes first.
    with pytest.raises(ValueError, match="^mass must have a square that does not overflow"):
        build_lattice(8.0, 8, mass)
    assert len(recwarn) == 0
    assert build_lattice(8.0, 8, 1e154).mass == 1e154


def test_scalar_arguments_describe_one_dimension():
    lat = build_lattice(8.0, 16, 0.5)
    assert lat.dims == 1
    assert lat.box_lengths == (8.0,)
    assert lat.grid_points == (16,)
    assert lat.spacings == (0.5,)
    assert lat.cell_volume == pytest.approx(0.5)


def test_wavenumbers_are_integer_multiples_of_the_box_frequency():
    lat = build_lattice(2 * np.pi, 8, 1.0)
    assert np.array_equal(np.sort(lat.k_axes[0]), np.arange(-4, 4, dtype=float))


def test_dispersion_on_a_three_dimensional_grid():
    lat = build_lattice([2 * np.pi] * 3, [8, 8, 8], 4.0)
    # Mode (3, 0, 0) with mass 4 lies on a 3-4-5 triangle.
    assert lat.omega[3, 0, 0] == pytest.approx(5.0, abs=1e-14)
    assert lat.omega[0, 0, 0] == pytest.approx(4.0)


def test_position_axes_are_uniform_and_start_at_zero():
    lat = build_lattice(4.0, 4, 1.0)
    (x,) = position_axes(lat)
    assert np.array_equal(x, [0.0, 1.0, 2.0, 3.0])


def test_transforms_round_trip_and_preserve_norm():
    lat = build_lattice([6.0, 4.0], [12, 8], 1.0)
    rng = np.random.default_rng(3)
    values = rng.normal(size=(12, 8)) + 1j * rng.normal(size=(12, 8))
    field = ComplexField("position", values, time=0.7)
    fk = to_momentum(field, lat)
    assert fk.space == "momentum"
    assert fk.time == 0.7
    assert np.linalg.norm(fk.values) == pytest.approx(np.linalg.norm(values))
    back = to_position(fk, lat)
    assert np.max(np.abs(back.values - values)) < 1e-13


def test_transforms_reject_fields_in_the_wrong_space():
    lat = build_lattice(8.0, 8, 1.0)
    pos = ComplexField("position", np.ones(8, dtype=complex))
    mom = to_momentum(pos, lat)
    with pytest.raises(ValueError):
        to_momentum(mom, lat)
    with pytest.raises(ValueError):
        to_position(pos, lat)


def test_transforms_reject_mismatched_shapes():
    lat = build_lattice(8.0, 8, 1.0)
    with pytest.raises(ValueError):
        to_momentum(ComplexField("position", np.ones(4, dtype=complex)), lat)


def test_single_mode_picks_up_its_dispersion_phase():
    lat = build_lattice(2 * np.pi, 16, 1.0)
    x = position_axes(lat)[0]
    k = 3.0
    field = to_momentum(ComplexField("position", np.exp(1j * k * x)), lat)
    t = 0.42
    evolved = to_position(spectral_evolve(field, lat, t), lat)
    omega = np.sqrt(k**2 + lat.mass**2)
    expected = np.exp(1j * (k * x)) * np.exp(-1j * omega * t)
    assert np.max(np.abs(evolved.values - expected)) < 1e-13
    assert evolved.time == pytest.approx(t)


def test_evolution_composes_and_inverts():
    lat = build_lattice(10.0, 32, 2.0)
    rng = np.random.default_rng(5)
    field = ComplexField("momentum", rng.normal(size=32) + 1j * rng.normal(size=32))
    there = spectral_evolve(field, lat, 1.3)
    back = spectral_evolve(there, lat, -1.3)
    assert np.max(np.abs(back.values - field.values)) < 1e-13
    two_hops = spectral_evolve(spectral_evolve(field, lat, 0.4), lat, 0.9)
    assert np.max(np.abs(two_hops.values - there.values)) < 1e-13


def test_evolution_preserves_the_norm():
    lat = build_lattice([5.0, 5.0], [8, 8], 0.0)
    rng = np.random.default_rng(8)
    field = ComplexField("momentum", rng.normal(size=(8, 8)).astype(complex))
    evolved = spectral_evolve(field, lat, 7.7)
    assert np.linalg.norm(evolved.values) == pytest.approx(np.linalg.norm(field.values))


@pytest.mark.parametrize("t", [np.nan, np.inf, -np.inf])
def test_evolution_rejects_a_non_finite_time(t):
    lat = build_lattice(2 * np.pi, 8, 1.0)
    field = ComplexField("momentum", np.ones(8, dtype=complex))
    with pytest.raises(ValueError, match="finite"):
        evolution_phase(lat, t)
    with pytest.raises(ValueError, match="finite"):
        spectral_evolve(field, lat, t)


def test_cutoff_freeze_keeps_high_modes_static():
    lat = build_lattice(2 * np.pi, 8, 1.0, cutoff=2.5)
    assert int(lat.excluded.sum()) == 3
    phase = evolution_phase(lat, 1.0)
    assert np.array_equal(phase[lat.excluded], np.ones(3, dtype=complex))
    assert np.all(phase[~lat.excluded] != 1.0)


def test_cutoff_mode_validation():
    with pytest.raises(ValueError):
        build_lattice(8.0, 8, 1.0, cutoff=-2.0)


def test_snapshot_round_trip_is_bit_exact(tmp_path):
    lat = build_lattice([7.0, 3.0], [8, 4], 1.25)
    rng = np.random.default_rng(13)
    values = rng.normal(size=(8, 4)) + 1j * rng.normal(size=(8, 4))
    field = ComplexField("position", values, time=2.5)
    path = tmp_path / "snap.csv"
    save_field(field, lat, path)
    loaded, loaded_lat = load_field(path)
    assert np.array_equal(loaded.values, values)
    assert loaded.time == 2.5
    assert loaded_lat.box_lengths == lat.box_lengths
    assert loaded_lat.grid_points == lat.grid_points
    assert loaded_lat.mass == lat.mass
    assert loaded_lat.cutoff is None


def test_save_rejects_momentum_space_fields(tmp_path):
    lat = build_lattice(8.0, 8, 1.0)
    mom = to_momentum(ComplexField("position", np.ones(8, dtype=complex)), lat)
    with pytest.raises(ValueError):
        save_field(mom, lat, tmp_path / "bad.csv")


def _csv_writer_bytes(field, lattice, path):
    # The row-by-row csv.writer layout that save_field must keep byte for byte.
    fmt = "%.17g"
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            [lattice.dims]
            + [fmt % n for n in lattice.grid_points]
            + [fmt % l for l in lattice.box_lengths]
            + [fmt % lattice.mass, fmt % field.time]
        )
        for v in field.values.ravel():
            writer.writerow([fmt % v.real, fmt % v.imag])
    return path.read_bytes()


def test_snapshot_bytes_and_bits_survive_awkward_values(tmp_path):
    # 4100 sites are more than one 4096-row formatting block.
    lat = build_lattice([3.0, 5.0], [2, 2050], 0.5)
    pairs = np.random.default_rng(5).normal(size=(4100, 2))
    awkward = [-0.0, 5e-324, 1e300, -1.5e-17, np.inf, -np.inf]
    # Rows at both ends of the body and on both sides of the block edge.
    for row, value in zip([0, 4093, 4094, 4095, 4096, 4099], awkward):
        pairs[row] = [value, -value]
    # "%.17g" drops a NaN's sign, so only the positive NaN round-trips.
    pairs[4097] = [np.nan, 1.0]
    pairs[4098] = [-0.5, np.nan]
    values = pairs.view(complex).reshape(2, 2050)
    field = ComplexField("position", values, time=-1.5e-17)
    path = tmp_path / "snap.csv"
    save_field(field, lat, path)
    written = path.read_bytes()
    assert written == _csv_writer_bytes(field, lat, tmp_path / "reference.csv")
    assert b"\r\n-0,0\r\n" in written and b"\r\ninf,-inf\r\n" in written
    loaded, _ = load_field(path)
    assert loaded.values.view(np.int64).tobytes() == values.view(np.int64).tobytes()
    assert loaded.time == -1.5e-17
    # The body is long enough for the array route, and within its grammar.
    assert 4100 >= _ARRAY_MIN_ROWS
    with path.open("rb") as fh:
        fh.readline()
        assert _read_body(fh, path.stat().st_size - fh.tell(), 4100) is not None


@st.composite
def _snapshots(draw):
    dims = draw(st.integers(1, 3))
    points = draw(st.lists(st.sampled_from([2, 4, 6, 8]), min_size=dims, max_size=dims))
    lengths = draw(st.lists(st.floats(1e-3, 1e3), min_size=dims, max_size=dims))
    lattice = build_lattice(lengths, points, draw(st.floats(0.0, 1e3)))
    # NaN is left out: "%.17g" drops its sign and payload bits.
    pairs = draw(arrays(np.float64, (*points, 2), elements=st.floats(allow_nan=False)))
    time = draw(st.floats(allow_nan=False))
    return ComplexField("position", pairs.view(complex)[..., 0], time=time), lattice


@settings(max_examples=25, deadline=None)
@given(_snapshots())
def test_snapshot_round_trip_is_bit_exact_for_any_geometry(tmp_path_factory, case):
    field, lattice = case
    path = tmp_path_factory.mktemp("snap") / "snap.csv"
    save_field(field, lattice, path)
    loaded, loaded_lat = load_field(path)
    assert loaded.values.shape == lattice.grid_points
    assert loaded.values.view(np.int64).tobytes() == field.values.view(np.int64).tobytes()
    assert np.float64(loaded.time).view(np.int64) == np.float64(field.time).view(np.int64)
    assert loaded_lat.box_lengths == lattice.box_lengths
    assert loaded_lat.grid_points == lattice.grid_points
    assert loaded_lat.mass == lattice.mass


@st.composite
def _momentum_fields(draw):
    dims = draw(st.integers(1, 2))
    points = draw(st.lists(st.sampled_from([2, 4, 6, 8]), min_size=dims, max_size=dims))
    lengths = draw(st.lists(st.floats(0.5, 50.0), min_size=dims, max_size=dims))
    # Cutoffs up to a bit above the top |k|, so most of them exclude modes.
    k_top = np.pi * float(np.linalg.norm(np.array(points) / np.array(lengths)))
    cutoff = draw(st.none() | st.floats(0.05, 1.2).map(lambda frac: frac * k_top))
    mass = draw(st.floats(0.0, 10.0))
    lattice = build_lattice(lengths, points, mass, cutoff)
    pairs = draw(arrays(np.float64, (*points, 2), elements=st.floats(-1e3, 1e3)))
    return ComplexField("momentum", pairs.view(complex)[..., 0]), lattice


_TIMES = st.floats(-20.0, 20.0)


@settings(max_examples=25, deadline=None)
@given(_momentum_fields(), _TIMES, _TIMES)
def test_evolution_composes_for_any_geometry_and_cutoff(case, t1, t2):
    field, lattice = case
    two_hops = spectral_evolve(spectral_evolve(field, lattice, t1), lattice, t2)
    one_hop = spectral_evolve(field, lattice, t1 + t2)
    # The phases differ by the rounding of omega * t, relative to |omega t|.
    scale = 1.0 + float(np.max(lattice.omega)) * (abs(t1) + abs(t2))
    bound = 1e-13 * scale * max(float(np.max(np.abs(field.values))), 1e-300)
    assert np.max(np.abs(two_hops.values - one_hop.values)) <= bound
    assert two_hops.time == pytest.approx(one_hop.time, abs=1e-12)


@settings(max_examples=25, deadline=None)
@given(_momentum_fields(), _TIMES)
def test_frozen_cutoff_evolution_preserves_the_norm(case, t):
    field, lattice = case
    evolved = spectral_evolve(field, lattice, t)
    assert np.linalg.norm(evolved.values) == pytest.approx(np.linalg.norm(field.values), rel=1e-13)


_HEADER = "1,4,8,1,0.5\r\n"
_ROW = "1,2\r\n"


@pytest.mark.parametrize(
    "text",
    [
        "",
        _HEADER,
        _HEADER + _ROW * 3,
        _HEADER + _ROW * 5,
        _HEADER + _ROW * 3 + "1\r\n",
        _HEADER + "1\r\n" + _ROW * 3,
        _HEADER + _ROW * 3 + "1,2,3\r\n",
        _HEADER + _ROW * 3 + "1,x\r\n",
        _HEADER + "#1,2\r\n" + _ROW * 3,
        "1,4.9,8,1,0.5\r\n" + _ROW * 4,
        _HEADER.replace("\r\n", "\r") + _ROW.replace("\r\n", "\r") * 4,
        _HEADER.replace("\r\n", "\r") + _ROW * 4,
    ],
    ids=[
        "empty",
        "header-only",
        "row-missing",
        "row-extra",
        "one-field",
        "one-field-first",
        "three-fields",
        "non-numeric",
        "comment-row",
        "non-integral-grid-size",
        "lone-cr-line-ends",
        "lone-cr-after-the-header",
    ],
)
def test_load_rejects_malformed_snapshots_without_warnings(tmp_path, recwarn, text):
    path = tmp_path / "bad.csv"
    path.write_text(text, newline="")
    with pytest.raises(ValueError):
        load_field(path)
    assert not recwarn.list
