"""Tests for the periodic momentum lattice and field transforms."""

import numpy as np
import pytest

from ontofield.lattice import (
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


def test_cutoff_zero_removes_high_modes():
    lat = build_lattice(2 * np.pi, 8, 1.0, cutoff=2.5, cutoff_mode="zero")
    phase = evolution_phase(lat, 0.3)
    assert np.array_equal(phase[lat.excluded], np.zeros(3, dtype=complex))
    x = position_axes(lat)[0]
    field = to_momentum(ComplexField("position", np.exp(1j * 3.0 * x)), lat)
    evolved = spectral_evolve(field, lat, 0.3)
    assert np.max(np.abs(evolved.values)) < 1e-14


def test_cutoff_mode_validation():
    with pytest.raises(ValueError):
        build_lattice(8.0, 8, 1.0, cutoff=1.0, cutoff_mode="taper")
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
