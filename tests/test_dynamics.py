"""Tests for packet evolution, the residual checks, and the leapfrog integrator."""

import numpy as np
import pytest

from ontofield.dynamics import (
    EvolutionRun,
    FrontTrackingError,
    InstabilityError,
    evolve_convolution,
    gaussian_packet,
    kg_residual,
    leapfrog_interact,
    refinement_study,
    spectral_run,
    stability_bound,
    time_derivative_check,
    wavefront_measure,
)
from ontofield.lattice import ComplexField, build_lattice, position_axes, to_momentum


def real_packet(lattice, k0=1.0, center=8.0, width=3.0):
    packet = gaussian_packet(lattice, k0, center, width)
    return ComplexField("position", packet.values.real.astype(complex), time=packet.time)


def zero_field(lattice):
    return ComplexField("position", np.zeros(lattice.grid_points, dtype=complex))


# --- initial data ---------------------------------------------------------------


def test_packet_peaks_at_its_center():
    lat = build_lattice(32.0, 64, 1.0)
    packet = gaussian_packet(lat, 0.0, 12.0, 2.0)
    x = position_axes(lat)[0]
    assert x[int(np.argmax(np.abs(packet.values)))] == pytest.approx(12.0)
    assert np.max(np.abs(packet.values)) == pytest.approx(1.0)


def test_packet_amplitude_scales_linearly():
    lat = build_lattice(32.0, 64, 1.0)
    unit = gaussian_packet(lat, 1.0, 8.0, 2.0)
    scaled = gaussian_packet(lat, 1.0, 8.0, 2.0, amplitude=2.5)
    assert np.allclose(scaled.values, 2.5 * unit.values, atol=1e-15)


def test_packet_wraps_smoothly_around_the_seam():
    # A center on the boundary must produce the same profile as a center in
    # the middle, shifted; the minimum-image rule guarantees it.
    lat = build_lattice(32.0, 64, 1.0)
    at_edge = gaussian_packet(lat, 0.0, 0.0, 3.0)
    mid = gaussian_packet(lat, 0.0, 16.0, 3.0)
    assert np.allclose(at_edge.values, np.roll(mid.values, -32), atol=1e-15)


def test_packet_momentum_content_sits_at_k0():
    lat = build_lattice(32.0, 128, 1.0)
    packet = gaussian_packet(lat, 2.0, 16.0, 4.0)
    spectrum = to_momentum(packet, lat)
    k_peak = lat.k_axes[0][int(np.argmax(np.abs(spectrum.values)))]
    assert k_peak == pytest.approx(2.0, abs=2 * np.pi / 32.0)


def test_packet_takes_vector_arguments_in_two_dimensions():
    lat = build_lattice([16.0, 16.0], [32, 32], 1.0)
    packet = gaussian_packet(lat, [1.0, -0.5], [4.0, 8.0], 2.0)
    assert packet.values.shape == (32, 32)
    idx = np.unravel_index(int(np.argmax(np.abs(packet.values))), packet.values.shape)
    x, y = position_axes(lat)
    assert (x[idx[0]], y[idx[1]]) == (4.0, 8.0)


# --- free evolution ---------------------------------------------------------------


def test_spectral_run_records_requested_snapshots():
    lat = build_lattice(32.0, 64, 1.0)
    run = spectral_run(gaussian_packet(lat, 1.0, 8.0, 3.0), lat, 0.1, 5, record_every=2)
    assert [s.time for s in run.snapshots] == pytest.approx([0.0, 0.2, 0.4, 0.5])
    assert run.final.time == pytest.approx(0.5)
    assert run.method == "spectral"


def test_spectral_run_preserves_the_norm():
    lat = build_lattice(32.0, 64, 0.5)
    packet = gaussian_packet(lat, 1.0, 8.0, 3.0)
    run = spectral_run(packet, lat, 0.3, 10, record_every=10)
    assert np.linalg.norm(run.final.values) == pytest.approx(
        np.linalg.norm(packet.values), rel=1e-13
    )


def test_convolution_transform_path_matches_spectral_evolution():
    lat = build_lattice(16.0, 32, 1.0)
    packet = gaussian_packet(lat, 1.0, 4.0, 2.0)
    run = spectral_run(packet, lat, 0.7, 1)
    conv = evolve_convolution(packet, lat, 0.7)
    assert np.max(np.abs(conv.values - run.final.values)) < 1e-13


def test_literal_convolution_matches_the_transform_path():
    # Same kernel applied as an explicit sum over lattice shifts.
    lat = build_lattice(16.0, 32, 1.0)
    packet = gaussian_packet(lat, 1.0, 4.0, 2.0)
    fast = evolve_convolution(packet, lat, 0.9, path="transform")
    slow = evolve_convolution(packet, lat, 0.9, path="literal")
    assert np.max(np.abs(fast.values - slow.values)) < 1e-12


def test_literal_convolution_matches_in_two_dimensions():
    lat = build_lattice([8.0, 8.0], [8, 8], 1.0)
    packet = gaussian_packet(lat, [1.0, 0.0], [2.0, 4.0], 1.5)
    fast = evolve_convolution(packet, lat, 0.5, path="transform")
    slow = evolve_convolution(packet, lat, 0.5, path="literal")
    assert np.max(np.abs(fast.values - slow.values)) < 1e-12


def test_convolution_is_free_theory_only():
    lat = build_lattice(16.0, 32, 1.0)
    packet = gaussian_packet(lat, 1.0, 4.0, 2.0)
    with pytest.raises(ValueError):
        evolve_convolution(packet, lat, 1.0, path="magic")


def test_run_rejects_non_increasing_snapshot_times():
    lat = build_lattice(16.0, 32, 1.0)
    f0 = gaussian_packet(lat, 1.0, 4.0, 2.0)
    f_bad = ComplexField("position", f0.values, time=-1.0)
    with pytest.raises(ValueError):
        EvolutionRun(
            lattice=lat,
            initial=f0,
            method="spectral",
            dt=0.1,
            steps=1,
            coupling=0.0,
            snapshots=(f0, f_bad),
        )


# --- residual diagnostics ---------------------------------------------------------


def test_derivative_defect_shrinks_quadratically_in_dt():
    lat = build_lattice(32.0, 128, 1.0)
    packet = gaussian_packet(lat, 1.0, 8.0, 2.0)
    coarse = time_derivative_check(packet, lat, 1e-2)
    fine = time_derivative_check(packet, lat, 5e-3)
    assert coarse / fine == pytest.approx(4.0, abs=0.05)


def test_derivative_defect_of_the_uniform_mode_is_the_sine_error():
    # Only k=0 survives, so the defect reduces to M - sin(M dt)/dt.
    lat = build_lattice(32.0, 64, 1.0)
    flat = ComplexField("position", np.ones(64, dtype=complex))
    dt = 1e-3
    expected = lat.mass - np.sin(lat.mass * dt) / dt
    assert time_derivative_check(flat, lat, dt) == pytest.approx(expected, rel=1e-6)


def test_field_equation_residual_is_small_for_smooth_data():
    lat = build_lattice(32.0, 64, 1.0)
    run = spectral_run(gaussian_packet(lat, 1.0, 8.0, 3.0), lat, 0.05, 4)
    report = kg_residual(run)
    assert report.max_residual < 0.05
    assert report.l2_residual < report.max_residual
    assert report.dt == pytest.approx(0.05)


def test_field_equation_residual_needs_three_uniform_snapshots():
    lat = build_lattice(32.0, 64, 1.0)
    packet = gaussian_packet(lat, 1.0, 8.0, 3.0)
    short = spectral_run(packet, lat, 0.1, 1)
    with pytest.raises(ValueError):
        kg_residual(short)
    uneven = spectral_run(packet, lat, 0.1, 5, record_every=2)
    with pytest.raises(ValueError):
        kg_residual(uneven)


def test_refinement_halves_the_residual_twice_per_level():
    profile = lambda x: np.exp(-((x - 16.0) ** 2) / 8.0) * np.exp(1j * x)
    report = refinement_study(
        profile, box_length=32.0, base_points=128, base_dt=0.1, mass=1.0, levels=2
    )
    assert len(report.ratios) == 1
    assert report.ratios[0] == pytest.approx(4.0, abs=0.5)


# --- interacting integrator -------------------------------------------------------


def test_stability_bound_matches_the_spectral_radius():
    lat = build_lattice(32.0, 64, 1.0)
    dx = lat.spacings[0]
    expected = 2.0 / np.sqrt(4.0 / dx**2 + lat.mass**2)
    assert stability_bound(lat) == pytest.approx(expected, rel=1e-14)


def test_leapfrog_rejects_steps_at_or_beyond_the_bound():
    lat = build_lattice(32.0, 64, 1.0)
    with pytest.raises(ValueError):
        leapfrog_interact(real_packet(lat), zero_field(lat), lat, 0.0, stability_bound(lat), 2)


def test_stability_errors_print_the_bound_as_a_plain_float():
    lat = build_lattice(32.0, 64, 1.0)
    bound = stability_bound(lat)
    with pytest.raises(ValueError) as leapfrog:
        leapfrog_interact(real_packet(lat), zero_field(lat), lat, 0.0, 0.6, 2)
    f0 = real_packet(lat)
    with pytest.raises(ValueError) as record:
        EvolutionRun(
            lattice=lat,
            initial=f0,
            method="leapfrog_second_order",
            dt=0.6,
            steps=1,
            coupling=0.0,
            snapshots=(f0,),
        )
    for info in (leapfrog, record):
        message = str(info.value)
        assert "np.float64" not in message
        assert repr(bound) in message


def test_leapfrog_free_run_conserves_energy_to_roundoff():
    lat = build_lattice(32.0, 64, 1.0)
    run = leapfrog_interact(
        real_packet(lat), zero_field(lat), lat, 0.0, 0.2, 400, record_every=40
    )
    drift = np.max(np.abs(run.energy - run.energy[0])) / abs(run.energy[0])
    assert drift < 1e-12
    assert len(run.energy) == len(run.snapshots)
    assert len(run.velocities) == len(run.snapshots)


def test_leapfrog_converges_to_the_discrete_free_solution():
    # Reference: the exact propagator of the same spatial discretization,
    # so the measured error is purely the O(dt^2) time-stepping error.
    lat = build_lattice(32.0, 64, 1.0)
    b0 = real_packet(lat)
    k = lat.k_axes[0]
    dx = lat.spacings[0]
    omega_fd = np.sqrt(4.0 * np.sin(k * dx / 2.0) ** 2 / dx**2 + lat.mass**2)
    horizon = 2.0
    exact = np.fft.ifft(np.cos(omega_fd * horizon) * np.fft.fft(b0.values.real)).real
    errors = []
    for steps in (100, 200):
        run = leapfrog_interact(
            b0, zero_field(lat), lat, 0.0, horizon / steps, steps, record_every=steps
        )
        errors.append(float(np.max(np.abs(run.final.values.real - exact))))
    assert errors[0] / errors[1] == pytest.approx(4.0, abs=0.5)


def test_quartic_force_response_is_linear_in_the_coupling():
    lat = build_lattice(32.0, 64, 1.0)
    b0 = real_packet(lat)
    free = leapfrog_interact(b0, zero_field(lat), lat, 0.0, 0.1, 200, record_every=200)
    couplings = np.array([1e-3, 2e-3, 4e-3])
    shifts = [
        float(
            np.linalg.norm(
                leapfrog_interact(b0, zero_field(lat), lat, lam, 0.1, 200, record_every=200)
                .final.values
                - free.final.values
            )
        )
        for lam in couplings
    ]
    slope = np.polyfit(np.log(couplings), np.log(shifts), 1)[0]
    assert slope == pytest.approx(1.0, abs=0.05)


def test_leapfrog_is_time_reversible():
    lat = build_lattice(32.0, 64, 1.0)
    b0 = real_packet(lat)
    fwd = leapfrog_interact(b0, zero_field(lat), lat, 0.1, 0.2, 200, record_every=200)
    flipped = ComplexField("position", -fwd.velocities[-1].astype(complex), time=0.0)
    restart = ComplexField("position", fwd.final.values, time=0.0)
    back = leapfrog_interact(restart, flipped, lat, 0.1, 0.2, 200, record_every=200)
    assert np.max(np.abs(back.final.values - b0.values)) < 1e-12


def test_runaway_coupling_aborts_with_context():
    lat = build_lattice(32.0, 64, 1.0)
    big = gaussian_packet(lat, 0.0, 8.0, 3.0, amplitude=5.0)
    b0 = ComplexField("position", big.values.real.astype(complex))
    with pytest.raises(InstabilityError) as info:
        leapfrog_interact(b0, zero_field(lat), lat, -1.0, 0.2, 500)
    err = info.value
    assert err.step > 0
    assert not np.isfinite(err.energy) or abs(err.energy) > 10 * abs(err.initial_energy)


def test_real_mode_rejects_complex_initial_data():
    lat = build_lattice(32.0, 64, 1.0)
    with pytest.raises(ValueError):
        leapfrog_interact(gaussian_packet(lat, 1.0, 8.0, 3.0), zero_field(lat), lat, 0.0, 0.1, 2)


def test_complex_mode_runs_without_an_energy_record():
    lat = build_lattice(32.0, 64, 1.0)
    packet = gaussian_packet(lat, 1.0, 8.0, 3.0)
    run = leapfrog_interact(
        packet, zero_field(lat), lat, 0.05, 0.1, 20, field_mode="complex", record_every=20
    )
    assert run.energy is None
    assert np.iscomplexobj(run.final.values)


# --- front tracking ---------------------------------------------------------------


def test_front_speed_matches_the_group_velocity():
    lat = build_lattice(128.0, 512, 1.0)
    packet = gaussian_packet(lat, 1.0, 32.0, 8.0)
    run = spectral_run(packet, lat, 2.0, 15)
    measured = wavefront_measure(run, 1.0)
    assert measured.trackable
    assert measured.expected_speed == pytest.approx(1.0 / np.sqrt(2.0))
    assert abs(measured.speed - measured.expected_speed) / measured.expected_speed < 0.02


def test_stationary_packet_does_not_drift():
    lat = build_lattice(64.0, 256, 1.0)
    packet = gaussian_packet(lat, 0.0, 16.0, 4.0)
    run = spectral_run(packet, lat, 1.0, 10)
    measured = wavefront_measure(run, 0.0)
    assert measured.max_displacement < 1e-8


def test_front_tracking_requires_usable_intensity():
    lat = build_lattice(64.0, 256, 1.0)
    flat = ComplexField("position", np.zeros(256, dtype=complex))
    run = spectral_run(flat, lat, 1.0, 3)
    with pytest.raises(FrontTrackingError):
        wavefront_measure(run, 1.0)


def test_front_tracking_is_one_dimensional_only():
    lat = build_lattice([16.0, 16.0], [32, 32], 1.0)
    packet = gaussian_packet(lat, [1.0, 0.0], [4.0, 4.0], 2.0)
    run = spectral_run(packet, lat, 0.5, 3)
    with pytest.raises(ValueError):
        wavefront_measure(run, 1.0)
