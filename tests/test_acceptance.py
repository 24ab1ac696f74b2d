"""Acceptance suite: one test per release criterion.

Run with ``pytest tests/test_acceptance.py -v`` to get a pass/fail line per
criterion.  Each test states its tolerance explicitly and fails honestly if
the implementation stops meeting it; none of the bounds are tuned to the
current output beyond the stated margins.
"""

import time

import numpy as np
import pytest

from ontofield.cyclic import CycleConfig, basis_change, energy_levels, evolution_matrix
from ontofield.dynamics import (
    gaussian_packet,
    evolve_convolution,
    leapfrog_interact,
    refinement_study,
    spectral_run,
    stability_bound,
    wavefront_measure,
)
from ontofield.kernels import (
    KernelSpec,
    decay_fit,
    f1_contour,
    f1_direct,
    kernel_table,
    spacelike_suppression_scan,
)
from ontofield.ladder import (
    TimedOperator,
    b_eigensystem,
    build_mode,
    evolve_operator,
    reconstruct_a,
)
from ontofield.lattice import (
    ComplexField,
    build_lattice,
    spectral_evolve,
    to_momentum,
    to_position,
)
from ontofield.vacuum import EnsembleSpec, ensemble_correlator


def test_criterion_01_ladder_identities():
    """Unitarity, commutation, spectrum, and reconstruction for N up to 64.

    Tolerances: unitarity 1e-13, unequal-time commutators 1e-12 over ten
    random time pairs, eigenvalues 1e-10 against the roots of unity,
    reconstruction 1e-12 away from the wrap entry.  Budget: 5 seconds.
    """
    start = time.perf_counter()
    rng = np.random.default_rng(202)
    omega = 1.3
    for n in (2, 3, 8, 32, 64):
        ops = build_mode(n, omega)
        eye = np.eye(n)
        assert np.max(np.abs(ops.b @ ops.b_dag - eye)) < 1e-13
        assert np.max(np.abs(ops.b_dag @ ops.b - eye)) < 1e-13

        for t1, t2 in rng.uniform(0.0, 4 * np.pi / omega, size=(10, 2)):
            bt1 = evolve_operator(TimedOperator(ops.b, omega, "lowering"), t1)
            bdag_t2 = evolve_operator(TimedOperator(ops.b_dag, omega, "raising"), t2)
            assert np.max(np.abs(bt1 @ bdag_t2 - bdag_t2 @ bt1)) < 1e-12

        values, _ = b_eigensystem(ops)
        expected = np.exp(-2j * np.pi * np.arange(n) / n)
        assert np.max(np.abs(values - expected)) < 1e-10

        rebuilt = reconstruct_a(ops)
        assert np.max(np.abs((rebuilt - ops.a)[:, 1:])) < 1e-12
        # The wrap entry is the one deliberate defect; its size is fixed.
        assert rebuilt[n - 1, 0] == pytest.approx(np.sqrt(n), abs=1e-12)
    assert time.perf_counter() - start < 5.0


def test_criterion_02_cyclic_spectrum():
    """Exact periodicity, diagonalization leakage below 1e-12, and level
    spacing E_n = n * omega to a relative 1e-14."""
    for n in (2, 3, 4, 8, 32):
        config = CycleConfig(n_states=n, delta_t=0.7)
        hop = evolution_matrix(config)
        assert np.array_equal(np.linalg.matrix_power(hop, n), np.eye(n, dtype=complex))

        m = basis_change(config)
        diag = m.conj().T @ hop @ m
        leakage = np.max(np.abs(diag - np.diag(np.diag(diag))))
        assert leakage < 1e-12

        levels = energy_levels(config)
        target = config.omega * np.arange(n)
        scale = np.maximum(target, config.omega)
        assert np.max(np.abs(levels - target) / scale) < 1e-14


def test_criterion_03_static_kernel_routes_agree():
    """Contour and windowed-quadrature values of the static kernel agree to
    a relative 1e-6 on a mass and radius grid.  Budget: 30 seconds."""
    start = time.perf_counter()
    for mass in (0.5, 1.0, 2.0):
        for mz in (0.5, 1.0, 2.0, 3.0, 5.0):
            z = mz / mass
            cutoff = 240.0 * max(1.0, mass) * max(1.0, mz / 3.0) ** 0.5
            reference = f1_contour(z, mass)
            direct = f1_direct(z, mass, cutoff)
            assert abs(direct - reference) < 1e-6 * abs(reference), (mass, mz)
    assert time.perf_counter() - start < 30.0


def test_criterion_04_massless_closed_form():
    """Massless static kernel equals -1 / (pi^2 z^4) to a relative 1e-8."""
    for z in (0.5, 1.0, 2.0, 4.0):
        exact = -1.0 / (np.pi**2 * z**4)
        assert f1_contour(z, 0.0) == pytest.approx(exact, rel=1e-8)
        assert f1_direct(z, 0.0, 60.0) == pytest.approx(exact, rel=1e-8)


def test_criterion_05_decay_rate_recovers_mass():
    """Exponential fit of the static tail returns -M within 5 percent for
    masses 1 and 2 over M z in [2, 8]."""
    for mass in (1.0, 2.0):
        spec = KernelSpec(kind="F1", mass=mass, method="contour")
        z = np.linspace(2.0 / mass, 8.0 / mass, 25)
        fit = decay_fit(kernel_table(spec, z))
        assert abs(fit.slope + mass) / mass < 0.05


def test_criterion_06_convolution_matches_spectral():
    """Spatial convolution against the transform route stays below 1e-10 on
    a 64-site line over three periods of the slowest mode."""
    lat = build_lattice(8 * np.pi, 64, 1.0)
    rng = np.random.default_rng(0)
    field = ComplexField("position", rng.normal(size=64) + 1j * rng.normal(size=64))
    slowest_period = 2 * np.pi / lat.mass
    for t in np.linspace(0.0, 3 * slowest_period, 7)[1:]:
        via_transform = to_position(spectral_evolve(to_momentum(field, lat), lat, t), lat)
        via_kernel = evolve_convolution(field, lat, t)
        assert np.max(np.abs(via_transform.values - via_kernel.values)) < 1e-10


def test_criterion_07_field_equation_second_order():
    """Discrete residual of the field equation falls by 4 +- 0.5 per
    half-stepping of dt and dx, for both the massive and massless cases."""
    profile = lambda x: np.exp(-((x - 16.0) ** 2) / 8.0) * np.exp(1j * x)
    for mass in (1.0, 0.0):
        report = refinement_study(
            profile, box_length=32.0, base_points=128, base_dt=0.1, mass=mass, levels=3
        )
        assert len(report.ratios) == 2
        for ratio in report.ratios:
            assert abs(ratio - 4.0) < 0.5, mass


def test_criterion_08_front_speed():
    """Packet fronts move at the group velocity within 2 percent, and a
    zero-momentum packet stays put.  Budget: 60 seconds at 1024 sites."""
    start = time.perf_counter()

    def measure(mass, k0):
        lat = build_lattice(128.0, 1024, mass)
        packet = gaussian_packet(lat, k0, 32.0, 8.0)
        run = spectral_run(packet, lat, 2.0, 20)
        return wavefront_measure(run, k0)

    massive = measure(1.0, 1.0)
    assert massive.trackable
    assert abs(massive.speed - massive.expected_speed) / massive.expected_speed < 0.02

    massless = measure(0.0, 1.0)
    assert massless.trackable
    assert abs(massless.speed - 1.0) < 0.02

    resting = measure(1.0, 0.0)
    assert resting.max_displacement < 1e-8
    assert time.perf_counter() - start < 60.0


def test_criterion_09_spacelike_suppression():
    """|F2| decreases monotonically (within quadrature error) along every
    spacelike scan, and doubling the mass steepens the decay rate."""
    z = np.linspace(2.5, 7.0, 10)
    near = spacelike_suppression_scan(1.0, 1.0, z)
    far = spacelike_suppression_scan(1.0, 2.0, z)
    heavy = spacelike_suppression_scan(2.0, 2.0, z)
    for report in (near, far, heavy):
        assert report.monotone, (report.mass, report.t, report.violations)
    assert heavy.decay_rate < far.decay_rate - 0.5


def test_criterion_10_leapfrog_conservation():
    """At half the stability bound: relative energy drift below 1e-6 over
    ten thousand steps, first-order response to the coupling within 10
    percent, and exact reversibility to 1e-10."""
    lat = build_lattice(32.0, 64, 1.0)
    dt = 0.5 * stability_bound(lat)
    zero = ComplexField("position", np.zeros(64, dtype=complex))

    def packet(amplitude):
        values = gaussian_packet(lat, 1.0, 8.0, 3.0, amplitude=amplitude).values.real
        return ComplexField("position", values.astype(complex))

    run = leapfrog_interact(packet(0.05), zero, lat, 0.1, dt, 10_000, record_every=100)
    drift = np.max(np.abs(run.energy - run.energy[0])) / abs(run.energy[0])
    assert drift < 1e-6

    b0 = packet(0.5)
    free = leapfrog_interact(b0, zero, lat, 0.0, dt, 400, record_every=400)
    couplings = np.array([1e-3, 2e-3, 4e-3])
    shifts = [
        float(
            np.linalg.norm(
                leapfrog_interact(b0, zero, lat, lam, dt, 400, record_every=400).final.values
                - free.final.values
            )
        )
        for lam in couplings
    ]
    slope = np.polyfit(np.log(couplings), np.log(shifts), 1)[0]
    assert abs(slope - 1.0) < 0.1

    fwd = leapfrog_interact(packet(0.05), zero, lat, 0.1, dt, 1000, record_every=1000)
    back = leapfrog_interact(
        ComplexField("position", fwd.final.values, time=0.0),
        ComplexField("position", -fwd.velocity.astype(complex), time=0.0),
        lat,
        0.1,
        dt,
        1000,
        record_every=1000,
    )
    assert np.max(np.abs(back.final.values - packet(0.05).values)) < 1e-10


def test_criterion_11_vacuum_correlator():
    """Ten thousand phase draws on 32 sites reproduce the delta correlator:
    every diagonal entry within three standard errors of one, every
    off-diagonal entry within three of zero, before and after evolving to
    t = 1/M."""
    spec = EnsembleSpec(lattice=build_lattice(2 * np.pi, 32, 1.0), count=10_000, seed=6)
    for t in (0.0, 1.0):
        estimate = ensemble_correlator(spec, evolve_time=t)
        n = estimate.mean.shape[0]
        off = ~np.eye(n, dtype=bool)
        assert not estimate.zero_variance.any()
        diag_pull = np.max(np.abs(np.diag(estimate.mean) - 1.0) / np.diag(estimate.stderr))
        off_pull = np.max(np.abs(estimate.mean[off]) / estimate.stderr[off])
        assert diag_pull < 3.0, t
        assert off_pull < 3.0, t
