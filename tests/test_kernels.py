"""Tests for the radial kernels, their dual evaluation routes, and decay fits."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import integrate
from scipy.special import kv

from ontofield.kernels import (
    WINDOWS,
    KernelSpec,
    QuadratureError,
    decay_fit,
    f1_contour,
    f1_direct,
    f2_contour,
    f2_direct,
    group_velocity,
    kernel_table,
    spacelike_suppression_scan,
)

# Contour-route values frozen after cross-checking against the windowed
# radial quadrature at cutoff 240 and above (agreement better than 4e-8
# relative).  They guard both routes against silent regressions.
F1_REFERENCE = {
    (1.0, 1.0): -8.231530021891e-2,
    (2.0, 1.0): -3.213904836678e-3,
    (3.0, 1.0): -3.462395810411e-4,
    (5.0, 1.0): -1.075816921626e-5,
    (0.25, 2.0): -2.447979309212e1,
    (0.5, 1.0): -1.529987068257,
}

F2_REFERENCE = {
    (2.0, 1.0, 1.0): 6.590314680687917e-3j,
    (3.0, 2.0, 1.0): 3.599332325667631e-3j,
    (5.0, 3.0, 1.0): 1.652937217229665e-4j,
    (2.5, 2.0, 1.0): 2.628298357203229e-2j,
}


# --- static kernel -------------------------------------------------------------


def test_massless_static_kernel_has_a_closed_form():
    for z in (0.5, 1.0, 2.0, 4.0):
        exact = -1.0 / (np.pi**2 * z**4)
        assert f1_contour(z, 0.0) == pytest.approx(exact, rel=1e-12)


def test_static_contour_reference_values():
    for (z, mass), expected in F1_REFERENCE.items():
        assert f1_contour(z, mass) == pytest.approx(expected, rel=1e-9)


def test_static_routes_agree_at_moderate_cutoff():
    for z, mass in ((1.0, 1.0), (2.0, 1.0), (1.0, 2.0)):
        cutoff = 240.0 * max(1.0, mass)
        direct = f1_direct(z, mass, cutoff)
        assert direct == pytest.approx(f1_contour(z, mass), rel=1e-6)


def test_full_taper_has_no_bare_piece_and_matches_the_contour_route(monkeypatch):
    # taper_frac = 1 puts the whole range under the profile: each of the
    # three cutoffs (the cutoff and its two probes) is one quadrature.
    quad, limits = integrate.quad, []

    def recording(func, a, b, **kwargs):
        limits.append((a, b))
        return quad(func, a, b, **kwargs)

    monkeypatch.setattr(integrate, "quad", recording)
    for z, mass in ((1.0, 1.0), (2.0, 1.0), (1.0, 2.0)):
        limits.clear()
        cutoff = 240.0 * max(1.0, mass)
        direct = f1_direct(z, mass, cutoff, window="septic", taper_frac=1.0)
        assert limits == [(0.0, cutoff), (0.0, 0.75 * cutoff), (0.0, 0.875 * cutoff)]
        assert direct == pytest.approx(f1_contour(z, mass), rel=1e-6)


def test_massless_direct_route_is_exact():
    # With no mass the subtracted remainder vanishes identically, so the
    # windowed quadrature reduces to the Abel-summed closed form.
    for z in (0.5, 1.0, 2.0, 4.0):
        exact = -1.0 / (np.pi**2 * z**4)
        assert f1_direct(z, 0.0, 40.0) == pytest.approx(exact, rel=1e-12)


def test_cutoff_doubling_leaves_the_value_fixed():
    # Steep-window tails converge fast enough that doubling the cutoff is
    # invisible at the 1e-8 level, with an absolute floor for values that
    # are themselves exponentially small.
    for z, mass in ((1.0, 1.0), (3.0, 1.0), (2.0, 0.5), (10.0, 0.5)):
        lo = f1_direct(z, mass, 200.0, window="septic", taper_frac=0.5)
        hi = f1_direct(z, mass, 400.0, window="septic", taper_frac=0.5)
        assert abs(hi - lo) < max(1e-8 * abs(lo), 1e-14)


def test_window_choice_does_not_move_the_converged_value():
    z, mass = 2.0, 1.0
    cutoff = 360.0
    reference = f1_contour(z, mass)
    for window in ("cosine", "quintic", "septic", "bump"):
        value = f1_direct(z, mass, cutoff, window=window, taper_frac=0.25)
        assert value == pytest.approx(reference, rel=1e-6), window


# Reference: the polynomial profiles in power form.
POWER_FORM_PROFILES = {
    "quintic": lambda u: 1.0 - u**3 * (10.0 - 15.0 * u + 6.0 * u**2),
    "septic": lambda u: 1.0 - u**4 * (35.0 - 84.0 * u + 70.0 * u**2 - 20.0 * u**3),
}


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=40))
@example([0.0, 0.5, 1.0])
def test_windows_give_the_same_bits_on_floats_and_arrays(draws):
    # The quadrature callback hands the profile a Python float; an array of
    # |k| (a mode sum) must get the same bits.
    u = np.array(draws)
    for name, power_form in POWER_FORM_PROFILES.items():
        profile = WINDOWS[name]
        on_floats = [profile(x) for x in draws]
        assert all(type(value) is float for value in on_floats), name
        assert np.array_equal(profile(u).view(np.uint64), np.array(on_floats).view(np.uint64)), name
        assert np.max(np.abs(profile(u) - power_form(u))) <= 1e-13, name
    # cos and exp may round differently in libm and in numpy's array loops,
    # so these two are held to a 0-d array, the form the callback used to pass.
    for name in ("cosine", "bump"):
        profile = WINDOWS[name]
        on_floats = np.array([profile(x) for x in draws], dtype=float)
        on_0d = np.array([profile(np.asarray(x)) for x in draws], dtype=float)
        assert np.array_equal(on_floats.view(np.uint64), on_0d.view(np.uint64)), name


def test_unknown_window_is_rejected():
    with pytest.raises(ValueError):
        f1_direct(1.0, 1.0, 40.0, window="hann")


def test_exhausted_quadrature_raises_with_diagnostics(monkeypatch):
    # Two subintervals cannot resolve the oscillating integrand.
    quad = integrate.quad
    monkeypatch.setattr(integrate, "quad", lambda *args, **kwargs: quad(*args, **{**kwargs, "limit": 2}))
    with pytest.raises(QuadratureError) as info:
        f1_direct(2.0, 1.0, 500.0)
    err = info.value
    assert np.isfinite(err.estimate)
    assert err.error_bound > 0.0


# --- time-dependent kernel -------------------------------------------------------


def test_spacelike_contour_reference_values():
    for (z, t, mass), expected in F2_REFERENCE.items():
        value = f2_contour(z, t, mass)
        assert value.real == 0.0
        assert value.imag == pytest.approx(expected.imag, rel=1e-9)


def test_contour_kernel_is_odd_in_time():
    value = f2_contour(3.0, 1.5, 1.0)
    assert f2_contour(3.0, -1.5, 1.0) == pytest.approx(-value, rel=1e-12)
    assert f2_contour(3.0, 0.0, 1.0) == 0.0


def test_contour_kernel_requires_spacelike_separation():
    with pytest.raises(ValueError):
        f2_contour(1.0, 2.0, 1.0)
    with pytest.raises(ValueError):
        f2_contour(1.0, 1.0, 1.0)


def test_direct_kernel_conjugates_under_time_reversal():
    value = f2_direct(2.0, 0.8, 1.0, 20.0)
    mirrored = f2_direct(2.0, -0.8, 1.0, 20.0)
    assert mirrored == np.conj(value)


def test_direct_kernel_is_continuous_at_the_origin():
    at_zero = f2_direct(0.0, 0.7, 1.0, 30.0)
    nearby = f2_direct(1e-7, 0.7, 1.0, 30.0)
    assert abs(nearby - at_zero) < 1e-5 * abs(at_zero)
    assert abs(at_zero.imag) > 0.0


def test_timelike_magnitude_beats_spacelike_magnitude():
    # Inside the cone the kernel oscillates without exponential suppression;
    # outside it drops like exp(-M s).
    cutoff = 30.0
    inside = abs(f2_direct(1.0, 4.0, 1.0, cutoff))
    outside = abs(f2_contour(4.0, 1.0, 1.0))
    assert inside > 10.0 * outside


def test_eval_dispatches_on_method():
    z = [2.0]
    direct = kernel_table(KernelSpec("F2", 1.0, 60.0, 1.0, method="direct_quadrature"), z)
    radial = kernel_table(KernelSpec("F2", 1.0, 60.0, 1.0, method="radial_reduced"), z)
    assert direct.values[0] == radial.values[0]
    assert radial.values[0] == f2_direct(2.0, 1.0, 1.0, 60.0)
    contour = kernel_table(KernelSpec("F2", 1.0, t=1.0, method="contour"), z)
    assert contour.values[0] == f2_contour(2.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        KernelSpec("F2", 1.0, 60.0, 1.0, method="brute_force")
    with pytest.raises(ValueError):
        KernelSpec("F2", 1.0, t=1.0, method="radial_reduced")


def test_group_velocity_shapes_and_limits():
    assert group_velocity(1.0, 1.0) == pytest.approx(1.0 / np.sqrt(2.0))
    assert group_velocity(1.0, 0.0) == pytest.approx(1.0)
    # A wave vector maps to a velocity vector along the same direction.
    k = np.array([0.0, 1.0, 3.0])
    expected = k / np.sqrt(np.sum(k**2) + 1.0)
    assert np.allclose(group_velocity(k, 1.0), expected, atol=1e-15)
    assert np.linalg.norm(group_velocity(k, 1.0)) < 1.0
    with pytest.raises(ValueError):
        group_velocity(0.0, 0.0)


def test_narrowband_peak_travels_at_the_group_velocity():
    # Independent check against a brute-force wave integral: a narrow band
    # of modes around k0 forms a peak whose drift speed must match the
    # stationary-phase prediction within 2 percent.
    k0, mass, sigma = 1.0, 1.0, 0.05
    k = np.linspace(k0 - 5 * sigma, k0 + 5 * sigma, 2001)
    amp = np.exp(-((k - k0) ** 2) / (2 * sigma**2))
    omega = np.sqrt(k**2 + mass**2)
    vg = group_velocity(k0, mass)

    def peak_at(t: float) -> float:
        z = np.linspace(vg * t - 10.0, vg * t + 10.0, 801)
        wave = np.trapezoid(amp * np.exp(1j * (np.outer(z, k) - omega * t)), k, axis=1)
        i = int(np.argmax(np.abs(wave)))
        y0, y1, y2 = np.abs(wave[i - 1 : i + 2])
        return z[i] + 0.5 * (y0 - y2) / (y0 - 2 * y1 + y2) * (z[1] - z[0])

    t1, t2 = 30.0, 34.0
    speed = (peak_at(t2) - peak_at(t1)) / (t2 - t1)
    assert abs(speed - vg) / vg < 0.02


# --- tables and fits -------------------------------------------------------------


def test_spec_validation_catches_inconsistent_requests():
    with pytest.raises(ValueError):
        KernelSpec(kind="F3", mass=1.0)
    with pytest.raises(ValueError):
        KernelSpec(kind="F1", mass=-1.0)
    # omega needs M^2 on every route; a square that overflows is a NaN table.
    with pytest.raises(ValueError, match="^mass: must have a square that does not overflow"):
        KernelSpec(kind="F1", mass=1e300, cutoff=240.0)
    with pytest.raises(ValueError):
        KernelSpec(kind="F1", mass=1.0, t=0.5, method="contour")
    with pytest.raises(ValueError):
        KernelSpec(kind="F2", mass=1.0, method="radial_reduced")
    with pytest.raises(ValueError):
        KernelSpec(kind="F1", mass=1.0, cutoff=40.0, method="radial_reduced", taper_frac=0.0)
    with pytest.raises(ValueError):
        KernelSpec(kind="F1", mass=1.0, cutoff=40.0, method="radial_reduced", window="hann")


def test_table_carries_values_and_positive_errors(tmp_path):
    spec = KernelSpec(kind="F1", mass=1.0, method="contour")
    z = np.linspace(1.0, 3.0, 5)
    table = kernel_table(spec, z)
    assert table.z.shape == table.values.shape == table.errors.shape == (5,)
    assert np.all(table.errors > 0.0)
    assert table.values[0] == pytest.approx(F1_REFERENCE[(1.0, 1.0)], rel=1e-9)
    path = tmp_path / "table.csv"
    table.write_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0].startswith("z,t,re,im,err")
    assert len(lines) == 6


def test_fit_recovers_the_mass_from_the_tail():
    spec = KernelSpec(kind="F1", mass=1.0, method="contour")
    table = kernel_table(spec, np.linspace(2.0, 8.0, 25))
    fit = decay_fit(table)
    assert fit.slope == pytest.approx(-1.0, abs=0.02)
    assert fit.residual < 5e-3


def test_fit_flags_the_massless_table_as_non_exponential():
    massive = decay_fit(kernel_table(KernelSpec(kind="F1", mass=1.0, method="contour"), np.linspace(2.0, 8.0, 25)))
    massless = decay_fit(kernel_table(KernelSpec(kind="F1", mass=0.0, method="contour"), np.linspace(2.0, 8.0, 25)))
    assert massless.residual > 0.01
    assert massless.residual > 5.0 * massive.residual


def test_fit_range_restricts_the_sample():
    spec = KernelSpec(kind="F1", mass=2.0, method="contour")
    table = kernel_table(spec, np.linspace(0.5, 4.0, 40))
    # The far tail alone fits the mass better than the full table.
    full = decay_fit(table)
    tail = decay_fit(table, fit_range=(1.0, 4.0))
    assert abs(tail.slope + 2.0) < abs(full.slope + 2.0) + 1e-12
    assert tail.slope == pytest.approx(-2.0, abs=0.1)


def test_fit_requires_enough_points():
    spec = KernelSpec(kind="F1", mass=1.0, method="contour")
    table = kernel_table(spec, np.linspace(2.0, 4.0, 7))
    with pytest.raises(ValueError):
        decay_fit(table)


def test_suppression_scan_is_monotone_with_mass_dependent_rate():
    z = np.linspace(2.5, 7.0, 10)
    light = spacelike_suppression_scan(1.0, 2.0, z)
    heavy = spacelike_suppression_scan(2.0, 2.0, z)
    assert light.monotone and light.violations == 0
    assert heavy.monotone and heavy.violations == 0
    assert heavy.decay_rate < light.decay_rate - 0.5


def test_suppression_scan_handles_the_static_slice():
    report = spacelike_suppression_scan(1.0, 0.0, np.linspace(1.0, 3.0, 6))
    assert np.all(report.magnitudes == 0.0)
    assert np.isnan(report.decay_rate)
    assert report.monotone


def test_suppression_scan_validates_the_grid():
    with pytest.raises(ValueError):
        spacelike_suppression_scan(1.0, 2.0, [1.0, 3.0, 4.0])
    with pytest.raises(ValueError):
        spacelike_suppression_scan(1.0, 1.0, [2.0])
    with pytest.raises(ValueError):
        spacelike_suppression_scan(1.0, -0.5, [2.0, 3.0])
    # Unsorted abscissae are accepted and ordered internally.
    report = spacelike_suppression_scan(1.0, 1.0, [4.0, 3.0, 5.0])
    assert np.array_equal(report.z, [3.0, 4.0, 5.0])


def test_far_tail_ratio_sits_between_power_law_bounds():
    # exp(-M s) times a prefactor between s^-2 and s^-4 brackets the decay;
    # the measured ratio across two radii must land inside that window.
    t, mass = 3.0, 1.0
    z1, z2 = 3.2, 5.0
    s1 = np.sqrt(z1**2 - t**2)
    s2 = np.sqrt(z2**2 - t**2)
    ratio = abs(f2_contour(z2, t, mass)) / abs(f2_contour(z1, t, mass))
    base = np.exp(-mass * (s2 - s1))
    assert base * (s1 / s2) ** 4 < ratio < base * (s1 / s2) ** 2


# --- closed forms -----------------------------------------------------------------
#
# Both kernels reduce to the modified Bessel function K_2: the F1 contour
# integral is its integral representation (DLMF 10.32), and the spacelike F2
# is 2i d/dt of the free Wightman function M K_1(M r) / (4 pi^2 r).  The
# values fall to 1e-28, so every comparison is purely relative (abs=0).


def f1_closed_form(z, mass):
    return -(mass**2) * kv(2, mass * z) / (2.0 * np.pi**2 * z**2)


def f2_closed_form(z, t, mass):
    r = np.sqrt(z**2 - t**2)
    return 1j * t * mass**2 * kv(2, mass * r) / (2.0 * np.pi**2 * r**2)


@pytest.mark.parametrize("mass", [0.3, 1.0, 2.0, 5.0])
def test_static_contour_matches_the_closed_form(mass):
    for z in np.linspace(0.2, 12.0, 40):
        assert f1_contour(z, mass) == pytest.approx(f1_closed_form(z, mass), rel=1e-13, abs=0.0)


def test_static_direct_route_matches_the_closed_form():
    for z in np.linspace(0.5, 5.0, 40):
        value = f1_direct(z, 1.0, 240.0, window="septic", taper_frac=0.5)
        assert value == pytest.approx(f1_closed_form(z, 1.0), rel=1e-8, abs=0.0)


def test_direct_route_error_is_an_estimate_not_a_bound():
    """``err`` of the README F1 table is an estimate of the closed-form miss.

    Measured on this table: ``|value - K_2 form| / err`` peaks at 1.64 (at
    z ~ 0.615, where the window sets the miss) and exceeds 1 at 1 of the 40
    points, so twice ``err`` covers every point and ``err`` alone does not.
    """
    spec = KernelSpec("F1", 1.0, 240.0, method="radial_reduced", window="septic", taper_frac=0.5)
    table = kernel_table(spec, np.linspace(0.5, 5.0, 40))
    coverage = np.abs(table.values.real - f1_closed_form(table.z, 1.0)) / table.errors
    assert 1.0 < np.max(coverage) < 2.0


@pytest.mark.parametrize("mass", [0.3, 1.0, 2.0])
def test_twice_the_direct_route_error_covers_the_closed_form_miss(mass):
    # Measured peaks of |value - K_2 form| / err on the README z-grid:
    # 1.46, 1.64 and 1.64 at M = 0.3, 1 and 2, all at z ~ 0.615.
    spec = KernelSpec("F1", mass, 240.0, window="septic", taper_frac=0.5)
    table = kernel_table(spec, np.linspace(0.5, 5.0, 40))
    miss = np.abs(table.values.real - f1_closed_form(table.z, mass))
    assert np.all(miss < 2.0 * table.errors)


def test_static_direct_route_matches_the_closed_form_at_small_mass():
    # The remainder in its cancellation-free form keeps the quadrature clear
    # of rounding noise near the cutoff; measured worst relative miss 4.6e-13.
    for z in np.linspace(0.5, 5.0, 40):
        value = f1_direct(z, 0.3, 240.0, window="septic", taper_frac=0.5)
        assert value == pytest.approx(f1_closed_form(z, 0.3), rel=1e-8, abs=0.0)


@pytest.mark.parametrize(
    "z, t, mass",
    [
        (2.0, 1.0, 1.0),
        (3.0, 1.5, 1.0),
        (4.0, 1.0, 2.0),
        # M z = 45: a value near 1e-22, where an absolute tolerance or a
        # difference of nearly equal exponentials costs accuracy.
        (9.0, 0.9, 5.0),
        # Tiny t: the integral itself is near 1e-13, so an absolute
        # tolerance of 1e-14 would cost accuracy even after exp(-M z) is
        # taken out (1.5e-5 and 1.3e-6 off).
        (5.0, 1e-12, 1.0),
        (1.0, 1e-13, 5.0),
        # Near the light cone at large M z: exp(-M z) underflows at
        # M z > 745 and exp(M (z - r)) overflows at M (z - r) > 709, so
        # only exp(-M r) may be taken out of the integral.
        (750.0, 740.0, 1.0),
        (800.0, 799.0, 1.0),
        (100.0, 99.5, 10.0),
    ],
)
def test_spacelike_contour_matches_the_closed_form(z, t, mass):
    value = f2_contour(z, t, mass)
    assert value.real == 0.0
    assert value.imag == pytest.approx(f2_closed_form(z, t, mass).imag, rel=1e-12, abs=0.0)


def test_massless_spacelike_contour_has_a_closed_form():
    for z, t in ((3.0, 1.0), (2.0, 1.9), (10.0, 0.1), (1.0, -0.5)):
        exact = t / (np.pi**2 * (z**2 - t**2) ** 2)
        assert f2_contour(z, t, 0.0) == pytest.approx(1j * exact, rel=1e-13, abs=0.0)


@pytest.mark.parametrize("mass", [0.3, 1.0, 2.0, 5.0])
def test_spacelike_contour_matches_the_closed_form_on_a_grid(mass):
    # Measured worst relative error over the whole grid: 4.0e-14 against
    # scipy's kv, at (z, t, M) = (11.39, 5.70, 5), inside the quadrature's
    # own epsrel = 1e-13.
    for z in np.linspace(0.2, 12.0, 40):
        for t in (0.5 * z, 0.1 * z, -0.3 * z):
            value = f2_contour(z, t, mass)
            assert value.real == 0.0
            assert value.imag == pytest.approx(f2_closed_form(z, t, mass).imag, rel=1e-12, abs=0.0)
