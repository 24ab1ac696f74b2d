"""Real-space propagation kernels of the free relativistic scalar field.

Two kernels appear in the position-space form of the mode dynamics: the
static weight

    F1(z) = (2*pi)^-3 * integral d^3k  omega(k) * exp(i k.z)

and the finite-time propagator

    F2(z, t) = (2*pi)^-3 * integral d^3k  exp(i k.z - i omega(k) t)

with ``omega(k) = sqrt(k.k + M^2)``.  Rotation symmetry reduces both to one
radial dimension, which this module integrates along two independent routes:

* a windowed radial quadrature up to a finite cutoff (the defining integral,
  made convergent by an exact subtraction of its ultraviolet polynomial part
  plus a smooth taper on the remainder), and
* a contour-deformed representation along the imaginary axis, where the
  integrand decays like ``exp(-p z)`` and no cutoff or window enters.

Agreement between the routes is the correctness argument; the module also
fits the Compton-scale exponential decay of F1, evaluates the group
velocity, and scans the spacelike suppression of F2.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, NamedTuple, Sequence

import numpy as np

from ontofield._rules import Problems, finite, finite_entries, is_real, nonnegative_finite, one_of, problems, refuse
from ontofield.lattice import _RULES as _LATTICE_RULES, _write_csv

__all__ = [
    "DecayFit",
    "KernelSpec",
    "KernelTable",
    "QuadratureError",
    "SuppressionReport",
    "decay_fit",
    "f1_contour",
    "f1_direct",
    "f2_contour",
    "f2_direct",
    "group_velocity",
    "kernel_table",
    "spacelike_suppression_scan",
]

_KINDS = ("F1", "F2")
_METHODS = ("radial_reduced", "contour")
_MIN_FIT_POINTS = 8
_TWO_PI_SQ = 2.0 * np.pi**2
# |F1| falls like z**-2.5 * exp(-M z) at large z (Watson's lemma).
_DECAY_PREFACTOR_POWER = 2.5


class QuadratureError(RuntimeError):
    """Adaptive quadrature failed to converge.

    Carries the best available value and the error bound the integrator
    achieved, so callers can still inspect how far off the result is.
    """

    def __init__(self, message: str, estimate: float, error_bound: float):
        super().__init__(f"{message} (estimate {estimate!r}, error bound {error_bound!r})")
        self.estimate = estimate
        self.error_bound = error_bound


def _quad(func: Callable[[float], float], a: float, b: float, **kwargs) -> tuple[float, float]:
    """scipy.integrate.quad with convergence trouble turned into a typed error.

    scipy.integrate is imported here, at the first quadrature, so that the
    package and every experiment without a kernel table load no scipy.
    ``quad`` is looked up on the module at each call, so a wrapper put on
    ``scipy.integrate.quad`` (a tracer, a test) sees every quadrature.
    """
    from scipy import integrate

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        result = integrate.quad(func, a, b, full_output=1, **kwargs)
    value, error = result[0], result[1]
    if not np.isfinite(value) or (
        len(result) > 3 and error > 1e-3 * abs(value) + 1e-8
    ):
        message = result[3] if len(result) > 3 else "non-finite quadrature result"
        raise QuadratureError(str(message).replace("\n", " "), value, error)
    return value, error


def _err_floor(value: float, error: float) -> float:
    """Keep error estimates strictly positive even for vanishing integrands."""
    return max(error, abs(value) * 1e-16, 1e-300)


# --- smooth high-k windows -------------------------------------------------
#
# Each profile maps u in [0, 1] to a taper running from 1 to 0, with its
# first two (quintic) or three (septic) derivatives zero at both ends.  Both
# are in Horner form with only + and *, so a Python float and an ndarray
# give bitwise the same result and the quadrature callback never boxes its
# argument into numpy.

def _quintic_profile(u: float | np.ndarray) -> float | np.ndarray:
    return 1.0 - u * u * u * (10.0 + u * (-15.0 + 6.0 * u))


def _septic_profile(u: float | np.ndarray) -> float | np.ndarray:
    u2 = u * u
    return 1.0 - u2 * u2 * (35.0 + u * (-84.0 + u * (70.0 - 20.0 * u)))


WINDOWS: dict[str, Callable[[float | np.ndarray], float | np.ndarray]] = {
    "quintic": _quintic_profile,
    "septic": _septic_profile,
}
# The default window and taper fraction of every windowed kernel.
_WINDOW, _TAPER_FRAC = "septic", 0.5


# Probe cutoffs of the error estimate, as fractions of the cutoff.
_PROBES = (0.75, 0.875)

_Taper = Callable[[float], float] | None


def _tapered(func: Callable[[float], float], taper: _Taper) -> Callable[[float], float]:
    """``func`` times ``taper``, or ``func`` itself where there is no taper."""
    if taper is None:
        return func
    return lambda k: func(k) * taper(k)


def _windowed(spec: KernelSpec, integral: Callable[[_Taper, float, float], tuple]) -> tuple:
    """Windowed integral at the cutoff and its error estimate.

    ``integral(taper, lo, hi)`` integrates over ``[lo, hi]`` with the
    integrand times ``taper(k)``, or bare when ``taper`` is None.  Each
    cutoff ``lam`` is two pieces: ``[0, k_start]``, where the window is 1,
    bare (skipped at ``taper_frac == 1``), and ``[k_start, lam]`` under the
    profile, with ``k_start = (1 - taper_frac) * lam``.  The estimate adds to
    the quadrature estimates the largest shift (plus its own quadrature
    estimate) seen when the cutoff moves to each fraction in ``_PROBES``, so
    it tracks the sensitivity to the cutoff placement; it is not a bound
    (the README F1 table, whose remainder is integrated cancellation-free by
    :func:`_f1_direct`, misses its closed form by up to 1.64 times it).
    """
    profile = WINDOWS[spec.window]

    def at(lam: float) -> tuple:
        k_start = (1.0 - spec.taper_frac) * lam
        width = lam - k_start

        def taper(k: float) -> float:
            return float(profile((k - k_start) / width))

        value, error = integral(taper, k_start, lam)
        if spec.taper_frac < 1.0:
            bare, bare_error = integral(None, 0.0, k_start)
            value, error = bare + value, bare_error + error
        return value, error

    value, error = at(spec.cutoff)
    shift = max(
        abs(value - probe) + probe_error
        for probe, probe_error in (at(frac * spec.cutoff) for frac in _PROBES)
    )
    return value, error + shift


# --- F1 --------------------------------------------------------------------

def _f1_contour(spec: KernelSpec, z: float) -> tuple[float, float]:
    mass = spec.mass

    # p = M + s/z turns the contour integrand into exp(-s) times a slowly
    # varying factor, so the infinite range converges on a few panels.
    def integrand(s: float) -> float:
        u = s / z
        return np.exp(-s) * (u * (2.0 * mass + u)) ** 1.5

    raw, raw_err = _quad(integrand, 0.0, np.inf, epsabs=1e-14, epsrel=1e-13, limit=400)
    scale = np.exp(-mass * z) / (6.0 * np.pi**2 * z)
    return -scale * raw, _err_floor(scale * raw, scale * raw_err)


def f1_contour(z: float, mass: float) -> float:
    """Static kernel via the contour representation (no cutoff, no window).

    Evaluates ``-(1/(6*pi^2)) * integral_M^inf dp exp(-p z) (p^2 - M^2)^(3/2)``
    after the substitution ``p = M + s/z``.  Massless limit:
    ``f1_contour(z, 0) = -1/(pi^2 z^4)``.
    """
    return _evaluate(KernelSpec("F1", mass, method="contour"), z)[0]


def _f1_direct(spec: KernelSpec, z: float) -> tuple[float, float]:
    mass = spec.mass

    # The radial integrand k*omega(k)*sin(kz) grows like k^2; windowing that
    # growth directly leaves a taper artifact far above the target accuracy.
    # Split off the polynomial part k^2 + M^2/2, whose regularized sine
    # moments are known in closed form, and window only the O(k^-2)
    # remainder R(k) = k*omega(k) - k^2 - M^2/2.  Written as
    # -M^4 / (2 (omega + k)^2) it has no difference of large terms, so its
    # rounding stays relative at any k; at k = 0 and M = 0 that form is
    # 0/0, hence the branch.
    mass_sq = mass * mass
    half_m4 = 0.5 * mass_sq * mass_sq

    def remainder(k: float) -> float:
        if k == 0.0:
            return -0.5 * mass_sq
        root = math.sqrt(k * k + mass_sq) + k
        return -half_m4 / (root * root)

    def integral(taper: _Taper, lo: float, hi: float) -> tuple[float, float]:
        return _quad(
            _tapered(remainder, taper), lo, hi, weight="sin", wvar=z, limit=400,
            epsabs=1e-13, epsrel=1e-12,
        )

    tail, tail_err = _windowed(spec, integral)
    regularized = -2.0 / z**3 + 0.5 * mass * mass / z
    value = (regularized + tail) / (_TWO_PI_SQ * z)
    return value, _err_floor(value, tail_err / (_TWO_PI_SQ * z))


def f1_direct(
    z: float,
    mass: float,
    cutoff: float,
    *,
    window: str = _WINDOW,
    taper_frac: float = _TAPER_FRAC,
) -> float:
    """Static kernel via the defining radial integral up to a finite cutoff.

    The angular part of the D=3 integral is done analytically, leaving
    ``(1/(2*pi^2*z)) * integral_0^cutoff dk k*omega(k)*sin(kz)`` regulated by
    an exact ultraviolet subtraction plus a smooth taper (``window``,
    ``taper_frac``) on the last part of the range.  The subtraction leaves
    the remainder ``k*omega - k^2 - M^2/2``, integrated in its
    cancellation-free form ``-M^4 / (2*(omega + k)^2)``; the range below the
    taper is integrated bare and the taper interval under the window
    profile.  Serves as the independent check of :func:`f1_contour`.  The
    error a :func:`kernel_table` reports (``err``) combines the quadrature
    estimates with the largest shift seen when the cutoff moves to 0.75 or
    0.875 of itself.  It is an estimate, not a bound: against the closed form
    in ``K_2`` the README table (M = 0.3, 1 or 2) misses by up to 1.64 times
    ``err``.
    """
    spec = KernelSpec("F1", mass, cutoff, window=window, taper_frac=taper_frac)
    return _evaluate(spec, z)[0]


# --- F2 --------------------------------------------------------------------

def _f2_direct(spec: KernelSpec, z: float) -> tuple[complex, float]:
    mass, t = spec.mass, spec.t
    # At z = 0 the factor sin(kz)/z degenerates to k: the radial weight
    # becomes k^2 and the sine-weighted rule gives way to plain subdivision.
    sine = {} if z == 0.0 else {"weight": "sin", "wvar": z}
    scale = _TWO_PI_SQ if z == 0.0 else _TWO_PI_SQ * z

    def integral(taper: _Taper, lo: float, hi: float) -> tuple[complex, float]:
        def part(trig: Callable[[float], float], sign: float) -> tuple[float, float]:
            def integrand(k: float) -> float:
                radial = sign * k * k if z == 0.0 else sign * k
                return radial * trig(math.sqrt(k * k + mass * mass) * t)

            return _quad(
                _tapered(integrand, taper), lo, hi, limit=400, epsabs=1e-12, epsrel=1e-11, **sine
            )

        re, re_err = part(math.cos, 1.0)
        im, im_err = part(math.sin, -1.0)
        return (re + 1j * im) / scale, (re_err + im_err) / scale

    value, error = _windowed(spec, integral)
    return value, _err_floor(abs(value), error)


def f2_direct(
    z: float,
    t: float,
    mass: float,
    cutoff: float,
    *,
    window: str = _WINDOW,
    taper_frac: float = _TAPER_FRAC,
) -> complex:
    """Finite-time kernel via the windowed radial integral.

    For ``z > 0`` this is ``(1/(2*pi^2*z)) * integral_0^cutoff dk
    k*sin(kz)*exp(-1j*omega(k)*t)`` with a smooth taper; at ``z = 0`` the
    radial reduction degenerates to ``(1/(2*pi^2)) * integral dk k^2
    exp(-1j*omega(k)*t)``.  At ``t = 0`` the result is the windowed
    realization of the spatial delta, so values away from the origin are
    window ripple by construction.  The spatial oscillation is handled by a
    sine-weighted rule; the temporal phase by adaptive subdivision.  As for
    :func:`f1_direct`, the error a :func:`kernel_table` reports (``err``) is an
    estimate, not a bound.
    """
    spec = KernelSpec("F2", mass, cutoff, t, window=window, taper_frac=taper_frac)
    return _evaluate(spec, z)[0]


def _f2_contour(spec: KernelSpec, z: float) -> tuple[complex, float]:
    mass, t = spec.mass, spec.t

    # Wrapping the radial contour around the branch cut at k = i*M leaves a
    # purely imaginary integral over p = M + s, s >= 0, of
    # p * sinh(kappa t) * exp(-p z), kappa = sqrt(p^2 - M^2).  The exponent
    # kappa |t| - p z peaks at -M r, r = sqrt(z^2 - t^2), on the saddle
    # p |t| = kappa z.  exp(-M r) and sign(t) are taken out of the integral,
    # which leaves the exponent
    #     kappa |t| - p z + M r = -(p |t| - kappa z)^2 / (p z - kappa |t| + M r),
    # at most 0, so the integrand neither overflows nor underflows at the
    # saddle however large M z is.  Both factors are rewritten without a
    # difference of large terms: p |t| - kappa z = (M z - p r)(M z + p r) /
    # (p |t| + kappa z) with M z - p r = M t^2 / (z + r) - s r, and
    # p z - kappa |t| = (p^2 r^2 + M^2 t^2) / (p z + kappa |t|).  The
    # difference of exponentials in sinh is formed by expm1, so the relative
    # tolerance alone (epsabs = 0) sets the accuracy at any magnitude.
    abs_t = abs(t)
    r = math.sqrt((z - abs_t) * (z + abs_t))
    lag = mass * abs_t * abs_t / (z + r)

    def integrand(s: float) -> float:
        p = mass + s
        kappa = math.sqrt(s * (2.0 * mass + s))
        gap = (lag - s * r) * (mass * z + p * r) / (p * abs_t + kappa * z)
        slack = (p * p * r * r + mass * mass * abs_t * abs_t) / (p * z + kappa * abs_t) + mass * r
        return -0.5 * p * math.exp(-gap * gap / slack) * math.expm1(-2.0 * kappa * abs_t)

    raw, raw_err = _quad(integrand, 0.0, np.inf, epsabs=0.0, epsrel=1e-13, limit=400)
    scale = math.copysign(math.exp(-mass * r) / (_TWO_PI_SQ * z), t) if t else 0.0
    return 1j * scale * raw, _err_floor(scale * raw, abs(scale) * raw_err)


def f2_contour(z: float, t: float, mass: float) -> complex:
    """Finite-time kernel in the spacelike regime via the branch-cut contour.

    Valid for ``|t| < z``; the value is purely imaginary and suppressed like
    ``exp(-M*sqrt(z^2 - t^2))``.  No cutoff or window enters, which makes
    this the reference for suppression scans.
    """
    return _evaluate(KernelSpec("F2", mass, t=t, method="contour"), z)[0]


def _radius_problem(kind: str, method: str, t: float, z: float) -> str | None:
    """Why the kernel cannot be evaluated at radius ``z``, or ``None``: F1 needs ``z > 0``,
    the F2 contour route the spacelike regime ``z > |t|``, and the windowed F2 route ``z >= 0``."""
    z = float(z)  # a numpy grid point would show as np.float64(...) in the message
    if kind == "F1":
        return None if z > 0.0 else f"must be positive, got {z!r}"
    if method == "contour":
        return None if z > abs(t) else f"must exceed |t| = {abs(t)!r}, the contour route's spacelike regime, got {z!r}"
    return None if z >= 0.0 else f"must be nonnegative, got {z!r}"


def _evaluate(spec: KernelSpec, z: float) -> tuple[complex, float]:
    """Value and error estimate of the requested kernel at radius ``z``.

    The one place where ``(kind, method)`` selects a route.
    """
    radius = _radius_problem(spec.kind, spec.method, spec.t, z)
    refuse([("z", radius)] if radius else [])
    if spec.method == "contour":
        return _f1_contour(spec, z) if spec.kind == "F1" else _f2_contour(spec, z)
    if spec.kind == "F1":
        return _f1_direct(spec, z)
    return _f2_direct(spec, z)


# --- derived diagnostics ---------------------------------------------------

def _velocity_problems(k, mass: float) -> Problems:
    """Every ``(argument, message)`` reason :func:`group_velocity` refuses ``k`` and ``mass``."""
    found = problems(_RULES, k=k, mass=mass)
    if not found and mass == 0.0 and not np.any(np.asarray(k, dtype=float)):
        found.append(("k", "group velocity undefined at k=0, M=0"))
    return found


def group_velocity(k, mass: float):
    """Propagation velocity ``k / sqrt(k.k + M^2)`` of a packet centered at k.

    ``k`` is one wave vector (any dimension); the return value has the same
    shape.  The magnitude is below 1 for any positive mass and reaches 1
    only in the massless case.
    """
    refuse(_velocity_problems(k, mass))
    k_arr = np.asarray(k, dtype=float)
    return k_arr / np.sqrt(np.sum(k_arr**2) + mass**2)


class DecayFit(NamedTuple):
    """Exponential fit of the static kernel's large-z tail."""

    slope: float
    intercept: float
    residual: float


def decay_fit(table: "KernelTable") -> DecayFit:
    """Least-squares estimate of the exponential decay rate of |F1|.

    Fits ``log(|F1| * z**(5/2))`` against ``z``; the slope estimates
    ``-M``.  The prefactor power 5/2 is the subleading behaviour of the
    contour integral by Watson's lemma; the fit basis also carries a ``1/z``
    nuisance column to absorb the next-order prefactor correction, which
    otherwise biases the slope by several percent on Compton-scale windows.  ``residual`` is the root-mean-square misfit, and
    stays large when the decay is not exponential (e.g. the massless
    power-law tail).
    """
    z = np.asarray(table.z, dtype=float)
    mag = np.abs(np.asarray(table.values))
    if z.size < _MIN_FIT_POINTS:
        raise ValueError(f"decay fit needs at least {_MIN_FIT_POINTS} points, got {z.size}")
    if not np.all(z > 0.0):  # the basis takes log(z) and 1/z
        raise ValueError("decay fit needs positive abscissae")
    if np.any(mag == 0.0):
        raise ValueError("decay fit needs nonzero kernel values")
    if np.ptp(z) == 0.0:
        raise ValueError("degenerate fit: abscissae carry zero variance")
    y = np.log(mag) + _DECAY_PREFACTOR_POWER * np.log(z)
    basis = np.column_stack([z, np.ones_like(z), 1.0 / z])
    coef, *_ = np.linalg.lstsq(basis, y, rcond=None)
    residual = float(np.sqrt(np.mean((y - basis @ coef) ** 2)))
    return DecayFit(slope=float(coef[0]), intercept=float(coef[1]), residual=residual)


@dataclass(frozen=True)
class SuppressionReport:
    """Monotonicity scan of |F2| in the spacelike regime at fixed t.

    ``monotone`` is judged within the per-point error bars; ``decay_rate``
    is the fitted slope of ``log|F2|`` against the invariant separation
    ``sqrt(z^2 - t^2)``, and is ``nan`` when every magnitude vanishes (the
    degenerate ``t = 0`` scan, where the regularized kernel is identically
    zero away from the origin).
    """

    mass: float
    t: float
    z: np.ndarray
    magnitudes: np.ndarray
    errors: np.ndarray
    monotone: bool
    violations: int
    decay_rate: float


def spacelike_suppression_scan(
    mass: float, t: float, z_values: Sequence[float]
) -> SuppressionReport:
    """Scan |F2(z, t)| over increasing z > t and test monotone decrease.

    Uses the contour route, whose quadrature error supplies the bars for the
    monotonicity judgement.
    """
    z = np.asarray(sorted(float(v) for v in z_values), dtype=float)
    if z.size < 2:
        raise ValueError("scan needs at least two abscissae")
    refuse(problems(_SCAN_RULES, t=t))
    table = kernel_table(KernelSpec("F2", mass, t=t, method="contour"), z)
    magnitudes = np.abs(table.values)
    errors = table.errors
    violations = int(
        np.sum(magnitudes[1:] > magnitudes[:-1] + errors[1:] + errors[:-1])
    )
    positive = magnitudes > 0.0
    if np.count_nonzero(positive) >= 2:
        separation = np.sqrt(z[positive] ** 2 - t**2)
        rate = float(np.polyfit(separation, np.log(magnitudes[positive]), 1)[0])
    else:
        rate = float("nan")
    return SuppressionReport(
        mass=float(mass),
        t=float(t),
        z=z,
        magnitudes=magnitudes,
        errors=errors,
        monotone=violations == 0,
        violations=violations,
        decay_rate=rate,
    )


# --- tables ----------------------------------------------------------------

_RULES = {
    "kind": one_of(*_KINDS),
    "mass": _LATTICE_RULES["mass"],
    "cutoff": _LATTICE_RULES["cutoff"],
    "t": finite,
    "k": finite_entries,
    "method": one_of(*_METHODS),
    "window": one_of(*WINDOWS),
    "taper_frac": lambda frac: None if is_real(frac) and 0.0 < frac <= 1.0 else f"must be in (0, 1], got {frac!r}",
}
_SCAN_RULES = {"t": nonnegative_finite}  # the suppression scan's t; a kernel's may be negative


def _spec_problems(
    kind: str, mass: float, cutoff: float | None, t: float, method: str, window: str, taper_frac: float
) -> Problems:
    """Every ``(field, message)`` reason the kernel request cannot be evaluated."""
    found = problems(
        _RULES, kind=kind, mass=mass, cutoff=cutoff, t=t, method=method, window=window, taper_frac=taper_frac
    )
    if found:
        return found
    if kind == "F1" and t != 0.0:
        found.append(("t", "the static kernel takes no time argument"))
    if method != "contour" and cutoff is None:
        found.append(("cutoff", "the windowed radial route needs a positive finite cutoff"))
    return found


@dataclass(frozen=True)
class KernelSpec:
    """Which kernel to evaluate, by which route, with which regulator."""

    kind: str
    mass: float
    cutoff: float | None = None
    t: float = 0.0
    method: str = "radial_reduced"
    window: str = _WINDOW
    taper_frac: float = _TAPER_FRAC

    def __post_init__(self) -> None:
        problems = _spec_problems(**vars(self))
        if problems:
            raise ValueError("; ".join(f"{key}: {message}" for key, message in problems))


@dataclass(frozen=True)
class KernelTable:
    """Kernel values on a z-grid with per-point error estimates."""

    kind: str
    method: str
    mass: float
    cutoff: float | None
    t: float
    z: np.ndarray
    values: np.ndarray
    errors: np.ndarray

    def __post_init__(self) -> None:
        if not np.all(np.isfinite(self.values)):
            raise ValueError("kernel table contains non-finite values")
        if not np.all(self.errors > 0.0):
            raise ValueError("kernel table error estimates must be positive")

    def write_csv(self, path: str | Path) -> None:
        """Columns z, t, re, im, err, method, M, Lambda; 17 significant digits.

        ``t`` is empty for F1 and ``Lambda`` for an uncut table.
        """
        t = None if self.kind == "F1" else self.t
        values = np.asarray(self.values, dtype=complex)
        z, errors = np.asarray(self.z, dtype=float), np.asarray(self.errors, dtype=float)
        columns = [z, t, values.real, values.imag, errors, self.method, self.mass, self.cutoff]
        _write_csv(path, ["z", "t", "re", "im", "err", "method", "M", "Lambda"], columns)


def kernel_table(spec: KernelSpec, z_values: Sequence[float]) -> KernelTable:
    """Evaluate the requested kernel on a grid of radii."""
    z = np.asarray([float(v) for v in z_values], dtype=float)
    if z.size == 0:
        raise ValueError("empty abscissa grid")
    values = np.empty(z.size, dtype=complex)
    errors = np.empty(z.size, dtype=float)
    for i, zi in enumerate(z):
        value, error = _evaluate(spec, zi)
        values[i] = value
        errors[i] = error
    return KernelTable(
        kind=spec.kind,
        method=spec.method,
        mass=spec.mass,
        cutoff=None if spec.method == "contour" else spec.cutoff,
        t=spec.t,
        z=z,
        values=values,
        errors=errors,
    )
