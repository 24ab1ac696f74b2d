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

import csv
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, NamedTuple, Sequence

import numpy as np
from scipy import integrate

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
    "f2_eval",
    "group_velocity",
    "kernel_table",
    "spacelike_suppression_scan",
]

_METHODS = ("direct_quadrature", "radial_reduced", "contour")
_TWO_PI_SQ = 2.0 * np.pi**2


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
    """scipy.integrate.quad with convergence trouble turned into a typed error."""
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
# Each profile maps u in [0, 1] to a taper running from 1 to 0.  The cosine
# profile is the default; the higher-order ones keep more derivatives
# continuous at the taper ends and converge faster at fixed cutoff.

def _cosine_profile(u: np.ndarray) -> np.ndarray:
    return 0.5 * (1.0 + np.cos(np.pi * u))


def _quintic_profile(u: np.ndarray) -> np.ndarray:
    return 1.0 - u**3 * (10.0 - 15.0 * u + 6.0 * u**2)


def _septic_profile(u: np.ndarray) -> np.ndarray:
    return 1.0 - u**4 * (35.0 - 84.0 * u + 70.0 * u**2 - 20.0 * u**3)


def _bump_profile(u: np.ndarray) -> np.ndarray:
    u = np.clip(u, 0.0, 1.0)
    with np.errstate(divide="ignore", over="ignore"):
        rise = np.where(u < 1.0, np.exp(-1.0 / np.maximum(1.0 - u, 1e-300)), 0.0)
        fall = np.where(u > 0.0, np.exp(-1.0 / np.maximum(u, 1e-300)), 0.0)
    return rise / (rise + fall)


WINDOWS: dict[str, Callable[[np.ndarray], np.ndarray]] = {
    "cosine": _cosine_profile,
    "quintic": _quintic_profile,
    "septic": _septic_profile,
    "bump": _bump_profile,
}


def _window(cutoff: float, window: str, taper_frac: float) -> Callable[[float], float]:
    profile = WINDOWS[window]
    k_start = (1.0 - taper_frac) * cutoff

    def weight(k: float) -> float:
        if k <= k_start:
            return 1.0
        if k >= cutoff:
            return 0.0
        return float(profile(np.asarray((k - k_start) / (cutoff - k_start))))

    return weight


def _windowed(spec: KernelSpec, integral: Callable[[Callable[[float], float], float], tuple]) -> tuple:
    """Windowed integral at the cutoff and its error bound.

    ``integral(weight, lam)`` integrates up to ``lam`` under the taper
    ``weight``.  The bound adds the shift seen when the cutoff moves to
    ``0.75 * cutoff``, so it covers the sensitivity to the cutoff placement.
    """

    def at(lam: float) -> tuple:
        return integral(_window(lam, spec.window, spec.taper_frac), lam)

    value, error = at(spec.cutoff)
    probe, probe_error = at(0.75 * spec.cutoff)
    return value, error + probe_error + abs(value - probe)


def _check_positive(z: float) -> None:
    if not z > 0.0:
        raise ValueError(f"z must be positive, got {z!r}")


# --- F1 --------------------------------------------------------------------

def _f1_contour(spec: KernelSpec, z: float) -> tuple[float, float]:
    _check_positive(z)
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


def _f1_direct(spec: KernelSpec, z: float, quad_limit: int) -> tuple[float, float]:
    _check_positive(z)
    mass = spec.mass

    # The radial integrand k*omega(k)*sin(kz) grows like k^2; windowing that
    # growth directly leaves a taper artifact far above the target accuracy.
    # Split off the polynomial part k^2 + M^2/2, whose regularized sine
    # moments are known in closed form, and window only the O(k^-2)
    # remainder R(k) = k*omega(k) - k^2 - M^2/2.
    def integral(weight: Callable[[float], float], lam: float) -> tuple[float, float]:
        def remainder(k: float) -> float:
            if k == 0.0:
                return -0.5 * mass * mass
            return (k * np.sqrt(k * k + mass * mass) - k * k - 0.5 * mass * mass) * weight(k)

        return _quad(
            remainder, 0.0, lam, weight="sin", wvar=z, limit=quad_limit,
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
    window: str = "cosine",
    taper_frac: float = 0.1,
    quad_limit: int = 400,
) -> float:
    """Static kernel via the defining radial integral up to a finite cutoff.

    The angular part of the D=3 integral is done analytically, leaving
    ``(1/(2*pi^2*z)) * integral_0^cutoff dk k*omega(k)*sin(kz)`` regulated by
    an exact ultraviolet subtraction plus a smooth taper (``window``,
    ``taper_frac``) on the last part of the range.  Serves as the
    independent check of :func:`f1_contour`; the reported error combines the
    quadrature estimate with the sensitivity to the cutoff placement.
    """
    spec = KernelSpec("F1", mass, cutoff, window=window, taper_frac=taper_frac)
    return _evaluate(spec, z, quad_limit)[0]


# --- F2 --------------------------------------------------------------------

def _f2_direct(spec: KernelSpec, z: float, quad_limit: int) -> tuple[complex, float]:
    if not z >= 0.0:
        raise ValueError(f"z must be nonnegative, got {z!r}")
    mass, t = spec.mass, spec.t
    # At z = 0 the factor sin(kz)/z degenerates to k: the radial weight
    # becomes k^2 and the sine-weighted rule gives way to plain subdivision.
    sine = {} if z == 0.0 else {"weight": "sin", "wvar": z}
    scale = _TWO_PI_SQ if z == 0.0 else _TWO_PI_SQ * z

    def integral(weight: Callable[[float], float], lam: float) -> tuple[complex, float]:
        def part(trig: Callable[[float], float], sign: float) -> tuple[float, float]:
            def integrand(k: float) -> float:
                radial = sign * k * k if z == 0.0 else sign * k
                return radial * trig(np.sqrt(k * k + mass * mass) * t) * weight(k)

            return _quad(integrand, 0.0, lam, limit=quad_limit, epsabs=1e-12, epsrel=1e-11, **sine)

        re, re_err = part(np.cos, 1.0)
        im, im_err = part(np.sin, -1.0)
        return (re + 1j * im) / scale, (re_err + im_err) / scale

    value, error = _windowed(spec, integral)
    return value, _err_floor(abs(value), error)


def f2_direct(
    z: float,
    t: float,
    mass: float,
    cutoff: float,
    *,
    window: str = "cosine",
    taper_frac: float = 0.1,
    quad_limit: int = 400,
) -> complex:
    """Finite-time kernel via the windowed radial integral.

    For ``z > 0`` this is ``(1/(2*pi^2*z)) * integral_0^cutoff dk
    k*sin(kz)*exp(-1j*omega(k)*t)`` with a smooth taper; at ``z = 0`` the
    radial reduction degenerates to ``(1/(2*pi^2)) * integral dk k^2
    exp(-1j*omega(k)*t)``.  At ``t = 0`` the result is the windowed
    realization of the spatial delta, so values away from the origin are
    window ripple by construction.  The spatial oscillation is handled by a
    sine-weighted rule; the temporal phase by adaptive subdivision.
    """
    spec = KernelSpec("F2", mass, cutoff, t, window=window, taper_frac=taper_frac)
    return _evaluate(spec, z, quad_limit)[0]


def _f2_contour(spec: KernelSpec, z: float) -> tuple[complex, float]:
    _check_positive(z)
    mass, t = spec.mass, spec.t
    if not abs(t) < z:
        raise ValueError(f"contour route needs the spacelike regime |t| < z, got z={z!r}, t={t!r}")

    # Wrapping the radial contour around the branch cut at k = i*M leaves a
    # purely imaginary integral over p >= M.  Both exponents below stay
    # negative in the spacelike regime, so the integrand never overflows.
    def integrand(s: float) -> float:
        p = mass + s
        kappa = np.sqrt(s * (2.0 * mass + s))
        return p * 0.5 * (np.exp(kappa * t - p * z) - np.exp(-kappa * t - p * z))

    raw, raw_err = _quad(integrand, 0.0, np.inf, epsabs=1e-14, epsrel=1e-13, limit=400)
    scale = 1.0 / (_TWO_PI_SQ * z)
    return 1j * scale * raw, _err_floor(scale * raw, scale * raw_err)


def f2_contour(z: float, t: float, mass: float) -> complex:
    """Finite-time kernel in the spacelike regime via the branch-cut contour.

    Valid for ``|t| < z``; the value is purely imaginary and suppressed like
    ``exp(-M*sqrt(z^2 - t^2))``.  No cutoff or window enters, which makes
    this the reference for suppression scans.
    """
    return _evaluate(KernelSpec("F2", mass, t=t, method="contour"), z)[0]


def f2_eval(
    z: float,
    t: float,
    mass: float,
    cutoff: float | None = None,
    *,
    method: str = "radial_reduced",
    window: str = "cosine",
    taper_frac: float = 0.1,
) -> complex:
    """Evaluate the finite-time kernel by the requested route.

    ``direct_quadrature`` and ``radial_reduced`` are the same evaluation:
    rotation symmetry reduces the defining D=3 integral to one radial
    dimension exactly, so there is no separate unreduced route to offer.
    Both need a finite ``cutoff``.  ``contour`` ignores the cutoff and is
    restricted to the spacelike regime ``|t| < z``.
    """
    return _evaluate(KernelSpec("F2", mass, cutoff, t, method, window, taper_frac), z)[0]


def _evaluate(spec: KernelSpec, z: float, quad_limit: int = 400) -> tuple[complex, float]:
    """Value and error bound of the requested kernel at radius ``z``.

    The one place where ``(kind, method)`` selects a route.
    """
    if spec.method == "contour":
        return _f1_contour(spec, z) if spec.kind == "F1" else _f2_contour(spec, z)
    if spec.kind == "F1":
        return _f1_direct(spec, z, quad_limit)
    return _f2_direct(spec, z, quad_limit)


# --- derived diagnostics ---------------------------------------------------

def group_velocity(k, mass: float):
    """Propagation velocity ``k / sqrt(k.k + M^2)`` of a packet centered at k.

    ``k`` is one wave vector (any dimension); the return value has the same
    shape.  The magnitude is below 1 for any positive mass and reaches 1
    only in the massless case.
    """
    k_arr = np.asarray(k, dtype=float)
    omega = np.sqrt(np.sum(k_arr**2) + mass**2)
    if not omega > 0.0:
        raise ValueError("group velocity undefined at k=0, M=0")
    return k_arr / omega


class DecayFit(NamedTuple):
    """Exponential fit of the static kernel's large-z tail."""

    slope: float
    intercept: float
    residual: float


def decay_fit(
    table: "KernelTable",
    fit_range: tuple[float, float] | None = None,
    *,
    prefactor_power: float = 2.5,
) -> DecayFit:
    """Least-squares estimate of the exponential decay rate of |F1|.

    Fits ``log(|F1| * z**prefactor_power)`` against ``z``; the slope
    estimates ``-M``.  The default prefactor power 5/2 is the subleading
    behaviour of the contour integral by Watson's lemma; the fit basis also
    carries a ``1/z`` nuisance column to absorb the next-order prefactor
    correction, which otherwise biases the slope by several percent on
    Compton-scale windows.  ``residual`` is the root-mean-square misfit, and
    stays large when the decay is not exponential (e.g. the massless
    power-law tail).
    """
    z = np.asarray(table.z, dtype=float)
    mag = np.abs(np.asarray(table.values))
    if fit_range is not None:
        lo, hi = fit_range
        mask = (z >= lo) & (z <= hi)
        z, mag = z[mask], mag[mask]
    if z.size < 8:
        raise ValueError(f"decay fit needs at least 8 points, got {z.size}")
    if np.any(mag == 0.0):
        raise ValueError("decay fit needs nonzero kernel values")
    if np.ptp(z) == 0.0:
        raise ValueError("degenerate fit: abscissae carry zero variance")
    y = np.log(mag) + prefactor_power * np.log(z)
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
    if not t >= 0.0:
        raise ValueError(f"t must be nonnegative, got {t!r}")
    if not z[0] > t:
        raise ValueError(f"scan range must sit strictly above t={t!r}, got z_min={z[0]!r}")
    spec = KernelSpec("F2", mass, t=t, method="contour")
    magnitudes = np.empty_like(z)
    errors = np.empty_like(z)
    for i, zi in enumerate(z):
        value, error = _evaluate(spec, zi)
        magnitudes[i] = abs(value)
        errors[i] = error
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

def _spec_problems(
    kind: str, mass: float, cutoff: float | None, t: float, method: str, window: str, taper_frac: float
) -> list[tuple[str, str]]:
    """Every ``(field, message)`` reason the kernel request cannot be evaluated."""
    problems = []
    if kind not in ("F1", "F2"):
        problems.append(("kind", f"must be 'F1' or 'F2', got {kind!r}"))
    elif kind == "F1" and t != 0.0:
        problems.append(("t", "the static kernel takes no time argument"))
    if not mass >= 0.0:
        problems.append(("mass", f"must be nonnegative, got {mass!r}"))
    if method not in _METHODS:
        problems.append(("method", f"unknown method {method!r}; choose from {_METHODS}"))
    elif method != "contour" and (cutoff is None or not cutoff > 0.0):
        problems.append(("cutoff", "the windowed radial route needs a positive finite cutoff"))
    if window not in WINDOWS:
        problems.append(("window", f"unknown window {window!r}; choose from {sorted(WINDOWS)}"))
    if not 0.0 < taper_frac <= 1.0:
        problems.append(("taper_frac", f"must be in (0, 1], got {taper_frac!r}"))
    return problems


@dataclass(frozen=True)
class KernelSpec:
    """Which kernel to evaluate, by which route, with which regulator."""

    kind: str
    mass: float
    cutoff: float | None = None
    t: float = 0.0
    method: str = "radial_reduced"
    window: str = "cosine"
    taper_frac: float = 0.1

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
        """Columns z, t, re, im, err, method, M, Lambda; 17 significant digits."""
        fmt = "%.17g"
        t_field = "" if self.kind == "F1" else fmt % self.t
        cutoff_field = "" if self.cutoff is None else fmt % self.cutoff
        with Path(path).open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["z", "t", "re", "im", "err", "method", "M", "Lambda"])
            for zi, vi, ei in zip(self.z, self.values, self.errors):
                val = complex(vi)
                writer.writerow(
                    [
                        fmt % zi,
                        t_field,
                        fmt % val.real,
                        fmt % val.imag,
                        fmt % ei,
                        self.method,
                        fmt % self.mass,
                        cutoff_field,
                    ]
                )


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
