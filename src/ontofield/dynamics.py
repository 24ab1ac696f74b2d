"""Position-space field dynamics: convolution evolution, residual checks,
interacting leapfrog, and wave-packet front experiments.

Free evolution in position space is a convolution with the lattice-exact
finite-time kernel; on the mode lattice that convolution is the transform /
phase-multiply / transform pipeline, with a literal real-space convolution
kept as an independent check for small grids.  The module also verifies the
second-order (wave) equation the evolution law squares to, integrates the
anharmonic variant with a symplectic leapfrog, and measures packet front
speeds against the group velocity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from ontofield.kernels import group_velocity
from ontofield.lattice import (
    ComplexField,
    MomentumLattice,
    build_lattice,
    evolution_phase,
    position_axes,
    spectral_evolve,
    to_momentum,
    to_position,
)

__all__ = [
    "EvolutionRun",
    "FrontMeasurement",
    "FrontTrackingError",
    "InstabilityError",
    "ResidualReport",
    "evolve_convolution",
    "gaussian_packet",
    "kg_residual",
    "leapfrog_interact",
    "refinement_study",
    "spectral_run",
    "stability_bound",
    "time_derivative_check",
    "wavefront_measure",
]

_METHODS = ("spectral", "leapfrog_second_order")


class InstabilityError(RuntimeError):
    """Leapfrog integration blew up; carries the step and energy diagnostic."""

    def __init__(self, step: int, energy: float, initial_energy: float):
        super().__init__(
            f"instability at step {step}: energy {energy!r} "
            f"exceeds 10x initial {initial_energy!r}"
        )
        self.step = step
        self.energy = energy
        self.initial_energy = initial_energy


class FrontTrackingError(RuntimeError):
    """The intensity profile has no usable peak to track."""


@dataclass(frozen=True)
class EvolutionRun:
    """Recorded trajectory of one time-evolution experiment.

    ``snapshots`` are position-space fields whose ``time`` stamps must
    strictly increase; ``velocities`` and ``energy`` are filled by the
    leapfrog integrator (real-field mode) and ``None`` otherwise.
    """

    lattice: MomentumLattice
    initial: ComplexField
    method: str
    dt: float
    steps: int
    coupling: float
    snapshots: tuple[ComplexField, ...]
    velocities: tuple[np.ndarray, ...] | None = None
    energy: np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.method not in _METHODS:
            raise ValueError(f"unknown method {self.method!r}; choose from {_METHODS}")
        stamps = self.times
        if stamps.size >= 2 and not np.all(np.diff(stamps) > 0.0):
            raise ValueError("snapshot times must strictly increase")
        if self.method == "leapfrog_second_order":
            bound = stability_bound(self.lattice)
            if not self.dt < bound:
                raise ValueError(f"dt={self.dt!r} violates the leapfrog stability bound {bound!r}")

    @property
    def times(self) -> np.ndarray:
        return np.array([snap.time for snap in self.snapshots])

    @property
    def final(self) -> ComplexField:
        return self.snapshots[-1]


@dataclass(frozen=True)
class ResidualReport:
    """Discrete second-order-equation residual of a recorded run.

    ``ratios`` holds coarse/fine max-residual quotients when the report
    comes from a refinement study; second-order convergence shows up as
    ratios near 4.
    """

    spacings: tuple[float, ...]
    dt: float
    max_residual: float
    l2_residual: float
    ratios: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        if self.max_residual < 0.0 or self.l2_residual < 0.0:
            raise ValueError("residuals must be nonnegative")


@dataclass(frozen=True)
class FrontMeasurement:
    """Envelope-peak trajectory of a packet run and its fitted speed.

    ``trackable`` is False when the packet dispersed so far that the peak
    contrast fell below the tracking threshold; the numbers are still
    reported for inspection.
    """

    speed: float
    expected_speed: float
    times: np.ndarray
    positions: np.ndarray
    max_displacement: float
    min_contrast: float
    trackable: bool


def stability_bound(lattice: MomentumLattice) -> float:
    """Largest stable leapfrog step: ``dt * omega_max < 2``.

    ``omega_max`` is the top frequency of the discrete operator actually
    integrated, ``sqrt(sum_a 4/dx_a^2 + M^2)``.
    """
    top = np.sqrt(sum(4.0 / dx**2 for dx in lattice.spacings) + lattice.mass**2)
    return float(2.0 / top)


def _require_position(field: ComplexField, lattice: MomentumLattice) -> None:
    if field.space != "position":
        raise ValueError(f"expected a position-space field, got {field.space!r}")
    if field.values.shape != lattice.grid_points:
        raise ValueError(
            f"field shape {field.values.shape} does not match lattice grid "
            f"{lattice.grid_points}"
        )


def gaussian_packet(
    lattice: MomentumLattice,
    k0: float | Sequence[float],
    center: float | Sequence[float],
    width: float,
    amplitude: float = 1.0,
) -> ComplexField:
    """Gaussian-envelope packet ``A * exp(-d^2/(4 w^2)) * exp(1j k0 . d)``.

    ``d`` is the minimum-image displacement from ``center``, so the packet
    is translation-covariant on the periodic box; ``k0`` need not be a
    lattice mode, since the envelope suppresses the seam mismatch.  The
    momentum spread is ``1/(2*width)`` per axis.
    """
    if not width > 0.0:
        raise ValueError(f"width must be positive, got {width!r}")
    k_vec = np.atleast_1d(np.asarray(k0, dtype=float))
    c_vec = np.atleast_1d(np.asarray(center, dtype=float))
    if k_vec.size != lattice.dims or c_vec.size != lattice.dims:
        raise ValueError("k0 and center must match the lattice dimension")
    axes = position_axes(lattice)
    envelope_exponent = np.zeros(lattice.grid_points)
    phase = np.zeros(lattice.grid_points)
    for axis, (x, length) in enumerate(zip(axes, lattice.box_lengths)):
        shape = [1] * lattice.dims
        shape[axis] = lattice.grid_points[axis]
        d = (x - c_vec[axis] + 0.5 * length) % length - 0.5 * length
        d = d.reshape(shape)
        envelope_exponent = envelope_exponent + d**2
        phase = phase + k_vec[axis] * d
    values = amplitude * np.exp(-envelope_exponent / (4.0 * width**2)) * np.exp(1j * phase)
    return ComplexField(space="position", values=values, time=0.0)


def evolve_convolution(
    b0: ComplexField,
    lattice: MomentumLattice,
    t: float,
    *,
    path: str = "transform",
) -> ComplexField:
    """Free evolution as convolution with the lattice finite-time kernel.

    The kernel is the mode sum ``(1/V_sites) sum_k exp(1j k.d - 1j omega t)``.
    ``path="transform"`` evaluates the convolution as transform, phase
    multiply, inverse transform; ``path="literal"`` builds the kernel and
    sums the real-space displacements explicitly, which is quadratic in the
    site count and meant for small grids as the independent check.
    """
    _require_position(b0, lattice)
    if path == "transform":
        return to_position(spectral_evolve(to_momentum(b0, lattice), lattice, t), lattice)
    if path != "literal":
        raise ValueError(f"unknown path {path!r}; choose 'transform' or 'literal'")
    kernel = np.fft.ifftn(evolution_phase(lattice, t))
    out = np.zeros_like(b0.values)
    for shift in np.ndindex(lattice.grid_points):
        out = out + kernel[shift] * np.roll(b0.values, shift, axis=tuple(range(lattice.dims)))
    return ComplexField(space="position", values=out, time=b0.time + t)


def time_derivative_check(b: ComplexField, lattice: MomentumLattice, dt: float) -> float:
    """Defect between the FD time derivative and the first-order law.

    Compares ``(b(+dt) - b(-dt)) / (2 dt)`` under exact spectral evolution
    against ``-1j`` times the static-kernel convolution (mode multiplier
    ``omega``, zero on excluded modes).  The defect per mode is
    ``|omega - sin(omega dt)/dt|``, second order in ``dt``.
    """
    if not dt > 0.0:
        raise ValueError(f"dt must be positive, got {dt!r}")
    _require_position(b, lattice)
    modes = to_momentum(b, lattice)
    forward = to_position(spectral_evolve(modes, lattice, dt), lattice)
    backward = to_position(spectral_evolve(modes, lattice, -dt), lattice)
    fd = (forward.values - backward.values) / (2.0 * dt)
    multiplier = np.where(lattice.excluded, 0.0, lattice.omega)
    rhs = -1j * np.fft.ifftn(multiplier * np.fft.fftn(b.values))
    return float(np.max(np.abs(fd - rhs)))


def _fd_laplacian(values: np.ndarray, spacings: tuple[float, ...]) -> np.ndarray:
    result = np.zeros_like(values)
    for axis, dx in enumerate(spacings):
        result = result + (
            np.roll(values, -1, axis) - 2.0 * values + np.roll(values, 1, axis)
        ) / dx**2
    return result


def kg_residual(run: EvolutionRun) -> ResidualReport:
    """Residual of the discrete wave equation on the recorded snapshots.

    Applies centered second differences in space and time and subtracts the
    mass term: ``r = Lap_dx b - D2_dt b - M^2 b`` on interior snapshot
    times.  Needs at least 3 snapshots at uniform spacing.
    """
    if len(run.snapshots) < 3:
        raise ValueError(f"need at least 3 snapshots, got {len(run.snapshots)}")
    times = run.times
    gaps = np.diff(times)
    dt = float(gaps[0])
    if not np.allclose(gaps, dt, rtol=1e-9, atol=1e-12 * max(dt, 1.0)):
        raise ValueError("snapshots are not uniformly spaced in time")
    lattice = run.lattice
    spacings = lattice.spacings
    max_residual = 0.0
    sq_sum = 0.0
    count = 0
    for j in range(1, len(run.snapshots) - 1):
        b_prev = run.snapshots[j - 1].values
        b_here = run.snapshots[j].values
        b_next = run.snapshots[j + 1].values
        btt = (b_next - 2.0 * b_here + b_prev) / dt**2
        residual = _fd_laplacian(b_here, spacings) - btt - lattice.mass**2 * b_here
        max_residual = max(max_residual, float(np.max(np.abs(residual))))
        sq_sum += float(np.sum(np.abs(residual) ** 2))
        count += residual.size
    return ResidualReport(
        spacings=spacings,
        dt=dt,
        max_residual=max_residual,
        l2_residual=float(np.sqrt(sq_sum / count)),
    )


def spectral_run(
    b0: ComplexField,
    lattice: MomentumLattice,
    dt: float,
    steps: int,
    record_every: int = 1,
) -> EvolutionRun:
    """Exact free evolution recorded at uniform intervals.

    Snapshots are position-space fields at times ``b0.time + n*dt``; the
    final step is always recorded.
    """
    if not dt > 0.0:
        raise ValueError(f"dt must be positive, got {dt!r}")
    if steps < 1 or record_every < 1:
        raise ValueError("steps and record_every must be positive")
    _require_position(b0, lattice)
    modes = to_momentum(b0, lattice)
    snapshots = [to_position(modes, lattice)]
    for n in range(1, steps + 1):
        if n % record_every == 0 or n == steps:
            evolved = spectral_evolve(modes, lattice, n * dt)
            snapshots.append(to_position(evolved, lattice))
    return EvolutionRun(
        lattice=lattice,
        initial=b0,
        method="spectral",
        dt=dt,
        steps=steps,
        coupling=0.0,
        snapshots=tuple(snapshots),
    )


def refinement_study(
    profile: Callable[[np.ndarray], np.ndarray],
    *,
    box_length: float,
    base_points: int,
    base_dt: float,
    mass: float,
    levels: int = 3,
) -> ResidualReport:
    """Joint (dx, dt) halving study of the wave-equation residual.

    ``profile`` maps the 1D position array to initial complex values; it
    must be band-limited well inside the coarsest grid for clean ratios.
    Returns the finest level's report with coarse/fine max-residual ratios
    attached; second-order convergence gives ratios near 4.
    """
    if levels < 2:
        raise ValueError("refinement study needs at least 2 levels")
    maxima: list[float] = []
    report: ResidualReport | None = None
    for level in range(levels):
        points = base_points * 2**level
        dt = base_dt / 2**level
        lattice = build_lattice(box_length, points, mass)
        x = position_axes(lattice)[0]
        b0 = ComplexField(space="position", values=np.asarray(profile(x), dtype=complex))
        run = spectral_run(b0, lattice, dt, steps=2)
        report = kg_residual(run)
        maxima.append(report.max_residual)
    ratios = tuple(
        maxima[i] / maxima[i + 1] if maxima[i + 1] > 0.0 else float("inf")
        for i in range(len(maxima) - 1)
    )
    assert report is not None
    return ResidualReport(
        spacings=report.spacings,
        dt=report.dt,
        max_residual=report.max_residual,
        l2_residual=report.l2_residual,
        ratios=ratios,
    )


def leapfrog_interact(
    b0: ComplexField,
    bdot0: ComplexField,
    lattice: MomentumLattice,
    coupling: float,
    dt: float,
    steps: int,
    *,
    field_mode: str = "real",
    record_every: int = 1,
) -> EvolutionRun:
    """Kick-drift-kick leapfrog for the anharmonic wave equation.

    Integrates ``d2b/dt2 = Lap b - M^2 b - (coupling/6) b^3`` with centered
    spatial differences on the periodic box.  In the default real-field
    mode the discrete energy

        E = sum [ v*v/2 - (dt^2/8) acc*acc + |grad+ b|^2/2
                  + M^2 b^2/2 + coupling b^4/24 ] * dV

    is recorded at every snapshot; its quadratic part is an exact leapfrog
    invariant (the kinetic piece is the staggered half-step product), so
    drift isolates the quartic term and roundoff.  ``field_mode="complex"``
    integrates the literal complex cube; that variant descends from no real
    energy functional, so it is experimental and records no energy.  Runs
    whose energy grows past 10x the initial value abort.
    """
    if field_mode not in ("real", "complex"):
        raise ValueError(f"field_mode must be 'real' or 'complex', got {field_mode!r}")
    if not dt > 0.0:
        raise ValueError(f"dt must be positive, got {dt!r}")
    if steps < 1 or record_every < 1:
        raise ValueError("steps and record_every must be positive")
    _require_position(b0, lattice)
    _require_position(bdot0, lattice)
    bound = stability_bound(lattice)
    if not dt < bound:
        raise ValueError(f"dt={dt!r} violates the leapfrog stability bound {bound!r}")

    if field_mode == "real":
        scale = max(float(np.max(np.abs(b0.values))), float(np.max(np.abs(bdot0.values))), 1e-30)
        imag_leak = max(float(np.max(np.abs(b0.values.imag))), float(np.max(np.abs(bdot0.values.imag))))
        if imag_leak > 1e-12 * scale:
            raise ValueError("real-field mode requires real initial data")
        b = b0.values.real.astype(float).copy()
        v = bdot0.values.real.astype(float).copy()
    else:
        b = b0.values.astype(complex).copy()
        v = bdot0.values.astype(complex).copy()

    mass_sq = lattice.mass**2
    spacings = lattice.spacings

    def force(state: np.ndarray) -> np.ndarray:
        return _fd_laplacian(state, spacings) - mass_sq * state - (coupling / 6.0) * state**3

    def record_energy(state: np.ndarray, vel: np.ndarray, acc: np.ndarray) -> float:
        gradient_sq = np.zeros_like(state)
        for axis, dx in enumerate(spacings):
            gradient_sq = gradient_sq + ((np.roll(state, -1, axis) - state) / dx) ** 2
        density = (
            0.5 * vel**2
            - 0.125 * dt**2 * acc**2
            + 0.5 * gradient_sq
            + 0.5 * mass_sq * state**2
            + (coupling / 24.0) * state**4
        )
        return float(np.sum(density) * lattice.cell_volume)

    acc = force(b)
    t0 = b0.time
    snapshots = [ComplexField(space="position", values=b.astype(complex), time=t0)]
    velocities = [np.array(v, copy=True)]
    energies: list[float] = []
    if field_mode == "real":
        energies.append(record_energy(b, v, acc))
        initial_energy = energies[0]
    else:
        initial_energy = float(np.sum(np.abs(v) ** 2 + np.abs(b) ** 2) * lattice.cell_volume)

    # Overflow on the way to an instability abort is expected; the finiteness
    # check below turns it into a typed error.
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(1, steps + 1):
            v_half = v + 0.5 * dt * acc
            b = b + dt * v_half
            acc = force(b)
            v = v_half + 0.5 * dt * acc
            if n % record_every == 0 or n == steps:
                if not (np.all(np.isfinite(b)) and np.all(np.isfinite(v))):
                    raise InstabilityError(n, float("nan"), initial_energy)
                snapshots.append(
                    ComplexField(space="position", values=b.astype(complex), time=t0 + n * dt)
                )
                velocities.append(np.array(v, copy=True))
                if field_mode == "real":
                    energy = record_energy(b, v, acc)
                    energies.append(energy)
                    if abs(energy) > 10.0 * max(abs(initial_energy), 1e-30):
                        raise InstabilityError(n, energy, initial_energy)
                else:
                    monitor = float(np.sum(np.abs(v) ** 2 + np.abs(b) ** 2) * lattice.cell_volume)
                    if monitor > 10.0 * max(initial_energy, 1e-30):
                        raise InstabilityError(n, monitor, initial_energy)

    return EvolutionRun(
        lattice=lattice,
        initial=b0,
        method="leapfrog_second_order",
        dt=dt,
        steps=steps,
        coupling=float(coupling),
        snapshots=tuple(snapshots),
        velocities=tuple(velocities),
        energy=np.array(energies) if field_mode == "real" else None,
    )


def wavefront_measure(run: EvolutionRun, k0: float) -> FrontMeasurement:
    """Track the packet envelope peak and fit its speed.

    The peak of ``|b|^2`` is located per snapshot with three-point quadratic
    interpolation (periodic neighbors), unwrapped across the box seam, and
    fitted linearly against time.  ``expected_speed`` is the group velocity
    at ``k0``.  Tracking quality is the peak-to-mean intensity contrast; a
    run whose contrast falls below 3 is flagged untrackable.
    """
    if run.lattice.dims != 1:
        raise ValueError("front tracking supports one-dimensional runs only")
    if len(run.snapshots) < 2:
        raise ValueError("need at least 2 snapshots to fit a speed")
    length = run.lattice.box_lengths[0]
    n = run.lattice.grid_points[0]
    dx = length / n
    positions = []
    min_contrast = np.inf
    for snap in run.snapshots:
        intensity = np.abs(snap.values) ** 2
        j = int(np.argmax(intensity))
        left = intensity[(j - 1) % n]
        here = intensity[j]
        right = intensity[(j + 1) % n]
        denom = left - 2.0 * here + right
        if denom >= 0.0:
            raise FrontTrackingError("intensity profile has no usable peak")
        offset = 0.5 * (left - right) / denom
        positions.append((j + offset) * dx)
        mean = float(np.mean(intensity))
        if mean <= 0.0:
            raise FrontTrackingError("intensity vanished")
        min_contrast = min(min_contrast, here / mean)
    unwrapped = [positions[0]]
    for p in positions[1:]:
        p = p + length * np.round((unwrapped[-1] - p) / length)
        unwrapped.append(p)
    times = run.times
    pos = np.array(unwrapped)
    speed = float(np.polyfit(times, pos, 1)[0])
    expected = float(group_velocity(np.array([k0]), run.lattice.mass)[0])
    return FrontMeasurement(
        speed=speed,
        expected_speed=expected,
        times=times,
        positions=pos,
        max_displacement=float(np.max(np.abs(pos - pos[0]))),
        min_contrast=float(min_contrast),
        trackable=bool(min_contrast >= 3.0),
    )
