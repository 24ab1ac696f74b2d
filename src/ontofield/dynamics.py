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

import math
from dataclasses import dataclass, replace
from functools import partial
from typing import Callable, Sequence

import numpy as np

from ontofield.kernels import group_velocity
from ontofield.lattice import (
    ComplexField,
    MomentumLattice,
    _require,
    _require_finite,
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

class InstabilityError(RuntimeError):
    """Leapfrog integration blew up; carries the step and the monitored value.

    ``quantity`` names what was monitored: the ``"energy"`` of a real-field
    run or the ``"norm"`` of a complex one.  Its last and initial values are
    ``energy`` and ``initial_energy`` whichever it is.
    """

    def __init__(self, step: int, energy: float, initial_energy: float, quantity: str = "energy"):
        super().__init__(
            f"instability at step {step}: {quantity} {energy!r} "
            f"exceeds 10x initial {initial_energy!r}"
        )
        self.step = step
        self.quantity = quantity
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
    steps: int
    snapshots: tuple[ComplexField, ...]
    velocities: tuple[np.ndarray, ...] | None = None
    energy: np.ndarray | None = None

    def __post_init__(self) -> None:
        stamps = self.times
        if stamps.size >= 2 and not np.all(np.diff(stamps) > 0.0):
            raise ValueError("snapshot times must strictly increase")

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
    return _bound_from_spacings(lattice.spacings, lattice.mass)


def _bound_from_spacings(spacings: Sequence[float], mass: float) -> float:
    """:func:`stability_bound` from the grid spacings and mass alone, no lattice."""
    top = np.sqrt(sum(4.0 / dx**2 for dx in spacings) + mass**2)
    return float(2.0 / top)


def _schedule(dt: float, steps: int, record_every: int) -> list[int]:
    """Steps a run records after step 0: every ``record_every``-th and the last."""
    if not dt > 0.0:
        raise ValueError(f"dt must be positive, got {dt!r}")
    if steps < 1 or record_every < 1:
        raise ValueError("steps and record_every must be positive")
    return [n for n in range(1, steps + 1) if n % record_every == 0 or n == steps]


def _width_problem(width: float) -> str | None:
    """Why a packet of this ``width`` cannot be finite, or ``None``."""
    if not 0.0 < width < np.inf:
        return f"must be positive and finite, got {width!r}"
    if not float(width) * float(width) > 0.0:
        # The envelope's exponent -d^2 / (4 w^2) would be 0/0 at the center.
        return f"must have a square that does not underflow to 0, got {width!r}"
    return None


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
    problem = _width_problem(width)
    if problem is not None:
        raise ValueError(f"width {problem}")
    k_vec = np.atleast_1d(np.asarray(k0, dtype=float))
    c_vec = np.atleast_1d(np.asarray(center, dtype=float))
    if k_vec.size != lattice.dims or c_vec.size != lattice.dims:
        raise ValueError("k0 and center must match the lattice dimension")
    if not np.all(np.isfinite([*k_vec, *c_vec, amplitude])):
        raise ValueError("k0, center and amplitude must be finite")
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
    _require(b0, lattice, "position")
    _require_finite(b0, "b0")
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
    _require(b, lattice, "position")
    _require_finite(b, "b")
    modes = to_momentum(b, lattice)
    forward = to_position(spectral_evolve(modes, lattice, dt), lattice)
    backward = to_position(spectral_evolve(modes, lattice, -dt), lattice)
    fd = (forward.values - backward.values) / (2.0 * dt)
    multiplier = np.where(lattice.excluded, 0.0, lattice.omega)
    rhs = -1j * np.fft.ifftn(multiplier * np.fft.fftn(b.values))
    return float(np.max(np.abs(fd - rhs)))


# One bound ufunc call ``ufunc(x, y, out)``.  The stencils are lists of them,
# run in order by :func:`_run`: a positional ``out`` and one loop keep the
# per-call overhead low on small grids.
_Call = tuple[np.ufunc, np.ndarray, np.ndarray, np.ndarray]


def _run(calls: list[_Call]) -> None:
    for ufunc, x, y, out in calls:
        ufunc(x, y, out)


def _flat(array: np.ndarray) -> np.ndarray:
    """The 1-D view of a C-contiguous array; any other array raises ``ValueError``.

    ``reshape(-1)`` of a non-contiguous array silently returns a copy, and a
    stencil bound to that copy would read stale data.
    """
    if not array.flags.c_contiguous:
        raise ValueError("stencil arrays must be C-contiguous")
    return array.reshape(-1)


def _divide_by(divisor: float, dtype: np.dtype) -> tuple[np.ufunc, np.ndarray]:
    """``(ufunc, constant)`` whose call ``ufunc(x, constant)`` is ``x / divisor``.

    A real ``x / 2**e`` is ``x * 2**-e`` to the bit: both round the same real
    quotient, and the reciprocal of a power of two is exact when it is
    finite.  The multiply took 7.5 us against 27 us for the divide on a
    32^3 field (numpy 2.4.6, AVX-512).  A complex field always divides: a
    complex multiply by ``r + 0j`` forms ``x.imag * 0`` terms that can flip
    the sign of a zero.
    """
    reciprocal = 1.0 / divisor
    if np.dtype(dtype) == np.float64 and math.frexp(divisor)[0] == 0.5 and math.isfinite(reciprocal):
        return np.multiply, np.array(reciprocal, dtype=dtype)
    return np.divide, np.array(divisor, dtype=dtype)


def _axis_views(array: np.ndarray, axis: int) -> tuple[np.ndarray, ...]:
    """``(up, low, first, last)``: views of ``array`` for its neighbours along ``axis``.

    In C order the site after flat index ``j`` along ``axis`` is ``j + st``,
    with ``st = prod(shape[axis+1:])``, so ``up = flat[st:]`` and ``low =
    flat[:-st]`` pair every site with the one after it, each pair at the same
    index of the two views, and a ufunc on them is one contiguous call.  The
    pairs whose ``i + 1`` wraps around the box are wrong: there ``low``'s
    ``i = N-1`` plane meets the next outer index's ``i = 0`` plane (or
    nothing, at the end of the array).  ``first`` and ``last`` are the
    ``i = 0`` and ``i = N-1`` planes, whose pair is the periodic one.
    """
    st = math.prod(array.shape[axis + 1:])
    flat = _flat(array)
    head = (slice(None),) * axis
    return flat[st:], flat[:-st], array[head + (slice(None, 1),)], array[head + (slice(-1, None),)]


def _fd_laplacian(
    values: np.ndarray,
    spacings: tuple[float, ...],
    out: np.ndarray,
    term: np.ndarray,
    plane: np.ndarray,
) -> list[_Call]:
    """Bind the periodic centered second difference of ``values`` to buffers.

    Running the calls (:func:`_run`) writes the Laplacian of the current
    contents of ``values`` into ``out``.  Per axis, ``term`` goes through
    ``((b[i+1] - 2.0*b[i]) + b[i-1]) / dx**2`` and is added to a sum that
    starts at zero; the add to zero turns a ``-0.0`` into ``+0.0``.  Each
    neighbour difference is one contiguous call on the flat C-order views of
    :func:`_axis_views`, in place in ``term``, and its wrap plane is then
    rewritten by a strided call from the periodic neighbour:

    - ``term = 2.0*b``; ``term[i] = b[i+1] - term[i]`` by the flat shift; the
      ``i = N-1`` plane, which that call may have overwritten, is formed
      again as ``2.0*b`` and then ``b[0] - term``;
    - the ``i = 0`` plane of ``term + b[i-1]`` goes into the matching plane
      of ``plane`` first, as the flat ``term[i] += b[i-1]`` that follows may
      overwrite it; both are divided by ``dx**2`` (:func:`_divide_by`), the
      plane back into ``term``.

    Every site of ``term`` goes through the operations of the ``np.roll`` form
    in its order, so the result is bitwise that form, and every buffer site is
    written before it is read, for every axis length.  In-place calls touch
    two arrays where a third buffer would add a stream to each call.

    The arrays share shape and dtype and alias none of the others.
    ``values`` and ``term`` are read through flat views, so they must be
    C-contiguous, and any other raises ``ValueError``: ``reshape(-1)`` of a
    non-contiguous array would be a copy, and the stencil would read stale
    data.  The constants are 0-d arrays of that dtype, as a Python scalar
    operand costs a conversion per call.
    """
    dtype = values.dtype
    two = np.array(2.0, dtype=dtype)
    total = np.array(0.0, dtype=dtype)  # the first axis adds to zero, the others to the sum so far
    calls: list[_Call] = []
    for axis, dx in enumerate(spacings):
        b_up, b_low, b_first, b_last = _axis_views(values, axis)
        t_up, t_low, t_first, t_last = _axis_views(term, axis)
        seam = plane[(slice(None),) * axis + (slice(None, 1),)]
        divide, dx_sq = _divide_by(dx**2, dtype)
        calls += [
            (np.multiply, two, values, term),
            (np.subtract, b_up, t_low, t_low),
            (np.multiply, two, b_last, t_last),
            (np.subtract, b_first, t_last, t_last),
            (np.add, t_first, b_last, seam),
            (np.add, t_up, b_low, t_up),
            (divide, term, dx_sq, term),
            (divide, seam, dx_sq, t_first),
            (np.add, total, term, out),
        ]
        total = out
    return calls


def _force(
    state: np.ndarray,
    spacings: tuple[float, ...],
    mass_sq: float,
    coupling: float,
    out: np.ndarray,
    scratch: np.ndarray,
    plane: np.ndarray,
) -> Callable[[], None]:
    """Bind ``Lap b - M^2 b - (coupling/6) b^3`` of ``state`` to buffers.

    Each call writes the force of the current contents of ``state`` into
    ``out``, with the operations of the expression in its order: the
    flat-shift Laplacian of :func:`_fd_laplacian` (through ``scratch`` and
    one plane of ``plane``, under its contiguity rule), then the mass term
    and the cubic one in ``scratch``.

    A real cube is ``(b*b)*b``: each multiply is correctly rounded whatever
    SIMD level numpy dispatches to, while float64 ``np.power`` took 2.4 ms
    against 0.03 ms on a 32^3 field (numpy 2.4.6, AVX-512) and its last bit
    followed the dispatch.  A complex cube stays ``np.power(b, 3)``, which
    gave the same bits with the dispatch on and off where ``b*b*b`` did not.
    """
    calls = _fd_laplacian(state, spacings, out, scratch, plane)
    m_sq, three, c6 = (np.array(c, dtype=state.dtype) for c in (mass_sq, 3, coupling / 6.0))
    calls += [(np.multiply, m_sq, state, scratch), (np.subtract, out, scratch, out)]
    if state.dtype == np.float64:
        calls += [(np.multiply, state, state, scratch), (np.multiply, scratch, state, scratch)]
    else:
        calls += [(np.power, state, three, scratch)]
    calls += [(np.multiply, c6, scratch, scratch), (np.subtract, out, scratch, out)]
    return partial(_run, calls)


def _energy(
    state: np.ndarray,
    vel: np.ndarray,
    acc: np.ndarray,
    spacings: tuple[float, ...],
    mass_sq: float,
    coupling: float,
    dt: float,
    cell_volume: float,
    grad: np.ndarray,
    diff: np.ndarray,
    term: np.ndarray,
) -> Callable[[], float]:
    """Bind the discrete energy of a real leapfrog run to buffers.

    Each call returns ``sum(density) * cell_volume`` of the current contents
    of ``state``, ``vel`` and ``acc``, where ``density`` is

        v*v/2 - (dt^2/8) acc*acc + |grad+ b|^2/2 + M^2 b^2/2 + coupling b^4/24

    with the operations in that order.  The forward differences ``b[i+1] -
    b[i]`` go into ``diff`` by one flat-shift call on the views of
    :func:`_axis_views` and a rewrite of the ``i = N-1`` plane from ``b[0]``;
    per axis ``(diff/dx)**2`` is added to a sum in ``grad`` that starts at
    zero.  ``grad``, ``diff`` and ``term`` are written before they are read,
    so they may be the force's buffers between steps.  ``state`` and
    ``diff`` are read through flat views and follow the contiguity rule of
    :func:`_fd_laplacian`.
    """
    half, c_acc, c_mass, c_quartic = (
        np.array(c, dtype=state.dtype) for c in (0.5, 0.125 * dt**2, 0.5 * mass_sq, coupling / 24.0)
    )
    total = np.array(0.0, dtype=state.dtype)  # the first axis adds to zero, the others to grad
    calls: list[_Call] = []
    for axis, dx in enumerate(spacings):
        b_up, b_low, b_first, b_last = _axis_views(state, axis)
        _, d_low, _, d_last = _axis_views(diff, axis)
        divide, by_dx = _divide_by(dx, state.dtype)
        calls += [
            (np.subtract, b_up, b_low, d_low),
            (np.subtract, b_first, b_last, d_last),
            (divide, diff, by_dx, diff),
            (np.multiply, diff, diff, diff),
            (np.add, total, diff, grad),
        ]
        total = grad
    calls += [
        (np.multiply, vel, vel, diff), (np.multiply, half, diff, diff),
        (np.multiply, acc, acc, term), (np.multiply, c_acc, term, term),
        (np.subtract, diff, term, diff),
        (np.multiply, half, grad, term), (np.add, diff, term, diff),
        (np.multiply, state, state, term), (np.multiply, c_mass, term, term),
        (np.add, diff, term, diff),
        (np.multiply, state, state, term), (np.multiply, term, term, term),
        (np.multiply, c_quartic, term, term), (np.add, diff, term, diff),
    ]

    def energy() -> float:
        _run(calls)
        return float(np.sum(diff) * cell_volume)

    return energy


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
        # The stencil reads flat views, so a non-contiguous snapshot goes in as a copy.
        b_here = np.ascontiguousarray(run.snapshots[j].values)
        b_next = run.snapshots[j + 1].values
        btt = (b_next - 2.0 * b_here + b_prev) / dt**2
        laplacian, *work = (np.empty_like(b_here) for _ in range(3))
        _run(_fd_laplacian(b_here, spacings, laplacian, *work))
        residual = laplacian - btt - lattice.mass**2 * b_here
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
    schedule = _schedule(dt, steps, record_every)
    _require(b0, lattice, "position")
    _require_finite(b0, "b0")
    modes = to_momentum(b0, lattice)
    snapshots = [to_position(modes, lattice)]
    for n in schedule:
        snapshots.append(to_position(spectral_evolve(modes, lattice, n * dt), lattice))
    return EvolutionRun(lattice=lattice, steps=steps, snapshots=tuple(snapshots))


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
    return replace(report, ratios=ratios)


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
    energy functional, so it is experimental and records no energy; its
    instability monitor is the norm ``sum (|v|^2 + |b|^2) dV`` instead.  Runs
    whose monitor grows past 10x its initial value abort with an
    ``InstabilityError`` that names it.

    The step runs in place on C-contiguous arrays of the field's dtype: the
    force and the energy are bound once (:func:`_force`, :func:`_energy`), and
    every bulk neighbour difference of their stencils is one contiguous call
    on the flat C-order view, shifted by the axis stride, followed by a
    strided rewrite of the plane whose neighbour wraps around the box.
    ``(dt/2) acc`` is formed once per step and serves as that step's closing
    half-kick and the next one's opening half-kick.
    """
    if field_mode not in ("real", "complex"):
        raise ValueError(f"field_mode must be 'real' or 'complex', got {field_mode!r}")
    recorded = set(_schedule(dt, steps, record_every))
    if not np.isfinite(coupling):
        raise ValueError(f"coupling must be finite, got {coupling!r}")
    _require(b0, lattice, "position")
    _require(bdot0, lattice, "position")
    _require_finite(b0, "b0")
    _require_finite(bdot0, "bdot0")
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
    # Buffers C-contiguous like b and v: the force goes to acc through
    # scratch and one plane of diff; kick holds (dt/2) acc; the energy
    # reuses scratch and diff between steps, with grad of its own.
    acc, scratch, diff, kick = (np.empty_like(b) for _ in range(4))
    force = _force(b, spacings, mass_sq, coupling, acc, scratch, diff)
    if field_mode == "real":
        quantity = "energy"
        monitor = _energy(
            b, v, acc, spacings, mass_sq, coupling, dt, lattice.cell_volume,
            np.empty_like(b), diff, scratch,
        )
    else:
        quantity = "norm"

        def monitor() -> float:
            return float(np.sum(np.abs(v) ** 2 + np.abs(b) ** 2) * lattice.cell_volume)

    force()
    t0 = b0.time
    snapshots = [ComplexField(space="position", values=b.astype(complex), time=t0)]
    velocities = [np.array(v, copy=True)]
    monitored = [monitor()]

    # Overflow on the way to an instability abort is expected; the finiteness
    # check below turns it into a typed error.  The step updates b, v and acc
    # in place: v += kick; b += dt v; acc = force(b); kick = (dt/2) acc;
    # v += kick.  A step's closing kick is the next step's opening one.
    half_dt, full_dt = (np.array(c, dtype=b.dtype) for c in (0.5 * dt, dt))
    add, multiply = np.add, np.multiply
    multiply(half_dt, acc, kick)
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(1, steps + 1):
            add(v, kick, v)
            multiply(full_dt, v, scratch)
            add(b, scratch, b)
            force()
            multiply(half_dt, acc, kick)
            add(v, kick, v)
            if n in recorded:
                if not (np.all(np.isfinite(b)) and np.all(np.isfinite(v))):
                    raise InstabilityError(n, float("nan"), monitored[0], quantity)
                snapshots.append(
                    ComplexField(space="position", values=b.astype(complex), time=t0 + n * dt)
                )
                velocities.append(np.array(v, copy=True))
                monitored.append(monitor())
                if abs(monitored[-1]) > 10.0 * max(abs(monitored[0]), 1e-30):
                    raise InstabilityError(n, monitored[-1], monitored[0], quantity)

    return EvolutionRun(
        lattice=lattice,
        steps=steps,
        snapshots=tuple(snapshots),
        velocities=tuple(velocities),
        energy=np.array(monitored) if field_mode == "real" else None,
    )


def wavefront_measure(run: EvolutionRun, k0: float | Sequence[float]) -> FrontMeasurement:
    """Track the packet envelope peak and fit its speed.

    The peak of ``|b|^2`` is located per snapshot with three-point quadratic
    interpolation (periodic neighbors), unwrapped across the box seam, and
    fitted linearly against time.  ``expected_speed`` is the group velocity
    at ``k0``, a number or a one-entry list as :func:`gaussian_packet` takes.
    Tracking quality is the peak-to-mean intensity contrast; a run whose
    contrast falls below 3 is flagged untrackable.
    """
    if run.lattice.dims != 1:
        raise ValueError("front tracking supports one-dimensional runs only")
    k_vec = np.atleast_1d(np.asarray(k0, dtype=float))
    if k_vec.size != 1:
        raise ValueError("k0 must match the lattice dimension")
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
    expected = float(group_velocity(k_vec, run.lattice.mass)[0])
    return FrontMeasurement(
        speed=speed,
        expected_speed=expected,
        times=times,
        positions=pos,
        max_displacement=float(np.max(np.abs(pos - pos[0]))),
        min_contrast=float(min_contrast),
        trackable=bool(min_contrast >= 3.0),
    )
