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

from ontofield._rules import (
    Problems, as_tuple, finite, integer_at_least, per_axis, positive_finite, problems, refuse,
)
from ontofield.kernels import _velocity_problems, group_velocity
from ontofield.lattice import (
    ComplexField,
    MomentumLattice,
    _require,
    _require_finite,
    _spacings,
    _workspace,
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
    """Leapfrog integration blew up; carries the step, the last energy and the initial one."""

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
    strictly increase; a leapfrog run's hold float64 values, a spectral
    run's complex128.  A run given a ``sink`` hands its records to it and
    keeps none, so its ``snapshots`` are empty.  The leapfrog integrator
    fills ``velocity``, its last one, and ``energy``, one value per record;
    each is ``None`` otherwise.
    """

    lattice: MomentumLattice
    steps: int
    snapshots: tuple[ComplexField, ...]
    velocity: np.ndarray | None = None
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
    return _bound(lattice.spacings, lattice.mass)


def _bound(spacings, mass: float) -> float:
    """:func:`stability_bound` from the lattice's spacings and mass."""
    top = np.sqrt(sum(4.0 / dx**2 for dx in spacings) + float(mass) ** 2)
    return float(2.0 / top)


_RULES = {
    **dict.fromkeys(("k0", "center"), per_axis(finite)),
    **dict.fromkeys(("amplitude", "coupling"), finite),
    # The envelope's exponent -d^2 / (4 w^2) would be 0/0 at the center of a width whose square is 0.
    "width": lambda width: positive_finite(width)
    or (None if float(width) * float(width) > 0.0 else f"must have a square that does not underflow to 0, got {width!r}"),
    "dt": positive_finite,
    **dict.fromkeys(("steps", "record_every"), integer_at_least(1)),
    "levels": integer_at_least(2),
}


def _schedule(dt: float, steps: int, record_every: int) -> list[int]:
    """Steps a run records after step 0: every ``record_every``-th and the last."""
    refuse(problems(_RULES, dt=dt, steps=steps, record_every=record_every))
    return [*range(record_every, steps, record_every), steps]


def _dims_problems(dims: int, **vectors) -> Problems:
    """The ``(argument, message)`` pairs of the ``vectors`` without one entry per lattice dimension."""
    return [(name, f"must have one entry per lattice dimension, got {value!r} for {dims}")
            for name, value in vectors.items() if len(as_tuple(value)) != dims]


def _packet_problems(dims: int, k0, center, width: float, amplitude: float) -> Problems:
    """Every ``(argument, message)`` reason :func:`gaussian_packet` refuses its arguments on a ``dims``-dimensional lattice."""
    found = problems(_RULES, k0=k0, center=center, width=width, amplitude=amplitude)
    return found + _dims_problems(dims, k0=k0, center=center)


def _leapfrog_problems(
    box_lengths, grid_points, mass: float, cutoff: float | None, coupling: float, dt: float
) -> Problems:
    """Every ``(argument, message)`` reason :func:`leapfrog_interact` refuses its parameters, ``dt`` past its own rule; the lattice enters by its arguments."""
    found = problems(_RULES, coupling=coupling)
    if not found:
        bound = _bound(_spacings(box_lengths, grid_points), mass)
        if not dt < bound:
            found.append(("dt", f"must be below the leapfrog stability bound {bound!r}"))
    if cutoff is not None:
        found.append(("cutoff", f"must be None: the leapfrog stencil evolves every mode, got {cutoff!r}"))
    return found


def _front_problems(dims: int, k0, mass: float) -> Problems:
    """Every ``(argument, message)`` reason :func:`wavefront_measure` refuses a run and ``k0``."""
    if dims != 1:
        return [("box_lengths", "the front experiment is one-dimensional")]
    return _dims_problems(1, k0=k0) or [("k0", message) for _, message in _velocity_problems(k0, mass)]


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
    refuse(_packet_problems(lattice.dims, k0, center, width, amplitude))
    k_vec = np.atleast_1d(np.asarray(k0, dtype=float))
    c_vec = np.atleast_1d(np.asarray(center, dtype=float))
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


def evolve_convolution(b0: ComplexField, lattice: MomentumLattice, t: float) -> ComplexField:
    """Free evolution as a literal convolution with the lattice finite-time kernel.

    The kernel is the mode sum ``(1/V_sites) sum_k exp(1j k.d - 1j omega t)``,
    built once and summed over the real-space displacements explicitly.  The
    cost is quadratic in the site count: this is the small-grid check on the
    transform route ``to_position(spectral_evolve(to_momentum(b0)))``.
    """
    _require(b0, lattice, "position")
    _require_finite(b0, "b0")
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
    refuse(problems(_RULES, dt=dt))
    _require(b, lattice, "position")
    _require_finite(b, "b")
    modes = to_momentum(b, lattice)
    forward = to_position(spectral_evolve(modes, lattice, dt), lattice)
    backward = to_position(spectral_evolve(modes, lattice, -dt), lattice)
    fd = (forward.values - backward.values) / (2.0 * dt)
    multiplier = np.where(lattice.excluded, 0.0, lattice.omega)
    rhs = -1j * to_position(ComplexField("momentum", multiplier * modes.values), lattice).values
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


def _divide_by(divisor: float) -> tuple[np.ufunc, np.ndarray]:
    """``(ufunc, constant)`` whose call ``ufunc(x, constant)`` is ``x / divisor``.

    ``x / 2**e`` is ``x * 2**-e`` to the bit: both round the same real
    quotient, and the reciprocal of a power of two is exact when it is
    finite.  The multiply took 7.5 us against 27 us for the divide on a
    32^3 field (numpy 2.4.6, AVX-512).
    """
    reciprocal = 1.0 / divisor
    if math.frexp(divisor)[0] == 0.5 and math.isfinite(reciprocal):
        return np.multiply, np.array(reciprocal)
    return np.divide, np.array(divisor)


def _with_halo(shape: tuple[int, ...], buffers: int) -> list[np.ndarray]:
    """``[ext, *work]``: unset float64 arrays, views of one 64-byte aligned workspace (``lattice._workspace``).

    ``ext`` has ``shape`` with one more plane before and after axis 0: the
    state of ``shape`` is ``ext[1:-1]``, and the planes ``ext[0]`` and
    ``ext[-1]`` are the halo the stencils read axis 0's periodic neighbours
    through, refreshed by every force and energy call (:func:`_halo_copy`).
    ``work`` is ``buffers`` arrays of ``shape``.
    """
    return _workspace(((shape[0] + 2, *shape[1:]), float), *[(shape, float)] * buffers)


def _halo_copy(ext: np.ndarray) -> _Call:
    """The call that copies ``ext``'s state planes ``ext[-2]`` and ``ext[1]`` into its halo planes ``ext[0]`` and ``ext[-1]``.

    Both planes go in one ``bitwise_or`` with 0 on ``uint64`` views, a copy
    of the bits for float64, complex128 or int64 alike: a float ``x + 0.0``
    turns ``-0.0`` into ``+0.0``, and a complex ``x * (1+0j)`` can flip the
    sign of a zero.  The source rows are rows ``n`` and ``1`` of the
    ``(n+2)``-row view, one stride of ``-(n-1)`` rows apart (0 when ``n =
    1``).  A plane of one word is a 1-D strided view, which a ufunc takes
    without its N-D iterator: 1.2 us against 2.2 us on a 64-site line
    (numpy 2.4.6, 2 vCPU shared host).
    """
    n = ext.shape[0] - 2
    rows = _flat(ext).view(np.uint64).reshape(n + 2, -1)
    if rows.shape[1] == 1:
        rows = rows[:, 0]
    halo = rows[::n + 1]
    wrap = np.lib.stride_tricks.as_strided(
        rows[n:], halo.shape, (-(n - 1) * rows.strides[0], *rows.strides[1:]), writeable=False
    )
    return np.bitwise_or, wrap, np.zeros((), dtype=np.uint64), halo


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

    The stencils use these views for the inner axes only.  An inner axis
    wraps once per outer index, so its wrong pairs are scattered through the
    flat array and need the strided rewrite.  Axis 0 wraps once, at the two
    ends of the flat array, which the halo planes of :func:`_with_halo`
    extend instead.
    """
    st = math.prod(array.shape[axis + 1:])
    flat = _flat(array)
    head = (slice(None),) * axis
    return flat[st:], flat[:-st], array[head + (slice(None, 1),)], array[head + (slice(-1, None),)]


def _fd_laplacian(
    ext: np.ndarray,
    spacings: tuple[float, ...],
    out: np.ndarray,
    term: np.ndarray,
    plane: np.ndarray,
) -> list[_Call]:
    """Bind the periodic centered second difference of the state ``ext[1:-1]`` to buffers.

    Running the calls (:func:`_run`) writes the Laplacian of the current
    contents of the state into ``out``.  Per axis, ``term`` goes through
    ``((b[i+1] - 2.0*b[i]) + b[i-1]) / dx**2`` and is added to a sum that
    starts at zero; the add to zero turns a ``-0.0`` into ``+0.0``.

    - Axis 0 reads through the halo: the calls first refresh ``ext``'s halo
      planes (:func:`_halo_copy`), and then ``b[i+1]`` and ``b[i-1]`` of
      every site are the flat views of ``ext`` shifted one plane up and down
      from the state.  ``term = 2.0*b``, ``term = b[i+1] - term``, ``term
      += b[i-1]`` and the divide by ``dx**2`` (:func:`_divide_by`) are one
      contiguous call each, with no plane to rewrite.
    - An inner axis reads the flat views of :func:`_axis_views`, in place in
      ``term``, and rewrites its wrap plane by a strided call from the
      periodic neighbour: ``term[i] = b[i+1] - term[i]`` by the flat shift;
      the ``i = N-1`` plane, which that call may have overwritten, is formed
      again as ``2.0*b`` and then ``b[0] - term``; the ``i = 0`` plane of
      ``term + b[i-1]`` goes into the matching plane of ``plane`` first, as
      the flat ``term[i] += b[i-1]`` that follows may overwrite it; both are
      divided by ``dx**2``, the plane back into ``term``.

    Every site of ``term`` goes through the operations of the ``np.roll`` form
    in its order, so the result is bitwise that form, and every buffer site is
    written before it is read, for every axis length.  In-place calls touch
    two arrays where a third buffer would add a stream to each call.

    ``out``, ``term`` and ``plane`` have the float64 state's shape and alias
    none of the others or ``ext``; state axes past ``len(spacings)`` are
    components the sums never mix.  ``ext`` and ``term`` are read through flat
    views, so they must be C-contiguous, and any other raises ``ValueError``:
    ``reshape(-1)`` of a non-contiguous array would be a copy, and the
    stencil would read stale data.  The constants are 0-d float64 arrays, as
    a Python scalar operand costs a conversion per call.
    """
    values = ext[1:-1]
    two = np.array(2.0)
    st = values[0].size
    e_flat, t_flat = _flat(ext), _flat(term)
    divide, dx_sq = _divide_by(spacings[0] ** 2)
    calls: list[_Call] = [
        _halo_copy(ext),
        (np.multiply, two, values, term),
        (np.subtract, e_flat[2 * st:], t_flat, t_flat),
        (np.add, t_flat, e_flat[:-2 * st], t_flat),
        (divide, term, dx_sq, term),
        (np.add, np.array(0.0), term, out),
    ]
    for axis, dx in enumerate(spacings[1:], start=1):
        b_up, b_low, b_first, b_last = _axis_views(values, axis)
        t_up, t_low, t_first, t_last = _axis_views(term, axis)
        seam = plane[(slice(None),) * axis + (slice(None, 1),)]
        divide, dx_sq = _divide_by(dx**2)
        calls += [
            (np.multiply, two, values, term),
            (np.subtract, b_up, t_low, t_low),
            (np.multiply, two, b_last, t_last),
            (np.subtract, b_first, t_last, t_last),
            (np.add, t_first, b_last, seam),
            (np.add, t_up, b_low, t_up),
            (divide, term, dx_sq, term),
            (divide, seam, dx_sq, t_first),
            (np.add, out, term, out),
        ]
    return calls


def _force(
    ext: np.ndarray,
    spacings: tuple[float, ...],
    mass_sq: float,
    coupling: float,
    out: np.ndarray,
    scratch: np.ndarray,
    plane: np.ndarray,
) -> Callable[[], None]:
    """Bind ``Lap b - M^2 b - (coupling/6) b^3`` of the state ``b = ext[1:-1]`` to buffers.

    Each call writes the force of the current contents of the state into
    ``out``, with the operations of the expression in its order: the
    Laplacian of :func:`_fd_laplacian`, which refreshes ``ext``'s halo planes
    and reads axis 0 through them (through ``scratch`` and one plane of
    ``plane``, under its contiguity rule), then the mass term and the cubic
    one in ``scratch``.  The calls are ``partial(_run, calls).args[0]``: 12
    for a 1-D state, and 9 more per inner axis.

    The cube is ``(b*b)*b``: each multiply is correctly rounded whatever SIMD
    level numpy dispatches to, while float64 ``np.power`` took 2.4 ms against
    0.03 ms on a 32^3 field (numpy 2.4.6, AVX-512) and its last bit followed
    the dispatch.
    """
    calls = _fd_laplacian(ext, spacings, out, scratch, plane)
    state = ext[1:-1]
    m_sq, c6 = (np.array(c, dtype=float) for c in (mass_sq, coupling / 6.0))
    calls += [
        (np.multiply, m_sq, state, scratch), (np.subtract, out, scratch, out),
        (np.multiply, state, state, scratch), (np.multiply, scratch, state, scratch),
        (np.multiply, c6, scratch, scratch), (np.subtract, out, scratch, out),
    ]
    return partial(_run, calls)


def _energy(
    ext: np.ndarray,
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
    of the state ``b = ext[1:-1]``, ``vel`` and ``acc``, where ``density`` is

        v*v/2 - (dt^2/8) acc*acc + |grad+ b|^2/2 + M^2 b^2/2 + coupling b^4/24

    with the operations in that order.  The forward differences ``b[i+1] -
    b[i]`` go into ``diff``: along axis 0 by one call on ``ext``'s flat view
    after the halo copy of :func:`_halo_copy`, along an inner axis by one
    flat-shift call on the views of :func:`_axis_views` and a rewrite of the
    ``i = N-1`` plane from ``b[0]``.  Per axis ``(diff/dx)**2`` is added to a
    sum in ``grad`` that starts at zero.  ``grad``, ``diff`` and ``term`` are
    written before they are read, so they may be the force's buffers between
    steps.  ``ext`` and ``diff`` are read through flat views and follow the
    contiguity rule of :func:`_fd_laplacian`.
    """
    state = ext[1:-1]
    half, c_acc, c_mass, c_quartic = (
        np.array(c, dtype=float) for c in (0.5, 0.125 * dt**2, 0.5 * mass_sq, coupling / 24.0)
    )
    st = state[0].size
    e_flat = _flat(ext)
    divide, by_dx = _divide_by(spacings[0])
    calls: list[_Call] = [
        _halo_copy(ext),
        (np.subtract, e_flat[2 * st:], e_flat[st:-st], _flat(diff)),
        (divide, diff, by_dx, diff),
        (np.multiply, diff, diff, diff),
        (np.add, np.array(0.0), diff, grad),
    ]
    for axis, dx in enumerate(spacings[1:], start=1):
        b_up, b_low, b_first, b_last = _axis_views(state, axis)
        _, d_low, _, d_last = _axis_views(diff, axis)
        divide, by_dx = _divide_by(dx)
        calls += [
            (np.subtract, b_up, b_low, d_low),
            (np.subtract, b_first, b_last, d_last),
            (divide, diff, by_dx, diff),
            (np.multiply, diff, diff, diff),
            (np.add, grad, diff, grad),
        ]
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
    times.  Needs at least 3 snapshots at uniform spacing.  The spatial
    term is the leapfrog's float64 stencil (:func:`_fd_laplacian`), bound
    once to a buffer with halo planes (:func:`_with_halo`) and a trailing
    ``(re, im)`` axis, 1 long if real, into which each interior snapshot is
    copied: each part of a snapshot of any layout goes through the
    leapfrog's stencil bit for bit.
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
    shape = run.snapshots[0].values.shape
    dtype = np.result_type(float, *(snap.values.dtype for snap in run.snapshots[1:-1]))
    ext, parts, *work = _with_halo((*shape, dtype.itemsize // 8), 3)
    calls = _fd_laplacian(ext, spacings, parts, *work)
    laplacian, b_here = (a.view(dtype).reshape(shape) for a in (parts, ext[1:-1]))
    max_residual = 0.0
    sq_sum = 0.0
    count = 0
    for j in range(1, len(run.snapshots) - 1):
        b_here[...] = run.snapshots[j].values
        _run(calls)
        btt = (run.snapshots[j + 1].values - 2.0 * b_here + run.snapshots[j - 1].values) / dt**2
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
    *,
    sink: Callable[[ComplexField], None] | None = None,
) -> EvolutionRun:
    """Exact free evolution recorded at uniform intervals.

    Records are position-space fields at times ``b0.time + n*dt``; the
    final step is always recorded.  Each record goes to ``sink`` as it is
    made.  Without one the run collects them as its ``snapshots``; with one
    it holds a single record at a time and returns no snapshots.
    """
    schedule = _schedule(dt, steps, record_every)
    _require(b0, lattice, "position")
    _require_finite(b0, "b0")
    snapshots: list[ComplexField] = []
    record = snapshots.append if sink is None else sink
    modes = to_momentum(b0, lattice)
    record(to_position(modes, lattice))
    for n in schedule:
        record(to_position(spectral_evolve(modes, lattice, n * dt), lattice))
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
    refuse(problems(_RULES, levels=levels))
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
    record_every: int = 1,
    sink: Callable[[ComplexField], None] | None = None,
) -> EvolutionRun:
    """Kick-drift-kick leapfrog for the anharmonic wave equation.

    Integrates ``d2b/dt2 = Lap b - M^2 b - (coupling/6) b^3`` for a real
    field ``b`` with centered spatial differences on the periodic box, so
    the initial fields must hold real values.  The discrete energy

        E = sum [ v*v/2 - (dt^2/8) acc*acc + |grad+ b|^2/2
                  + M^2 b^2/2 + coupling b^4/24 ] * dV

    is recorded with every record; its quadratic part is an exact leapfrog
    invariant (the kinetic piece is the staggered half-step product), so
    drift isolates the quartic term and roundoff.  Runs whose energy grows
    past 10x its initial value or is not finite abort with an
    ``InstabilityError`` before the record.  Each record is a float64 copy
    of the field, handed to ``sink`` as it is made; without one the run
    collects the records as its ``snapshots``, with one it keeps none.  Of
    the velocities, the run keeps only the last.  The lattice must have no
    cutoff: the stencil evolves every mode.

    The step runs in place on C-contiguous float64 arrays that start on
    64-byte boundaries (``lattice._workspace``): the field is
    ``ext[1:-1]``, one plane into a buffer ``ext`` with a halo plane before
    and after axis 0 (:func:`_with_halo`), and the force and the energy are
    bound once (:func:`_force`, :func:`_energy`).  Each of their calls
    first copies the field's last and first planes into the halo bit for
    bit; every neighbour difference along axis 0 is then one contiguous call
    on ``ext``'s flat view, shifted one plane.  Along an inner axis it is one
    call on the field's flat view, shifted by the axis stride, followed by a
    strided rewrite of the plane whose neighbour wraps around the box.
    ``(dt/2) acc`` is formed once per step and serves as that step's closing
    half-kick and the next one's opening half-kick.  A 1-D step is 17 ufunc
    calls.
    """
    schedule = _schedule(dt, steps, record_every)
    refuse(_leapfrog_problems(
        lattice.box_lengths, lattice.grid_points, lattice.mass, lattice.cutoff, coupling, dt
    ))
    _require(b0, lattice, "position")
    _require(bdot0, lattice, "position")
    _require_finite(b0, "b0")
    _require_finite(bdot0, "bdot0")

    scale = max(float(np.max(np.abs(b0.values))), float(np.max(np.abs(bdot0.values))), 1e-30)
    imag_leak = max(float(np.max(np.abs(b0.values.imag))), float(np.max(np.abs(bdot0.values.imag))))
    if imag_leak > 1e-12 * scale:
        raise ValueError("the leapfrog requires real initial data")
    # ext's workspace: the force goes to acc through scratch and one plane of
    # diff; kick holds (dt/2) acc; the energy reuses scratch and diff between
    # steps, with grad its own.  The returned velocity is allocated alone.
    ext, acc, scratch, diff, kick, grad = _with_halo(lattice.grid_points, 5)
    (v,) = _workspace((lattice.grid_points, float))
    b = ext[1:-1]
    b[...] = b0.values.real
    v[...] = bdot0.values.real

    mass_sq = lattice.mass**2
    spacings = lattice.spacings
    force = _force(ext, spacings, mass_sq, coupling, acc, scratch, diff)
    energy = _energy(
        ext, v, acc, spacings, mass_sq, coupling, dt, lattice.cell_volume, grad, diff, scratch,
    )
    force()
    t0 = b0.time
    snapshots: list[ComplexField] = []
    record = snapshots.append if sink is None else sink
    record(ComplexField(space="position", values=b.copy(), time=t0))
    energies = [energy()]

    # Overflow on the way to an instability abort is expected: a state that
    # is not finite has a NaN or infinite energy, which fails the energy
    # check below before the record is made.  The step updates b, v and acc
    # in place: v += kick; b += dt v; acc = force(b); kick = (dt/2) acc;
    # v += kick.  A step's closing kick is the next step's opening one.
    half_dt, full_dt = (np.array(c, dtype=float) for c in (0.5 * dt, dt))
    add, multiply = np.add, np.multiply
    multiply(half_dt, acc, kick)
    with np.errstate(over="ignore", invalid="ignore"):
        for start, n in zip([0, *schedule], schedule):
            for _ in range(start, n):
                add(v, kick, v)
                multiply(full_dt, v, scratch)
                add(b, scratch, b)
                force()
                multiply(half_dt, acc, kick)
                add(v, kick, v)
            energies.append(energy())
            if not abs(energies[-1]) <= 10.0 * max(abs(energies[0]), 1e-30):
                raise InstabilityError(n, energies[-1], energies[0])
            record(ComplexField(space="position", values=b.copy(), time=t0 + n * dt))

    return EvolutionRun(
        lattice=lattice,
        steps=steps,
        snapshots=tuple(snapshots),
        velocity=v,
        energy=np.array(energies),
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
    refuse(_front_problems(run.lattice.dims, k0, run.lattice.mass))
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
        if mean <= 0.0:  # a peak of subnormal intensity, whose mean underflows to 0
            raise FrontTrackingError("intensity vanished")
        min_contrast = min(min_contrast, here / mean)
    unwrapped = [positions[0]]
    for p in positions[1:]:
        p = p + length * np.round((unwrapped[-1] - p) / length)
        unwrapped.append(p)
    times = run.times
    pos = np.array(unwrapped)
    speed = float(np.polyfit(times, pos, 1)[0])
    expected = float(group_velocity(np.atleast_1d(k0), run.lattice.mass)[0])
    return FrontMeasurement(
        speed=speed,
        expected_speed=expected,
        times=times,
        positions=pos,
        max_displacement=float(np.max(np.abs(pos - pos[0]))),
        min_contrast=float(min_contrast),
        trackable=bool(min_contrast >= 3.0),
    )
