"""Random-phase vacuum ensemble and its correlator statistics.

The vacuum of the deterministic formulation is the uniform distribution over
the beable configurations: every mode carries a pure phase, independently
uniform on the circle.  Under that measure ``<conj(b(x)) b(y)>`` is exactly
the lattice Kronecker delta (phase averages kill every cross term, unitarity
of the transform does the rest), which makes the ensemble a sharp statistical
target: Monte-Carlo estimates must hit the delta within standard errors, and
must keep hitting it after spectral evolution, since per-mode rotation leaves
the uniform phase measure invariant.

Draws are made in blocks of sample indices, but each row is still the stream
keyed by ``(seed, index)``: one Philox generator is rewound to that key for
every index, so a block holds exactly the arrays that per-sample draws give.
Evolution by ``t`` is an exact per-mode rotation of the same configuration,
so one draw of a block feeds the estimates at every requested time: for each
time the block, a stack of momentum fields, goes through the lattice's own
``spectral_evolve`` (out of place: every time reads the same draws) and
``to_position``, the path of a single field, and the result is added to that
time's sums.  Each row has the bits ``np.fft.ifftn`` gives the single field
(``lattice._unitary_dft``).  The sums are Hermitian (the mean) and symmetric
(the second moment), so only their upper triangle is accumulated, in row
strips of ``_STRIP_SITES`` sites, and mirrored as the estimate is finalised.

One call allocates its per-block arrays once, as views of one workspace
sized for ``_BATCH_ROWS`` rows (:func:`_add_blocks`, ``lattice._workspace``),
and every block writes into their leading rows through the ``out=`` of
``spectral_evolve``, ``to_position`` and the ufuncs: the uniforms and their
phases, the evolved block (transformed in place), its conjugate and
``|b|^2``, and each strip's product.  The arithmetic and its order are
those of fresh arrays, so the bits are too; what goes is the page faults of
about twenty fresh arrays per block.
"""

from __future__ import annotations

import math
import os
from collections.abc import Sequence
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ontofield._rules import Problems, as_tuple, finite_entries, is_integer, problems, refuse
from ontofield.lattice import ComplexField, MomentumLattice, _workspace, _write_csv, spectral_evolve, to_position

__all__ = [
    "CorrelatorEstimate",
    "CorrelatorMemoryError",
    "EnsembleSpec",
    "ensemble_correlator",
    "ensemble_correlators",
    "sample_vacuum",
]

_MASK64 = (1 << 64) - 1
_MIN_SAMPLES = 100
_RULES = {
    "count": lambda count: None if is_integer(count) and count >= _MIN_SAMPLES
    else f"must be >= {_MIN_SAMPLES} samples for a correlator estimate, got {count!r}",
    "seed": lambda seed: None if is_integer(seed) else f"must be an integer, got {seed!r}",
    # The index is the second word of the uint64 Philox key.
    "sample_index": lambda index: None if is_integer(index) and 0 <= index <= _MASK64
    else f"must be an integer in [0, 2**64), got {index!r}",
    "evolve_times": lambda times: finite_entries(times) if len(times) else "must hold at least one time",
}
# Samples per block.  Each block adds its BLAS products to the sums, so the
# block edges set them: changing this moves the correlator's last bits.
_BATCH_ROWS = 256
# Sites per row strip of the accumulated upper triangle.  On OpenBLAS a
# strip's product equals those rows of the full product bit for bit.
_STRIP_SITES = 256
# Peak memory of a vacuum run, in bytes per site pair of each estimate (its
# complex and float accumulator, 16 + 8, its zero-variance flags, 1, and 8
# that the CLI's float pull matrix took before its pulls went row strip by
# row strip, kept as headroom) and per site of a block of samples (the
# workspace: angles 8, phases 16, the evolved and transformed block 16, its
# conjugate 16 and |b|^2 8, and the two strip products, 16 + 8 per site of
# a 256-site strip, 88 in all).
# Measured peaks of `ontofield run` (VmHWM above VmRSS after a 64-site
# warm-up run in the same process, 300 samples) were 49.7 and 147.4 MB for
# one estimate and 73.7 and 245.2 MB for two, at 1024 and 2048 sites (39.6,
# 126.7, 67.1 and 232.3 MB with fresh arrays per block), under the 59.8 and
# 188.7 MB and 94.4 and 327.2 MB this gives.
_PAIR_BYTES = 33
_BLOCK_SITE_BYTES = 96


@dataclass(frozen=True)
class EnsembleSpec:
    """Lattice, sample count, and seed of one vacuum ensemble.

    Samples are keyed by ``(seed, sample index)`` through a counter-based
    generator, so sample ``i`` is the same array no matter how many samples
    are drawn, in what order, or on how many workers.  ``count`` must be at
    least 100, the fewest samples a correlator estimate is made from.
    """

    lattice: MomentumLattice
    count: int
    seed: int

    def __post_init__(self) -> None:
        refuse(problems(_RULES, count=self.count, seed=self.seed))


def _draw_phases(
    spec: EnsembleSpec, start: int, stop: int, uniforms: np.ndarray | None = None, out: np.ndarray | None = None,
) -> np.ndarray:
    """Unit phases of samples ``start <= i < stop``, shape ``(stop-start, *grid)``.

    Row ``i - start`` is the Philox stream keyed by ``(seed, i)``, filling
    modes in C order.  Rewinding one bit generator to each key gives the
    stream a fresh ``Philox`` keyed by the uint64 pair ``(seed mod 2**64, i)``
    would, without building one.  The state holds Python ints in lists, which
    the setter reads word by word: a rekey took 0.87 us against 2.07 us with
    uint64 arrays (numpy 2.4.6, 2 vCPU shared host), for the same streams.
    ``uniforms`` (float) and ``out`` (complex), C-contiguous arrays of that
    shape, take the angles and the phases instead of new arrays.
    """
    bits = np.random.Philox(key=0)  # rekeyed below; key=0 skips OS entropy
    rng = np.random.Generator(bits)
    key = [int(spec.seed) & _MASK64, 0]
    zeros = [0] * 4
    state = {
        "bit_generator": "Philox",
        "state": {"counter": zeros, "key": key},
        "buffer": zeros,
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    shape = (stop - start, *spec.lattice.grid_points)
    theta = np.empty(shape) if uniforms is None else uniforms
    phases = np.empty(shape, dtype=complex) if out is None else out
    for row, index in enumerate(range(start, stop)):
        key[1] = index
        bits.state = state
        rng.random(out=theta[row])
    # uniform(0, 2 pi) is 0.0 + 2 pi * u, so one scaling gives its bits.
    theta *= 2.0 * np.pi
    # The bits of np.exp(1j * theta), with no temporaries: libm's complex exp
    # scales the cos and sin of the imaginary part by exp(0.0) = 1.0.  They
    # matched on 42 million angles, at the host's dispatch level and with it
    # off (numpy 2.4.6, glibc 2.36).
    np.cos(theta, out=phases.real)
    np.sin(theta, out=phases.imag)
    return phases


def sample_vacuum(spec: EnsembleSpec, sample_index: int = 0) -> ComplexField:
    """Draw one vacuum configuration: unit-modulus phases per mode.

    The per-sample stream comes from a Philox counter keyed by
    ``(seed, sample_index)``; within the stream, modes are filled in fixed
    C order, so the draw is deterministic and schedule-independent.
    """
    refuse(problems(_RULES, sample_index=sample_index))
    values = _draw_phases(spec, sample_index, sample_index + 1)[0]
    return ComplexField(space="momentum", values=values, time=0.0)


@dataclass(frozen=True)
class CorrelatorEstimate:
    """Monte-Carlo two-point estimates ``<conj(b(x)) b(y)>`` with errors.

    ``mean`` and ``stderr`` are indexed by flattened (row-major) site pairs.
    ``stderr`` combines the real and imaginary sample variances; entries
    whose variance estimate vanished are flagged in ``zero_variance`` (their
    bars carry no information).
    """

    mean: np.ndarray
    stderr: np.ndarray
    count: int
    zero_variance: np.ndarray

    def write_csv(self, path: str | Path) -> None:
        """Columns x_index, y_index, re, im, stderr; 17 significant digits.

        Lines end in CRLF, as the ``csv`` module's default dialect writes
        them.
        """
        n = self.mean.shape[0]
        # Views of the estimate, and index columns of the narrowest integer type.
        sites = np.arange(n, dtype=np.min_scalar_type(n))
        mean = self.mean.ravel()
        columns = [np.repeat(sites, n), np.tile(sites, n), mean.real, mean.imag, self.stderr.ravel()]
        _write_csv(path, ["x_index", "y_index", "re", "im", "stderr"], columns)


class CorrelatorMemoryError(ValueError):
    """The dense correlator of a lattice cannot fit in physical memory."""


def _correlator_bytes(n_sites: int, estimates: int) -> int:
    """Peak bytes of ``estimates`` live estimates on ``n_sites`` sites, from measured peaks."""
    return _PAIR_BYTES * estimates * n_sites**2 + _BLOCK_SITE_BYTES * _BATCH_ROWS * n_sites


def _memory_problems(grid_points, estimates: int) -> Problems:
    """Why ``estimates`` dense correlators on ``grid_points`` cannot fit, as ``(argument, message)`` pairs.

    The estimate (:func:`_correlator_bytes`) is compared with the machine's
    physical memory, which a run cannot exceed whatever else is running.
    Reads the grid's sizes alone: no lattice is built.
    """
    n_sites = math.prod(as_tuple(grid_points))
    needed = _correlator_bytes(n_sites, estimates)
    physical = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    if needed <= physical:
        return []
    return [("grid_points", (
        f"the dense correlator of {n_sites} sites, {estimates} at once, needs about "
        f"{needed} bytes, more than the {physical} bytes of physical memory"
    ))]


def _strips(n_sites: int):
    """Row strips ``(lo, hi)`` of ``_STRIP_SITES`` sites covering ``n_sites``."""
    for lo in range(0, n_sites, _STRIP_SITES):
        yield lo, min(lo + _STRIP_SITES, n_sites)


def _add_upper(total: np.ndarray, left_t: np.ndarray, right: np.ndarray, product: np.ndarray) -> None:
    """Add the upper triangle of ``left_t @ right`` into ``total``, strip by strip.

    Strip ``[lo, hi)`` adds rows ``lo:hi`` from column ``lo`` on, so the
    squares on the diagonal are added whole and the rest of the lower
    triangle is left for :func:`_finalise`.  Each strip's product is formed in
    the leading entries of ``product``, a flat array of ``total``'s dtype
    with room for the first strip.
    """
    n = total.shape[0]
    for lo, hi in _strips(n):
        strip = product[: (hi - lo) * (n - lo)].reshape(hi - lo, n - lo)
        rows = total[lo:hi, lo:]
        rows += np.matmul(left_t[lo:hi], right[:, lo:], out=strip)


def _finalise(sum_w: np.ndarray, sum_sq: np.ndarray, n_samples: int) -> CorrelatorEstimate:
    """Turn the two upper-triangle sums into the estimate in place, one row strip at a time.

    Each strip first fills the lower off-diagonal blocks below it from its
    upper ones (for the real ``sum_sq`` the conjugate is the array itself),
    before its own entries change; the rows below are finalised later.  Then,
    per strip, the same operations in the same order as
    ``(sum_sq - n * |sum_w / n|**2) / (n - 1)``, with one float temporary of
    the strip's size.
    """
    zero_variance = np.empty(sum_sq.shape, dtype=bool)
    for lo, hi in _strips(sum_w.shape[0]):
        for total in (sum_w, sum_sq):
            total[hi:, lo:hi] = total[lo:hi, hi:].conj().T
        mean = sum_w[lo:hi]
        mean /= n_samples
        # E|w|^2 - |E w|^2 estimates Var(Re w) + Var(Im w) in one shot.
        mean_sq = np.abs(mean)
        np.square(mean_sq, out=mean_sq)
        mean_sq *= n_samples
        variance = sum_sq[lo:hi]
        variance -= mean_sq
        del mean_sq
        variance /= n_samples - 1
        np.maximum(variance, 0.0, out=variance)
        np.equal(variance, 0.0, out=zero_variance[lo:hi])
        variance /= n_samples
        np.sqrt(variance, out=variance)
    return CorrelatorEstimate(mean=sum_w, stderr=sum_sq, count=n_samples, zero_variance=zero_variance)


def _add_blocks(
    spec: EnsembleSpec, evolve_times: Sequence[float], sums: list[tuple[np.ndarray, np.ndarray]],
) -> None:
    """Add every block of ``spec``'s samples into each time's ``(sum_w, sum_sq)``, through one workspace.

    The per-block arrays are allocated once, for up to ``_BATCH_ROWS`` rows,
    and each block writes into their leading rows.  They are freed on return,
    before the estimates are finalised: kept through :func:`_finalise`, they
    raised the peaks measured above ``_BLOCK_SITE_BYTES`` by 3 to 16 MB.
    """
    lattice = spec.lattice
    grid = lattice.grid_points
    n_sites = math.prod(grid)
    batch = min(_BATCH_ROWS, spec.count)
    # The products are flat, with room for the first (widest) strip's.
    strip = min(_STRIP_SITES, n_sites) * n_sites
    uniforms, phases, position, conj, abs_sq, product_w, product_sq = _workspace(
        ((batch, *grid), float), ((batch, *grid), complex), ((batch, *grid), complex),
        ((batch, n_sites), complex), ((batch, n_sites), float), ((strip,), complex), ((strip,), float),
    )
    for start in range(0, spec.count, _BATCH_ROWS):
        rows = min(_BATCH_ROWS, spec.count - start)
        drawn = _draw_phases(spec, start, start + rows, uniforms[:rows], phases[:rows])
        modes = ComplexField(space="momentum", values=drawn)
        # The evolved block is transformed in place: one buffer serves both.
        out = position[:rows]
        block = out.reshape(rows, n_sites)
        for t, (sum_w, sum_sq) in zip(evolve_times, sums):
            to_position(spectral_evolve(modes, lattice, t, out=out) if t != 0.0 else modes, lattice, out=out)
            _add_upper(sum_w, np.conjugate(block, out=conj[:rows]).T, block, product_w)
            # |b|^2 as np.abs(block) ** 2 forms it: ** 2 is np.square.
            square = np.square(np.abs(block, out=abs_sq[:rows]), out=abs_sq[:rows])
            _add_upper(sum_sq, square.T, square, product_sq)


def ensemble_correlators(spec: EnsembleSpec, evolve_times: Sequence[float]) -> list[CorrelatorEstimate]:
    """Average ``conj(b(x)) b(y)`` over the ``spec.count`` vacua, at each evolution time.

    Under the uniform-phase measure the prediction is the identity matrix at
    every time.  Estimate ``j`` pushes each sample through spectral
    evolution by ``evolve_times[j]`` (``0.0`` for none) before transforming
    to position space; its distribution must not depend on that time, which
    must be finite.  Each block of samples is drawn once and serves every
    time: :func:`spectral_evolve` and :func:`to_position` take it as one
    stack of momentum fields, and give row for row what they give on each
    :func:`sample_vacuum`.  Each block is added by BLAS products, in
    ascending sample order, so results are bitwise reproducible for a fixed
    numpy/BLAS build, whatever its thread count, and bitwise the same
    whichever other times share the call.  Estimates whose correlators cannot
    fit in physical memory together raise :class:`CorrelatorMemoryError`
    before anything is allocated.
    """
    n_samples = spec.count
    refuse(problems(_RULES, evolve_times=evolve_times))
    refuse(_memory_problems(spec.lattice.grid_points, len(evolve_times)), CorrelatorMemoryError)
    n_sites = math.prod(spec.lattice.grid_points)
    sums = [(np.zeros((n_sites, n_sites), dtype=complex), np.zeros((n_sites, n_sites))) for _ in evolve_times]
    _add_blocks(spec, evolve_times, sums)
    return [_finalise(sum_w, sum_sq, n_samples) for sum_w, sum_sq in sums]


def ensemble_correlator(spec: EnsembleSpec, *, evolve_time: float = 0.0) -> CorrelatorEstimate:
    """The one estimate of :func:`ensemble_correlators` at ``evolve_time``."""
    return ensemble_correlators(spec, (evolve_time,))[0]
