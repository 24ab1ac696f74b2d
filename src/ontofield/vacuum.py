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
so one draw of a block feeds the estimates at every requested time: each time
rotates the block's modes out of place, transforms them, and adds the result
to its own sums.  The sums are Hermitian (the mean) and symmetric (the second
moment), so only their upper triangle is accumulated, in row strips of
``_STRIP_SITES`` sites, and mirrored once after the last block.
"""

from __future__ import annotations

import math
import os
from collections.abc import Sequence
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# The block path no longer calls spectral_evolve or to_position, but both stay
# attributes of this module: bench/spans.py wraps them here by name.
from ontofield.lattice import (  # noqa: F401
    ComplexField,
    MomentumLattice,
    _write_csv,
    evolution_phase,
    spectral_evolve,
    to_position,
)

__all__ = [
    "CorrelatorEstimate",
    "CorrelatorMemoryError",
    "EnsembleSpec",
    "ensemble_correlator",
    "ensemble_correlators",
    "sample_vacuum",
]

_MASK64 = (1 << 64) - 1
_CSV_ROW = "%d,%d,%.17g,%.17g,%.17g\r\n"
# Samples per block.  Each block adds its BLAS products to the sums, so the
# block edges set them: changing this moves the correlator's last bits.
_BATCH_ROWS = 256
# Sites per row strip of the accumulated upper triangle.  On OpenBLAS a
# strip's product equals those rows of the full product bit for bit.
_STRIP_SITES = 256
# Peak memory of a vacuum run, in bytes per site pair of each estimate (its
# complex and float accumulator, 16 + 8, its zero-variance flags, 1, and the
# CLI's float pull temporary, 8, which outgrows a CSV's index columns) and
# per site of a block of samples (its draws, one time's phases, transforms,
# conjugate and strip product).  Measured peaks of `ontofield run` above a
# warmed-up process (300 samples) were 46.2 and 162.2 MB for one estimate
# and 72.4 and 267.5 MB for two, at 1024 and 2048 sites, under the 59.8 and
# 188.7 MB and 94.4 and 327.2 MB this gives.
_PAIR_BYTES = 33
_BLOCK_SITE_BYTES = 96


@dataclass(frozen=True)
class EnsembleSpec:
    """Lattice, sample count, and seed of one vacuum ensemble.

    Samples are keyed by ``(seed, sample index)`` through a counter-based
    generator, so sample ``i`` is the same array no matter how many samples
    are drawn, in what order, or on how many workers.
    """

    lattice: MomentumLattice
    count: int
    seed: int

    def __post_init__(self) -> None:
        if not isinstance(self.count, (int, np.integer)) or self.count < 1:
            raise ValueError(f"count must be a positive integer, got {self.count!r}")
        if not isinstance(self.seed, (int, np.integer)):
            raise ValueError(f"seed must be an integer, got {self.seed!r}")


def _draw_phases(spec: EnsembleSpec, start: int, stop: int) -> np.ndarray:
    """Unit phases of samples ``start <= i < stop``, shape ``(stop-start, *grid)``.

    Row ``i - start`` is the Philox stream keyed by ``(seed, i)``, filling
    modes in C order.  Rewinding one bit generator to each key gives the
    stream a fresh ``Philox`` keyed by the uint64 pair ``(seed mod 2**64, i)``
    would, without building one.
    """
    bits = np.random.Philox(key=0)  # rekeyed below; key=0 skips OS entropy
    rng = np.random.Generator(bits)
    key = np.array([spec.seed & _MASK64, 0], dtype=np.uint64)
    zeros = np.zeros(4, dtype=np.uint64)
    state = {
        "bit_generator": "Philox",
        "state": {"counter": zeros, "key": key},
        "buffer": zeros,
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    theta = np.empty((stop - start, *spec.lattice.grid_points))
    for row, index in enumerate(range(start, stop)):
        key[1] = index
        bits.state = state
        rng.random(out=theta[row])
    # uniform(0, 2 pi) is 0.0 + 2 pi * u, so one scaling gives its bits.
    theta *= 2.0 * np.pi
    return np.exp(1j * theta)


def _position_block(modes: np.ndarray, phase: np.ndarray | None) -> np.ndarray:
    """A block of drawn ``modes``, shape ``(rows, *grid)``, in position space.

    Each row is multiplied by ``phase`` (an :func:`evolution_phase` array,
    or ``None`` for no evolution) and transformed with the unitary inverse
    DFT, as :func:`spectral_evolve` and :func:`to_position` do one field.
    ``modes`` is left as it was, so the same draw can serve several times.
    """
    if phase is not None:
        modes = modes * phase
    return np.fft.ifftn(modes, axes=tuple(range(1, modes.ndim)), norm="ortho")


def sample_vacuum(spec: EnsembleSpec, sample_index: int = 0) -> ComplexField:
    """Draw one vacuum configuration: unit-modulus phases per mode.

    The per-sample stream comes from a Philox counter keyed by
    ``(seed, sample_index)``; within the stream, modes are filled in fixed
    C order, so the draw is deterministic and schedule-independent.
    """
    if sample_index < 0:
        raise ValueError(f"sample_index must be nonnegative, got {sample_index!r}")
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
        _write_csv(path, ["x_index", "y_index", "re", "im", "stderr"], _CSV_ROW, columns)


class CorrelatorMemoryError(ValueError):
    """The dense correlator of a lattice cannot fit in physical memory."""


def _correlator_bytes(n_sites: int, estimates: int) -> int:
    """Peak bytes of ``estimates`` live estimates on ``n_sites`` sites, from measured peaks."""
    return _PAIR_BYTES * estimates * n_sites**2 + _BLOCK_SITE_BYTES * _BATCH_ROWS * n_sites


def _correlator_memory_problem(grid_points: tuple[int, ...], estimates: int) -> str | None:
    """Why ``estimates`` dense correlators on ``grid_points`` cannot fit, or ``None``.

    The estimate (:func:`_correlator_bytes`) is compared with the machine's
    physical memory, which a run cannot exceed whatever else is running.
    """
    n_sites = math.prod(grid_points)
    needed = _correlator_bytes(n_sites, estimates)
    physical = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    if needed <= physical:
        return None
    return (
        f"the dense correlator of {n_sites} sites, {estimates} at once, needs about "
        f"{needed} bytes, more than the {physical} bytes of physical memory"
    )


def _strips(n_sites: int):
    """Row strips ``(lo, hi)`` of ``_STRIP_SITES`` sites covering ``n_sites``."""
    for lo in range(0, n_sites, _STRIP_SITES):
        yield lo, min(lo + _STRIP_SITES, n_sites)


def _add_upper(total: np.ndarray, left_t: np.ndarray, right: np.ndarray) -> None:
    """Add the upper triangle of ``left_t @ right`` into ``total``, strip by strip.

    Strip ``[lo, hi)`` adds rows ``lo:hi`` from column ``lo`` on, so the
    squares on the diagonal are added whole and the rest of the lower
    triangle is left for :func:`_mirror`.
    """
    for lo, hi in _strips(total.shape[0]):
        total[lo:hi, lo:] += left_t[lo:hi] @ right[:, lo:]


def _mirror(total: np.ndarray) -> None:
    """Fill the lower off-diagonal blocks of ``total`` from its upper ones.

    The squares on the diagonal were summed whole and are left alone.  For a
    real ``total`` the conjugate is the array itself.
    """
    for lo, hi in _strips(total.shape[0]):
        total[hi:, lo:hi] = total[lo:hi, hi:].conj().T


def _finalise(sum_w: np.ndarray, sum_sq: np.ndarray, n_samples: int) -> CorrelatorEstimate:
    """Turn the two sums into the estimate in place, one row strip at a time.

    Per strip, the same operations in the same order as
    ``(sum_sq - n * |sum_w / n|**2) / (n - 1)``, with one float temporary of
    the strip's size.
    """
    zero_variance = np.empty(sum_sq.shape, dtype=bool)
    for lo, hi in _strips(sum_w.shape[0]):
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


def ensemble_correlators(spec: EnsembleSpec, evolve_times: Sequence[float]) -> list[CorrelatorEstimate]:
    """Average ``conj(b(x)) b(y)`` over the ``spec.count`` vacua, at each evolution time.

    Under the uniform-phase measure the prediction is the identity matrix at
    every time.  Estimate ``j`` pushes each sample through spectral
    evolution by ``evolve_times[j]`` (``0.0`` for none) before transforming
    to position space; its distribution must not depend on that time, which
    must be finite.  Each block of samples is drawn once and serves every
    time: it is evolved and transformed as one array, row for row the same
    as :func:`spectral_evolve` and :func:`to_position` on each
    :func:`sample_vacuum`.  Each block is added by BLAS products, in
    ascending sample order, so results are bitwise reproducible for a fixed
    numpy/BLAS build, whatever its thread count, and bitwise the same
    whichever other times share the call.  ``spec.count`` must be at least
    100.  Estimates whose correlators cannot fit in physical memory together
    raise :class:`CorrelatorMemoryError` before anything is allocated.
    """
    n_samples = spec.count
    if n_samples < 100:
        raise ValueError(f"correlator estimation needs >= 100 samples, got {n_samples}")
    if len(evolve_times) == 0:
        raise ValueError("evolve_times must hold at least one time")
    problem = _correlator_memory_problem(spec.lattice.grid_points, len(evolve_times))
    if problem is not None:
        raise CorrelatorMemoryError(problem)
    n_sites = math.prod(spec.lattice.grid_points)
    phases = [evolution_phase(spec.lattice, t) if t != 0.0 else None for t in evolve_times]
    sums = [(np.zeros((n_sites, n_sites), dtype=complex), np.zeros((n_sites, n_sites))) for _ in phases]
    for start in range(0, n_samples, _BATCH_ROWS):
        stop = min(start + _BATCH_ROWS, n_samples)
        modes = _draw_phases(spec, start, stop)
        for phase, (sum_w, sum_sq) in zip(phases, sums):
            block = _position_block(modes, phase).reshape(stop - start, n_sites)
            _add_upper(sum_w, block.conj().T, block)
            abs_sq = np.abs(block) ** 2
            _add_upper(sum_sq, abs_sq.T, abs_sq)
            # Each time's block goes before the next time's is built, and
            # the draw before the next draw: the guard counts one of each.
            del block, abs_sq
        del modes
    estimates = []
    for sum_w, sum_sq in sums:
        _mirror(sum_w)
        _mirror(sum_sq)
        estimates.append(_finalise(sum_w, sum_sq, n_samples))
    return estimates


def ensemble_correlator(spec: EnsembleSpec, *, evolve_time: float = 0.0) -> CorrelatorEstimate:
    """The one estimate of :func:`ensemble_correlators` at ``evolve_time``."""
    return ensemble_correlators(spec, (evolve_time,))[0]
