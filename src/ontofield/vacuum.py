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
"""

from __future__ import annotations

import math
import os
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
    "sample_vacuum",
]

_MASK64 = (1 << 64) - 1
_CSV_ROW = "%d,%d,%.17g,%.17g,%.17g\r\n"
# Samples per block.  Each block adds one BLAS product to the sums, so the
# block edges set them: changing this moves the correlator's last bits.
_BATCH_ROWS = 256
# Peak memory of ensemble_correlator and a write_csv of its estimate, in bytes
# per site pair (the complex and the float accumulator and the complex product
# of one block: 16 + 8 + 16) and per site of a block of samples (its draws,
# phases and transforms).  Measured peaks above a warmed-up process (300
# samples, evolved, as tests/test_csv_writer.py measures) were 17.5, 53.8
# and 192 MB at 512, 1024 and 2048 sites, under the 18.9, 58.7 and 201 MB
# this gives.
_PAIR_BYTES = 40
_BLOCK_SITE_BYTES = 64


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


def _position_block(
    spec: EnsembleSpec, start: int, stop: int, phase: np.ndarray | None
) -> np.ndarray:
    """Samples ``start <= i < stop`` in position space, shape ``(stop-start, *grid)``.

    Each row is multiplied by ``phase`` (an :func:`evolution_phase` array,
    or ``None`` for no evolution) and transformed with the unitary inverse
    DFT, as :func:`spectral_evolve` and :func:`to_position` do one field.
    """
    modes = _draw_phases(spec, start, stop)
    if phase is not None:
        modes *= phase
    return np.fft.ifftn(modes, axes=tuple(range(1, spec.lattice.dims + 1)), norm="ortho")


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


def _correlator_bytes(n_sites: int) -> int:
    """Peak bytes an ensemble of ``n_sites`` sites takes, estimated from measured peaks."""
    return _PAIR_BYTES * n_sites**2 + _BLOCK_SITE_BYTES * _BATCH_ROWS * n_sites


def _correlator_memory_problem(grid_points: tuple[int, ...]) -> str | None:
    """Why the dense correlator on ``grid_points`` cannot fit, or ``None``.

    The estimate (:func:`_correlator_bytes`) is compared with the machine's
    physical memory, which a run cannot exceed whatever else is running.
    """
    n_sites = math.prod(grid_points)
    needed = _correlator_bytes(n_sites)
    physical = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    if needed <= physical:
        return None
    return (
        f"the dense correlator of {n_sites} sites needs about {needed} bytes, "
        f"more than the {physical} bytes of physical memory"
    )


def ensemble_correlator(spec: EnsembleSpec, *, evolve_time: float = 0.0) -> CorrelatorEstimate:
    """Average ``conj(b(x)) b(y)`` over the ``spec.count`` vacua of the ensemble.

    Under the uniform-phase measure the prediction is the identity matrix.
    Each sample is optionally pushed through spectral evolution by
    ``evolve_time`` before transforming to position space; the estimate's
    distribution must not depend on that time, which must be finite.  Each
    block of samples is drawn, evolved and transformed as one array, row for
    row the same as :func:`spectral_evolve` and :func:`to_position` on each
    :func:`sample_vacuum`.  Each block is added by one BLAS product, in
    ascending sample order, so results are bitwise reproducible for a fixed
    numpy/BLAS build, whatever its thread count.  ``spec.count`` must be at
    least 100.  A lattice whose correlator cannot fit in physical memory
    raises :class:`CorrelatorMemoryError` before anything is allocated.
    """
    n_samples = spec.count
    if n_samples < 100:
        raise ValueError(f"correlator estimation needs >= 100 samples, got {n_samples}")
    problem = _correlator_memory_problem(spec.lattice.grid_points)
    if problem is not None:
        raise CorrelatorMemoryError(problem)
    n_sites = int(np.prod(spec.lattice.grid_points))
    phase = evolution_phase(spec.lattice, evolve_time) if evolve_time != 0.0 else None
    sum_w = np.zeros((n_sites, n_sites), dtype=complex)
    sum_sq = np.zeros((n_sites, n_sites), dtype=float)
    for start in range(0, n_samples, _BATCH_ROWS):
        stop = min(start + _BATCH_ROWS, n_samples)
        block = _position_block(spec, start, stop, phase).reshape(stop - start, n_sites)
        sum_w += block.conj().T @ block
        abs_sq = np.abs(block) ** 2
        sum_sq += abs_sq.T @ abs_sq
    # The estimate is formed in the two accumulators, with one float
    # temporary, by the same operations in the same order as
    # (sum_sq - n * |sum_w / n|**2) / (n - 1).
    mean = sum_w
    mean /= n_samples
    # E|w|^2 - |E w|^2 estimates Var(Re w) + Var(Im w) in one shot.
    mean_sq = np.abs(mean)
    np.square(mean_sq, out=mean_sq)
    mean_sq *= n_samples
    variance = sum_sq
    variance -= mean_sq
    del mean_sq
    variance /= n_samples - 1
    np.maximum(variance, 0.0, out=variance)
    zero_variance = variance == 0.0
    variance /= n_samples
    stderr = np.sqrt(variance, out=variance)
    return CorrelatorEstimate(
        mean=mean,
        stderr=stderr,
        count=n_samples,
        zero_variance=zero_variance,
    )
