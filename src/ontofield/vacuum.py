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

from dataclasses import dataclass
from pathlib import Path

import numpy as np

# The block path no longer calls spectral_evolve or to_position, but both stay
# attributes of this module: bench/spans.py wraps them here by name.
from ontofield.lattice import (  # noqa: F401
    ComplexField,
    MomentumLattice,
    evolution_phase,
    spectral_evolve,
    to_position,
)

__all__ = [
    "CorrelatorEstimate",
    "EnsembleSpec",
    "ensemble_correlator",
    "sample_vacuum",
]

_MASK64 = (1 << 64) - 1
_CSV_ROW = "%d,%d,%.17g,%.17g,%.17g\r\n"
_CSV_BLOCK_ROWS = 4096


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
    stream a fresh ``Philox(key=(seed, i))`` would, without building one.
    """
    grid = spec.lattice.grid_points
    seed = spec.seed & _MASK64
    bits = np.random.Philox(key=0)  # rekeyed below; key=0 skips OS entropy
    rng = np.random.Generator(bits)
    zeros = np.zeros(4, dtype=np.uint64)
    state = {
        "bit_generator": "Philox",
        "state": {"counter": zeros, "key": None},
        "buffer": zeros,
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    theta = np.empty((stop - start, *grid))
    for row, index in enumerate(range(start, stop)):
        state["state"]["key"] = np.array([seed, index], dtype=np.uint64)
        bits.state = state
        theta[row] = rng.uniform(0.0, 2.0 * np.pi, size=grid)
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
        mean, stderr = self.mean.ravel(), self.stderr.ravel()
        with Path(path).open("w", newline="") as fh:
            fh.write("x_index,y_index,re,im,stderr\r\n")
            for lo in range(0, n * n, _CSV_BLOCK_ROWS):
                hi = min(lo + _CSV_BLOCK_ROWS, n * n)
                pair = np.arange(lo, hi)
                rows = np.column_stack(
                    [pair // n, pair % n, mean[lo:hi].real, mean[lo:hi].imag, stderr[lo:hi]]
                )
                fh.write((_CSV_ROW * (hi - lo)) % tuple(rows.ravel().tolist()))


def ensemble_correlator(
    spec: EnsembleSpec,
    samples: int | None = None,
    *,
    evolve_time: float = 0.0,
    batch_size: int = 256,
) -> CorrelatorEstimate:
    """Average ``conj(b(x)) b(y)`` over independently drawn vacua.

    Under the uniform-phase measure the prediction is the identity matrix.
    Each sample is optionally pushed through spectral evolution by
    ``evolve_time`` before transforming to position space; the estimate's
    distribution must not depend on that time, which must be finite.  Each
    batch of ``batch_size`` samples is drawn, evolved and transformed as one
    array, row for row the same as :func:`spectral_evolve` and
    :func:`to_position` on each :func:`sample_vacuum`.
    Accumulation order is fixed (ascending sample index) so results are
    bitwise reproducible.
    """
    n_samples = spec.count if samples is None else int(samples)
    if n_samples < 100:
        raise ValueError(f"correlator estimation needs >= 100 samples, got {n_samples}")
    n_sites = int(np.prod(spec.lattice.grid_points))
    phase = evolution_phase(spec.lattice, evolve_time) if evolve_time != 0.0 else None
    sum_w = np.zeros((n_sites, n_sites), dtype=complex)
    sum_sq = np.zeros((n_sites, n_sites), dtype=float)
    for start in range(0, n_samples, batch_size):
        stop = min(start + batch_size, n_samples)
        block = _position_block(spec, start, stop, phase).reshape(stop - start, n_sites)
        sum_w += np.einsum("sx,sy->xy", block.conj(), block)
        abs_sq = np.abs(block) ** 2
        sum_sq += np.einsum("sx,sy->xy", abs_sq, abs_sq)
    mean = sum_w / n_samples
    # E|w|^2 - |E w|^2 estimates Var(Re w) + Var(Im w) in one shot.
    variance = (sum_sq - n_samples * np.abs(mean) ** 2) / (n_samples - 1)
    variance = np.maximum(variance, 0.0)
    stderr = np.sqrt(variance / n_samples)
    return CorrelatorEstimate(
        mean=mean,
        stderr=stderr,
        count=n_samples,
        zero_variance=variance == 0.0,
    )
