"""Periodic momentum lattice and exact spectral evolution of complex fields.

Fields live on a periodic box of 1 to 3 dimensions.  In momentum space every
mode evolves independently by the phase ``exp(-1j * omega(k) * t)`` with
``omega(k) = sqrt(k.k + M^2)``, so time evolution is exact up to roundoff and
the only discretization is the mode content of the box itself.  An optional
radial cutoff freezes (or zeroes) modes above ``|k| = cutoff``.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

__all__ = [
    "ComplexField",
    "MomentumLattice",
    "build_lattice",
    "evolution_phase",
    "load_field",
    "position_axes",
    "save_field",
    "spectral_evolve",
    "to_momentum",
    "to_position",
]

_FMT = "%.17g"
_FIELD_ROW = "%.17g,%.17g\r\n"
_CSV_BLOCK_ROWS = 4096


@dataclass(frozen=True)
class MomentumLattice:
    """Mode bookkeeping for a periodic box.

    ``k_axes`` holds the signed wavenumbers per axis in FFT order,
    ``omega`` the dispersion ``sqrt(k.k + mass^2)`` on the full grid, and
    ``excluded`` marks modes beyond the radial cutoff.  ``cutoff_mode``
    decides what spectral evolution does with excluded modes: ``"freeze"``
    leaves them untouched, ``"zero"`` projects them out.
    """

    box_lengths: tuple[float, ...]
    grid_points: tuple[int, ...]
    mass: float
    cutoff: float | None
    cutoff_mode: str
    k_axes: tuple[np.ndarray, ...]
    omega: np.ndarray
    excluded: np.ndarray

    @property
    def dims(self) -> int:
        return len(self.grid_points)

    @property
    def spacings(self) -> tuple[float, ...]:
        return tuple(l / n for l, n in zip(self.box_lengths, self.grid_points))

    @property
    def cell_volume(self) -> float:
        return float(np.prod(self.spacings))


@dataclass(frozen=True)
class ComplexField:
    """Complex field samples in one of the two conjugate bases.

    ``space`` is ``"position"`` or ``"momentum"`` and ``time`` the instant
    the samples refer to.
    """

    space: str
    values: np.ndarray
    time: float = 0.0

    def __post_init__(self) -> None:
        if self.space not in ("position", "momentum"):
            raise ValueError(f"space must be 'position' or 'momentum', got {self.space!r}")


def _as_tuple(value: float | int | Sequence) -> tuple:
    return (value,) if np.isscalar(value) else tuple(value)


def build_lattice(
    box_lengths: float | Sequence[float],
    grid_points: int | Sequence[int],
    mass: float,
    cutoff: float | None = None,
    cutoff_mode: str = "freeze",
) -> MomentumLattice:
    """Assemble the mode grid for a periodic box.

    Scalars are accepted for one-dimensional boxes.  Grid sizes must be even
    so the mode set is the symmetric window ``m in [-n/2, n/2)`` per axis,
    with ``k = 2*pi*m / L``.
    """
    lengths = tuple(float(l) for l in _as_tuple(box_lengths))
    points = tuple(int(n) for n in _as_tuple(grid_points))
    if len(lengths) != len(points):
        raise ValueError(
            f"box_lengths and grid_points disagree on dimension: {lengths} vs {points}"
        )
    dims = len(points)
    if not 1 <= dims <= 3:
        raise ValueError(f"dimension must be 1, 2, or 3, got {dims}")
    for l in lengths:
        if not 0.0 < l < np.inf:
            raise ValueError(f"box lengths must be positive and finite, got {lengths}")
    for n in points:
        if n < 2 or n % 2 != 0:
            raise ValueError(f"grid sizes must be even and >= 2, got {points}")
    if not 0.0 <= mass < np.inf:
        raise ValueError(f"mass must be nonnegative and finite, got {mass!r}")
    if cutoff is not None and not 0.0 < cutoff < np.inf:
        raise ValueError(f"cutoff must be positive and finite, or None, got {cutoff!r}")
    if cutoff_mode not in ("freeze", "zero"):
        raise ValueError(f"cutoff_mode must be 'freeze' or 'zero', got {cutoff_mode!r}")

    k_axes = tuple(
        2.0 * np.pi * np.fft.fftfreq(n, d=l / n) for l, n in zip(lengths, points)
    )
    k_sq = np.zeros(points)
    for axis, k in enumerate(k_axes):
        shape = [1] * dims
        shape[axis] = points[axis]
        k_sq = k_sq + (k.reshape(shape)) ** 2
    omega = np.sqrt(k_sq + mass**2)
    if cutoff is None:
        excluded = np.zeros(points, dtype=bool)
    else:
        excluded = np.sqrt(k_sq) > cutoff
    return MomentumLattice(
        box_lengths=lengths,
        grid_points=points,
        mass=float(mass),
        cutoff=None if cutoff is None else float(cutoff),
        cutoff_mode=cutoff_mode,
        k_axes=k_axes,
        omega=omega,
        excluded=excluded,
    )


def position_axes(lattice: MomentumLattice) -> tuple[np.ndarray, ...]:
    """Sample points ``x_j = j * L / n`` per axis."""
    return tuple(
        np.arange(n) * (l / n) for l, n in zip(lattice.box_lengths, lattice.grid_points)
    )


def _require(field: ComplexField, lattice: MomentumLattice, space: str) -> None:
    """Reject anything but a ``space``-space field on ``lattice``'s grid."""
    if field.space != space:
        raise ValueError(f"expected a {space}-space field, got {field.space!r}")
    if field.values.shape != lattice.grid_points:
        raise ValueError(
            f"field shape {field.values.shape} does not match lattice grid "
            f"{lattice.grid_points}"
        )


def _require_finite(field: ComplexField, name: str) -> None:
    """Reject a field with a NaN or infinite value, which no evolution recovers from.

    Kept apart from :func:`_require` because :func:`save_field` writes NaN.
    """
    if not np.all(np.isfinite(field.values)):
        raise ValueError(f"{name} must be finite, got a NaN or infinite value")


def to_momentum(field: ComplexField, lattice: MomentumLattice) -> ComplexField:
    """Unitary (symmetric-norm) DFT from position to momentum samples."""
    _require(field, lattice, "position")
    values = np.fft.fftn(field.values, norm="ortho")
    return ComplexField(space="momentum", values=values, time=field.time)


def to_position(field: ComplexField, lattice: MomentumLattice) -> ComplexField:
    """Unitary (symmetric-norm) DFT from momentum to position samples."""
    _require(field, lattice, "momentum")
    values = np.fft.ifftn(field.values, norm="ortho")
    return ComplexField(space="position", values=values, time=field.time)


def evolution_phase(lattice: MomentumLattice, t: float) -> np.ndarray:
    """Per-mode multiplier ``exp(-1j * omega * t)`` with the cutoff applied.

    Frozen modes get multiplier 1, zeroed modes 0, so any evolution built on
    this array treats the cutoff identically.  A non-finite ``t`` is
    rejected rather than turned into a field of NaNs.
    """
    if not np.isfinite(t):
        raise ValueError(f"evolution time must be finite, got {t!r}")
    phase = np.exp(-1j * lattice.omega * t)
    if lattice.cutoff is not None:
        if lattice.cutoff_mode == "freeze":
            phase = np.where(lattice.excluded, 1.0 + 0.0j, phase)
        else:
            phase = np.where(lattice.excluded, 0.0 + 0.0j, phase)
    return phase


def spectral_evolve(field: ComplexField, lattice: MomentumLattice, t: float) -> ComplexField:
    """Advance momentum samples by the exact per-mode phase.

    Modes beyond the cutoff follow ``cutoff_mode``: frozen modes keep their
    amplitude unchanged, zeroed modes are removed.  The field's clock
    advances by ``t``.  A NaN or infinite mode is rejected.
    """
    _require(field, lattice, "momentum")
    _require_finite(field, "field")
    phase = evolution_phase(lattice, t)
    return ComplexField(space="momentum", values=field.values * phase, time=field.time + t)


def _write_csv(path: str | Path, header: Sequence, row_format: str, table: np.ndarray) -> None:
    """Write one CSV artifact: the ``header`` row, then each row of ``table``.

    Every CSV file the package writes goes through here.  ``header`` goes
    through ``csv.writer`` (CRLF line ends).  ``row_format`` holds one
    conversion per column of the ``(rows, cols)`` array ``table``, any
    constant fields, and its own CRLF.  One ``%`` over the template
    repeated for a block of rows gives the bytes a per-row ``%`` would.
    """
    with Path(path).open("w", newline="") as fh:
        csv.writer(fh).writerow(header)
        for lo in range(0, len(table), _CSV_BLOCK_ROWS):
            block = table[lo : lo + _CSV_BLOCK_ROWS]
            fh.write((row_format * len(block)) % tuple(block.ravel().tolist()))


def save_field(field: ComplexField, lattice: MomentumLattice, path: str | Path) -> None:
    """Write position-space samples to CSV.

    The header row carries the geometry (dimension, grid sizes, box lengths),
    the mass, and the field time; the body is one ``re,im`` pair per site in
    row-major order.  Every float is written as ``%.17g`` (17 significant
    digits, so ``nan``, ``inf`` and ``-0`` spell out as such) and every line
    ends in CRLF, as the ``csv`` module's default dialect writes it.  A
    correctly rounded parser, such as :func:`load_field`'s, reads each value
    back bit for bit.
    """
    _require(field, lattice, "position")
    header = (
        [lattice.dims]
        + [_FMT % n for n in lattice.grid_points]
        + [_FMT % l for l in lattice.box_lengths]
        + [_FMT % lattice.mass, _FMT % field.time]
    )
    # Interleaved (re, im) float64 pairs, in C order; a view for complex128 input.
    pairs = np.ascontiguousarray(field.values, dtype=complex).view(np.float64).reshape(-1, 2)
    _write_csv(path, header, _FIELD_ROW, pairs)


def load_field(path: str | Path) -> tuple[ComplexField, MomentumLattice]:
    """Read a snapshot written by :func:`save_field`.

    The header line is parsed with the ``csv`` module and the body in one
    ``np.loadtxt`` pass, whose float parser is correctly rounded, so every
    17-digit value (``nan`` and ``inf`` included) comes back bit for bit.
    A missing, extra or malformed body row raises ``ValueError``; blank
    lines after the first body row are skipped.  The lattice is rebuilt from
    the stored geometry with no cutoff; reapply one via :func:`build_lattice`
    if needed.
    """
    path = Path(path)
    with path.open(newline="") as fh:
        line = fh.readline()
        if not line:
            raise ValueError(f"{path} is empty")
        header = next(csv.reader([line]))
        dims = int(header[0]) if header else 0
        if not 1 <= dims <= 3 or len(header) != 2 * dims + 3:
            raise ValueError(f"malformed snapshot header in {path}: {header}")
        points = tuple(int(float(v)) for v in header[1 : 1 + dims])
        lengths = tuple(float(v) for v in header[1 + dims : 1 + 2 * dims])
        mass = float(header[1 + 2 * dims])
        time = float(header[2 + 2 * dims])
        expected = int(np.prod(points))
        # np.loadtxt only warns on a body without data; reject that here.
        body_start = fh.tell()
        if not fh.readline().strip():
            raise ValueError(f"snapshot body has 0 rows, expected {expected}")
        fh.seek(body_start)
        body = np.loadtxt(fh, delimiter=",", dtype=np.float64, comments=None, ndmin=2)
    if body.shape != (expected, 2):
        raise ValueError(
            f"snapshot body has {body.shape[0]} rows of {body.shape[1]} fields, "
            f"expected {expected} rows of 2"
        )
    # A view keeps each (re, im) pair's bits; re + 1j*im would turn inf into nan.
    values = body.view(complex).reshape(points)
    lattice = build_lattice(lengths, points, mass)
    return ComplexField(space="position", values=values, time=time), lattice
