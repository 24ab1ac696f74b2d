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


def _as_tuple(value: float | int | Sequence, length_hint: int | None = None) -> tuple:
    if np.isscalar(value):
        return (value,) if length_hint is None else (value,) * length_hint
    return tuple(value)


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
        if not l > 0.0:
            raise ValueError(f"box lengths must be positive, got {lengths}")
    for n in points:
        if n < 2 or n % 2 != 0:
            raise ValueError(f"grid sizes must be even and >= 2, got {points}")
    if not mass >= 0.0:
        raise ValueError(f"mass must be nonnegative, got {mass!r}")
    if cutoff is not None and not cutoff > 0.0:
        raise ValueError(f"cutoff must be positive or None, got {cutoff!r}")
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


def _check_shape(field: ComplexField, lattice: MomentumLattice) -> None:
    if field.values.shape != lattice.grid_points:
        raise ValueError(
            f"field shape {field.values.shape} does not match lattice grid "
            f"{lattice.grid_points}"
        )


def to_momentum(field: ComplexField, lattice: MomentumLattice) -> ComplexField:
    """Unitary (symmetric-norm) DFT from position to momentum samples."""
    if field.space != "position":
        raise ValueError(f"expected a position-space field, got {field.space!r}")
    _check_shape(field, lattice)
    values = np.fft.fftn(field.values, norm="ortho")
    return ComplexField(space="momentum", values=values, time=field.time)


def to_position(field: ComplexField, lattice: MomentumLattice) -> ComplexField:
    """Unitary (symmetric-norm) DFT from momentum to position samples."""
    if field.space != "momentum":
        raise ValueError(f"expected a momentum-space field, got {field.space!r}")
    _check_shape(field, lattice)
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
    advances by ``t``.
    """
    if field.space != "momentum":
        raise ValueError(f"expected a momentum-space field, got {field.space!r}")
    _check_shape(field, lattice)
    phase = evolution_phase(lattice, t)
    return ComplexField(space="momentum", values=field.values * phase, time=field.time + t)


def save_field(field: ComplexField, lattice: MomentumLattice, path: str | Path) -> None:
    """Write position-space samples to CSV.

    The header row carries the geometry (dimension, grid sizes, box lengths),
    the mass, and the field time; the body is one ``re, im`` pair per site in
    row-major order.  Floats are written with 17 significant digits so a
    round trip is bit-exact.
    """
    if field.space != "position":
        raise ValueError("snapshots are stored in position space")
    _check_shape(field, lattice)
    flat = field.values.ravel(order="C")
    path = Path(path)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        header = (
            [lattice.dims]
            + [_FMT % n for n in lattice.grid_points]
            + [_FMT % l for l in lattice.box_lengths]
            + [_FMT % lattice.mass, _FMT % field.time]
        )
        writer.writerow(header)
        for v in flat:
            writer.writerow([_FMT % v.real, _FMT % v.imag])


def load_field(path: str | Path) -> tuple[ComplexField, MomentumLattice]:
    """Read a snapshot written by :func:`save_field`.

    The lattice is rebuilt from the stored geometry with no cutoff; reapply
    one via :func:`build_lattice` if needed.
    """
    path = Path(path)
    with path.open(newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise ValueError(f"{path} is empty")
    header = rows[0]
    dims = int(header[0])
    if not 1 <= dims <= 3 or len(header) != 2 * dims + 3:
        raise ValueError(f"malformed snapshot header in {path}: {header}")
    points = tuple(int(float(v)) for v in header[1 : 1 + dims])
    lengths = tuple(float(v) for v in header[1 + dims : 1 + 2 * dims])
    mass = float(header[1 + 2 * dims])
    time = float(header[2 + 2 * dims])
    body = rows[1:]
    expected = int(np.prod(points))
    if len(body) != expected:
        raise ValueError(f"snapshot body has {len(body)} rows, expected {expected}")
    values = np.array(
        [complex(float(r), float(i)) for r, i in body], dtype=complex
    ).reshape(points)
    lattice = build_lattice(lengths, points, mass)
    return ComplexField(space="position", values=values, time=time), lattice
