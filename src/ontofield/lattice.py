"""Periodic momentum lattice and exact spectral evolution of complex fields.

Fields live on a periodic box of 1 to 3 dimensions.  In momentum space every
mode evolves independently by the phase ``exp(-1j * omega(k) * t)`` with
``omega(k) = sqrt(k.k + M^2)``, so time evolution is exact up to roundoff and
the only discretization is the mode content of the box itself.  An optional
radial cutoff freezes the modes above ``|k| = cutoff``.
"""

from __future__ import annotations

import functools
import io
import math
import os
from dataclasses import dataclass
from pathlib import Path
from typing import BinaryIO, Sequence

import numpy as np

from ontofield._rules import (
    Problems, as_tuple, finite, is_integer, is_real, nonnegative_finite, nullable, one_of, per_axis, positive_finite,
    problems, refuse,
)

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
_CSV_BLOCK_ROWS = 4096
# Tiles shorter than this keep the ``%`` template.  The array route costs
# about 0.4 ms per tile even when short, and overtook the template between
# 320 and 384 rows for the field rows and by 320 rows for the correlator and
# kernel rows.
_VECTOR_MIN_ROWS = 384
_G17_SLOTS = 29  # the layout of one "%.17g" cell is in _g17_cells
_POW10_SPAN = 360
_SPLIT = 134217729.0  # 2**27 + 1, Veltkamp's splitter
# Snapshot bodies of this many rows or more are parsed by array operations
# (_read_body).  The two routes tied between 512 and 1024 rows of N(0, 1)
# values; np.loadtxt is faster on shorter bodies.
_ARRAY_MIN_ROWS = 1024
_READ_CHUNK = 1 << 18  # bytes per read of the array route
_READ_PAD = 32  # zero bytes ahead of each read: a cell's gathers reach 24 bytes back
_CELL_SLOTS = 24  # mantissa bytes the array route reads per cell, as three uint64 words
_ROW_BYTES = 64  # more than the longest row of the array route's grammar


@dataclass(frozen=True)
class MomentumLattice:
    """Mode bookkeeping for a periodic box.

    ``k_axes`` holds the signed wavenumbers per axis in FFT order,
    ``omega`` the dispersion ``sqrt(k.k + mass^2)`` on the full grid, and
    ``excluded`` marks modes beyond the radial cutoff, which spectral
    evolution leaves untouched.
    """

    box_lengths: tuple[float, ...]
    grid_points: tuple[int, ...]
    mass: float
    cutoff: float | None
    k_axes: tuple[np.ndarray, ...]
    omega: np.ndarray
    excluded: np.ndarray

    @property
    def dims(self) -> int:
        return len(self.grid_points)

    @property
    def spacings(self) -> tuple[float, ...]:
        return _spacings(self.box_lengths, self.grid_points)

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
        refuse(problems(_RULES, space=self.space))


def _points_problem(grid_points: int | Sequence[int]) -> str | None:
    points = as_tuple(grid_points)
    if not (1 <= len(points) <= 3 and all(is_integer(n) and n >= 2 and n % 2 == 0 for n in points)):
        return f"must be 1 to 3 even integers >= 2, got {points}"
    # numpy indexes an array by intp, so no array holds more sites.
    if math.prod(int(n) for n in points) > np.iinfo(np.intp).max:
        return f"must have at most {np.iinfo(np.intp).max} sites, got {points}"
    return None


_RULES = {
    "box_lengths": per_axis(positive_finite),
    "grid_points": _points_problem,
    # The dispersion sqrt(k.k + mass^2) squares the mass.
    "mass": lambda mass: nonnegative_finite(mass)
    or (None if is_real(float(mass) * float(mass)) else f"must have a square that does not overflow, got {mass!r}"),
    "cutoff": nullable(positive_finite),
    "space": one_of("position", "momentum"),
    "t": finite,
}


def _spacings(box_lengths, grid_points) -> tuple[float, ...]:
    """The spacings ``L / n`` per axis, of box lengths and grid sizes that passed their rules."""
    return tuple(float(l) / int(n) for l, n in zip(as_tuple(box_lengths), as_tuple(grid_points)))


def _lattice_problems(box_lengths, grid_points, mass: float, cutoff: float | None = None) -> Problems:
    """Every ``(argument, message)`` reason :func:`build_lattice` refuses its arguments; builds no mode grid.

    The box must give spacings whose squares are positive and finite (the
    stencils divide by them) and a finite top frequency ``sqrt(sum_a (pi /
    dx_a)**2 + M**2)``, which a subnormal ``dx**2`` does not ensure.
    """
    found = problems(_RULES, box_lengths=box_lengths, grid_points=grid_points, mass=mass, cutoff=cutoff)
    if found:
        return found
    lengths, points = as_tuple(box_lengths), as_tuple(grid_points)
    if len(lengths) != len(points):
        return [("grid_points", f"must have one entry per box length, got {points}")]
    spacings = _spacings(lengths, points)
    if any(positive_finite(dx * dx) for dx in spacings):
        return [("box_lengths", f"must give spacings with positive finite squares, got spacings {list(spacings)}")]
    omega_max = math.sqrt(sum((math.pi / dx) * (math.pi / dx) for dx in spacings) + float(mass) * float(mass))
    if not is_real(omega_max):
        return [("box_lengths", f"must give a finite top frequency, got {omega_max}")]
    return []


def build_lattice(
    box_lengths: float | Sequence[float],
    grid_points: int | Sequence[int],
    mass: float,
    cutoff: float | None = None,
) -> MomentumLattice:
    """Assemble the mode grid for a periodic box.

    Scalars are accepted for one-dimensional boxes.  Grid sizes must be even
    integers so the mode set is the symmetric window ``m in [-n/2, n/2)`` per
    axis, with ``k = 2*pi*m / L``.
    """
    refuse(_lattice_problems(box_lengths, grid_points, mass, cutoff))
    return _assemble(box_lengths, grid_points, mass, cutoff)


def _assemble(box_lengths, grid_points, mass: float, cutoff: float | None) -> MomentumLattice:
    """The mode grid of arguments that passed :func:`_lattice_problems`; checks nothing again."""
    lengths = tuple(float(l) for l in as_tuple(box_lengths))
    points = tuple(int(n) for n in as_tuple(grid_points))
    dims = len(points)

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
        k_axes=k_axes,
        omega=omega,
        excluded=excluded,
    )


def position_axes(lattice: MomentumLattice) -> tuple[np.ndarray, ...]:
    """Sample points ``x_j = j * L / n`` per axis."""
    return tuple(
        np.arange(n) * (l / n) for l, n in zip(lattice.box_lengths, lattice.grid_points)
    )


def _require(field: ComplexField, lattice: MomentumLattice, space: str, stack: bool = False) -> None:
    """Reject anything but a ``space``-space field on ``lattice``'s grid, or with ``stack`` a stack of them on its trailing axes."""
    if field.space != space:
        raise ValueError(f"expected a {space}-space field, got {field.space!r}")
    shape = field.values.shape
    if (shape[-lattice.dims:] if stack else shape) != lattice.grid_points:
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


def to_position(field: ComplexField, lattice: MomentumLattice, *, out: np.ndarray | None = None) -> ComplexField:
    """Unitary (symmetric-norm) DFT from momentum to position samples.

    The values may be a stack of fields, the grid on their trailing axes:
    each is transformed as it would be alone.  ``out``, a complex array of
    the values' shape, receives the samples instead of a new array, with the
    same bits; it may be the values themselves, which are then transformed
    in place.
    """
    _require(field, lattice, "momentum", stack=True)
    values = np.fft.ifftn(field.values, axes=tuple(range(-lattice.dims, 0)), norm="ortho", out=out)
    return ComplexField(space="position", values=values, time=field.time)


def evolution_phase(lattice: MomentumLattice, t: float) -> np.ndarray:
    """Per-mode multiplier ``exp(-1j * omega * t)`` with the cutoff applied.

    Frozen modes get multiplier 1, so any evolution built on this array
    treats the cutoff identically.  A non-finite ``t`` is rejected rather
    than turned into a field of NaNs.
    """
    refuse(problems(_RULES, t=t))
    phase = np.exp(-1j * lattice.omega * t)
    if lattice.cutoff is not None:
        phase = np.where(lattice.excluded, 1.0 + 0.0j, phase)
    return phase


def spectral_evolve(
    field: ComplexField, lattice: MomentumLattice, t: float, *, out: np.ndarray | None = None,
) -> ComplexField:
    """Advance momentum samples by the exact per-mode phase.

    Modes beyond the cutoff keep their amplitude unchanged.  The field's
    clock advances by ``t``.  A NaN or infinite mode is rejected.  The
    values may be a stack of fields, as :func:`to_position` takes.
    ``out``, a complex array of the values' shape, receives the evolved
    values instead of a new array, with the same bits.
    """
    _require(field, lattice, "momentum", stack=True)
    _require_finite(field, "field")
    phase = evolution_phase(lattice, t)
    return ComplexField(space="momentum", values=np.multiply(field.values, phase, out=out), time=field.time + t)


def _workspace(*layout: tuple[tuple[int, ...], type]) -> list[np.ndarray]:
    """Unset C-contiguous arrays of the ``(shape, dtype)`` pairs in ``layout``, views of one allocation.

    Each starts on a 64-byte boundary.  numpy's buffers start wherever
    malloc puts them, 16-byte aligned, and a stencil call whose output does
    not start 32-byte aligned runs slower: ``np.add`` of two 32768-value
    float64 arrays took 8.4-8.8 us with the output at offsets 0 or 32 modulo
    64 and 10.1-10.6 us at 16 or 48 (numpy 2.4.6, AVX-512, 2 vCPU shared
    host).  Without this, a 32^3 leapfrog's speed moved by about 10% with
    where its buffers landed.

    One allocation of several MB is a mapping of its own, not heap, so the
    heap is left as it was for the allocations after it, and numpy asks the
    kernel for transparent huge pages for it (the 5.5 MB ``scaled3d`` vacuum
    workspace got one 2 MB page and took 902 faults to fill).  Per
    ``scaled3d`` vacuum op, after a warm-up pass, 8 fresh processes took
    195-1090 minor faults with one allocation, against 3.1k-4.1k with one
    per array, and 28.4k in 2 of those 8 (numpy 2.4.6, glibc 2.36).
    """
    sizes = [math.prod(shape) * np.dtype(dtype).itemsize for shape, dtype in layout]
    starts = np.cumsum([0] + [-(-size // 64) * 64 for size in sizes]).tolist()
    raw = np.empty(starts[-1] + 64, dtype=np.uint8)
    raw = raw[-raw.ctypes.data % 64 :]
    return [raw[lo : lo + size].view(dtype).reshape(shape) for (shape, dtype), lo, size in zip(layout, starts, sizes)]


def _read_only(*tables: np.ndarray) -> tuple[np.ndarray, ...]:
    """``tables``, locked: a cached table is shared by every caller."""
    for table in tables:
        table.flags.writeable = False
    return tables


@functools.cache
def _pow10_table() -> tuple[np.ndarray, np.ndarray]:
    """``10**s = (hi + lo) * 2**b`` for ``|s| <= 360``: rows ``hi``, hi's halves and ``lo``, and ``b``.

    Each entry is the 128-bit rounding of ``10**s * 2**-b``, cut into two
    doubles, so ``hi + lo`` is within ``2**-106`` of it, relatively.  Built
    with integer shifts on first use.  One row per part and int32 shifts
    are the layout the gathers and ``np.ldexp`` are fastest on.
    """
    rows = []
    for s in range(-_POW10_SPAN, _POW10_SPAN + 1):
        if s >= 0:
            power = 10**s
            b = power.bit_length() - 1
            if b <= 127:
                bits = power << (127 - b)
            else:
                bits = (power + (1 << (b - 128))) >> (b - 127)
        else:
            power = 10**-s
            b = -power.bit_length()
            bits = ((1 << (127 - b)) + power // 2) // power
        hi = float(bits)
        rows.append((math.ldexp(hi, -127), math.ldexp(float(bits - int(hi)), -127), b))
    hi, lo, b = (np.array(col) for col in zip(*rows))
    hi_hi = hi * _SPLIT - (hi * _SPLIT - hi)
    return _read_only(np.stack([hi, hi_hi, hi - hi_hi, lo]), b.astype(np.int32))


def _two_product(m: np.ndarray, hi: np.ndarray, hi_hi: np.ndarray, hi_lo: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Dekker's two-product: ``m * hi == p + err`` exactly, given ``hi``'s Veltkamp halves."""
    p = m * hi
    m_hi = m * _SPLIT
    m_hi = m_hi - (m_hi - m)
    m_lo = m - m_hi
    return p, ((m_hi * hi_hi - p) + m_hi * hi_lo + m_lo * hi_hi) + m_lo * hi_lo


@functools.cache
def _digit_groups() -> tuple[np.ndarray, np.ndarray]:
    """Per group ``g`` in 0..9999: its four ASCII digits as one uint32, and the
    place (1 to 4) of its last nonzero digit, or -99 for ``g == 0``."""
    digits = np.arange(10000)[:, None] // np.array([1000, 100, 10, 1]) % 10
    places = np.where(digits > 0, np.arange(1, 5), -99).max(axis=1)
    return _read_only((digits + ord("0")).astype(np.uint8).view(np.uint32).ravel(), places.astype(np.int8))


def _g17_cells(x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Write ``"%.17g" % v`` for each ``v`` of ``x`` into the slots ``out[:, i]``.

    ``out`` is ``(_G17_SLOTS, len(x))`` uint8: slot 0 holds the sign, 1-5
    the ``0.000`` of ``-4 <= X < 0``, 6-23 the 17 digits with the point
    among them, and 24-28 ``e``, the exponent's sign and three digits.  A
    slot the cell does not use holds NUL.  A value whose digits the array
    route cannot certify is written by ``%`` on its own; their indices are
    returned.
    """
    n = len(x)
    neg = np.signbit(x)
    a = np.abs(x)
    zero = a == 0.0
    usable = np.isfinite(a) & ~zero
    a[~usable] = 1.0
    m, e = np.frexp(a)
    # A first guess at the decimal exponent; a wrong one fails the range check.
    exp10 = np.floor(np.log10(a)).astype(np.int64)
    row = 16 + _POW10_SPAN - exp10
    scale, shift = _pow10_table()
    hi, hi_hi, hi_lo, lo = np.take(scale, row, axis=1)
    b = np.take(shift, row)
    p, err = _two_product(m, hi, hi_hi, hi_lo)
    e += b
    y_lo = np.ldexp(err + m * lo, e)
    whole = np.floor(y_lo)
    frac = y_lo - whole
    y_int = np.ldexp(p, e).astype(np.int64) + whole.astype(np.int64)
    # For 0 <= 16 - X <= 22, 10**(16 - X) is a double and y is exact, ties included.
    exact = lo == 0.0
    digits = y_int + ((frac > 0.5) | ((frac == 0.5) & exact & ((y_int & 1) == 1)))
    inexact_ok = (np.abs(frac - 0.5) > 1e-6) & (digits > 10**16)
    usable &= (digits < 10**17) & np.where(exact, y_int >= 10**16, inexact_ok)
    digits[~usable] = 0
    exp10[~usable] = 0

    # Digits split by floor division and a multiply-subtract, which numpy
    # runs about three times faster than np.divmod.
    text, places = _digit_groups()
    lead = digits // 10**16
    rest = digits - lead * 10**16
    halves = np.empty((2, n), dtype=np.int64)
    np.floor_divide(rest, 10**8, out=halves[0])
    np.subtract(rest, halves[0] * 10**8, out=halves[1])
    groups = np.empty((4, n), dtype=np.int64)
    np.floor_divide(halves, 10**4, out=groups[0::2])
    np.subtract(halves, groups[0::2] * 10**4, out=groups[1::2])
    digit = np.empty((18, n), dtype=np.uint8)
    digit[0] = lead + ord("0")
    digit[1:17] = np.take(text, groups).view(np.uint8).reshape(4, n, 4).transpose(0, 2, 1).reshape(16, n)
    digit[17] = 0
    # The last digit %g keeps: its last nonzero one, or the units digit.
    last = (np.take(places, groups) + np.array([[0], [4], [8], [12]], dtype=np.int8)).max(axis=0)
    fixed = (exp10 >= -4) & (exp10 < 17)
    lead_zeros = fixed & (exp10 < 0)
    units = np.where(fixed & ~lead_zeros, exp10, 0).astype(np.int8)
    place = np.arange(18, dtype=np.int8)[:, None]
    digit *= place <= np.maximum(last, units)
    # The point goes after the units digit when a digit is kept after it;
    # the digits right of it move one slot along.
    point = np.where(lead_zeros | (last <= units), np.int8(17), units) + np.int8(1)
    cells = out[6:24]
    cells[0] = digit[0]
    np.multiply(digit[1:], place[1:] < point, out=cells[1:])
    cells[1:] += digit[:-1] * (place[1:] > point)
    cells[1:] += np.uint8(ord(".")) * (place[1:] == point)

    np.multiply(neg, np.uint8(ord("-")), out=out[0])
    shown = lead_zeros & (exp10 < np.array([[0], [0], [-1], [-2], [-3]]))
    np.multiply(shown, np.frombuffer(b"0.000", dtype=np.uint8)[:, None], out=out[1:6])
    # The exponent is spelled only for the cells that show one: |X| >= 5,
    # so its tens and units digits are always shown.
    out[24:29] = 0
    science = np.flatnonzero(~fixed)
    if len(science):
        power = exp10[science]
        size = np.abs(power)
        hundreds = size // 100
        tens = size // 10
        spelled = np.empty((5, len(science)), dtype=np.uint8)
        spelled[0] = ord("e")
        spelled[1] = np.where(power < 0, ord("-"), ord("+"))
        spelled[2] = (hundreds + ord("0")) * (hundreds > 0)
        spelled[3] = tens - hundreds * 10 + ord("0")
        spelled[4] = size - tens * 10 + ord("0")
        out[24:29, science] = spelled

    fallback = np.flatnonzero(~(usable | zero))
    for i in fallback.tolist():
        cell = np.frombuffer((_FMT % float(x[i])).encode(), dtype=np.uint8)
        out[:, i] = 0
        out[: len(cell), i] = cell
    return fallback


def _int_width(v: np.ndarray) -> int:
    """Slots of the widest ``"%d" % n`` in ``v``: a sign and the digits."""
    return 1 + len(str(max(abs(int(v.max())), abs(int(v.min())))))


def _int_cells(v: np.ndarray, out: np.ndarray) -> None:
    """Write ``"%d" % n`` for each integer ``n`` of ``v`` into NUL-padded slots ``out[:, i]``."""
    size = np.abs(v.astype(np.int64)).astype(np.uint64) if v.dtype.kind == "i" else v.astype(np.uint64)
    np.multiply(v < 0, np.uint8(ord("-")), out=out[0])
    for slot in range(len(out) - 1, 0, -1):
        rest = size // np.uint64(10)
        size, digit = rest, size - rest * np.uint64(10)
        # A leading zero is dropped: every digit left of it is zero too.
        shown = (digit > 0) | (size > 0) | (slot == len(out) - 1)
        np.multiply(shown, digit + np.uint64(ord("0")), out=out[slot], casting="unsafe")


def _format_rows(pieces: list[str], columns: Sequence[np.ndarray]) -> bytes:
    """The bytes of the ``%`` row template ``pieces`` spell, for each row, by array operations.

    ``pieces`` alternates literal text and conversions, ``%d`` or
    ``%.17g``, one per array of ``columns``.  The rows are laid out
    slot-major, one matrix row per slot and NUL where a cell is shorter than
    its slots.  All ``%.17g`` columns are spelled by one :func:`_g17_cells`
    call on their concatenation, and each column's block is copied into
    place.  One transposing ``tobytes`` puts the bytes in file order and
    ``bytes.translate`` drops the NULs.
    """
    n = len(columns[0])
    floats = [columns[index // 2] for index, piece in enumerate(pieces) if piece == _FMT and index % 2]
    spelled = np.empty((_G17_SLOTS, n * len(floats)), dtype=np.uint8)
    if floats:
        _g17_cells(np.concatenate(floats), spelled)
    spans = []
    for index, piece in enumerate(pieces):
        if index % 2 == 0:
            spans.append(len(piece.encode()))
        elif piece == "%d":
            spans.append(_int_width(columns[index // 2]))
        else:
            spans.append(_G17_SLOTS)
    slots = np.empty((sum(spans), n), dtype=np.uint8)
    lo, done = 0, 0
    for index, (piece, span) in enumerate(zip(pieces, spans)):
        block = slots[lo : lo + span]
        lo += span
        if index % 2 == 0:
            block[...] = np.frombuffer(piece.encode(), dtype=np.uint8)[:, None]
        elif piece == "%d":
            _int_cells(columns[index // 2], block)
        else:
            block[...] = spelled[:, done : done + n]
            done += n
    return slots.T.tobytes().translate(None, b"\0")


def _cell(value: object) -> str:
    """The text of a cell that is the same on every row: empty for None, a str as it is, ``%.17g`` for a number."""
    if value is None:
        return ""
    return value if isinstance(value, str) else _FMT % value


def _write_csv(path: str | Path, header: Sequence, columns: Sequence) -> None:
    """Write one CSV artifact: the ``header`` row, then one row per entry of the array columns.

    Every CSV file the package writes goes through here, and only here are
    its cells spelled.  Each entry of ``columns`` is a 1-D integer ndarray,
    written ``%d``; any other 1-D ndarray, written ``%.17g`` of its float64
    values; or a constant field, the same on every row, which is written as
    :func:`_cell` spells it, as are the ``header`` cells.  Cells are joined
    by commas and rows end in CRLF, as the ``csv`` module's default dialect
    writes them.  The rows are written in tiles of ``_CSV_BLOCK_ROWS`` to a
    binary handle, and every tile gives the bytes the row's ``%`` template
    gives row by row, encoded as UTF-8.

    A tile shorter than ``_VECTOR_MIN_ROWS`` is one ``%`` over the template
    repeated, which is faster there.  A longer one is formatted by array
    operations (:func:`_format_rows`): one digit pass spells every ``%.17g``
    cell of the tile, ``%d`` cells are spelled column by column, and the
    NUL-padded slots become the tile's bytes by one transposing ``tobytes``
    and ``bytes.translate``.  The digits follow Loitsch's certified fast path
    (PLDI 2010).  For each finite nonzero ``x`` with decimal exponent ``X``,
    the 17 digits are ``D = round_half_even(y)``, ``y = |x| * 10**(16 - X)``:

    - ``|x| = m * 2**e`` (``np.frexp``) is multiplied by a double-double
      ``hi + lo = 10**(16 - X) * 2**-b`` through Dekker's exact
      two-product, giving ``y = y_hi + y_lo``.  ``y_hi`` is above ``2**53``
      and so an integer.  ``np.log10`` gives the first guess at ``X``.
    - For ``0 <= 16 - X <= 22`` the power of ten is a double (``lo == 0``),
      so ``y`` is exact and ties round half to even.  The value is certified
      when ``10**16 <= floor(y)`` and ``D < 10**17``, which pins ``X``.
    - Otherwise ``y`` is off by less than ``2**-46``: the table is good to
      ``2**-106`` relatively, the low-part product and sum add ``2**-105``,
      and ``y < 10**17 < 2**57``.  The value is certified when the fraction
      of ``y`` is more than ``1e-6`` from one half, so the rounding cannot
      flip, and ``10**16 < D < 10**17``.
    - Zeros are spelled directly.  Every other value (NaN, infinities, a
      near-tie of an inexact power, a wrong guess at ``X``) is written by
      ``"%.17g" % x`` on its own.

    The digits come from correctly rounded IEEE operations, and a wrong
    exponent guess only sends a value to ``%``, so the text does not depend
    on numpy's SIMD dispatch level.  Raises ``ValueError`` when no column is
    an array, or the arrays are not 1-D and of one length.
    """
    # pieces alternates literal text and one conversion per array.
    pieces, arrays = [""], []
    for index, column in enumerate(columns):
        if index:
            pieces[-1] += ","
        if isinstance(column, np.ndarray):
            integer = column.dtype.kind in "iu"
            pieces += ["%d" if integer else _FMT, ""]
            arrays.append(column if integer else column.astype(np.float64, copy=False))
        else:
            pieces[-1] += _cell(column)
    pieces[-1] += "\r\n"
    if not arrays or any(c.ndim != 1 for c in arrays) or len({len(c) for c in arrays}) > 1:
        raise ValueError("CSV columns need at least one array, and every array 1-D and of one length")
    template = "".join(piece if index % 2 else piece.replace("%", "%%") for index, piece in enumerate(pieces))
    rows = len(arrays[0])
    with Path(path).open("wb") as fh:
        fh.write((",".join(_cell(cell) for cell in header) + "\r\n").encode())
        for lo in range(0, rows, _CSV_BLOCK_ROWS):
            tile = [c[lo : lo + _CSV_BLOCK_ROWS] for c in arrays]
            if len(tile[0]) < _VECTOR_MIN_ROWS:
                cells = [None] * (len(tile[0]) * len(tile))
                for index, column in enumerate(tile):
                    cells[index :: len(tile)] = column.tolist()
                fh.write(((template * len(tile[0])) % tuple(cells)).encode())
            else:
                fh.write(_format_rows(pieces, tile))


def save_field(field: ComplexField, lattice: MomentumLattice, path: str | Path) -> None:
    """Write position-space samples to CSV.

    The header row carries the geometry (dimension, grid sizes, box lengths),
    the mass, and the field time; the body is one ``re,im`` pair per site in
    row-major order.  Every float is written as ``%.17g`` (17 significant
    digits, so ``nan``, ``inf`` and ``-0`` spell out as such) and every line
    ends in CRLF, as the ``csv`` module's default dialect writes it.  A
    correctly rounded parser, such as :func:`load_field`'s, reads each value
    back bit for bit.  A real field's imaginary column is the constant ``0``,
    the text of a complex copy's ``+0.0``, so no complex copy is made.
    """
    _require(field, lattice, "position")
    header = [lattice.dims, *lattice.grid_points, *lattice.box_lengths, lattice.mass, field.time]
    values = np.ravel(field.values)
    imag = values.imag if np.iscomplexobj(values) else 0
    _write_csv(path, header, [values.real.astype(np.float64, copy=False), imag])


def _bytes_word(text: bytes) -> int:
    """The little-endian uint64 whose eight bytes are ``text``, right-aligned and NUL-padded."""
    return int.from_bytes(text.rjust(8, b"\0"), "little")


_ZEROS = _bytes_word(b"0" * 8)
_ONES = _bytes_word(b"\x01" * 8)
_LOW7 = _bytes_word(b"\x7f" * 8)
_HIGH = _bytes_word(b"\x80" * 8)
_ABOVE_NINE = _bytes_word(b"\x76" * 8)  # 0x76 + d carries into the high bit for d > 9
_POINT = ord(".") ^ ord("0")
# A cell's last word after the XOR with "0": the exact spellings nan and inf.
_NAN_WORD = _bytes_word(bytes(c ^ ord("0") for c in b"nan"))
_INF_WORD = _bytes_word(bytes(c ^ ord("0") for c in b"inf"))
_SMALLEST_NORMAL = 2.2250738585072014e-308


@functools.cache
def _reader_tables() -> tuple[np.ndarray, ...]:
    """The read route's tables: ``keep``, ``exp_masks``, ``pow10``.

    ``keep[d]`` is a 24-byte window as one ``V24`` item, its first ``d``
    bytes clear and the rest set; ``exp_masks`` picks the exponent's digits
    out of a cell's last three bytes (none, two, three); ``pow10[k]`` is
    ``10**k`` as uint64.
    """
    window = (1 << 8 * _CELL_SLOTS) - 1
    keep = [[(window >> 8 * d << 8 * d) >> 64 * j & (1 << 64) - 1 for j in range(3)] for d in range(_CELL_SLOTS + 1)]
    return _read_only(
        np.array(keep, dtype=np.uint64).view("V24").ravel(),
        np.array([0, 0xFFFF00, 0xFFFFFF], dtype=np.uint64),
        np.array([10**k for k in range(20)], dtype=np.uint64),
    )


def _eight_digits(x: np.ndarray) -> np.ndarray:
    """The number eight digit bytes spell (0 to 9 each, the first in the low byte), by three multiplies."""
    x = x * np.uint64(10) + (x >> np.uint64(8))
    pairs = np.uint64(0x000000FF000000FF)
    x = (x & pairs) * np.uint64(100 + (1000000 << 32)) + ((x >> np.uint64(16)) & pairs) * np.uint64(1 + (10000 << 32))
    return x >> np.uint64(32)


def _scale_decimal(digits: np.ndarray, exp10: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``digits * 10**exp10`` rounded to the nearest double, for uint64 ``digits < 10**18``,
    and a mask of the values whose rounding is certified (see :func:`load_field`)."""
    scale, shift = _pow10_table()
    row = exp10 + _POW10_SPAN
    in_table = (row >= 0) & (row <= 2 * _POW10_SPAN)
    row[~in_table] = _POW10_SPAN
    hi, hi_hi, hi_lo, lo = np.take(scale, row, axis=1)
    # digits == a + c exactly: a is the double nearest digits, |c| <= 2**-53 * a.
    a = digits.astype(np.float64)
    c = (digits.view(np.int64) - a.astype(np.int64)).astype(np.float64)
    p, err = _two_product(a, hi, hi_hi, hi_lo)
    t = err + (a * lo + c * hi)
    r = p + t
    r_err = t - (r - p)  # Dekker's fast two-sum: r + r_err == p + t
    # Certified when both ends of p + t +- r * 2**-93 round to r.
    slack = r * 2.0**-93
    certified = (r + (r_err + slack) == r) & (r + (r_err - slack) == r) & in_table
    with np.errstate(over="ignore", under="ignore"):
        x = np.ldexp(r, np.take(shift, row))
    certified &= (x >= _SMALLEST_NORMAL) & (x < np.inf)
    return x, certified | (digits == 0)


def _parse_rows(buf: np.ndarray, lo: int, hi: int, marks: np.ndarray) -> np.ndarray | None:
    """The values of the ``re,im\\r\\n`` rows that fill ``buf[lo:hi]``, in file order.

    ``buf`` holds at least ``_READ_PAD`` bytes before ``lo``, and ``marks``
    is bool scratch space of shape ``(2, len(buf))``.  Returns None if a
    byte leaves the grammar described in :func:`load_field`.
    """
    keep, exp_masks, pow10 = _reader_tables()
    seg = buf[lo:hi]
    commas = np.equal(seg, ord(","), out=marks[0, : len(seg)])
    ends = np.flatnonzero(np.logical_or(commas, np.equal(seg, ord("\r"), out=marks[1, : len(seg)]), out=commas)) + lo
    if len(ends) == 0 or len(ends) % 2 or ends[-1] != hi - 2:
        return None
    commas, crs = ends[0::2], ends[1::2]
    if not (np.all(buf[commas] == ord(",")) and np.all(buf[crs] == ord("\r")) and np.all(buf[crs + 1] == ord("\n"))):
        return None
    starts = np.empty_like(ends)
    starts[0] = lo
    starts[1:] = ends[:-1] + 1
    starts[2::2] += 1
    neg = buf[starts] == ord("-")
    mstart = starts + neg

    # The exponent's "e" sits 4 or 5 bytes before the cell end: e+dd, e-ddd.
    tail = np.ndarray((len(buf) - 7,), dtype="V8", buffer=buf, strides=(1,))[ends - 8].view("<u8")
    e4 = (((tail >> 32) & 0xFF) == ord("e")) & (ends - 4 > mstart)
    e5 = (((tail >> 24) & 0xFF) == ord("e")) & (ends - 5 > mstart) & ~e4
    sign = buf[ends - 4 + e4]
    digits = ((tail >> 40) ^ (_ZEROS >> 40)) & exp_masks[e4 + 2 * e5]
    exp_ok = ~(e4 | e5) | (
        ((sign == ord("+")) | (sign == ord("-"))) & ((((digits + (_ABOVE_NINE >> 40)) | digits) & (_HIGH >> 40)) == 0)
    )
    exp10 = ((digits & 0xFF) * 100 + ((digits >> 8) & 0xFF) * 10 + (digits >> 16)).view(np.int64)
    np.negative(exp10, out=exp10, where=sign == ord("-"))
    mend = ends - 4 * e4 - 5 * e5

    # The mantissa: three words ending at its end, the bytes before it cleared.
    mlen = mend - mstart
    x = np.ndarray((len(buf) - _CELL_SLOTS + 1,), dtype="V24", buffer=buf, strides=(1,))[mend - _CELL_SLOTS]
    x = x.view("<u8").reshape(-1, 3) ^ _ZEROS
    x &= keep[_CELL_SLOTS - np.minimum(mlen, _CELL_SLOTS)].view("<u8").reshape(-1, 3)
    # 0x80 in each byte that holds the point, by a carry-free zero-byte test;
    # the point is then read as a zero digit.
    y = x ^ (_POINT * _ONES)
    flag = ~(((y & _LOW7) + _LOW7) | y | _LOW7)
    x ^= (flag >> 7) * _POINT
    # Shifted down first, the three words add to at most 3 per byte, and the
    # multiply sums the bytes into the top one without a carry.
    points = (((flag[:, 0] >> 7) + (flag[:, 1] >> 7) + (flag[:, 2] >> 7)) * _ONES) >> 56
    # A lone flag bit 8 * i + 7 of the window is the float exponent of its
    # value; i is the point's byte, followed by 23 - i digits.
    flag_bits = (flag.astype(np.float64) @ np.array([1.0, 2.0**64, 2.0**128])).view(np.int64) >> 52
    frac = ((1023 + 191 - flag_bits) >> 3) * (points == 1)
    bad = ((x + _ABOVE_NINE) | x) & _HIGH
    grammar = ((bad[:, 0] | bad[:, 1] | bad[:, 2]) == 0) & (points <= 1) & exp_ok & (mlen > points) & (mlen <= _CELL_SLOTS)
    special = (mlen == 3) & ((x[:, 2] == _INF_WORD) | ((x[:, 2] == _NAN_WORD) & ~neg))
    if not np.all(grammar | special):
        return None

    words = _eight_digits(x)
    fits = grammar & (words[:, 0] < 100)  # below 10**18: 17 digits and the point
    value = words[:, 0] * np.uint64(10**16) + words[:, 1] * np.uint64(10**8) + words[:, 2]
    rest = value % pow10[np.minimum(frac, 19)]
    digits = np.where(points == 1, rest + (value - rest) // np.uint64(10), value)
    digits[~fits] = 0
    values, certified = _scale_decimal(digits, exp10 - frac)
    np.copysign(values, 0.5 - neg, out=values)
    for i in np.flatnonzero(~(certified & fits)).tolist():
        values[i] = float(buf[starts[i] : ends[i]].tobytes())
    return values


def _read_body(fh: BinaryIO, size: int, rows: int) -> np.ndarray | None:
    """The ``(rows, 2)`` body that the binary handle ``fh`` holds from its position on, parsed by :func:`_parse_rows`.

    ``size`` is the number of bytes left.  They are read in chunks of
    ``_READ_CHUNK`` bytes into one buffer; each chunk is cut after its last
    line end and the rest carried over.  Returns None if the body leaves
    the grammar or does not hold exactly ``rows`` rows.
    """
    # No row is shorter than "0,0\r\n".
    if 5 * rows > size:
        return None
    buf = np.zeros(_READ_PAD + min(_READ_CHUNK, size), dtype=np.uint8)
    marks = np.empty((2, len(buf)), dtype=bool)
    view = memoryview(buf)
    out = np.empty(2 * rows)
    filled = carry = 0
    while got := fh.readinto(view[_READ_PAD + carry :]):
        end = _READ_PAD + carry + got
        window = max(_READ_PAD, end - _ROW_BYTES)
        stop = window + bytes(view[window:end]).rfind(b"\n") + 1
        values = None if stop == window else _parse_rows(buf, _READ_PAD, stop, marks)
        if values is None or filled + len(values) > len(out):
            return None
        out[filled : filled + len(values)] = values
        filled += len(values)
        carry = end - stop
        buf[_READ_PAD : _READ_PAD + carry] = buf[stop:end]
    return out.reshape(rows, 2) if carry == 0 and filled == len(out) else None


def load_field(path: str | Path) -> tuple[ComplexField, MomentumLattice]:
    """Read a snapshot written by :func:`save_field`.

    The file is opened once, in binary mode.  The header line is split at
    its commas; a malformed header, or a geometry :func:`build_lattice`
    refuses, raises ``ValueError`` before the body is read.  Every body
    value comes back bit for bit, ``nan`` and ``inf`` included, by one of
    two routes that give the same bits:

    - A body of fewer than ``_ARRAY_MIN_ROWS`` rows goes to ``np.loadtxt``,
      whose float parser is correctly rounded.  A missing, extra or
      malformed row raises ``ValueError``; blank lines after the first body
      row are skipped.
    - A longer body is parsed by array operations on its bytes
      (:func:`_read_body`), read in chunks of ``_READ_CHUNK`` bytes, after
      Clinger (PLDI 1990) and Lemire (SP&E 51(8), 2021).  The grammar is the
      writer's: rows ``re,im`` ending in CRLF; a cell is an optional ``-``,
      1 to 24 bytes of digits with at most one point, and an optional
      ``e``, sign and two or three digits; or exactly ``nan``, ``inf`` or
      ``-inf``.  Any other byte, and any row count but the header's, sends
      the whole body to the ``np.loadtxt`` route, so malformed files raise
      there.

    In the array route, the separators come from one ``np.flatnonzero``.
    Each mantissa is gathered as three unaligned little-endian words; the
    point is found by a zero-byte test and read as a zero digit, and the
    digits are checked and converted eight at a time by SWAR arithmetic.
    That gives ``D < 10**18`` and a decimal exponent ``E``.  ``D`` is split
    into the double ``a`` nearest it and the exact remainder ``c``, and
    multiplied by the writer's double-double ``10**E * 2**-b``
    (:func:`_pow10_table`) through Dekker's two-product.  The sum is
    ``r + r_err`` exactly, and it is within ``2**-102 * r`` of the true
    ``D * 10**E * 2**-b``: the table is good to ``2**-106`` relatively,
    ``|c| <= 2**-53 * a``, and the low-order products and sums (``c * lo``
    is dropped) add less than ``2**-103``.  The value is
    certified when ``r + r_err +- r * 2**-93`` both round to ``r`` (which
    also covers the narrower gap below a power of two) and
    ``r * 2**b`` is a normal double, so that ``np.ldexp`` is exact.
    Every other cell in the grammar (``nan``, ``inf``, near-ties,
    subnormals, overflows, more than 17 digits) is read by ``float`` on
    its own.  Each step is an exact or correctly rounded IEEE operation,
    so the bits do not depend on numpy's SIMD dispatch level.

    The lattice is rebuilt from the stored geometry with no cutoff; reapply
    one via :func:`build_lattice` if needed.  The header's geometry is checked
    once, and the mode grid is assembled only after the body has been read.
    """
    path = Path(path)
    with path.open("rb") as fh:
        line = fh.readline()
        if not line:
            raise ValueError(f"{path} is empty")
        header = line.decode().rstrip("\r\n").split(",")
        dims = int(header[0])
        if not 1 <= dims <= 3 or len(header) != 2 * dims + 3:
            raise ValueError(f"malformed snapshot header in {path}: {header}")
        # A size written 4.0 is the integer 4; 4.5 stays a float, which the grid_points rule refuses.
        points = tuple(int(n) if n.is_integer() else n for n in map(float, header[1 : 1 + dims]))
        lengths = tuple(float(v) for v in header[1 + dims : 1 + 2 * dims])
        mass = float(header[1 + 2 * dims])
        time = float(header[2 + 2 * dims])
        refuse(_lattice_problems(lengths, points, mass))
        expected = int(np.prod(points))
        # np.loadtxt only warns on a body without data; reject that here.
        body_start = fh.tell()
        if not fh.readline().strip():
            raise ValueError(f"snapshot body has 0 rows, expected {expected}")
        fh.seek(body_start)
        size = os.fstat(fh.fileno()).st_size - body_start
        body = _read_body(fh, size, expected) if expected >= _ARRAY_MIN_ROWS else None
        if body is None:
            fh.seek(body_start)
            # Through a text view, which also ends a row at a lone CR.
            text = io.TextIOWrapper(fh, newline="")
            body = np.loadtxt(text, delimiter=",", dtype=np.float64, comments=None, ndmin=2)
    if body.shape != (expected, 2):
        raise ValueError(
            f"snapshot body has {body.shape[0]} rows of {body.shape[1]} fields, "
            f"expected {expected} rows of 2"
        )
    # A view keeps each (re, im) pair's bits; re + 1j*im would turn inf into nan.
    values = body.view(complex).reshape(points)
    return ComplexField(space="position", values=values, time=time), _assemble(lengths, points, mass, None)
