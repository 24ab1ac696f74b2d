"""Tests for the snapshot reader's array route: it must give the bits np.loadtxt gives."""

import hashlib
import io
import os
from decimal import ROUND_CEILING, ROUND_FLOOR, Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ontofield import lattice
from ontofield.lattice import _ARRAY_MIN_ROWS, ComplexField, build_lattice, load_field, save_field
from fresh_interpreter import peak_bytes, run_script
from test_csv_writer import _edge_values

_ROWS = 2 * _ARRAY_MIN_ROWS
_NAN_BITS = np.float64(np.nan).view(np.int64)


@pytest.fixture
def array_route(monkeypatch):
    """The bodies load_field parses by array operations: None where it fell back to np.loadtxt."""
    bodies = []
    parse = lattice._read_body

    def spy(*args):
        bodies.append(parse(*args))
        return bodies[-1]

    monkeypatch.setattr(lattice, "_read_body", spy)
    return bodies


@pytest.fixture
def uncertified(monkeypatch):
    """Per chunk, the count of values the array route leaves to float()."""
    counts = []
    certify = lattice._scale_decimal

    def count(digits, exp10):
        values, certified = certify(digits, exp10)
        counts.append(int(np.count_nonzero(~certified)))
        return values, certified

    monkeypatch.setattr(lattice, "_scale_decimal", count)
    return counts


def _snapshot(values, path):
    """Save ``values`` (re, im, re, ...) as a 1D snapshot, padded with ones to an even site count."""
    values = np.asarray(values, dtype=np.float64)
    sites = max(_ROWS, -(-len(values) // 4) * 2)
    pairs = np.ones(2 * sites)
    pairs[: len(values)] = values
    save_field(ComplexField("position", pairs.view(complex)), build_lattice(1.0, sites, 1.0), path)
    return pairs


def _expected_bits(pairs):
    # "%.17g" spells every NaN "nan", which reads back as the positive quiet NaN.
    bits = pairs.view(np.int64).copy()
    bits[np.isnan(pairs)] = _NAN_BITS
    return bits


def _loaded_bits(path):
    return load_field(path)[0].values.view(np.int64).ravel()


def _text_snapshot(path, cells):
    """A 1D snapshot whose body rows are the given cell texts, two per row."""
    rows = len(cells) // 2
    body = "".join(f"{re},{im}\r\n" for re, im in zip(cells[0::2], cells[1::2]))
    path.write_text(f"1,{rows},8,1,0.5\r\n" + body, newline="")


def _loadtxt_body(text):
    # The np.loadtxt route of load_field, on the body of the given file text.
    fh = io.StringIO(text, newline="")
    fh.readline()
    return np.loadtxt(fh, delimiter=",", dtype=np.float64, comments=None, ndmin=2)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=64))
@example([0, 1 << 63, 1, (1 << 52) - 1, 0x7FF0000000000000, 0xFFF0000000000000])
@example([0x7FF8000000000000, 0xFFF8000000000001, 0x7FF0000000000001, 0x7FEFFFFFFFFFFFFF])
def test_array_route_reads_raw_bit_patterns(tmp_path_factory, bits):
    # Subnormals, NaN payloads of both signs, +-0 and +-inf come from the bits.
    values = np.resize(np.array(bits, dtype=np.uint64).view(np.float64), 2 * _ROWS)
    path = tmp_path_factory.mktemp("raw") / "snap.csv"
    pairs = _snapshot(values, path)
    with path.open("rb") as fh:
        fh.readline()
        assert lattice._read_body(fh, path.stat().st_size - fh.tell(), _ROWS) is not None
    assert np.array_equal(_loaded_bits(path), _expected_bits(pairs))


def test_array_route_reads_the_writers_edge_values(tmp_path, array_route):
    pairs = _snapshot(_edge_values(), tmp_path / "snap.csv")
    assert np.array_equal(_loaded_bits(tmp_path / "snap.csv"), _expected_bits(pairs))
    assert array_route and array_route[0] is not None


def _with_point(value, at):
    # A writer cell with one more "." at the given index; points in the
    # last byte of a mantissa word set its top bit.
    cell = "%.17g" % value
    at = min(at, len(cell))
    return cell[:at] + "." + cell[at:]


@settings(max_examples=120, deadline=None)
@given(
    st.one_of(
        st.text("0123456789.e+-", min_size=1, max_size=24),
        st.builds(_with_point, st.floats(allow_nan=False, allow_infinity=False), st.integers(0, 24)),
    )
)
def test_array_route_reads_a_cell_only_as_np_loadtxt_does(tmp_path_factory, cell):
    path = tmp_path_factory.mktemp("cell") / "snap.csv"
    _text_snapshot(path, [cell] + ["1"] * (2 * _ROWS - 1))
    try:
        expected = _loadtxt_body(path.read_text())
    except ValueError:
        with pytest.raises(ValueError):
            load_field(path)
    else:
        assert np.array_equal(_loaded_bits(path), expected.view(np.int64).ravel())


def _near_midpoint(exp10, target):
    """A ``D`` near ``target`` with ``D * 10**exp10`` closest to a midpoint between two doubles.

    With ``a = 10**exp10 * 2**(1 - q)`` for the ulp ``2**q`` of the binade,
    ``D * a`` is odd at a midpoint and in ``[2**53, 2**54)``.  The closest
    vector to ``(target, den)`` in the lattice of ``(D, D * num - 2 * k * den)``,
    weighted so that ``D`` stays in the binade, is found by Lagrange-Gauss
    reduction and Babai rounding.  Returns None if it leaves the binade.
    """
    value = Fraction(target) * Fraction(10) ** exp10
    q = value.numerator.bit_length() - value.denominator.bit_length() - 52
    while Fraction(2) ** (q + 52) > value:
        q -= 1
    a = Fraction(10) ** exp10 * Fraction(2) ** (1 - q)
    num, den = a.numerator, a.denominator
    target = round(Fraction(3 * 2**53, 2) / a)  # the middle of the binade
    x, y = 16 * den, target * target
    b1, b2 = (x, y * num), (0, 2 * y * den)

    def dot(u, v):
        return u[0] * v[0] + u[1] * v[1]

    while True:
        if dot(b1, b1) > dot(b2, b2):
            b1, b2 = b2, b1
        m = round(Fraction(dot(b1, b2), dot(b1, b1)))
        if m == 0:
            break
        b2 = (b2[0] - m * b1[0], b2[1] - m * b1[1])
    det = b1[0] * b2[1] - b1[1] * b2[0]
    t = (x * target, y * den)
    c1 = round(Fraction(t[0] * b2[1] - t[1] * b2[0], det))
    c2 = round(Fraction(b1[0] * t[1] - b1[1] * t[0], det))
    near = [((c1 + i) * b1[0] + (c2 + j) * b2[0]) // x for i in (-1, 0, 1) for j in (-1, 0, 1)]
    near = [d for d in near if 2**53 <= d * a < 2**54]

    def gap(d):
        # The distance from D * a to the nearest odd integer.
        rest = (d * num - den) % (2 * den)
        return min(rest, 2 * den - rest)

    return min(near, key=gap, default=None)


def _hard_cells():
    # Decimals within about 2**-110 of a midpoint between two doubles, on
    # either side of it, and exact midpoints where the power of ten is not
    # a double (1e23 is one).  The product's error of up to 2**-102 can put
    # them on the wrong side; only the certification sends them to float().
    cells = []
    for exp10 in range(-340, 292, 9):
        digits = _near_midpoint(exp10, 5 * 10**16)
        if digits is not None and digits < 10**18:
            cells.append(f"{digits}e{exp10:+03d}")
    odd = [int(v) | 1 for v in np.random.default_rng(11).integers(2**53, 2**54, size=40, dtype=np.int64)]
    cells += [f"{v // 2}.5" for v in odd] + [f"{25 * v}e-02" for v in odd]
    cells += [f"{2**i}e+23" for i in range(0, 60, 3)] + ["-1e+23"]
    # Subnormal midpoints: r rounds them to 53 bits, and np.ldexp would round again.
    with localcontext() as ctx:
        ctx.prec = 1200
        for k in (0, 1, 2, 1000, 2**40 + 1):
            mid = Decimal(2 * k + 1) * Decimal(2) ** -1075
            place = Decimal(1).scaleb(mid.adjusted() - 16)
            cells += [f"{mid.quantize(place, rounding=side):.16e}" for side in (ROUND_FLOOR, ROUND_CEILING)]
    # Decimal exponents beyond the table.
    return cells + ["1e+400", "-1e+400", "1e-400", "12345678901234567e-999", "0e+999"]


def test_array_route_rounds_hard_cases_correctly(tmp_path, uncertified):
    hard = _hard_cells()
    cells = hard + ["1"] * (2 * _ROWS - len(hard))
    _text_snapshot(tmp_path / "hard.csv", cells)
    expected = np.array([float(c) for c in cells])
    assert np.array_equal(_loaded_bits(tmp_path / "hard.csv"), expected.view(np.int64))
    # Nearly every hard cell is left to float(), and no other cell.
    assert len(uncertified) == 1 and 0.9 * len(hard) < uncertified[0] <= len(hard)


def test_ordinary_values_need_no_per_cell_fallback(tmp_path, uncertified):
    # A route that sent every value to float() would pass the bit tests.
    rng = np.random.default_rng(5)
    values = rng.normal(size=2 * _ROWS) * 10.0 ** rng.integers(-30, 30, size=2 * _ROWS)
    pairs = _snapshot(values, tmp_path / "snap.csv")
    assert np.array_equal(_loaded_bits(tmp_path / "snap.csv"), _expected_bits(pairs))
    assert uncertified and sum(uncertified) == 0


def test_chunk_cuts_fall_at_every_offset_of_a_row(tmp_path, monkeypatch):
    # Rows of one length L: a chunk of C bytes is cut C mod L bytes into a
    # row, so L consecutive chunk sizes put the cut at every offset.
    cells = ["-0.12345678901234566", "1.2345678901234567e-05"] * 40
    path = tmp_path / "fixed.csv"
    _text_snapshot(path, cells)
    row = len(cells[0]) + len(cells[1]) + 3
    expected = _loadtxt_body(path.read_text()).view(np.int64)
    for chunk in range(2 * row, 3 * row):
        monkeypatch.setattr(lattice, "_READ_CHUNK", chunk)
        with path.open("rb") as fh:
            fh.readline()
            body = lattice._read_body(fh, path.stat().st_size - fh.tell(), 40)
        assert body is not None and np.array_equal(body.view(np.int64), expected), chunk


def test_many_small_chunks_give_the_same_bits(tmp_path, monkeypatch, array_route):
    monkeypatch.setattr(lattice, "_READ_CHUNK", 211)
    rng = np.random.default_rng(9)
    pairs = _snapshot(rng.normal(size=2 * _ROWS) * 10.0 ** rng.integers(-8, 8, size=2 * _ROWS), tmp_path / "s.csv")
    assert np.array_equal(_loaded_bits(tmp_path / "s.csv"), _expected_bits(pairs))
    assert array_route[0] is not None


_ROW = "1,2\r\n"


def _padded(rows, body_rows):
    return f"1,{rows},8,1,0.5\r\n" + body_rows


@pytest.mark.parametrize(
    "text",
    [
        _padded(_ROWS, _ROW * (_ROWS - 1)),
        _padded(_ROWS, _ROW * (_ROWS + 1)),
        _padded(_ROWS, _ROW * (_ROWS - 1) + "1\r\n"),
        _padded(_ROWS, "1\r\n" + _ROW * (_ROWS - 1)),
        _padded(_ROWS, _ROW * (_ROWS - 1) + "1,2,3\r\n"),
        _padded(_ROWS, _ROW * (_ROWS - 1) + "1,x\r\n"),
        _padded(_ROWS, "#1,2\r\n" + _ROW * (_ROWS - 1)),
        _padded(_ROWS, _ROW * (_ROWS - 1) + ",2\r\n"),
        _padded(_ROWS, _ROW * (_ROWS - 1) + "1..5,2\r\n"),
        _padded(_ROWS, _ROW * (_ROWS - 1) + "1.234567890123456.,2\r\n"),
        _padded(_ROWS, _ROW * (_ROWS - 1) + "1.2345678.01234567,2\r\n"),
        _padded(_ROWS, _ROW * (_ROWS - 1) + "0000000.1234567.1234567.,2\r\n"),
        _padded(_ROWS, _ROW * (_ROWS - 1) + "1,-\r\n"),
        _padded(_ROWS, _ROW * (_ROWS - 1) + "1,.\r\n"),
        _padded(_ROWS, _ROW * (_ROWS - 1) + "1,2e+\r\n"),
        _padded(_ROWS, _ROW * (_ROWS - 1) + "1,1e+5x\r\n"),
        _padded(_ROWS, _ROW * (_ROWS - 1) + "1,na\r\n"),
        _padded(_ROWS // 2 * 10**6, _ROW * _ROWS),
        f"1,{_ROWS}.5,8,1,0.5\r\n" + _ROW * _ROWS,
    ],
    ids=[
        "row-missing",
        "row-extra",
        "one-field",
        "one-field-first",
        "three-fields",
        "non-numeric",
        "comment-row",
        "empty-cell",
        "two-points",
        "two-points-ending-words-0-and-2",
        "two-points-ending-words-0-and-1",
        "three-points-ending-every-word",
        "sign-only",
        "point-only",
        "exponent-without-digits",
        "trailing-letter",
        "partial-nan",
        "header-claims-more-rows-than-the-file-holds",
        "non-integral-grid-size",
    ],
)
def test_large_malformed_snapshots_raise_without_warnings(tmp_path, recwarn, text):
    path = tmp_path / "bad.csv"
    path.write_text(text, newline="")
    with pytest.raises(ValueError):
        load_field(path)
    assert not recwarn.list


def _ordinary_cells():
    rng = np.random.default_rng(2)
    return ["%.17g" % v for v in rng.normal(size=2 * _ROWS) * 10.0 ** rng.integers(-6, 6, size=2 * _ROWS)]


@pytest.mark.parametrize(
    "edit",
    [
        lambda text: text.replace("\r\n", "\n"),
        lambda text: text.replace(",", " , ").replace("\r\n", " \r\n"),
        lambda text: text.replace("\r\n", "\r\n\r\n", 7).replace("\r\n\r\n", "\r\n", 1),
        lambda text: text[: -len("\r\n")],
        lambda text: text.replace("e+", "E+").replace("e-", "e"),
        lambda text: text + "\r\n",
        lambda text: text.replace("\r\n", "\r\r\n", 4).replace("\r\r\n", "\r\n", 1),
    ],
    ids=[
        "lf-line-ends",
        "spaces-around-fields",
        "blank-lines",
        "no-final-line-end",
        "other-exponent-spellings",
        "trailing-blank-line",
        "doubled-cr",
    ],
)
def test_large_bodies_outside_the_grammar_load_as_np_loadtxt_reads_them(tmp_path, array_route, edit):
    path = tmp_path / "edited.csv"
    _text_snapshot(path, _ordinary_cells())
    # Bytes, not read_text(), which would turn every CRLF into LF before the edit.
    text = edit(path.read_bytes().decode())
    path.write_text(text, newline="")
    loaded = load_field(path)[0].values.view(np.float64).reshape(-1, 2)
    assert np.array_equal(loaded.view(np.int64), _loadtxt_body(text).view(np.int64))
    assert array_route == [None]


_READER_DIGEST_SCRIPT = """
import hashlib, sys
from ontofield.lattice import load_field
print(hashlib.sha256(load_field(sys.argv[1])[0].values.tobytes()).hexdigest())
"""


def _reader_digest(env, path):
    return run_script(_READER_DIGEST_SCRIPT, path, env=env).strip()


def test_parsed_bits_do_not_depend_on_the_simd_dispatch(tmp_path):
    umath = pytest.importorskip("numpy._core._multiarray_umath")
    features = getattr(umath, "__cpu_features__", {})
    dispatch = [name for name in getattr(umath, "__cpu_dispatch__", []) if features.get(name)]
    if not dispatch:
        pytest.skip("this numpy build and CPU have no SIMD dispatch level to turn off")
    # Values from integer bit patterns only: a multiplicative hash for the
    # mantissas and a sweep of exponents, so no float loop makes the input.
    count = 20000
    bits = np.arange(count, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    bits ^= bits >> np.uint64(29)
    exponent = (np.arange(count, dtype=np.uint64) * np.uint64(37)) % np.uint64(2047)
    raw = (bits & np.uint64(1 << 63)) | (exponent << np.uint64(52)) | (bits & np.uint64((1 << 52) - 1))
    narrow = ((np.uint64(1020) + exponent % np.uint64(10)) << np.uint64(52)) | (bits & np.uint64((1 << 52) - 1))
    path = tmp_path / "snap.csv"
    pairs = _snapshot(np.concatenate([raw, narrow]).view(np.float64), path)
    expected = hashlib.sha256(_expected_bits(pairs).tobytes()).hexdigest()
    baseline = {**os.environ, "NPY_DISABLE_CPU_FEATURES": " ".join(dispatch)}
    assert _reader_digest(baseline, path) == _reader_digest(dict(os.environ), path) == expected


# A small read warms the reader, so one-time imports and tables are not counted.
_PEAK_SCRIPT = """
import sys
from ontofield.lattice import load_field

def warm():
    load_field(sys.argv[1])

def run():
    load_field(sys.argv[2])
"""


def test_reading_a_large_snapshot_holds_one_chunk_not_the_file(tmp_path):
    rng = np.random.default_rng(4)
    _snapshot(rng.normal(size=2 * _ROWS), tmp_path / "small.csv")
    sites = 100_000
    _snapshot(rng.normal(size=2 * sites) * 1e-3, tmp_path / "large.csv")
    peak = peak_bytes(_PEAK_SCRIPT, tmp_path / "small.csv", tmp_path / "large.csv")
    # The output and the lattice's grids take 16 and 32 bytes per site, and
    # one chunk's parse about 9 bytes per byte of the chunk (6.1 MiB in all
    # here).  A route that held the 4.7 MB file would add it on top.
    assert (tmp_path / "large.csv").stat().st_size > 4_000_000
    assert peak <= 48 * sites + 16 * lattice._READ_CHUNK
