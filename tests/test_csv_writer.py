"""Tests for the one CSV writer: typed columns, and an array route that gives the ``%`` template's bytes."""

import csv
import math
import os
from decimal import Decimal
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ontofield
from ontofield.lattice import _G17_SLOTS, _CSV_BLOCK_ROWS, _VECTOR_MIN_ROWS, _g17_cells, _write_csv
from ontofield.vacuum import _correlator_bytes
from fresh_interpreter import peak_bytes, run_script

_HEADER = ["a", "b"]


def _assert_cells_match(values):
    # The text of each value as the array route lays it out, NULs dropped,
    # must be "%.17g" % value; returns how many values fell back to "%".
    values = np.asarray(values, dtype=np.float64)
    slots = np.empty((_G17_SLOTS, len(values)), dtype=np.uint8)
    fallback = _g17_cells(values, slots)
    cells = [bytes(slots[:, i]).replace(b"\0", b"").decode() for i in range(len(values))]
    assert cells == ["%.17g" % v for v in values.tolist()]
    return len(fallback)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=64))
@example([0, 1 << 63, 1, (1 << 52) - 1, 0x7FF0000000000000, 0xFFF0000000000000])
@example([0x7FF8000000000000, 0xFFF8000000000001, 0x7FF0000000000001, 0x7FEFFFFFFFFFFFFF])
def test_cells_equal_the_percent_template_for_raw_bit_patterns(bits):
    # Subnormals, NaN payloads of both signs, +-0 and +-inf come from the bits.
    _assert_cells_match(np.array(bits, dtype=np.uint64).view(np.float64))


def _ties():
    # Doubles whose exact decimal expansion has 18 significant digits ending
    # in 5, so "%.17g" rounds them half to even: an odd multiple of
    # 2**(j - 17) in [10**j, 10**(j + 1)) has 17 - j digits after the point.
    found = []
    for j in range(-3, 13):
        base = math.ceil(10.0**j * 2.0 ** (17 - j)) | 1
        for m in (0, 1, 6172, 499999):
            value = math.ldexp(base + 2 * m, j - 17)
            digits = Decimal(value).as_tuple().digits
            if len(digits) == 18 and digits[-1] == 5:
                found.append(value)
    return found


def _edge_values():
    # Every power of ten and its neighbours, every power of two, the ties,
    # the extremes and both zeros, with both signs.
    powers = [float(f"1e{k}") for k in range(-323, 309)]
    neighbours = [np.nextafter(p, d) for p in powers for d in (0.0, np.inf)]
    twos = np.ldexp(1.0, np.arange(-1074, 1024)).tolist()
    edges = powers + neighbours + twos + _ties() + [5e-324, 1.7976931348623157e308, 0.0, -0.0]
    return edges + [-v for v in edges]


def test_cells_equal_the_percent_template_on_edge_values():
    assert len(_ties()) > 20
    _assert_cells_match(_edge_values())


def test_most_ordinary_values_take_the_array_route():
    # A route that fell back on every value would pass the byte tests.
    values = np.random.default_rng(3).normal(size=20000) * 10.0 ** np.arange(-40, 40).repeat(250)
    assert _assert_cells_match(np.concatenate([values, np.zeros(100), -np.zeros(100)])) < 20


def _constant(value):
    return "" if value is None else value if isinstance(value, str) else "%.17g" % value


def _reference_bytes(path, header, columns):
    # One "%" per row, its template built here from the column types: what
    # the writer must match.
    template = ",".join(
        ("%d" if c.dtype.kind in "iu" else "%.17g") if isinstance(c, np.ndarray) else _constant(c).replace("%", "%%")
        for c in columns
    )
    arrays = [c.tolist() for c in columns if isinstance(c, np.ndarray)]
    with path.open("w", newline="") as fh:
        fh.write(",".join(_constant(cell) for cell in header) + "\r\n")
        for row in zip(*arrays):
            fh.write((template + "\r\n") % row)
    return path.read_bytes()


def _awkward_floats(rng, rows):
    values = rng.normal(size=rows) * 10.0 ** rng.integers(-30, 30, size=rows)
    awkward = [0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, 1e300, 1e16, 0.0001, 123456.5, 1.0]
    picks = rng.integers(0, rows, size=min(rows, 3 * len(awkward)))
    values[picks] = rng.choice(awkward, size=len(picks))
    return values


# The columns of each artifact: int and float stand for array columns of
# that kind, anything else is a constant field.
_TABLES = {
    "field": [float, float],
    "spectrum": [int, float],
    "correlator": [int, int, float, float, float],
    "kernel_f1": [float, None, float, float, float, "radial_reduced", 1, 240.0],
    "kernel_f2": [float, -0.4, float, float, float, "contour", 0.9, None],
    "percent": ["%d", int, "100%", float, "%%"],
    "indices": [int, "site", int],
}


@pytest.mark.parametrize("name", sorted(_TABLES))
# Row counts on both sides of the route crossover, alone and as the tail of
# full tiles.  The fixed counts sit around a crossover of 512 rows, so the
# array route keeps a test on short tiles above the current one.
@pytest.mark.parametrize(
    "rows",
    sorted(
        {
            1,
            _VECTOR_MIN_ROWS - 1,
            _VECTOR_MIN_ROWS,
            511,
            512,
            _CSV_BLOCK_ROWS + 1,
            _CSV_BLOCK_ROWS + _VECTOR_MIN_ROWS,
            _CSV_BLOCK_ROWS + 512,
            2 * _CSV_BLOCK_ROWS + _VECTOR_MIN_ROWS - 1,
            2 * _CSV_BLOCK_ROWS + 511,
        }
    ),
)
def test_tables_give_the_percent_template_bytes(tmp_path, name, rows):
    rng = np.random.default_rng(rows)
    columns = []
    for kind in _TABLES[name]:
        if kind is int:
            ints = rng.integers(-(10**6), 10**6, size=rows)
            ints[: min(rows, 4)] = [0, -1, np.iinfo(np.int64).min, np.iinfo(np.int64).max][: min(rows, 4)]
            columns.append(ints)
        elif kind is float:
            columns.append(_awkward_floats(rng, rows))
        else:
            columns.append(kind)
    header = ["a", 2, 0.1, None] + [f"c{i}" for i in range(len(columns) - 4)]
    path = tmp_path / "table.csv"
    _write_csv(path, header, columns)
    assert path.read_bytes() == _reference_bytes(tmp_path / "reference.csv", header, columns)


@pytest.mark.parametrize("exponents", ["none", "every"])
def test_a_tile_whose_cells_all_or_none_show_an_exponent_gives_the_percent_template_bytes(tmp_path, exponents):
    # _awkward_floats puts an exponent into every tile; here one array-route
    # tile has none at all, or one in every cell.
    rng = np.random.default_rng(11)
    rows = _VECTOR_MIN_ROWS
    columns = []
    for _ in range(2):
        if exponents == "none":
            values = rng.uniform(1.0, 9.0, size=rows) * 10.0 ** rng.integers(-4, 17, size=rows)
            values[:3] = [0.0, -0.0, 0.0001]
        else:
            powers = rng.choice(np.r_[-300:-4, 17:300], size=rows)
            values = rng.uniform(1.0, 9.0, size=rows) * 10.0**powers
            values[:3] = [5e-324, 1e17, 0.0000999]
        columns.append(values * rng.choice([-1.0, 1.0], size=rows))
    path = tmp_path / "tile.csv"
    _write_csv(path, _HEADER, columns)
    reference = _reference_bytes(tmp_path / "reference.csv", _HEADER, columns)
    assert path.read_bytes() == reference
    cells = [cell for line in reference.split(b"\r\n")[1:-1] for cell in line.split(b",")]
    assert [b"e" in cell for cell in cells] == [exponents == "every"] * (2 * rows)


def test_constant_and_header_cells_are_spelled_as_cells(tmp_path):
    columns = [np.array([0, -5]), None, "s%d", 0.1, 7, np.array([0.5, -0.0])]
    _write_csv(tmp_path / "t.csv", [3, 0.1, None, "name", float("nan"), -0.0], columns)
    assert (tmp_path / "t.csv").read_bytes() == (
        b"3,0.10000000000000001,,name,nan,-0\r\n"
        b"0,,s%d,0.10000000000000001,7,0.5\r\n"
        b"-5,,s%d,0.10000000000000001,7,-0\r\n"
    )


def test_narrow_unsigned_index_columns_are_written_as_integers(tmp_path):
    sites = np.arange(300, dtype=np.uint16)
    columns = [np.repeat(sites, 3), np.tile(sites[:3], 300), np.linspace(-1, 1, 900)]
    _write_csv(tmp_path / "t.csv", ["x", "y", "v"], columns)
    reference = _reference_bytes(tmp_path / "r.csv", ["x", "y", "v"], columns)
    assert (tmp_path / "t.csv").read_bytes() == reference


def test_writer_rejects_columns_that_are_not_one_table(tmp_path):
    # Ragged, two-dimensional, all-constant and no columns; no file is started.
    for columns in [[np.ones(3), np.ones(4)], [np.ones((3, 2)), np.ones(3)], [1.0, "x", None], []]:
        with pytest.raises(ValueError, match="columns"):
            _write_csv(tmp_path / "t.csv", _HEADER, columns)
        assert not (tmp_path / "t.csv").exists()


def test_only_lattice_spells_csv_cells():
    # Every artifact's text is decided by ontofield.lattice's writer.
    package = Path(ontofield.__file__).parent
    for path in sorted(package.glob("*.py")):
        if path.name != "lattice.py":
            source = path.read_text()
            assert "%.17g" not in source and "\\r\\n" not in source, path.name


_WRITER_DIGEST_SCRIPT = """
import hashlib, sys
import numpy as np
from ontofield.lattice import _write_csv
# Values from integer bit patterns only: a multiplicative hash for the
# mantissas and a sweep of exponents, so no float loop makes the input.
rows = 20000
bits = np.arange(rows, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
bits ^= bits >> np.uint64(29)
mantissa = bits & np.uint64((1 << 52) - 1)
exponent = (np.arange(rows, dtype=np.uint64) * np.uint64(37)) % np.uint64(2047)
raw = (bits & np.uint64(1 << 63)) | (exponent << np.uint64(52)) | mantissa
narrow = ((np.uint64(1020) + exponent % np.uint64(10)) << np.uint64(52)) | mantissa
ints = (bits >> np.uint64(40)).astype(np.int64) - (1 << 23)
_write_csv(sys.argv[1], ["i", "raw", "narrow"], [ints, raw.view(np.float64), narrow.view(np.float64)])
print(hashlib.sha256(open(sys.argv[1], "rb").read()).hexdigest())
"""


def _writer_digest(env, path):
    return run_script(_WRITER_DIGEST_SCRIPT, path, env=env).strip()


def test_writer_bytes_do_not_depend_on_the_simd_dispatch(tmp_path):
    umath = pytest.importorskip("numpy._core._multiarray_umath")
    # Turning off a feature this CPU lacks would change nothing.
    features = getattr(umath, "__cpu_features__", {})
    dispatch = [name for name in getattr(umath, "__cpu_dispatch__", []) if features.get(name)]
    if not dispatch:
        pytest.skip("this numpy build and CPU have no SIMD dispatch level to turn off")
    baseline = {**os.environ, "NPY_DISABLE_CPU_FEATURES": " ".join(dispatch)}
    assert _writer_digest(baseline, tmp_path / "off.csv") == _writer_digest(dict(os.environ), tmp_path / "on.csv")


# A small run warms the process, so one-time imports and caches are not counted.
_PEAK_SCRIPT = """
import sys
from ontofield.lattice import build_lattice
from ontofield.vacuum import EnsembleSpec, ensemble_correlators

def vacuum(points):
    # The CLI's vacuum run: one joint pass for the static and the evolved
    # estimate, then both CSVs.
    lattice = build_lattice([6.0] * len(points), points, 1.0)
    static, evolved = ensemble_correlators(EnsembleSpec(lattice, count=300, seed=4), (0.0, 0.5))
    static.write_csv(sys.argv[1])
    evolved.write_csv(sys.argv[1])

def warm():
    vacuum([8])

def run():
    vacuum([16, 8, 8])
"""


def test_correlator_peak_memory_stays_under_the_guard_estimate(tmp_path):
    peak = peak_bytes(_PEAK_SCRIPT, tmp_path / "correlator.csv", timeout=300)
    estimate = _correlator_bytes(1024, 2)
    # The two estimates' accumulators alone are 48 * 1024**2 bytes: a peak
    # far below it would mean the run did not take place.
    assert 30 * 1024**2 < peak <= estimate
