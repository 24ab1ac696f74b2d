"""Tests for the one CSV writer: its array route must give the ``%`` template's bytes."""

import csv
import math
import os
import subprocess
import sys
from decimal import Decimal
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ontofield
from ontofield import lattice, vacuum
from ontofield.lattice import _G17_SLOTS, _CSV_BLOCK_ROWS, _VECTOR_MIN_ROWS, _g17_cells, _write_csv

_SRC = str(Path(ontofield.__file__).resolve().parents[1])
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


def _reference_bytes(path, header, row_format, columns):
    # One "%" per row, after the csv module's header row: what the writer must match.
    with path.open("w", newline="") as fh:
        csv.writer(fh).writerow(header)
        for row in zip(*(np.asarray(c).tolist() for c in columns)):
            fh.write(row_format % row)
    return path.read_bytes()


def _awkward_floats(rng, rows):
    values = rng.normal(size=rows) * 10.0 ** rng.integers(-30, 30, size=rows)
    awkward = [0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, 1e300, 1e16, 0.0001, 123456.5, 1.0]
    picks = rng.integers(0, rows, size=min(rows, 3 * len(awkward)))
    values[picks] = rng.choice(awkward, size=len(picks))
    return values


_TEMPLATES = {
    "field": lattice._FIELD_ROW,
    "spectrum": "%d,%.17g\r\n",
    "correlator": vacuum._CSV_ROW,
    "kernel_f1": "%.17g,,%.17g,%.17g,%.17g,radial_reduced,1,240\r\n",
    "kernel_f2": "%.17g,-0.40000000000000002,%.17g,%.17g,%.17g,contour,0.90000000000000002,\r\n",
}


@pytest.mark.parametrize("name", sorted(_TEMPLATES))
@pytest.mark.parametrize(
    "rows",
    [
        1,
        _VECTOR_MIN_ROWS - 1,
        _VECTOR_MIN_ROWS,
        _CSV_BLOCK_ROWS + 1,
        _CSV_BLOCK_ROWS + _VECTOR_MIN_ROWS,
        2 * _CSV_BLOCK_ROWS + _VECTOR_MIN_ROWS - 1,
    ],
)
def test_tables_give_the_percent_template_bytes(tmp_path, name, rows):
    row_format = _TEMPLATES[name]
    rng = np.random.default_rng(rows)
    columns = []
    for conversion in lattice._CONVERSIONS.findall(row_format):
        if conversion == "%d":
            ints = rng.integers(-(10**6), 10**6, size=rows)
            ints[: min(rows, 4)] = [0, -1, np.iinfo(np.int64).min, np.iinfo(np.int64).max][: min(rows, 4)]
            columns.append(ints)
        else:
            columns.append(_awkward_floats(rng, rows))
    header = _HEADER + ["c"] * (len(columns) - 2)
    path = tmp_path / "table.csv"
    _write_csv(path, header, row_format, columns)
    assert path.read_bytes() == _reference_bytes(tmp_path / "reference.csv", header, row_format, columns)


def test_narrow_unsigned_index_columns_are_written_as_integers(tmp_path):
    sites = np.arange(300, dtype=np.uint16)
    columns = [np.repeat(sites, 3), np.tile(sites[:3], 300), np.linspace(-1, 1, 900)]
    row_format = "%d,%d,%.17g\r\n"
    _write_csv(tmp_path / "t.csv", ["x", "y", "v"], row_format, columns)
    reference = _reference_bytes(tmp_path / "r.csv", ["x", "y", "v"], row_format, columns)
    assert (tmp_path / "t.csv").read_bytes() == reference


def test_writer_rejects_what_the_template_cannot_format(tmp_path):
    with pytest.raises(TypeError, match="integers"):
        _write_csv(tmp_path / "t.csv", _HEADER, "%d,%.17g\r\n", [np.ones(3), np.ones(3)])
    with pytest.raises(ValueError, match="conversion"):
        _write_csv(tmp_path / "t.csv", _HEADER, "%.3f,%.17g\r\n", [np.ones(3), np.ones(3)])
    with pytest.raises(ValueError, match="columns"):
        _write_csv(tmp_path / "t.csv", _HEADER, "%.17g,%.17g\r\n", [np.ones(3), np.ones(4)])


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
_write_csv(sys.argv[1], ["i", "raw", "narrow"], "%d,%.17g,%.17g\\r\\n",
           [ints, raw.view(np.float64), narrow.view(np.float64)])
print(hashlib.sha256(open(sys.argv[1], "rb").read()).hexdigest())
"""


def _writer_digest(env, path):
    env = {**env, "PYTHONPATH": os.pathsep.join(filter(None, [_SRC, env.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-c", _WRITER_DIGEST_SCRIPT, str(path)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_writer_bytes_do_not_depend_on_the_simd_dispatch(tmp_path):
    umath = pytest.importorskip("numpy._core._multiarray_umath")
    # Turning off a feature this CPU lacks would change nothing.
    features = getattr(umath, "__cpu_features__", {})
    dispatch = [name for name in getattr(umath, "__cpu_dispatch__", []) if features.get(name)]
    if not dispatch:
        pytest.skip("this numpy build and CPU have no SIMD dispatch level to turn off")
    baseline = {**os.environ, "NPY_DISABLE_CPU_FEATURES": " ".join(dispatch)}
    assert _writer_digest(baseline, tmp_path / "off.csv") == _writer_digest(dict(os.environ), tmp_path / "on.csv")


_PEAK_SCRIPT = """
import sys
from ontofield.lattice import build_lattice
from ontofield.vacuum import EnsembleSpec, _correlator_bytes, ensemble_correlators

def run(points, path):
    # The CLI's vacuum run: one joint pass for the static and the evolved
    # estimate, then both CSVs.
    lattice = build_lattice([6.0] * len(points), points, 1.0)
    static, evolved = ensemble_correlators(EnsembleSpec(lattice, count=300, seed=4), (0.0, 0.5))
    static.write_csv(path)
    evolved.write_csv(path)

def status_bytes(field):
    # VmHWM is this address space's peak; ru_maxrss would start at the parent's.
    with open("/proc/self/status") as fh:
        line = next(line for line in fh if line.startswith(field + ":"))
    return int(line.split()[1]) * 1024

# A small run first, so one-time imports and caches are not counted.
run([8], sys.argv[1])
before = status_bytes("VmRSS")
run([16, 8, 8], sys.argv[1])
print(status_bytes("VmHWM") - before, _correlator_bytes(1024, 2))
"""


def test_correlator_peak_memory_stays_under_the_guard_estimate(tmp_path):
    if not Path("/proc/self/status").exists():
        pytest.skip("the peak resident size is read from /proc/self/status")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-c", _PEAK_SCRIPT, str(tmp_path / "correlator.csv")],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    peak, estimate = (int(v) for v in proc.stdout.split())
    # The two estimates' accumulators alone are 48 * 1024**2 bytes: a peak
    # far below it would mean the run did not take place.
    assert 30 * 1024**2 < peak <= estimate
