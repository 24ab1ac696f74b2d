"""Calibration of the benchmark's timings against a fixed reference workload.

On a shared host the speed of one core drifts by a third and more over
seconds to minutes, as other tenants load the cores and caches it shares, so
raw wall times of the same code differ more between runs than any useful
regression bound.  The benchmark therefore times :func:`reference`, a fixed
mix of the kinds of work the program does, before and after every op, and
reports each op as

    calibrated seconds = wall seconds * REFERENCE_S / (mean of the two reference times)

that is, the op's time on a host where the reference takes ``REFERENCE_S``.
A drift in host speed slows the op and the reference alike and cancels; a
change to the program moves the op's time and not the reference, and shows
in full.  The raw wall times are kept in the run record.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import time

import numpy as np

# Bound at import, so that the tracer's wrapper of ``scipy.integrate.quad``
# never counts the reference's calls.
from scipy.integrate import quad

# About the reference's median time on a 2-vCPU Intel Xeon cloud host
# (Python 3.11, numpy 2.4); calibrated seconds there read close to wall seconds.
REFERENCE_S = 0.025

_rng = np.random.default_rng(20230615)
_SMALL = _rng.standard_normal(64) + 1j * _rng.standard_normal(64)
_CUBE = _rng.standard_normal((32, 32, 32)) + 1j * _rng.standard_normal((32, 32, 32))
_BLOCK = _rng.standard_normal((8, 256)) + 1j * _rng.standard_normal((8, 256))
_FMT = "%.17g"
_CONFIG = {"experiment": "evolve", "mass": 1.0, "points": [48, 48, 48], "k0": [1.0, 0.5, 0.0], "steps": 8}


def _remainder(k: float) -> float:
    return k * np.sqrt(k * k + 1.0) - k * k - 0.5


def _cli_round_trip() -> None:
    parser = argparse.ArgumentParser(prog="reference")
    run = parser.add_subparsers(dest="command").add_parser("run")
    run.add_argument("config")
    run.add_argument("--output-dir")
    parser.parse_args(["run", "config.json", "--output-dir", "out"])
    json.loads(json.dumps(_CONFIG, indent=2, sort_keys=True))


def reference() -> int:
    """About 25 ms of work in the program's proportions on the reference host.

    Interpreted loops, scalar quadrature callbacks through ``quad``, argument
    parsing and JSON (per-op CLI overhead), small numpy calls (per-call
    overhead, short FFTs), 17-digit CSV writing and reading (snapshots and
    correlators), whole-array stencil arithmetic on a 32^3 complex cube, and
    an outer-product accumulation over 256 sites (correlators).
    """
    total = 0
    for i in range(15000):
        total += i * i
    for z in (1.0, 2.0, 3.0, 4.0):
        quad(_remainder, 0.0, 40.0, weight="sin", wvar=z, limit=200, epsabs=1e-13, epsrel=1e-12)
    for _ in range(5):
        _cli_round_trip()
    for _ in range(150):
        np.roll(_SMALL, 1)
        np.fft.fft(_SMALL[:32])
    buf = io.StringIO()
    writer = csv.writer(buf)
    for v in _CUBE.ravel()[:2000]:
        writer.writerow([_FMT % v.real, _FMT % v.imag])
    buf.seek(0)
    for row in csv.reader(buf):
        total += complex(float(row[0]), float(row[1])) != 0
    for _ in range(4):
        _CUBE * 0.5 + np.roll(_CUBE, 1, axis=0)
    np.einsum("sx,sy->xy", _BLOCK.conj(), _BLOCK)
    abs_sq = np.abs(_BLOCK) ** 2
    np.einsum("sx,sy->xy", abs_sq, abs_sq)
    return total


def time_reference() -> float:
    """Wall seconds of one call of :func:`reference`."""
    start = time.perf_counter()
    reference()
    return time.perf_counter() - start


def calibrated(wall_s: float, ref_before: float, ref_after: float) -> float:
    """``wall_s`` scaled to a host on which the reference takes ``REFERENCE_S``."""
    return wall_s * REFERENCE_S / (0.5 * (ref_before + ref_after))
