"""Scripts run in a fresh interpreter on this checkout's sources, and the peak memory they take.

A test that needs its own process (a dispatch level set by environment, a
capped address space, a peak resident size that starts small) runs a script
through :func:`run_script`; :func:`peak_bytes` is the one peak-memory harness.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import ontofield

SRC = str(Path(ontofield.__file__).resolve().parents[1])


def with_src(env: dict) -> dict:
    """``env`` with this checkout's ``src`` first on ``PYTHONPATH``, for a subprocess."""
    return {**env, "PYTHONPATH": os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))}


def run_script(script: str, *args, env: dict | None = None, timeout: float = 120) -> str:
    """The stdout of ``python -c script *args`` under ``env``, this process's by default.

    A nonzero exit fails the calling test with the script's stderr.
    """
    proc = subprocess.run(
        [sys.executable, "-c", script, *map(str, args)],
        env=with_src(dict(os.environ) if env is None else env), capture_output=True, text=True, timeout=timeout,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


# Appended to a script that defines warm() and run().
_PEAK_TAIL = """
def status_bytes(field):
    # VmHWM is this address space's peak; ru_maxrss would start at the parent's.
    with open("/proc/self/status") as fh:
        line = next(line for line in fh if line.startswith(field + ":"))
    return int(line.split()[1]) * 1024

# warm() first, so one-time imports, tables and caches are not counted.
warm()
before = status_bytes("VmRSS")
run()
print(status_bytes("VmHWM") - before)
"""


def peak_bytes(script: str, *args, timeout: float = 120) -> int:
    """Bytes by which ``run()`` lifts the peak resident size above the resident size after ``warm()``.

    ``script`` defines both functions and runs in a fresh interpreter (see
    :func:`run_script`), whose peak starts small.  The calling test is
    skipped where ``/proc/self/status`` does not exist.
    """
    if not Path("/proc/self/status").exists():
        pytest.skip("the peak resident size is read from /proc/self/status")
    return int(run_script(script + _PEAK_TAIL, *args, timeout=timeout))
