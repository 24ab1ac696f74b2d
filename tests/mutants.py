"""The mutation ledger: wrong physics that the test suite should refuse, and the tests that do.

Each mutant changes one exact string of one file of ``src/ontofield`` and
names the physics claim the change breaks.  The golden and verdict digests
catch almost any change, but a declared re-record sets them aside by design,
so the ledger asks which wrong physics the rest of the suite lets through.

For each mutant the script exports the committed tree (``git archive``, of
``HEAD`` unless ``--rev`` says otherwise) into a temporary directory, applies
the one replacement there, and runs the suite in that copy with
``tests/test_golden.py`` and ``tests/test_verdicts.py`` ignored.  The checkout
itself is never written.  It prints the tests that failed: the mutant's
killers.  The unmutated export runs first, and a failure there stops the
script, since every mutant would then look killed.

    python tests/mutants.py                    # every mutant
    python tests/mutants.py force_mass vacuum_phases
    python tests/mutants.py --list

It is a ledger, not a gate: a surviving mutant leaves the exit status 0.  A
mutant whose ``old`` string is not found exactly once in its file is
reported as stale, not run, and makes the exit status 1, so that a moved
line fails loudly.  Each run of the suite took about 25 s on a 2 vCPU host.
Its name does not match ``test_*.py``, so pytest does not collect it.  It
needs only the standard library and ``git``.
"""

from __future__ import annotations

import argparse
import io
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
IGNORED = ("tests/test_golden.py", "tests/test_verdicts.py")
TIMEOUT_S = 900


class Mutant(NamedTuple):
    name: str
    path: str
    old: str
    new: str
    claim: str


MUTANTS = (
    Mutant(
        "lattice_omega", "src/ontofield/lattice.py",
        "return np.sqrt(self._k_sq() + self.mass**2)", "return np.sqrt(self._k_sq() + self.mass**2) * 1.01",
        "the lattice dispersion omega(k) = sqrt(k.k + M^2)",
    ),
    Mutant(
        "vacuum_evolve_time", "src/ontofield/vacuum.py",
        "spectral_evolve(modes, lattice, t, out=out)", "spectral_evolve(modes, lattice, t * 1.01, out=out)",
        "the evolved vacuum estimate is the one at the requested time",
    ),
    Mutant(
        "force_mass", "src/ontofield/dynamics.py",
        "for c in (mass_sq, coupling / 6.0)", "for c in (mass_sq * 1.01, coupling / 6.0)",
        "the leapfrog force's mass term M^2 b",
    ),
    Mutant(
        "force_cubic", "src/ontofield/dynamics.py",
        "for c in (mass_sq, coupling / 6.0)", "for c in (mass_sq, coupling / 5.0)",
        "the leapfrog force's cubic term (lambda/6) b^3",
    ),
    Mutant(
        "energy_acc", "src/ontofield/dynamics.py",
        "0.125 * dt**2", "0.12 * dt**2",
        "the staggered energy's -(dt^2/8) acc^2 term, which makes the quadratic energy a leapfrog invariant",
    ),
    Mutant(
        "energy_quartic", "src/ontofield/dynamics.py",
        "coupling / 24.0", "coupling / 20.0",
        "the energy's quartic term lambda b^4/24, the one the force's cubic term conserves",
    ),
    Mutant(
        "cyclic_levels", "src/ontofield/cyclic.py",
        "return config.omega * np.arange(config.n_states)",
        "return config.omega * (np.arange(config.n_states) + 0.5)",
        "the cyclic automaton's spectrum E_n = n omega",
    ),
    Mutant(
        "vacuum_phases", "src/ontofield/vacuum.py",
        "theta *= 2.0 * np.pi", "theta *= 1.9 * np.pi",
        "vacuum phases uniform on the whole circle",
    ),
    Mutant(
        "group_velocity", "src/ontofield/kernels.py",
        "return k_arr / np.sqrt(np.sum(k_arr**2) + mass**2)",
        "return k_arr / np.sqrt(np.sum(k_arr**2) + mass**2) * 1.01",
        "a packet moves at the group velocity k / sqrt(k.k + M^2)",
    ),
    Mutant(
        "f1_contour", "src/ontofield/kernels.py",
        "return -scale * raw, ", "return -scale * raw * 1.001, ",
        "the static kernel F1 by its contour route",
    ),
    Mutant(
        "f2_dispersion", "src/ontofield/kernels.py",
        "trig(math.sqrt(k * k + mass * mass) * t)", "trig(math.sqrt(k * k + mass * mass * 1.01) * t)",
        "the windowed F2 route's phase omega(k) t, omega = sqrt(k^2 + M^2)",
    ),
    Mutant(
        "f2_imag", "src/ontofield/kernels.py",
        "part(math.sin, -1.0)", "part(math.sin, -1.02)",
        "the windowed F2 route's imaginary part, -sin(omega t)",
    ),
    Mutant(
        "nested_bare_range", "src/ontofield/kernels.py",
        "bare - piece", "bare + piece",
        "a probe's bare range [0, k_start] is the cutoff's less the bare pieces between successive taper starts",
    ),
    Mutant(
        "transform_axis_order", "src/ontofield/lattice.py",
        "for axis in reversed(range(first, len(shape))):", "for axis in range(first, len(shape)):",
        "the lattice transforms give numpy's n-D bits: the same 1-D passes, last axis first",
    ),
)


def export(rev: str, into: Path) -> None:
    """Unpack the tree of ``rev`` into the directory ``into``."""
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev], capture_output=True, check=True)
    with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
        tar.extractall(into, filter="data")


def killers(copy: Path) -> list[str]:
    """The tests that fail or error in the suite of ``copy``, run on its own sources."""
    env = {**os.environ, "PYTHONPATH": str(copy / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    command = [
        sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider", "--continue-on-collection-errors",
        *(f"--ignore={path}" for path in IGNORED),
    ]
    try:
        proc = subprocess.run(command, cwd=copy, env=env, capture_output=True, text=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return [f"(the suite ran past {TIMEOUT_S} s)"]
    failed = [line.split()[1] for line in proc.stdout.splitlines() if line.startswith(("FAILED ", "ERROR "))]
    if proc.returncode not in (0, 1) and not failed:
        failed = [f"(pytest exited {proc.returncode}: {proc.stdout.strip().splitlines()[-1:]})"]
    return failed


def run(mutant: Mutant | None, rev: str) -> list[str] | None:
    """The killers of ``mutant`` (of the unmutated tree for ``None``), or ``None`` if it is stale."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        copy = Path(tmp)
        export(rev, copy)
        if mutant is not None:
            target = copy / mutant.path
            source = target.read_text()
            if source.count(mutant.old) != 1:
                return None
            target.write_text(source.replace(mutant.old, mutant.new))
        return killers(copy)


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("names", nargs="*", help="mutants to run (default: all)")
    parser.add_argument("--rev", default="HEAD", help="the commit to export (default: HEAD)")
    parser.add_argument("--list", action="store_true", help="list the mutants and run nothing")
    args = parser.parse_args(argv)
    unknown = set(args.names) - {m.name for m in MUTANTS}
    if unknown:
        parser.error(f"unknown mutants: {sorted(unknown)}")
    chosen = [m for m in MUTANTS if not args.names or m.name in args.names]
    if args.list:
        for m in chosen:
            print(f"{m.name}: {m.path}: {m.old!r} -> {m.new!r}\n    breaks: {m.claim}")
        return 0
    baseline = run(None, args.rev)
    if baseline:
        print("the unmutated tree fails, so no mutant can be judged:", *baseline, sep="\n  ")
        return 1
    stale = 0
    for m in chosen:
        found = run(m, args.rev)
        print(f"{m.name} ({m.path}; breaks: {m.claim})")
        if found is None:
            stale += 1
            print(f"  STALE: {m.old!r} is not in the file exactly once")
        elif found:
            print(f"  killed by {len(found)}:", *found, sep="\n    ")
        else:
            print("  SURVIVED")
        sys.stdout.flush()
    return 1 if stale else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
