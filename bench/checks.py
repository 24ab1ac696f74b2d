"""Correctness gate of the benchmark.

An op fails when the CLI exits non-zero, when a data file's sha256 differs
between passes of the same config within one run, when a manifest result
breaks a seed-independent physics bound, or when a read-back snapshot has the
wrong shape or time stamp.  No bound here depends on the seed.
"""

from __future__ import annotations

import hashlib
import math
from pathlib import Path

from workloads import as_list

# Operator identities and the cyclic spectrum hold exactly; only roundoff is
# allowed.
IDENTITY_TOL = 1e-12
IDENTITY_KEYS = (
    "unitarity_defect",
    "eigen_residual",
    "unequal_time_commutator_max",
    "reconstruction_defect_interior",
    "truncation_defect_interior",
    "shift_number_defect",
    "qp_defect",
)
SPECTRUM_KEYS = ("periodicity_defect", "diagonalization_leakage", "eigenphase_defect")
DECAY_REL_TOL = 0.05
FRONT_REL_TOL = 0.02
ENERGY_DRIFT_TOL = 1e-6
# Chance that one clean correlator estimate shows a pull above the bound.
PULL_FALSE_ALARM = 1e-6


def pull_bound(entries: int) -> float:
    """Largest correlator pull a correct ensemble shows with near certainty.

    An off-diagonal pull is ``|mean| / stderr`` of a complex mean with equal
    real and imaginary variances, so it is Rayleigh distributed with
    ``P(pull > r) = exp(-r^2)``; the diagonal pulls are half-normal and have
    a thinner tail.  Over ``entries`` entries the bound with false-alarm
    chance ``PULL_FALSE_ALARM`` is ``sqrt(ln(entries / PULL_FALSE_ALARM))``,
    just under 5 for the 65536 entries of a 256-site lattice.
    """
    return math.sqrt(math.log(entries / PULL_FALSE_ALARM))


def grid_shape(cfg: dict) -> tuple[int, ...]:
    return tuple(as_list(cfg["points"]))


def _below(value, bound: float) -> bool:
    # NaN and non-numbers fail every bound.
    return isinstance(value, (int, float)) and value < bound


def physics_violations(cfg: dict, results: dict) -> list[str]:
    """Seed-independent bounds on one experiment's manifest results."""
    experiment = cfg["experiment"]
    problems = []
    if experiment == "identities":
        keys = IDENTITY_KEYS
    elif experiment == "spectrum":
        keys = SPECTRUM_KEYS
    else:
        keys = ()
    for key in keys:
        if not _below(results.get(key), IDENTITY_TOL):
            problems.append(f"{key}={results.get(key)!r} not below {IDENTITY_TOL}")
    if experiment in ("kernel", "decay") and results.get("points") != cfg["z_count"]:
        problems.append(f"points={results.get('points')!r}, expected {cfg['z_count']}")
    if experiment == "decay":
        mass = cfg["mass"]
        if not _below(abs(results.get("slope", math.nan) + mass), DECAY_REL_TOL * mass):
            problems.append(f"decay slope {results.get('slope')!r} not within 5% of {-mass}")
    if experiment == "front":
        k0 = cfg["k0"]
        group = k0 / math.sqrt(k0 * k0 + cfg["mass"] ** 2)
        speed = results.get("speed", math.nan)
        if not _below(abs(speed - group), FRONT_REL_TOL * abs(group)):
            problems.append(f"front speed {speed!r} not within 2% of group velocity {group!r}")
        if results.get("trackable") is not True:
            problems.append("front not trackable")
    if experiment == "evolve":
        expected = len(snapshot_times(cfg))
        if results.get("snapshots") != expected:
            problems.append(f"snapshots={results.get('snapshots')!r}, expected {expected}")
    if experiment == "interact":
        if results.get("steps") != cfg["steps"]:
            problems.append(f"steps={results.get('steps')!r}, expected {cfg['steps']}")
        drift = results.get("energy_drift")
        if not _below(drift, ENERGY_DRIFT_TOL):
            problems.append(f"energy_drift={drift!r} not below {ENERGY_DRIFT_TOL}")
    if experiment == "vacuum":
        sites = math.prod(grid_shape(cfg))
        bound = pull_bound(sites * sites)
        parts = ["static"] + (["evolved"] if cfg.get("evolve_time") is not None else [])
        for part in parts:
            summary = results.get(part, {})
            if summary.get("zero_variance_entries") != 0:
                problems.append(f"{part}: zero_variance_entries={summary.get('zero_variance_entries')!r}")
            for key in ("max_diagonal_pull", "max_offdiagonal_pull"):
                if not _below(summary.get(key), bound):
                    problems.append(f"{part}: {key}={summary.get(key)!r} not below {bound:.3f}")
    return problems


def snapshot_times(cfg: dict) -> list[float]:
    """Time stamps ``evolve`` records: step 0, every ``record_every``-th, the last."""
    dt, steps, every = cfg["dt"], cfg["steps"], cfg.get("record_every", 1)
    return [0.0] + [n * dt for n in range(1, steps + 1) if n % every == 0 or n == steps]


def readback_targets(configs: dict[str, dict], pass_dir: Path) -> list[tuple[Path, tuple, float]]:
    """Every snapshot a pass writes, with the shape and time it must read back as."""
    targets = []
    if "evolve" in configs:
        cfg = configs["evolve"]
        for i, t in enumerate(snapshot_times(cfg)):
            targets.append((pass_dir / "evolve" / f"snapshot_{i:04d}.csv", grid_shape(cfg), t))
    if "interact" in configs:
        cfg = configs["interact"]
        targets.append(
            (pass_dir / "interact" / "final_field.csv", grid_shape(cfg), 0.0 + cfg["steps"] * cfg["dt"])
        )
    return targets


def data_digests(out_dir: Path) -> dict[str, str]:
    """sha256 of every data file of one run; the manifest carries timing and is skipped."""
    digests = {}
    for path in sorted(out_dir.iterdir()):
        if path.name == "manifest.json" or not path.is_file():
            continue
        sha = hashlib.sha256()
        with path.open("rb") as fh:
            for chunk in iter(lambda: fh.read(1 << 20), b""):
                sha.update(chunk)
        digests[path.name] = sha.hexdigest()
    return digests


def digest_mismatches(reference: dict[str, str], digests: dict[str, str]) -> list[str]:
    names = sorted(set(reference) | set(digests))
    return [f"{name}: sha256 differs from the first pass" for name in names if reference.get(name) != digests.get(name)]
