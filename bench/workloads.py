"""Seeded experiment configs for the two benchmark workloads.

``readme`` is the eight configs printed in README.md, run verbatim apart from
the seeded fields: small arrays, where per-call Python overhead, the per-sample
RNG, the FFT calls on 32 points and the scalar quadrature callbacks dominate.

``scaled3d`` runs ``evolve``, ``interact`` and ``vacuum`` on large 3D arrays,
where snapshot and correlator formatting, stencil arithmetic and correlator
accumulation dominate.  Its other five configs are the README ones unchanged,
so that every end-to-end metric exists on both workloads; they are under a
tenth of its pass.

The seed sets the vacuum ``seed``, and shifts every packet centre and every
kernel z-grid by a seeded fraction of one grid step.  It never changes an
input size, so two seeds do the same amount of work.
"""

from __future__ import annotations

import copy

import numpy as np

# Experiments whose summed wall time is reported as ``run_s.quick``.
QUICK = ("identities", "spectrum", "decay", "front")

README = {
    "identities": {"experiment": "identities", "n_levels": 8, "omega": 2.0},
    "spectrum": {"experiment": "spectrum", "n_states": 6, "delta_t": 0.5},
    "kernel": {
        "experiment": "kernel",
        "kind": "F1",
        "mass": 1.0,
        "cutoff": 240.0,
        "method": "radial_reduced",
        "window": "septic",
        "taper_frac": 0.5,
        "z_start": 0.5,
        "z_stop": 5.0,
        "z_count": 40,
    },
    "decay": {
        "experiment": "decay",
        "mass": 1.0,
        "cutoff": None,
        "method": "contour",
        "z_start": 2.0,
        "z_stop": 8.0,
        "z_count": 25,
    },
    "front": {
        "experiment": "front",
        "mass": 1.0,
        "box_length": 128.0,
        "points": 1024,
        "cutoff": None,
        "k0": 1.0,
        "center": 32.0,
        "width": 8.0,
        "dt": 2.0,
        "steps": 20,
    },
    "evolve": {
        "experiment": "evolve",
        "mass": 1.0,
        "box_length": 16.0,
        "points": 32,
        "cutoff": None,
        "k0": 1.0,
        "center": 4.0,
        "width": 2.0,
        "dt": 0.5,
        "steps": 4,
        "record_every": 2,
    },
    "interact": {
        "experiment": "interact",
        "mass": 1.0,
        "box_length": 32.0,
        "points": 64,
        "cutoff": None,
        "k0": 1.0,
        "center": 8.0,
        "width": 3.0,
        "amplitude": 0.05,
        "lambda": 0.1,
        "dt": 0.24,
        "steps": 10000,
        "record_every": 100,
    },
    "vacuum": {
        "experiment": "vacuum",
        "mass": 1.0,
        "box_length": 6.283185307179586,
        "points": 32,
        "cutoff": None,
        "samples": 10000,
        "evolve_time": 1.0,
        "seed": 6,
    },
}

SCALED3D = {
    **README,
    "evolve": {
        "experiment": "evolve",
        "mass": 1.0,
        "box_length": [24.0, 24.0, 24.0],
        "points": [48, 48, 48],
        "cutoff": None,
        "k0": [1.0, 0.5, 0.0],
        "center": [6.0, 6.0, 6.0],
        "width": 2.0,
        "dt": 0.5,
        "steps": 8,
        "record_every": 4,
    },
    "interact": {
        "experiment": "interact",
        "mass": 1.0,
        "box_length": [32.0, 32.0, 32.0],
        "points": [32, 32, 32],
        "cutoff": None,
        "k0": [1.0, 0.0, 0.0],
        "center": [8.0, 16.0, 16.0],
        "width": 3.0,
        "amplitude": 0.05,
        "lambda": 0.1,
        "dt": 0.25,
        "steps": 200,
        "record_every": 20,
    },
    "vacuum": {
        "experiment": "vacuum",
        "mass": 1.0,
        "box_length": [6.283185307179586, 6.283185307179586, 3.141592653589793],
        "points": [8, 8, 4],
        "cutoff": None,
        "samples": 2000,
        "evolve_time": 1.0,
        "seed": 6,
    },
}

WORKLOADS = {"readme": README, "scaled3d": SCALED3D}

# Reduced sizes for the benchmark's self-tests: same experiments and code
# paths, a small fraction of the work.
SMOKE = {
    "readme": {
        "kernel": {"z_count": 6},
        "interact": {"steps": 400},
        "vacuum": {"samples": 1000},
    },
    "scaled3d": {
        "kernel": {"z_count": 6},
        "evolve": {"points": [16, 16, 16]},
        "interact": {"points": [16, 16, 16], "steps": 40},
        "vacuum": {"box_length": [6.283185307179586] * 3, "points": [4, 4, 4], "samples": 500},
    },
}


def as_list(value) -> list:
    return list(value) if isinstance(value, list) else [value]


def generate(workload: str, seed: int, smoke: bool = False) -> dict[str, dict]:
    """Configs of one workload pass, keyed by experiment, with seeded fields set."""
    configs = copy.deepcopy(WORKLOADS[workload])
    if smoke:
        for name, overrides in SMOKE[workload].items():
            configs[name].update(overrides)
    seed = seed % 2**63
    rng = np.random.default_rng(seed)
    for cfg in configs.values():
        if cfg["experiment"] == "vacuum":
            cfg["seed"] = seed
        if "center" in cfg:
            lengths, points = as_list(cfg["box_length"]), as_list(cfg["points"])
            shifted = [
                c + rng.uniform() * (l / n)
                for c, l, n in zip(as_list(cfg["center"]), lengths, points)
            ]
            cfg["center"] = shifted if isinstance(cfg["center"], list) else shifted[0]
        if cfg["experiment"] in ("kernel", "decay"):
            step = (cfg["z_stop"] - cfg["z_start"]) / max(cfg["z_count"] - 1, 1)
            shift = rng.uniform() * step
            cfg["z_start"] += shift
            cfg["z_stop"] += shift
    return configs
