"""Config-driven command line for the experiment suite.

``ontofield run config.json`` validates the config against the experiment's
schema, runs it, and writes CSV artifacts plus a ``manifest.json`` capturing
the resolved config, library version, and wall time.  ``ontofield validate
config.json`` reports schema violations without computing anything.

Exit codes: 0 success, 2 schema violation, 3 numerical failure (error type
``numerical``, or ``memory`` for a run that could not allocate), 4 I/O
failure.  Output CSVs are deterministic for a given config and seed (floats
carry 17 significant digits); everything time-dependent lives in the
manifest's ``timing`` block so repeated runs produce byte-identical data
files.

Physics parameters (mass, coupling, cutoff, level counts, time steps) have
no silent defaults: the config must state them, with ``null`` as the
explicit way to request an uncut lattice.  The seed defaults to 0 and the
``--seed`` flag overrides the config; ``--output-dir`` (or the
ONTOFIELD_OUTPUT_DIR environment variable) overrides the config's output
directory.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import os
import sys
import time
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

import ontofield
from ontofield import __version__
from ontofield._rules import (
    Problems, Rule, as_tuple, finite, integer_at_least, is_integer, is_real, nullable, one_of, positive_finite,
)
from ontofield.cyclic import CycleConfig, basis_change, energy_levels, evolution_matrix
from ontofield.dynamics import (
    FrontTrackingError,
    InstabilityError,
    _front_problems,
    _leapfrog_problems,
    _packet_problems,
    _schedule,
    evolve_convolution,
    gaussian_packet,
    leapfrog_interact,
    spectral_run,
    stability_bound,
    wavefront_measure,
)
from ontofield.kernels import (
    _MIN_FIT_POINTS, KernelSpec, QuadratureError, _radius_problem, _spec_problems, decay_fit, kernel_table,
)
from ontofield.ladder import (
    TimedOperator,
    build_mode,
    b_eigensystem,
    commutator_defect,
    evolve_operator,
    reconstruct_a,
    truncate_from_a,
)
from ontofield.lattice import (
    ComplexField, _lattice_problems, _phase_problems, _spacings, _write_csv, build_lattice, save_field,
)
from ontofield.vacuum import (
    CorrelatorEstimate,
    EnsembleSpec,
    _memory_problems,
    _strips,
    ensemble_correlators,
)

# Not called here, but bench/spans.py wraps it as an attribute of this module.
from ontofield.vacuum import ensemble_correlator  # noqa: F401

__all__ = ["main"]

EXIT_SCHEMA = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4

_ENV_OUTPUT_DIR = "ONTOFIELD_OUTPUT_DIR"

# --- schema ------------------------------------------------------------------
#
# Each key's value, whatever its JSON type, goes to one rule: the rule of the
# library argument the key sets (_Experiment.rules), which refuses a wrong
# type too.

_REQUIRED = object()  # the default of a key the config must state
_LATTICE_KEYS = dict.fromkeys(("mass", "box_length", "points", "cutoff"), _REQUIRED)
_PACKET_KEYS = {
    **dict.fromkeys(("k0", "width", "dt", "steps"), _REQUIRED), "center": None, "amplitude": 1.0, "record_every": 1,
}
_KERNEL_KEYS = {
    **dict.fromkeys(("mass", "cutoff", "z_start", "z_stop", "z_count"), _REQUIRED),
    "window": KernelSpec.window, "taper_frac": KernelSpec.taper_frac,
}

# Library argument -> the config key that sets it, where the two differ.
_CONFIG_KEY = {"box_lengths": "box_length", "grid_points": "points", "coupling": "lambda", "count": "samples"}


def _keyed(*tables: dict[str, Rule]) -> dict[str, Rule]:
    """Rule tables merged and keyed by config key; a later table's rule wins."""
    return {_CONFIG_KEY.get(arg, arg): rule for table in tables for arg, rule in table.items()}


# The CLI's own rules: a z grid above 0, a positive amplitude, an optional
# center, the counts, the span 4*pi/omega the identities time pairs are drawn
# below, the evolve method, and an optional evolved vacuum time.
_Z_GRID = {"z_start": positive_finite, "z_stop": positive_finite}
_PACKET_RULES = _keyed(ontofield.lattice._RULES, ontofield.dynamics._RULES,
                       {"amplitude": positive_finite, "center": nullable(ontofield.dynamics._RULES["center"])})
_SPAN = {"omega": lambda omega: ontofield.ladder._RULES["omega"](omega)
         or (None if is_real(4.0 * np.pi / omega) else f"must leave a finite time-pair span 4*pi/omega, got {omega!r}")}


def _lattice_args(params: dict) -> tuple:
    return params["box_length"], params["points"], params["mass"], params["cutoff"]


def _center(params: dict):
    """The packet's center: the config's, or a quarter of each box length."""
    if params["center"] is None:
        return [0.25 * l for l in as_tuple(params["box_length"])]
    return params["center"]


def _evolve_times(params: dict) -> tuple:
    """The vacuum run's estimate times: the static one, and the evolved one if asked for."""
    return (0.0,) if params["evolve_time"] is None else (0.0, params["evolve_time"])


def _kernel_fields(params: dict) -> dict:
    # The decay experiment tabulates the static kernel and states no kind or t.
    names = [field.name for field in dataclasses.fields(KernelSpec)]
    return {"kind": "F1", "t": 0.0, **{name: params[name] for name in names if name in params}}


def _check_kernel(params: dict) -> Problems:
    """The z grid's own rule, and the library's objections to the kernel and to the grid's first radius."""
    fields = _kernel_fields(params)
    found = [("z_stop", "must exceed z_start")] if params["z_stop"] <= params["z_start"] else []
    radius = _radius_problem(fields["kind"], fields["method"], fields["t"], params["z_start"])
    return found + _spec_problems(**fields) + ([("z_start", radius)] if radius else [])


def _setup_problems(params: dict) -> Problems:
    """The library's objections to a packet run's lattice and initial packet."""
    dims = len(as_tuple(params["box_length"]))
    packet = _packet_problems(dims, params["k0"], _center(params), params["width"], params["amplitude"])
    return _lattice_problems(*_lattice_args(params)) + packet


def _last_phase_problems(params: dict) -> Problems:
    """The library's objection to a spectral run's last phase, reported under ``dt``.

    The run evolves up to ``steps * dt``, and the phase grows with ``|t|``,
    so the last time is the one to check.  A step count past the largest
    double makes that time infinite.
    """
    steps, dt = params["steps"], params["dt"]
    last = dt * steps if steps <= sys.float_info.max else math.inf
    spacings = _spacings(params["box_length"], params["points"])
    return [("dt", message) for _, message in _phase_problems(spacings, params["mass"], last)]


def validate_config(raw: object) -> list[str]:
    """Full list of schema violations; empty means the config is runnable.

    Each value goes to the rule of the library argument its key sets.  Once
    every key has passed, the experiment's ``check`` reports the library's
    objections that read several keys.
    """
    if not isinstance(raw, dict):
        return ["config root must be a JSON object"]
    experiment = raw.get("experiment")
    if not (isinstance(experiment, str) and experiment in _EXPERIMENTS):
        return [f"key 'experiment': expected one of {tuple(_EXPERIMENTS)}, got {experiment!r}"]
    violations: list[str] = []
    entry = _EXPERIMENTS[experiment]
    seed = raw.get("seed", 0)
    if not (is_integer(seed) and seed >= 0):
        violations.append("key 'seed': expected a nonnegative integer")
    out_dir = raw.get("output_dir")
    if out_dir is not None and not isinstance(out_dir, str):
        violations.append("key 'output_dir': expected a string path")
    known = set(entry.keys) | {"experiment", "seed", "output_dir"}
    for key in raw:
        if key not in known:
            violations.append(f"key {key!r}: not recognized for experiment {experiment!r}")
    for key, default in entry.keys.items():
        if key not in raw:
            if default is _REQUIRED:
                violations.append(f"key {key!r}: required for experiment {experiment!r} but missing")
            continue
        message = entry.rules[key](raw[key])
        if message is not None:
            violations.append(f"key {key!r}: {message}")
    if not violations:
        params = _apply_defaults(experiment, raw)
        violations.extend(f"key {_CONFIG_KEY.get(arg, arg)!r}: {message}" for arg, message in entry.check(params))
    return violations


def _apply_defaults(experiment: str, raw: dict) -> dict:
    return {key: raw.get(key, default) for key, default in _EXPERIMENTS[experiment].keys.items()}


# --- experiment runners ------------------------------------------------------

def _run_identities(params: dict, seed: int, out: Path) -> dict:
    n = params["n_levels"]
    omega = params["omega"]
    ops = build_mode(n, omega)
    eye = np.eye(n)
    unitarity = float(np.max(np.abs(ops.b @ ops.b_dag - eye)))
    values, vectors = b_eigensystem(ops)
    eigen_residual = float(np.max(np.abs(ops.b @ vectors - vectors * values)))
    rebuilt = reconstruct_a(ops)
    recon_defect = float(np.max(np.abs((rebuilt - ops.a)[:, 1:])))
    recon_wrap = complex(rebuilt[n - 1, 0])
    truncated = truncate_from_a(ops)
    trunc_defect = float(np.max(np.abs((truncated - ops.b)[:, 1:])))
    report = commutator_defect(ops)
    rng = np.random.default_rng(seed)
    pairs = rng.uniform(0.0, 4.0 * np.pi / omega, size=(params["time_pairs"], 2))
    timed_defect = 0.0
    for t1, t2 in pairs:
        bt1 = evolve_operator(TimedOperator(ops.b, omega, "lowering"), t1)
        bdag_t2 = evolve_operator(TimedOperator(ops.b_dag, omega, "raising"), t2)
        timed_defect = max(timed_defect, float(np.max(np.abs(bt1 @ bdag_t2 - bdag_t2 @ bt1))))
    results = {
        "n_levels": n,
        "omega": omega,
        "unitarity_defect": unitarity,
        "eigen_residual": eigen_residual,
        "unequal_time_commutator_max": timed_defect,
        "reconstruction_defect_interior": recon_defect,
        "reconstruction_wrap_entry": [recon_wrap.real, recon_wrap.imag],
        "truncation_defect_interior": trunc_defect,
        "shift_number_defect": report.shift_defect,
        "shift_wrap_entry": [report.shift_wrap_entry.real, report.shift_wrap_entry.imag],
        "qp_defect": report.qp_defect,
        "qp_top_entry": [report.qp_top_entry.real, report.qp_top_entry.imag],
    }
    (out / "identities.json").write_text(_dumps(_jsonable(results), indent=2, sort_keys=True) + "\n")
    return results


def _run_spectrum(params: dict, seed: int, out: Path) -> dict:
    config = CycleConfig(params["n_states"], params["delta_t"])
    n = config.n_states
    hop = evolution_matrix(config)
    periodicity = float(np.max(np.abs(np.linalg.matrix_power(hop, n) - np.eye(n))))
    basis = basis_change(config)
    diagonalized = basis.conj().T @ hop @ basis
    off = diagonalized - np.diag(np.diag(diagonalized))
    leakage = float(np.max(np.abs(off)))
    energies = energy_levels(config)
    phase_defect = float(
        np.max(np.abs(np.diag(diagonalized) - np.exp(-1j * energies * config.delta_t)))
    )
    _write_csv(out / "spectrum.csv", ["n", "energy"], [np.arange(n), energies])
    return {
        "n_states": n,
        "delta_t": config.delta_t,
        "omega": config.omega,
        "periodicity_defect": periodicity,
        "diagonalization_leakage": leakage,
        "eigenphase_defect": phase_defect,
    }


def _tabulate(params: dict, path: Path):
    """Tabulate the configured kernel on its z grid and write it to ``path``."""
    spec = KernelSpec(**_kernel_fields(params))
    z = np.linspace(params["z_start"], params["z_stop"], params["z_count"])
    table = kernel_table(spec, z)
    table.write_csv(path)
    return table


def _run_kernel(params: dict, seed: int, out: Path) -> dict:
    table = _tabulate(params, out / "kernel.csv")
    return {
        "kind": table.kind,
        "method": table.method,
        "points": int(table.z.size),
        "max_error_estimate": float(np.max(table.errors)),
    }


def _run_decay(params: dict, seed: int, out: Path) -> dict:
    table = _tabulate(params, out / "decay.csv")
    fit = decay_fit(table)
    return {
        "mass": params["mass"],
        "slope": fit.slope,
        "intercept": fit.intercept,
        "residual": fit.residual,
        "points": int(table.z.size),
    }


def _build_lattice(params: dict):
    return build_lattice(*_lattice_args(params))


def _initial_packet(params: dict, lattice) -> ComplexField:
    return gaussian_packet(lattice, params["k0"], _center(params), params["width"], params["amplitude"])


def _run_front(params: dict, seed: int, out: Path) -> dict:
    lattice = _build_lattice(params)
    packet = _initial_packet(params, lattice)
    run = spectral_run(packet, lattice, params["dt"], params["steps"], params["record_every"])
    measured = wavefront_measure(run, params["k0"])
    _write_csv(out / "front.csv", ["t", "peak_position"], [measured.times, measured.positions])
    return {
        "speed": measured.speed,
        "expected_speed": measured.expected_speed,
        "max_displacement": measured.max_displacement,
        "min_contrast": measured.min_contrast,
        "trackable": measured.trackable,
    }


def _run_evolve(params: dict, seed: int, out: Path) -> dict:
    lattice = _build_lattice(params)
    packet = _initial_packet(params, lattice)
    dt, steps, every = params["dt"], params["steps"], params["record_every"]
    times, norms = [], []

    def record(snap: ComplexField) -> None:
        # Each record is written as it is made, so the run holds one snapshot.
        norms.append(float(np.linalg.norm(snap.values)))
        save_field(snap, lattice, out / f"snapshot_{len(times):04d}.csv")
        times.append(snap.time)

    if params["method"] == "spectral":
        spectral_run(packet, lattice, dt, steps, every, sink=record)
    else:
        record(packet)
        for n in _schedule(dt, steps, every):
            record(evolve_convolution(packet, lattice, n * dt))
    return {
        "method": params["method"],
        "snapshots": len(times),
        "times": times,
        "norm_drift": float(np.max(np.abs(np.array(norms) - norms[0]))),
    }


def _run_interact(params: dict, seed: int, out: Path) -> dict:
    lattice = _build_lattice(params)
    packet = _initial_packet(params, lattice)
    packet = ComplexField(space="position", values=packet.values.real, time=packet.time)
    zero = ComplexField(space="position", values=np.zeros(lattice.grid_points), time=packet.time)
    times, final = [], None

    def record(field: ComplexField) -> None:
        # The run keeps the last field only, and energy.csv the record times.
        nonlocal final
        times.append(field.time)
        final = field

    run = leapfrog_interact(
        packet,
        zero,
        lattice,
        params["lambda"],
        params["dt"],
        params["steps"],
        record_every=params["record_every"],
        sink=record,
    )
    save_field(final, lattice, out / "final_field.csv")
    _write_csv(out / "energy.csv", ["t", "energy"], [np.array(times), run.energy])
    scale = max(abs(run.energy[0]), 1e-30)
    return {
        "coupling": params["lambda"],
        "steps": run.steps,
        "stability_bound": stability_bound(lattice),
        "initial_energy": float(run.energy[0]),
        "energy_drift": float(np.max(np.abs(run.energy - run.energy[0])) / scale),
    }


def _pull_summary(est: CorrelatorEstimate) -> dict:
    """Largest pulls of a correlator estimate from the identity, and its zero-variance count.

    The off-diagonal pulls ``|mean| / stderr`` are formed one row strip at a
    time (``vacuum._strips``), so the run holds one float strip, not a float
    matrix of every site pair.  Each strip's diagonal squares are masked by
    ``-inf``; the strip maxima go through one more ``np.max``, so a NaN pull
    anywhere off the diagonal still makes the result NaN.
    """
    n = est.mean.shape[0]
    strip_maxima = []
    with np.errstate(divide="ignore", invalid="ignore"):
        diag_pulls = np.abs(np.diag(est.mean) - 1.0) / np.diag(est.stderr)
        for lo, hi in _strips(n):
            pulls = np.abs(est.mean[lo:hi])
            pulls /= est.stderr[lo:hi]
            pulls.flat[lo :: n + 1] = -np.inf
            strip_maxima.append(np.max(pulls))
    return {
        "max_diagonal_pull": float(np.max(diag_pulls)),
        "max_offdiagonal_pull": float(np.max(strip_maxima)),
        "zero_variance_entries": int(np.sum(est.zero_variance)),
    }


def _run_vacuum(params: dict, seed: int, out: Path) -> dict:
    lattice = _build_lattice(params)
    spec = EnsembleSpec(lattice=lattice, count=params["samples"], seed=seed)
    estimates = ensemble_correlators(spec, _evolve_times(params))
    estimates[0].write_csv(out / "correlator.csv")
    results = {"samples": spec.count, "static": _pull_summary(estimates[0])}
    if params["evolve_time"] is not None:
        estimates[1].write_csv(out / "correlator_evolved.csv")
        results["evolved"] = {"t": params["evolve_time"], **_pull_summary(estimates[1])}
    return results


# --- experiment table ----------------------------------------------------------

class _Experiment(NamedTuple):
    """An experiment's config keys with their defaults, each key's rule, its runner, and its multi-key ``check``."""

    keys: dict[str, object]
    rules: dict[str, Rule]
    run: Callable[[dict, int, Path], dict]
    check: Callable[[dict], Problems] = lambda params: []


# In the order validate names them.  A check reports the library's objections
# that read several keys.  It hands the config's values to the library's
# predicates, which report what the entry points would refuse.  A run's later
# objections are asked only once its lattice is sound.
_EXPERIMENTS: dict[str, _Experiment] = {
    "identities": _Experiment({"n_levels": _REQUIRED, "omega": _REQUIRED, "time_pairs": 10},
                              _keyed(ontofield.ladder._RULES, _SPAN, {"time_pairs": integer_at_least(1)}),
                              _run_identities),
    "spectrum": _Experiment({"n_states": _REQUIRED, "delta_t": _REQUIRED}, _keyed(ontofield.cyclic._RULES),
                            _run_spectrum),
    "kernel": _Experiment({"kind": _REQUIRED, "method": _REQUIRED, "t": 0.0, **_KERNEL_KEYS},
                          _keyed(ontofield.kernels._RULES, _Z_GRID, {"z_count": integer_at_least(1)}),
                          _run_kernel, _check_kernel),
    "decay": _Experiment({"method": "contour", **_KERNEL_KEYS},
                         _keyed(ontofield.kernels._RULES, _Z_GRID, {"z_count": integer_at_least(_MIN_FIT_POINTS)}),
                         _run_decay, _check_kernel),
    "front": _Experiment({**_LATTICE_KEYS, **_PACKET_KEYS}, _PACKET_RULES, _run_front,
                         lambda p: _setup_problems(p) or _last_phase_problems(p)
                         or _front_problems(len(as_tuple(p["points"])), p["k0"], p["mass"])),
    "evolve": _Experiment({**_LATTICE_KEYS, **_PACKET_KEYS, "method": "spectral"},
                          _keyed(_PACKET_RULES, {"method": one_of("spectral", "convolution_literal")}),
                          _run_evolve, lambda p: _setup_problems(p) or _last_phase_problems(p)),
    "interact": _Experiment({**_LATTICE_KEYS, **_PACKET_KEYS, "lambda": _REQUIRED}, _PACKET_RULES, _run_interact,
                            lambda p: _setup_problems(p) or _leapfrog_problems(*_lattice_args(p), p["lambda"], p["dt"])),
    "vacuum": _Experiment({**_LATTICE_KEYS, "samples": _REQUIRED, "evolve_time": None},
                          _keyed(ontofield.lattice._RULES, ontofield.vacuum._RULES, {"evolve_time": nullable(finite)}),
                          _run_vacuum,
                          lambda p: _lattice_problems(*_lattice_args(p))
                          or [("evolve_time", message) for _, message in _phase_problems(
                              _spacings(p["box_length"], p["points"]), p["mass"], _evolve_times(p)[-1])]
                          or _memory_problems(p["points"], len(_evolve_times(p)))),
}


# --- entry point ---------------------------------------------------------------

def _jsonable(value):
    """Plain JSON values; non-finite floats become ``null``."""
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def _dumps(value, **kwargs) -> str:
    """Strict JSON: a NaN or infinity that reaches here is a bug, not output."""
    return json.dumps(value, allow_nan=False, **kwargs)


def _error_record(kind: str, message: str, exit_code: int, out: Path | None) -> int:
    record = {"error": {"type": kind, "message": message}, "exit_code": exit_code}
    print(_dumps(record), file=sys.stderr)
    if out is not None:
        try:
            (out / "error.json").write_text(_dumps(record, indent=2) + "\n")
        except OSError:
            pass
    return exit_code


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # Built once per process; parse_args leaves the parser unchanged.
    parser = argparse.ArgumentParser(
        prog="ontofield",
        description="Experiments for the deterministic scalar-boson formulation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="validate a config, run it, write artifacts")
    run.add_argument("config", help="path to a JSON config")
    run.add_argument("--output-dir", help="override the config's output directory")
    run.add_argument("--seed", type=int, help="override the config's seed")
    check = sub.add_parser("validate", help="report schema violations, run nothing")
    check.add_argument("config", help="path to a JSON config")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        text = Path(args.config).read_text()
    except OSError as exc:
        return _error_record("io", f"cannot read config: {exc}", EXIT_IO, None)
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        return _error_record("schema", f"config is not valid JSON: {exc}", EXIT_SCHEMA, None)

    if args.command == "run" and args.seed is not None and isinstance(raw, dict):
        raw["seed"] = args.seed

    violations = validate_config(raw)
    if args.command == "validate":
        report = {"valid": not violations, "violations": violations}
        print(_dumps(report, indent=2))
        return 0 if not violations else EXIT_SCHEMA
    if violations:
        message = "; ".join(violations)
        return _error_record("schema", message, EXIT_SCHEMA, None)

    experiment = raw["experiment"]
    seed = raw.get("seed", 0)
    out_name = args.output_dir or os.environ.get(_ENV_OUTPUT_DIR) or raw.get("output_dir") or "ontofield_output"
    out = Path(out_name)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        return _error_record("io", f"cannot prepare output directory: {exc}", EXIT_IO, None)
    if not os.access(out, os.W_OK):
        message = f"cannot prepare output directory: {out} is not writable"
        return _error_record("io", message, EXIT_IO, None)

    params = _apply_defaults(experiment, raw)
    started = datetime.now(timezone.utc)
    clock = time.perf_counter()
    try:
        results = _EXPERIMENTS[experiment].run(params, seed, out)
    except (QuadratureError, InstabilityError, FrontTrackingError, ValueError, ArithmeticError) as exc:
        return _error_record("numerical", str(exc), EXIT_NUMERICAL, out)
    except MemoryError as exc:
        return _error_record("memory", str(exc) or "out of memory", EXIT_NUMERICAL, out)
    except OSError as exc:
        return _error_record("io", str(exc), EXIT_IO, out)
    wall = time.perf_counter() - clock

    results = _jsonable(results)
    manifest = {
        "experiment": experiment,
        "config": _jsonable({**params, "experiment": experiment, "seed": seed}),
        "library_version": __version__,
        "results": results,
        "timing": {
            "started_utc": started.isoformat(),
            "wall_seconds": wall,
        },
    }
    try:
        (out / "manifest.json").write_text(_dumps(manifest, indent=2, sort_keys=True) + "\n")
    except OSError as exc:
        return _error_record("io", str(exc), EXIT_IO, out)
    print(_dumps({"experiment": experiment, "output_dir": str(out), "results": results}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
