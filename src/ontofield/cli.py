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
from typing import Callable

import numpy as np

from ontofield import __version__
from ontofield.cyclic import CycleConfig, basis_change, energy_levels, evolution_matrix
from ontofield.dynamics import (
    FrontTrackingError,
    InstabilityError,
    _bound_from_spacings,
    _schedule,
    _width_problem,
    evolve_convolution,
    gaussian_packet,
    leapfrog_interact,
    spectral_run,
    stability_bound,
    wavefront_measure,
)
from ontofield.kernels import (
    _KINDS, _METHODS, _MIN_FIT_POINTS, WINDOWS, KernelSpec, QuadratureError, _spec_problems, decay_fit, group_velocity,
    kernel_table,
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
from ontofield.lattice import ComplexField, _mass_problem, _write_csv, build_lattice, save_field
from ontofield.vacuum import (
    _MIN_SAMPLES,
    CorrelatorEstimate,
    EnsembleSpec,
    _correlator_memory_problem,
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
# Each experiment maps key -> (checker, required, default).  Checkers return
# an error string or None; cross-key constraints live in _EXTRA_CHECKS.

def _is_real(v: object) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool) and np.isfinite(v)


def _real(v: object) -> str | None:
    return None if _is_real(v) else "expected a finite real number"


def _pos_real(v: object) -> str | None:
    return None if _is_real(v) and v > 0 else "expected a positive real number"


def _nonneg_real(v: object) -> str | None:
    return None if _is_real(v) and v >= 0 else "expected a nonnegative real number"


def _int_at_least(lo: int) -> Callable[[object], str | None]:
    def check(v: object) -> str | None:
        if isinstance(v, int) and not isinstance(v, bool) and v >= lo:
            return None
        return f"expected an integer >= {lo}"

    return check


def _choice(*options: str) -> Callable[[object], str | None]:
    def check(v: object) -> str | None:
        return None if v in options else f"expected one of {options}"

    return check


def _nullable(inner: Callable[[object], str | None]) -> Callable[[object], str | None]:
    def check(v: object) -> str | None:
        return None if v is None else inner(v)

    return check


def _taper(v: object) -> str | None:
    return None if _is_real(v) and 0.0 < v <= 1.0 else "expected a real in (0, 1]"


def _axes(value: object) -> list:
    """A geometry key's entries, one per axis (a scalar is one axis)."""
    return value if isinstance(value, list) else [value]


def _geometry(check_entry: Callable[[object], str | None]) -> Callable[[object], str | None]:
    def check(v: object) -> str | None:
        entries = _axes(v)
        if not 1 <= len(entries) <= 3:
            return "expected a scalar or a list of 1 to 3 entries"
        for entry in entries:
            err = check_entry(entry)
            if err is not None:
                return err
        return None

    return check


def _even_points(v: object) -> str | None:
    if isinstance(v, int) and not isinstance(v, bool) and v >= 2 and v % 2 == 0:
        return None
    return "expected an even integer >= 2"


_WINDOW_CHOICE = _choice(*sorted(WINDOWS))

_LATTICE_KEYS: dict[str, tuple[Callable[[object], str | None], bool, object]] = {
    "mass": (_nonneg_real, True, None),
    "box_length": (_geometry(_pos_real), True, None),
    "points": (_geometry(_even_points), True, None),
    "cutoff": (_nullable(_pos_real), True, None),
}

_PACKET_KEYS: dict[str, tuple[Callable[[object], str | None], bool, object]] = {
    "k0": (_geometry(_real), True, None),
    "width": (_pos_real, True, None),
    "center": (_nullable(_geometry(_real)), False, None),
    "amplitude": (_pos_real, False, 1.0),
    "dt": (_pos_real, True, None),
    "steps": (_int_at_least(1), True, None),
    "record_every": (_int_at_least(1), False, 1),
}

_SCHEMAS: dict[str, dict[str, tuple[Callable[[object], str | None], bool, object]]] = {
    "identities": {
        "n_levels": (_int_at_least(2), True, None),
        "omega": (_pos_real, True, None),
        "time_pairs": (_int_at_least(1), False, 10),
    },
    "spectrum": {
        "n_states": (_int_at_least(1), True, None),
        "delta_t": (_pos_real, True, None),
    },
    "kernel": {
        "kind": (_choice(*_KINDS), True, None),
        "mass": (_nonneg_real, True, None),
        "cutoff": (_nullable(_pos_real), True, None),
        "method": (_choice(*_METHODS), True, None),
        "t": (_real, False, 0.0),
        "window": (_WINDOW_CHOICE, False, "cosine"),
        "taper_frac": (_taper, False, 0.1),
        "z_start": (_pos_real, True, None),
        "z_stop": (_pos_real, True, None),
        "z_count": (_int_at_least(1), True, None),
    },
    "decay": {
        "mass": (_nonneg_real, True, None),
        "cutoff": (_nullable(_pos_real), True, None),
        "method": (_choice(*_METHODS), False, "contour"),
        "window": (_WINDOW_CHOICE, False, "cosine"),
        "taper_frac": (_taper, False, 0.1),
        "z_start": (_pos_real, True, None),
        "z_stop": (_pos_real, True, None),
        "z_count": (_int_at_least(_MIN_FIT_POINTS), True, None),
    },
    "front": {**_LATTICE_KEYS, **_PACKET_KEYS},
    "evolve": {
        **_LATTICE_KEYS,
        **_PACKET_KEYS,
        "method": (_choice("spectral", "convolution_literal"), False, "spectral"),
    },
    "interact": {
        **_LATTICE_KEYS,
        **_PACKET_KEYS,
        "lambda": (_real, True, None),
        "field_mode": (_choice("real", "complex"), False, "real"),
    },
    "vacuum": {
        **_LATTICE_KEYS,
        "samples": (_int_at_least(_MIN_SAMPLES), True, None),
        "evolve_time": (_nullable(_real), False, None),
    },
}

_EXPERIMENTS = tuple(_SCHEMAS)


def _check_lattice(params: dict) -> list[str]:
    """Geometry agreement, and the library's own mass and packet-width checks."""
    lengths = _axes(params["box_length"])
    points = _axes(params["points"])
    errors = []
    if len(lengths) != len(points):
        errors.append("key 'points': dimension differs from 'box_length'")
    for key in ("k0", "center"):
        value = params.get(key)
        if value is None:
            continue
        if len(_axes(value)) != len(lengths):
            errors.append(f"key {key!r}: dimension differs from 'box_length'")
    for key, problem in (("mass", _mass_problem), ("width", _width_problem)):
        message = problem(params[key]) if key in params else None
        if message is not None:
            errors.append(f"key {key!r}: {message}")
    return errors


def _kernel_fields(params: dict) -> dict:
    # The decay experiment tabulates the static kernel and states no kind or t.
    names = [field.name for field in dataclasses.fields(KernelSpec)]
    return {"kind": "F1", "t": 0.0, **{name: params[name] for name in names if name in params}}


def _check_kernel(params: dict) -> list[str]:
    """The library's objections to the kernel request, plus the z-grid rules."""
    fields = _kernel_fields(params)
    errors = []
    if params["z_stop"] <= params["z_start"]:
        errors.append("key 'z_stop': must exceed z_start")
    errors.extend(f"key {key!r}: {message}" for key, message in _spec_problems(**fields))
    # Contour routes need every grid point spacelike.  A valid F1 request has
    # t = 0, where this always holds.
    if fields["method"] == "contour" and not params["z_start"] > abs(fields["t"]):
        errors.append("key 'z_start': contour route needs the spacelike regime z > |t|")
    return errors


# The checks below read the geometry from the config: building the lattice
# would cost memory and time of the order of the run itself.

def _check_front(params: dict) -> list[str]:
    errors = _check_lattice(params)
    if not errors and len(_axes(params["points"])) != 1:
        errors.append("key 'box_length': the front experiment is one-dimensional")
    if not errors:
        try:
            group_velocity(_axes(params["k0"]), params["mass"])
        except ValueError as exc:
            errors.append(f"key 'k0': {exc}")
    return errors


def _check_interact(params: dict) -> list[str]:
    errors = _check_lattice(params)
    if not errors:
        spacings = [length / n for length, n in zip(_axes(params["box_length"]), _axes(params["points"]))]
        bound = _bound_from_spacings(spacings, params["mass"])
        if not params["dt"] < bound:
            errors.append(f"key 'dt': must be below the leapfrog stability bound {bound!r}")
    return errors


def _check_vacuum(params: dict) -> list[str]:
    errors = _check_lattice(params)
    if not errors:
        estimates = 1 if params["evolve_time"] is None else 2
        problem = _correlator_memory_problem(tuple(_axes(params["points"])), estimates)
        if problem is not None:
            errors.append(f"key 'points': {problem}")
    return errors


_EXTRA_CHECKS: dict[str, Callable[[dict], list[str]]] = {
    "kernel": _check_kernel,
    "decay": _check_kernel,
    "front": _check_front,
    "evolve": _check_lattice,
    "interact": _check_interact,
    "vacuum": _check_vacuum,
}


def validate_config(raw: object) -> list[str]:
    """Full list of schema violations; empty means the config is runnable."""
    if not isinstance(raw, dict):
        return ["config root must be a JSON object"]
    violations: list[str] = []
    experiment = raw.get("experiment")
    if experiment not in _EXPERIMENTS:
        violations.append(
            f"key 'experiment': expected one of {_EXPERIMENTS}, got {experiment!r}"
        )
        return violations
    schema = _SCHEMAS[experiment]
    seed = raw.get("seed", 0)
    if not (isinstance(seed, int) and not isinstance(seed, bool) and seed >= 0):
        violations.append("key 'seed': expected a nonnegative integer")
    out_dir = raw.get("output_dir")
    if out_dir is not None and not isinstance(out_dir, str):
        violations.append("key 'output_dir': expected a string path")
    known = set(schema) | {"experiment", "seed", "output_dir"}
    for key in raw:
        if key not in known:
            violations.append(f"key {key!r}: not recognized for experiment {experiment!r}")
    for key, (checker, required, _default) in schema.items():
        if key not in raw:
            if required:
                violations.append(f"key {key!r}: required for experiment {experiment!r} but missing")
            continue
        error = checker(raw[key])
        if error is not None:
            violations.append(f"key {key!r}: {error}, got {raw[key]!r}")
    if not violations and experiment in _EXTRA_CHECKS:
        params = _apply_defaults(experiment, raw)
        violations.extend(_EXTRA_CHECKS[experiment](params))
    return violations


def _apply_defaults(experiment: str, raw: dict) -> dict:
    params = {}
    for key, (_checker, _required, default) in _SCHEMAS[experiment].items():
        params[key] = raw.get(key, default)
    return params


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
    basis = basis_change(config).matrix
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
    return build_lattice(
        params["box_length"], params["points"], params["mass"], params["cutoff"]
    )


def _initial_packet(params: dict, lattice) -> ComplexField:
    center = params["center"]
    if center is None:
        center = [0.25 * l for l in lattice.box_lengths]
    return gaussian_packet(lattice, params["k0"], center, params["width"], params["amplitude"])


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
    if params["method"] == "spectral":
        snapshots = spectral_run(packet, lattice, dt, steps, every).snapshots
    else:
        snapshots = [packet] + [
            evolve_convolution(packet, lattice, n * dt, path="literal")
            for n in _schedule(dt, steps, every)
        ]
    norms = [float(np.linalg.norm(s.values)) for s in snapshots]
    for i, snap in enumerate(snapshots):
        save_field(snap, lattice, out / f"snapshot_{i:04d}.csv")
    return {
        "method": params["method"],
        "snapshots": len(snapshots),
        "times": [s.time for s in snapshots],
        "norm_drift": float(np.max(np.abs(np.array(norms) - norms[0]))),
    }


def _run_interact(params: dict, seed: int, out: Path) -> dict:
    lattice = _build_lattice(params)
    packet = _initial_packet(params, lattice)
    if params["field_mode"] == "real":
        packet = ComplexField(
            space="position", values=packet.values.real.astype(complex), time=packet.time
        )
    zero = ComplexField(
        space="position", values=np.zeros(lattice.grid_points, dtype=complex), time=packet.time
    )
    run = leapfrog_interact(
        packet,
        zero,
        lattice,
        params["lambda"],
        params["dt"],
        params["steps"],
        field_mode=params["field_mode"],
        record_every=params["record_every"],
    )
    save_field(run.final, lattice, out / "final_field.csv")
    results = {
        "field_mode": params["field_mode"],
        "coupling": params["lambda"],
        "steps": run.steps,
        "stability_bound": stability_bound(lattice),
    }
    if run.energy is not None:
        _write_csv(out / "energy.csv", ["t", "energy"], [run.times, run.energy])
        scale = max(abs(run.energy[0]), 1e-30)
        results["initial_energy"] = float(run.energy[0])
        results["energy_drift"] = float(np.max(np.abs(run.energy - run.energy[0])) / scale)
    return results


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
    evolve_time = params["evolve_time"]
    times = (0.0,) if evolve_time is None else (0.0, evolve_time)
    estimates = ensemble_correlators(spec, times)
    estimates[0].write_csv(out / "correlator.csv")
    results = {"samples": spec.count, "static": _pull_summary(estimates[0])}
    if evolve_time is not None:
        estimates[1].write_csv(out / "correlator_evolved.csv")
        results["evolved"] = {"t": evolve_time, **_pull_summary(estimates[1])}
    return results


_RUNNERS: dict[str, Callable[[dict, int, Path], dict]] = {
    "identities": _run_identities,
    "spectrum": _run_spectrum,
    "kernel": _run_kernel,
    "decay": _run_decay,
    "front": _run_front,
    "evolve": _run_evolve,
    "interact": _run_interact,
    "vacuum": _run_vacuum,
}


# --- entry point ---------------------------------------------------------------

def _jsonable(value):
    """Plain JSON values; non-finite floats become ``null``."""
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, np.ndarray)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (np.floating, np.integer)):
        value = value.item()
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
        results = _RUNNERS[experiment](params, seed, out)
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
