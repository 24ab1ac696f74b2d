"""End-to-end tests for the config-driven command line."""

import csv
import json
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ontofield.cli as cli
import ontofield.vacuum as vacuum
from ontofield.cli import main, validate_config
from ontofield.cyclic import CycleConfig
from ontofield.dynamics import gaussian_packet, leapfrog_interact, spectral_run, stability_bound, wavefront_measure
from ontofield.kernels import KernelSpec, f1_contour, kernel_table
from ontofield.ladder import build_mode
from ontofield.lattice import ComplexField, build_lattice, evolution_phase, load_field
from ontofield.vacuum import CorrelatorEstimate, EnsembleSpec, ensemble_correlators
from fresh_interpreter import peak_bytes, with_src

SPECTRUM = {"experiment": "spectrum", "n_states": 6, "delta_t": 0.5}


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def run_cli(tmp_path, payload, *extra, out="out"):
    config = write_config(tmp_path, payload)
    out_dir = tmp_path / out
    code = main(["run", config, "--output-dir", str(out_dir), *extra])
    return code, out_dir


# --- validation ------------------------------------------------------------------


def test_validate_accepts_a_complete_config(tmp_path, capsys):
    assert main(["validate", write_config(tmp_path, SPECTRUM)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report == {"valid": True, "violations": []}


@pytest.mark.parametrize(
    "payload, needle",
    [
        ({"experiment": "warp"}, "experiment"),
        ({**SPECTRUM, "extra_knob": 1}, "extra_knob"),
        ({"experiment": "spectrum", "delta_t": 0.5}, "n_states"),
        ({**SPECTRUM, "delta_t": "fast"}, "delta_t"),
        ({**SPECTRUM, "n_states": True}, "n_states"),
    ],
)
def test_validate_reports_schema_violations(tmp_path, capsys, payload, needle):
    assert main(["validate", write_config(tmp_path, payload)]) == 2
    report = json.loads(capsys.readouterr().out)
    assert report["valid"] is False
    assert any(needle in v for v in report["violations"])


def test_a_json_integer_beyond_uint64_is_a_real_number(tmp_path):
    # np.isfinite raises on a Python int of 2**64 or more; the value fits a double.
    payload = {**SPECTRUM, "delta_t": 10**20}
    assert main(["validate", write_config(tmp_path, payload)]) == 0
    code, out_dir = run_cli(tmp_path, payload)
    assert code == 0
    assert (out_dir / "spectrum.csv").exists()


def test_a_json_integer_too_large_for_a_double_is_a_schema_failure(tmp_path, capsys):
    payload = {**SPECTRUM, "delta_t": 10**400}
    assert main(["validate", write_config(tmp_path, payload)]) == 2
    assert any("delta_t" in v for v in json.loads(capsys.readouterr().out)["violations"])
    code, out_dir = run_cli(tmp_path, payload)
    assert code == 2
    assert "delta_t" in json.loads(capsys.readouterr().err)["error"]["message"]
    assert not out_dir.exists()


def test_validate_catches_cross_field_inconsistencies():
    base = {
        "experiment": "kernel",
        "kind": "F2",
        "mass": 1.0,
        "cutoff": None,
        "method": "contour",
        "t": 2.0,
        "z_start": 1.0,
        "z_stop": 4.0,
        "z_count": 5,
    }
    # The contour route needs the scan to sit outside the light cone.
    assert any("z_start" in v for v in validate_config(base))
    windowed = {**base, "method": "radial_reduced", "z_start": 3.0}
    assert any("cutoff" in v for v in validate_config(windowed))
    static_with_time = {**base, "kind": "F1", "z_start": 3.0}
    assert any("'t'" in v for v in validate_config(static_with_time))
    backwards = {**base, "z_start": 3.0, "z_stop": 2.0}
    assert any("z_stop" in v for v in validate_config(backwards))


def test_every_experiment_has_one_schema_and_one_runner():
    # The experiment list is the table's keys, in the order validate names them.
    assert tuple(cli._EXPERIMENTS) == (
        "identities", "spectrum", "kernel", "decay", "front", "evolve", "interact", "vacuum",
    )


FRONT_2D = {
    "experiment": "front",
    "mass": 1.0,
    "box_length": [8.0, 8.0],
    "points": [16, 16],
    "cutoff": None,
    "k0": [1.0, 0.0],
    "width": 2.0,
    "dt": 0.5,
    "steps": 4,
}

# dt = 0.6 lies above the leapfrog stability bound 0.485 of this lattice.
INTERACT_UNSTABLE_STEP = {
    "experiment": "interact",
    "mass": 1.0,
    "box_length": 32.0,
    "points": 64,
    "cutoff": None,
    "k0": 1.0,
    "width": 3.0,
    "lambda": 0.1,
    "dt": 0.6,
    "steps": 10,
}

# A massless packet at rest has no group velocity to compare the front with.
FRONT_MASSLESS_AT_REST = {**FRONT_2D, "mass": 0.0, "box_length": 8.0, "points": 16, "k0": 0.0}

# The dense correlator of 64^3 sites needs about 2.7 TB.
VACUUM_TOO_LARGE = {
    "experiment": "vacuum",
    "mass": 1.0,
    "box_length": [8.0, 8.0, 8.0],
    "points": [64, 64, 64],
    "cutoff": None,
    "samples": 100,
}


@pytest.mark.parametrize(
    "payload, needle",
    [
        (FRONT_2D, "one-dimensional"),
        (INTERACT_UNSTABLE_STEP, "stability bound 0.485"),
        (VACUUM_TOO_LARGE, "key 'points': the dense correlator of 262144 sites"),
        (FRONT_MASSLESS_AT_REST, "key 'k0': group velocity undefined at k=0, M=0"),
        ({**FRONT_2D, "box_length": 8.0, "points": 16, "k0": 1.0, "mass": 1e300},
         "key 'mass': must have a square that does not overflow"),
        ({**VACUUM_TOO_LARGE, "points": [4, 4, 4], "mass": 1e300},
         "key 'mass': must have a square that does not overflow"),
        ({**INTERACT_UNSTABLE_STEP, "dt": 0.1, "width": 1e-300},
         "key 'width': must have a square that does not underflow to 0"),
        ({"experiment": "kernel", "kind": "F1", "mass": 1e300, "cutoff": 240.0, "method": "radial_reduced",
          "z_start": 0.5, "z_stop": 5.0, "z_count": 4},
         "key 'mass': must have a square that does not overflow"),
        # Spacings whose squares overflow or underflow: 4 / dx**2 in the stability bound has no value.
        ({**INTERACT_UNSTABLE_STEP, "points": 16, "box_length": 1e300},
         "key 'box_length': must give spacings with positive finite squares"),
        ({**INTERACT_UNSTABLE_STEP, "points": 16, "box_length": 1e-300},
         "key 'box_length': must give spacings with positive finite squares"),
        # The time pairs are drawn below 4*pi/omega, which overflows here.
        ({"experiment": "identities", "n_levels": 4, "omega": 5e-308},
         "key 'omega': must leave a finite time-pair span 4*pi/omega"),
        ({**FRONT_2D, "points": [2, 2, 2, 2]}, "key 'points': must be 1 to 3 even integers >= 2"),
        ({**SPECTRUM, "seed": -1}, "key 'seed': expected a nonnegative integer"),
        ({**SPECTRUM, "output_dir": 5}, "key 'output_dir': expected a string path"),
        # Every lattice needs a mode grid of finite numbers: spacings with
        # positive finite squares and a finite top frequency (2e-153 has
        # a subnormal dx**2 but an infinite (pi n / L)**2).
        ({**FRONT_2D, "experiment": "evolve", "box_length": 1e-300, "points": 16, "k0": 1.0},
         "key 'box_length': must give spacings with positive finite squares"),
        ({**FRONT_2D, "experiment": "evolve", "box_length": 2e-153, "points": 16, "k0": 1.0},
         "key 'box_length': must give a finite top frequency"),
        ({**FRONT_2D, "experiment": "evolve", "box_length": 1e300, "points": 16, "k0": 1.0},
         "key 'box_length': must give spacings with positive finite squares"),
        ({**FRONT_2D, "box_length": 1e300, "points": 16, "k0": 1.0},
         "key 'box_length': must give spacings with positive finite squares"),
        ({**VACUUM_TOO_LARGE, "box_length": 1e300, "points": 16},
         "key 'box_length': must give spacings with positive finite squares"),
        # More sites than numpy can index.
        ({**INTERACT_UNSTABLE_STEP, "points": 10**400}, "key 'points': must have at most 9223372036854775807 sites"),
        # The complex field mode is gone, and its key with it.
        ({**INTERACT_UNSTABLE_STEP, "dt": 0.1, "field_mode": "complex"},
         "key 'field_mode': not recognized for experiment 'interact'"),
        # So is the "direct_quadrature" alias of the radial route.
        ({"experiment": "kernel", "kind": "F1", "mass": 1.0, "cutoff": 240.0, "method": "direct_quadrature",
          "z_start": 0.5, "z_stop": 5.0, "z_count": 4},
         "key 'method': must be one of ('radial_reduced', 'contour')"),
        # The README vacuum config at a finite time whose phase omega * t is not.
        ({"experiment": "vacuum", "mass": 1.0, "box_length": 2 * np.pi, "points": 32, "cutoff": None,
          "samples": 10000, "evolve_time": 1e308, "seed": 6},
         "key 'evolve_time': must keep the phase omega * t finite"),
    ],
)
def test_validate_predicts_failures_known_before_compute(tmp_path, capsys, payload, needle):
    assert main(["validate", write_config(tmp_path, payload)]) == 2
    violations = json.loads(capsys.readouterr().out)["violations"]
    assert any(needle in v for v in violations)
    assert not any("np.float64" in v for v in violations)
    code, out_dir = run_cli(tmp_path, payload)
    assert code == 2
    assert not out_dir.exists()


def test_validate_judges_a_large_grid_without_building_its_lattice(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("validate built a lattice")

    monkeypatch.setattr(cli, "build_lattice", refuse)
    grid = {"box_length": [32.0] * 3, "points": [256] * 3, "k0": [1.0] * 3}
    interact = {**INTERACT_UNSTABLE_STEP, **grid}
    # Spacing 1/8 on every axis, as on the 256^3 grid.
    bound = stability_bound(build_lattice([1.0] * 3, [8] * 3, 1.0))
    assert validate_config({**interact, "dt": 0.05}) == []
    assert validate_config({**interact, "dt": 0.1}) == [
        f"key 'dt': must be below the leapfrog stability bound {bound!r}"
    ]
    assert validate_config({**FRONT_2D, **grid}) == ["key 'box_length': the front experiment is one-dimensional"]


@pytest.mark.parametrize(
    "box_length, points, mass",
    [(7.3, 46, 0.37), (32, 64, 1), ([3.1, 9.7], [10, 26], 0.37), ([2.2, 5, 7.9], [6, 8, 14], 0.37)],
)
def test_validate_stability_bound_is_the_lattice_bound(box_length, points, mass):
    config = {**INTERACT_UNSTABLE_STEP, "mass": mass, "box_length": box_length, "points": points, "dt": 5.0}
    config["k0"] = [1.0] * len(points) if isinstance(points, list) else 1.0
    bound = stability_bound(build_lattice(box_length, points, mass))
    # repr round-trips a float, so equal text is equal bits.
    assert validate_config(config) == [f"key 'dt': must be below the leapfrog stability bound {bound!r}"]


def test_validate_catches_geometry_dimension_mismatch():
    config = {
        "experiment": "front",
        "mass": 1.0,
        "box_length": [8.0, 8.0],
        "points": 16,
        "cutoff": None,
        "k0": 1.0,
        "width": 2.0,
        "dt": 0.5,
        "steps": 4,
    }
    violations = validate_config(config)
    assert any("points" in v for v in violations)
    assert any("k0" in v for v in violations)


def _packet_on(lattice, k0=1.0, center=4.0, width=2.0):
    return gaussian_packet(lattice, k0, center, width)


def _front_run(box_length, points, k0, mass):
    lattice = build_lattice(box_length, points, mass)
    return spectral_run(_packet_on(lattice, k0, [2.0] * len(lattice.grid_points)), lattice, 0.5, 2)


_LATTICE_16 = (16.0, 16, 1.0)
_BOUND_16 = stability_bound(build_lattice(*_LATTICE_16))
_KERNEL = {"kind": "F1", "mass": 1.0, "cutoff": 240.0, "method": "radial_reduced", "window": "septic", "taper_frac": 0.5}


# One value just outside each library rule: the experiment, its edits, the
# config key validate must name, and a library call on the same values.
@pytest.mark.parametrize(
    "experiment, edits, key, call",
    [
        ("vacuum", {"box_length": -1.0}, "box_length", lambda: build_lattice(-1.0, 4, 1.0)),
        ("vacuum", {"points": 5}, "points", lambda: build_lattice(1.0, 5, 1.0)),
        ("vacuum", {"mass": -0.5}, "mass", lambda: build_lattice(1.0, 4, -0.5)),
        ("vacuum", {"mass": 2e154}, "mass", lambda: build_lattice(1.0, 4, 2e154)),
        ("vacuum", {"cutoff": 0.0}, "cutoff", lambda: build_lattice(1.0, 4, 1.0, 0.0)),
        ("vacuum", {"box_length": [1.0, 1.0]}, "points", lambda: build_lattice([1.0, 1.0], 4, 1.0)),
        ("vacuum", {"samples": 99}, "samples", lambda: ensemble_correlators(
            EnsembleSpec(build_lattice(1.0, 4, 1.0), 99, 0), (0.0,))),
        ("vacuum", VACUUM_TOO_LARGE, "points", lambda: ensemble_correlators(
            EnsembleSpec(build_lattice([8.0] * 3, [64] * 3, 1.0), 100, 0), (0.0,))),
        ("evolve", {"width": 0.0}, "width", lambda: _packet_on(build_lattice(*_LATTICE_16), width=0.0)),
        ("evolve", {"width": 1e-300}, "width", lambda: _packet_on(build_lattice(*_LATTICE_16), width=1e-300)),
        ("evolve", {"k0": [1.0, 0.0]}, "k0", lambda: _packet_on(build_lattice(*_LATTICE_16), k0=[1.0, 0.0])),
        ("evolve", {"dt": 0.0}, "dt", lambda: spectral_run(_packet_on(build_lattice(*_LATTICE_16)),
                                                           build_lattice(*_LATTICE_16), 0.0, 2)),
        ("evolve", {"steps": 0}, "steps", lambda: spectral_run(_packet_on(build_lattice(*_LATTICE_16)),
                                                               build_lattice(*_LATTICE_16), 0.5, 0)),
        ("evolve", {"record_every": 0}, "record_every", lambda: spectral_run(
            _packet_on(build_lattice(*_LATTICE_16)), build_lattice(*_LATTICE_16), 0.5, 2, 0)),
        ("interact", {"dt": _BOUND_16}, "dt", lambda: leapfrog_interact(
            _packet_on(build_lattice(*_LATTICE_16)), _packet_on(build_lattice(*_LATTICE_16)),
            build_lattice(*_LATTICE_16), 0.1, _BOUND_16, 20)),
        ("interact", {"cutoff": 0.5}, "cutoff", lambda: leapfrog_interact(
            _packet_on(build_lattice(*_LATTICE_16)), _packet_on(build_lattice(*_LATTICE_16)),
            build_lattice(*_LATTICE_16, 0.5), 0.1, 0.2, 20)),
        ("front", {"box_length": [64.0, 64.0], "points": [128, 128], "k0": [1.0, 0.0], "center": [16.0, 16.0]},
         "box_length", lambda: wavefront_measure(_front_run([8.0, 8.0], [8, 8], [1.0, 0.0], 1.0), [1.0, 0.0])),
        ("front", {"mass": 0.0, "k0": 0.0}, "k0", lambda: wavefront_measure(_front_run(8.0, 16, 0.0, 0.0), 0.0)),
        ("identities", {"n_levels": 1}, "n_levels", lambda: build_mode(1, 2.0)),
        ("identities", {"omega": 0.0}, "omega", lambda: build_mode(4, 0.0)),
        ("spectrum", {"n_states": 0}, "n_states", lambda: CycleConfig(0, 0.5)),
        ("spectrum", {"delta_t": 0.0}, "delta_t", lambda: CycleConfig(4, 0.0)),
        ("kernel", {"kind": "F3"}, "kind", lambda: KernelSpec(**{**_KERNEL, "kind": "F3"})),
        ("kernel", {"method": "brute_force"}, "method", lambda: KernelSpec(**{**_KERNEL, "method": "brute_force"})),
        ("kernel", {"window": "hann"}, "window", lambda: KernelSpec(**{**_KERNEL, "window": "hann"})),
        ("kernel", {"taper_frac": 1.5}, "taper_frac", lambda: KernelSpec(**{**_KERNEL, "taper_frac": 1.5})),
        ("kernel", {"t": 0.5}, "t", lambda: KernelSpec(**_KERNEL, t=0.5)),
        ("kernel", {"cutoff": None}, "cutoff", lambda: KernelSpec(**{**_KERNEL, "cutoff": None})),
        ("kernel", {"kind": "F2", "method": "contour", "t": 0.5}, "z_start", lambda: kernel_table(
            KernelSpec(**{**_KERNEL, "kind": "F2", "method": "contour"}, t=0.5), [0.5, 5.0])),
        ("decay", {"mass": -0.5}, "mass", lambda: KernelSpec("F1", -0.5, method="contour")),
        ("evolve", {"box_length": 1e-300}, "box_length", lambda: build_lattice(1e-300, 16, 1.0)),
        ("evolve", {"box_length": 2e-153}, "box_length", lambda: build_lattice(2e-153, 16, 1.0)),
        ("vacuum", {"box_length": 1e300}, "box_length", lambda: build_lattice(1e300, 4, 1.0)),
        ("interact", {"points": 10**400}, "points", lambda: build_lattice(16.0, 10**400, 1.0)),
        ("vacuum", {"evolve_time": 1e308}, "evolve_time", lambda: ensemble_correlators(
            EnsembleSpec(build_lattice(2 * np.pi, 4, 1.0), 100, 0), (0.0, 1e308))),
        # A packet run evolves up to steps * dt: 2 * 1e308 is infinite, and
        # 5 * 1e307 finite with a phase that overflows.
        ("evolve", {"dt": 1e308}, "dt", lambda: evolution_phase(build_lattice(*_LATTICE_16), 2 * 1e308)),
        ("front", {"dt": 1e307}, "dt", lambda: evolution_phase(build_lattice(64.0, 128, 1.0), 5 * 1e307)),
    ],
)
def test_validate_names_the_key_with_the_library_message(experiment, edits, key, call):
    # One source: validate reports the library's own message, and the library
    # entry point refuses the same values with it.
    config = {"experiment": experiment, **_SMALL_CONFIGS[experiment], **edits}
    prefix = f"key {key!r}: "
    violations = validate_config(config)
    assert len(violations) == 1 and violations[0].startswith(prefix), violations
    with pytest.raises(ValueError, match=re.escape(violations[0].removeprefix(prefix))):
        call()


@pytest.mark.parametrize("experiment", list(cli._EXPERIMENTS))
def test_every_config_key_has_one_rule_and_only_the_optional_ones_take_null(experiment):
    schema, rules = cli._EXPERIMENTS[experiment].keys, cli._EXPERIMENTS[experiment].rules
    assert set(schema) <= set(rules), set(schema) - set(rules)
    nullable = {key for key in schema if rules[key](None) is None}
    assert nullable == {"cutoff", "center", "evolve_time"} & set(schema)


def test_missing_config_file_is_an_io_failure(tmp_path):
    assert main(["run", str(tmp_path / "absent.json")]) == 4


def test_an_output_dir_that_is_a_file_is_an_io_failure(tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("")
    assert main(["run", write_config(tmp_path, SPECTRUM), "--output-dir", str(taken)]) == 4
    record = json.loads(capsys.readouterr().err)
    assert record["error"]["type"] == "io" and "cannot prepare output directory" in record["error"]["message"]
    assert "Traceback" not in record["error"]["message"] and taken.read_text() == ""


def test_a_csv_path_that_is_a_directory_is_an_io_failure(tmp_path, capsys):
    out = tmp_path / "out"
    (out / "spectrum.csv").mkdir(parents=True)
    code, _ = run_cli(tmp_path, SPECTRUM)
    assert code == 4
    record = json.loads(capsys.readouterr().err)
    assert record["error"]["type"] == "io"
    assert json.loads((out / "error.json").read_text()) == record
    assert not (out / "manifest.json").exists()


def test_a_manifest_path_that_is_a_directory_is_an_io_failure_after_the_run(tmp_path, capsys):
    out = tmp_path / "out"
    (out / "manifest.json").mkdir(parents=True)
    code, _ = run_cli(tmp_path, SPECTRUM)
    assert code == 4
    record = json.loads(capsys.readouterr().err)
    assert record["error"]["type"] == "io" and record["exit_code"] == 4
    assert (out / "spectrum.csv").is_file() and (out / "error.json").is_file()


def test_an_output_dir_without_write_access_is_an_io_failure_before_the_run(tmp_path, capsys, monkeypatch):
    # Root bypasses file modes, so the access check is refused by hand.
    monkeypatch.setattr(cli.os, "access", lambda path, mode: False)
    code, out = run_cli(tmp_path, SPECTRUM)
    assert code == 4
    record = json.loads(capsys.readouterr().err)
    assert record["error"]["type"] == "io" and "is not writable" in record["error"]["message"]
    assert list(out.iterdir()) == []


def test_an_error_record_that_cannot_be_saved_still_returns_its_code(tmp_path, capsys):
    out = tmp_path / "out"
    (out / "spectrum.csv").mkdir(parents=True)
    (out / "error.json").mkdir()
    code, _ = run_cli(tmp_path, SPECTRUM)
    assert code == 4
    record = json.loads(capsys.readouterr().err)
    assert record["error"]["type"] == "io" and record["exit_code"] == 4


def test_malformed_json_is_a_schema_failure(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["run", str(path)]) == 2


def test_run_refuses_an_invalid_config(tmp_path, capsys):
    code, out_dir = run_cli(tmp_path, {**SPECTRUM, "n_states": -3})
    assert code == 2
    record = json.loads(capsys.readouterr().err)
    assert record["error"]["type"] == "schema"
    assert not out_dir.exists()


@pytest.mark.parametrize("extra", [(), ("--seed", "5")])
def test_a_config_root_that_is_not_an_object_is_a_schema_failure(tmp_path, capsys, extra):
    code, out_dir = run_cli(tmp_path, [1, 2], *extra)
    assert code == 2
    assert json.loads(capsys.readouterr().err) == {
        "error": {"type": "schema", "message": "config root must be a JSON object"},
        "exit_code": 2,
    }
    assert not out_dir.exists()


# --- experiment runs ---------------------------------------------------------------


def test_spectrum_run_writes_levels_and_manifest(tmp_path, capsys):
    code, out = run_cli(tmp_path, SPECTRUM)
    assert code == 0
    stdout = json.loads(capsys.readouterr().out)
    assert stdout["experiment"] == "spectrum"
    with (out / "spectrum.csv").open() as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["n", "energy"]
    assert len(rows) == 7
    omega = 2 * np.pi / (6 * 0.5)
    assert float(rows[3][1]) == pytest.approx(2 * omega, rel=1e-15)
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["experiment"] == "spectrum"
    assert manifest["results"]["periodicity_defect"] == 0.0
    assert manifest["results"]["diagonalization_leakage"] < 1e-12
    assert "wall_seconds" in manifest["timing"]
    assert manifest["config"]["seed"] == 0


def test_identities_run_reports_operator_defects(tmp_path):
    payload = {"experiment": "identities", "n_levels": 8, "omega": 2.0}
    code, out = run_cli(tmp_path, payload)
    assert code == 0
    results = json.loads((out / "identities.json").read_text())
    assert results["unitarity_defect"] < 1e-14
    assert results["unequal_time_commutator_max"] < 1e-13
    assert results["shift_wrap_entry"] == pytest.approx([-7.0, 0.0], abs=1e-12)
    assert results["qp_top_entry"] == pytest.approx([0.0, -7.0], abs=1e-12)


def test_kernel_run_tabulates_the_contour_values(tmp_path):
    payload = {
        "experiment": "kernel",
        "kind": "F1",
        "mass": 1.0,
        "cutoff": None,
        "method": "contour",
        "z_start": 1.0,
        "z_stop": 2.0,
        "z_count": 3,
    }
    code, out = run_cli(tmp_path, payload)
    assert code == 0
    with (out / "kernel.csv").open() as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 4
    assert float(rows[1][2]) == pytest.approx(f1_contour(1.0, 1.0), rel=1e-12)


def test_decay_run_recovers_the_mass(tmp_path):
    payload = {
        "experiment": "decay",
        "mass": 1.0,
        "cutoff": None,
        "z_start": 2.0,
        "z_stop": 8.0,
        "z_count": 25,
    }
    code, out = run_cli(tmp_path, payload)
    assert code == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["results"]["slope"] == pytest.approx(-1.0, abs=0.05)
    assert (out / "decay.csv").exists()


def test_front_run_measures_the_packet_speed(tmp_path, capsys):
    payload = {
        "experiment": "front",
        "mass": 1.0,
        "box_length": 64.0,
        "points": 256,
        "cutoff": None,
        "k0": 1.0,
        "center": 16.0,
        "width": 4.0,
        "dt": 1.0,
        "steps": 12,
    }
    code, out = run_cli(tmp_path, payload)
    assert code == 0
    results = json.loads(capsys.readouterr().out)["results"]
    assert results["trackable"] is True
    assert abs(results["speed"] - results["expected_speed"]) / results["expected_speed"] < 0.03
    with (out / "front.csv").open() as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["t", "peak_position"]
    assert len(rows) == 14


def test_front_run_takes_k0_as_a_number_or_a_one_entry_list(tmp_path):
    payload = {"experiment": "front", **_SMALL_CONFIGS["front"]}
    code, scalar = run_cli(tmp_path, payload, out="scalar")
    assert code == 0
    code, listed = run_cli(tmp_path, {**payload, "k0": [1.0]}, out="listed")
    assert code == 0
    assert (listed / "front.csv").read_bytes() == (scalar / "front.csv").read_bytes()


def test_evolve_run_writes_loadable_snapshots(tmp_path):
    payload = {
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
    }
    code, out = run_cli(tmp_path, payload)
    assert code == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["results"]["norm_drift"] < 1e-12
    assert manifest["results"]["times"] == [0.0, 1.0, 2.0]
    field, lattice = load_field(out / "snapshot_0002.csv")
    assert field.time == pytest.approx(2.0)
    assert lattice.grid_points == (32,)


def test_evolve_run_supports_the_literal_kernel_path(tmp_path):
    payload = {
        "experiment": "evolve",
        "mass": 1.0,
        "box_length": 8.0,
        "points": 16,
        "cutoff": None,
        "k0": 1.0,
        "center": 2.0,
        "width": 1.0,
        "dt": 0.5,
        "steps": 2,
        "method": "convolution_literal",
    }
    code, out = run_cli(tmp_path, payload)
    assert code == 0
    assert (out / "snapshot_0002.csv").exists()


def test_interact_run_tracks_the_energy(tmp_path):
    payload = {
        "experiment": "interact",
        "mass": 1.0,
        "box_length": 16.0,
        "points": 32,
        "cutoff": None,
        "k0": 1.0,
        "center": 4.0,
        "width": 2.0,
        "lambda": 1e-3,
        "dt": 0.2,
        "steps": 100,
        "record_every": 10,
    }
    code, out = run_cli(tmp_path, payload)
    assert code == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["results"]["energy_drift"] < 1e-5
    assert (out / "energy.csv").exists()
    assert (out / "final_field.csv").exists()


def test_interact_run_starts_from_the_packets_real_part(tmp_path):
    # A packet with k0 != 0 is complex; the run integrates its real part from rest.
    payload = {
        "experiment": "interact", "mass": 1.0, "box_length": 16.0, "points": 32, "cutoff": None,
        "k0": 1.0, "center": 4.0, "width": 2.0, "lambda": 0.5, "dt": 0.2, "steps": 12, "record_every": 5,
    }
    code, out = run_cli(tmp_path, payload)
    assert code == 0
    lattice = build_lattice(16.0, 32, 1.0)
    packet = gaussian_packet(lattice, 1.0, 4.0, 2.0)
    assert np.any(packet.values.imag != 0.0)
    run = leapfrog_interact(
        ComplexField("position", packet.values.real.copy()), ComplexField("position", np.zeros(32)), lattice,
        0.5, 0.2, 12, record_every=5,
    )
    field, _ = load_field(out / "final_field.csv")
    assert field.values.real.tobytes() == run.final.values.tobytes()
    assert not np.any(field.values.imag)
    manifest = json.loads((out / "manifest.json").read_text())
    assert "field_mode" not in manifest["results"]
    assert manifest["results"]["initial_energy"] == float(run.energy[0])


def test_unstable_interaction_exits_with_the_numerical_code(tmp_path, capsys):
    payload = {
        "experiment": "interact",
        "mass": 1.0,
        "box_length": 16.0,
        "points": 32,
        "cutoff": None,
        "k0": 0.0,
        "center": 4.0,
        "width": 2.0,
        "amplitude": 5.0,
        "lambda": -1.0,
        "dt": 0.2,
        "steps": 500,
    }
    code, out = run_cli(tmp_path, payload)
    assert code == 3
    record = json.loads(capsys.readouterr().err)
    assert record["error"]["type"] == "numerical"
    saved = json.loads((out / "error.json").read_text())
    assert saved["exit_code"] == 3


def test_correlator_too_large_for_memory_exits_with_the_numerical_code(tmp_path, capsys, monkeypatch):
    # With the validate check bypassed, the library's own guard still stops
    # the run before it allocates, through the numerical-failure handler.
    monkeypatch.setitem(cli._EXPERIMENTS, "vacuum", cli._EXPERIMENTS["vacuum"]._replace(check=lambda params: []))
    code, out = run_cli(tmp_path, VACUUM_TOO_LARGE)
    assert code == 3
    record = json.loads(capsys.readouterr().err)
    assert record["error"]["type"] == "numerical"
    assert "physical memory" in record["error"]["message"]
    assert json.loads((out / "error.json").read_text())["exit_code"] == 3


# The child caps its address space once the CLI is imported, so that the
# failed allocation cannot load the machine whatever its memory.
_CAPPED_RUN = """
import resource, sys
from ontofield.cli import main
resource.setrlimit(resource.RLIMIT_AS, (3 << 30, resource.getrlimit(resource.RLIMIT_AS)[1]))
sys.exit(main(["run", sys.argv[1], "--output-dir", sys.argv[2]]))
"""


def test_a_run_that_cannot_allocate_exits_with_the_numerical_code(tmp_path):
    # validate passes a 10**7-state spectrum; its dense hop matrix would be 1.6 PB.
    resource = pytest.importorskip("resource")
    config = write_config(tmp_path, {**SPECTRUM, "n_states": 10**7})
    proc = subprocess.run(
        [sys.executable, "-c", _CAPPED_RUN, config, str(tmp_path / "out")],
        env=with_src({**os.environ, "OPENBLAS_NUM_THREADS": "1"}), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 3, proc.stderr
    record = json.loads(proc.stderr)
    assert record["error"]["type"] == "memory"
    assert "Unable to allocate" in record["error"]["message"]
    assert json.loads((tmp_path / "out" / "error.json").read_text()) == record
    assert not (tmp_path / "out" / "spectrum.csv").exists()


# A packet run on 8^3 sites warms the process; the run on 32^3 is measured.
_CLI_PEAK_SCRIPT = """
import contextlib, io, sys
from ontofield.cli import main

def cli_run(config, out):
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["run", config, "--output-dir", out]) == 0

def warm():
    cli_run(sys.argv[1], sys.argv[3] + "/warm")

def run():
    cli_run(sys.argv[2], sys.argv[3] + "/run")
"""

_PACKET_3D = {
    "evolve": {
        "experiment": "evolve", "mass": 1.0, "box_length": [24.0] * 3, "cutoff": None,
        "k0": [1.0, 0.5, 0.0], "center": [6.0] * 3, "width": 2.0, "dt": 0.5,
    },
    "interact": {
        "experiment": "interact", "mass": 1.0, "box_length": [32.0] * 3, "cutoff": None,
        "k0": [1.0, 0.0, 0.0], "center": [8.0, 16.0, 16.0], "width": 3.0, "amplitude": 0.05, "lambda": 0.1,
        "dt": 0.25,
    },
}


def _cli_peak(tmp_path, experiment, records):
    """The peak of a CLI run on 32^3 sites that records ``records`` fields, step 0 included."""
    tmp_path.mkdir()
    # evolve records every 4th step, as the scaled benchmark's does; interact runs 200 steps.
    steps, every = (4 * (records - 1), 4) if experiment == "evolve" else (200, 200 // (records - 1))
    configs = [
        write_config(tmp_path, {**_PACKET_3D[experiment], "points": [n] * 3, "steps": steps, "record_every": every}, f"{n}.json")
        for n in (8, 32)
    ]
    return peak_bytes(_CLI_PEAK_SCRIPT, *configs, tmp_path)


@pytest.mark.parametrize("experiment, few, many, record_bytes", [("evolve", 3, 9, 16), ("interact", 3, 21, 8)])
def test_a_cli_packet_run_holds_one_record_whatever_the_record_count(tmp_path, experiment, few, many, record_bytes):
    # evolve writes each snapshot as it is made, and interact keeps the last
    # field, so the run's peak must not grow with the record count.  In
    # bytes per site and extra record, collecting every record grew it by
    # 16.0 (evolve) and 8.4 (interact); streamed, four runs of each read
    # -0.23 to 0.06.
    growth = _cli_peak(tmp_path / "many", experiment, many) - _cli_peak(tmp_path / "few", experiment, few)
    assert growth / ((many - few) * 32**3) < record_bytes / 4


def test_validate_counts_the_evolved_estimate_against_memory(tmp_path, capsys, monkeypatch):
    # A machine whose memory holds one 512-site estimate but not two: the
    # evolved estimate is accumulated beside the static one.
    physical = (vacuum._correlator_bytes(512, 1) + vacuum._correlator_bytes(512, 2)) // 2
    page = os.sysconf("SC_PAGE_SIZE")
    sysconf = os.sysconf
    monkeypatch.setattr(os, "sysconf", lambda name: physical // page if name == "SC_PHYS_PAGES" else sysconf(name))
    payload = {**VACUUM_TOO_LARGE, "points": [8, 8, 8]}
    assert main(["validate", write_config(tmp_path, payload)]) == 0
    capsys.readouterr()
    payload["evolve_time"] = 1.0
    assert main(["validate", write_config(tmp_path, payload)]) == 2
    violations = json.loads(capsys.readouterr().out)["violations"]
    assert any("512 sites, 2 at once" in v for v in violations)


def test_vacuum_run_reports_static_and_evolved_pulls(tmp_path):
    payload = {
        "experiment": "vacuum",
        "mass": 1.0,
        "box_length": 2 * np.pi,
        "points": 16,
        "cutoff": None,
        "samples": 400,
        "evolve_time": 1.0,
        "seed": 6,
    }
    code, out = run_cli(tmp_path, payload)
    assert code == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["results"]["static"]["max_diagonal_pull"] < 3.0
    assert manifest["results"]["evolved"]["max_offdiagonal_pull"] < 3.0
    assert (out / "correlator.csv").exists()
    assert (out / "correlator_evolved.csv").exists()


def test_vacuum_run_draws_each_sample_once_for_both_correlators(tmp_path, monkeypatch):
    # The static and the evolved estimate share one draw per block.
    draw = vacuum._draw_phases
    rows = []

    def counted(spec, start, stop, *buffers):
        rows.append((start, stop))
        return draw(spec, start, stop, *buffers)

    monkeypatch.setattr(vacuum, "_draw_phases", counted)
    payload = {
        "experiment": "vacuum", "mass": 1.0, "box_length": 8.0, "points": 8,
        "cutoff": None, "samples": 300, "evolve_time": 0.5, "seed": 3,
    }
    code, out = run_cli(tmp_path, payload)
    assert code == 0
    assert (out / "correlator.csv").exists() and (out / "correlator_evolved.csv").exists()
    assert sum(stop - start for start, stop in rows) == 300
    assert sorted(rows) == [(0, vacuum._BATCH_ROWS), (vacuum._BATCH_ROWS, 300)]


def test_non_finite_results_are_written_as_null_in_strict_json(tmp_path, capsys, monkeypatch):
    # A zero standard error makes the vacuum pulls x/0 (infinite) and 0/0
    # (NaN), which plain json.dumps would write as Infinity and NaN.
    def degenerate(spec, evolve_times):
        n = int(np.prod(spec.lattice.grid_points))
        zeros = np.zeros((n, n))
        return [
            CorrelatorEstimate(
                mean=2.0 * np.eye(n, dtype=complex), stderr=zeros, count=spec.count,
                zero_variance=zeros == 0.0,
            )
            for _ in evolve_times
        ]

    monkeypatch.setattr(cli, "ensemble_correlators", degenerate)
    payload = {
        "experiment": "vacuum",
        "mass": 1.0,
        "box_length": 8.0,
        "points": 4,
        "cutoff": None,
        "samples": 100,
    }
    code, out = run_cli(tmp_path, payload)
    assert code == 0

    def reject(token):
        raise AssertionError(f"non-standard JSON constant {token}")

    manifest = json.loads((out / "manifest.json").read_text(), parse_constant=reject)
    stdout = json.loads(capsys.readouterr().out, parse_constant=reject)
    for results in (manifest["results"], stdout["results"]):
        assert results["static"]["max_diagonal_pull"] is None
        assert results["static"]["max_offdiagonal_pull"] is None
        assert results["static"]["zero_variance_entries"] == 16


def _matrix_pull_summary(est):
    """The pull summary over one float matrix of every site pair, as a reference."""
    n = est.mean.shape[0]
    with np.errstate(divide="ignore", invalid="ignore"):
        diag_pulls = np.abs(np.diag(est.mean) - 1.0) / np.diag(est.stderr)
        off_pulls = np.abs(est.mean) / est.stderr
    off_pulls.flat[:: n + 1] = -np.inf
    return {
        "max_diagonal_pull": float(np.max(diag_pulls)),
        "max_offdiagonal_pull": float(np.max(off_pulls)),
        "zero_variance_entries": int(np.sum(est.zero_variance)),
    }


# Site pairs given a zero standard error: with a zero mean the pull is 0/0
# (NaN), otherwise x/0 (infinite).  On the diagonal the NaN is masked out.
@pytest.mark.parametrize(
    "n, zero_mean, zero_stderr",
    [
        (1, [], []),
        (5, [], []),
        (300, [], []),
        (600, [(400, 10)], [(400, 10)]),
        (600, [], [(300, 599)]),
        (600, [(450, 450)], [(450, 450)]),
        (520, [(3, 515)], [(3, 515), (515, 3)]),
    ],
)
def test_strip_pull_summary_equals_the_matrix_form(n, zero_mean, zero_stderr):
    rng = np.random.default_rng(n)
    mean = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    stderr = rng.uniform(0.5, 2.0, (n, n))
    for pair in zero_mean:
        mean[pair] = 0.0
    for pair in zero_stderr:
        stderr[pair] = 0.0
    est = CorrelatorEstimate(mean=mean, stderr=stderr, count=100, zero_variance=stderr == 0.0)
    summary = cli._pull_summary(est)
    assert repr(summary) == repr(_matrix_pull_summary(est))
    off_nan = any(pair in zero_stderr and pair[0] != pair[1] for pair in zero_mean)
    assert math.isnan(summary["max_offdiagonal_pull"]) == off_nan


# --- reproducibility and routing ----------------------------------------------------


def test_identical_configs_give_byte_identical_artifacts(tmp_path):
    payload = {
        "experiment": "vacuum",
        "mass": 1.0,
        "box_length": 8.0,
        "points": 8,
        "cutoff": None,
        "samples": 150,
    }
    _, first = run_cli(tmp_path, payload, out="first")
    _, second = run_cli(tmp_path, payload, out="second")
    assert (first / "correlator.csv").read_bytes() == (second / "correlator.csv").read_bytes()


def test_seed_override_changes_the_draws_and_is_recorded(tmp_path):
    payload = {
        "experiment": "vacuum",
        "mass": 1.0,
        "box_length": 8.0,
        "points": 8,
        "cutoff": None,
        "samples": 150,
    }
    _, baseline = run_cli(tmp_path, payload, out="baseline")
    code, seeded = run_cli(tmp_path, payload, "--seed", "5", out="seeded")
    assert code == 0
    assert (baseline / "correlator.csv").read_bytes() != (seeded / "correlator.csv").read_bytes()
    manifest = json.loads((seeded / "manifest.json").read_text())
    assert manifest["config"]["seed"] == 5


def test_output_directory_resolution_order(tmp_path, monkeypatch):
    config = write_config(tmp_path, SPECTRUM)
    env_dir = tmp_path / "from_env"
    monkeypatch.setenv("ONTOFIELD_OUTPUT_DIR", str(env_dir))
    assert main(["run", config]) == 0
    assert (env_dir / "spectrum.csv").exists()
    flag_dir = tmp_path / "from_flag"
    assert main(["run", config, "--output-dir", str(flag_dir)]) == 0
    assert (flag_dir / "spectrum.csv").exists()


# --- validate/run agreement --------------------------------------------------------

# One small valid config per experiment; the property test edits them.
_SMALL_CONFIGS = {
    "identities": {"n_levels": 4, "omega": 2.0},
    "spectrum": {"n_states": 4, "delta_t": 0.5},
    "kernel": {
        "kind": "F1", "mass": 1.0, "cutoff": 240.0, "method": "radial_reduced", "window": "septic",
        "taper_frac": 0.5, "z_start": 0.5, "z_stop": 5.0, "z_count": 2,
    },
    "decay": {"mass": 1.0, "cutoff": None, "method": "contour", "z_start": 2.0, "z_stop": 8.0, "z_count": 8},
    "front": {
        "mass": 1.0, "box_length": 64.0, "points": 128, "cutoff": None, "k0": 1.0, "center": 16.0,
        "width": 4.0, "dt": 2.0, "steps": 5,
    },
    "evolve": {
        "mass": 1.0, "box_length": 16.0, "points": 16, "cutoff": None, "k0": 1.0, "center": 4.0,
        "width": 2.0, "dt": 0.5, "steps": 2,
    },
    "interact": {
        "mass": 1.0, "box_length": 16.0, "points": 16, "cutoff": None, "k0": 1.0, "center": 4.0,
        "width": 2.0, "amplitude": 0.05, "lambda": 0.1, "dt": 0.2, "steps": 20,
    },
    "vacuum": {"mass": 1.0, "box_length": 6.283185307179586, "points": 4, "cutoff": None, "samples": 100},
}
_KEYS = sorted({key for cfg in _SMALL_CONFIGS.values() for key in cfg} | {"experiment", "seed", "t", "bogus"})
# Values that are valid for some keys and invalid for others; all keep a run small.
_VALUES = [-1, 0, 0.5, 1, 2, 3, 8, 100, "x", None, True, [1], [2, 2], [4, 2, 2], "F2", "contour", "complex", "cosine"]
_DELETE = object()


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(sorted(_SMALL_CONFIGS)),
    st.lists(st.tuples(st.sampled_from(_KEYS), st.sampled_from(_VALUES + [_DELETE])), max_size=2),
)
# A valid config the leapfrog blows up on: validate exits 0, run exits 3 at step 1.
@example(experiment="interact", edits=[("amplitude", 100), ("lambda", 100)])
# A mass too large to square, and a packet too narrow to be finite.
@example(experiment="vacuum", edits=[("mass", 1e300)])
# An evolution time whose phase overflows, and one whose phase does not.
@example(experiment="vacuum", edits=[("evolve_time", 1e308)])
@example(experiment="vacuum", edits=[("evolve_time", 1e300)])
# A packet run's last time steps * dt: infinite, and past the largest double by its step count.
@example(experiment="evolve", edits=[("dt", 1e308)])
@example(experiment="front", edits=[("steps", 10**400)])
@example(experiment="evolve", edits=[("width", 1e-300)])
# Spacings whose squares overflow and underflow.
@example(experiment="interact", edits=[("box_length", 1e300)])
@example(experiment="interact", edits=[("box_length", 1e-300)])
def test_validate_predicts_whether_run_rejects_the_config(tmp_path_factory, experiment, edits):
    # validate exit 0 means run never exits 2; validate exit 2 means run exits 2.
    config = {"experiment": experiment, **_SMALL_CONFIGS[experiment]}
    for key, value in edits:
        if value is _DELETE:
            config.pop(key, None)
        else:
            config[key] = value
    tmp = tmp_path_factory.mktemp("agree")
    path = write_config(tmp, config)
    verdict = main(["validate", path])
    outcome = main(["run", path, "--output-dir", str(tmp / "out")])
    assert verdict in (0, 2)
    assert outcome in (0, 2, 3)
    assert (outcome == 2) == (verdict == 2), (config, verdict, outcome)
