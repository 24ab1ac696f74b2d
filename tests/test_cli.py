"""End-to-end tests for the config-driven command line."""

import csv
import json

import numpy as np
import pytest

import ontofield.cli as cli
from ontofield.cli import main, validate_config
from ontofield.kernels import f1_contour
from ontofield.lattice import load_field
from ontofield.vacuum import CorrelatorEstimate

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


@pytest.mark.parametrize(
    "payload, needle",
    [(FRONT_2D, "one-dimensional"), (INTERACT_UNSTABLE_STEP, "stability bound 0.485")],
)
def test_validate_predicts_failures_known_before_compute(tmp_path, capsys, payload, needle):
    assert main(["validate", write_config(tmp_path, payload)]) == 2
    violations = json.loads(capsys.readouterr().out)["violations"]
    assert any(needle in v for v in violations)
    assert not any("np.float64" in v for v in violations)
    code, out_dir = run_cli(tmp_path, payload)
    assert code == 2
    assert not out_dir.exists()


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


def test_missing_config_file_is_an_io_failure(tmp_path):
    assert main(["run", str(tmp_path / "absent.json")]) == 4


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


def test_non_finite_results_are_written_as_null_in_strict_json(tmp_path, capsys, monkeypatch):
    # A zero standard error makes the vacuum pulls x/0 (infinite) and 0/0
    # (NaN), which plain json.dumps would write as Infinity and NaN.
    def degenerate(spec, evolve_time=0.0):
        n = int(np.prod(spec.lattice.grid_points))
        zeros = np.zeros((n, n))
        return CorrelatorEstimate(
            mean=2.0 * np.eye(n, dtype=complex), stderr=zeros, count=spec.count,
            zero_variance=zeros == 0.0,
        )

    monkeypatch.setattr(cli, "ensemble_correlator", degenerate)
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
