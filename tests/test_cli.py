"""End-to-end tests for the config-driven command line."""

import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ontofield
import ontofield.cli as cli
import ontofield.vacuum as vacuum
from ontofield.cli import main, validate_config
from ontofield.dynamics import stability_bound
from ontofield.kernels import f1_contour
from ontofield.lattice import build_lattice, load_field
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


def test_every_experiment_has_one_schema_and_one_runner():
    assert set(cli._RUNNERS) == set(cli._SCHEMAS)
    # The experiment list is the schema table's keys, in the order validate names them.
    assert cli._EXPERIMENTS == (
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
    monkeypatch.setitem(cli._EXTRA_CHECKS, "vacuum", cli._check_lattice)
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
    src = str(Path(ontofield.__file__).resolve().parents[1])
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", _CAPPED_RUN, config, str(tmp_path / "out")],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 3, proc.stderr
    record = json.loads(proc.stderr)
    assert record["error"]["type"] == "memory"
    assert "Unable to allocate" in record["error"]["message"]
    assert json.loads((tmp_path / "out" / "error.json").read_text()) == record
    assert not (tmp_path / "out" / "spectrum.csv").exists()


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

    def counted(spec, start, stop):
        rows.append((start, stop))
        return draw(spec, start, stop)

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
@example(experiment="evolve", edits=[("width", 1e-300)])
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
