"""Self-tests of the benchmark; run from the checkout root:

    python3 bench/selftest.py

1. A smoke-sized run of each workload, untraced and traced, emits exactly the
   metrics BENCHMARK.json names, each with its unit, and fails no op.
   In the traced run, time outside every layer span (``cli.self_s``) is
   below 10% of the traced pass.
2. Corrupting one artifact, feeding one out-of-bound manifest value, or
   shifting one snapshot's time stamp makes the op it touches fail.
3. Without the program's sources the benchmark exits non-zero and prints no
   result.

Exits 0 when every check holds and 1 otherwise, naming each broken check.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import run
import workloads

RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def smoke_run(workload: str, trace: int, cwd: Path = run.ROOT) -> subprocess.CompletedProcess:
    cmd = [
        sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
        "--seconds", "0.1", "--trace", str(trace), "--smoke",
    ]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def check_emitted_metrics() -> list[str]:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    problems = []
    for workload in sorted(workloads.WORKLOADS):
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            where = f"{workload} trace={trace}"
            proc = smoke_run(workload, trace)
            if proc.returncode != 0:
                problems.append(f"{where}: exit {proc.returncode}: {proc.stderr[-500:]}")
                continue
            *_, record_line, result_line = proc.stdout.strip().splitlines()
            record, result = json.loads(record_line)["record"], json.loads(result_line)
            if set(result) != RESULT_KEYS:
                problems.append(f"{where}: result keys {sorted(result)}")
                continue
            if result["failed"] != 0 or not result["correct"] or result["attempted"] < 1:
                problems.append(f"{where}: {result['failed']} of {result['attempted']} ops failed")
            wanted = {m["name"]: m["unit"] for m in spec[section]}
            got = {name: m.get("unit") for name, m in result["metrics"].items()}
            if got != wanted:
                problems.append(f"{where}: metrics/units differ from BENCHMARK.json: {sorted(set(got.items()) ^ set(wanted.items()))}")
            if trace:
                traced_wall = record["wall_timings"]["traced_wall_s"]["median"]
                self_s = result["metrics"].get("cli.self_s", {}).get("value", math.inf)
                if not self_s < 0.1 * traced_wall:
                    problems.append(f"{where}: cli.self_s {self_s} not below 10% of traced wall {traced_wall}")
            for name, metric in result["metrics"].items():
                value = metric.get("value")
                if set(metric) != {"value", "unit"} or not isinstance(value, (int, float)) or not math.isfinite(value):
                    problems.append(f"{where}: {name} = {metric!r}")
                elif section == "end_to_end" and value <= 0:
                    problems.append(f"{where}: end-to-end metric {name} is {value}")
    return problems


def _flip_byte(path: Path) -> None:
    data = bytearray(path.read_bytes())
    data[len(data) // 2] ^= 0x01
    path.write_bytes(bytes(data))


def _raise_drift(path: Path) -> None:
    manifest = json.loads(path.read_text())
    manifest["results"]["energy_drift"] = 1e-3
    path.write_text(json.dumps(manifest))


def _shift_time(path: Path) -> None:
    header, body = path.read_text().split("\n", 1)
    fields = header.split(",")
    fields[-1] = repr(float(fields[-1]) + 0.5)
    path.write_text(",".join(fields) + "\n" + body)


def check_gate() -> list[str]:
    """Each fault must make the op it targets fail."""
    sys.path.insert(0, str(run.SRC))
    faults = {
        "corrupt kernel.csv": ("kernel", lambda out: _flip_byte(out / "kernel.csv"), "kernel"),
        "out-of-bound energy_drift": ("interact", lambda out: _raise_drift(out / "manifest.json"), "interact"),
        "wrong snapshot time stamp": (
            "evolve", lambda out: _shift_time(out / "snapshot_0001.csv"), "readback:evolve/snapshot_0001.csv",
        ),
    }
    problems = []
    for label, (target, edit, failing_op) in faults.items():
        work = run.OUT / "selftest-gate"
        shutil.rmtree(work, ignore_errors=True)
        bench = run.Bench(workloads.generate("readme", 3, smoke=True), work)
        bench.run_pass()
        clean = bench.failed()
        bench.run_pass(tamper=lambda name, out: edit(out) if name == target else None)
        shutil.rmtree(work, ignore_errors=True)
        if clean != 0:
            problems.append(f"{label}: the clean pass already failed: {bench.failures}")
        elif failing_op not in {f["op"] for f in bench.failures}:
            problems.append(f"{label}: op {failing_op} did not fail: {bench.failures}")
    return problems


def check_bare_directory() -> list[str]:
    bare = run.OUT / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    shutil.copytree(run.ROOT / "bench", bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = smoke_run("readme", 0, cwd=bare)
    shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        return [f"bare directory: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}"]
    return []


def main() -> int:
    problems = check_bare_directory() + check_gate() + check_emitted_metrics()
    for problem in problems:
        print("FAIL", problem)
    print("selftest:", "ok" if not problems else f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
