"""Benchmark of the ``ontofield`` CLI: one client, one op at a time.

An op is one ``ontofield.cli.main(["run", config, "--output-dir", dir])``
call, or one snapshot read-back through ``ontofield.lattice.load_field``.  A
pass runs every config of the workload once (see ``workloads.py``) and then
reads back every snapshot it wrote.  The run measures, from the checkout root:

    python3 bench/run.py --workload readme --seed 1 --seconds 45 --trace 0

1. set-up: a fresh interpreter's ``import ontofield.cli``, timed several
   times (every CLI invocation pays it);
2. one untimed warm-up pass, whose artifact digests are the reference that
   every later pass of the same config must reproduce byte for byte;
3. timed passes until ``--seconds`` have elapsed.  With ``--trace 1`` the
   passes alternate between untraced and traced (see ``spans.py``), and the
   per-layer metrics come from the traced ones.

The end-to-end times are calibrated seconds: each op's wall time is scaled by
a fixed reference workload timed just before and just after it
(``calibrate.py``), so that the host's drifting speed cancels.  The raw wall
times are in the record under ``wall_timings``.

Every op is checked (``checks.py``).  The last line of stdout is the result
object; the line before it is a record with the environment, the seed, the
artifact digests and the timing distributions.  Both, and the spans of a
traced run, are also written under ``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate
import checks
import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 5
SETUP_TIMEOUT_S = 60
THREAD_ENV = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
LIMITS = (
    "byte counts are computed from array and file sizes",
    "writes and reads hit the page cache, so no disk rates are claimed",
    "no bandwidth roofline is reported: arrays of 4x the last-level cache "
    "(4 x 300 MiB on the reference machine) do not fit in 8 GB of memory",
)


def measure_setup(repeats: int) -> tuple[list[float], list[float]]:
    """Wall and calibrated times of a fresh interpreter importing ``ontofield.cli``.

    One untimed import first writes the bytecode cache, as any installed
    copy would have.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    cmd = [sys.executable, "-c", "import ontofield.cli"]
    subprocess.run(cmd, env=env, check=True, timeout=SETUP_TIMEOUT_S)
    wall, cal = [], []
    ref = calibrate.time_reference()
    for _ in range(repeats):
        start = time.perf_counter()
        subprocess.run(cmd, env=env, check=True, timeout=SETUP_TIMEOUT_S)
        wall.append(time.perf_counter() - start)
        after = calibrate.time_reference()
        cal.append(calibrate.calibrated(wall[-1], ref, after))
        ref = after
    return wall, cal


def environment() -> dict:
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            np.show_config()
        blas = buf.getvalue()
    caches = {}
    # Read-only: sysfs describes the caches of the first CPU.
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level, kind, size = ((index / f).read_text().strip() for f in ("level", "type", "size"))
        except OSError:
            continue
        caches[f"L{level}-{kind}"] = size
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
        "caches": caches,
        "limits": list(LIMITS),
    }


class Bench:
    """Runs passes of one workload and checks every op."""

    def __init__(self, configs: dict[str, dict], work: Path) -> None:
        import ontofield.cli
        import ontofield.lattice

        self.cli = ontofield.cli
        self.lattice = ontofield.lattice
        self.configs = configs
        self.work = work
        self.config_paths = {}
        (work / "configs").mkdir(parents=True, exist_ok=True)
        for name, cfg in configs.items():
            path = work / "configs" / f"{name}.json"
            path.write_text(json.dumps(cfg, indent=2) + "\n")
            self.config_paths[name] = path
        self.reference: dict[str, dict[str, str]] = {}
        self.attempted = 0
        self.failures: list[dict] = []
        self.tracer: spans.Tracer | None = None
        self.passes = 0
        self.reference_times: list[float] = []

    def _time_reference(self) -> float:
        self.reference_times.append(calibrate.time_reference())
        return self.reference_times[-1]

    def failed(self) -> int:
        """Number of failed ops; an op fails once however many checks it breaks."""
        return len({(f["pass"], f["op"]) for f in self.failures})

    def _fail(self, op: str, problems: list[str]) -> None:
        if problems:
            self.failures.append({"pass": self.passes, "op": op, "problems": problems})

    def _run_cli(self, name: str, out: Path) -> tuple[float, int | str, str]:
        argv = ["run", str(self.config_paths[name]), "--output-dir", str(out)]
        stdout, stderr = io.StringIO(), io.StringIO()
        tracer = self.tracer
        start = time.perf_counter()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                if tracer is None:
                    code = self.cli.main(argv)
                else:
                    code = tracer.call("cli.run", self.cli.main, argv)
            except SystemExit as exc:
                code = exc.code
            except Exception as exc:  # a crash is a failed op, not the end of the run
                code = f"{type(exc).__name__}: {exc}"
        return time.perf_counter() - start, code, stderr.getvalue()

    def _check_cli(self, name: str, out: Path, code, stderr: str) -> None:
        if code != 0:
            self._fail(name, [f"exit {code!r}: {stderr.strip()[-500:]}"])
            return
        try:
            manifest = json.loads((out / "manifest.json").read_text())
            problems = checks.physics_violations(self.configs[name], manifest["results"])
        except (OSError, ValueError, KeyError, TypeError) as exc:
            problems = [f"unreadable manifest: {exc!r}"]
        digests = checks.data_digests(out)
        reference = self.reference.setdefault(name, digests)
        problems += checks.digest_mismatches(reference, digests)
        self._fail(name, problems)

    def _readback(self, path: Path, shape: tuple, t: float) -> float:
        start = time.perf_counter()
        try:
            field, _ = self.lattice.load_field(path)
        except (OSError, ValueError) as exc:
            self._fail(f"readback:{path.parent.name}/{path.name}", [repr(exc)])
            return time.perf_counter() - start
        elapsed = time.perf_counter() - start
        problems = []
        if field.values.shape != shape:
            problems.append(f"shape {field.values.shape}, expected {shape}")
        if field.time != t:
            problems.append(f"time {field.time!r}, expected {t!r}")
        self._fail(f"readback:{path.parent.name}/{path.name}", problems)
        return elapsed

    def run_pass(self, tamper=None) -> tuple[dict[str, float], dict[str, float]]:
        """One pass; returns wall and calibrated seconds per experiment plus ``readback``.

        The reference workload runs before the first op and after each op
        (after its checks, outside its timing); the snapshot read-backs are
        calibrated as one group.  ``tamper(name, out_dir)``, used by the
        self-tests, edits an op's output before it is checked.
        """
        pass_dir = self.work / f"pass{self.passes}"
        times, cal = {}, {}
        ref = self._time_reference()
        for name in self.configs:
            out = pass_dir / name
            if self.tracer is not None:
                self.tracer.begin_op(name)
            times[name], code, stderr = self._run_cli(name, out)
            self.attempted += 1
            if tamper is not None:
                tamper(name, out)
            self._check_cli(name, out, code, stderr)
            after = self._time_reference()
            cal[name] = calibrate.calibrated(times[name], ref, after)
            ref = after
        times["readback"] = 0.0
        for path, shape, t in checks.readback_targets(self.configs, pass_dir):
            if self.tracer is not None:
                self.tracer.begin_op("readback")
            times["readback"] += self._readback(path, shape, t)
            self.attempted += 1
        cal["readback"] = calibrate.calibrated(times["readback"], ref, self._time_reference())
        shutil.rmtree(pass_dir, ignore_errors=True)
        self.passes += 1
        return times, cal

    def traced_pass(self, tracer: spans.Tracer) -> tuple[dict[str, float], dict[str, float], dict[str, float]]:
        """One pass with every layer boundary wrapped; returns wall and calibrated times and layer metrics."""
        lo = len(tracer.start)
        tracer.counts.clear()
        spans.install(tracer)
        self.tracer = tracer
        try:
            times, cal = self.run_pass()
        finally:
            self.tracer = None
            tracer.unwrap_all()
        return times, cal, spans.layer_metrics(tracer, lo, len(tracer.start))


def summarize(samples: list[float]) -> dict:
    """Median, the highest percentile with at least ten samples beyond it, and the count."""
    ordered = sorted(samples)
    n = len(ordered)
    out = {"median": statistics.median(ordered), "n": n}
    for p in (99.9, 99, 95, 90, 75):
        if n * (1.0 - p / 100.0) >= 10:
            out[f"p{p:g}"] = statistics.quantiles(ordered, n=1000, method="inclusive")[round(p * 10) - 1]
            break
    return out


def pass_metrics(times: dict[str, float]) -> dict[str, float]:
    """End-to-end timings of one pass."""
    return {
        "wall_s": sum(times.values()),
        "run_s.quick": sum(times[name] for name in workloads.QUICK),
        "run_s.kernel": times["kernel"],
        "run_s.evolve": times["evolve"],
        "run_s.interact": times["interact"],
        "run_s.vacuum": times["vacuum"],
        "run_s.readback": times["readback"],
    }


def load_units() -> tuple[dict[str, str], dict[str, str]]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return (
        {m["name"]: m["unit"] for m in spec["end_to_end"]},
        {m["name"]: m["unit"] for m in spec["per_layer"]},
    )


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="reduced sizes, for the self-tests")
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "ontofield" / "cli.py").is_file():
        print(f"error: no ontofield sources under {SRC}", file=sys.stderr)
        return 2
    e2e_units, layer_units = load_units()
    sys.path.insert(0, str(SRC))

    setup_wall, setup_cal = measure_setup(SETUP_REPEATS)
    label = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-smoke' if args.smoke else ''}"
    work = OUT / label
    shutil.rmtree(work, ignore_errors=True)
    configs = workloads.generate(args.workload, args.seed, smoke=args.smoke)
    bench = Bench(configs, work)
    bench.run_pass()  # warm-up; its digests are the reference

    plain: list[dict[str, float]] = []
    plain_wall: list[dict[str, float]] = []
    traced: list[dict[str, float]] = []
    traced_wall: list[dict[str, float]] = []
    layers: list[dict[str, float]] = []
    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        tracer.span_cost = spans.span_cost()
    start = time.perf_counter()
    while time.perf_counter() - start < args.seconds or not plain or (tracer and not traced):
        times, cal = bench.run_pass()
        plain_wall.append(pass_metrics(times))
        plain.append(pass_metrics(cal))
        if tracer is not None:
            times, cal, layer = bench.traced_pass(tracer)
            traced_wall.append(pass_metrics(times))
            traced.append(pass_metrics(cal))
            layers.append(layer)

    stats = {key: summarize([p[key] for p in plain]) for key in plain[0]}
    stats["setup_s"] = summarize(setup_cal)
    wall_stats = {key: summarize([p[key] for p in plain_wall]) for key in plain_wall[0]}
    wall_stats["setup_s"] = summarize(setup_wall)
    wall_stats["reference_s"] = summarize(bench.reference_times)
    failed = bench.failed()
    if tracer is None:
        values = {key: s["median"] for key, s in stats.items()}
        values["ok_frac"] = (bench.attempted - failed) / bench.attempted
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        units = e2e_units
        trace_record = None
    else:
        values = {key: statistics.median(layer[key] for layer in layers) for key in layers[0]}
        stats["traced_wall_s"] = summarize([p["wall_s"] for p in traced])
        wall_stats["traced_wall_s"] = summarize([p["wall_s"] for p in traced_wall])
        values["trace.overhead_frac"] = stats["traced_wall_s"]["median"] / stats["wall_s"]["median"] - 1.0
        units = layer_units
        # Layer times are wall seconds, so the share is taken of the traced wall time.
        trace_record = {
            "span_cost_us": tracer.span_cost * 1e6,
            "cli_self_frac": values["cli.self_s"] / wall_stats["traced_wall_s"]["median"],
        }
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "smoke": args.smoke,
        "passes": bench.passes,
        "environment": environment(),
        "configs": configs,
        "digests": bench.reference,
        "reference_s": calibrate.REFERENCE_S,
        "timings": stats,
        "wall_timings": wall_stats,
        "trace": trace_record,
        "fail_frac": failed / bench.attempted,
        "failures": bench.failures[:50],
    }
    result = {"correct": failed == 0, "attempted": bench.attempted, "failed": failed, "metrics": metrics}
    (OUT / f"{label}.json").write_text(json.dumps({"record": record, "result": result}, indent=2) + "\n")
    if tracer is not None:
        tracer.write(OUT / f"{label}.spans.json.gz")
    shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
