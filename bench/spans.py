"""Tracing from outside the program: spans and counts at layer boundaries.

The tracer wraps the names that callers use (``ontofield.cli.save_field``,
``ontofield.vacuum.sample_vacuum``, ``scipy.integrate.quad`` and so on) while
a traced pass runs, and restores them afterwards, so untraced passes run the
program untouched and no file under ``src/`` changes.  Each span carries its
name, start, end, parent span and op id; spans are kept in compact arrays in
memory and written out once, when the run ends.  Counts are taken in the same
wrappers, per op.  Layers are the package's modules.

A wrapped call costs the tracer a little time outside the child's span (the
wrapper's call, ``open`` before its clock read and ``close`` after it), which
lands in the parent's span.  :func:`span_cost` measures that cost on an empty
call, and :meth:`Tracer.totals` takes it off each parent's self time once per
direct child, so self times are the program's own.
"""

from __future__ import annotations

import functools
import gzip
import json
import math
import os
import time
from array import array
from collections import defaultdict
from pathlib import Path


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("q")
        self.op = array("q")
        self.start = array("d")
        self.end = array("d")
        self.op_id = -1
        self.op_names: list[str] = []
        # Counts per op name, then per count key.
        self.counts: defaultdict[str, defaultdict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.op_counts: defaultdict[str, float] | None = None
        self.span_cost = 0.0
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.t0 = time.perf_counter()

    def open(self, name: str) -> int:
        name_id = self._name_ids.get(name)
        if name_id is None:
            name_id = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.op_id)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def begin_op(self, op_name: str) -> None:
        """Attribute the spans and counts that follow to a new op."""
        self.op_id = len(self.op_names)
        self.op_names.append(op_name)
        self.op_counts = self.counts[op_name]

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span; the benchmark's own calls use this."""
        idx = self.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(idx)

    def wrap(self, owner: object, attr: str, name: str | None, count=None) -> None:
        """Replace ``owner.attr`` by a traced version until :meth:`unwrap_all`.

        ``name=None`` records counts only.  ``count(counts, args, kwargs,
        result)`` runs inside the span, on the current op's counts.
        """
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if name is None:
                result = original(*args, **kwargs)
                if count is not None:
                    count(tracer.op_counts, args, kwargs, result)
                return result
            idx = tracer.open(name)
            try:
                result = original(*args, **kwargs)
                if count is not None:
                    count(tracer.op_counts, args, kwargs, result)
                return result
            finally:
                tracer.close(idx)

        self._patches.append((owner, attr, original))
        setattr(owner, attr, traced)

    def unwrap_all(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def totals(self, lo: int, hi: int, op_name: str | None = None) -> tuple[dict[str, float], dict[str, float]]:
        """Inclusive and self time per span name over spans ``lo:hi``.

        Self time is a span's duration minus the durations of its direct
        children and minus ``span_cost`` per direct child; calls are
        sequential, so children never overlap.  ``op_name`` keeps only the
        spans of ops of that name.
        """
        child = defaultdict(float)
        for i in range(lo, hi):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i] + self.span_cost
        inclusive: defaultdict[str, float] = defaultdict(float)
        own: defaultdict[str, float] = defaultdict(float)
        for i in range(lo, hi):
            if op_name is not None and self.op_names[self.op[i]] != op_name:
                continue
            dur = self.end[i] - self.start[i]
            label = self.names[self.name[i]]
            inclusive[label] += dur
            own[label] += dur - child.get(i, 0.0)
        return inclusive, own

    def write(self, path: Path) -> None:
        """Write every span as columns; times are nanoseconds since the tracer began."""
        def to_ns(values: array) -> list[int]:
            return [round((v - self.t0) * 1e9) for v in values]

        record = {
            "names": self.names,
            "name": list(self.name),
            "start_ns": to_ns(self.start),
            "end_ns": to_ns(self.end),
            "parent": list(self.parent),
            "op": list(self.op),
            "op_names": self.op_names,
            "span_cost_ns": self.span_cost * 1e9,
        }
        with gzip.open(path, "wt") as fh:
            json.dump(record, fh, separators=(",", ":"))


def span_cost(calls: int = 20000, repeats: int = 7) -> float:
    """Seconds a wrapped call adds outside its own span, on an empty call.

    Times ``calls`` wrapped calls inside a parent span and ``calls`` plain
    calls; the parent's time beyond its children's spans, less the plain
    loop, is the cost per child.  The median over ``repeats`` is returned.
    """
    class Target:
        @staticmethod
        def noop():
            return None

    costs = []
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(calls):
            Target.noop()
        plain = time.perf_counter() - start
        tracer = Tracer()
        tracer.begin_op("span_cost")
        tracer.wrap(Target, "noop", "noop")
        tracer.call("parent", _call_many, Target, calls)
        tracer.unwrap_all()
        _, own = tracer.totals(0, len(tracer.start))
        costs.append((own["parent"] - plain) / calls)
    costs.sort()
    return costs[len(costs) // 2]


def _call_many(target, calls: int) -> None:
    for _ in range(calls):
        target.noop()


# --- wrappers per layer --------------------------------------------------------

def _file_bytes(key: str, position: int):
    def count(counts, args, kwargs, result):
        path = args[position] if len(args) > position else kwargs["path"]
        counts[key] += os.path.getsize(path)

    return count


def _transform(counts, args, kwargs, result):
    counts["lattice.transform_calls"] += 1
    counts["lattice.transform_points"] += result.values.size


def _leapfrog(counts, args, kwargs, result):
    counts["dynamics.leapfrog_site_steps"] += math.prod(result.lattice.grid_points) * result.steps


def _draw(counts, args, kwargs, result):
    counts["vacuum.draws"] += 1


def _accumulate(counts, args, kwargs, result):
    # Per sample and site pair the accumulation does one complex multiply-add
    # (8 flops) for the mean and one real multiply-add (2 flops) for the
    # variance: 10 * samples * sites^2 flops per estimate.
    sites = result.mean.shape[0]
    counts["vacuum.accumulate_gflop"] += 10.0 * result.count * sites * sites / 1e9


def _table(counts, args, kwargs, result):
    counts["kernels.points"] += result.z.size


def _quad(counts, args, kwargs, result):
    counts["kernels.quad_calls"] += 1
    if kwargs.get("full_output"):
        counts["kernels.integrand_evals"] += result[2]["neval"]


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary the CLI crosses."""
    import scipy.integrate

    import ontofield.cli as cli
    import ontofield.dynamics as dynamics
    import ontofield.kernels as kernels
    import ontofield.lattice as lattice
    import ontofield.vacuum as vacuum

    tracer.wrap(cli, "validate_config", "cli.validate")
    for attr in ("evolution_matrix", "basis_change", "energy_levels"):
        tracer.wrap(cli, attr, "cyclic")
    for attr in ("build_mode", "b_eigensystem", "reconstruct_a", "truncate_from_a", "commutator_defect"):
        tracer.wrap(cli, attr, "ladder")
    tracer.wrap(cli, "build_lattice", "lattice.build")
    tracer.wrap(vacuum, "to_position", "lattice.transform", _transform)
    tracer.wrap(dynamics, "to_momentum", "lattice.transform", _transform)
    tracer.wrap(dynamics, "to_position", "lattice.transform", _transform)
    tracer.wrap(vacuum, "spectral_evolve", "lattice.phase")
    tracer.wrap(dynamics, "spectral_evolve", "lattice.phase")
    tracer.wrap(cli, "save_field", "lattice.save", _file_bytes("lattice.save_bytes", 2))
    tracer.wrap(lattice, "load_field", "lattice.load", _file_bytes("lattice.load_bytes", 0))
    tracer.wrap(cli, "leapfrog_interact", "dynamics.leapfrog", _leapfrog)
    tracer.wrap(cli, "stability_bound", "dynamics.stability_bound")
    tracer.wrap(cli, "spectral_run", "dynamics.spectral_run")
    tracer.wrap(cli, "gaussian_packet", "dynamics.packet")
    tracer.wrap(cli, "wavefront_measure", "dynamics.front")
    tracer.wrap(vacuum, "sample_vacuum", "vacuum.draw", _draw)
    tracer.wrap(cli, "ensemble_correlator", "vacuum.accumulate", _accumulate)
    tracer.wrap(vacuum.CorrelatorEstimate, "write_csv", "vacuum.csv", _file_bytes("vacuum.csv_bytes", 1))
    tracer.wrap(cli, "kernel_table", "kernels.table", _table)
    tracer.wrap(kernels.KernelTable, "write_csv", "kernels.csv")
    tracer.wrap(cli, "decay_fit", "kernels.decay_fit")
    tracer.wrap(scipy.integrate, "quad", None, _quad)


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0.0 else 0.0


def layer_metrics(tracer: Tracer, lo: int, hi: int) -> dict[str, float]:
    """Per-layer metrics of one traced pass (spans ``lo:hi``, its counts).

    The ``kernels.*`` table metrics cover the kernel op only: the decay op
    also builds a table, on another quadrature route, and is timed as
    ``kernels.decay_fit_s`` and in ``run_s.quick``.
    """
    inc, own = tracer.totals(lo, hi)
    kernel_inc, _ = tracer.totals(lo, hi, op_name="kernel")
    c = defaultdict(float)
    for op_name, op_counts in tracer.counts.items():
        for key, value in op_counts.items():
            if op_name == "kernel" or not key.startswith("kernels."):
                c[key] += value
    m = {
        "cli.self_s": own["cli.run"],
        "cli.validate_s": inc["cli.validate"],
        "cyclic.s": inc["cyclic"],
        "ladder.s": inc["ladder"],
        "lattice.transform_calls": c["lattice.transform_calls"],
        "lattice.transform_points": c["lattice.transform_points"],
        "lattice.transform_s": inc["lattice.transform"],
        "lattice.phase_s": inc["lattice.phase"],
        "lattice.save_s": inc["lattice.save"],
        "lattice.save_bytes": c["lattice.save_bytes"],
        "lattice.load_s": inc["lattice.load"],
        "dynamics.leapfrog_s": inc["dynamics.leapfrog"],
        "dynamics.leapfrog_site_steps": c["dynamics.leapfrog_site_steps"],
        "dynamics.spectral_run_self_s": own["dynamics.spectral_run"],
        "dynamics.packet_s": inc["dynamics.packet"],
        "dynamics.front_s": inc["dynamics.front"],
        "vacuum.draws": c["vacuum.draws"],
        "vacuum.draw_s": inc["vacuum.draw"],
        "vacuum.accumulate_self_s": own["vacuum.accumulate"],
        "vacuum.accumulate_gflop": c["vacuum.accumulate_gflop"],
        "vacuum.csv_s": inc["vacuum.csv"],
        "vacuum.csv_bytes": c["vacuum.csv_bytes"],
        "kernels.points": c["kernels.points"],
        "kernels.table_s": kernel_inc["kernels.table"],
        "kernels.quad_calls": c["kernels.quad_calls"],
        "kernels.integrand_evals": c["kernels.integrand_evals"],
        "kernels.csv_s": kernel_inc["kernels.csv"],
        "kernels.decay_fit_s": inc["kernels.decay_fit"],
    }
    # Byte rates use MB = 1e6 bytes.
    m["lattice.save_mb_per_s"] = _ratio(m["lattice.save_bytes"] / 1e6, m["lattice.save_s"])
    m["lattice.load_mb_per_s"] = _ratio(c["lattice.load_bytes"] / 1e6, m["lattice.load_s"])
    m["dynamics.leapfrog_site_steps_per_s"] = _ratio(m["dynamics.leapfrog_site_steps"], m["dynamics.leapfrog_s"])
    m["vacuum.draw_us"] = 1e6 * _ratio(m["vacuum.draw_s"], m["vacuum.draws"])
    m["vacuum.accumulate_gflop_per_s"] = _ratio(m["vacuum.accumulate_gflop"], m["vacuum.accumulate_self_s"])
    m["vacuum.csv_mb_per_s"] = _ratio(m["vacuum.csv_bytes"] / 1e6, m["vacuum.csv_s"])
    m["kernels.ms_per_point"] = 1e3 * _ratio(m["kernels.table_s"], m["kernels.points"])
    return m
