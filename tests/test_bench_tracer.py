"""The benchmark tracer in ``bench/spans.py`` wraps names of the package.

Renaming or deleting a wrapped name (a re-import kept for the tracer, or a
function the CLI calls by module attribute) makes ``install`` raise, so it
fails here as well as in a traced benchmark run.  A wrapped name that the
program no longer calls raises nothing and reads 0 in its metric, so the
README configs at the benchmark's smoke sizes run here under the tracer, and
every wrapped name but the known stale ones must be called.
"""

import contextlib
import importlib.util
import io
import json
from pathlib import Path

import ontofield.cli as cli
import ontofield.dynamics as dynamics
import ontofield.lattice as lattice
from ontofield.kernels import f1_contour
from ontofield.lattice import build_lattice
from ontofield.vacuum import EnsembleSpec, ensemble_correlators

BENCH = Path(__file__).resolve().parents[1] / "bench"

# Wrapped names that no README config reaches: the CLI calls
# ensemble_correlators, not the one-time ensemble_correlator it re-imports,
# and the ensemble draws its phases through vacuum._draw_phases.
STALE = {"cli.ensemble_correlator", "vacuum.sample_vacuum"}


def load_bench(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_spans():
    return load_bench("spans")


def test_benchmark_tracer_finds_and_restores_every_wrapped_name():
    spans = load_spans()
    original = cli.leapfrog_interact
    tracer = spans.Tracer()
    try:
        spans.install(tracer)
        assert cli.leapfrog_interact is not original
    finally:
        tracer.unwrap_all()
    assert cli.leapfrog_interact is original is dynamics.leapfrog_interact


def test_benchmark_tracer_counts_the_quadrature_imported_at_first_use():
    # kernels._quad imports scipy.integrate when called and looks up quad on
    # it then, so the tracer's wrap of scipy.integrate.quad sees every call.
    spans = load_spans()
    tracer = spans.Tracer()
    try:
        spans.install(tracer)
        tracer.begin_op("kernel")
        f1_contour(2.0, 1.0)
    finally:
        tracer.unwrap_all()
    counts = tracer.counts["kernel"]
    assert counts["kernels.quad_calls"] == 1
    assert counts["kernels.integrand_evals"] > 0


def test_benchmark_tracer_sees_the_ensemble_transforms():
    # ensemble_correlators evolves and transforms each block of samples
    # through lattice.spectral_evolve and to_position, which the tracer wraps
    # as the vacuum module's names: 300 samples are two blocks, each
    # transformed at both times.
    spans = load_spans()
    spec = EnsembleSpec(build_lattice(8.0, 8, 1.0), 300, 0)
    tracer = spans.Tracer()
    try:
        spans.install(tracer)
        tracer.begin_op("vacuum")
        ensemble_correlators(spec, (0.0, 1.0))
    finally:
        tracer.unwrap_all()
    counts = tracer.counts["vacuum"]
    assert counts["lattice.transform_calls"] == 4
    assert counts["lattice.transform_points"] == 2 * 300 * 8
    # One evolution per block, of the t = 1 estimate.
    assert tracer.name.count(tracer.names.index("lattice.phase")) == 2


def test_benchmark_tracer_reaches_every_wrapped_name_but_the_stale_ones(tmp_path):
    spans = load_spans()

    class CallCounter(spans.Tracer):
        """A tracer that also counts the calls of each name it wraps."""

        def __init__(self):
            super().__init__()
            self.calls = {}

        def wrap(self, owner, attr, name, count=None):
            label = f"{owner.__name__.removeprefix('ontofield.')}.{attr}"
            self.calls[label] = 0

            def counted(counts, args, kwargs, result):
                self.calls[label] += 1
                if count is not None:
                    count(counts, args, kwargs, result)

            super().wrap(owner, attr, name, counted)

    configs = load_bench("workloads").generate("readme", 0, smoke=True)
    assert sorted(configs) == sorted(cli._EXPERIMENTS)
    tracer = CallCounter()
    try:
        spans.install(tracer)
        for name, config in configs.items():
            tracer.begin_op(name)
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(config))
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.main(["run", str(path), "--output-dir", str(tmp_path / name)]) == 0
        # The benchmark reads every snapshot back through the module attribute.
        tracer.begin_op("readback")
        for path in sorted(tmp_path.glob("*/*.csv")):
            if path.name.startswith("snapshot_") or path.name == "final_field.csv":
                lattice.load_field(path)
    finally:
        tracer.unwrap_all()
    assert {label for label, calls in tracer.calls.items() if calls == 0} == STALE
