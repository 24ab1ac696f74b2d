"""The benchmark tracer in ``bench/spans.py`` wraps names of the package.

Renaming or deleting a wrapped name (a re-import kept for the tracer, or a
function the CLI calls by module attribute) makes ``install`` raise, so it
fails here as well as in a traced benchmark run.
"""

import importlib.util
from pathlib import Path

import ontofield.cli as cli
import ontofield.dynamics as dynamics
from ontofield.kernels import f1_contour
from ontofield.lattice import build_lattice
from ontofield.vacuum import EnsembleSpec, ensemble_correlators

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


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
