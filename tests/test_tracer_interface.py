"""What the benchmark's tracer (bench/tracing.py) reads from the package:
it wraps every public function of each layer and observes some results,
such as the state count of `survivor.compile` through len()."""

import json
import math
import os
import sys

BENCH = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "bench")
sys.path.insert(0, BENCH)

from tracing import Tracer, layer_metric, summarize  # noqa: E402

from betahole import bifurcation, critical, survivor  # noqa: E402
from betahole.numeric import BetaSpec  # noqa: E402


def per_layer_names():
    with open(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json")) as f:
        return [m["name"] for m in json.load(f)["per_layer"]]


def test_tracer_observes_dimension_and_z_set_without_errors():
    tracer = Tracer()

    def bindings():
        return [(m.__name__, key, val) for m in tracer.modules
                for key, val in vars(m).items() if callable(val)]

    before = bindings()
    tracer.install()
    try:
        for text in ("1.457", "@(110)"):
            beta = BetaSpec.parse(text)
            for t in ("0", "0.1", "0.2", "0.3"):
                survivor.dimension(beta, survivor.PointSpec(value=t))
        critical.z_set("110")
    finally:
        tracer.uninstall()
    assert bindings() == before
    agg = summarize(tracer.spans, 1.0)
    assert agg["errors"] == {}
    compiles = agg["fn"]["survivor.compile"][0]
    assert compiles > 0 and len(agg["states"]) == compiles
    assert all(n > 0 for n in agg["states"])


def test_every_traced_function_of_the_benchmark_exists():
    # a per-layer metric whose function is gone reads null and marks
    # itself missing, so a traced run would not end in a valid result
    wanted = {name.rsplit(".", 1)[0] for name in per_layer_names()
              if name.count(".") == 2}
    assert len(wanted) == 18
    assert sorted(wanted - Tracer().targets) == []


def test_traced_requests_give_every_per_layer_metric():
    # the requests of the four workloads, served under the tracer: a call
    # the tracer's observers cannot read (say, alpha_bounds with the base
    # passed by keyword) fails inside the traced request, and a metric
    # whose function is gone reads None
    tracer = Tracer()
    tracer.install()
    try:
        beta = BetaSpec.parse("1.457")
        for t in ("0.05", "0.2"):
            survivor.dimension(beta, survivor.PointSpec(value=t))
        survivor.dimension(BetaSpec.parse("@11(01)"), survivor.PointSpec(
            seq=critical.t_star_sequence("10")))
        regimes = [critical.tau_report(BetaSpec.parse(b)).regime
                   for b in ("1.55", "1.05")]
        recs = bifurcation.atlas(6)
        bifurcation.nesting(recs)
        bifurcation.atlas_json(recs)
    finally:
        tracer.uninstall()
    assert regimes == ["inside_farey_high", "outside_closure"]
    agg = summarize(tracer.spans, 1.0)
    assert agg["errors"] == {}
    for name in per_layer_names():
        if name == "trace_overhead_ratio":
            continue
        value = layer_metric(name, [agg], 1, tracer.targets)
        assert value is not None and math.isfinite(value), name
