"""What the benchmark's tracer (bench/tracing.py) reads from the package:
it wraps every public function of each layer and observes some results,
such as the state count of `survivor.compile` through len()."""

import os
import sys

BENCH = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "bench")
sys.path.insert(0, BENCH)

from tracing import Tracer, summarize  # noqa: E402

from betahole import critical, survivor  # noqa: E402
from betahole.numeric import BetaSpec  # noqa: E402


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
