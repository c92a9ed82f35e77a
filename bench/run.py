"""Layered benchmark for betahole.

    python3 bench/run.py --workload tau --seed 1 --seconds 25 --trace 0

Run from the root of a checkout.  One client sends requests in a closed
loop, each block of inputs twice (see serve_all), until --seconds have
passed.  Every output is checked against an independent reference.

--trace 0 prints the end-to-end metrics listed in BENCHMARK.json.
--trace 1 serves each block untraced and then traced, and prints
the per-layer metrics plus trace_overhead_ratio (traced over untraced
median latency).  Per-request span summaries of a traced run are written
to bench/out/.  The last line of stdout is one JSON object; the lines
before it are a readable table that also shows the figures not gated.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

from tracing import Tracer, layer_metric
from workloads import WORKLOADS, Outcome

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_PROBES = 3
SETUP_TIMEOUT_S = 60


def percentile(values, q):
    """Linear-interpolation percentile (q in [0, 100]) of a non-empty list."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    i = math.floor(pos)
    if i + 1 >= len(xs):
        return xs[-1]
    return xs[i] + (xs[i + 1] - xs[i]) * (pos - i)


def tail_percentile(n, candidates=(99.9, 99, 90)):
    """Highest candidate percentile with at least ten of n samples beyond
    it, or None when there is none."""
    for q in candidates:
        if round(n * (100 - q) / 100.0, 9) >= 10:
            return q
    return None


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=25)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="only import betahole and build the inputs")
    return p.parse_args(argv)


def measure_setup(args):
    """Median wall time of fresh interpreters that import betahole and
    build the workload's inputs, then exit."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload",
           args.workload, "--seed", str(args.seed), "--setup-probe"]
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        # communicate() waits on the pipe; wait(timeout) would poll in
        # 50 ms steps and quantize the measurement
        subprocess.run(cmd, check=True, timeout=SETUP_TIMEOUT_S,
                       stdout=subprocess.PIPE)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def serve_all(wl, tracer, seconds):
    """Closed loop over rounds; round k serves block k twice, in two
    passes.  Another round starts only while half a round of average
    length still fits in `seconds`.

    Untraced, the outcome of an input keeps the faster of its two
    latencies.  Identical inputs cost the same, and on a shared host the
    machine's speed drifts in phases of several seconds, so the faster run
    is the steadier measure of the program.  Both outputs are checked, and
    a failure in either pass fails the input.  Traced, the first pass is
    untraced and the second traced.  Returns (outcomes, traced, attempted,
    failed).
    """
    plain, traced, attempted, failed = [], [], 0, 0
    start, k = time.perf_counter(), 0
    while k == 0 or (time.perf_counter() - start) * (k + 0.5) / k <= seconds:
        reqs = wl.block(k)
        first = wl.serve_pass(reqs, None)
        second = wl.serve_pass(reqs, tracer)
        for a, b in zip(first, second):
            attempted += 2
            failed += (a.verdict.error is not None) + \
                (b.verdict.error is not None)
            if tracer:
                plain.append(a)
                traced.append(b)
            else:
                bad = a if a.verdict.error else b
                plain.append(Outcome(min(a.latency_s, b.latency_s),
                                     bad.verdict, max(a.rss_mb, b.rss_mb)))
        k += 1
    return plain, traced, attempted, failed


def end_to_end(outcomes, setup_s, attempted, failed):
    """Every end-to-end figure of a run.  BENCHMARK.json gates only those
    that stay steady from run to run; bench/README.md says why the others
    are printed but not gated."""
    v = [o.verdict for o in outcomes if o.verdict.error is None]
    checked = sum(x.checked for x in v)
    reports = sum(x.reports for x in v)
    widths = [w for x in v for w in x.widths]
    lat = [o.latency_s for o in outcomes]
    return {
        "setup_s": setup_s,
        "latency_p50_s": percentile(lat, 50),
        "items_per_s": sum(x.items for x in v) / sum(lat),
        "peak_rss_mb": max(o.rss_mb for o in outcomes),
        "latency_p90_s": percentile(lat, 90)
        if tail_percentile(len(lat), (90,)) else None,
        "error_rate": failed / attempted,
        "unsound_rate": sum(x.unsound for x in v) / checked
        if checked else 0.0,
        "uncertified_rate": 1 - sum(x.certified for x in v) / reports
        if reports else 0.0,
        "bracket_width_mean": sum(widths) / len(widths) if widths else None,
    }


UNITS = {"setup_s": "s", "latency_p50_s": "s", "items_per_s": "1/s",
         "peak_rss_mb": "MB", "latency_p90_s": "s", "error_rate": "ratio",
         "unsound_rate": "ratio", "uncertified_rate": "ratio",
         "bracket_width_mean": "1"}


def _row(name, val, unit, note=""):
    print("%-40s %14s %s%s" % (name, "n/a" if val is None else "%.6g" % val,
                               unit, note))


def main(argv=None):
    args = parse_args(argv)
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    try:
        import betahole
    except ImportError as e:
        sys.exit("bench: cannot import betahole from %s: %s" % (src, e))
    if not os.path.abspath(betahole.__file__).startswith(src + os.sep):
        sys.exit("bench: imported betahole from %s, not from the checkout"
                 % betahole.__file__)
    if args.workload not in WORKLOADS:
        sys.exit("bench: unknown workload %r (choose from %s)" % (
            args.workload, ", ".join(WORKLOADS)))
    wl = WORKLOADS[args.workload](args.seed)
    if args.setup_probe:
        wl.setup()
        return
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    setup_s = measure_setup(args)
    wl.setup()
    tracer = Tracer() if args.trace else None
    plain, traced, attempted, failed = serve_all(wl, tracer, args.seconds)
    v = [o.verdict for o in plain]
    print("inputs %d, requests %d, failed %d, bounds checked %d" % (
        len(plain), attempted, failed, sum(x.checked for x in v)))
    for x in v:
        if x.error:
            print("first failure: %s" % x.error)
            break
    if args.trace:
        items = sum(o.verdict.items for o in traced)
        aggs = [o.agg for o in traced]
        values = {m["name"]: layer_metric(m["name"], aggs, items,
                                          tracer.targets)
                  for m in spec["per_layer"]
                  if m["name"] != "trace_overhead_ratio"}
        values["trace_overhead_ratio"] = (
            percentile([o.latency_s for o in traced], 50) /
            percentile([o.latency_s for o in plain], 50))
        os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
        path = os.path.join(HERE, "out", "trace-%s-seed%d.json" % (
            args.workload, args.seed))
        with open(path, "w") as f:
            json.dump(aggs, f)
        metrics = spec["per_layer"]
    else:
        values = end_to_end(plain, setup_s, attempted, failed)
        metrics = spec["end_to_end"]
        gated = {m["name"] for m in metrics}
        for name, unit in UNITS.items():
            if name not in gated:
                _row(name, values[name], unit, "  (not gated)")
    out = {}
    for m in metrics:
        val = values[m["name"]]
        out[m["name"]] = {"value": val, "unit": m["unit"]}
        if val is None:
            out[m["name"]]["missing"] = True
        _row(m["name"], val, m["unit"])
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": out}))


if __name__ == "__main__":
    main()
