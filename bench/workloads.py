"""The four workloads: seeded inputs, how one request is served, and its check.

Inputs come in blocks.  Block k of a workload depends only on (workload,
seed, k), and each block covers the same strata of the input space, so
runs of different length or speed still draw the same mix.

The three CLI-shaped workloads serve each request in a child forked from
a process that has imported betahole but never called it, so every request
starts with the package caches of a fresh `betahole` process.
`dimension-exact` serves a whole pass of requests in one child forked
after set-up, warm.
"""

import contextlib
import io
import json
import os
import random
import resource
import select
import signal
import time
import traceback
from dataclasses import dataclass
from types import SimpleNamespace

import checks
from tracing import summarize

CLI_TIMEOUT_S = 60.0
LIB_TIMEOUT_S = 10.0
PASS_TIMEOUT_S = 60.0


@dataclass
class Outcome:
    latency_s: float
    verdict: checks.Verdict
    rss_mb: float
    agg: dict = None


def _rng(name, seed, block):
    return random.Random("%s:%d:%d" % (name, seed, block))


def _van_der_corput(k):
    """0, 1/2, 1/4, 3/4, 1/8, ...: radical inverse of k in base 2."""
    x, f = 0.0, 0.5
    while k:
        x += f * (k & 1)
        k >>= 1
        f /= 2
    return x


def _lattice(name, seed, block, lo, hi, k):
    """k 3-decimal values in [lo, hi), one per stratum, in seeded order.

    Block b shifts the points of every stratum by the radical inverse of
    b, so blocks 0-3 together form a 4k-point grid, and the seed shifts
    that grid by a fraction of its spacing.  Each run thus sees nearly the
    same spread of values whatever the seed, which keeps run-to-run spread
    low; values still differ from seed to seed.
    """
    shift = _rng(name, seed, -1).random() / 4
    out = []
    for i in range(k):
        x = (i + (_van_der_corput(block) + shift) % 1) / k
        v = round((lo + (hi - lo) * x) * 1000)
        out.append(min(max(v, round(lo * 1000) + 1), round(hi * 1000) - 1))
    _rng(name, seed, block).shuffle(out)
    return ["%d.%03d" % divmod(v, 1000) for v in out]


def _rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _run_cli(args, tracer):
    """Run one CLI invocation in this process; return a JSON-able dict."""
    from betahole import cli
    import click
    if tracer:
        tracer.install()
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            cli.main(args, standalone_mode=False)
            code = 0
        except SystemExit as e:
            code = e.code if isinstance(e.code, int) else 1
        except click.ClickException as e:
            e.show()
            code = e.exit_code
        except Exception:
            traceback.print_exc()
            code = 1
    dt = time.perf_counter() - t0
    return {"code": code, "stdout": out.getvalue(),
            "stderr": err.getvalue()[-2000:], "latency_s": dt,
            "rss_mb": _rss_mb(),
            "agg": summarize(tracer.spans, dt) if tracer else None}


def run_forked(fn, timeout):
    """Return fn() as computed in a forked child (it must be JSON-able);
    None on timeout or when the child dies without a result."""
    r, w = os.pipe()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            os.close(r)
            data = json.dumps(fn()).encode()
            while data:
                data = data[os.write(w, data):]
            status = 0
        finally:
            os._exit(status)
    os.close(w)
    chunks, deadline = [], time.monotonic() + timeout
    try:
        while True:
            left = deadline - time.monotonic()
            if left <= 0 or not select.select([r], [], [], left)[0]:
                os.kill(pid, signal.SIGKILL)
                return None
            chunk = os.read(r, 1 << 16)
            if not chunk:
                break
            chunks.append(chunk)
    finally:
        os.close(r)
        os.waitpid(pid, 0)
    try:
        return json.loads(b"".join(chunks))
    except ValueError:
        return None


class CliWorkload:
    """A workload of cold `betahole` CLI invocations, one child each."""

    def __init__(self, seed):
        self.seed = seed

    def setup(self):
        import betahole.cli  # noqa: F401  (what a CLI process imports)

    def serve_pass(self, reqs, tracer):
        return [self._serve(req, tracer) for req in reqs]

    def _serve(self, req, tracer):
        res = run_forked(lambda: _run_cli(req["args"], tracer),
                         CLI_TIMEOUT_S)
        if res is None:
            return Outcome(CLI_TIMEOUT_S, checks.Verdict(
                error="timeout or lost worker"), 0.0)
        if res["code"] != 0:
            v = checks.Verdict(error="exit %s: %s" % (res["code"],
                                                     res["stderr"][-300:]))
        else:
            v = self.check(req, res["stdout"])
        return Outcome(res["latency_s"], v, res["rss_mb"], res["agg"])


class Tau(CliWorkload):
    """Cold `tau` at 3-decimal bases drawn from 8 strata of [1.05, 2)."""
    name = "tau"
    atlas_depth = 10

    def block(self, k):
        betas = _lattice(self.name, self.seed, k, 1.05, 2.0, 8)
        digits = [6, 12] * 4
        return [{"args": ["tau", "--beta", b, "--digits", str(d)], "beta": b}
                for b, d in zip(betas, digits)]

    def check(self, req, stdout):
        return checks.check_tau(req["beta"], self.atlas_depth, stdout)


class Staircase(CliWorkload):
    """Cold 64-sample `staircase` sweeps over (0, 1 - 1/beta) at 3-decimal
    bases drawn from 8 strata of [1.15, 1.95]."""
    name = "staircase"
    samples = 64

    def block(self, k):
        reqs = []
        for b in _lattice(self.name, self.seed, k, 1.15, 1.95, 8):
            t_max = "%.6f" % ((1 - 1000 / int(b.replace(".", ""))) - 5e-7)
            reqs.append({"args": ["staircase", "--beta", b, "--t-max", t_max,
                                  "--samples", str(self.samples)],
                         "t_max": float(t_max)})
        return reqs

    def check(self, req, stdout):
        return checks.check_staircase(req["t_max"], self.samples, stdout)


class Atlas(CliWorkload):
    """Cold `atlas` with nesting: --kind all at --max-len 6-8 and --kind
    farey at 9-12, every configuration once per block."""
    name = "atlas"
    configs = [(6, "all"), (7, "all"), (8, "all"), (9, "farey"),
               (10, "farey"), (11, "farey"), (12, "farey")]
    digits = 12

    def block(self, k):
        order = list(self.configs)
        _rng(self.name, self.seed, k).shuffle(order)
        return [{"args": ["atlas", "--max-len", str(m), "--kind", kind,
                          "--digits", str(self.digits)],
                 "max_len": m, "kind": kind} for m, kind in order]

    def check(self, req, stdout):
        return checks.check_atlas(req["max_len"], req["kind"], self.digits,
                                  stdout)


class RequestTimeout(BaseException):
    """Raised by the interval timer; not an Exception, so the package
    cannot swallow it."""


def _on_alarm(signum, frame):
    raise RequestTimeout()


class DimensionExact:
    """Warm library `dimension()` calls: symbolic bases at the right ends
    alpha_R of all Farey intervals up to generator length 10, with holes
    t_N (seeded N), t* and seeded eventually periodic words.  The bases
    are built (root-solved) once, in set-up.  A pass runs in one child
    forked from the set-up process, so no pass sees another's caches."""
    name = "dimension-exact"
    max_generator = 10
    draws_per_block = 12   # each draw gives every base 4 holes

    def __init__(self, seed):
        self.seed = seed
        self._counts = {}

    def setup(self):
        from betahole import BetaSpec
        self.bases = []
        for a in checks.farey_generators(self.max_generator):
            pre, per = checks.interval_alphas(a)[1]
            self.bases.append((a, (pre, per),
                               BetaSpec.parse("@%s(%s)" % (pre, per))))

    def block(self, k):
        from betahole import EpSequence, t_n_family, t_star_sequence
        rng = _rng(self.name, self.seed, k)
        reqs = []
        for _ in range(self.draws_per_block):
            for a, alpha, beta in self.bases:
                holes = [t_n_family(a, rng.randint(1, 4)),
                         t_star_sequence(a)]
                for _ in range(2):
                    pre = "0" + "".join(rng.choice("01")
                                        for _ in range(rng.randint(0, 20)))
                    per = "".join(rng.choice("01")
                                  for _ in range(rng.randint(1, 35)))
                    holes.append(EpSequence(pre, per if "0" in per else
                                            per + "0"))
                reqs += [{"beta": beta, "alpha": alpha, "hole": h}
                         for h in holes]
        rng.shuffle(reqs)
        return reqs

    def serve_pass(self, reqs, tracer):
        res = run_forked(lambda: self._serve_in_child(reqs, tracer),
                         PASS_TIMEOUT_S)
        if res is None:
            return [Outcome(PASS_TIMEOUT_S, checks.Verdict(
                error="timeout or lost worker"), 0.0) for _ in reqs]
        out = []
        for req, (dt, rep, err, agg) in zip(reqs, res["requests"]):
            if err:
                v = checks.Verdict(error=err)
            else:
                h = checks.parse_ep(str(req["hole"]))
                key = (h, req["alpha"])
                if key not in self._counts:
                    self._counts[key] = checks.count_words(
                        h, req["alpha"], checks.COUNT_LEN)
                v = checks.check_dimension(SimpleNamespace(**rep),
                                           self._counts[key])
            out.append(Outcome(dt, v, res["rss_mb"], agg))
        return out

    @staticmethod
    def _serve_in_child(reqs, tracer):
        from betahole import PointSpec
        from betahole import survivor
        signal.signal(signal.SIGALRM, _on_alarm)
        results = []
        for req in reqs:
            hole = PointSpec(seq=req["hole"])
            if tracer:
                tracer.install()
            rep = err = None
            t0 = time.perf_counter()
            try:
                signal.setitimer(signal.ITIMER_REAL, LIB_TIMEOUT_S)
                r = survivor.dimension(req["beta"], hole)
                rep = {k: getattr(r, k) for k in (
                    "h_lower", "h_upper", "dim_lower", "dim_upper", "empty")}
            except RequestTimeout:
                err = "timeout"
            except Exception as e:
                err = "%s: %s" % (type(e).__name__, e)
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
                dt = time.perf_counter() - t0
                if tracer:
                    tracer.uninstall()
            results.append((dt, rep, err,
                            summarize(tracer.spans, dt) if tracer else None))
        return {"requests": results, "rss_mb": _rss_mb()}


WORKLOADS = {w.name: w for w in (Staircase, DimensionExact, Tau, Atlas)}
