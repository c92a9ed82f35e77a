"""Tests of the benchmark itself: seeded inputs, checkers, percentile rule
and the tracer's patching."""

import json
import os
import statistics
import sys
import time
from fractions import Fraction
from types import SimpleNamespace

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import checks  # noqa: E402
from run import percentile, tail_percentile  # noqa: E402
from tracing import Tracer, layer_metric, summarize  # noqa: E402
from workloads import WORKLOADS, run_forked  # noqa: E402

# `betahole tau --beta 1.55 --digits 6` at the commit that added this test
TAU_155 = {
    "beta": "1.55", "regime": "inside_farey_high",
    "tau_lower": "0.236854", "tau_upper": "0.268537",
    "witness_words": {"generator": "100", "t_star": "0(001)",
                      "t_diamond": "001(0)"},
    "atlas_depth": 10, "certified": True, "note": "",
}

# `betahole atlas --max-len 4 --digits 12`, shortened to three records
ATLAS_4 = {
    "intervals": [
        {"generator": "10", "lyndon": "01", "beta_L": "1.6180339887499",
         "beta_R": "1.8019377358048", "kind": "farey", "alpha_L": "(10)",
         "alpha_R": "1(10)"},
        {"generator": "1100", "lyndon": "0011",
         "beta_L": "1.7548776662467", "beta_R": "1.7875161542471",
         "kind": "basic", "alpha_L": "(1100)", "alpha_R": "110(1001)"},
        {"generator": "110", "lyndon": "011", "beta_L": "1.8392867552142",
         "beta_R": "1.9212896099952", "kind": "farey", "alpha_L": "(110)",
         "alpha_R": "1(110)"},
    ],
    "nesting": [{"first": "10", "second": "1100",
                 "relation": "second_inside_first"}],
}


def _digest(block):
    return [{k: str(v) for k, v in req.items()} for req in block]


def test_same_seed_gives_same_inputs():
    for name, cls in WORKLOADS.items():
        a, b, c = cls(7), cls(7), cls(8)
        for wl in (a, b, c):
            wl.setup()
        blocks = [[_digest(wl.block(k)) for k in range(3)]
                  for wl in (a, b, c)]
        assert blocks[0] == blocks[1], name
        assert blocks[0] != blocks[2], name


def test_cli_blocks_cover_every_stratum():
    tau = WORKLOADS["tau"](3).block(0)
    betas = sorted(float(r["beta"]) for r in tau)
    assert [int((b - 1.05) / (0.95 / 8)) for b in betas] == list(range(8))
    atlas = WORKLOADS["atlas"](3).block(5)
    assert sorted((r["max_len"], r["kind"]) for r in atlas) == \
        sorted(WORKLOADS["atlas"].configs)


def test_tau_checker_flags_round_to_nearest_upper_bound():
    v = checks.check_tau("1.55", 10, json.dumps(TAU_155))
    assert v.error is None
    assert v.checked == 2 and v.unsound >= 1
    beta = Fraction(155, 100)
    assert checks.ep_value("001", "0", beta) == 1 / beta ** 3
    assert Fraction("0.268537") < 1 / beta ** 3


def test_tau_checker_accepts_outward_rounded_bounds():
    doc = dict(TAU_155, tau_lower="0.236853", tau_upper="0.268538")
    v = checks.check_tau("1.55", 10, json.dumps(doc))
    assert (v.error, v.checked, v.unsound) == (None, 2, 0)


def test_tau_checker_rejects_a_wrong_regime():
    doc = dict(TAU_155, regime="inside_farey_low")
    assert checks.check_tau("1.55", 10, json.dumps(doc)).error
    doc = dict(TAU_155, regime="outside_closure", certified=False)
    assert "interval" in checks.check_tau("1.55", 10, json.dumps(doc)).error


def _staircase(rows):
    lines = [",".join(checks.STAIRCASE_HEADER)]
    lines += [",".join(["%.12f" % x for x in r] + ["m"]) for r in rows]
    return "\n".join(lines) + "\n"


GOOD_ROWS = [(0.0, 0.6, 0.6, 0.99, 1.0), (0.1, 0.5, 0.55, 0.8, 0.9),
             (0.2, 0.0, 0.0, 0.0, 0.0)]


def test_staircase_checker():
    v = checks.check_staircase(0.2, 3, _staircase(GOOD_ROWS))
    assert (v.error, v.unsound, v.checked) == (None, 0, 5)
    no_one = [(0.0, 0.6, 0.6, 0.9, 0.95)] + GOOD_ROWS[1:]
    assert checks.check_staircase(0.2, 3, _staircase(no_one)).unsound
    rising = GOOD_ROWS[:1] + [(0.1, 0.5, 0.55, 0.8, 0.9),
                              (0.2, 0.56, 0.6, 0.91, 0.95)]
    assert checks.check_staircase(0.2, 3, _staircase(rising)).unsound
    swapped = GOOD_ROWS[:1] + [(0.1, 0.5, 0.55, 0.9, 0.8)] + GOOD_ROWS[2:]
    assert checks.check_staircase(0.2, 3, _staircase(swapped)).error


def test_word_counter_and_dimension_checker():
    # golden mean shift: no two consecutive ones, counts are Fibonacci
    golden = checks.count_words(("", "0"), ("", "10"), 6)
    assert golden == [2, 3, 5, 8, 13, 21]
    report = SimpleNamespace(h_lower=0.69, h_upper=0.70, dim_lower=0.99,
                             dim_upper=1.0, empty=False)
    v = checks.check_dimension(report, golden)
    assert (v.error, v.checked, v.unsound) == (None, 1, 0)
    report.h_lower = report.h_upper = 0.74   # above log2(21)/6 = 0.732
    assert checks.check_dimension(report, golden).unsound == 1
    empty = checks.count_words(("1", "0"), ("", "10"), 6)
    assert empty[-1] == 0
    report = SimpleNamespace(h_lower=0.0, h_upper=0.0, dim_lower=0.0,
                             dim_upper=0.0, empty=False)
    assert checks.check_dimension(report, empty).unsound == 1
    report.empty = True
    assert checks.check_dimension(report, empty).unsound == 0


def test_atlas_checker():
    ok = checks.check_atlas(4, "all", 12, json.dumps(ATLAS_4))
    # only three of the six records: the count check must fire
    assert ok.error and "records" in ok.error
    v = checks.Verdict()
    for r in ATLAS_4["intervals"]:
        for key, seq in (("beta_L", "alpha_L"), ("beta_R", "alpha_R")):
            ref = checks.root_of_alpha(*checks.parse_ep(r[seq]))
            v.bound(abs(float(r[key]) - ref) <= 0.5e-13 + 1e-15)
    assert v.unsound == 0
    assert checks.lyndon_count(4) == 3 and checks.totient(12) == 4


def test_atlas_checker_on_full_output():
    full = dict(ATLAS_4)
    full["intervals"] = [
        {"generator": "1000", "lyndon": "0001", "beta_L": "1.3802775690976",
         "beta_R": "1.4384165665852", "kind": "farey",
         "alpha_L": "(1000)", "alpha_R": "1(0010)"},
        {"generator": "100", "lyndon": "001", "beta_L": "1.4655712318768",
         "beta_R": "1.5589798779818", "kind": "farey", "alpha_L": "(100)",
         "alpha_R": "1(010)"},
    ] + ATLAS_4["intervals"] + [
        {"generator": "1110", "lyndon": "0111", "beta_L": "1.9275619754829",
         "beta_R": "1.964673409555", "kind": "farey", "alpha_L": "(1110)",
         "alpha_R": "1(1110)"}]
    v = checks.check_atlas(4, "all", 12, json.dumps(full))
    assert (v.error, v.unsound, v.checked) == (None, 0, 12)
    bad = json.loads(json.dumps(full))
    bad["intervals"][0]["beta_L"] = "1.3802775691"
    assert checks.check_atlas(4, "all", 12, json.dumps(bad)).unsound == 1
    bad = json.loads(json.dumps(full))
    bad["intervals"][3]["beta_R"] = "1.85"   # 1100 now pokes out of 10
    assert "partially" in checks.check_atlas(4, "all", 12,
                                             json.dumps(bad)).error
    bad = json.loads(json.dumps(full))
    bad["nesting"] = []
    assert "nesting" in checks.check_atlas(4, "all", 12,
                                           json.dumps(bad)).error


def test_percentile_rule():
    xs = list(range(1, 101))
    for q in (25, 50, 75, 90):
        assert abs(percentile(xs, q) -
                   statistics.quantiles(xs, n=100,
                                        method="inclusive")[q - 1]) < 1e-9
    assert percentile([3.0], 90) == 3.0
    assert percentile([4, 1, 3, 2], 50) == 2.5
    assert tail_percentile(99) is None
    assert tail_percentile(100) == 90
    assert tail_percentile(999) == 90
    assert tail_percentile(1000) == 99
    assert tail_percentile(10000) == 99.9


def test_tracer_patches_every_binding_and_restores():
    from betahole import critical, sequences, survivor
    orig = sequences.lex_compare_ep
    tracer = Tracer()
    tracer.install()
    try:
        assert survivor.lex_compare_ep is sequences.lex_compare_ep
        assert critical.lex_compare_ep is not orig
        seq = sequences.EpSequence("", "10")
        survivor.membership(seq, survivor.LexSubshift(
            sequences.EpSequence("", "0"), sequences.EpSequence("", "110")))
    finally:
        tracer.uninstall()
    assert critical.lex_compare_ep is orig
    agg = summarize(tracer.spans, 1.0)
    calls, total, self_s, _ = agg["fn"]["sequences.lex_compare_ep"]
    assert calls >= 2 and 0 <= self_s <= total
    membership = agg["fn"]["survivor.membership"]
    assert membership[2] <= membership[1] - total + 1e-9
    assert layer_metric("survivor.membership.calls", [agg], 1,
                        tracer.targets) == 1
    assert layer_metric("numeric.no_such_function.calls", [agg], 1,
                        tracer.targets) is None


def test_forked_request_times_out():
    assert run_forked(lambda: {"x": 1}, 30) == {"x": 1}
    t0 = time.monotonic()
    assert run_forked(lambda: time.sleep(30), 0.2) is None
    assert time.monotonic() - t0 < 10
