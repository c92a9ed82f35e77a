"""Command-line interface: outputs, exit codes, determinism."""

import json
from fractions import Fraction

import pytest
from click.testing import CliRunner

from betahole import cli
from betahole.cli import main
from betahole import numeric as N
from betahole.numeric import BetaSpec, Interval
from betahole.sequences import EpSequence
from betahole.survivor import DimensionReport, PointSpec, dimension


def run(*args):
    return CliRunner().invoke(main, list(args))


def test_expand_greedy():
    r = run("expand", "--x", "0.5", "--beta", "2", "--n", "8")
    assert r.exit_code == 0
    assert r.output.strip() == "10000000"


def test_expand_quasi_symbolic():
    r = run("expand", "--x", "1", "--beta", "@(110)",
            "--mode", "quasi", "--n", "9")
    assert r.exit_code == 0
    assert r.output.strip() == "110110110"


def test_expand_quasi_off_one_matches_the_library():
    for x, beta_s in [("0.5", "2"), ("0.3", "1.7"), ("0.99", "@(110)"),
                      ("0.625", "1.6")]:
        r = run("expand", "--x", x, "--beta", beta_s, "--mode", "quasi",
                "--n", "40")
        assert r.exit_code == 0, (x, beta_s)
        digits, _ = N.quasi_greedy_digits(
            Interval(x), BetaSpec.parse(beta_s).value, 40)
        assert r.output == digits + "\n", (x, beta_s)


def test_expand_out_of_range_exits_1():
    r = run("expand", "--x", "1.5", "--beta", "2")
    assert r.exit_code == 1


@pytest.mark.parametrize("args", [
    "expand --x 1.5 --beta 2",
    "alpha --beta 3",
    "solve-beta --alpha (0)",
    "admissible --x (01) --beta 1.7",
    "farey --check 2",
    "factorize --word 0101",
    "staircase --beta 3 --t-max 0.3 --samples 4",
    "tau --beta 3",
    "isolated --word 10 --beta 1.7",
    "zset --word 1010",
    "classify --t (01) --beta 1.7",
], ids=lambda args: args.split()[0])
def test_domain_errors_exit_1(args):
    r = run(*args.split())
    assert r.exit_code == 1
    assert r.stdout == ""
    assert r.stderr.startswith("error: ") and r.stderr.count("\n") == 1


def test_expand_bad_flag_exits_2():
    r = run("expand", "--x", "0.5")
    assert r.exit_code == 2


def test_solve_beta():
    r = run("solve-beta", "--alpha", "(10)")
    assert r.exit_code == 0
    assert r.output.strip() == "1.618033988750"
    # true digits of the golden mean, from the exact 2^-100 root bracket
    r = run("solve-beta", "--alpha", "(10)", "--digits", "30")
    assert r.output == "1.618033988749894848204586834365\n"


def test_alpha_command():
    r = run("alpha", "--beta", "2")
    assert r.exit_code == 0
    assert "(1)" in r.output


def test_alpha_at_rational_base_has_no_closed_form():
    # a rational base below 2 never has an eventually periodic expansion
    # of 1 (Parry), even when it agrees with the tribonacci root to 40
    # digits and its first 48 digits look like (110)^inf
    r = run("alpha", "--beta", "1.8392867552141611325518525646532866004241")
    assert r.exit_code == 0
    out = r.output.strip()
    assert "(" not in out and len(out) == 48 and set(out) <= set("01")


def test_expand_certifies_an_exact_tie():
    # 0.625 * 1.6 == 1 exactly: the greedy digit is 1, then the orbit is 0
    r = run("expand", "--x", "0.625", "--beta", "1.6", "--n", "20")
    assert r.exit_code == 0
    assert r.output.strip() == "1" + "0" * 19


def test_admissible():
    r = run("admissible", "--x", "(10)", "--alpha", "(110)")
    assert r.output.strip() == "true"
    r = run("admissible", "--x", "(110)", "--alpha", "(110)")
    assert r.output.strip() == "false"
    r = run("admissible", "--x", "(10)")
    assert r.exit_code == 2


def test_farey_and_factorize():
    r = run("farey", "--level", "2")
    assert r.output.strip() == "0,001,01,011,1"
    r = run("farey", "--check", "01011")
    assert r.output.strip() == "true"
    for args in [(), ("--level", "2", "--check", "01")]:
        r = run("farey", *args)
        assert r.exit_code == 2 and r.stdout == "", args
        assert "give exactly one of --level / --check" in r.stderr, args
    r = run("factorize", "--word", "01011")
    assert r.output.split() == ["01", "011"]
    r = run("factorize", "--word", "0011")
    assert r.exit_code == 1


def test_atlas_json():
    r = run("atlas", "--max-len", "3", "--kind", "farey")
    assert r.exit_code == 0
    doc = json.loads(r.output)
    gens = [rec["generator"] for rec in doc["intervals"]]
    assert "10" in gens and "110" in gens and "100" in gens
    assert all(rec["kind"] == "farey" for rec in doc["intervals"])
    r = run("atlas", "--max-len", "13")
    assert r.exit_code == 2


def test_staircase_deterministic_and_sane():
    args = ("staircase", "--beta", "@(10)", "--t-max", "0.3",
            "--samples", "5", "--horizon", "48")
    r1, r2 = run(*args), run(*args)
    assert r1.exit_code == 0
    assert r1.output == r2.output
    lines = r1.output.strip().splitlines()
    assert lines[0] == "t,h_lower,h_upper,dim_lower,dim_upper,method"
    assert len(lines) == 6
    first = lines[1].split(",")
    assert abs(float(first[3]) - 1) < 1e-6   # dim at t=0
    r = run("staircase", "--beta", "2", "--t-max", "0.5", "--samples", "1")
    assert r.exit_code == 2
    for t_min in ("0.3", "0.4"):
        r = run("staircase", "--beta", "2", "--t-min", t_min,
                "--t-max", "0.3", "--samples", "4")
        assert r.exit_code == 2 and r.stdout == "", t_min
        assert "need 0 <= t-min < t-max <= 1" in r.stderr, t_min


def test_staircase_brackets_the_hole_it_prints(monkeypatch):
    # each row's t column is the hole its bracket is for, exactly
    holes = []

    def record(beta, t, horizon):
        holes.append(t.value)
        return DimensionReport(0.0, 0.0, 0.0, 0.0, "automaton_exact")

    monkeypatch.setattr(cli, "dimension", record)
    for args in [("--t-max", "0.3", "--samples", "64"),
                 ("--t-min", "0.05", "--t-max", "0.27", "--samples", "64",
                  "--digits", "6"),
                 ("--t-max", "1", "--samples", "7", "--digits", "0")]:
        holes.clear()
        r = run("staircase", "--beta", "1.457", *args)
        assert r.exit_code == 0, args
        labels = [line.split(",")[0]
                  for line in r.output.strip().splitlines()[1:]]
        assert len(labels) == len(holes) > 0, args
        for label, hole in zip(labels, holes):
            assert (hole.a, hole.b) == (Fraction(label),) * 2, (args, label)


def test_tau_json():
    r = run("tau", "--beta", "2")
    doc = json.loads(r.output)
    assert doc["tau_lower"] == "0.500000000000"
    assert doc["tau_upper"] == "0.500000000000"
    r = run("tau", "--beta", "@(10)")
    doc = json.loads(r.output)
    assert doc["regime"] == "left_endpoint"
    r = run("tau", "--beta", "1.7")
    doc = json.loads(r.output)
    assert doc["regime"].startswith("inside_farey")
    assert doc["witness_words"]["generator"] == "10"


def exact_value(seq, beta):
    """sum seq_i / beta^i in exact rational arithmetic."""
    r = 1 / beta
    head = sum(r ** (i + 1) for i, d in enumerate(seq.pre) if d == "1")
    cycle = sum(r ** (i + 1) for i, d in enumerate(seq.per) if d == "1")
    k, p = len(seq.pre), len(seq.per)
    return head + r ** k * cycle / (1 - r ** p)


def test_tau_bounds_are_rounded_outward():
    # 1.55 once printed tau_upper 0.268537, below t_diamond = 1/1.55^3
    for beta_s in ["1.55", "1.3", "1.7", "1.9"]:
        beta = Fraction(beta_s)
        for digits in ["6", "12"]:
            doc = json.loads(run("tau", "--beta", beta_s,
                                 "--digits", digits).output)
            assert doc["regime"].startswith("inside_farey"), beta_s
            w = doc["witness_words"]
            t_star = exact_value(EpSequence.parse(w["t_star"]), beta)
            top = t_star
            if doc["regime"] == "inside_farey_high":
                top = exact_value(EpSequence.parse(w["t_diamond"]), beta)
            assert Fraction(doc["tau_lower"]) <= t_star, (beta_s, digits)
            assert top <= Fraction(doc["tau_upper"]), (beta_s, digits)


def test_staircase_bounds_are_rounded_outward():
    # rounding to nearest once printed h_lower 0.485426827161 at beta 1.4
    # and t = 0, above the proven 0.4854268271604...
    for beta_s in ["1.4", "1.15", "@(110)"]:
        beta = BetaSpec.parse(beta_s)
        out = run("staircase", "--beta", beta_s, "--t-max", "0.3",
                  "--samples", "5").output
        for i, line in enumerate(out.strip().splitlines()[1:]):
            row = [Fraction(x) for x in line.split(",")[1:5]]
            rep = dimension(beta, PointSpec(value=0.3 * i / 4))
            assert row[0] <= Fraction(rep.h_lower), (beta_s, i)
            assert row[1] >= Fraction(rep.h_upper), (beta_s, i)
            assert row[2] <= Fraction(rep.dim_lower), (beta_s, i)
            assert row[3] >= Fraction(rep.dim_upper), (beta_s, i)


def test_staircase_at_base_two_prints_dimension_equal_to_entropy():
    # log2 2 = 1 exactly, so dim = h / log2 beta is h on every row
    for beta_s in ["2", "@(1)"]:
        r = run("staircase", "--beta", beta_s, "--t-max", "0.5",
                "--samples", "16")
        assert r.exit_code == 0
        for line in r.output.strip().splitlines()[1:]:
            t, h_lo, h_hi, dim_lo, dim_hi, _ = line.split(",")
            assert (dim_lo, dim_hi) == (h_lo, h_hi), (beta_s, t)


def test_isolated_zset_classify():
    r = run("isolated", "--word", "01", "--beta", "1.7")
    assert json.loads(r.output)["classification"] == "isolated"
    r = run("zset", "--word", "10")
    doc = json.loads(r.output)
    assert doc["cardinality"] == 2
    assert doc["members"] == ["(01)", "(10)"]
    r = run("zset", "--word", "1010")
    assert r.exit_code == 1 and r.stdout == ""
    assert r.stderr == ("error: reflect('1010') = '0101' is not a "
                        "non-degenerate Farey word\n")
    r = run("classify", "--t", "(01)", "--beta", "@(110)")
    doc = json.loads(r.output)
    assert doc["in_E_plus"] is True and doc["in_E_zero"] is False


def test_out_of_range_digits_and_n_are_usage_errors():
    # each once printed a wrong or empty answer, or died half-way with
    # exit 1; now click rejects it before anything reaches stdout
    cases = [("tau", "--beta", "1.5", "--digits", "-1"),
             ("staircase", "--beta", "1.5", "--t-max", "0.3",
              "--samples", "4", "--digits", "-2"),
             ("solve-beta", "--alpha", "(10)", "--digits", "-1"),
             ("atlas", "--max-len", "3", "--digits", "-1"),
             ("atlas", "--max-len", "3", "--digits", "0"),
             ("expand", "--x", "0.5", "--beta", "2", "--n", "-3"),
             ("alpha", "--beta", "2", "--n", "0"),
             ("tau", "--beta", "1.5", "--atlas-depth", "1"),
             ("staircase", "--beta", "1.5", "--t-max", "0.3",
              "--samples", "4", "--horizon", "-2"),
             ("farey", "--level", "-1"),
             ("farey", "--level", "15"),
             ("farey", "--level", "21"),
             ("atlas", "--max-len", "1"),
             ("atlas", "--max-len", "13"),
             ("staircase", "--beta", "1.5", "--t-max", "0.3",
              "--samples", "1")]
    for args in cases:
        r = run(*args)
        assert r.exit_code == 2, args
        assert r.stdout == "", args
        assert "Invalid value for '--%s': %s is not in the range" % (
            args[-2].lstrip("-"), args[-1]) in r.stderr, args


def test_smallest_digits_and_n_are_accepted():
    doc = json.loads(run("tau", "--beta", "2", "--digits", "0").output)
    assert (doc["tau_lower"], doc["tau_upper"]) == ("0", "1")
    doc = json.loads(run("atlas", "--max-len", "3", "--kind", "farey",
                         "--digits", "1").output)
    assert doc["intervals"][0]["beta_L"] == "1.47"
    assert run("solve-beta", "--alpha", "(10)",
               "--digits", "0").output.strip() == "2"
    assert run("expand", "--x", "0.5", "--beta", "2",
               "--n", "1").output.strip() == "1"
    assert run("alpha", "--beta", "2", "--n", "1").exit_code == 0
    doc = json.loads(run("tau", "--beta", "1.5", "--atlas-depth", "2").output)
    assert doc["atlas_depth"] == 2
    r = run("staircase", "--beta", "1.5", "--t-max", "0.3", "--samples", "2",
            "--horizon", "1")
    assert r.exit_code == 0 and len(r.output.splitlines()) == 3
