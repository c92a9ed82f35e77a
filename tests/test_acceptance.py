"""Acceptance gate: one check per headline capability, each printing a
single PASS/FAIL line (run with -s to see them)."""

import math
import random
import time
from fractions import Fraction
from itertools import product

from betahole.sequences import EpSequence, lex_compare_ep
from betahole.numeric import BetaSpec, Interval, beta_from_alpha, project
from betahole.survivor import LexSubshift, PointSpec, compile, dimension
from betahole import bifurcation as B
from betahole import critical as C
from betahole import numeric as N
from betahole import words as W
from test_survivor import count_words_brute

E = EpSequence.parse


def report(num, ok, detail):
    print("[criterion %02d] %s: %s" % (num, "PASS" if ok else "FAIL", detail))
    assert ok, detail


def test_criterion_01_farey_generation():
    ok = (W.farey_level(1) == ("0", "01", "1") and
          W.farey_level(2) == ("0", "001", "01", "011", "1"))
    report(1, ok, "farey_level(1) and farey_level(2) match exactly")


def test_criterion_02_root_solving():
    g = beta_from_alpha(E("(10)"))
    t = beta_from_alpha(E("(110)"))
    two = beta_from_alpha(E("(1)"))
    ok = (abs(float(g.a) - 1.618033988749895) < 1e-9 and
          abs(float(t.a) - 1.839286755214161) < 1e-9 and
          two.a == 2 and two.b == 2)
    report(2, ok, "golden/tribonacci roots within 1e-9; (1) gives 2 exactly")


def test_criterion_03_doubling_map_endpoints():
    two = BetaSpec.parse("2")
    r0 = dimension(two, PointSpec(value=0.0))
    rh = dimension(two, PointSpec(value=0.5))
    tau = C.tau_report(two)
    ok = (r0.dim_lower <= 1 <= r0.dim_upper + 1e-6 and
          1 - r0.dim_lower < 1e-6 and
          rh.dim_upper < 0.02 and
          tau.tau_lower == 0.5 and tau.tau_upper == 0.5)
    report(3, ok, "dim brackets at t=0 and t=1/2 for the doubling map; "
                  "tau_2 = 1/2 exactly")


def test_criterion_04_staircase_reproduction():
    t0 = time.time()
    ok = True
    detail = []
    for alpha in ["(10)", "(110)"]:
        beta = BetaSpec.parse("@" + alpha)
        lim = 1 - 1 / beta.value
        tmax = math.nextafter(float(lim.b), 1.0)
        rows = []
        for i in range(64):
            t = tmax * i / 63
            rows.append((t, dimension(beta, PointSpec(value=t), horizon=96)))
        # row at t=0 is [1,1] within 1e-6
        ok &= rows[0][1].dim_lower > 1 - 1e-6 and rows[0][1].dim_upper <= 1
        # dim_upper nonincreasing within 2x bracket width
        for (t1, r1), (t2, r2) in zip(rows, rows[1:]):
            w = max(r1.dim_upper - r1.dim_lower, r2.dim_upper - r2.dim_lower)
            ok &= r2.dim_upper <= r1.dim_upper + 2 * w + 1e-9
        # rows at/above 1 - 1/beta are dimension-dead
        for t, r in rows:
            if t >= tmax:
                ok &= r.dim_upper < 0.02
        detail.append("%s: t=0 row [%.6f, %.6f], end row dim_upper %.4f" % (
            alpha, rows[0][1].dim_lower, rows[0][1].dim_upper,
            rows[-1][1].dim_upper))
    elapsed = time.time() - t0
    ok &= elapsed < 60
    report(4, ok, "; ".join(detail) + "; elapsed %.1fs" % elapsed)


def test_criterion_05_oracle_equivalence():
    rng = random.Random(20130517)
    checked = 0
    ok = True
    for _ in range(20):
        def seq():
            pre = "".join(rng.choice("01") for _ in range(rng.randint(0, 4)))
            per = "".join(rng.choice("01") for _ in range(rng.randint(1, 6)))
            return EpSequence(pre, per)
        lo, up = seq(), seq()
        if lex_compare_ep(lo, up) > 0:
            lo, up = up, lo
        sh = LexSubshift(lo, up)
        auto = compile(sh)
        for n in range(1, 13):
            ok &= auto.count_paths(n) == count_words_brute(sh, n)
            checked += 1
    report(5, ok, "automaton = brute force on %d seeded (shift, n) pairs"
           % checked)


def test_criterion_06_z_set():
    members = C.z_set("10")
    ok = (len(members) == 2 and
          set(members) == {E("(01)"), E("(10)")})
    count = 0
    for w in W.farey_words(8):
        if w in ("0", "1"):
            continue
        C.z_set(W.reflect(w))   # finiteness certificate, raises on failure
        count += 1
    report(6, ok, "z_set('10') = {(01), (10)}; certificate held for %d "
                  "generators of length <= 8" % count)


def test_criterion_07_interval_structure():
    recs = [B.basic_interval(a) for a in B.generators(8)]
    ok = True
    for i in range(len(recs)):
        for j in range(i + 1, len(recs)):
            rel = B.nesting_relation(recs[i], recs[j])
            ok &= rel in ("disjoint", "first_inside_second",
                          "second_inside_first")
    farey = [r for r in recs if r.kind == "farey"]
    for i in range(len(farey)):
        for j in range(i + 1, len(farey)):
            ok &= B.nesting_relation(farey[i], farey[j]) == "disjoint"
    for rec in farey:
        d = B.doubling_interval(W.reflect(rec.generator))
        ok &= abs(N.value_at(rec.alpha_L, 2) - (1 - d.q_R)) < 1e-9
        ok &= abs(N.value_at(rec.alpha_R, 2) - (1 - d.q_L)) < 1e-9
    report(7, ok, "%d basic intervals nested-or-disjoint; %d Farey "
                  "intervals disjoint with exact endpoint identities"
           % (len(recs), len(farey)))


def test_criterion_08_critical_point_bracket():
    b = Interval("1.7")
    beta = BetaSpec.parse("1.7")
    ts = project(C.t_star_sequence("10"), b)
    td = project(C.t_diamond_sequence("10"), b)
    lim = 1 - 1 / b
    m = 2   # len("10")
    # repaired lower bound (1 - 1/beta)(beta^m - 2)/(beta^m - 1); see
    # test_criterion_08_corrected_lower_bound for why the last term is needed
    lhs = (lim - 1 / b ** m + 1 / (b * (b ** m - 1))
           - 1 / (b ** m * (b ** m - 1)))
    chain1 = lhs.b <= ts.a
    chain2 = ts.b <= td.a
    chain3 = td.b < lim.a
    r_lo = dimension(beta, PointSpec(value=float(ts.a) - 0.01))
    pos = r_lo.dim_lower > 0
    r_hi = dimension(beta, PointSpec(seq=C.t_diamond_sequence("10")))
    dead = r_hi.dim_upper < 0.02
    ok = chain1 and chain2 and chain3 and pos and dead
    report(8, ok,
           "repaired lower (1-1/b)(b^m-2)/(b^m-1)<=t* %s "
           "(lhs=%.6f, t*=%.6f), t*<=t_dia %s, "
           "t_dia<1-1/beta %s, dim(t*-0.01) lower %.4f>0 %s, "
           "dim(t_dia) upper %.2e<0.02 %s" % (
               chain1, float(lhs.b), float(ts.a),
               chain2, chain3, r_lo.dim_lower, pos, r_hi.dim_upper, dead))


def test_criterion_08_corrected_lower_bound():
    """The stated lower bound 1 - 1/b - 1/b^m + 1/(b(b^m - 1)) exceeds t*
    at beta_R of the Farey records checked here; subtracting the missing 1/(b^m (b^m - 1)) term makes it hold.

    t* = pi_b(a^inf) - 1/b, since t_star_sequence(a) is 0 a_2..a_m (a)^inf.
    For m = 2 that is t* = 1/(b(b^2 - 1)), so the stated form equals
    t* + (1 - 1/b - 1/b^2) and is <= t* only for b <= the golden mean, the
    left end of the interval.  The repaired form is
    (1 - 1/b)(b^m - 2)/(b^m - 1) and meets t* at beta_R.  Not one of the
    numbered criteria."""
    for rec in B.atlas(8, kind="farey")[:15]:
        a = rec.generator
        m = len(a)
        bl, br = rec.beta_L.value, rec.beta_R.value
        for lam in (0.3, 1.0):
            b = bl + (br - bl) * lam
            ts = project(C.t_star_sequence(a), b)
            lhs = (1 - 1 / b - 1 / b ** m
                   + 1 / (b * (b ** m - 1)) - 1 / (b ** m * (b ** m - 1)))
            # equality holds at the right endpoint, so allow a sliver of
            # interval-rounding slack
            assert lhs.b <= ts.b + Fraction(1, 2 ** 90), (a, lam)


def test_criterion_09_left_endpoint_emptiness():
    gens = [W.reflect(w) for w in W.farey_words(6) if w not in ("0", "1")]
    ok = all(C.verify_empty_at_left_endpoint(a) for a in gens)
    for a in gens:
        for n in range(1, 6):
            C.t_n_family(a, n)   # symbolic shift checks are internal asserts
    report(9, ok, "survivor set empty at t = 1 - 1/gamma_L for %d "
                  "generators; t_N checks passed for N <= 5" % len(gens))


def test_criterion_10_word_combinatorics():
    def brute_lyndon(w):
        return all(w < w[i:] + w[:i] for i in range(1, len(w)))
    ok = True
    for n in range(1, 13):
        for bits in product("01", repeat=n):
            w = "".join(bits)
            ok &= W.is_lyndon(w) == brute_lyndon(w)
    count = 0
    for w in W.farey_words(20):
        ok &= W.check_palindrome_property(w)
        ok &= W.max_rotation(w) == w[::-1]
        ok &= W.is_lyndon(w)
        u, v = W.standard_factorization(w)
        ok &= sorted(W.rotations(w))[1] == v + u
        count += 1
    report(10, ok, "is_lyndon matches oracle on all words of length <= 12; "
                   "(f1)-(f3) hold for %d Farey words of length <= 20" % count)
