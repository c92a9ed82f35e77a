"""Critical hole size: Z-sets, approximants, emptiness, tau regimes."""

from fractions import Fraction
from itertools import product
from math import gcd

import pytest

from betahole.errors import BadWord, CertificateFailed, OutOfRange
from betahole.sequences import EpSequence, extreme_shifts, lex_compare_ep
from betahole.survivor import (LexSubshift, PointSpec, compile, dimension,
                               entropy)
from betahole.numeric import BetaSpec, beta_from_alpha, float_up, project
from betahole import critical as C
from betahole import bifurcation as B
from betahole import numeric as N
from betahole import words as W
from test_survivor import reachable

E = EpSequence.parse


def linear_locate(beta, recs):
    """Reference placement for _locate: one linear pass over a Farey
    atlas sorted by alpha_L."""
    left = right = None
    for r in recs:
        c = beta.compare(r.alpha_L)
        if c == 0:
            return "left", r.generator
        if c < 0:
            right = r
            break
        if beta.compare(r.alpha_R) <= 0:
            return "inside", r.generator
        if left is None or lex_compare_ep(r.alpha_R, left.alpha_R) > 0:
            left = r
    lo = left.beta_R.value.a if left else 1
    hi = right.beta_L.value.b if right else 2
    return "gap", hi - lo


def farey_generators(max_len):
    return [W.reflect(w) for w in W.farey_words(max_len)
            if w not in ("0", "1")]


def test_z_set_golden():
    members = C.z_set("10")
    assert len(members) == 2
    assert set(members) == {E("(01)"), E("(10)")}


def test_z_set_members_end_in_generator_cycle():
    for a in ["110", "1110", "11010"]:
        rots = set(W.rotations(a))
        for x in C.z_set(a):
            assert x.per in rots, (a, str(x))


def test_z_set_contains_the_generator_orbit():
    for a in ["10", "110", "1110"]:
        members = set(C.z_set(a))
        assert EpSequence("", a) in members


def test_z_set_finite_for_generators_up_to_8():
    for a in farey_generators(8):
        members = C.z_set(a)   # raises CertificateFailed if not
        assert len(members) == len(a), a


def test_z_set_is_every_short_sequence_between_its_bounds():
    """z_set(a) is complete, through compile's inclusive closure: for
    each Farey generator a of length <= 5 it is exactly the set of
    sequences with |pre| <= 7 and |per| <= 5 whose least shift is at or
    above s0^inf and whose greatest shift is at or below (a)^inf, s the
    Lyndon rotation of a."""
    def words(lo, hi):
        return ["".join(bits) for n in range(lo, hi + 1)
                for bits in product("01", repeat=n)]

    pool = {EpSequence(pre, per) for pre in words(0, 7)
            for per in words(1, 5)}
    extremes = [(x, *extreme_shifts(x)) for x in pool]
    for a in farey_generators(5):
        lower = EpSequence(W.lyndon_rotation(a)[0], "0")
        upper = EpSequence("", a)
        expected = {x for x, least, greatest in extremes
                    if lex_compare_ep(least, lower) >= 0
                    and lex_compare_ep(greatest, upper) <= 0}
        assert set(C.z_set(a)) == expected, a


def test_z_set_is_the_automaton_orbit():
    """The survivor automaton of LexSubshift(s0^inf, (a)^inf), s the
    Lyndon rotation of a, reads from its start state exactly the
    rotations of a as its words of length |a| that end in a live state,
    for every Farey generator a of length <= 24."""
    for a in farey_generators(24):
        s = W.lyndon_rotation(a)[0]
        trans = compile(LexSubshift(EpSequence(s, "0"), EpSequence("", a)))
        reach = reachable(trans)
        live = {q for q in range(len(trans))
                if any(t in reach[t] for t in reach[q] | {q})}
        level = {"": 0}
        for _ in a:
            level = {w + str(d): t for w, u in level.items()
                     for d, t in enumerate(trans[u]) if t in live}
        assert set(level) == set(W.rotations(a)), a
        assert [str(x) for x in C.z_set(a)] == \
            ["(%s)" % r for r in sorted(level)], a


def test_z_set_certificate_fails_outside_christoffel_classes(monkeypatch):
    monkeypatch.setattr(B, "require_farey_generator", lambda a: None)
    for a in ("110100", "11100"):
        with pytest.raises(CertificateFailed,
                           match="do not end in 1...10...0"):
            C.z_set(a)


def test_z_set_certificate_holds_exactly_on_farey_generators(monkeypatch):
    """With the Farey check bypassed, the last-digit certificate passes
    on a primitive word that is its own greatest rotation exactly when
    its reflection is Farey, for every such word of length 2 to 12."""
    monkeypatch.setattr(B, "require_farey_generator", lambda a: None)
    checked = 0
    for n in range(2, 13):
        for bits in product("01", repeat=n):
            w = "".join(bits)
            if not W.is_aperiodic(w) or W.max_rotation(w) != w:
                continue
            try:
                C.z_set(w)
                passed = True
            except CertificateFailed:
                passed = False
            assert passed == W.is_farey(W.reflect(w)), w
            checked += 1
    assert checked == 745   # the binary Lyndon words of length 2 to 12


def test_z_set_rejects_non_farey():
    with pytest.raises(BadWord, match=r"^reflect\('1100'\) = "
                       r"'0011' is not a non-degenerate Farey word$"):
        C.z_set("1100")


def test_verify_empty_at_left_endpoint():
    gens = farey_generators(24)
    assert len(gens) == 179
    for a in gens:
        assert C.verify_empty_at_left_endpoint(a), a


def test_left_endpoint_inversion_positive_entropy_below():
    """Slightly below 1 - 1/gamma_L the survivor set regains entropy."""
    from betahole.survivor import LexSubshift, entropy
    t1 = C.t_n_family("10", 1)
    sh = LexSubshift(t1, E("(10)"))
    br = entropy(sh)
    assert br.lower_bound > 0


def test_t_n_family():
    assert C.t_n_family("10", 1) == E("(00101)")
    assert C.t_n_family("110", 2) == E("(01011011011)")
    for a in farey_generators(6):
        for n in range(1, 6):
            C.t_n_family(a, n)   # internal symbolic shift checks


def test_t_n_family_and_tau_report_reject_too_small_arguments():
    with pytest.raises(OutOfRange, match="^N must be >= 1$"):
        C.t_n_family("110", 0)
    with pytest.raises(OutOfRange, match="^atlas_depth must be >= 2$"):
        C.tau_report(BetaSpec.parse("1.5"), 1)


def test_t_n_family_certificates_fail_on_a_bad_shift(monkeypatch):
    t = E("(00101)")   # t_1 of "10"
    monkeypatch.setattr(C, "extreme_shifts", lambda x: (E("(0)"), t))
    with pytest.raises(CertificateFailed, match=r"^t_N certificate failed: "
                       r"shift \(0\) lies below t_N$"):
        C.t_n_family("10", 1)
    monkeypatch.setattr(C, "extreme_shifts", lambda x: (t, E("(10)")))
    with pytest.raises(CertificateFailed, match=r"^t_N certificate failed: "
                       r"shift \(10\) reaches \(10\)\^inf$"):
        C.t_n_family("10", 1)


def test_t_n_family_increasing():
    prev = None
    for n in range(1, 8):
        t = C.t_n_family("10", n)
        if prev is not None:
            assert lex_compare_ep(prev, t) < 0
        prev = t


def test_t_n_admissible_inside_interval():
    from betahole.sequences import is_admissible
    rec = B.basic_interval("10")
    for n in range(1, 6):
        t = C.t_n_family("10", n)
        assert is_admissible(t, rec.alpha_R)


def test_tau_beta_two():
    rep = C.tau_report(BetaSpec.parse("2"))
    assert rep.regime == "outside_closure"
    assert rep.tau_lower == rep.tau_upper == 0.5
    assert rep.certified


def test_tau_left_endpoint_golden():
    rep = C.tau_report(BetaSpec.parse("@(10)"))
    assert rep.regime == "left_endpoint"
    assert abs(rep.tau_lower - 0.38196601125010515) < 1e-9
    assert abs(rep.tau_upper - rep.tau_lower) < 1e-12


def test_tau_inside_golden_interval():
    rep = C.tau_report(BetaSpec.parse("1.7"))
    assert rep.regime in ("inside_farey_low", "inside_farey_high")
    assert rep.witnesses["generator"] == "10"
    t_star = 1 / (1.7 * (1.7 ** 2 - 1))
    assert abs(rep.tau_lower - t_star) < 1e-9
    one_minus = 1 - 1 / 1.7
    assert rep.tau_upper < one_minus


def test_tau_locates_bases_within_root_bracket_of_an_endpoint():
    """40-digit decimals closer to phi = beta_L("10") and to
    beta_R("10") = 2cos(pi/7) than the 2^-100 root brackets."""
    for b in ["1.618033988749894848204586834365638117720",
              "1.6180339887498948482045868343656381177"]:
        rep = C.tau_report(BetaSpec.parse(b))
        assert rep.regime == "outside_closure", b
        assert not rep.certified
    rep = C.tau_report(
        BetaSpec.parse("1.801937735804838252472204639014890102331"))
    assert rep.regime == "inside_farey_high"
    assert rep.witnesses["generator"] == "10"


def test_tau_deep_atlas_certifies_t_star():
    """1.57 lies in no Farey interval of generator length <= 10, but in
    one of the depth-40 atlas, where tau = t* exactly."""
    beta = BetaSpec.parse("1.57")
    assert not C.tau_report(beta).certified
    rep = C.tau_report(beta, atlas_depth=40)
    assert rep.certified and rep.regime == "inside_farey_low"
    t_star = project(C.t_star_sequence(rep.witnesses["generator"]),
                     beta.value)
    assert t_star.a == t_star.b    # exact at a rational base
    assert Fraction(rep.tau_lower) <= t_star.a <= Fraction(rep.tau_upper)


def test_tau_upper_never_exceeds_fixed_point():
    """32-point beta grid: tau_upper <= 1 - 1/beta throughout."""
    for i in range(32):
        b = 1.5 + 0.495 * i / 31
        rep = C.tau_report(BetaSpec(value=b), atlas_depth=8)
        assert rep.tau_upper <= 1 - 1 / b + 1e-12, b


def test_bracket_chain_inside_intervals():
    """For sample betas inside each Farey interval (|a| <= 8):
    t* <= t_diamond < 1 - 1/beta in certified arithmetic."""
    for rec in B.atlas(8, kind="farey")[:20]:
        a = rec.generator
        bl = rec.beta_L.value
        br = rec.beta_R.value
        for lam in (Fraction(1, 4), Fraction(3, 4), 1):
            # bl + (br - bl) * lam over every point of the two brackets
            bv = N.Interval(bl.a + lam * (br.a - bl.b),
                            bl.b + lam * (br.b - bl.a))
            ts = project(C.t_star_sequence(a), bv)
            td = project(C.t_diamond_sequence(a), bv)
            lim = 1 - 1 / bv.a   # 1 - 1/beta rises with beta
            assert ts.a <= td.b
            assert td.b < lim


def test_outside_closure_gap_matches_all_records_formula():
    """The one-pass gap is the width, rounded up, from the lower end of
    the highest beta_R bracket at or below beta (else 1) to the upper end
    of the lowest beta_L bracket at or above it (else 2), and bounds the
    exact gap between the brackets from above."""
    for b in ["1.57", "1.05"]:
        beta = BetaSpec.parse(b)
        left, right = Fraction(1), Fraction(2)
        inner_left, inner_right = left, right
        for r in B.atlas(10, kind="farey"):
            if beta.compare(r.alpha_R) >= 0:
                left = max(left, r.beta_R.value.a)
                inner_left = max(inner_left, r.beta_R.value.b)
            elif beta.compare(r.alpha_L) <= 0:
                right = min(right, r.beta_L.value.b)
                inner_right = min(inner_right, r.beta_L.value.a)
        rep = C.tau_report(beta)
        assert rep.regime == "outside_closure", b
        gap = rep.witnesses["gap"]
        assert gap == float_up(right - left), b
        assert inner_right - inner_left < right - left <= Fraction(gap), b


def test_outside_closure_gap_solves_at_most_two_roots(monkeypatch):
    calls = []

    def counted(alpha):
        calls.append(alpha)
        return beta_from_alpha(alpha)

    monkeypatch.setattr(N, "beta_from_alpha", counted)
    for b in ["1.57", "1.05"]:
        beta = BetaSpec.parse(b)
        calls.clear()
        assert C.tau_report(beta).regime == "outside_closure"
        assert len(calls) <= 2, b


def test_descent_matches_linear_atlas_scan():
    """Regime, generator word and exact gap of the descent equal a linear scan
    of B.atlas(depth, "farey") over the bases 1.001 + 0.005k, k < 200,
    and over both endpoints of every Farey interval of depth 5."""
    bases = [BetaSpec.parse("1.%03d" % (1 + 5 * k)) for k in range(200)]
    ends = [b for r in B.atlas(5, kind="farey") for b in (r.beta_L, r.beta_R)]
    for depth, step in ((2, 1), (5, 1), (10, 1), (20, 4)):
        recs = B.atlas(depth, kind="farey")
        for beta in bases[::step] + ends:
            assert C._locate(beta, depth) == linear_locate(beta, recs), \
                (beta.value, depth)


def test_christoffel_generators_meet_the_validating_interval():
    """The descent takes alpha_L = (a)^inf and alpha_R = a+ (reversed
    a)^inf for a = reflect(c(q - m, q)) unchecked; basic_interval, which
    checks every condition, agrees on all reduced slopes with q <= 60."""
    slopes = [(m, q) for q in range(2, 61) for m in range(1, q)
              if gcd(m, q) == 1]
    assert len(slopes) == 1101
    for m, q in slopes:
        a = W.reflect(W.christoffel(q - m, q))
        r = B.basic_interval(a)
        assert r.alpha_L == EpSequence("", a), a
        assert r.alpha_R == EpSequence(W.plus(a), a[::-1]), a
        assert r.kind == "farey", a


def test_tau_report_builds_at_most_depth_records(monkeypatch):
    calls = []
    christoffel = W.christoffel

    def counting(p, q):
        calls.append((p, q))
        return christoffel(p, q)

    def forbidden(name):
        def call(*args, **kwargs):
            raise AssertionError("tau_report called B.%s" % name)
        return call

    monkeypatch.setattr(W, "christoffel", counting)
    monkeypatch.setattr(B, "atlas", forbidden("atlas"))
    monkeypatch.setattr(B, "basic_interval", forbidden("basic_interval"))
    for b, depth in (("1.57", 40), ("1.05", 10), ("1.999", 12), ("1.7", 10)):
        del calls[:]
        C.tau_report(BetaSpec.parse(b), atlas_depth=depth)
        assert 0 < len(calls) <= depth, (b, depth, len(calls))


def test_deep_descent_validates_few_words(monkeypatch):
    """A depth-200 walk down the 1 0^k chain once rebuilt every shift of
    every endpoint as a checked EpSequence: 63,683 check_word calls."""
    calls = []
    check_word = W.check_word

    def counting(w):
        calls.append(w)
        return check_word(w)

    monkeypatch.setattr(W, "check_word", counting)
    C.tau_report(BetaSpec.parse("1.001"), 200)
    assert len(calls) < 10000


def test_gap_lower_bound_never_exceeds_tau():
    """Deep in an atlas gap, tau_report once printed tau_lower = 1 - 1/beta
    ("atlas-depth limited"); at this base that lies above tau = t*, which
    the depth-60 descent certifies."""
    beta = BetaSpec.parse("1.83524463578171227100681651915")
    deep = C.tau_report(beta, atlas_depth=60)
    assert deep.regime == "inside_farey_low"
    t_star = project(C.t_star_sequence(deep.witnesses["generator"]),
                     beta.value)
    assert t_star.a == t_star.b
    rep = C.tau_report(beta, atlas_depth=40)
    assert rep.regime == "outside_closure" and not rep.certified
    assert rep.witnesses["gap"] < 1e-14
    assert Fraction(rep.tau_lower) <= t_star.a
    printed = C.tau_json(rep, 17)["tau_lower"]
    assert Fraction(printed) <= Fraction(C.tau_json(deep, 17)["tau_lower"])


def test_reports_are_immutable():
    # a report is a value: no caller can move a bound it printed
    beta = BetaSpec.parse("@(110)")
    for rep, name in [(C.tau_report(beta), "tau_lower"),
                      (dimension(beta, PointSpec(value="0.1")), "dim_lower"),
                      (entropy(LexSubshift(E("(0)"), E("(10)"))),
                       "lower_bound")]:
        with pytest.raises(AttributeError):
            setattr(rep, name, 0.0)
