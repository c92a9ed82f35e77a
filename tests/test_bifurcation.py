"""Bifurcation sets, interval atlas, doubling-map correspondence."""

from fractions import Fraction

import pytest

from betahole.errors import (CertificateFailed, NotFarey,
                             NotFareyReflection, NotInQ, NotLyndon,
                             NotMaximalRotation)
from betahole.sequences import EpSequence
from betahole.numeric import BetaSpec
from betahole import bifurcation as B
from betahole import numeric as N
from betahole import words as W

E = EpSequence.parse


def mid(b):
    return float(b.value.mid())


def test_in_E_plus():
    trib = E("(110)")
    assert B.in_E_plus(E("(0)"), trib)
    assert B.in_E_plus(E("(01)"), trib)
    assert not B.in_E_plus(E("(01)"), E("(10)"))   # shift hits alpha
    assert not B.in_E_plus(E("(10)"), trib)        # shift drops below t


def test_in_E_zero():
    assert B.in_E_zero(E("(0)"), E("(10)"))
    assert B.in_E_zero(E("01(0)"), E("(10)"))
    assert not B.in_E_zero(E("(01)"), E("(10)"))   # no zero tail
    assert not B.in_E_zero(E("11(0)"), E("(110)"))  # shift above alpha


def test_basic_interval_golden():
    rec = B.basic_interval("10")
    assert rec.lyndon == "01"
    assert rec.kind == "farey"
    assert rec.alpha_L == E("(10)")
    assert rec.alpha_R == E("11(01)")
    assert abs(mid(rec.beta_L) - 1.618033988749895) < 1e-9
    assert abs(mid(rec.beta_R) - 1.8019377358048383) < 1e-9


def test_basic_interval_tribonacci():
    rec = B.basic_interval("110")
    assert abs(mid(rec.beta_L) - 1.839286755214161) < 1e-9
    assert mid(rec.beta_L) < mid(rec.beta_R)


def test_basic_interval_rejects():
    with pytest.raises(NotMaximalRotation):
        B.basic_interval("1")
    with pytest.raises(NotMaximalRotation):
        B.basic_interval("01")
    with pytest.raises(NotMaximalRotation):
        B.basic_interval("1010")


def test_farey_interval():
    rec = B.farey_interval("10")
    assert rec.kind == "farey"
    rec = B.farey_interval("110")
    assert rec.alpha_R == EpSequence(W.plus("110"), "011")
    with pytest.raises(NotFareyReflection, match=r"^reflect\('1100'\) = "
                       r"'0011' is not a non-degenerate Farey word$"):
        B.farey_interval("1100")


def test_classify_isolated():
    assert B.classify_isolated("01", BetaSpec.parse("1.7")) == "isolated"
    assert B.classify_isolated("01", BetaSpec.parse("1.61")) == "not_in_E_plus"
    assert B.classify_isolated("01", BetaSpec.parse("1.99")) == "not_isolated"
    with pytest.raises(NotLyndon):
        B.classify_isolated("10", BetaSpec.parse("1.7"))


def test_classify_isolated_at_interval_endpoints():
    """beta_L lies outside (beta_L, beta_R] and beta_R inside; both were
    once undecidable because their root brackets coincide."""
    for word, left, right in [("01", "(10)", "1(10)"),
                              ("001", "(100)", "1(010)"),
                              ("011", "(110)", "1(110)")]:
        assert B.classify_isolated(word, BetaSpec.parse("@" + left)) == \
            "not_in_E_plus"
        assert B.classify_isolated(word, BetaSpec.parse("@" + right)) == \
            "isolated"


def test_classify_isolated_consistency_with_approximants():
    """Above beta_R the periodic point is approached from above by the
    block-concatenation approximants, hence not isolated."""
    from betahole.sequences import lex_compare_ep
    beta = BetaSpec.parse("1.99")
    assert B.classify_isolated("01", beta) == "not_isolated"
    digits = beta.alpha_prefix(48)
    alpha_lo = EpSequence(digits, "0")
    # t_N = ((s)^N s_1...s_{m-j}+)^inf accumulate at (01)^inf from above
    prev = None
    for n in range(1, 6):
        t = EpSequence("", "01" * n + "1")
        for s in (t.shift(k) for k in range(t.window)):
            assert lex_compare_ep(s, alpha_lo) < 0   # admissible at beta
        if prev is not None:
            assert lex_compare_ep(t, prev) < 0       # decreasing to (01)^inf
        prev = t


def test_nesting_relation():
    r10 = B.basic_interval("10")
    r110 = B.basic_interval("110")
    assert B.nesting_relation(r10, r10) == "equal"
    assert B.nesting_relation(r10, r110) == "disjoint"
    # 1101 reflects to 0010, not Farey: a basic interval nested in the
    # tribonacci Farey interval
    r1101 = B.basic_interval(W.max_rotation("0111"))
    rel = B.nesting_relation(r1101, r110)
    assert rel in ("first_inside_second", "disjoint")
    # a partial overlap breaks laminarity: a named certificate error
    first = B.IntervalRecord("x", "x", E("(100)"), E("(110)"), "basic")
    second = B.IntervalRecord("y", "y", E("(101)"), E("(1110)"), "basic")
    with pytest.raises(CertificateFailed, match="laminarity"):
        B.nesting_relation(first, second)


def pair_loop_nesting(recs):
    """The quadratic loop B.nesting replaced, kept as its oracle."""
    out = []
    for i in range(len(recs)):
        for j in range(i + 1, len(recs)):
            rel = B.nesting_relation(recs[i], recs[j])
            if rel != "disjoint":
                out.append((i, j, rel))
    return out


def test_nesting_matches_pair_loop():
    for max_len, kind in ((10, "all"), (12, "farey")):
        recs = B.atlas(max_len, kind)
        want = pair_loop_nesting(recs)
        assert B.nesting(recs) == want, (max_len, kind)
        assert want or kind == "farey"   # Farey intervals are disjoint


def test_nesting_raises_on_partial_overlap():
    first = B.IntervalRecord("x", "x", E("(100)"), E("(110)"), "basic")
    second = B.IntervalRecord("y", "y", E("(101)"), E("(1110)"), "basic")
    with pytest.raises(CertificateFailed, match="laminarity"):
        B.nesting([first, second])


def scan_and_filter_atlas(max_len, kind):
    """Reference atlas: the maximal rotation of every aperiodic word of
    each length, one basic interval each, non-Farey ones dropped for
    kind "farey"."""
    recs = []
    for m in range(2, max_len + 1):
        seen = set()
        for i in range(1, 2 ** m - 1):
            w = format(i, "0%db" % m)
            if not W.is_aperiodic(w):
                continue
            a = W.max_rotation(w)
            if a in seen:
                continue
            seen.add(a)
            rec = B.basic_interval(a)
            if kind == "all" or rec.kind == "farey":
                recs.append(rec)
    recs.sort(key=lambda r: r.alpha_L.prefix(2 * max_len + 4))
    return recs


def test_atlas_matches_scan_and_filter_up_to_12():
    for kind in ("all", "farey"):
        for max_len in range(2, 13):
            assert B.atlas(max_len, kind) == \
                scan_and_filter_atlas(max_len, kind), (max_len, kind)


def test_farey_atlas_builds_only_farey_records(monkeypatch):
    calls = []
    basic_interval = B.basic_interval
    monkeypatch.setattr(B, "basic_interval",
                        lambda a: calls.append(a) or basic_interval(a))
    assert len(B.atlas(10, "farey")) == len(calls) == 31


def test_basic_intervals_nested_or_disjoint_up_to_8():
    recs = [B.basic_interval(a) for a in B.generators(8)]
    for i in range(len(recs)):
        for j in range(i + 1, len(recs)):
            rel = B.nesting_relation(recs[i], recs[j])  # raises on overlap
            assert rel in ("disjoint", "first_inside_second",
                           "second_inside_first")


def test_farey_intervals_pairwise_disjoint_up_to_8():
    recs = B.atlas(8, kind="farey")
    assert recs
    for i in range(len(recs)):
        for j in range(i + 1, len(recs)):
            assert B.nesting_relation(recs[i], recs[j]) == "disjoint"


def test_non_farey_basic_interval_sits_inside_one_maximal_farey():
    farey = B.atlas(8, kind="farey")
    for rec in B.atlas(6, kind="all"):
        if rec.kind == "farey":
            continue
        inside = [f for f in farey
                  if B.nesting_relation(rec, f) == "first_inside_second"]
        assert len(inside) == 1, rec.generator


def test_doubling_interval():
    d = B.doubling_interval("01")
    assert d.q_L == Fraction(1, 6) and d.q_R == Fraction(1, 3)
    d = B.doubling_interval("001")
    assert d.q_L == Fraction(1, 14) and d.q_R == Fraction(1, 7)
    with pytest.raises(NotFarey):
        B.doubling_interval("0")
    with pytest.raises(NotFarey):
        B.doubling_interval("0011")


def test_phi():
    assert B.phi(BetaSpec.parse("2")) == 1
    assert B.phi(BetaSpec.parse("@(10)")) == Fraction(2, 3)
    assert B.phi(BetaSpec.parse("@(110)")) == Fraction(6, 7)


def test_phi_at_a_decimal_base_brackets_by_the_alpha_prefix():
    for text in ["1.7", "1.001", "1.999", "1.618033988749895"]:
        beta = BetaSpec.parse(text)
        prefix = beta.alpha_prefix(N.DEFAULT_HORIZON)
        v = B.phi(beta)
        assert v.a == N.value_at(EpSequence(prefix, "0"), 2), text
        assert v.b == N.value_at(EpSequence(prefix, "1"), 2), text
        deep = B.phi(beta, 300)
        assert v.a <= deep.a <= deep.b <= v.b, text


def test_phi_endpoint_identities_up_to_8():
    """phi(gamma_L) = 1 - q_R and phi(gamma_R) = 1 - q_L, exactly."""
    for rec in B.atlas(8, kind="farey"):
        w = W.reflect(rec.generator)
        d = B.doubling_interval(w)
        assert N.value_at(rec.alpha_L, 2) == 1 - d.q_R
        assert N.value_at(rec.alpha_R, 2) == 1 - d.q_L


def test_in_E_plus_is_membership_in_own_subshift():
    from betahole.survivor import LexSubshift, membership
    trib = E("(110)")
    for text in ["(0)", "(01)", "(10)", "01(10)", "(100)"]:
        t = E(text)
        assert B.in_E_plus(t, trib) == membership(
            t, LexSubshift(t, trib))
