"""Bifurcation sets, basic/Farey parameter intervals, and the doubling-map
correspondence.

Parameter intervals are keyed by the generator a (the maximal rotation),
with endpoints given symbolically: alpha(beta_L) = (a)^inf and
alpha(beta_R) = a+ (s)^inf where s is the Lyndon rotation of a.  Endpoint
comparisons are done on those sequences, which is exact because
beta -> alpha(beta) is an order isomorphism.
"""

from fractions import Fraction
from typing import NamedTuple

from .errors import (CertificateFailed, NotFarey, NotFareyReflection,
                     NotLyndon, NotMaximalRotation)
from .sequences import (EpSequence, is_admissible, lex_compare_ep,
                        require_in_Q)
from .numeric import BetaSpec, Interval
from .survivor import LexSubshift, membership
from . import words as W
from . import numeric as N


def in_E_plus(t, alpha):
    """t belongs to the bifurcation set E+: t survives its own hole, so
    t <= sigma^n(t) < alpha for all n >= 0."""
    require_in_Q(alpha)
    return membership(t, LexSubshift(t, alpha))


def in_E_zero(t, alpha):
    """t has a 0-tail and satisfies the E+ conditions before the tail.

    The canonical preperiod w of t = w0^inf ends in 1, so for 0 < k < |w|
    t <= sigma^k t holds exactly when w[:|w|-k] < w[k:]: w lies below
    each proper suffix, so w is Lyndon (Lothaire, Combinatorics on Words,
    ch. 5).  Every shift past w is 0^inf < alpha, so "sigma^k t < alpha
    for k < |w|" is Parry admissibility."""
    require_in_Q(alpha)
    return t.is_zero_tail() and (not t.pre or W.is_lyndon(t.pre)) and \
        is_admissible(t, alpha)


class IntervalRecord(NamedTuple):
    generator: str
    lyndon: str
    alpha_L: EpSequence
    alpha_R: EpSequence
    kind: str  # "basic" | "farey"

    @property
    def beta_L(self):
        return BetaSpec(alpha=self.alpha_L)

    @property
    def beta_R(self):
        return BetaSpec(alpha=self.alpha_R)


def basic_interval(a):
    """The parameter interval (beta_L, beta_R] on which the periodic orbit
    of the Lyndon rotation of a is isolated in E+."""
    W.check_word(a)
    if "0" not in a or "1" not in a:
        raise NotMaximalRotation("degenerate generator %r" % a)
    if not W.is_aperiodic(a):
        raise NotMaximalRotation("%r is not primitive" % a)
    if W.max_rotation(a) != a:
        raise NotMaximalRotation("%r is not maximal among its rotations" % a)
    # (a)^inf is in Q: it holds a 1, and a is its own greatest rotation
    alpha_L = EpSequence("", a)
    s, _ = W.lyndon_rotation(a)
    alpha_R = EpSequence(W.plus(a), s)
    require_in_Q(alpha_R)
    kind = "farey" if W.is_farey(W.reflect(a)) else "basic"
    return IntervalRecord(a, s, alpha_L, alpha_R, kind)


def require_farey_generator(a):
    """Raise NotFareyReflection unless reflect(a) is a non-degenerate
    Farey word."""
    r = W.reflect(a)
    try:
        W.require_farey(r)
    except NotFarey:
        raise NotFareyReflection("reflect(%r) = %r is not a non-degenerate "
                                 "Farey word" % (a, r)) from None


def classify_isolated(t_period, beta):
    """Where beta falls relative to the basic interval of t_period's
    maximal rotation: "not_in_E_plus" (left of it), "isolated" (inside),
    or "not_isolated" (right of it)."""
    if not W.is_lyndon(t_period):
        raise NotLyndon("%r is not Lyndon" % t_period)
    rec = basic_interval(W.max_rotation(t_period))
    if beta.compare(rec.alpha_L) <= 0:
        return "not_in_E_plus"
    if beta.compare(rec.alpha_R) <= 0:
        return "isolated"
    return "not_isolated"


def nesting_relation(i1, i2):
    """Relation of two parameter intervals (beta_L, beta_R]: "equal",
    "disjoint", "first_inside_second" or "second_inside_first".

    Decided symbolically on the endpoint alpha-sequences.  A partial
    overlap would contradict the laminar structure and raises
    CertificateFailed.
    """
    l1l2 = lex_compare_ep(i1.alpha_L, i2.alpha_L)
    r1r2 = lex_compare_ep(i1.alpha_R, i2.alpha_R)
    if l1l2 == 0 and r1r2 == 0:
        return "equal"
    if lex_compare_ep(i1.alpha_R, i2.alpha_L) <= 0 or \
            lex_compare_ep(i2.alpha_R, i1.alpha_L) <= 0:
        return "disjoint"
    if l1l2 >= 0 and r1r2 <= 0:
        return "first_inside_second"
    if l1l2 <= 0 and r1r2 >= 0:
        return "second_inside_first"
    raise CertificateFailed(
        "laminarity certificate failed: intervals %s and %s overlap "
        "without nesting" %
        (i1.generator, i2.generator))


def nesting(recs):
    """Every non-disjoint pair (i, j, relation), i < j, of records sorted
    by alpha_L, as atlas() returns them, in one stack pass.

    The stack holds a chain of nested intervals: records that end at or
    before the current alpha_L leave it, and the top is checked against
    the current record by nesting_relation, which raises CertificateFailed
    on a partial overlap (in alpha_L order any partial overlap reaches the
    top).  The current record lies inside every record left on the stack.
    """
    pairs, stack = [], []
    for j, rec in enumerate(recs):
        while stack and lex_compare_ep(recs[stack[-1]].alpha_R,
                                       rec.alpha_L) <= 0:
            stack.pop()
        if stack:
            rel = nesting_relation(recs[stack[-1]], rec)
            pairs += [(i, j, rel) for i in stack]
        stack.append(j)
    return sorted(pairs)


class DoublingInterval(NamedTuple):
    word: str
    q_L: Fraction
    q_R: Fraction


def doubling_interval(w):
    """The doubling-map parameter interval (q_L, q_R) attached to a
    non-degenerate Farey word w."""
    W.require_farey(w)
    q_R = N.value_at(EpSequence("", w), 2)
    q_L = N.value_at(EpSequence("", w[::-1]), 2) - Fraction(1, 2)
    if not q_L < q_R:
        raise CertificateFailed(
            "doubling interval certificate failed: q_L = %s is not below "
            "q_R = %s for %r" % (q_L, q_R, w))
    return DoublingInterval(w, q_L, q_R)


def phi(beta, horizon=N.DEFAULT_HORIZON):
    """pi_2(alpha(beta)): exact Fraction when alpha(beta) is eventually
    periodic, else the Interval between its horizon-digit prefix followed
    by 0^inf and by 1^inf."""
    seq = beta.alpha_sequence()
    if seq is not None:
        return N.value_at(seq, 2)
    digits = beta.alpha_prefix(horizon)
    return Interval(N.value_at(EpSequence(digits, "0"), 2),
                    N.value_at(EpSequence(digits, "1"), 2))


def generators(max_len):
    """All interval generators (maximal rotations of aperiodic words using
    both digits) with length between 2 and max_len: the reflections of the
    Lyndon words of length >= 2."""
    return [W.reflect(w) for w in W.lyndon_words(max_len) if len(w) > 1]


def atlas(max_len, kind="all"):
    """All basic (or only Farey) interval records with generator length
    up to max_len, sorted by left endpoint.  The Farey generators are the
    reflections of the non-degenerate Farey words."""
    gens = ([W.reflect(w) for w in W.farey_words(max_len)]
            if kind == "farey" else generators(max_len))
    recs = [basic_interval(a) for a in gens]
    recs.sort(key=lambda r: r.alpha_L.prefix(2 * max_len + 4))
    return recs


def atlas_json(recs, digits=12):
    """Plain-dict form of an atlas, with decimal endpoints."""
    out = []
    for r in recs:
        out.append({
            "generator": r.generator,
            "lyndon": r.lyndon,
            "beta_L": r.beta_L.nstr(digits + 2),
            "beta_R": r.beta_R.nstr(digits + 2),
            "kind": r.kind,
            "alpha_L": str(r.alpha_L),
            "alpha_R": str(r.alpha_R),
        })
    return out
