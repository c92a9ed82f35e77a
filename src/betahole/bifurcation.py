"""Bifurcation sets, basic/Farey parameter intervals, and the doubling-map
correspondence.

Parameter intervals are keyed by the generator a (the maximal rotation),
with endpoints given symbolically: alpha(beta_L) = (a)^inf and
alpha(beta_R) = a+ (s)^inf where s is the Lyndon rotation of a.  Endpoint
comparisons are done on those sequences, which is exact because
beta -> alpha(beta) is an order isomorphism.
"""

from dataclasses import dataclass
from fractions import Fraction

from .errors import (CertificateFailed, NotFarey, NotFareyReflection,
                     NotInQ, NotLyndon, NotMaximalRotation)
from .sequences import EpSequence, extreme_shifts, lex_compare_ep, is_in_Q
from .numeric import BetaSpec, Interval
from . import words as W
from . import numeric as N


def in_E_plus(t, alpha):
    """t belongs to the bifurcation set E+: every shift of t lies between
    t itself (non-strict) and alpha (strict)."""
    if not is_in_Q(alpha):
        raise NotInQ("upper bound must be an expansion of 1")
    least, greatest = extreme_shifts(t)
    return least == t and lex_compare_ep(greatest, alpha) < 0


def in_E_zero(t, alpha):
    """t has a 0-tail and satisfies the E+ conditions before the tail."""
    if not is_in_Q(alpha):
        raise NotInQ("upper bound must be an expansion of 1")
    if not t.is_zero_tail():
        return False
    for k in range(len(t.pre)):
        s = t.shift(k)
        if lex_compare_ep(t, s) > 0:
            return False
        if lex_compare_ep(s, alpha) >= 0:
            return False
    return True


@dataclass(frozen=True)
class IntervalRecord:
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
    alpha_L = EpSequence("", a)
    if not is_in_Q(alpha_L):
        raise NotInQ("(%s)^inf is not an expansion of 1" % a)
    s, _ = W.lyndon_rotation(a)
    alpha_R = EpSequence(W.plus(a), s)
    if not is_in_Q(alpha_R):
        raise NotInQ("right endpoint sequence fails the shift condition")
    kind = "farey" if W.is_farey(W.reflect(a)) else "basic"
    return IntervalRecord(a, s, alpha_L, alpha_R, kind)


def require_farey_generator(a):
    """Raise NotFareyReflection unless reflect(a) is a non-degenerate
    Farey word."""
    r = W.reflect(a)
    if r in ("0", "1") or not W.is_farey(r):
        raise NotFareyReflection(
            "reflect(%r) = %r is not a non-degenerate Farey word" % (a, r))


def farey_interval(a):
    """basic_interval(a), insisting that reflect(a) is a non-degenerate
    Farey word; for these the Lyndon rotation is the reversal of a."""
    require_farey_generator(a)
    rec = basic_interval(a)
    if rec.lyndon != a[::-1]:
        raise CertificateFailed(
            "Farey reversal certificate failed: Lyndon rotation of %r "
            "is %r, not its reversal" % (a, rec.lyndon))
    return rec


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


@dataclass(frozen=True)
class DoublingInterval:
    word: str
    q_L: Fraction
    q_R: Fraction


def doubling_interval(w):
    """The doubling-map parameter interval (q_L, q_R) attached to a
    non-degenerate Farey word w."""
    if w in ("0", "1"):
        raise NotFarey("degenerate word %r" % w)
    if not W.is_farey(w):
        raise NotFarey("%r is not a Farey word" % w)
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
            "beta_L": r.beta_L.value.nstr(digits + 2),
            "beta_R": r.beta_R.value.nstr(digits + 2),
            "kind": r.kind,
            "alpha_L": str(r.alpha_L),
            "alpha_R": str(r.alpha_R),
        })
    return out
