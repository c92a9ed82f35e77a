"""The critical hole size tau_beta and the machinery around it:
Z-set enumeration with a finiteness certificate, the t_N approximant
family, left-endpoint emptiness, and the TauReport regimes.
"""

from typing import NamedTuple

from .errors import CertificateFailed, FinitenessCertificateFailed
from .sequences import EpSequence, extreme_shifts, lex_compare_ep
from . import bifurcation as B
from . import sequences as S
from . import words as W
from . import numeric as N
from .numeric import fixed, float_down, float_up
from .survivor import LexSubshift, membership


def z_set(a):
    """All sequences whose every shift lies between s0^infinity and
    (a)^infinity, both inclusive, s the Lyndon rotation of a: the q = |a|
    rotations r of a, as (r)^infinity, in increasing order.

    Certificate: the last digits of the sorted rotations, read in order,
    must read 1...10...0 (no "01"), else FinitenessCertificateFailed.
    This is the Burrows-Wheeler form that Mantaci, Restivo and Sciortino
    (IPL 86, 2003) show belongs to Christoffel classes, so it never fires
    once reflect(a) is Farey; a is then primitive and its own greatest
    rotation, since a Farey word is Lyndon.  The proof below uses only
    that and the checked condition, not the citation.

    (1) Every shift y of a member is >= s^inf.  If s0^inf <= y < s^inf,
    y starts with s, and sigma^q y falls in the same range (it is a
    shift, and y = s sigma^q y < s s^inf); so y = s^inf, a contradiction.
    (2) The orbit {(r)^inf} lies in range, and nothing else does.  sigma
    maps the orbit points that start with d, in order, onto those whose
    rotation ends in d; by the checked order, it maps the 1-cylinder onto
    the bottom block of the orbit and the 0-cylinder onto the top block.
    A member y outside the orbit lies in [s^inf, (a)^inf] by (1), so
    strictly between two consecutive orbit points that share k digits.
    While they share a first digit, sigma takes them to consecutive orbit
    points with sigma y still strictly between, so sigma^k y lies strictly
    between the greatest orbit point that starts with 0 and the least
    that starts with 1.  If sigma^k y starts with 0, sigma^(k+1) y lies
    above the top of the top block, (a)^inf; if with 1, below the bottom
    of the bottom block, s^inf.  Either contradicts membership.
    """
    B.require_farey_generator(a)
    rots = sorted(W.rotations(a))
    if "01" in "".join(r[-1] for r in rots):
        raise FinitenessCertificateFailed(
            "sorted rotations of %r do not end in 1...10...0" % a)
    return [EpSequence("", r) for r in rots]


def verify_empty_at_left_endpoint(a):
    """At beta = gamma_L and t = 1 - 1/beta the survivor set is empty.

    The hole's lower bound is then a_m...a_1 0^infinity, a_m...a_1 the
    Lyndon rotation of a, so candidates are exactly the (finite) Z-set.
    Every member has the shift (a)^infinity, which the strict upper bound
    of the survivor subshift excludes, so membership rejects each one.
    """
    shift = LexSubshift(EpSequence(a[::-1], "0"), EpSequence("", a))
    return not any(membership(x, shift) for x in z_set(a))


def t_n_family(a, n):
    """The approximant t_N = (0 a_2..a_m (a_1..a_m)^N a_1..a_j)^infinity,
    with j the Lyndon-rotation offset of a; checked symbolically to sit
    weakly below all of its shifts and strictly below (a)^infinity."""
    B.require_farey_generator(a)
    if n < 1:
        raise ValueError("N must be >= 1")
    _, j = W.lyndon_rotation(a)
    per = "0" + a[1:] + a * n + a[:j]
    t = EpSequence("", per)
    least, greatest = extreme_shifts(t)
    if lex_compare_ep(least, t) < 0:
        raise CertificateFailed(
            "t_N certificate failed: shift %s lies below t_N" % least)
    if lex_compare_ep(greatest, EpSequence("", a)) >= 0:
        raise CertificateFailed("t_N certificate failed: shift %s reaches "
                                "(%s)^inf" % (greatest, a))
    return t


def t_star_sequence(a):
    """0 a_2..a_m (a_1..a_m)^infinity."""
    return EpSequence("0" + a[1:], a)


def t_diamond_sequence(a):
    """0 a_2..a_m^+ 0^infinity."""
    return EpSequence("0" + W.plus(a)[1:], "0")


class TauReport(NamedTuple):
    beta: object
    regime: str
    tau_lower: float
    tau_upper: float
    witnesses: dict
    atlas_depth: int
    certified: bool
    note: str = ""


def _locate(beta, depth):
    """Place beta against the Farey intervals whose generators have length
    at most `depth`, by a walk down the Stern-Brocot tree of the generator
    slopes m/q, whose intervals are disjoint and rise with m/q.

    The generator a = reflect(c(q - m, q)) needs no check: its interval
    has alpha_L = (a)^inf and alpha_R = a+ (reversed a)^inf, since the
    reversal of a is its Lyndon rotation: by property (f2), the maximal
    rotation of the Farey word reflect(a) is its reversal.

    Returns ("left", a) if beta = gamma_L of the generator a, ("inside", a)
    if beta lies in (gamma_L, gamma_R] of a, else ("gap", w): w >= the gap
    around beta, from the gamma_R bracket of the last node below beta
    (else 1) to the gamma_L bracket of the last node above it (else 2).
    Once the next mediant is longer than `depth`, those two nodes are
    neighbours in the Farey sequence of order `depth`.
    """
    left = right = None
    lm, lq, rm, rq = 0, 1, 1, 1
    while lq + rq <= depth:
        m, q = lm + rm, lq + rq
        a = W.reflect(W.christoffel(q - m, q))
        alpha_L = EpSequence("", a)
        c = beta.compare(alpha_L)
        if c == 0:
            return "left", a
        if c < 0:
            right, rm, rq = alpha_L, m, q
            continue
        alpha_R = EpSequence(W.plus(a), a[::-1])
        if beta.compare(alpha_R) <= 0:
            return "inside", a
        left, lm, lq = alpha_R, m, q
    lo = N.beta_from_alpha(left).a if left else 1
    hi = N.beta_from_alpha(right).b if right else 2
    return "gap", hi - lo


def tau_report(beta, atlas_depth=10):
    """Locate beta among the Farey intervals with generators of length
    at most atlas_depth and report the best known bracket for the
    critical hole size tau_beta."""
    if atlas_depth < 2:
        raise ValueError("atlas_depth must be >= 2")
    # 1 - 1/beta rises with beta
    one_minus = N.Interval(1 - 1 / beta.value.a, 1 - 1 / beta.value.b)
    if beta.alpha_sequence() == S.ONES:
        return TauReport(beta, "outside_closure", 0.5, 0.5,
                         {"note": "doubling map"}, atlas_depth, True)
    where, found = _locate(beta, atlas_depth)
    if where == "left":
        a = found
        return TauReport(
            beta, "left_endpoint",
            float_down(one_minus.a), float_up(one_minus.b),
            {"generator": a, "hole_expansion": a[::-1] + "(0)"},
            atlas_depth, True)
    if where == "inside":
        a = found
        ts = t_star_sequence(a)
        td = t_diamond_sequence(a)
        tsv = N.project(ts, beta.value)
        tdv = N.project(td, beta.value)
        wit = {"generator": a, "t_star": str(ts), "t_diamond": str(td)}
        # refinement: alpha(beta) below a+ (0 a_2..a_m) (a)^inf pins tau = t*
        bound = EpSequence(W.plus(a) + "0" + a[1:], a)
        if beta.compare(bound) < 0:
            return TauReport(beta, "inside_farey_low",
                             float_down(tsv.a), float_up(tsv.b),
                             wit, atlas_depth, True)
        return TauReport(beta, "inside_farey_high",
                         float_down(tsv.a), float_up(tdv.b),
                         wit, atlas_depth, True)
    # outside every atlas interval at this depth: found >= the gap width
    return TauReport(beta, "outside_closure",
                     0.0, float_up(one_minus.b),
                     {"gap": float_up(found)}, atlas_depth, False,
                     "inconclusive: atlas gap exceeds tolerance")


def tau_json(report, digits=12):
    """JSON-ready report; the bracket is rounded outward at `digits`."""
    return {
        "beta": str(report.beta),
        "regime": report.regime,
        "tau_lower": fixed(report.tau_lower, digits, False),
        "tau_upper": fixed(report.tau_upper, digits, True),
        "witness_words": {k: str(v) for k, v in report.witnesses.items()},
        "atlas_depth": report.atlas_depth,
        "certified": report.certified,
        "note": report.note,
    }
