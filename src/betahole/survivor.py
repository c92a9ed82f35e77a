"""Survivor-set subshifts: compilation, word counting, entropy, dimension.

A LexSubshift is the set of one-sided 0/1 sequences x with

    lower <= sigma^n(x) < upper      for all n >= 0,

which `membership` decides.  `compile` builds the DFA of its closure, both
bounds inclusive, as a transition list, one (digit 0, digit 1) successor
pair per state with None where the digit dies and state 0 the start.  A
state holds, for each bound, the prefix lengths on which the word read so
far ends, as the bits of an int.
"""

from fractions import Fraction
from typing import NamedTuple

from .errors import CertificateFailed, StateCapExceeded
from .sequences import EpSequence, extreme_shifts, lex_compare_ep
from . import numeric as N
from .numeric import Interval, float_down, float_up

#: most automaton states compile() builds before raising StateCapExceeded
STATE_CAP = 10 ** 6
#: power iteration on one component stops when the Perron bracket is
#: narrower than PERRON_TOL, or after PERRON_MAX_STEPS steps
PERRON_TOL, PERRON_MAX_STEPS = 1e-9, 20000


class LexSubshift(NamedTuple):
    lower: EpSequence
    upper: EpSequence


def compile(shift):
    """The DFA over {0,1} whose length-n path count from state 0 equals
    the number of words passing every suffix-window check against the two
    bounds, both inclusive (the closure of the subshift), as its
    transition list: entry s is the pair (state after digit 0, state
    after digit 1), None where that digit dies.

    A state is a pair of ints (lo, up): bit i is set when the word read
    so far ends on the first i digits of that bound, with positions
    folded into the bound's first `window` digits (shift-and; Baeza-Yates
    and Gonnet 1992).  A step adds the empty match, cur = s | 1.  Digit 0
    dies iff some match of lower continues with a 1, digit 1 dies iff
    some match of upper continues with a 0.  The matches that continue
    with digit d shift left by one, and bit `window` folds to bit
    len(pre).  States are numbered in breadth-first order from (0, 0).
    """

    def masks(seq):
        # zeros and ones of the first window digits, all window bits,
        # and the bit that position window folds to
        full = (1 << seq.window) - 1
        ones = int(seq.prefix(seq.window)[::-1], 2)
        return ones ^ full, ones, full, 1 << len(seq.pre)

    z_lo, o_lo, full_lo, fold_lo = masks(shift.lower)
    z_up, o_up, full_up, fold_up = masks(shift.upper)
    index = {(0, 0): 0}
    order = [(0, 0)]

    def visit(lo, up):
        # number of the state reached by the continuing matches lo, up
        lo <<= 1
        if lo > full_lo:
            lo = lo & full_lo | fold_lo
        up <<= 1
        if up > full_up:
            up = up & full_up | fold_up
        if (lo, up) not in index:
            if len(order) >= STATE_CAP:
                raise StateCapExceeded(
                    "automaton exceeded %d states" % STATE_CAP)
            index[lo, up] = len(order)
            order.append((lo, up))
        return index[lo, up]

    trans = []
    for lo, up in order:
        lo |= 1
        up |= 1
        trans.append((None if lo & o_lo else visit(lo & z_lo, up & z_up),
                      None if up & z_up else visit(lo & o_lo, up & o_up)))
    return trans


def recurrence(trans):
    """The strongly connected components of a transition list that hold
    a cycle: two or more states, or one state with a self-loop.

    One iterative pass of Tarjan's algorithm from the start state 0,
    which reaches every state.
    """
    # index 0 marks a state not yet visited
    index, low = [0] * len(trans), [0] * len(trans)
    on_stack = bytearray(len(trans))
    index[0] = low[0] = count = 1
    on_stack[0] = 1
    stack, work, cycles = [0], [(0, iter(trans[0]))], []
    while work:
        v, it = work[-1]
        for w in it:
            if w is None:
                continue
            if not index[w]:
                count += 1
                index[w] = low[w] = count
                stack.append(w)
                on_stack[w] = 1
                work.append((w, iter(trans[w])))
                break
            if on_stack[w]:
                low[v] = min(low[v], index[w])
        else:
            # every successor of v is explored: v is finished
            work.pop()
            if work:
                u = work[-1][0]
                low[u] = min(low[u], low[v])
            if low[v] == index[v]:
                comp = [stack.pop()]
                while comp[-1] != v:
                    comp.append(stack.pop())
                for s in comp:
                    on_stack[s] = 0
                if len(comp) > 1 or v in trans[v]:
                    cycles.append(comp)
    return cycles


def count_words(shift, n):
    """Number of length-n words occurring in the subshift (window semantics):
    the length-n paths from state 0 of its automaton."""
    trans = compile(shift)
    v = [0] * len(trans)
    v[0] = 1
    for _ in range(n):
        w = [0] * len(v)
        for c, row in zip(v, trans):
            if c:
                for nxt in row:
                    if nxt is not None:
                        w[nxt] += c
        v = w
    return sum(v)


class EntropyBracket(NamedTuple):
    lower_bound: float
    upper_bound: float
    empty: bool = False


def _scc_spectral_radius(trans, comp):
    """Exact bracket for the largest eigenvalue of the adjacency matrix
    restricted to one recurrent strongly connected component: two or more
    states, or one state with one or two self-loops.

    Sparse power iteration on B = A + I, which is primitive on a strongly
    connected graph.  Each state keeps its (at most two) successors in the
    component, padded with a sentinel slot that always holds 0.0, so a
    step is y_i = x_i + x[a_i] + x[b_i].  Every 50th step is a checkpoint:
    the Collatz-Wielandt min and max of (Bx)_i / x_i bracket the Perron
    root of B for any positive x, and x is renormalised and checked
    positive before the next ratios divide by it.  The 49 steps in
    between grow entries by at most 3^49, far from overflow.  The last x
    is certified exactly, as integers over one power of two, with the
    extreme ratios picked by integer cross-multiplication: no pad.  On a
    bare cycle (one successor per state) every ratio is 2 from the first
    step, so the first checkpoint stops the loop and certifies exactly 1.
    """
    idx = {s: i for i, s in enumerate(comp)}
    k = len(comp)
    succ_a, succ_b = [], []
    for s in comp:
        succ = [idx[t] for t in trans[s] if t in idx] + [k, k]
        succ_a.append(succ[0])
        succ_b.append(succ[1])
    x = [1.0] * k + [0.0]
    best_lo, best_hi = 0.0, float("inf")
    done = 0
    while done < PERRON_MAX_STEPS:
        for _ in range(49):
            x = [xi + x[a] + x[b] for xi, a, b in zip(x, succ_a, succ_b)]
            x.append(0.0)
        y = [xi + x[a] + x[b] for xi, a, b in zip(x, succ_a, succ_b)]
        ratios = [yi / xi for yi, xi in zip(y, x)]
        best_lo = max(best_lo, min(ratios))
        best_hi = min(best_hi, max(ratios))
        top = max(y)
        x = [yi / top for yi in y]
        if min(x) <= 0:
            raise CertificateFailed("Perron vector has a non-positive entry")
        x.append(0.0)
        done += 50
        if best_hi - best_lo < PERRON_TOL:
            break
    parts = [xi.as_integer_ratio() for xi in x[:k]]
    den = max(d for _, d in parts)
    X = [n * (den // d) for n, d in parts] + [0]
    Y = [xi + X[a] + X[b] for xi, a, b in zip(X, succ_a, succ_b)]
    lo = hi = 0
    for i in range(1, k):
        if Y[i] * X[lo] < Y[lo] * X[i]:
            lo = i
        elif Y[i] * X[hi] > Y[hi] * X[i]:
            hi = i
    # the out-degree is at most 2, so is the spectral radius
    return Fraction(Y[lo], X[lo]) - 1, min(Fraction(Y[hi], X[hi]) - 1, 2)


def entropy(shift):
    """Topological entropy bracket in bits: log2 of the exact
    spectral-radius bracket of the recurrent part of the compiled
    automaton, by one series for each end, rounded outward.  State 0
    reaches every state, so with no cyclic component the subshift is
    empty and the bracket stays at log2 1 = 0.
    """
    trans = compile(shift)
    cycles = recurrence(trans)
    lam_lo = lam_hi = 1
    for comp in cycles:
        lo, hi = _scc_spectral_radius(trans, comp)
        lam_lo = max(lam_lo, lo)
        lam_hi = max(lam_hi, hi)
    h_lo, h_hi = N._log2(lam_lo, lam_hi)
    return EntropyBracket(float_down(h_lo), float_up(h_hi), not cycles)


def membership(x, shift):
    """Exact symbolic test that x lies in the subshift: every shift of x
    is at or above its lower bound and below its upper bound."""
    least, greatest = extreme_shifts(x)
    return lex_compare_ep(least, shift.lower) >= 0 and \
        lex_compare_ep(greatest, shift.upper) < 0


class PointSpec(NamedTuple):
    """A hole endpoint t in [0,1): a number (int, float, str or Fraction),
    or its exact greedy expansion, an EpSequence, when seq is given."""
    value: object = None
    seq: EpSequence = None


def greedy_sequence(x, beta, horizon=N.DEFAULT_HORIZON):
    """Greedy expansion with exact-orbit period detection.

    Returns (seq, prefix): seq is an EpSequence when the orbit is a point
    that returns exactly to an earlier point (e.g. hits 0), else None;
    prefix is the certified digit prefix either way.
    """
    digits, _, seq = N._expand(x, beta, horizon, "1")
    return seq, digits


def _bracket(seq, prefix):
    """(low, high): (seq, seq) if seq is known, else prefix 0^inf, 1^inf."""
    if seq is not None:
        return seq, seq
    return EpSequence(prefix, "0"), EpSequence(prefix, "1")


def alpha_bounds(beta, horizon=N.DEFAULT_HORIZON):
    """(low, high) bracket of alpha(beta), by _bracket, for a BetaSpec,
    which keeps the digits of its expansion of 1."""
    return _bracket(beta.alpha_sequence(), beta.alpha_prefix(horizon))


class DimensionReport(NamedTuple):
    h_lower: float
    h_upper: float
    dim_lower: float
    dim_upper: float
    method: str
    empty: bool = False


def dimension(beta, t, horizon=N.DEFAULT_HORIZON):
    """Entropy and Hausdorff-dimension brackets for the survivor set
    with hole (0, t), t a PointSpec, via Bowen's formula
    dim = h / log2(beta).

    The hole's (low, high) bracket comes from t.seq or greedy_sequence,
    alpha's from alpha_bounds.  The subshift lies between an outer
    automaton (low hole, high alpha) and an inner one (high hole, low
    alpha), one and the same when both brackets are exact.
    """
    a_lo, a_hi = alpha_bounds(beta, horizon)
    t_lo, t_hi = (t.seq, t.seq) if t.seq is not None else _bracket(
        *greedy_sequence(Interval(t.value), beta.value, horizon))
    exact = (t_lo, a_lo) == (t_hi, a_hi)
    outer = entropy(LexSubshift(t_lo, a_hi))
    inner = outer if exact else entropy(LexSubshift(t_hi, a_lo))
    h_lo, h_hi = inner.lower_bound, outer.upper_bound
    method = "automaton_exact" if exact else "automaton_outer_inner"
    lb = beta.log2()
    dim_lo = min(max(float_down(Fraction(h_lo) / lb.b), 0.0), 1.0)
    dim_hi = min(max(float_up(Fraction(h_hi) / lb.a), 0.0), 1.0)
    if dim_hi < dim_lo:
        raise CertificateFailed(
            "dimension bracket certificate failed: lower %r above upper %r"
            % (dim_lo, dim_hi))
    return DimensionReport(h_lo, h_hi, dim_lo, dim_hi, method, outer.empty)
