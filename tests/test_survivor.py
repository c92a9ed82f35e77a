"""Subshift compilation, counting, entropy and dimension brackets."""

import math
import random
from fractions import Fraction
from itertools import product

import mpmath
import pytest
from mpmath import iv
from mpmath.libmp import to_rational

from betahole.sequences import EpSequence, is_in_Q, lex_compare_ep
from betahole.survivor import (LexSubshift, PointSpec, compile, count_words,
                               dimension, entropy, membership, reduce_upper)
from betahole.numeric import BetaSpec, beta_from_alpha
from betahole import numeric as N
from betahole import survivor as S

E = EpSequence.parse

FULL = LexSubshift(E("(0)"), E("(1)"))
GOLDEN_MEAN = LexSubshift(E("(0)"), E("(10)"))


def count_words_brute(shift, n):
    """Direct sweep over all 2^n words with suffix-window prefix checks:
    the reference for the automaton's path counts."""
    L, U = shift.lower, shift.upper
    lo_pref = [L.prefix(m) for m in range(n + 1)]
    up_pref = [U.prefix(m) for m in range(n + 1)]
    count = 0
    for bits in product("01", repeat=n):
        w = "".join(bits)
        ok = True
        for k in range(n):
            suf = w[k:]
            m = n - k
            if suf < lo_pref[m] or suf > up_pref[m]:
                ok = False
                break
        if ok:
            count += 1
    return count


def test_full_shift():
    assert count_words(FULL, 5) == 32
    br = entropy(FULL)
    assert br.lower_bound <= 1 <= br.upper_bound
    assert br.upper_bound - br.lower_bound < 1e-9


def test_golden_mean_shift_counts_are_fibonacci():
    fib = [2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233, 377]
    for n, f in enumerate(fib, start=1):
        assert count_words(GOLDEN_MEAN, n) == f
        assert count_words_brute(GOLDEN_MEAN, n) == f


def test_golden_mean_entropy():
    br = entropy(GOLDEN_MEAN)
    h = math.log2((1 + math.sqrt(5)) / 2)
    assert br.lower_bound <= h <= br.upper_bound
    assert br.upper_bound - br.lower_bound < 1e-9
    assert br.method == "automaton_exact"


def test_beta_shift_entropy_is_log_beta():
    """Parry: the beta-shift {x : every shift of x < alpha(beta)} has
    entropy log2(beta).  Checked for every periodic alpha in Q with period
    at most 10, against beta solved from alpha as a certified interval."""
    alphas = {EpSequence("", "".join(w))
              for p in range(1, 11) for w in product("01", repeat=p)}
    alphas = sorted((a for a in alphas if is_in_Q(a)), key=str)
    assert len(alphas) > 100
    old = iv.prec
    iv.prec = 128
    try:
        for a in alphas:
            # mpmath is the independent oracle: the ends of the bracket are
            # dyadic with at most 101 bits, so they convert exactly
            b = beta_from_alpha(a)
            b = iv.mpf([iv.mpf(x.numerator) / x.denominator
                        for x in (b.a, b.b)])
            log_beta = iv.log(b) / iv.log(2)
            br = entropy(LexSubshift(E("(0)"), a))
            assert br.lower_bound <= log_beta.b, a
            assert log_beta.a <= br.upper_bound, a
            assert br.upper_bound - br.lower_bound < 1e-8, a
    finally:
        iv.prec = old


def test_dimension_quotient_is_rounded_outward():
    """dim_lower <= h_lower / log2(beta) <= ... <= h_upper / log2(beta) <=
    dim_upper, checked exactly with Fractions against an independent
    200-bit mpmath bracket of log2(beta) (clamping to [0, 1] aside)."""
    old = iv.prec
    iv.prec = 200
    try:
        for text in ("1.15", "1.4", "1.7", "1.95", "@(10)", "@(110)"):
            beta = BetaSpec.parse(text)
            b = beta.value
            ends = [iv.mpf(x.numerator) / x.denominator for x in (b.a, b.b)]
            log2b = iv.log(iv.mpf([ends[0].a, ends[1].b])) / iv.log(2)
            lo, hi = (Fraction(*to_rational(e)) for e in log2b._mpi_)
            for i in range(24):
                r = dimension(beta, PointSpec(value=0.4 * i / 23))
                assert r.dim_lower == 0 or \
                    Fraction(r.dim_lower) * hi <= Fraction(r.h_lower), (text, i)
                assert r.dim_upper == 1 or \
                    Fraction(r.dim_upper) * lo >= Fraction(r.h_upper), (text, i)
    finally:
        iv.prec = old


def test_two_cycle_shift_has_entropy_zero():
    sh = LexSubshift(E("(01)"), E("(10)"))
    br = entropy(sh)
    assert br.upper_bound == 0.0
    assert not br.empty


def test_empty_shift():
    sh = LexSubshift(E("(10)"), E("(01)"))
    assert count_words(sh, 4) == 0
    br = entropy(sh)
    assert br.empty and br.upper_bound == 0.0


def random_subshift(rng):
    def seq():
        pre = "".join(rng.choice("01") for _ in range(rng.randint(0, 4)))
        per = "".join(rng.choice("01") for _ in range(rng.randint(1, 6)))
        return EpSequence(pre, per)
    lo, up = seq(), seq()
    if lex_compare_ep(lo, up) > 0:
        lo, up = up, lo
    return LexSubshift(lo, up)


def test_automaton_matches_brute_force():
    """Oracle equivalence on 20 seeded random constraint pairs, n <= 12."""
    rng = random.Random(20130517)
    for _ in range(20):
        sh = random_subshift(rng)
        auto = compile(sh)
        # the state count that bench/tracing.py reads through len()
        assert len(auto) == len(auto.transitions) > 0, sh
        for n in range(1, 13):
            assert auto.count_paths(n) == count_words_brute(sh, n), sh


def test_recurrence_matches_reachability_oracle():
    """live and cycles against a brute-force reachability oracle on 600
    seeded random shifts: a state is live iff it reaches a state on a
    cycle, and the cyclic components are the classes of mutually
    reachable cycle states."""
    rng = random.Random(11)
    for _ in range(600):
        auto = compile(random_subshift(rng))
        trans = auto.transitions
        reach = []   # states reachable in one or more steps
        for s in range(len(trans)):
            seen, todo = set(), [t for t in trans[s] if t is not None]
            while todo:
                t = todo.pop()
                if t not in seen:
                    seen.add(t)
                    todo += [u for u in trans[t] if u is not None]
            reach.append(seen)
        on_cycle = {s for s in range(len(trans)) if s in reach[s]}
        live, cycles = auto.recurrence()
        assert live == {s for s in range(len(trans))
                        if s in on_cycle or reach[s] & on_cycle}
        comps = [frozenset(c) for c in cycles]
        assert len(set(comps)) == len(comps)
        assert set(comps) == {frozenset(t for t in reach[s] if s in reach[t])
                              for s in on_cycle}


def test_counts_are_submultiplicative():
    rng = random.Random(7)
    shifts = [GOLDEN_MEAN] + [random_subshift(rng) for _ in range(5)]
    for sh in shifts:
        c = {n: count_words(sh, n) for n in range(1, 13)}
        for m in range(1, 7):
            for n in range(1, 13 - m):
                assert c[m + n] <= max(c[m] * c[n], 0)


def test_counting_upper_bounds_nest():
    c = [count_words(GOLDEN_MEAN, n) for n in range(1, 13)]
    bounds = [math.log2(c[n - 1]) / n for n in range(1, 13)]
    running = [min(bounds[:k + 1]) for k in range(len(bounds))]
    assert running == sorted(running, reverse=True)


def test_reduce_upper_fires_and_preserves_counts():
    # upper (10)^inf with lower (01)^inf: sigma(alpha) = (01)^inf <= lower,
    # so the strict bound collapses to the non-strict cycle (10^-) = (10)...
    fired = 0
    rng = random.Random(99)
    candidates = [LexSubshift(E("(01)"), E("(10)")),
                  LexSubshift(E("01(10)"), E("(10)")),
                  LexSubshift(E("(100)"), E("(101)")),
                  LexSubshift(E("(0011)"), E("(1100)"))]
    # the reduction is justified when the upper bound is an expansion of 1
    from betahole.sequences import is_in_Q
    candidates += [sh for sh in (random_subshift(rng) for _ in range(60))
                   if is_in_Q(sh.upper)]
    for sh in candidates:
        red = reduce_upper(sh)
        if red is sh:
            continue
        fired += 1
        assert not red.strict_upper
        for n in range(1, 11):
            assert count_words_brute(sh, n) >= 0  # both sides defined
        # the reduction claims equal survivor sets; spot-check membership
        # of all short periodic sequences
        for per in ["0", "1", "01", "10", "001", "011", "010", "110"]:
            x = EpSequence("", per)
            assert membership(x, sh) == membership(x, red), (sh, per)
    assert fired >= 2


def test_reduce_upper_leaves_full_shift_alone():
    assert reduce_upper(FULL) is FULL
    # beta=2 with lower (10)^inf: m=1 needs sigma(1^inf) <= (10)^inf, false
    sh = LexSubshift(E("(10)"), E("(1)"))
    assert reduce_upper(sh) is sh


def test_membership():
    assert membership(E("(0)"), GOLDEN_MEAN)
    assert membership(E("10(0)"), GOLDEN_MEAN)
    # (01)^inf is excluded: its shift hits the strict bound (10)^inf
    assert not membership(E("(01)"), GOLDEN_MEAN)
    assert not membership(E("(011)"), GOLDEN_MEAN)   # contains 11
    assert not membership(E("(10)"), GOLDEN_MEAN)    # hits the strict bound
    assert not membership(E("(0)"), LexSubshift(E("(01)"), E("(10)")))


def test_greedy_sequence_finds_exact_periods():
    # a rational orbit that returns to an earlier point ends the
    # expansion; an irrational-looking one runs to the horizon
    cases = [("1/10", "2", E("0(0011)")), ("1/3", "2", E("(01)")),
             ("0.625", "1.6", E("1(0)")), ("0.3", "1.7", None)]
    for x, beta, seq in cases:
        got, digits = S.greedy_sequence(N.Interval(x), N.Interval(beta))
        assert got == seq, (x, beta)
        if seq is None:
            assert len(digits) == N.DEFAULT_HORIZON, (x, beta)
        else:
            assert digits == seq.prefix(len(digits)), (x, beta)


def test_dimension_at_zero_is_one():
    for bs in ["@(10)", "@(110)", "2"]:
        rep = dimension(BetaSpec.parse(bs), PointSpec(value=0.0))
        assert rep.dim_lower > 1 - 1e-6
        assert rep.dim_upper <= 1


def test_dimension_doubling_map_values():
    rep = dimension(BetaSpec.parse("2"), PointSpec(value=0.5))
    assert rep.dim_upper < 1e-9
    rep = dimension(BetaSpec.parse("2"), PointSpec(value=0.25))
    h = math.log2((1 + math.sqrt(5)) / 2)
    assert abs(rep.dim_lower - h) < 1e-9
    assert abs(rep.dim_upper - h) < 1e-9


def test_dimension_monotone_in_t():
    for bs in ["@(10)", "@(110)"]:
        beta = BetaSpec.parse(bs)
        prev = None
        for i in range(16):
            t = 0.4 * i / 15
            rep = dimension(beta, PointSpec(value=t))
            width = rep.dim_upper - rep.dim_lower
            if prev is not None:
                assert rep.dim_upper <= prev + 2 * width + 1e-9
            prev = rep.dim_upper


def test_dimension_expands_alpha_once_per_base(monkeypatch):
    calls, expand = [], N.alpha_of_beta

    def counted(beta, n=N.DEFAULT_HORIZON):
        calls.append(n)
        return expand(beta, n)

    monkeypatch.setattr(N, "alpha_of_beta", counted)
    beta = BetaSpec.parse("1.457")
    for k in range(16):
        dimension(beta, PointSpec(value=Fraction(k, 50)))
    assert calls == [N.DEFAULT_HORIZON]


def test_dimension_evaluates_log2_beta_once_per_base(monkeypatch):
    calls, log2 = [], N.Interval.log2

    def counted(self):
        calls.append(self)
        return log2(self)

    monkeypatch.setattr(N.Interval, "log2", counted)
    beta = BetaSpec.parse("1.457")
    for k in range(64):
        dimension(beta, PointSpec(value=Fraction(3 * k, 630)))
    assert len(calls) == 1


def test_perron_certificate_encloses_mpmath_eigenvalue(monkeypatch):
    """The exact Collatz-Wielandt bracket of every cyclic component with at
    most 40 states, from 8-sample staircase sweeps, holds the spectral
    radius that mpmath.eig finds at 50 digits and is < 1e-9 wide."""
    autos, build = [], S.compile

    def recorded(shift):
        autos.append(build(shift))
        return autos[-1]

    monkeypatch.setattr(S, "compile", recorded)
    for text in ("1.15", "1.4", "1.8"):
        beta = BetaSpec.parse(text)
        t_max = 1 - 1 / beta.value.a
        for i in range(8):
            dimension(beta, PointSpec(value=t_max * Fraction(i, 7)))
    seen = set()
    for auto in autos:
        for comp in auto.recurrence()[1]:
            rows = tuple(tuple(auto.transitions[s].count(t) for t in comp)
                         for s in comp)
            if not 2 <= len(comp) <= 40 or rows in seen:
                continue
            seen.add(rows)
            lo, hi = S._scc_spectral_radius(auto, comp)
            assert hi - lo < Fraction(1, 10 ** 9), len(comp)
            with mpmath.workdps(50):
                rho = max(abs(e) for e in mpmath.eig(
                    mpmath.matrix(rows), left=False, right=False))
                rho = Fraction(*to_rational(rho._mpf_))
            slack = Fraction(1, 10 ** 40)   # the oracle's own rounding
            assert lo - slack <= rho <= hi + slack, len(comp)
    assert len(seen) >= 10


def test_perron_certificate_of_bare_cycle_is_exactly_one():
    auto = compile(LexSubshift(E("(01)"), E("(10)")))
    comps = [c for c in auto.recurrence()[1] if len(c) > 1]
    assert comps
    for comp in comps:
        assert S._scc_spectral_radius(auto, comp) == (1, 1)


def reference_automaton(shift):
    """The automaton built with frozensets of match positions: a state
    holds, for each bound, every position i < window at which the word
    read so far sits on the bound's first i digits, folded back to
    len(pre) at window.  Returns the transitions in breadth-first order."""
    L, U = shift.lower, shift.upper

    def adv(pos, seq):
        pos += 1
        return len(seq.pre) if pos == seq.window else pos

    def step(state, d):
        lo, up = state
        new_lo = set()
        for i in set(lo) | {0}:
            b = L.digit(i)
            if d < b:
                return None
            if d == b:
                new_lo.add(adv(i, L))
        new_up = set()
        for i in set(up) | {0}:
            b = U.digit(i)
            if d > b:
                return None
            if d == b:
                new_up.add(adv(i, U))
        return frozenset(new_lo), frozenset(new_up)

    start = (frozenset(), frozenset())
    index, order, trans = {start: 0}, [start], []
    for st in order:
        row = [None, None]
        for d in "01":
            nxt = step(st, d)
            if nxt is not None:
                if nxt not in index:
                    index[nxt] = len(index)
                    order.append(nxt)
                row[int(d)] = index[nxt]
        trans.append(tuple(row))
    return trans


def reference_recurrence(trans):
    """Tarjan's pass from state 0 over dicts and sets: (live, cycles)."""
    succ = [[t for t in row if t is not None] for row in trans]
    index, low = {0: 0}, {0: 0}
    stack, on_stack, work = [0], {0}, [(0, iter(succ[0]))]
    live, cycles = set(), []
    while work:
        v, it = work[-1]
        for w in it:
            if w not in index:
                index[w] = low[w] = len(index)
                stack.append(w)
                on_stack.add(w)
                work.append((w, iter(succ[w])))
                break
            if w in on_stack:
                low[v] = min(low[v], index[w])
        else:
            work.pop()
            if work:
                u = work[-1][0]
                low[u] = min(low[u], low[v])
            if low[v] == index[v]:
                comp = [stack.pop()]
                while comp[-1] != v:
                    comp.append(stack.pop())
                on_stack.difference_update(comp)
                if len(comp) > 1 or v in succ[v]:
                    cycles.append(comp)
                    live.update(comp)
                elif any(t in live for t in succ[v]):
                    live.add(v)
    return live, cycles


def test_bitmask_automaton_matches_frozenset_reference(monkeypatch):
    """The bit-parallel kernel builds the same transitions, in the same
    state numbering, as the frozenset construction, and recurrence()
    finds the same live states and the same components in the same order:
    on seeded random shifts with every pair of strictness flags, and on
    every shift that 32-sample dimension sweeps compile."""
    rng = random.Random(1992)
    shifts = []
    for k in range(800):
        sh = random_subshift(rng)
        shifts.append(LexSubshift(sh.lower, sh.upper, k % 2 == 1, k % 4 > 1))
    build = S.compile
    monkeypatch.setattr(S, "compile",
                        lambda shift: shifts.append(shift) or build(shift))
    for text in ("1.15", "1.457", "1.857", "@(110)"):
        beta = BetaSpec.parse(text)
        t_max = 1 - 1 / beta.value.a
        for i in range(32):
            dimension(beta, PointSpec(value=t_max * Fraction(i, 31)))
    assert len(shifts) > 900
    for sh in shifts:
        auto = build(sh)
        trans = reference_automaton(sh)
        assert auto.transitions == trans, sh
        assert auto.recurrence() == reference_recurrence(trans), sh
