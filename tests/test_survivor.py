"""Subshift compilation, counting, entropy and dimension brackets."""

import math
import random
from fractions import Fraction
from itertools import product

import mpmath
import pytest
from mpmath import iv
from mpmath.libmp import to_rational

from betahole.errors import CertificateFailed, StateCapExceeded
from betahole.sequences import EpSequence, is_in_Q, lex_compare_ep
from betahole.survivor import (LexSubshift, PointSpec, compile, count_words,
                               dimension, entropy, membership)
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
        for n in range(1, 13):
            assert count_words(sh, n) == count_words_brute(sh, n), sh


def reachable(trans):
    """For each state of a transition list, the set of states it reaches
    in one or more steps, by brute force."""
    reach = []
    for s in range(len(trans)):
        seen, todo = set(), [t for t in trans[s] if t is not None]
        while todo:
            t = todo.pop()
            if t not in seen:
                seen.add(t)
                todo += [u for u in trans[t] if u is not None]
        reach.append(seen)
    return reach


def test_recurrence_matches_reachability_oracle():
    """recurrence against a brute-force reachability oracle on 600 seeded
    random shifts: the cyclic components are the classes of mutually
    reachable cycle states, and there is one exactly when state 0 is
    live (is or reaches a state on a cycle), which is when entropy does
    not call the subshift empty."""
    rng = random.Random(11)
    for _ in range(600):
        sh = random_subshift(rng)
        trans = compile(sh)
        reach = reachable(trans)
        on_cycle = {s for s in range(len(trans)) if s in reach[s]}
        start_live = 0 in on_cycle or bool(reach[0] & on_cycle)
        cycles = S.recurrence(trans)
        assert bool(cycles) == start_live, sh
        assert entropy(sh).empty != start_live, sh
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


def test_dimension_at_holes_outside_the_unit_interval():
    """A hole below 0 cuts nothing: its orbit stays below 0, with the ends
    of its bracket swapped at a symbolic base, and takes digit 0 at every
    step.  A hole at or beyond 1 cuts everything."""
    for bs in ["@(110)", "1.5"]:
        beta = BetaSpec.parse(bs)
        rep = dimension(beta, PointSpec(value=-0.2))
        assert not rep.empty and rep.dim_upper == 1.0, bs
        assert rep.dim_lower > 1 - 1e-9, bs
        for t in (1, 1.3):
            assert dimension(beta, PointSpec(value=t)).empty, (bs, t)


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
    calls, log2 = [], N._log2

    def counted(a, b):
        calls.append((a, b))
        return log2(a, b)

    monkeypatch.setattr(N, "_log2", counted)
    beta = BetaSpec.parse("1.457")
    for k in range(64):
        dimension(beta, PointSpec(value=Fraction(3 * k, 630)))
    # entropy calls _log2 too, on spectral radii: count beta's ends only
    assert calls.count((beta.value.a, beta.value.b)) == 1


def test_perron_certificate_encloses_mpmath_eigenvalue(monkeypatch):
    """The exact Collatz-Wielandt bracket of every cyclic component with at
    most 40 states, from 8-sample staircase sweeps, holds the spectral
    radius that mpmath.eig finds at 50 digits and is < 1e-9 wide."""
    tables, build = [], S.compile

    def recorded(shift):
        tables.append(build(shift))
        return tables[-1]

    monkeypatch.setattr(S, "compile", recorded)
    for text in ("1.15", "1.4", "1.8"):
        beta = BetaSpec.parse(text)
        t_max = 1 - 1 / beta.value.a
        for i in range(8):
            dimension(beta, PointSpec(value=t_max * Fraction(i, 7)))
    seen = set()
    for trans in tables:
        for comp in S.recurrence(trans):
            rows = tuple(tuple(trans[s].count(t) for t in comp)
                         for s in comp)
            if not 2 <= len(comp) <= 40 or rows in seen:
                continue
            seen.add(rows)
            lo, hi = S._scc_spectral_radius(trans, comp)
            assert hi - lo < Fraction(1, 10 ** 9), len(comp)
            with mpmath.workdps(50):
                rho = max(abs(e) for e in mpmath.eig(
                    mpmath.matrix(rows), left=False, right=False))
                rho = Fraction(*to_rational(rho._mpf_))
            slack = Fraction(1, 10 ** 40)   # the oracle's own rounding
            assert lo - slack <= rho <= hi + slack, len(comp)
    assert len(seen) >= 10


def test_perron_certificate_of_bare_cycle_is_exactly_one():
    trans = compile(LexSubshift(E("(01)"), E("(10)")))
    comps = [c for c in S.recurrence(trans) if len(c) > 1]
    assert comps
    for comp in comps:
        assert S._scc_spectral_radius(trans, comp) == (1, 1)


def test_perron_certificate_rejects_a_decaying_entry():
    # not strongly connected: state 1's entry decays like (2/3)^n until it
    # underflows to 0, which must fail the certificate before a ratio
    # divides by it
    with pytest.raises(CertificateFailed,
                       match="^Perron vector has a non-positive entry$"):
        S._scc_spectral_radius([(0, 0), (1, None)], [0, 1])


def test_compile_stops_at_the_state_cap(monkeypatch):
    monkeypatch.setattr(S, "STATE_CAP", 3)
    with pytest.raises(StateCapExceeded,
                       match="^automaton exceeded 3 states$"):
        compile(LexSubshift(E("(0)"), E("(110100)")))


def test_dimension_rejects_a_lower_bound_above_the_upper(monkeypatch):
    monkeypatch.setattr(S, "entropy",
                        lambda shift: S.EntropyBracket(0.5, 0.25))
    with pytest.raises(CertificateFailed,
                       match="^dimension bracket certificate failed: "
                             "lower .* above upper "):
        dimension(BetaSpec.parse("@(10)"), PointSpec(seq=E("(001)")))


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
            b = L.prefix(i + 1)[i]
            if d < b:
                return None
            if d == b:
                new_lo.add(adv(i, L))
        new_up = set()
        for i in set(up) | {0}:
            b = U.prefix(i + 1)[i]
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
    """Tarjan's pass from state 0 over dicts and sets: the components
    that hold a cycle."""
    succ = [[t for t in row if t is not None] for row in trans]
    index, low = {0: 0}, {0: 0}
    stack, on_stack, work = [0], {0}, [(0, iter(succ[0]))]
    cycles = []
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
    return cycles


def test_bitmask_automaton_matches_frozenset_reference(monkeypatch):
    """The bit-parallel kernel builds the same transitions, in the same
    state numbering, as the frozenset construction, and recurrence
    finds the same components in the same order:
    on 800 seeded random shifts, and on every shift that 32-sample
    dimension sweeps compile."""
    rng = random.Random(1992)
    shifts = [random_subshift(rng) for _ in range(800)]
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
        trans = reference_automaton(sh)
        assert build(sh) == trans, sh
        assert S.recurrence(trans) == reference_recurrence(trans), sh
