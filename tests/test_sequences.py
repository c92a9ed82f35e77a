"""Eventually periodic sequences: canonical form, order, admissibility."""

import random
from itertools import product
from math import gcd

import pytest
from hypothesis import given, strategies as st

from betahole.bifurcation import in_E_plus
from betahole.errors import NotInQ
from betahole.sequences import (EpSequence, extreme_shifts, lex_compare_ep,
                                is_in_Q, is_admissible, ONES)
from betahole.survivor import LexSubshift, membership
from betahole.words import christoffel, reflect

pre_st = st.text(alphabet="01", max_size=6)
per_st = st.text(alphabet="01", min_size=1, max_size=6)


def shifts(x):
    """All distinct shifted sequences sigma^n, n >= 0: the first `window`
    of them, which differ because the form is canonical."""
    return [x.shift(n) for n in range(x.window)]


def test_canonical_form():
    # primitive period
    assert EpSequence("", "1010").per == "10"
    # preperiod tail that repeats the period is absorbed
    assert EpSequence("110", "10") == EpSequence("1", "10")
    assert EpSequence("10", "10") == EpSequence("", "10")
    assert str(EpSequence("0110", "110")) == "(011)"


def test_parse_roundtrip():
    for text in ["(10)", "0(01)", "11(0)", "(110)"]:
        assert str(EpSequence.parse(text)) == text
    with pytest.raises(ValueError):
        EpSequence.parse("0110")


@given(pre_st, per_st)
def test_canonical_preserves_digits(pre, per):
    s = EpSequence(pre, per)
    raw = (pre + per * 30)[:20]
    assert s.prefix(20) == raw


@given(pre_st, per_st, st.integers(0, 10))
def test_shift_matches_digits(pre, per, n):
    s = EpSequence(pre, per)
    assert s.shift(n).prefix(12) == "".join(
        s.prefix(n + i + 1)[n + i] for i in range(12))


def test_lex_compare_ep():
    assert lex_compare_ep(EpSequence("", "01"), EpSequence("", "10")) == -1
    assert lex_compare_ep(EpSequence("0", "10"), EpSequence("", "01")) == 0
    assert lex_compare_ep(ONES, EpSequence("", "0")) == 1


@given(pre_st, per_st, pre_st, per_st)
def test_lex_compare_ep_matches_long_prefixes(p1, q1, p2, q2):
    u, v = EpSequence(p1, q1), EpSequence(p2, q2)
    c = lex_compare_ep(u, v)
    a, b = u.prefix(60), v.prefix(60)
    assert c == (a > b) - (a < b)


def lex_compare_lcm(u, v):
    """Oracle: compare over both preperiods plus two common periods of
    lcm(p, q) digits each, a window long enough without Fine and Wilf."""
    l = len(u.per) * len(v.per) // gcd(len(u.per), len(v.per))
    n = len(u.pre) + len(v.pre) + 2 * l
    a, b = u.prefix(n), v.prefix(n)
    return (a > b) - (a < b)


def test_lex_compare_ep_matches_lcm_window():
    rng = random.Random(1965)

    def word(lo, hi):
        return "".join(rng.choice("01") for _ in range(rng.randint(lo, hi)))

    for _ in range(3000):
        u = EpSequence(word(0, 8), word(1, 9))
        pick = rng.randrange(3)
        if pick == 0:    # a shared prefix, then any tail
            v = EpSequence(u.prefix(rng.randint(0, 30)), word(1, 9))
        elif pick == 1:  # a repeated period with one digit flipped
            per = u.per * rng.randint(1, 3)
            i = rng.randrange(len(per))
            v = EpSequence(u.pre, per[:i] + "10"[int(per[i])] + per[i + 1:])
        else:            # the same sequence, or one of its shifts
            v = u.shift(rng.choice([0, rng.randint(0, 12)]))
        assert lex_compare_ep(u, v) == lex_compare_lcm(u, v), (u, v)
        assert lex_compare_ep(v, u) == lex_compare_lcm(v, u), (u, v)


def test_lex_compare_ep_window_is_linear_in_the_periods(monkeypatch):
    # slopes 1001/2003 and 999/1999 differ by 2/(2003*1999): the two
    # sequences first differ at digit 2000, and the lcm window held
    # 8 million digits
    u = EpSequence("", reflect(christoffel(1001, 2003)))
    v = EpSequence("", reflect(christoffel(999, 1999)))
    expected = lex_compare_lcm(u, v)
    asked = []
    prefix = EpSequence.prefix
    monkeypatch.setattr(EpSequence, "prefix",
                        lambda self, n: asked.append(n) or prefix(self, n))
    assert lex_compare_ep(u, v) == expected != 0
    assert max(asked) <= 2003 + 1999


def test_is_in_Q():
    assert is_in_Q(EpSequence("", "1"))
    assert is_in_Q(EpSequence("", "10"))
    assert is_in_Q(EpSequence("", "110"))
    assert is_in_Q(EpSequence("1", "10"))     # 1(10) = 11(01)
    assert not is_in_Q(EpSequence("", "01"))  # shift dominates
    assert not is_in_Q(EpSequence("1", "0"))  # ends in zeros


def test_admissibility():
    trib = EpSequence("", "110")
    assert is_admissible(EpSequence("", "10"), trib)
    assert is_admissible(EpSequence("10", "0"), trib)
    assert not is_admissible(trib, trib)      # equality is not strict
    assert not is_admissible(EpSequence("", "1"), trib)


def test_shifts_are_finite_and_complete():
    s = EpSequence("01", "110")
    every = shifts(s)
    assert len(every) == len(set(every))
    assert s in every
    for n in range(20):
        assert s.shift(n) in every


def words(lo, hi):
    for n in range(lo, hi + 1):
        for bits in product("01", repeat=n):
            yield "".join(bits)


def test_first_window_shifts_are_pairwise_distinct():
    """No two of the first `window` shifts of a canonical sequence
    coincide, so shifts() lists each shift once."""
    for pre in words(0, 5):
        for per in words(1, 6):
            s = EpSequence(pre, per)
            firsts = [s.shift(n) for n in range(s.window)]
            assert len(set(firsts)) == s.window, (pre, per)


# the per-shift loops that extreme_shifts replaced, kept as the reference
def loop_is_in_Q(a):
    return not a.is_zero_tail() and \
        all(lex_compare_ep(s, a) <= 0 for s in shifts(a))


def loop_is_admissible(x, alpha):
    return all(lex_compare_ep(s, alpha) < 0 for s in shifts(x))


def loop_in_E_plus(t, alpha):
    for s in shifts(t):
        if lex_compare_ep(s, t) < 0 or lex_compare_ep(s, alpha) >= 0:
            return False
    return True


def loop_membership(x, shift):
    for s in shifts(x):
        if lex_compare_ep(s, shift.lower) < 0 or \
                lex_compare_ep(s, shift.upper) >= 0:
            return False
    return True


def test_shift_extremes_match_the_per_shift_loops():
    """Every canonical sequence with |pre| <= 4 and |per| <= 5, against
    bounds drawn from the same pool and against its own extreme shifts,
    where an inclusive lower or exclusive upper bound decides."""
    pool = sorted({EpSequence(pre, per) for pre in words(0, 4)
                   for per in words(1, 5)}, key=str)
    in_q = [a for a in pool if loop_is_in_Q(a)]
    rng = random.Random(17)
    for x in pool:
        every = shifts(x)
        least, greatest = every[0], every[0]
        for s in every:
            if lex_compare_ep(s, least) < 0:
                least = s
            if lex_compare_ep(s, greatest) > 0:
                greatest = s
        assert extreme_shifts(x) == (least, greatest), x
        assert is_in_Q(x) == loop_is_in_Q(x), x
        bounds = rng.sample(pool, 3) + [least, greatest, x]
        for alpha in bounds:
            assert is_admissible(x, alpha) == loop_is_admissible(x, alpha)
        for alpha in rng.sample(in_q, 3) + [a for a in bounds if a in in_q]:
            assert in_E_plus(x, alpha) == loop_in_E_plus(x, alpha), (x, alpha)
        for lower, upper in [rng.sample(pool, 2), (least, greatest),
                             (x, greatest), (least, x)]:
            shift = LexSubshift(lower, upper)
            assert membership(x, shift) == loop_membership(x, shift), \
                (x, lower, upper)
    with pytest.raises(NotInQ):
        in_E_plus(ONES, EpSequence("", "01"))
