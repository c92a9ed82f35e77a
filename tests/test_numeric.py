"""Certified expansions, root solving and projections."""

import random
import signal
from fractions import Fraction
from itertools import product

import pytest

from mpmath.libmp import to_rational

from betahole.errors import NotInQ, OutOfRange
from betahole.sequences import EpSequence, is_in_Q, ONES
from betahole import numeric as N
from betahole.numeric import BetaSpec, iv, mp

GOLDEN = 1.618033988749895
TRIB = 1.839286755214161


def mid(x):
    return float(N.iv_mid(x))


def test_beta_from_alpha_known_roots():
    assert abs(mid(N.beta_from_alpha(EpSequence.parse("(10)"))) - GOLDEN) < 1e-9
    assert abs(mid(N.beta_from_alpha(EpSequence.parse("(110)"))) - TRIB) < 1e-9
    two = N.beta_from_alpha(EpSequence.parse("(1)"))
    assert mp.mpf(two.a) == 2 and mp.mpf(two.b) == 2


def test_beta_from_alpha_ends_at_low_working_precision():
    def timeout(signum, frame):
        raise TimeoutError("beta_from_alpha did not return")

    old = signal.signal(signal.SIGALRM, timeout)
    signal.alarm(10)
    try:
        with mp.workprec(53):
            # bypass the cache so the solve really runs at 53 bits
            b = N.beta_from_alpha.__wrapped__(EpSequence.parse("(110)"))
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)

    def exact(x):
        man, exp = mp.mpf(x).man_exp
        return Fraction(man) * Fraction(2) ** exp

    def p(x):
        # alpha = (110)^inf: beta is the root of beta^3 - beta^2 - beta - 1
        return x ** 3 - x ** 2 - x - 1

    assert p(exact(b.a)) < 0 < p(exact(b.b))


def exact_ends(b):
    """The two ends of the interval b as Fractions, read from its bits
    (independent of the working precision)."""
    return tuple(Fraction(*to_rational(e)) for e in b._mpi_)


def pi_exact(a, x):
    """pi_x(a) for an eventually periodic a and rational x > 1."""
    head = sum(Fraction(int(d)) / x ** (i + 1) for i, d in enumerate(a.pre))
    tail = sum(Fraction(int(d)) / x ** (i + 1) for i, d in enumerate(a.per))
    return head + tail / x ** len(a.pre) / (1 - 1 / x ** len(a.per))


def test_beta_from_alpha_exact_at_53_bits():
    old = iv.prec, mp.prec
    iv.prec = mp.prec = 53
    try:
        # bypass the cache so the solve really runs at 53 bits
        b = N.beta_from_alpha.__wrapped__(EpSequence("", "110"))
        lo, hi = exact_ends(b)
        assert hi - lo == Fraction(1, 2 ** 100)
        # alpha = (110)^inf: beta is the root of beta^3 - beta^2 - beta - 1
        assert lo ** 3 - lo ** 2 - lo - 1 < 0 < hi ** 3 - hi ** 2 - hi - 1
    finally:
        iv.prec, mp.prec = old


def small_Q():
    """(pre, per) with |pre| <= 3 and |per| <= 8 naming a sequence in Q
    other than 1^inf."""
    out = []
    for k in range(4):
        for p in range(1, 9):
            for pre in product("01", repeat=k):
                for per in product("01", repeat=p):
                    a = EpSequence("".join(pre), "".join(per))
                    if a != ONES and is_in_Q(a):
                        out.append(a)
    return out


def test_beta_from_alpha_exact_containment():
    """Exact oracle: pi_x(alpha) straddles 1 across every bracket, and
    every bracket is exactly 2^-100 wide."""
    seqs = small_Q()
    assert len(seqs) == 1484
    for a in set(seqs):
        lo, hi = exact_ends(N.beta_from_alpha(a))
        assert hi - lo == Fraction(1, 2 ** 100), a
        assert pi_exact(a, lo) > 1 > pi_exact(a, hi), a


def test_sign_polynomial_matches_projection():
    """sign F(x) == sign(pi_x(alpha) - 1) at seeded rationals x in (1, 2)."""
    rng = random.Random(6)
    seqs = sorted(set(small_Q()), key=str)
    for _ in range(300):
        a = rng.choice(seqs)
        x = 1 + Fraction(rng.randrange(1, 10 ** 6), 10 ** 6)
        f = sum(c * x ** i for i, c in enumerate(N._sign_polynomial(a)))
        d = pi_exact(a, x) - 1
        assert (f > 0) - (f < 0) == (d > 0) - (d < 0), (a, x)


def test_beta_from_alpha_rejects_non_Q():
    with pytest.raises(NotInQ):
        N.beta_from_alpha(EpSequence.parse("(01)"))


def test_beta_from_alpha_inverts_alpha_of_beta():
    """At a base solved from alpha, the quasi-greedy orbit of 1 ties with
    the critical point eventually (the orbit is periodic), so only an
    initial run of digits is certifiable -- but that run must agree."""
    for text in ["(10)", "(110)", "(1110)", "1(10)", "(11010)"]:
        a = EpSequence.parse(text)
        b = N.beta_from_alpha(a)
        digits, _ = N.quasi_greedy_digits(iv.mpf(1), b, 48)
        assert len(digits) >= 1
        assert digits == a.prefix(len(digits))
        # the symbolic spec knows the full expansion
        spec = BetaSpec(alpha=a)
        assert spec.alpha_prefix(30) == (a.prefix(30), True)


def test_greedy_digits():
    d, cert = N.greedy_digits(N.to_iv("0.5"), iv.mpf(2), 8)
    assert d == "10000000" and cert
    # golden base, x just above 1 - 1/beta: expansion starts 01 then 0s
    b = N.beta_from_alpha(EpSequence.parse("(10)"))
    x = iv.mpf(1) - iv.mpf(1) / b + iv.mpf(2) ** -40
    d, _ = N.greedy_digits(x, b, 10)
    assert d.startswith("0100000000")
    # at the exact bracketed point the second digit is a tie: the orbit
    # lands on the critical value, so certification stops honestly
    x = iv.mpf(1) - iv.mpf(1) / b
    d, cert = N.greedy_digits(x, b, 10)
    assert not cert and d == "0"


def test_quasi_greedy_of_one():
    d, cert = N.quasi_greedy_digits(iv.mpf(1), iv.mpf(2), 10)
    assert d == "1" * 10 and cert
    d, cert = N.quasi_greedy_digits(iv.mpf(1), N.to_iv("1.7"), 12)
    assert cert and d[:2] == "11"


def test_project_closed_form():
    # pi_2((01)^inf) = 1/3, pi_2((10)^inf) = 2/3
    v = N.project(EpSequence.parse("(01)"), iv.mpf(2))
    assert abs(mid(v) - 1 / 3) < 1e-30
    v = N.project(EpSequence.parse("(10)"), iv.mpf(2))
    assert abs(mid(v) - 2 / 3) < 1e-30
    # projecting alpha(beta) at beta gives 1
    b = N.beta_from_alpha(EpSequence.parse("(110)"))
    v = N.project(EpSequence.parse("(110)"), b)
    assert mp.mpf(v.a) < 1 < mp.mpf(v.b) or abs(mid(v) - 1) < 1e-25


def test_project_word_vs_fraction():
    v = N.project_word("101", iv.mpf(2))
    assert abs(mid(v) - float(Fraction(5, 8))) < 1e-30


def test_betaspec_parsing():
    b = BetaSpec.parse("1.7")
    assert not b.symbolic
    b = BetaSpec.parse("@(10)")
    assert b.symbolic and abs(mid(b.value) - GOLDEN) < 1e-12
    with pytest.raises(OutOfRange):
        BetaSpec.parse("2.5")
    with pytest.raises(OutOfRange):
        BetaSpec.parse("0.9")


def test_alpha_prefix_numeric():
    b = BetaSpec.parse("1.7")
    digits, ok = b.alpha_prefix(20)
    assert ok and digits.startswith("11000")


def test_alpha_sequence_detects_period():
    assert BetaSpec.parse("2").alpha_sequence() == EpSequence.parse("(1)")
    # a float approximation of the golden ratio is not the golden ratio:
    # its expansion of 1 genuinely drifts off (10)^inf, so no closed form
    b = BetaSpec(value=GOLDEN)
    assert b.alpha_sequence() is None
    # the decimal sits just above the root, so the expansion starts 11
    # and then falls near 0
    digits, _ = b.alpha_prefix(40)
    assert digits.startswith("1100000000")
