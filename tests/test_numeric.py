"""Certified expansions, root solving and projections."""

import signal
from fractions import Fraction

import pytest

from betahole.errors import NotInQ, OutOfRange
from betahole.sequences import EpSequence
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
