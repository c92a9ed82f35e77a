"""Certified expansions, root solving and projections."""

import math
import random
import signal
from decimal import ROUND_HALF_UP, Context, Decimal
from fractions import Fraction
from itertools import product

import mpmath
import pytest
from mpmath.libmp import to_rational

from betahole.errors import NotInQ, OutOfRange
from betahole.sequences import EpSequence, is_in_Q, lex_compare_ep, ONES
from betahole import bifurcation as B
from betahole import numeric as N
from betahole import sequences as S
from betahole import words as W
from betahole.numeric import BetaSpec, Interval

GOLDEN = 1.618033988749895
TRIB = 1.839286755214161


def mid(x):
    return float(x.mid())


def test_beta_from_alpha_known_roots():
    assert abs(mid(N.beta_from_alpha(EpSequence.parse("(10)"))) - GOLDEN) < 1e-9
    assert abs(mid(N.beta_from_alpha(EpSequence.parse("(110)"))) - TRIB) < 1e-9
    two = N.beta_from_alpha(EpSequence.parse("(1)"))
    assert two.a == 2 and two.b == 2


def test_beta_from_alpha_ends_at_low_working_precision():
    def timeout(signum, frame):
        raise TimeoutError("beta_from_alpha did not return")

    old = signal.signal(signal.SIGALRM, timeout)
    signal.alarm(10)
    try:
        with mpmath.mp.workprec(53):
            b = N.beta_from_alpha(EpSequence.parse("(110)"))
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)

    def p(x):
        # alpha = (110)^inf: beta is the root of beta^3 - beta^2 - beta - 1
        return x ** 3 - x ** 2 - x - 1

    assert p(b.a) < 0 < p(b.b)


def pi_exact(a, x):
    """pi_x(a) for an eventually periodic a and rational x > 1."""
    head = sum(Fraction(int(d)) / x ** (i + 1) for i, d in enumerate(a.pre))
    tail = sum(Fraction(int(d)) / x ** (i + 1) for i, d in enumerate(a.per))
    return head + tail / x ** len(a.pre) / (1 - 1 / x ** len(a.per))


def test_beta_from_alpha_exact_at_53_bits():
    old = mpmath.iv.prec, mpmath.mp.prec
    mpmath.iv.prec = mpmath.mp.prec = 53
    try:
        b = N.beta_from_alpha(EpSequence("", "110"))
        lo, hi = b.a, b.b
        assert hi - lo == Fraction(1, 2 ** 100)
        # alpha = (110)^inf: beta is the root of beta^3 - beta^2 - beta - 1
        assert lo ** 3 - lo ** 2 - lo - 1 < 0 < hi ** 3 - hi ** 2 - hi - 1
    finally:
        mpmath.iv.prec, mpmath.mp.prec = old


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
        b = N.beta_from_alpha(a)
        lo, hi = b.a, b.b
        assert hi - lo == Fraction(1, 2 ** 100), a
        assert pi_exact(a, lo) > 1 > pi_exact(a, hi), a


def bisected_beta(alpha):
    """The reference root solve: ROOT_BITS exact bisection steps from
    [1, 2], each halving the bracket by the sign of F at its midpoint."""
    f = N._sign_polynomial(alpha)
    lo = 1
    for t in range(1, N.ROOT_BITS + 1):
        mid = 2 * lo + 1
        lo = mid if N._horner(f, mid, 1 << t) > 0 else mid - 1
    return (Fraction(lo, 1 << N.ROOT_BITS),
            Fraction(lo + 1, 1 << N.ROOT_BITS))


def random_Q(n, seed):
    """n distinct seeded sequences in Q other than 1^inf, with preperiod
    at most 31 and period at most 60, by rejection."""
    rng = random.Random(seed)
    out = set()
    while len(out) < n:
        k, p = rng.randint(0, 31), rng.randint(1, 60)
        ones = rng.choice((0.6, 0.75, 0.9))
        w = "".join("1" if rng.random() < ones else "0" for _ in range(k + p))
        a = EpSequence(w[:k], w[k:])
        if a != ONES and is_in_Q(a):
            out.add(a)
    return sorted(out, key=str)


def christoffel_alphas(q, slopes):
    """alpha_L = (a)^inf and alpha_R = a+ (reversed a)^inf of the
    generators a = reflect(c(q - m, q)) for m in slopes, coprime to q."""
    out = []
    for m in slopes:
        a = W.reflect(W.christoffel(q - m, q))
        out += [EpSequence("", a), EpSequence(W.plus(a), a[::-1])]
    return out


def test_beta_from_alpha_equals_bisection():
    """The Newton-seeded solve returns exactly the bracket of plain
    bisection, on every alpha the atlas, the benchmark's bases and the
    deep tau descent solve, and on seeded random ones."""
    farey_R = [r.alpha_R for r in B.atlas(10, "farey")]
    atlas = [x for r in B.atlas(12, "all") for x in (r.alpha_L, r.alpha_R)]
    cases = {"small_Q": sorted(set(small_Q()), key=str), "atlas": atlas,
             "farey_R": farey_R, "random": random_Q(400, 24),
             "christoffel": (christoffel_alphas(200, (1, 67, 199))
                             + christoffel_alphas(640, (1, 213, 639)))}
    assert [len(v) for v in cases.values()] == [708, 1490, 31, 400, 12]
    for seqs in cases.values():
        for a in seqs:
            b = N.beta_from_alpha(a)
            assert (b.a, b.b) == bisected_beta(a), a


def recorded_fallbacks(monkeypatch):
    """Patch N._bisect to record each call that finishes a solve from a
    seed bracket (the seed itself is bisected from s = 0)."""
    calls = []
    bisect = N._bisect

    def recording(f, lo, s, t):
        if s > 0:
            calls.append((s, t))
        return bisect(f, lo, s, t)

    monkeypatch.setattr(N, "_bisect", recording)
    return calls


def fallback_seqs():
    return (sorted(set(small_Q()), key=str)[::25]
            + christoffel_alphas(200, (1,)))


def test_beta_from_alpha_falls_back_on_a_wrong_estimate(monkeypatch):
    seqs = fallback_seqs()
    want = [bisected_beta(a) for a in seqs]
    calls = recorded_fallbacks(monkeypatch)
    newton = N._newton
    # every estimate lands 2^-20 above the Newton step
    monkeypatch.setattr(N, "_newton", lambda f, df, m, s, b:
                        newton(f, df, m, s, b) + (1 << b >> 20))
    got = [N.beta_from_alpha(a) for a in seqs]
    assert [(b.a, b.b) for b in got] == want
    assert len(calls) == len(seqs)
    assert all(t == N.ROOT_BITS for _, t in calls)


def test_beta_from_alpha_falls_back_where_the_slope_vanishes(monkeypatch):
    seqs = fallback_seqs()
    want = [bisected_beta(a) for a in seqs]
    calls = recorded_fallbacks(monkeypatch)
    horner = N._horner
    # F has leading coefficient -1 (see _sign_polynomial), F' has -deg F:
    # every evaluation of F' reads 0
    monkeypatch.setattr(N, "_horner", lambda f, p, q:
                        horner(f, p, q) if f[-1] == -1 else 0)
    got = [N.beta_from_alpha(a) for a in seqs]
    assert [(b.a, b.b) for b in got] == want
    assert len(calls) == len(seqs)


def test_root_solve_takes_few_sign_evaluations(monkeypatch):
    """Bisection alone evaluated F 100 times per solve of the atlas."""
    alphas = [x for r in B.atlas(12, "all") for x in (r.alpha_L, r.alpha_R)]
    calls = []
    horner = N._horner

    def counting(f, p, q):
        calls.append(p)
        return horner(f, p, q)

    monkeypatch.setattr(N, "_horner", counting)
    for a in alphas:
        N.beta_from_alpha(a)
    assert len(calls) <= 30 * len(alphas)


def test_symbolic_base_checks_Q_once(monkeypatch):
    calls = []
    is_in_Q_ = S.is_in_Q

    def counting(a):
        calls.append(a)
        return is_in_Q_(a)

    monkeypatch.setattr(S, "is_in_Q", counting)
    BetaSpec.parse("@1(10)")
    assert len(calls) == 1
    with pytest.raises(NotInQ, match="not a quasi-greedy expansion of 1"):
        BetaSpec.parse("@(01)")


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


def test_compare_is_exact_at_both_ends_of_every_bracket():
    """A decimal base at the lower end of the 2^-100 bracket of beta(alpha)
    lies below beta(alpha), one at the upper end above it."""
    for a in set(small_Q()) - {ONES}:
        b = N.beta_from_alpha(a)
        assert BetaSpec(value=b.a).compare(a) == -1, a
        assert BetaSpec(value=b.b).compare(a) == 1, a
    assert BetaSpec.parse("2").compare(ONES) == 0
    assert BetaSpec.parse("@(1)").compare(ONES) == 0


def test_compare_symbolic_is_alpha_order():
    seqs = sorted(set(small_Q()), key=str)[::7]
    for a in seqs:
        spec = BetaSpec(alpha=a)
        for b in seqs:
            assert spec.compare(b) == lex_compare_ep(a, b), (a, b)


def test_compare_rejects_non_Q():
    with pytest.raises(NotInQ):
        BetaSpec.parse("1.5").compare(EpSequence.parse("(01)"))


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
        digits, _ = N.quasi_greedy_digits(Interval(1), b, 48)
        assert len(digits) >= 1
        assert digits == a.prefix(len(digits))
        # the symbolic spec knows the full expansion
        spec = BetaSpec(alpha=a)
        assert spec.alpha_prefix(30) == a.prefix(30)


def test_greedy_digits():
    d, cert = N.greedy_digits(Interval("0.5"), Interval(2), 8)
    assert d == "10000000" and cert
    # golden base, x just above 1 - 1/beta: expansion starts 01 then 0s
    # (1 - 1/beta rises with beta, so its bracket is taken at the ends)
    b = N.beta_from_alpha(EpSequence.parse("(10)"))
    e = Fraction(1, 2 ** 40)
    x = Interval(1 - 1 / b.a + e, 1 - 1 / b.b + e)
    d, _ = N.greedy_digits(x, b, 10)
    assert d.startswith("0100000000")
    # at the exact bracketed point the second digit is a tie: the orbit
    # lands on the critical value, so certification stops honestly
    x = Interval(1 - 1 / b.a, 1 - 1 / b.b)
    d, cert = N.greedy_digits(x, b, 10)
    assert not cert and d == "0"


def test_greedy_digits_run_past_a_closed_orbit():
    """The orbits of 1/10 and 1/3 under doubling close after a few steps;
    all n digits still come back, digit i being floor(2^(i+1) x) mod 2."""
    for x in (Fraction(1, 10), Fraction(1, 3)):
        for n in (1, 5, 40, 97):
            d, cert = N.greedy_digits(Interval(x), Interval(2), n)
            assert cert and d == "".join(
                str(int(x * 2 ** (i + 1)) % 2) for i in range(n)), (x, n)


def test_greedy_digits_at_a_bracket_are_digits_at_its_ends():
    """The certified digits of a hole bracket under a base bracket are a
    prefix of the digits at each corner point: beta*y rises in both y and
    beta, so stepping the ends of both brackets encloses every orbit."""
    rng = random.Random(25)
    bases = [N.beta_from_alpha(EpSequence.parse(t))
             for t in ("(10)", "(110)", "1(10)")]
    bases += [rec.beta_R.value for rec in B.atlas(8)[::7]]
    assert len(bases) == 13
    for beta in bases:
        for _ in range(6):
            x = Fraction(rng.randrange(1, 10 ** 6), 10 ** 6)
            for hole in (Interval(x), Interval(x, x + Fraction(1, 2 ** 90))):
                d, _ = N.greedy_digits(hole, beta, 160)
                assert len(d) >= 30, (hole, beta)
                for y, b in product((hole.a, hole.b), (beta.a, beta.b)):
                    at_point, cert = N.greedy_digits(Interval(y),
                                                     Interval(b), 160)
                    assert cert and at_point.startswith(d), (hole, beta)


def test_greedy_digits_rejects_x_outside_0_1():
    for x in ("1.5", "-0.2", "1"):
        with pytest.raises(OutOfRange, match=r"greedy expansion needs x "
                                             r"in \[0,1\)"):
            N.greedy_digits(Interval(x), Interval("1.7"), 8)
    with pytest.raises(OutOfRange):
        N.greedy_digits(Interval("0.9", "1"), Interval("1.7"), 8)
    assert N.greedy_digits(Interval(0), Interval("1.7"), 4) == ("0000", True)


def test_quasi_greedy_of_one():
    d, cert = N.quasi_greedy_digits(Interval(1), Interval(2), 10)
    assert d == "1" * 10 and cert
    d, cert = N.quasi_greedy_digits(Interval(1), Interval("1.7"), 12)
    assert cert and d[:2] == "11"


def test_quasi_greedy_digits_rejects_x_outside_0_1():
    for x in ("0", "-0.2", "1.5"):
        with pytest.raises(OutOfRange, match=r"quasi-greedy expansion needs "
                                             r"x in \(0,1\]"):
            N.quasi_greedy_digits(Interval(x), Interval("1.7"), 8)
    with pytest.raises(OutOfRange):
        N.quasi_greedy_digits(Interval(0, "0.1"), Interval("1.7"), 8)


def test_project_closed_form():
    # pi_2((01)^inf) = 1/3, pi_2((10)^inf) = 2/3
    v = N.project(EpSequence.parse("(01)"), Interval(2))
    assert v.a == v.b == Fraction(1, 3)
    v = N.project(EpSequence.parse("(10)"), Interval(2))
    assert v.a == v.b == Fraction(2, 3)
    # projecting alpha(beta) at beta gives 1
    b = N.beta_from_alpha(EpSequence.parse("(110)"))
    v = N.project(EpSequence.parse("(110)"), b)
    assert v.a < 1 < v.b and v.b - v.a < Fraction(1, 2 ** 90)


def test_project_of_finite_word():
    v = N.project(EpSequence("101", "0"), Interval(2))
    assert v.a == v.b == Fraction(5, 8)


def random_sequence(rng, max_pre, max_per):
    pre = "".join(rng.choice("01") for _ in range(rng.randint(0, max_pre)))
    per = "".join(rng.choice("01")
                  for _ in range(rng.randint(1, max_per)))
    return EpSequence(pre, per)


def test_project_is_exact_at_both_ends_of_the_base():
    """project(s, beta) == [pi_b(s), pi_a(s)] for beta = [a, b], exactly,
    at decimal, symbolic and atlas-record bases and at 2."""
    rng = random.Random(21)
    bases = [Interval(2), Interval("1.001"), Interval("1.999")]
    bases += [Interval(1 + Fraction(rng.randrange(1, 1000), 1000))
              for _ in range(8)]
    bases += [N.beta_from_alpha(EpSequence.parse(t))
              for t in ("(10)", "(110)", "1(10)", "(1110)")]
    bases += [rec.beta_R.value for rec in B.atlas(6)[::3]]
    for beta in bases:
        for _ in range(12):
            s = random_sequence(rng, 10, 10)
            v = N.project(s, beta)
            assert (v.a, v.b) == (pi_exact(s, beta.b),
                                  pi_exact(s, beta.a)), (s, beta)


def test_value_at_2_is_the_binary_closed_form():
    """value_at(s, 2) against the binary value pre.per^inf on every
    sequence with |pre|, |per| <= 6."""
    def binary(s):
        k, p = len(s.pre), len(s.per)
        head = Fraction(int(s.pre, 2) if s.pre else 0, 2 ** k)
        return head + Fraction(int(s.per, 2), (2 ** p - 1) * 2 ** k)

    for k in range(7):
        for p in range(1, 7):
            for pre in product("01", repeat=k):
                for per in product("01", repeat=p):
                    s = EpSequence("".join(pre), "".join(per))
                    assert N.value_at(s, 2) == binary(s), s


def test_betaspec_parsing():
    b = BetaSpec.parse("1.7")
    assert not b.symbolic
    b = BetaSpec.parse("@(10)")
    assert b.symbolic and abs(mid(b.value) - GOLDEN) < 1e-12
    with pytest.raises(OutOfRange):
        BetaSpec.parse("2.5")
    with pytest.raises(OutOfRange):
        BetaSpec.parse("0.9")


def test_printed_labels():
    # str is the base's label, which tau_json prints; repr wraps it, as in
    # a printed TauReport
    for text, label in [("1.5", "1.5"), ("@(110)", "@(110)"),
                        ("@1(10)", "@1(10)"), ("2", "2.0"),
                        ("1.1234567890123456789", "1.1234567890123457")]:
        assert str(BetaSpec.parse(text)) == label, text
        assert repr(BetaSpec.parse(text)) == "BetaSpec(%s)" % label, text
    assert repr(Interval(1, 2)) == "Interval(1, 2)"


def test_alpha_prefix_numeric():
    b = BetaSpec.parse("1.7")
    digits = b.alpha_prefix(20)
    assert len(digits) == 20 and digits.startswith("11000")


def test_alpha_of_a_rational_base_is_decided_and_closes_only_at_2():
    """The orbit of 1 at a rational base is an exact point, so every digit
    of alpha(beta) is decided, and by Parry only 2 has an eventually
    periodic alpha(beta); BetaSpec relies on both."""
    rng = random.Random(23)
    values = ["1.%03d" % k for k in rng.sample(range(1, 1000), 320)]
    values += [1 + rng.random() for _ in range(100)]
    values += ["2", 2.0, Fraction(3, 2)]
    for value in values:
        spec = BetaSpec(value=value)
        # a shorter prefix after longer ones reads from the kept digits
        for n in (7, 96, 1, 300):
            digits, certified, _ = N.alpha_of_beta(Interval(value), n)
            assert certified and len(digits) == n, (value, n)
            assert spec.alpha_prefix(n) == digits, (value, n)
        assert spec.alpha_sequence() == (ONES if Fraction(value) == 2
                                         else None), value


def test_alpha_sequence_detects_period():
    assert BetaSpec.parse("2").alpha_sequence() == EpSequence.parse("(1)")
    # a float approximation of the golden ratio is not the golden ratio:
    # its expansion of 1 genuinely drifts off (10)^inf, so no closed form
    b = BetaSpec(value=GOLDEN)
    assert b.alpha_sequence() is None
    # the decimal sits just above the root, so the expansion starts 11
    # and then falls near 0
    digits = b.alpha_prefix(40)
    assert digits.startswith("1100000000")


def test_interval_arithmetic_is_exact():
    """An Interval's ends are exact Fractions, in order."""
    x = Interval("1.7")
    assert (x.a, x.b) == (Fraction(17, 10),) * 2
    assert Interval(0.5).a == Fraction(1, 2)
    assert Interval(Fraction(1, 3), 1).b == 1
    with pytest.raises(ValueError):
        N._log2(Fraction(9, 10), Fraction(9, 10))
    with pytest.raises(ValueError):
        Interval(2, 1)


def test_interval_log2_encloses_high_precision_log():
    """_log2 of a point against a 300-bit mpmath oracle: it must enclose
    log2 and be less than 2^-120 wide.  log2 2 is exact."""
    assert N._log2(2, 2) == (1, 1)
    rng = random.Random(9)
    points = [1 + Fraction(i, 1000) for i in range(1, 1000, 37)]
    points += [1 + Fraction(rng.getrandbits(100), 2 ** 100)
               for _ in range(150)]
    points += [1 + Fraction(1, 2 ** 60)]
    with mpmath.workprec(300):
        for q in points:
            lo_q, hi_q = N._log2(q, q)
            exact = mpmath.log(mpmath.mpf(q.numerator) / q.denominator, 2)
            lo, hi = (Fraction(*to_rational(mpmath.mpf(e)._mpf_))
                      for e in (exact - mpmath.mpf(2) ** -280,
                                exact + mpmath.mpf(2) ** -280))
            assert lo_q <= lo and hi <= hi_q, q
            assert hi_q - lo_q < Fraction(1, 2 ** 120), q


def test_beta_nstr_matches_mpmath():
    """The label of a 2^-100 root bracket (the atlas endpoints) or of a
    100-bit dyadic point in (1, 2] against mpmath.nstr of its midpoint."""
    rng = random.Random(10)
    specs = [beta for r in B.atlas(8) for beta in (r.beta_L, r.beta_R)]
    specs += [BetaSpec(1 + Fraction(rng.getrandbits(100) + 1, 2 ** 100))
              for _ in range(300)]
    with mpmath.workprec(400):
        for beta in specs:
            m = beta.value.mid()
            for n in (2, 3, 6, 14, 17, 20):
                assert beta.nstr(n) == mpmath.nstr(
                    mpmath.mpf(m.numerator) / m.denominator, n), (m, n)
    assert str(BetaSpec(2)) == "2.0"
    assert str(BetaSpec("1.7")) == "1.7"


def decimal_nstr(m, n):
    """The Decimal routine behind the labels before integer arithmetic,
    kept as their oracle."""
    ctx = Context(prec=n, rounding=ROUND_HALF_UP)
    d = ctx.divide(Decimal(m.numerator), Decimal(m.denominator))
    s = "{:f}".format(d.normalize(ctx))
    return s if "." in s else s + ".0"


def test_beta_nstr_matches_decimal_oracle():
    """Seeded dyadic, rational and decimal points in (1, 2]; the decimals
    hit exact ties, which round half up."""
    rng = random.Random(12)
    values = [Fraction(2)]
    for _ in range(600):
        bits = rng.randint(1, 200)
        values.append(1 + Fraction(rng.randint(1, 2 ** bits), 2 ** bits))
        q = rng.randint(1, 10 ** 15)
        values.append(Fraction(rng.randint(q + 1, 2 * q), q))
        ten = 10 ** rng.randint(1, 26)
        values.append(Fraction(rng.randint(ten + 1, 2 * ten), ten))
    for m in values:
        for n in (2, 3, 6, 14, 17, 20):
            assert BetaSpec(m).nstr(n) == decimal_nstr(m, n), (m, n)


def test_beta_nstr_edge_cases():
    assert BetaSpec("1.99995").nstr(4) == "2.0"     # carry into the units
    assert BetaSpec("1.99949").nstr(4) == "1.999"
    assert BetaSpec("1.05").nstr(2) == "1.1"        # a tie rounds up
    assert BetaSpec("1.0000001").nstr(6) == "1.0"   # zeros strip to one
    assert BetaSpec("1.2").nstr(20) == "1.2"
    assert BetaSpec(2).nstr(2) == "2.0"


def test_float_rounding_is_directed():
    rng = random.Random(11)
    qs = [Fraction(rng.getrandbits(80), rng.getrandbits(70) + 1)
          for _ in range(500)] + [Fraction(7, 32), Fraction(1, 3)]
    for q in qs:
        lo, hi = N.float_down(q), N.float_up(q)
        assert Fraction(lo) <= q <= Fraction(hi)
        assert Fraction(math.nextafter(lo, math.inf)) > q
        assert Fraction(math.nextafter(hi, -math.inf)) < q
    assert N.float_down(Fraction(7, 32)) == N.float_up(Fraction(7, 32))


def nextafter_down(q):
    f = float(q)
    return math.nextafter(f, -math.inf) if Fraction(f) > q else f


def nextafter_up(q):
    f = float(q)
    return math.nextafter(f, math.inf) if Fraction(f) < q else f


def test_float_rounding_matches_nextafter_oracle():
    """float_down and float_up step in integer arithmetic; math.nextafter
    is the reference, with the sign of zero compared too."""
    rng = random.Random(13)
    qs = [Fraction(0)]
    for _ in range(3000):
        p = rng.randint(1, 10 ** rng.randint(1, 40))
        q = rng.randint(1, 10 ** rng.randint(1, 40))
        qs.append(Fraction(rng.choice((-1, 1)) * p, q))
    # numerator and denominator beyond the float range, quotient a float
    huge = []
    for _ in range(300):
        d = rng.randint(2 ** 1025, 2 ** 3400)
        r = Fraction(rng.getrandbits(64) + 1, rng.getrandbits(64) + 1)
        huge.append(Fraction(d * r.numerator + rng.randint(1, d),
                             d * r.denominator))
    assert min(min(q.numerator, q.denominator) for q in huge) > 2 ** 1024
    qs += huge
    for k in range(-60, 61):
        x = Fraction(2) ** k
        nudge = x / 2 ** 80
        qs += [x, x + nudge, x - nudge]
    tiny = Fraction(1, 2 ** 1074)   # the smallest subnormal
    qs += [tiny, tiny / 2, tiny / 3, tiny * 2 / 3, tiny * Fraction(5, 2),
           Fraction(2) ** -1022 * (1 - Fraction(1, 2 ** 60)),
           Fraction(1, 10 ** 330), Fraction(7, 10 ** 320)]
    for q in qs + [-q for q in qs]:
        for got, want in ((N.float_down(q), nextafter_down(q)),
                          (N.float_up(q), nextafter_up(q))):
            assert got == want, q
            assert math.copysign(1, got) == math.copysign(1, want), q


def test_alpha_of_rational_base_has_no_closed_form():
    assert N.alpha_of_beta(Interval(2))[2] == ONES
    for text in ("1.7", "1.618", "1.8392867552141611325518525646532866004241"):
        digits, certified, seq = N.alpha_of_beta(Interval(text), 96)
        assert seq is None and certified and len(digits) == 96
