"""Certified arithmetic for bases, expansions and projections.

Root solves for beta(alpha) are exact integer sign tests.  Expansions and
projections go through mpmath's interval type at 128-bit precision, so
every comparison is either certified or reported as undecided rather than
silently trusting rounding.
"""

from fractions import Fraction
from functools import lru_cache

from mpmath import iv, mp
from mpmath.libmp import from_man_exp, round_ceiling, round_floor, to_float

from .errors import NotInQ, OutOfRange, UndecidableAtPrecision
from .sequences import EpSequence
from . import sequences as S

iv.prec = 128
mp.prec = 128

#: default number of expansion digits computed before giving up
DEFAULT_HORIZON = 96

#: beta_from_alpha returns brackets exactly 2^-ROOT_BITS wide
ROOT_BITS = 100


def to_iv(x):
    """Coerce int/float/Fraction/str/interval into an iv.mpf."""
    if isinstance(x, iv.mpf):
        return x
    if isinstance(x, Fraction):
        return iv.mpf(x.numerator) / iv.mpf(x.denominator)
    if isinstance(x, float):
        return iv.mpf(x)
    if isinstance(x, int):
        return iv.mpf(x)
    if isinstance(x, str):
        return iv.mpf(x)
    raise TypeError("cannot make an interval from %r" % (x,))


def iv_lt(a, b):
    """Certified a < b: True/False if provable, None if the intervals overlap."""
    if a.b < b.a:
        return True
    if a.a >= b.b:
        return False
    return None


def iv_le(a, b):
    if a.b <= b.a:
        return True
    if a.a > b.b:
        return False
    return None


def iv_mid(a):
    return mp.mpf((mp.mpf(a.a) + mp.mpf(a.b)) / 2)


def iv_float_down(a):
    """Largest float at or below the lower end of the interval a."""
    return to_float(a._mpi_[0], rnd=round_floor)


def iv_float_up(a):
    """Smallest float at or above the upper end of the interval a."""
    return to_float(a._mpi_[1], rnd=round_ceiling)


def greedy_digits(x, beta, n=DEFAULT_HORIZON):
    """Greedy expansion digits of x in base beta (both intervals).

    Returns (digits, certified): `digits` is a 0/1 string of length at most
    n and `certified` is True when all n digits were decided.  An orbit
    point landing exactly on the critical value 1/beta (up to interval
    resolution) stops the certification early.
    """
    one = iv.mpf(1)
    y = x
    out = []
    for _ in range(n):
        c = y * beta
        if c.b < 1:
            out.append("0")
            y = c
        elif c.a >= 1:
            out.append("1")
            y = c - one
        else:
            return "".join(out), False
    return "".join(out), True


def quasi_greedy_digits(x, beta, n=DEFAULT_HORIZON):
    """Quasi-greedy expansion digits of x in (0,1] base beta.

    Same contract as greedy_digits; the tie betay == 1 takes digit 1
    (keeping the orbit in (0,1]), so the expansion never ends in zeros.
    """
    one = iv.mpf(1)
    y = x
    out = []
    for _ in range(n):
        c = y * beta
        if c.b <= 1:
            out.append("0")
            y = c
        elif c.a > 1:
            out.append("1")
            y = c - one
        else:
            return "".join(out), False
    return "".join(out), True


def project(seq, beta):
    """pi_beta(seq) = sum digit_i / beta^i as a certified interval.

    Uses the closed form for the periodic tail, so the result is exact up
    to interval rounding (no truncation error)."""
    r = iv.mpf(1) / beta
    val = iv.mpf(0)
    p = iv.mpf(1)
    for d in seq.pre:
        p = p * r
        if d == "1":
            val = val + p
    tail = iv.mpf(0)
    q = iv.mpf(1)
    for d in seq.per:
        q = q * r
        if d == "1":
            tail = tail + q
    rp = r ** len(seq.per)
    return val + p * tail / (iv.mpf(1) - rp)


def project_word(w, beta):
    """Finite sum w_1/beta + ... + w_m/beta^m."""
    r = iv.mpf(1) / beta
    val = iv.mpf(0)
    p = iv.mpf(1)
    for d in w:
        p = p * r
        if d == "1":
            val = val + p
    return val


def _sign_polynomial(alpha):
    """Integer coefficients, constant term first, of
    F(x) = (x^p - 1)(A(x) - x^k) + C(x), where A and C are the digit
    polynomials of alpha's preperiod (length k) and period (length p).

    F(x) = x^k (x^p - 1)(pi_x(alpha) - 1), so for x > 1 it has the sign
    of pi_x(alpha) - 1."""
    p = len(alpha.per)
    f = [0] * (len(alpha.pre) + p + 1)
    for i, c in enumerate([int(d) for d in reversed(alpha.pre)] + [-1]):
        f[i + p] += c   # (x^p - 1)(A(x) - x^k)
        f[i] -= c
    for i, d in enumerate(reversed(alpha.per)):
        f[i] += int(d)
    return f


@lru_cache(maxsize=None)
def beta_from_alpha(alpha):
    """Base beta in (1,2] whose quasi-greedy expansion of 1 is alpha.

    Bisection over the dyadic points m/2^ROOT_BITS of [1, 2]: each step
    takes the exact sign of the integer polynomial F(m/2^ROOT_BITS) *
    2^(ROOT_BITS * deg F) (see _sign_polynomial), evaluated by Horner's
    rule on Python ints.  Returns the interval of width exactly
    2^-ROOT_BITS that contains the root; its ends are exact whatever
    iv.prec and mp.prec are.
    """
    if not S.is_in_Q(alpha):
        raise NotInQ("%s is not a quasi-greedy expansion of 1" % alpha)
    if alpha == S.ONES:
        return iv.mpf(2)
    f = _sign_polynomial(alpha)[::-1]
    lo, hi = 1 << ROOT_BITS, 2 << ROOT_BITS
    while hi - lo > 1:
        mid = (lo + hi) >> 1
        v = 0
        for j, c in enumerate(f):
            v = v * mid + (c << (ROOT_BITS * j))
        if v > 0:
            # pi_x(alpha) still above 1 at x = mid/2^ROOT_BITS: x < beta
            lo = mid
        else:
            hi = mid
    return iv.make_mpf((from_man_exp(lo, -ROOT_BITS),
                        from_man_exp(hi, -ROOT_BITS)))


def alpha_of_beta(beta, n=DEFAULT_HORIZON, detect_period=True):
    """Quasi-greedy expansion of 1 in base beta.

    Returns (digits, certified, seq): seq is an EpSequence when an
    eventually periodic pattern was detected and confirmed by solving back
    for beta, else None.
    """
    digits, certified = quasi_greedy_digits(iv.mpf(1), beta, n)
    seq = None
    if detect_period and len(digits) >= 8:
        seq = _detect_period(digits, beta)
    return digits, certified, seq


def _detect_period(digits, beta):
    n = len(digits)
    for k in range(0, n // 2):
        for p in range(1, (n - k) // 2 + 1):
            per = digits[k:k + p]
            if per == "0" * p:
                continue
            m = n - k
            if digits[k:] == (per * (m // p + 1))[:m]:
                try:
                    cand = EpSequence(digits[:k], per)
                    if not S.is_in_Q(cand):
                        continue
                    b2 = beta_from_alpha(cand)
                    if b2.a <= beta.b and beta.a <= b2.b:
                        return cand
                except (NotInQ, OutOfRange):
                    continue
    return None


class BetaSpec:
    """A base beta in (1,2], given numerically or by its alpha-sequence.

    Accepts a decimal string like "1.7", a float/Fraction, or the symbolic
    form "@PRE(PER)" naming the quasi-greedy expansion of 1 directly.
    """

    def __init__(self, value=None, alpha=None):
        if alpha is not None:
            if not S.is_in_Q(alpha):
                raise NotInQ("%s does not define a base" % alpha)
            self.alpha = alpha
            self.value = beta_from_alpha(alpha)
        else:
            self.value = to_iv(value)
            if not (self.value.a > 1 and self.value.b <= 2):
                raise OutOfRange("base must lie in (1, 2]")
            self.alpha = None

    @classmethod
    def parse(cls, text):
        text = text.strip()
        if text.startswith("@"):
            return cls(alpha=EpSequence.parse(text[1:]))
        return cls(value=text)

    @property
    def symbolic(self):
        return self.alpha is not None

    def alpha_prefix(self, n):
        """First n digits of alpha(beta), with a certification flag."""
        if self.symbolic:
            return self.alpha.prefix(n), True
        digits, certified, _ = alpha_of_beta(self.value, n, detect_period=False)
        return digits, certified and len(digits) == n

    def alpha_sequence(self, n=DEFAULT_HORIZON):
        """An EpSequence for alpha(beta) if one can be certified, else None."""
        if self.symbolic:
            return self.alpha
        _, _, seq = alpha_of_beta(self.value, n)
        return seq

    def require_digits(self, n):
        digits, ok = self.alpha_prefix(n)
        if not ok:
            raise UndecidableAtPrecision(
                "could not certify %d digits of the expansion of 1" % n)
        return digits

    def __repr__(self):
        if self.symbolic:
            return "BetaSpec(@%s)" % self.alpha
        return "BetaSpec(%s)" % mp.nstr(iv_mid(self.value), 17)
