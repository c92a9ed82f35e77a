"""Certified arithmetic for bases, expansions and projections.

Every value is exact: a decimal base or hole is a rational number, and a
base named by its kneading sequence is bracketed between two dyadic
numbers by integer Newton steps that two exact signs certify, with
bisection as the fallback.  `Interval` brackets both kinds between two
`Fraction` ends and does no arithmetic: each map applied to a base here
(beta*y for y >= 0, pi_beta, 1 - 1/beta) is monotone in it, so it is
evaluated exactly at the two ends.  A digit is therefore either certified
or reported as undecided, with no floating-point precision anywhere.  A
base is placed against the base of a kneading sequence by
`BetaSpec.compare`, one exact sign test that never leaves a comparison
undecided.
"""

import math
from fractions import Fraction

from .errors import OutOfRange
from .sequences import EpSequence
from . import sequences as S

#: default number of expansion digits computed before giving up
DEFAULT_HORIZON = 96

#: beta_from_alpha returns brackets exactly 2^-ROOT_BITS wide
ROOT_BITS = 100

#: fixed-point bits of the series behind _log2
LOG_BITS = 136


class Interval:
    """The closed interval [a, b] with exact Fraction ends, a bracket only.

    Ends are taken as int, float, str or Fraction; one argument gives a
    point.  It has no arithmetic: callers evaluate monotone maps at a and b.
    """

    __slots__ = ("a", "b")

    def __init__(self, a, b=None):
        self.a = Fraction(a)
        self.b = self.a if b is None else Fraction(b)
        if self.a > self.b:
            raise ValueError("interval ends out of order: %s > %s"
                             % (self.a, self.b))

    def mid(self):
        return (self.a + self.b) / 2

    def __repr__(self):
        return "Interval(%s, %s)" % (self.a, self.b)


def _div(p, q, up):
    """The integer p/q, q > 0, rounded down or (up=True) up."""
    return -(-p // q) if up else p // q


def _half_ln(x, up):
    """2^LOG_BITS * ln(x) / 2 for a Fraction 1 <= x <= 2, rounded down or
    (up=True) up: the series atanh z = z + z^3/3 + z^5/5 + ... at
    z = (x - 1)/(x + 1) <= 1/3, in fixed point with every step rounded
    the same way.  Each term is at most z^2 <= 1/9 times the one before,
    so 9/8 of the first dropped term bounds the tail."""
    one = 1 << LOG_BITS
    z = _div((x.numerator - x.denominator) << LOG_BITS,
             x.numerator + x.denominator, up)
    z2 = _div(z * z, one, up)
    total, term, k = 0, z, 1
    while term > 1:
        total += _div(term, k, up)
        term = _div(term * z2, one, up)
        k += 2
    return total + _div(9 * term, 8 * k, up) if up else total


_HALF_LN2 = (_half_ln(Fraction(2), False), _half_ln(Fraction(2), True))


def _log2(a, b):
    """Fraction bracket (lo, hi) of log2 over [a, b], one series per end;
    an end at 2 is exactly 1, where the series ends round away from it."""
    if not 1 <= a <= b <= 2:
        raise ValueError("log2 bracket needs 1 <= %s <= %s <= 2" % (a, b))
    return (Fraction(1) if a == 2 else
            Fraction(_half_ln(a, False), _HALF_LN2[1]),
            Fraction(1) if b == 2 else
            Fraction(_half_ln(b, True), _HALF_LN2[0]))


def _to_float(q, up):
    """The rational q rounded down or (up=True) up on the float grid: for
    2^k <= |q| < 2^(k+1) the floats there are the multiples of 2^e,
    e = max(k - 52, -1074), so m = q / 2^e rounded is at most 2^53 and
    m * 2^e is exact.  The sign of q, not of m, signs a zero."""
    n, d = q.numerator, q.denominator
    k = abs(n).bit_length() - d.bit_length()    # |q| < 2^(k+1)
    if abs(n) << max(-k, 0) < d << max(k, 0):   # |q| < 2^k
        k -= 1
    e = max(k - 52, -1074)
    m = _div(n << max(-e, 0), d << max(e, 0), up)
    return math.copysign(math.ldexp(m, e), -1.0 if q < 0 else 1.0)


def float_down(q):
    """Largest float at or below the rational q."""
    return _to_float(q, False)


def float_up(q):
    """Smallest float at or above the rational q."""
    return _to_float(q, True)


def fixed(x, digits, up):
    """The float or Fraction x in fixed notation with `digits` decimals,
    rounded down or (up=True) up from its exact value, in integer
    arithmetic."""
    q = Fraction(x) * 10 ** digits
    whole, frac = divmod(abs(_div(q.numerator, q.denominator, up)),
                         10 ** digits)
    sign = "-" if math.copysign(1, x) < 0 else ""
    return sign + ("%d.%0*d" % (whole, digits, frac) if digits else
                   "%d" % whole)


def _expand(x, beta, n, tie):
    """The digit loop behind greedy_digits, quasi_greedy_digits,
    alpha_of_beta and survivor.greedy_sequence, for Intervals x and
    beta > 1.

    The orbit is carried as the two Fraction ends lo, hi of a bracket.
    Digit 0 where beta*y < 1, 1 where beta*y > 1 and `tie` where
    beta*y == 1; it stops uncertified when beta*y straddles a decision.
    A point orbit that returns to an earlier point is eventually periodic:
    it ends the loop with that sequence's first n digits.
    Returns (digits, certified, the eventually periodic sequence or None).
    """
    lo, hi = x.a, x.b
    out = []
    seen = {}
    for i in range(n):
        if lo == hi:
            # a Fraction's hash takes a modular inverse; its pair does not
            key = lo.as_integer_ratio()
            if key in seen:
                j = seen[key]
                seq = EpSequence("".join(out[:j]), "".join(out[j:]))
                return seq.prefix(n), True, seq
            seen[key] = i
        # beta*y rises in y and, for y >= 0, in beta, so the ends map to
        # the ends, and a digit step keeps y >= 0.  An orbit below 0 (a
        # hole t < 0) stays there with its ends swapped: hi < 1, digit 0.
        lo, hi = lo * beta.a, hi * beta.b
        if hi < 1 or (hi == 1 and tie == "0"):
            out.append("0")
        elif lo > 1 or (lo == 1 and tie == "1"):
            out.append("1")
            lo, hi = lo - 1, hi - 1
        else:
            return "".join(out), False, None
    return "".join(out), True, None


def greedy_digits(x, beta, n=DEFAULT_HORIZON):
    """Greedy expansion digits of x in [0,1) base beta (both intervals).

    Returns (digits, certified): `digits` is a 0/1 string of length at most
    n and `certified` is True when all n digits were decided.  An orbit
    point landing on the critical value 1/beta within the interval
    resolution stops the certification early; an exact hit takes digit 1.
    """
    if not (x.a >= 0 and x.b < 1):
        raise OutOfRange("greedy expansion needs x in [0,1)")
    return _expand(x, beta, n, "1")[:2]


def quasi_greedy_digits(x, beta, n=DEFAULT_HORIZON):
    """Quasi-greedy expansion digits of x in (0,1] base beta.

    Same contract as greedy_digits; the tie beta*y == 1 takes digit 0
    (keeping the orbit in (0,1]), so the expansion never ends in zeros.
    """
    if not (x.a > 0 and x.b <= 1):
        raise OutOfRange("quasi-greedy expansion needs x in (0,1]")
    return _expand(x, beta, n, "0")[:2]


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


def _horner(f, p, q):
    """F(p/q) * q^deg F for integer coefficients f, constant term first,
    by Horner's rule on Python ints."""
    v, qk = 0, 1
    for c in reversed(f):
        v = v * p + c * qk
        qk *= q
    return v


def value_at(seq, x):
    """pi_x(seq) = sum digit_i / x^i as an exact Fraction, for a
    rational x > 1.

    With x = P/Q, k = len(pre) and p = len(per), the identity behind
    _sign_polynomial gives pi_x(seq) = 1 + F(P/Q) Q^(k+p) / (P^k (P^p - Q^p)).
    """
    x = Fraction(x)
    P, Q = x.numerator, x.denominator
    k, p = len(seq.pre), len(seq.per)
    return 1 + Fraction(_horner(_sign_polynomial(seq), P, Q),
                        P ** k * (P ** p - Q ** p))


def project(seq, beta):
    """pi_beta(seq) = sum digit_i / beta^i over the Interval beta, with
    no truncation error: pi falls as the base grows, so the exact range
    is [value_at(seq, b), value_at(seq, a)] for beta = [a, b]."""
    return Interval(value_at(seq, beta.b), value_at(seq, beta.a))


def _bisect(f, lo, s, t):
    """Bisect lo/2^s < beta <= (lo+1)/2^s down to width 2^-t; returns lo."""
    for u in range(s + 1, t + 1):
        mid = 2 * lo + 1
        # pi_x(alpha) still above 1 at x = mid/2^u: x < beta
        lo = mid if _horner(f, mid, 1 << u) > 0 else mid - 1
    return lo


def _newton(f, df, m, s, b):
    """2^b (x - F(x)/F'(x)) rounded down at x = m/2^s, or 0 if F'(x) = 0."""
    d = _horner(df, m, 1 << s)
    return d and ((m * d - _horner(f, m, 1 << s)) << (b - s)) // d


def beta_from_alpha(alpha):
    """Base beta in (1,2] whose quasi-greedy expansion of 1 is alpha: the
    Interval [lo, lo + 1] / 2^ROOT_BITS, lo/2^ROOT_BITS < beta, for the root
    beta of F (see _sign_polynomial).  Bisection to s bits seeds integer
    Newton steps whose precision doubles up to ROOT_BITS + 8 bits, plus one
    there.  Signs of F at g, the nearest multiple of 2^-ROOT_BITS, and next
    to g on beta's side certify lo; else (F' = 0 gives m = 0) bisect on."""
    S.require_in_Q(alpha)
    if alpha == S.ONES:
        return Interval(2)
    f = _sign_polynomial(alpha)
    df = [i * c for i, c in enumerate(f)][1:]
    s, top, one = 2 * len(f).bit_length() + 8, ROOT_BITS + 8, 1 << ROOT_BITS
    seed = m = _bisect(f, 1, 0, s)
    for i in range(((top - 1) // s).bit_length() + 1):
        m = m and _newton(f, df, m, min(s << i, top), min(s << (i + 1), top))
    g = (m + 128) >> 8
    below = _horner(f, g, one) > 0
    lo = g if below else g - 1
    if lo < one or (_horner(f, g + 1 if below else g - 1, one) > 0) == below:
        lo = _bisect(f, seed, s, ROOT_BITS)
    return Interval(Fraction(lo, one), Fraction(lo + 1, one))


def alpha_of_beta(beta, n=DEFAULT_HORIZON):
    """Quasi-greedy expansion of 1 in base beta (an Interval).

    Returns (digits, certified, seq): seq is the closed form when the
    orbit of 1 returns exactly to an earlier point, else None.  A rational
    beta with an eventually periodic alpha(beta) is a root of a monic
    integer polynomial, so an algebraic integer, and the only rational one
    in (1, 2] is 2 (Parry 1960): only beta = 2 closes, with 1^inf.  Any
    other closed form is known only from the symbolic alpha that BetaSpec
    keeps.
    """
    return _expand(Interval(1), beta, n, "0")


class BetaSpec:
    """A base beta in (1,2], given numerically or by its alpha-sequence.

    Accepts a decimal string like "1.7", a float/Fraction, or the symbolic
    form "@PRE(PER)" naming the quasi-greedy expansion of 1 directly.
    """

    def __init__(self, value=None, alpha=None):
        if alpha is not None:
            self.alpha = alpha
            self.value = beta_from_alpha(alpha)
        else:
            self.value = Interval(value)
            if not (self.value.a > 1 and self.value.b <= 2):
                raise OutOfRange("base must lie in (1, 2]")
            self.alpha = None
        self._digits = ""
        self._log2_value = None

    @classmethod
    def parse(cls, text):
        text = text.strip()
        if text.startswith("@"):
            return cls(alpha=EpSequence.parse(text[1:]))
        return cls(value=text)

    @property
    def symbolic(self):
        return self.alpha is not None

    def compare(self, alpha):
        """Exact sign (-1, 0, 1) of beta - beta(alpha) for alpha in Q.

        A symbolic base compares alpha(beta) with alpha, since
        beta -> alpha(beta) preserves order (Parry 1960).  A decimal base
        p/q takes minus the sign of F(p/q) * q^deg F (see _sign_polynomial):
        F(x) has the sign of pi_x(alpha) - 1, which falls as x grows.
        """
        S.require_in_Q(alpha)
        if self.symbolic:
            return S.lex_compare_ep(self.alpha, alpha)
        x = self.value.a
        v = _horner(_sign_polynomial(alpha), x.numerator, x.denominator)
        return (v < 0) - (v > 0)

    def log2(self):
        """An Interval enclosing log2 beta, evaluated once."""
        if self._log2_value is None:
            self._log2_value = Interval(*_log2(self.value.a, self.value.b))
        return self._log2_value

    def alpha_prefix(self, n):
        """First n digits of alpha(beta).  The orbit of 1 at a decimal base
        is an exact point, so every digit is decided; the digits are
        expanded once and again only when a longer prefix is asked for."""
        if self.symbolic:
            return self.alpha.prefix(n)
        if len(self._digits) < n:
            self._digits = alpha_of_beta(self.value, n)[0]
        return self._digits[:n]

    def alpha_sequence(self):
        """alpha(beta) as an EpSequence, or None where it is not eventually
        periodic: at every decimal base but 2, whose alpha is 1^inf
        (see alpha_of_beta)."""
        if self.symbolic:
            return self.alpha
        return S.ONES if self.value.a == 2 else None

    def nstr(self, n):
        """The midpoint of beta to n >= 2 significant digits, rounded half
        up, with trailing zeros stripped down to one decimal: beta in
        (1, 2] has one digit before the point, so n - 1 decimals."""
        s = fixed(self.value.mid() + Fraction(1, 2 * 10 ** (n - 1)), n - 1,
                  False)
        return s[:2] + (s[2:].rstrip("0") or "0")

    def __str__(self):
        """The printed label: "@PRE(PER)", or the value to 17 digits."""
        return "@%s" % self.alpha if self.symbolic else self.nstr(17)

    def __repr__(self):
        return "BetaSpec(%s)" % self
