"""Independent references and output checks.

Nothing here imports betahole: every reference is recomputed from the
printed words with exact rationals (`Fraction`), brute-force word counts or
plain float bisection.  A check returns a `Verdict`:

* `error` -- the output is malformed or breaks a structural rule
  (lower > upper, a wrong record count, a partial overlap).  It counts as a
  failed request.
* `checked` / `unsound` -- printed bounds compared with a reference, and
  how many of them the reference contradicts.  No tolerance is applied to
  a bound: a lower bound printed above the exact value is unsound, however
  close.
"""

import csv
import io
import json
import math
from dataclasses import dataclass, field
from decimal import Decimal, InvalidOperation
from fractions import Fraction

ALPHA_DIGITS = 160   # exact digits of alpha(beta) used to decide an order


@dataclass
class Verdict:
    error: str = None
    items: int = 0
    checked: int = 0
    unsound: int = 0
    widths: list = field(default_factory=list)
    reports: int = 0
    certified: int = 0

    def bound(self, ok):
        self.checked += 1
        self.unsound += not ok


# ----- exact symbolic helpers --------------------------------------------

def parse_ep(text):
    """'PRE(PER)' -> (pre, per)."""
    if not text.endswith(")") or "(" not in text:
        raise ValueError("not an eventually periodic word: %r" % text)
    pre, per = text[:-1].split("(", 1)
    if not per or set(pre + per) - set("01"):
        raise ValueError("not an eventually periodic word: %r" % text)
    return pre, per


def ep_prefix(pre, per, n):
    return (pre + per * (n // len(per) + 1))[:n]


def ep_equal(x, y):
    """Equality of two eventually periodic words as infinite sequences."""
    n = len(x[0]) + len(y[0]) + 2 * math.lcm(len(x[1]), len(y[1]))
    return ep_prefix(*x, n) == ep_prefix(*y, n)


def ep_value(pre, per, beta):
    """sum_i x_i beta^-i for x = pre per per ..., exactly."""
    r = 1 / Fraction(beta)
    head = sum(r ** (i + 1) for i, d in enumerate(pre) if d == "1")
    cycle = sum(r ** (i + 1) for i, d in enumerate(per) if d == "1")
    return head + r ** len(pre) * cycle / (1 - r ** len(per))


def alpha_digits(beta, n=ALPHA_DIGITS):
    """First n digits of the quasi-greedy expansion of 1 in a rational base."""
    beta = Fraction(beta)
    y, out = Fraction(1), []
    for _ in range(n):
        y *= beta
        if y > 1:
            out.append("1")
            y -= 1
        else:
            out.append("0")
    return "".join(out)


def min_rotation(w):
    return min(w[i:] + w[:i] for i in range(len(w)))


def farey_words(max_len):
    """Non-degenerate Farey (Christoffel) words by the neighbour recursion."""
    out = []

    def descend(u, v):
        w = u + v
        if len(w) <= max_len:
            out.append(w)
            descend(u, w)
            descend(w, v)
    descend("0", "1")
    return out


def reflect(w):
    return w.translate(str.maketrans("01", "10"))


def farey_generators(max_len):
    """Generators a (maximal rotations) whose reflection is Farey."""
    return sorted(reflect(w) for w in farey_words(max_len))


def interval_alphas(a):
    """(alpha_L, alpha_R) of the parameter interval generated by a."""
    return ("", a), (a[:-1] + "1", min_rotation(a))


def lyndon_count(n):
    """Binary Lyndon words of length n (Moebius formula)."""
    def mobius(k):
        m, p = 1, 2
        while p * p <= k:
            if k % p == 0:
                k //= p
                if k % p == 0:
                    return 0
                m = -m
            p += 1
        return -m if k > 1 else m
    return sum(mobius(d) * 2 ** (n // d) for d in range(1, n + 1)
               if n % d == 0) // n


def totient(n):
    return sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)


def count_words(lower, upper, n):
    """[N_1, ..., N_n]: words all of whose suffixes lie between the
    same-length prefixes of lower and upper (both inclusive).

    Every factor of a sequence x with lower <= sigma^k x <= upper passes,
    so N_m is at least the number of factors of length m of the survivor
    subshift, and log2(N_m)/m bounds its entropy from above.
    """
    lo = ep_prefix(*lower, n)
    up = ep_prefix(*upper, n)
    counts = [0] * n
    stack = [""]
    while stack:
        w = stack.pop()
        for d in "01":
            v = w + d
            m = len(v)
            if all(lo[:m - k] <= v[k:] <= up[:m - k] for k in range(m)):
                counts[m - 1] += 1
                if m < n:
                    stack.append(v)
    return counts


def _dec(text):
    try:
        return Fraction(Decimal(text))
    except (InvalidOperation, TypeError, ValueError):
        raise ValueError("not a decimal: %r" % (text,))


# ----- tau -----------------------------------------------------------------

def _in_interval(alpha, a):
    """alpha_L < alpha <= alpha_R for the interval generated by a, decided
    on the len(alpha) known digits of alpha(beta)."""
    (pre_l, per_l), (pre_r, per_r) = interval_alphas(a)
    n = len(alpha)
    return ep_prefix(pre_l, per_l, n) < alpha <= ep_prefix(pre_r, per_r, n)


def check_tau(beta_text, atlas_depth, stdout):
    """Exact containment of t*, t-diamond or 1 - 1/beta in the printed
    bracket of every certified report, plus an exact re-derivation of the
    regime from alpha(beta)."""
    v = Verdict(items=1, reports=1)
    try:
        doc = json.loads(stdout)
        lo, hi = _dec(doc["tau_lower"]), _dec(doc["tau_upper"])
        regime, cert = doc["regime"], doc["certified"]
        wit = doc["witness_words"]
    except (ValueError, KeyError, TypeError) as e:
        v.error = "malformed tau output: %s" % e
        return v
    if not (0 <= lo <= hi <= 1):
        v.error = "tau bracket out of order: %s" % [str(lo), str(hi)]
        return v
    v.widths.append(float(hi - lo))
    v.certified = bool(cert)
    beta = _dec(beta_text)
    alpha = alpha_digits(beta)
    if regime in ("inside_farey_low", "inside_farey_high"):
        a = wit.get("generator", "")
        if not a or set(a) - set("01"):
            v.error = "missing witness generator"
            return v
        if not _in_interval(alpha, a):
            v.error = "beta %s is not inside the interval of %r" % (
                beta_text, a)
            return v
        cut = ep_prefix(a[:-1] + "1" + "0" + a[1:], a, len(alpha))
        if (alpha < cut) != (regime == "inside_farey_low"):
            v.error = "regime %s contradicts alpha(beta)" % regime
            return v
        try:
            t_star = ep_value(*parse_ep(wit["t_star"]), beta)
            t_diamond = ep_value(*parse_ep(wit["t_diamond"]), beta)
        except (KeyError, ValueError) as e:
            v.error = "bad witness words: %s" % e
            return v
        if cert:
            v.bound(lo <= t_star)
            if regime == "inside_farey_low":
                v.bound(t_star <= hi)
            else:
                v.bound(t_diamond <= hi)
    elif regime in ("outside_closure", "left_endpoint"):
        hits = [a for a in farey_generators(atlas_depth)
                if _in_interval(alpha, a)]
        if regime == "outside_closure" and hits:
            v.error = "beta %s lies in the interval of %r" % (beta_text,
                                                              hits[0])
            return v
        if cert:
            one_minus = 1 - 1 / beta
            v.bound(lo <= one_minus)
            v.bound(one_minus <= hi)
    else:
        v.error = "unknown regime %r" % regime
    return v


# ----- staircase -------------------------------------------------------------

STAIRCASE_HEADER = ["t", "h_lower", "h_upper", "dim_lower", "dim_upper",
                    "method"]


def check_staircase(t_max, samples, stdout):
    """Rows on the grid 0 .. t_max, brackets inside [0, 1], the t = 0
    bracket containing 1, and rows consistent with a non-increasing
    dimension staircase."""
    v = Verdict(items=samples, reports=samples, certified=samples)
    rows = list(csv.reader(io.StringIO(stdout)))
    if not rows or rows[0] != STAIRCASE_HEADER or len(rows) != samples + 1:
        v.error = "staircase CSV has the wrong header or row count"
        return v
    parsed = []
    for i, row in enumerate(rows[1:]):
        try:
            t, hl, hu, dl, du = (_dec(x) for x in row[:5])
        except ValueError as e:
            v.error = "row %d: %s" % (i, e)
            return v
        want = t_max * i / (samples - 1)
        if len(row) != 6 or not row[5] or abs(float(t) - want) > 1e-9:
            v.error = "row %d does not match the hole grid" % i
            return v
        if not (0 <= hl <= hu <= 1 and 0 <= dl <= du <= 1):
            v.error = "row %d: bracket out of order or out of [0, 1]" % i
            return v
        v.widths.append(float(du - dl))
        parsed.append((t, hl, hu, dl, du))
    v.bound(parsed[0][3] <= 1 <= parsed[0][4])
    for (_, _, hu, _, du), (_, hl, _, dl, _) in zip(parsed, parsed[1:]):
        v.bound(hl <= hu)
        v.bound(dl <= du)
    return v


# ----- dimension-exact --------------------------------------------------------

COUNT_LEN = 10


def check_dimension(report, counts):
    """h_lower against log2(N_n)/n, with counts = `count_words(hole, alpha)`,
    and the empty flag whenever some N_n is 0."""
    v = Verdict(items=1, reports=1, certified=1)
    hl, hu, dl, du = (report.h_lower, report.h_upper, report.dim_lower,
                      report.dim_upper)
    if not (0 <= hl <= hu <= 1 and 0 <= dl <= du <= 1):
        v.error = "dimension bracket out of order or out of [0, 1]"
        return v
    if report.empty and hu != 0:
        v.error = "empty survivor set with positive entropy"
        return v
    v.widths.append(du - dl)
    if 0 in counts:
        v.bound(bool(report.empty))
    else:
        v.bound(all(hl * n <= math.log2(c)
                    for n, c in enumerate(counts, 1)))
    return v


# ----- atlas ---------------------------------------------------------------

def root_of_alpha(pre, per):
    """Float bisection for the beta in (1, 2] with sum alpha_i beta^-i = 1."""
    def f(b):
        r = 1.0 / b
        head = sum(r ** (i + 1) for i, d in enumerate(pre) if d == "1")
        cyc = sum(r ** (i + 1) for i, d in enumerate(per) if d == "1")
        return head + r ** len(pre) * cyc / (1.0 - r ** len(per)) - 1.0
    lo, hi = 1.0 + 1e-12, 2.0
    for _ in range(200):
        mid = (lo + hi) / 2
        if mid in (lo, hi):
            break
        if f(mid) > 0:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


def check_atlas(max_len, kind, digits, stdout):
    """Record count from the Lyndon/totient formulas, beta_L < beta_R, no
    partial overlap, printed nesting relations, and endpoints against an
    independent float bisection."""
    v = Verdict()
    try:
        doc = json.loads(stdout)
        recs = [(r["generator"], _dec(r["beta_L"]), _dec(r["beta_R"]),
                 parse_ep(r["alpha_L"]), parse_ep(r["alpha_R"]))
                for r in doc["intervals"]]
        nesting = {(n["first"], n["second"]): n["relation"]
                   for n in doc["nesting"]}
    except (ValueError, KeyError, TypeError) as e:
        v.error = "malformed atlas output: %s" % e
        return v
    v.items = v.reports = v.certified = len(recs)
    count = lyndon_count if kind == "all" else totient
    if len(recs) != sum(count(n) for n in range(2, max_len + 1)) or \
            len({r[0] for r in recs}) != len(recs):
        v.error = "atlas has %d records, formula says otherwise" % len(recs)
        return v
    tol = 0.5 * 10.0 ** -(digits + 1) + 1e-15
    for a, bl, br, al, ar in recs:
        if not bl < br or not ep_equal(al, ("", a)) or \
                not ep_equal(ar, interval_alphas(a)[1]):
            v.error = "bad interval record for %r" % a
            return v
        for printed, seq in ((bl, al), (br, ar)):
            err = abs(float(printed) - root_of_alpha(*seq))
            v.bound(err <= tol)
            v.widths.append(2 * err)
    for i, (a1, l1, r1, *_) in enumerate(recs):
        for a2, l2, r2, *_ in recs[i + 1:]:
            if r1 <= l2 or r2 <= l1:
                want = "disjoint"
            elif l1 == l2 and r1 == r2:
                want = "equal"
            elif l2 <= l1 and r1 <= r2:
                want = "first_inside_second"
            elif l1 <= l2 and r2 <= r1:
                want = "second_inside_first"
            else:
                v.error = "intervals %r and %r overlap partially" % (a1, a2)
                return v
            if nesting.get((a1, a2), "disjoint") != want:
                v.error = "nesting of %r and %r should be %s" % (a1, a2,
                                                                 want)
                return v
    return v
