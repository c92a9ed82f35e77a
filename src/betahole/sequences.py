"""Eventually periodic binary sequences and symbolic order relations.

An EpSequence stores the infinite sequence preperiod . period^infinity in
a canonical form (primitive period, shortest possible preperiod), so that
structural equality coincides with equality of the infinite sequences.
"""

from dataclasses import dataclass

from .errors import NotInQ
from . import words as W


@dataclass(frozen=True)
class EpSequence:
    pre: str
    per: str

    def __post_init__(self):
        if self.pre:
            W.check_word(self.pre)
        W.check_word(self.per)
        # the primitive root of per: its first recurrence in per + per
        per = self.per[:(self.per * 2).find(self.per, 1)]
        pre = self.pre
        # absorb a preperiod tail that merely repeats the period
        while pre and pre[-1] == per[-1]:
            pre = pre[:-1]
            per = per[-1] + per[:-1]
        object.__setattr__(self, "pre", pre)
        object.__setattr__(self, "per", per)

    def prefix(self, n):
        k = len(self.pre)
        if n <= k:
            return self.pre[:n]
        reps = (n - k) // len(self.per) + 1
        return (self.pre + self.per * reps)[:n]

    def shift(self, n=1):
        """sigma^n of the sequence."""
        k = len(self.pre)
        if n <= k:
            return EpSequence(self.pre[n:], self.per)
        r = (n - k) % len(self.per)
        return EpSequence("", self.per[r:] + self.per[:r])

    def is_zero_tail(self):
        return self.per == "0"

    @property
    def window(self):
        """Number of leading digits that determine the whole sequence."""
        return len(self.pre) + len(self.per)

    @classmethod
    def parse(cls, text):
        """Parse the "PRE(PER)" text form, e.g. "11(01)" or "(10)"."""
        text = text.strip()
        if "(" not in text or not text.endswith(")"):
            raise ValueError("expected PRE(PER) with PER nonempty: %r" % text)
        pre, per = text[:-1].split("(", 1)
        return cls(pre, per)

    def __str__(self):
        return "%s(%s)" % (self.pre, self.per)


def lex_compare_ep(u, v):
    """Exact comparison of two eventually periodic sequences (-1, 0, 1).

    Past the longer preperiod both are periodic, with periods p and q;
    by Fine and Wilf two such tails that agree on p + q digits agree
    forever, so the first difference lies in that window.
    """
    if u == v:
        return 0
    n = max(len(u.pre), len(v.pre)) + len(u.per) + len(v.per)
    a, b = u.prefix(n), v.prefix(n)
    return (a > b) - (a < b)


def extreme_shifts(x):
    """The least and the greatest shift sigma^n x, n >= 0. Any two shifts
    have preperiods <= len(pre) and periods that are rotations of per, so
    lex_compare_ep orders them by their first 2 * window digits."""
    w = x.window
    p = x.prefix(3 * w)
    ranked = sorted(range(w), key=lambda n: p[n:n + 2 * w])
    return x.shift(ranked[0]), x.shift(ranked[-1])


def is_in_Q(a):
    """True iff a is the quasi-greedy expansion of 1 for some base in (1,2]:
    it does not end in zeros and dominates all of its shifts."""
    return not a.is_zero_tail() and extreme_shifts(a)[1] == a


def require_in_Q(a):
    """Raise NotInQ unless a is in Q (see is_in_Q)."""
    if not is_in_Q(a):
        raise NotInQ("%s is not a quasi-greedy expansion of 1" % a)


def is_admissible(x, alpha):
    """Parry's criterion: every shift of x lies strictly below alpha."""
    return lex_compare_ep(extreme_shifts(x)[1], alpha) < 0


ONES = EpSequence("", "1")
