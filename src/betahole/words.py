"""Exact combinatorics on finite binary words.

Words are plain Python strings over the alphabet {0,1}, compared as
strings; rotations, Lyndon words and Farey words are all ordered that
way.
"""

from math import gcd

from .errors import (
    DegenerateFarey,
    LastDigitMismatch,
    LevelTooLarge,
    NotFarey,
    PeriodicWord,
)

# level n holds 3**n + 1 letters in all: 4,782,970 at level 14
MAX_FAREY_LEVEL = 14


def check_word(w):
    if not (isinstance(w, str) and w and not w.strip("01")):
        raise ValueError("word must be a nonempty string over {0,1}: %r" % (w,))
    return w


def plus(w):
    """Flip a trailing 0 to a 1."""
    check_word(w)
    if w[-1] != "0":
        raise LastDigitMismatch("plus() needs a word ending in 0: %r" % w)
    return w[:-1] + "1"


_FLIP = str.maketrans("01", "10")


def reflect(w):
    """Digitwise complement of the word."""
    check_word(w)
    return w.translate(_FLIP)


def is_aperiodic(w):
    """True unless w is a power of a strictly shorter word: the first
    p >= 1 at which w occurs in ww is the length of its primitive root."""
    check_word(w)
    return (w + w).find(w, 1) == len(w)


def is_lyndon(w):
    """True iff w is aperiodic and strictly smaller than its other
    rotations (single letters count as Lyndon)."""
    return is_aperiodic(w) and lyndon_rotation(w)[0] == w


def lyndon_words(max_len):
    """Every Lyndon word of length <= max_len in lexicographic order, by
    Duval's step: repeat the word to length max_len, drop trailing 1s,
    raise the last digit."""
    out, w = [], "0" if max_len >= 1 else ""
    while w:
        out.append(w)
        w = (w * max_len)[:max_len].rstrip("1")
        if w:
            w = w[:-1] + "1"
    return out


def rotations(w):
    return [w[i:] + w[:i] for i in range(len(w))]


def _aperiodic_rotations(w):
    if not is_aperiodic(w):
        raise PeriodicWord("word is a power of a shorter word: %r" % w)
    return rotations(w)


def lyndon_rotation(w):
    """Smallest cyclic rotation of an aperiodic word, with its shift.

    Returns (rotated, j) such that rotated = w[j:] + w[:j].
    """
    best = min(_aperiodic_rotations(w))
    return best, (w + w).index(best)


def max_rotation(w):
    """Largest cyclic rotation of an aperiodic word."""
    return max(_aperiodic_rotations(w))


def farey_level(n):
    """The n-th level of the Farey recursion as an ordered tuple.

    Level 0 is ("0", "1"); level n interleaves level n-1 with the
    concatenations of its neighbouring pairs, so it has 2**n + 1 entries.
    """
    if n < 0:
        raise ValueError("level must be nonnegative")
    if n > MAX_FAREY_LEVEL:
        raise LevelTooLarge(
            "level %d exceeds maximum %d" % (n, MAX_FAREY_LEVEL))
    level = ["0", "1"]
    for _ in range(n):
        out = [level[0]]
        for u, v in zip(level, level[1:]):
            out += (u + v, v)
        level = out
    return tuple(level)


def christoffel(p, q):
    """The lower Christoffel word of slope p/q: letter i is
    floor((i+1)p/q) - floor(ip/q), so it has length q and p ones."""
    return "".join(str((i + 1) * p // q - i * p // q) for i in range(q))


def farey_words(max_len):
    """Sorted list of all non-degenerate Farey words of length <= max_len:
    the Christoffel words of the reduced slopes p/q, 0 < p < q <= max_len."""
    return sorted(christoffel(p, q) for q in range(2, max_len + 1)
                  for p in range(1, q) if gcd(p, q) == 1)


def is_farey(w):
    """True iff w occurs in some Farey level (the degenerate '0' and '1'
    included), i.e. w is the Christoffel word of its own reduced slope."""
    check_word(w)
    p, q = w.count("1"), len(w)
    return gcd(p, q) == 1 and w == christoffel(p, q)


def require_farey(w):
    """Raise NotFarey unless w is a non-degenerate Farey word."""
    if w in ("0", "1"):
        raise DegenerateFarey("degenerate Farey word: %r" % w)
    if not is_farey(w):
        raise NotFarey("not a Farey word: %r" % w)


def standard_factorization(w):
    """The unique split of a non-degenerate Farey word into the two Farey
    words whose concatenation produced it in the level recursion; for
    c(p, q) the first factor has length p^-1 mod q."""
    require_farey(w)
    k = pow(w.count("1"), -1, len(w))
    return w[:k], w[k:]


def check_palindrome_property(w):
    """True iff the interior of the Farey word reads the same both ways."""
    require_farey(w)
    inner = w[1:-1]
    return inner == inner[::-1]
