"""Word combinatorics: rotations, Lyndon tests, Farey families."""

import sys
from itertools import product

import pytest
from hypothesis import given, strategies as st

from betahole import words as W
from betahole.sequences import EpSequence
from betahole.errors import BadWord, OutOfRange

words_st = st.text(alphabet="01", min_size=1, max_size=14)


def all_words(n):
    for bits in product("01", repeat=n):
        yield "".join(bits)


def farey_pairs(max_len):
    """Each non-degenerate Farey word of length <= max_len with its
    (left, right) factors, by the neighbour recursion on an explicit
    stack."""
    out, stack = {}, [("0", "1")]
    while stack:
        u, v = stack.pop()
        w = u + v
        if len(w) <= max_len:
            out[w] = (u, v)
            stack += [(u, w), (w, v)]
    return out


def test_check_word_rejects_anything_but_a_binary_string():
    # a bad word is still a ValueError to a caller that knows only that
    assert issubclass(BadWord, ValueError)
    for w in ["0", "1", "0110"]:
        assert W.check_word(w) == w
    for bad in ["", "012", "0 1", None, ["0", "1"]]:
        with pytest.raises(BadWord, match="nonempty string over"):
            W.check_word(bad)


def test_plus():
    assert W.plus("10") == "11"
    assert W.plus("0") == "1"
    with pytest.raises(BadWord, match=r"^plus\(\) needs a word ending in 0: "
                       r"'11'$"):
        W.plus("11")


@given(words_st)
def test_plus_flips_a_trailing_zero(w):
    if w[-1] == "0":
        assert W.plus(w) == w[:-1] + "1"
    else:
        with pytest.raises(BadWord, match="needs a word ending in 0"):
            W.plus(w)


@given(words_st)
def test_reflect_involution(w):
    assert W.reflect(W.reflect(w)) == w
    assert W.reflect(w).count("1") == w.count("0")


def brute_lyndon(w):
    """A word is Lyndon iff strictly smaller than all proper rotations."""
    return all(w < w[i:] + w[:i] for i in range(1, len(w)))


def test_is_lyndon_matches_oracle_up_to_12():
    for n in range(1, 13):
        for w in all_words(n):
            assert W.is_lyndon(w) == brute_lyndon(w), w


def test_lyndon_words_match_is_lyndon_filter_up_to_14():
    brute = sorted(w for n in range(1, 15) for w in all_words(n)
                   if W.is_lyndon(w))
    for n in range(0, 15):
        assert W.lyndon_words(n) == [w for w in brute if len(w) <= n], n


def test_rotation_extremes():
    assert W.lyndon_rotation("10") == ("01", 1)
    assert W.max_rotation("0011") == "1100"
    for w in ("0101", "1010"):
        msg = "^word is a power of a shorter word: '%s'$" % w
        with pytest.raises(BadWord, match=msg):
            W.max_rotation(w)
        with pytest.raises(BadWord, match=msg):
            W.lyndon_rotation(w)


@given(words_st)
def test_rotation_extremes_are_rotations(w):
    if not W.is_aperiodic(w):
        return
    rots = W.rotations(w)
    r, j = W.lyndon_rotation(w)
    assert r == min(rots) and r == w[j:] + w[:j]
    assert W.max_rotation(w) == max(rots)


def test_primitive_period_from_the_ww_identity_up_to_14():
    """is_aperiodic and the canonical period of (w)^inf equal the old
    divisor-loop definitions on every word of length <= 14."""
    def root(w):
        n = len(w)
        for d in range(1, n + 1):
            if n % d == 0 and w == w[:d] * (n // d):
                return w[:d]

    for n in range(1, 15):
        for w in all_words(n):
            r = root(w)
            assert W.is_aperiodic(w) == (r == w), w
            assert EpSequence("", w).per == r, w


def test_farey_levels():
    assert W.farey_level(0) == ("0", "1")
    assert W.farey_level(1) == ("0", "01", "1")
    assert W.farey_level(2) == ("0", "001", "01", "011", "1")
    with pytest.raises(OutOfRange, match="^level 15 exceeds maximum 14$"):
        W.farey_level(15)
    with pytest.raises(OutOfRange, match="^level 99 exceeds maximum 14$"):
        W.farey_level(99)


def farey_level_recursive(n):
    """The level recursion as first written: level n - 1 with the
    concatenation of each neighbouring pair put between them."""
    if n == 0:
        return ("0", "1")
    prev = farey_level_recursive(n - 1)
    out = []
    for i, w in enumerate(prev):
        out.append(w)
        if i + 1 < len(prev):
            out.append(w + prev[i + 1])
    return tuple(out)


def test_farey_level_matches_the_recursion_up_to_12():
    for n in range(13):
        assert W.farey_level(n) == farey_level_recursive(n), n
    with pytest.raises(OutOfRange, match="^level must be nonnegative$"):
        W.farey_level(-1)


def test_farey_level_ordered_and_nested():
    prev = None
    for n in range(0, 8):
        lvl = W.farey_level(n)
        assert list(lvl) == sorted(lvl)
        if prev is not None:
            assert set(prev) <= set(lvl)
        prev = lvl


def test_is_farey_against_levels():
    in_levels = set(W.farey_level(7))
    farey = set(farey_pairs(12)) | {"0", "1"}
    for n in range(1, 13):
        for w in all_words(n):
            assert W.is_farey(w) == (w in farey), w
            if w in in_levels:
                assert W.is_farey(w), w
    # every level-7 word of length <= 8 must be recognized; non-members
    # of matching length must be rejected
    for w in ["0011", "0100", "1101", "010011"]:
        assert not W.is_farey(w)


def test_christoffel_words_match_the_recursion_up_to_20():
    ref = farey_pairs(20)
    for n in range(1, 21):
        assert W.farey_words(n) == sorted(w for w in ref if len(w) <= n), n
    for w, pair in ref.items():
        assert W.standard_factorization(w) == pair, w


def test_long_farey_words_need_no_recursion_depth():
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(120)
    try:
        words = W.farey_words(150)
        w = W.christoffel(617, 2000)
        farey = W.is_farey(w)
        u, v = W.standard_factorization(w)
    finally:
        sys.setrecursionlimit(limit)
    assert len(words) == len(set(words)) and max(map(len, words)) == 150
    assert farey and u + v == w
    assert (len(u), len(v)) == (953, 1047)
    assert W.is_farey(u) and W.is_farey(v)


def test_standard_factorization():
    assert W.standard_factorization("01") == ("0", "1")
    assert W.standard_factorization("001") == ("0", "01")
    assert W.standard_factorization("011") == ("01", "1")
    assert W.standard_factorization("01011") == ("01", "011")
    with pytest.raises(BadWord, match="^degenerate Farey word: '0'$"):
        W.standard_factorization("0")
    with pytest.raises(BadWord, match="^not a Farey word: '0011'$"):
        W.standard_factorization("0011")


def test_one_non_degenerate_farey_check():
    """standard_factorization and check_palindrome_property raise the same
    errors as require_farey."""
    for check in (W.require_farey, W.standard_factorization,
                  W.check_palindrome_property):
        for w in ("0", "1"):
            with pytest.raises(BadWord,
                               match=r"^degenerate Farey word: '%s'$" % w):
                check(w)
        with pytest.raises(BadWord, match=r"^not a Farey word: '0011'$"):
            check("0011")
        with pytest.raises(BadWord, match="nonempty string over"):
            check("012")
    assert W.require_farey("0010101") is None


def test_factorization_concatenates():
    for w in W.farey_words(16):
        u, v = W.standard_factorization(w)
        assert u + v == w
        assert W.is_farey(u) and W.is_farey(v)


def test_farey_properties_f1_f2_f3_up_to_20():
    """Palindromic interior; max rotation = reversal; Lyndon with the
    second-smallest rotation given by swapping the standard factors."""
    for w in W.farey_words(20):
        m = len(w)
        assert W.check_palindrome_property(w), w          # (f1)
        assert W.max_rotation(w) == w[::-1], w            # (f2)
        assert W.is_lyndon(w), w                          # (f3)
        u, v = W.standard_factorization(w)
        rots = sorted(W.rotations(w))
        assert rots[1] == v + u, w                        # (f3)
