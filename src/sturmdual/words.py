"""Positive and freely reduced words over the two-letter alphabet.

Positive words are plain strings over ``"ab"``.  Free-group elements are
strings over ``"abAB"`` where an uppercase letter is the inverse of its
lowercase partner; they are kept freely reduced (no adjacent inverse
pair).  The empty word prints as ``"e"``.
"""

from __future__ import annotations

from itertools import accumulate

from .errors import ParseError

LETTERS = "ab"
SIGNED_LETTERS = "abAB"

_FLIP_A = str.maketrans("aA", "Aa")
_DROP_LETTERS = str.maketrans("", "", LETTERS)


def is_positive(word: str) -> bool:
    """Every letter is a or b (the empty word included)."""
    return not word.translate(_DROP_LETTERS)


def is_reduced(word: str) -> bool:
    if any(c not in SIGNED_LETTERS for c in word):
        return False
    return all(a.swapcase() != b for a, b in zip(word, word[1:]))


def check_positive(word: str) -> str:
    if is_positive(word):
        return word
    # the slow scan only locates the first offending letter
    i = next(i for i, c in enumerate(word) if c not in LETTERS)
    raise ParseError(f"not a positive word: {word!r}", i)


def check_reduced(word: str) -> str:
    for i, c in enumerate(word):
        if c not in SIGNED_LETTERS:
            raise ParseError(f"not a word over a, b, A, B: {word!r}", i)
    if not is_reduced(word):
        raise ParseError(f"word is not freely reduced: {word!r}")
    return word


def reduce_word(word: str) -> str:
    """Freely reduce a string over abAB by cancelling adjacent inverses."""
    out: list[str] = []
    for c in word:
        if out and out[-1] == c.swapcase():
            out.pop()
        else:
            out.append(c)
    return "".join(out)


def reduce_concat(u: str, v: str) -> str:
    """Product u*v in the free group, freely reduced.

    Both inputs must already be reduced; only the junction can cancel.
    """
    i = len(u)
    j = 0
    while i > 0 and j < len(v) and u[i - 1] == v[j].swapcase():
        i -= 1
        j += 1
    return u[:i] + v[j:]


def invert_word(u: str) -> str:
    """Group inverse: reverse the word and flip every sign."""
    return u[::-1].swapcase()


def prefix_counts(word: str) -> list[tuple[int, int]]:
    """The letter counts (|w|_a, |w|_b) of every prefix w of a positive
    word, the empty prefix first: the lattice point of w is |w|_a + |w|_b*ell."""
    return [(m - nb, nb) for m, nb in enumerate(accumulate(map("b".__eq__, word), initial=0))]


def abelianize(u: str) -> tuple[int, int]:
    """Signed occurrence counts (n_a, n_b)."""
    return (u.count("a") - u.count("A"), u.count("b") - u.count("B"))


def flip_a(u: str) -> str:
    """Map a to its inverse and back, fixing b.  Involution."""
    return reduce_word(u.translate(_FLIP_A))


def format_word(u: str) -> str:
    return u if u else "e"
