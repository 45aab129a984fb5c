"""Substitutions and free-group endomorphisms on two letters.

A Substitution sends each letter to a nonempty positive word; a
FreeEndo sends each letter to a reduced word over abAB.  Both extend to
arbitrary reduced words by concatenation and free reduction.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from . import words
from .errors import ParseError, SturmdualError


@dataclass(frozen=True)
class Mat2:
    """2x2 integer matrix; entry (i, j) counts letter i in the image of j."""

    m11: int
    m12: int
    m21: int
    m22: int

    def rows(self) -> tuple[tuple[int, int], tuple[int, int]]:
        return ((self.m11, self.m12), (self.m21, self.m22))

    def det(self) -> int:
        return self.m11 * self.m22 - self.m12 * self.m21

    def transpose(self) -> "Mat2":
        return Mat2(self.m11, self.m21, self.m12, self.m22)

    def mul(self, other: "Mat2") -> "Mat2":
        return Mat2(
            self.m11 * other.m11 + self.m12 * other.m21,
            self.m11 * other.m12 + self.m12 * other.m22,
            self.m21 * other.m11 + self.m22 * other.m21,
            self.m21 * other.m12 + self.m22 * other.m22,
        )

    def apply(self, vec: tuple[int, int]) -> tuple[int, int]:
        return (
            self.m11 * vec[0] + self.m12 * vec[1],
            self.m21 * vec[0] + self.m22 * vec[1],
        )

    def power(self, n: int) -> "Mat2":
        if n < 0:
            raise ValueError("negative power")
        out = MAT_IDENTITY
        base = self
        while n:
            if n & 1:
                out = out.mul(base)
            base = base.mul(base)
            n >>= 1
        return out

    def inverse_unimodular(self) -> "Mat2":
        d = self.det()
        if d not in (1, -1):
            raise SturmdualError(f"matrix has determinant {d}, not +-1")
        return Mat2(self.m22 // d, -self.m12 // d, -self.m21 // d, self.m11 // d)

    def is_positive(self) -> bool:
        return min(self.m11, self.m12, self.m21, self.m22) > 0

    def is_primitive(self) -> bool:
        # Wielandt bound for 2x2 nonnegative matrices: primitive iff M^2 > 0
        if min(self.m11, self.m12, self.m21, self.m22) < 0:
            return False
        return self.mul(self).is_positive()


MAT_IDENTITY = Mat2(1, 0, 0, 1)


class _MorphismBase:
    """Shared extension-by-concatenation machinery."""

    img_a: str
    img_b: str

    def image(self, letter: str) -> str:
        if letter == "a":
            return self.img_a
        if letter == "b":
            return self.img_b
        raise ValueError(f"not a letter: {letter!r}")

    def apply(self, word: str) -> str:
        """Image of a reduced word, freely reduced."""
        pieces = []
        for c in word:
            if c in "ab":
                pieces.append(self.image(c))
            elif c in "AB":
                pieces.append(words.invert_word(self.image(c.lower())))
            else:
                raise ValueError(f"not a signed letter: {c!r}")
        out = ""
        for piece in pieces:
            out = words.reduce_concat(out, piece)
        return out

    def power(self, n: int):
        if n < 1:
            raise ValueError("power must be >= 1")
        out = self
        for _ in range(n - 1):
            out = out.compose(self)
        return out

    def matrix(self) -> Mat2:
        na_a, nb_a = words.abelianize(self.img_a)
        na_b, nb_b = words.abelianize(self.img_b)
        return Mat2(na_a, na_b, nb_a, nb_b)

    def det(self) -> int:
        return self.matrix().det()

    def is_unimodular(self) -> bool:
        return self.det() in (1, -1)


@dataclass(frozen=True)
class Substitution(_MorphismBase):
    """Positive morphism: both letter images nonempty words over ab."""

    img_a: str
    img_b: str

    def __post_init__(self):
        for img in (self.img_a, self.img_b):
            if not img:
                raise ValueError("substitution images must be nonempty")
            words.check_positive(img)

    def apply_positive(self, word: str) -> str:
        """Image of a positive word (no reduction needed)."""
        return "".join(self.image(c) for c in word)

    def compose(self, other: "Substitution | FreeEndo"):
        """self after other: (self . other)(x) = self(other(x))."""
        if isinstance(other, Substitution):
            return Substitution(
                self.apply_positive(other.img_a), self.apply_positive(other.img_b)
            )
        return FreeEndo(self.apply(other.img_a), self.apply(other.img_b))

    def is_primitive(self) -> bool:
        return self.matrix().is_primitive()

    def __str__(self):
        return f"a->{self.img_a},b->{self.img_b}"


@dataclass(frozen=True)
class FreeEndo(_MorphismBase):
    """General endomorphism of the rank-2 free group."""

    img_a: str
    img_b: str

    def __post_init__(self):
        words.check_reduced(self.img_a)
        words.check_reduced(self.img_b)

    def compose(self, other: "Substitution | FreeEndo") -> "FreeEndo":
        return FreeEndo(self.apply(other.img_a), self.apply(other.img_b))

    def __str__(self):
        return f"a->{words.format_word(self.img_a)},b->{words.format_word(self.img_b)}"


IDENTITY = Substitution("a", "b")


_RULE_RE = re.compile(r"^([ab])->([abAB]*)$")


def _parse_rules(text: str) -> dict[str, str]:
    compact = "".join(text.split())
    parts = [p for p in re.split(r"[,;]", compact) if p]
    rules: dict[str, str] = {}
    for part in parts:
        m = _RULE_RE.match(part)
        if not m:
            raise ParseError(f"bad substitution rule {part!r}", text.find(part))
        letter, image = m.group(1), m.group(2)
        if letter in rules:
            raise ParseError(f"duplicate rule for {letter!r}")
        rules[letter] = image
    if set(rules) != {"a", "b"}:
        raise ParseError("need exactly one rule for each of a and b")
    return rules


def parse_substitution(text: str) -> Substitution:
    """Parse ``a->W,b->W`` with W nonempty over ab (``;`` also separates)."""
    rules = _parse_rules(text)
    for letter, image in rules.items():
        if not image or not words.is_positive(image):
            raise ParseError(f"rule for {letter!r} must be a nonempty word over ab")
    return Substitution(rules["a"], rules["b"])


def parse_endo(text: str) -> FreeEndo:
    """Parse ``a->W,b->W`` with W over abAB (``e`` allowed for empty)."""
    rules = _parse_rules(text)
    return FreeEndo(
        words.reduce_word(rules["a"] if rules["a"] != "e" else ""),
        words.reduce_word(rules["b"] if rules["b"] != "e" else ""),
    )


# ---------------------------------------------------------------------------
# Fixed points and factor languages
# ---------------------------------------------------------------------------


def letter_fixing_power(sigma: Substitution) -> tuple[int, str, Substitution]:
    """(p, x, sigma^p) for the least p <= 4 (p <= 2 if sigma is primitive)
    whose image of a letter x, a before b, starts with x and is longer."""
    tau = sigma
    for p in range(1, 5):
        for letter in "ab":
            image = tau.image(letter)
            if image.startswith(letter) and len(image) > 1:
                return p, letter, tau
        tau = tau.compose(sigma)
    raise SturmdualError("no expanding letter-fixed power <= 4; not primitive")


def fixed_point_prefix(sigma: Substitution, n: int) -> str:
    """Length-n prefix of the one-sided fixed point of sigma^p, for the
    letter-fixing power p (see letter_fixing_power)."""
    if n < 0:
        raise ValueError("prefix length must be >= 0")
    _, word, tau = letter_fixing_power(sigma)
    while len(word) < n:
        word = tau.apply_positive(word)
    prefix = word[:n]
    if not tau.apply_positive(prefix).startswith(prefix):
        raise SturmdualError(f"prefix of length {n} is not fixed by {tau}")
    return prefix


def factor_set(sigma: Substitution, n: int) -> set[str]:
    """All length-n factors of the substitution language.

    The length-n windows of sigma^k(a) and sigma^k(b), for the first k
    at which both are at least 2n long, are closed under sigma: the
    windows of each member's image join the set until none is new.
    """
    if n < 1:
        return set()
    if not sigma.is_primitive():
        raise SturmdualError("factor language requires a primitive substitution")
    wa, wb = "a", "b"
    # ends, since the iterates of a primitive substitution grow
    while min(len(wa), len(wb)) < 2 * n:
        wa, wb = sigma.apply_positive(wa), sigma.apply_positive(wb)
    found = {w[i : i + n] for w in (wa, wb) for i in range(len(w) - n + 1)}
    pending = list(found)
    while pending:
        image = sigma.apply_positive(pending.pop())
        for i in range(len(image) - n + 1):
            window = image[i : i + n]
            if window not in found:
                found.add(window)
                pending.append(window)
    return found


def factor_language(sigma: Substitution, max_len: int) -> set[str]:
    """All factors of length <= max_len of the substitution language.

    The language of a primitive substitution is right-extendable, so
    these are exactly the prefixes of its length-max_len factors.
    """
    return {
        w[:m] for w in factor_set(sigma, max_len) for m in range(1, max_len + 1)
    }


def complexity_profile(sigma: Substitution, max_len: int) -> list[int]:
    """Factor counts p(1), ..., p(max_len)."""
    lang = factor_language(sigma, max_len)
    counts = [0] * max_len
    for w in lang:
        counts[len(w) - 1] += 1
    return counts


def is_sturmian_language(sigma: Substitution, max_len: int) -> bool:
    """p(n) = n + 1 for all n <= max_len."""
    return complexity_profile(sigma, max_len) == [n + 1 for n in range(1, max_len + 1)]


def hulls_equal_upto(sigma: Substitution, rho: Substitution, max_len: int) -> bool:
    """Finite certificate: equal factor sets at every length <= max_len.

    A necessary condition for equal hulls; conclusive as a refutation.
    Shorter factors are prefixes of length-max_len ones, so comparing
    the top length suffices.
    """
    return factor_set(sigma, max_len) == factor_set(rho, max_len)
