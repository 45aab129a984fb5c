"""Checks of the library's outputs that share no code with the library.

Exact values are compared as ``Surd`` numbers a + b*sqrt(d) with rational
a, b, built here from the library's printed form (``format_quad``) or
from ``sympy`` 1.14, which computes the eigendata and continued
fraction expansions on its own.  Words are reduced in the free group by the stack
reduction below.  Every check raises ``CheckError`` with a message
naming what disagreed.
"""

from __future__ import annotations

import json
import math
import re
from fractions import Fraction
from functools import lru_cache

import sympy as sp
from sympy.ntheory import continued_fraction_periodic
from sympy.polys.matrices import DomainMatrix


_X = sp.Symbol("x")


class CheckError(Exception):
    """An output disagrees with the independent computation."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


# ---------------------------------------------------------------------------
# Exact numbers a + b*sqrt(d)
# ---------------------------------------------------------------------------


class Surd:
    """a + b*sqrt(d) with rational a, b and squarefree d > 1 (d = 0 when b = 0)."""

    __slots__ = ("a", "b", "d")

    def __init__(self, a, b=0, d=0):
        self.a = Fraction(a)
        self.b = Fraction(b)
        self.d = d if self.b else 0

    def _field(self, other: "Surd") -> int:
        if self.d and other.d and self.d != other.d:
            raise CheckError(f"values from different fields sqrt({self.d}), sqrt({other.d})")
        return self.d or other.d

    def __add__(self, other):
        other = as_surd(other)
        return Surd(self.a + other.a, self.b + other.b, self._field(other))

    def __neg__(self):
        return Surd(-self.a, -self.b, self.d)

    def __sub__(self, other):
        return self + (-as_surd(other))

    def __mul__(self, other):
        other = as_surd(other)
        d = self._field(other)
        return Surd(self.a * other.a + self.b * other.b * d, self.a * other.b + self.b * other.a, d)

    def sign(self) -> int:
        """Sign decided on integers: compare a^2 with b^2 d when the signs differ."""
        sa = (self.a > 0) - (self.a < 0)
        sb = (self.b > 0) - (self.b < 0)
        if sb == 0 or sa == sb:
            return sa or sb
        if sa == 0:
            return sb
        return sa if self.a * self.a > self.b * self.b * self.d else sb

    def __eq__(self, other):
        return (self - as_surd(other)).sign() == 0

    def __lt__(self, other):
        return (self - as_surd(other)).sign() < 0

    def __le__(self, other):
        return (self - as_surd(other)).sign() <= 0

    def __hash__(self):
        return hash((self.a, self.b, self.d))

    def __repr__(self):
        return f"Surd({self.a}, {self.b}, {self.d})"


def as_surd(x) -> Surd:
    return x if isinstance(x, Surd) else Surd(x)


_RATIONAL = r"\d+(?:/\d+)?"
# the library prints a rational p, or a root q*sqrt(d) (q = 1 omitted) after "-" or after p and a sign
_RATIONAL_TEXT = re.compile(rf"^-?{_RATIONAL}$")
_SURD_TEXT = re.compile(
    rf"^(?:(?P<p>-?{_RATIONAL})(?P<sign>[+-])|(?P<neg>-)?)(?:(?P<q>{_RATIONAL})\*)?sqrt\((?P<d>\d+)\)$"
)


def parse_printed(text: str) -> Surd:
    """Read the printed form ``p``, ``p+q*sqrt(d)``, ``-q*sqrt(d)`` and so on."""
    if _RATIONAL_TEXT.match(text):
        return Surd(Fraction(text))
    m = _SURD_TEXT.match(text)
    require(m is not None, f"unreadable exact value {text!r}")
    b = Fraction(m["q"]) if m["q"] else Fraction(1)
    negative = "-" in (m["sign"], m["neg"])
    return Surd(Fraction(m["p"] or 0), -b if negative else b, int(m["d"]))


def _surd_of_sympy(expr) -> Surd:
    """Surd of an explicit sympy sum p + q*sqrt(d), read off its terms."""
    a, b, d = Fraction(0), Fraction(0), 0
    for term, coeff in expr.as_coefficients_dict().items():
        coeff = Fraction(int(coeff.p), int(coeff.q))
        if term == 1:
            a = coeff
        else:
            radicand = term**2
            require(radicand.is_Integer and d in (0, int(radicand)), f"{expr} is not p + q*sqrt(d)")
            b, d = coeff, int(radicand)
    return Surd(a, b, d)


def _surd_of_field(x, d: int) -> Surd:
    """Surd of an element of sympy's QQ<sqrt(d)>, coefficients highest degree first."""
    coeffs = [Fraction(int(c.numerator), int(c.denominator)) for c in x.to_list()]
    coeffs = [Fraction(0)] * (2 - len(coeffs)) + coeffs
    return Surd(coeffs[1], coeffs[0], d)


# ---------------------------------------------------------------------------
# Eigendata from sympy
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def eigendata(m11: int, m12: int, m21: int, m22: int) -> dict[str, Surd]:
    """Perron data of a primitive unimodular matrix, computed by sympy.

    sympy gives the eigenvalues as radicals and the eigenvectors as
    nullspaces over the field QQ<sqrt(d)>.  lam is the dominant
    eigenvalue; alpha the second entry of the right eigenvector scaled to
    entry sum 1; ell the second entry of the left eigenvector scaled to
    first entry 1; alpha_t the alpha of the transposed matrix.  The
    ``_conj`` values belong to the other eigenvalue.
    """
    # floats only order the two distinct real eigenvalues
    values = sorted(sp.Matrix([[m11, m12], [m21, m22]]).eigenvals(), key=float, reverse=True)
    lams = [_surd_of_sympy(v) for v in values]
    d = lams[0].d
    require(d > 1, f"matrix {(m11, m12, m21, m22)} has rational eigenvalues")
    field = sp.QQ.algebraic_field((sp.Poly(_X**2 - d, _X), sp.sqrt(d)))
    root = field.new([1, 0])
    out = {}
    for suffix, lam in (("", lams[0]), ("_conj", lams[1])):
        x = field.convert(sp.QQ(lam.a.numerator, lam.a.denominator)) + field.convert(
            sp.QQ(lam.b.numerator, lam.b.denominator)
        ) * root
        shifted = DomainMatrix(
            [[field.convert(m11) - x, field.convert(m12)], [field.convert(m21), field.convert(m22) - x]], (2, 2), field
        )
        (v1, v2), = shifted.nullspace().to_list()
        (w1, w2), = shifted.transpose().nullspace().to_list()
        out["lam" + suffix] = lam
        out["alpha" + suffix] = _surd_of_field(v2 / (v1 + v2), d)
        out["ell" + suffix] = _surd_of_field(w2 / w1, d)
        out["alpha_t" + suffix] = _surd_of_field(w2 / (w1 + w2), d)
    return out


def letter_matrix(img_a: str, img_b: str) -> tuple[int, int, int, int]:
    """(m11, m12, m21, m22): entry (i, j) counts letter i in the image of j."""
    return (img_a.count("a"), img_b.count("a"), img_a.count("b"), img_b.count("b"))


# ---------------------------------------------------------------------------
# language
# ---------------------------------------------------------------------------


def _apply(img: dict[str, str], word: str) -> str:
    return "".join(img[c] for c in word)


def factor_set(img_a: str, img_b: str, n: int) -> set[str]:
    """Length-n factors of a primitive substitution's language.

    They are the length-n factors of sigma^k(xy) over the legal
    two-letter words xy, once every sigma^k(x) has length >= n.
    """
    img = {"a": img_a, "b": img_b}
    legal = {w[i : i + 2] for w in (img_a, img_b) for i in range(len(w) - 1)}
    pending = list(legal)
    while pending:
        w = _apply(img, pending.pop())
        for i in range(len(w) - 1):
            if w[i : i + 2] not in legal:
                legal.add(w[i : i + 2])
                pending.append(w[i : i + 2])
    power = {"a": "a", "b": "b"}
    while min(len(power["a"]), len(power["b"])) < n:
        power = {x: _apply(img, power[x]) for x in "ab"}
    out = set()
    for xy in legal:
        w = _apply(power, xy)
        out.update(w[i : i + n] for i in range(len(w) - n + 1))
    return out


def check_profile(profile: list[int], n: int) -> None:
    """Invertible primitive substitutions are Sturmian: p(k) = k + 1."""
    require(profile == [k + 1 for k in range(1, n + 1)], f"complexity {profile} is not k+1 up to {n}")


def check_factor_set(img_a: str, img_b: str, n: int, library_set: set[str]) -> None:
    own = factor_set(img_a, img_b, n)
    require(
        library_set == own,
        f"length-{n} factors of a->{img_a},b->{img_b}: "
        f"{len(own - library_set)} missing, {len(library_set - own)} extra",
    )


# ---------------------------------------------------------------------------
# geometry
# ---------------------------------------------------------------------------


def lattice_points(ell: Surd, ell_conj: Surd, lo: Surd, hi: Surd, x_lo: int, x_hi: int) -> list[Surd]:
    """Brute-force scan: alpha + beta*ell in [x_lo, x_hi] with alpha + beta*ell' in [lo, hi).

    Floats only bound the scan, with margins of whole units; membership
    is decided exactly.
    """
    gap = _approx(ell - ell_conj)  # x - y = beta * gap
    beta_lo = math.floor((x_lo - _approx(hi)) / gap) - 1
    beta_hi = math.ceil((x_hi - _approx(lo)) / gap) + 1
    out = []
    for beta in range(beta_lo, beta_hi + 1):
        shift = beta * _approx(ell_conj)
        for alpha in range(math.floor(_approx(lo) - shift) - 1, math.ceil(_approx(hi) - shift) + 2):
            x = ell * beta + alpha
            y = ell_conj * beta + alpha
            if lo <= y and y < hi and Surd(x_lo) <= x and x <= Surd(x_hi):
                out.append(x)
    return sorted(out)


def _approx(x: Surd) -> float:
    return float(x.a) + float(x.b) * x.d**0.5


def check_geometry(out: dict) -> None:
    """Window, model set, covering, star-dual and stepped-line properties."""
    eig = eigendata(*out["matrix"])
    ell, ell_conj, lam = eig["ell"], eig["ell_conj"], eig["lam"]
    (a_lo, a_hi), (b_lo, b_hi) = out["r_a"], out["r_b"]
    require(a_hi - a_lo == -ell_conj, f"|R_a| = {a_hi - a_lo} but -ell' = {-ell_conj}")
    require(b_hi - b_lo == Surd(1), f"|R_b| = {b_hi - b_lo}, not 1")
    require(a_hi == b_lo or b_hi == a_lo, "window intervals do not abut")
    lo, hi = min(a_lo, b_lo), max(a_hi, b_hi)
    require(lo <= Surd(0) <= hi, "0 lies outside the window")

    x_lo, x_hi = out["range"]
    points = out["points"]
    require(points == lattice_points(ell, ell_conj, lo, hi, x_lo, x_hi), "model set differs from the lattice scan")
    for p, q in zip(points, points[1:]):
        require(q - p == Surd(1) or q - p == ell, f"consecutive model points {p}, {q} differ by {q - p}")
    require(out["covering"] is True, "cut-and-project covering check returned False")

    (c11, c12), (c21, c22) = out["star_cards"]
    la, lb = out["star_lengths"]
    require(Surd(0) < la and Surd(0) < lb, "star-dual tile lengths are not positive")
    require(la * c11 + lb * c21 == lam * la and la * c12 + lb * c22 == lam * lb,
            "star-dual lengths are not a left eigenvector for lambda")
    require(la * (b_hi - b_lo) == lb * (a_hi - a_lo), "star-dual lengths are not proportional to the window")

    seen = set()
    for x, y, kind, mult in out["images"]:
        value = ell * y + x
        bound = ell if kind == "b*" else Surd(1)
        require(Surd(0) <= value and value < bound, f"segment ({x},{y};{kind}) leaves the stepped line")
        require(mult == 1 and (x, y, kind) not in seen, f"segment ({x},{y};{kind}) appears twice")
        seen.add((x, y, kind))


# ---------------------------------------------------------------------------
# classify
# ---------------------------------------------------------------------------

_GENERATORS = {"E": {"a": "b", "b": "a"}, "L": {"a": "a", "b": "ab"}, "Lt": {"a": "a", "b": "ba"}}
_INVERSE_GENERATORS = {"E": {"a": "b", "b": "a"}, "L": {"a": "a", "b": "Ab"}, "Lt": {"a": "a", "b": "bA"}}


def reduce_free(word: str) -> str:
    out: list[str] = []
    for c in word:
        if out and out[-1] == c.swapcase():
            out.pop()
        else:
            out.append(c)
    return "".join(out)


def inverse_word(word: str) -> str:
    return word[::-1].swapcase()


def apply_endo(img: dict[str, str], word: str) -> str:
    """Image of a reduced word under a free-group endomorphism, reduced."""
    return reduce_free("".join(img[c] if c.islower() else inverse_word(img[c.lower()]) for c in word))


def compose_names(names: list[str]) -> dict[str, str]:
    """g1 . g2 . ... . gk as letter images (g1 outermost)."""
    img = {"a": "a", "b": "b"}
    for name in reversed(names):
        img = {x: apply_endo(_GENERATORS[name], w) for x, w in img.items()}
    return img


def reciprocal(names: list[str]) -> dict[str, str]:
    """Reciprocal a -> flip(inv(a)^-1), b -> flip(inv(b)) with flip: a <-> a^-1."""
    inv = {"a": "a", "b": "b"}
    for name in names:
        inv = {x: apply_endo(_INVERSE_GENERATORS[name], w) for x, w in inv.items()}
    flip = str.maketrans("aA", "Aa")
    rec = {"a": reduce_free(inverse_word(inv["a"]).translate(flip)), "b": reduce_free(inv["b"].translate(flip))}
    require(all(set(w) <= set("ab") and w for w in rec.values()), f"reciprocal {rec} is not positive")
    return rec


def parse_cf(text: str) -> tuple[tuple[int, ...], tuple[int, ...]]:
    m = re.match(r"^\[(-?\d+)(?:; (.*))?\]$", text)
    require(m is not None, f"unreadable continued fraction {text!r}")
    pre, per = [int(m[1])], []
    rest = m[2] or ""
    if "(" in rest:
        head, _, body = rest.partition("(")
        per = [int(t) for t in body.rstrip(")").split(",")]
        rest = head.rstrip(", ")
    pre += [int(t) for t in rest.split(",") if t.strip()]
    return tuple(pre), tuple(per)


def canonical_cf(pre, per) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Minimal period and shortest preperiod of [pre; (per)]."""
    pre, per = list(pre), list(per)
    n = len(per)
    for k in range(1, n + 1):
        if n % k == 0 and per == per[:k] * (n // k):
            per = per[:k]
            break
    while per and len(pre) > 1 and pre[-1] == per[-1]:
        pre.pop()
        per = [per[-1]] + per[:-1]
    return tuple(pre), tuple(per)


@lru_cache(maxsize=None)
def sympy_cf(x: Surd) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Expansion of x = (A + s*sqrt(B^2 d)) / n by sympy's continued_fraction_periodic."""
    n = x.a.denominator * x.b.denominator
    A, B = int(x.a * n), int(x.b * n)
    terms = continued_fraction_periodic(A, n, B * B * x.d, 1 if B >= 0 else -1)
    if terms and isinstance(terms[-1], list):
        return canonical_cf(terms[:-1], terms[-1])
    return canonical_cf(terms, [])


def check_report(img_a: str, img_b: str, line: str, transformed, palindromic) -> None:
    """One JSON line of ``enumerate --json`` and the expansion rewrite."""
    d = json.loads(line)
    m = letter_matrix(img_a, img_b)
    det = m[0] * m[3] - m[1] * m[2]
    require(d["matrix"] == [[m[0], m[1]], [m[2], m[3]]] and d["det"] == det, f"matrix or det wrong: {d['matrix']}")
    require(d["substitution"] == f"a->{img_a},b->{img_b}", f"report names {d['substitution']}")
    names = d["decomposition"].split(".") if d["decomposition"] not in (None, "id") else []
    require(d["invertible"] is True and compose_names(names) == {"a": img_a, "b": img_b},
            f"decomposition {d['decomposition']} does not compose to the substitution")
    sq = (m[0] * m[0] + m[1] * m[2], m[0] * m[1] + m[1] * m[3], m[2] * m[0] + m[3] * m[2], m[2] * m[1] + m[3] * m[3])
    primitive = min(m) >= 0 and min(sq) > 0
    require(d["primitive"] == primitive, "primitive flag wrong")
    if not primitive:
        require(d["lambda"] is None and transformed is None, "spectral data on a non-primitive member")
        return
    eig = eigendata(*m)
    for key, name in (("lambda", "lam"), ("alpha", "alpha"), ("alpha_conj", "alpha_conj")):
        require(parse_printed(d[key]["exact"]) == eig[name], f"{key} {d[key]['exact']} differs from sympy")
    require(parse_cf(d["cf_alpha"]) == sympy_cf(eig["alpha"]), f"cf_alpha {d['cf_alpha']} differs from sympy")
    if det == -1:
        require(d["alpha_star"] is None and d["selfdual_class"] is None and transformed is None,
                "det -1 member classified")
        return
    alpha, alpha_star = eig["alpha"], eig["alpha_t"]
    require(parse_printed(d["alpha_star"]["exact"]) == alpha_star, f"alpha_star {d['alpha_star']['exact']} wrong")
    # direct: conjugate to the reciprocal, whose matrix is E M^T E, so equal diagonal and alpha* = 1 - alpha;
    # mirror: conjugate to the swapped reciprocal, whose matrix is M^T, so symmetric and alpha* = alpha
    kind = d["selfdual_class"]
    require((kind == "direct") == (m[0] == m[3]) == (alpha + alpha_star == Surd(1)),
            f"class {kind} against diagonal {m[0]}, {m[3]} and alpha + alpha* = {alpha + alpha_star}")
    require((kind == "mirror") == (m[1] == m[2]) == (alpha == alpha_star),
            f"class {kind} against off-diagonal {m[1]}, {m[2]} and alpha = alpha* {alpha == alpha_star}")
    require(kind in ("direct", "mirror", "not_selfdual"), f"unknown class {kind}")
    if kind == "not_selfdual":
        require(d["witness"] is None, "witness given for a non-selfdual member")
    else:
        rho = reciprocal(names)
        if kind == "mirror":
            swap = str.maketrans("ab", "ba")
            rho = {x: rho["b" if x == "a" else "a"].translate(swap) for x in "ab"}
        w = "" if d["witness"] == "e" else d["witness"]
        for x, img in (("a", img_a), ("b", img_b)):
            require(reduce_free(w + rho[x] + inverse_word(w)) == img,
                    f"witness {d['witness']} does not conjugate {x} to the {kind} reciprocal")
    # regular expansions of irrationals are unique, so equal expansions mean equal values
    require(transformed == sympy_cf(alpha_star), f"transformed expansion {transformed} is not the expansion of alpha*")
    require(palindromic == (alpha == alpha_star), f"palindrome flag {palindromic} but alpha = alpha* is {alpha == alpha_star}")
