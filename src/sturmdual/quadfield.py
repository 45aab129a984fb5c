"""Exact arithmetic in real quadratic fields and periodic continued fractions.

Values are p + q*sqrt(d) with rational p, q and squarefree d.  All
comparisons, floors and continued-fraction expansions are exact; no
floating point enters any computation (floats appear only in display
helpers).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cmp_to_key, lru_cache
from math import gcd, isfinite, isqrt, lcm

from .errors import ParseError, SturmdualError

_FACTOR_LIMIT = 10**14
# quotients (preperiod and period together) that one expansion may keep
MAX_CF_QUOTIENTS = 10**5


@lru_cache(maxsize=8192)
def squarefree_decompose(n: int) -> tuple[int, int]:
    """Write n >= 0 as s*s*d with d squarefree; return (s, d).

    Trial division strips the squares of factors up to 10**4.  A
    cofactor left above that which is not a square is refused when it
    exceeds _FACTOR_LIMIT.  Otherwise it is trial-divided by every f with
    f**3 <= _FACTOR_LIMIT, each exponent split by parity between s and d.
    What remains has no prime factor below the cube root of the limit
    yet is at most the limit, so it is 1, p, p*q or p*p for primes p, q,
    and one isqrt tells the square apart.
    """
    if n < 0:
        raise ValueError("negative radicand")
    if n == 0:
        return (1, 0)
    s = 1
    d = n
    f = 2
    while f * f <= d and f <= 10_000:
        while d % (f * f) == 0:
            d //= f * f
            s *= f
        f += 1
    root = isqrt(d)
    if root * root == d:
        return (s * root, 1)
    if f * f <= d:
        if d > _FACTOR_LIMIT:
            raise SturmdualError(
                "radicand too large for exact square-part extraction"
            )
        rest, d = d, 1
        # one past the float cube root, so rounding cannot drop a factor
        for f in range(2, int(_FACTOR_LIMIT ** (1 / 3)) + 2):
            if rest % f == 0:
                e = 0
                while rest % f == 0:
                    rest //= f
                    e += 1
                s *= f ** (e // 2)
                d *= f ** (e % 2)
        root = isqrt(rest)
        if root * root == rest:
            s *= root
        else:
            d *= rest
    return (s, d)


def _square_part_with_field(n: int, known_field: int) -> tuple[int, int] | None:
    """(s, d) with n = s*s*d for the expected squarefree field d, else None."""
    if known_field <= 0:
        return None
    quotient, rem = divmod(n, known_field)
    if rem:
        return None
    s = isqrt(quotient)
    if s * s != quotient:
        return None
    return (s, known_field)


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected int or Fraction, got {type(x).__name__}")


def _surd_sign(a, b, n: int) -> int:
    """Sign of a + b*sqrt(n) for integers or rationals a and b, and n > 0
    not a square (any n when b == 0)."""
    sa, sb = (a > 0) - (a < 0), (b > 0) - (b < 0)
    if sb == 0 or sa == sb:
        return sa
    if sa == 0:
        return sb
    return sa if a * a > b * b * n else sb


def _surd_floor(a: int, b: int, n: int, d: int) -> int:
    """Floor of (a + b*sqrt(d)) / n for integers a, b and n > 0, and d not
    a square when b != 0: one isqrt."""
    if b == 0:
        return a // n
    root = isqrt(b * b * d)  # b*b*d is never a square
    return (a + root) // n if b > 0 else (a - root - 1) // n


class Quad:
    """An element p + q*sqrt(d) of a real quadratic field, exact.

    d is a squarefree nonnegative integer and is canonically 0 whenever
    q == 0, so equality and hashing are structural.
    """

    __slots__ = ("p", "q", "d")

    def __init__(self, p, q=0, d=0):
        p = _as_fraction(p)
        q = _as_fraction(q)
        if q == 0:
            d = 0
        else:
            if d <= 0:
                raise ValueError("irrational part requires a positive radicand")
            s, d = squarefree_decompose(d)
            q *= s
            if d == 1:
                p += q
                q = Fraction(0)
                d = 0
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "d", d)

    def __setattr__(self, name, value):
        raise AttributeError("Quad is immutable")

    # -- helpers ---------------------------------------------------------

    @property
    def is_rational(self) -> bool:
        return self.q == 0

    def _coerce(self, other) -> "Quad | None":
        """as_quad(other), or None for a type no Quad operator takes."""
        try:
            return as_quad(other)
        except TypeError:
            return None

    def _common_d(self, other: "Quad") -> int:
        if self.d == other.d:
            return self.d
        if self.d == 0:
            return other.d
        if other.d == 0:
            return self.d
        raise SturmdualError(
            f"incompatible radicands sqrt({self.d}) and sqrt({other.d})"
        )

    # -- ring operations -------------------------------------------------

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        d = self._common_d(o)
        return Quad(self.p + o.p, self.q + o.q, d)

    __radd__ = __add__

    def __neg__(self):
        return Quad(-self.p, -self.q, self.d)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        d = self._common_d(o)
        return Quad(self.p * o.p + self.q * o.q * d, self.p * o.q + self.q * o.p, d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        norm = o.p * o.p - o.q * o.q * o.d
        if norm == 0:  # then o == 0: p*p == q*q*d has no rational solution for q != 0
            raise ZeroDivisionError("division by zero")
        d = self._common_d(o)
        conj = Quad(o.p, -o.q, o.d)
        num = self * conj
        return Quad(num.p / norm, num.q / norm, d)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    # -- order and equality ----------------------------------------------

    def sign(self) -> int:
        return _surd_sign(self.p, self.q, self.d)

    def _cmp(self, other) -> int:
        o = self._coerce(other)
        if o is None:
            raise TypeError(f"cannot compare Quad with {type(other).__name__}")
        return (self - o).sign()

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.p == o.p and self.q == o.q and self.d == o.d

    def __hash__(self):
        return hash((self.p, self.q, self.d))

    def __lt__(self, other):
        return self._cmp(other) < 0

    def __le__(self, other):
        return self._cmp(other) <= 0

    def __gt__(self, other):
        return self._cmp(other) > 0

    def __ge__(self, other):
        return self._cmp(other) >= 0

    # -- field automorphism, floor, conversions ---------------------------

    def _over_one_denominator(self) -> tuple[int, int, int]:
        """Integers (a, b, n) with n > 0 and self == (a + b*sqrt(d)) / n."""
        n = lcm(self.p.denominator, self.q.denominator)
        return (
            self.p.numerator * (n // self.p.denominator),
            self.q.numerator * (n // self.q.denominator),
            n,
        )

    def star(self) -> "Quad":
        """Algebraic conjugation p + q*sqrt(d) -> p - q*sqrt(d)."""
        return Quad(self.p, -self.q, self.d)

    def floor(self) -> int:
        return _surd_floor(*self._over_one_denominator(), self.d)

    def ceil(self) -> int:
        return -(-self).floor()

    def __float__(self) -> float:
        return float_parts(*self._over_one_denominator(), self.d)

    def __repr__(self):
        return f"Quad({self!s})"

    def __str__(self):
        return format_quad(self)


def as_quad(x) -> Quad:
    """x as a Quad: a Quad itself, or an int or Fraction as a rational Quad."""
    if isinstance(x, Quad):
        return x
    if isinstance(x, (int, Fraction)):
        return Quad(x)
    raise TypeError(f"expected a number, got {type(x).__name__}")


QUAD_ZERO = Quad(0)
QUAD_ONE = Quad(1)


def sqrt_int(n: int) -> Quad:
    """Exact sqrt(n) for n >= 0 as a Quad."""
    return Quad(0, 1, n) if n else QUAD_ZERO


class LatticeLine:
    """The points alpha + beta*x of the lattice Z + Z*x, for integers alpha
    and beta, tested against a few bounds over the integers.

    x and each bound c are taken apart once, over one denominator n > 0
    and one radicand d: x = (a + b*sqrt(d)) / n and c = (c0 + c1*sqrt(d)) / n.
    Then alpha + beta*x - c = (alpha*n + beta*a - c0 + (beta*b - c1)*sqrt(d)) / n,
    whose sign is one _surd_sign and whose floor one isqrt.  Only value()
    builds a Quad.  A bound over another radicand than x raises
    SturmdualError.
    """

    __slots__ = ("n", "a", "b", "d", "bounds")

    def __init__(self, x, *bounds):
        d = 0
        values = []  # (rational part, surd part): Fractions or ints
        for v in (x, *bounds):
            if isinstance(v, Quad):
                if v.d and v.d != d:
                    if d:
                        raise SturmdualError(f"incompatible radicands sqrt({d}) and sqrt({v.d})")
                    d = v.d
                values.append((v.p, v.q))
            elif isinstance(v, (int, Fraction)):
                values.append((v, 0))
            else:
                raise TypeError(f"expected a number, got {type(v).__name__}")
        n = lcm(*(part.denominator for pair in values for part in pair))
        parts = [
            (p.numerator * (n // p.denominator), q.numerator * (n // q.denominator))
            for p, q in values
        ]
        self.n, self.d = n, d
        (self.a, self.b), *self.bounds = parts

    def _minus_bound(self, alpha: int, beta: int, k: int) -> tuple[int, int]:
        """n * (alpha + beta*x - c) for the k-th bound c, as (rational, surd) parts."""
        c0, c1 = self.bounds[k]
        return alpha * self.n + beta * self.a - c0, beta * self.b - c1

    def sign(self, alpha: int, beta: int, k: int) -> int:
        """Sign of alpha + beta*x - c for the k-th bound c."""
        return _surd_sign(*self._minus_bound(alpha, beta, k), self.d)

    def floor(self, alpha: int, beta: int, k: int) -> int:
        """Floor of alpha + beta*x - c for the k-th bound c."""
        return _surd_floor(*self._minus_bound(alpha, beta, k), self.n, self.d)

    def ceil(self, alpha: int, beta: int, k: int) -> int:
        """Ceiling of alpha + beta*x - c for the k-th bound c."""
        p, q = self._minus_bound(alpha, beta, k)
        return -_surd_floor(-p, -q, self.n, self.d)

    def ratio_floor(self, k: int) -> int:
        """Floor of c / x for the k-th bound c and x != 0."""
        c0, c1 = self.bounds[k]
        a, b, d = self.a, self.b, self.d
        # c / x = (c0 + c1*sqrt(d)) * (a - b*sqrt(d)) / (a*a - b*b*d)
        p, q, norm = c0 * a - c1 * b * d, c1 * a - c0 * b, a * a - b * b * d
        return _surd_floor(p, q, norm, d) if norm > 0 else _surd_floor(-p, -q, -norm, d)

    def value(self, alpha: int, beta: int) -> Quad:
        """The Quad alpha + beta*x."""
        return Quad(Fraction(alpha * self.n + beta * self.a, self.n), Fraction(beta * self.b, self.n), self.d)

    def ordered(self, points) -> list[tuple[int, int]]:
        """The pairs (alpha, beta) in increasing order of alpha + beta*x."""
        n, a, b, d = self.n, self.a, self.b, self.d

        def compare(u, v):
            da, db = u[0] - v[0], u[1] - v[1]
            return _surd_sign(da * n + db * a, db * b, d)

        return sorted(points, key=cmp_to_key(compare))


def format_quad(x: Quad) -> str:
    """Render as ``p+q*sqrt(d)`` with rationals written n/d."""
    return format_parts(*x._over_one_denominator(), x.d)


def format_parts(a: int, b: int, n: int, d: int) -> str:
    """The ``p+q*sqrt(d)`` text of (a + b*sqrt(d)) / n for n > 0 and
    squarefree d (d == 0 when b == 0), each part in lowest terms: the
    one printer, behind format_quad and the integer reports alike."""
    g, h = gcd(a, n), gcd(b, n)
    pn, pd, qn, qd = a // g, n // g, b // h, n // h
    p = str(pn) if pd == 1 else f"{pn}/{pd}"
    if qn == 0:
        return p
    aq = -qn if qn < 0 else qn
    if qd != 1:
        root = f"{aq}/{qd}*sqrt({d})"
    else:
        root = f"sqrt({d})" if aq == 1 else f"{aq}*sqrt({d})"
    if pn == 0:
        return root if qn > 0 else f"-{root}"
    return f"{p}{'+' if qn > 0 else '-'}{root}"


def float_parts(a: int, b: int, n: int, d: int) -> float:
    """float((a + b*sqrt(d)) / n) for n > 0, behind float() of a Quad too:
    int division rounds correctly, so a/n is the float of a/n in lowest
    terms, and likewise b/n.  SturmdualError when it overflows."""
    try:
        value = a / n + b / n * (d**0.5)
        if isfinite(value):
            return value
    except OverflowError:
        pass
    raise SturmdualError("value too large to convert to a float")


_QUAD_TERM = re.compile(
    r"""(?P<sign>[+-]?)\s*
        (?:
            (?:(?P<coeff>\d+(?:/\d+)?)\s*\*\s*)?sqrt\(\s*(?P<rad>\d+)\s*\)
          | (?P<rat>\d+(?:/\d+)?)
        )\s*""",
    re.VERBOSE,
)


def parse_quad(text: str) -> Quad:
    """Parse the ``p+q*sqrt(d)`` text form (either term may be absent).

    A zero denominator, terms over two radicands and a radicand too large
    to reduce are parse errors.
    """
    s = text.strip()
    if not s:
        raise ParseError("empty quadratic literal")
    pos = 0
    total = Quad(0)
    first = True
    while pos < len(s):
        m = _QUAD_TERM.match(s, pos)
        if not m or (not first and m.group("sign") == ""):
            raise ParseError(f"bad quadratic literal: {text!r}", pos)
        sign = -1 if m.group("sign") == "-" else 1
        try:
            if m.group("rad") is not None:
                coeff = Fraction(m.group("coeff")) if m.group("coeff") else Fraction(1)
                term = sqrt_int(int(m.group("rad"))) * (sign * coeff)
            else:
                term = Quad(sign * Fraction(m.group("rat")))
            total = total + term
        except ZeroDivisionError as exc:
            raise ParseError(f"zero denominator in quadratic literal {text!r}", pos) from exc
        except (ValueError, SturmdualError) as exc:
            raise ParseError(f"bad quadratic literal {text!r}: {exc}", pos) from exc
        pos = m.end()
        first = False
    return total


# ---------------------------------------------------------------------------
# Spectral data of a primitive unimodular 2x2 matrix
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SpectralData:
    """Exact Perron data of a primitive unimodular integer matrix.

    lam is the dominant eigenvalue, alpha the second coordinate of the
    right eigenvector normalized to coordinate sum 1 (the asymptotic
    frequency of the letter b), and ell the second coordinate of the
    left eigenvector (1, ell).  Starred partners are the algebraic
    conjugates.
    """

    lam: Quad
    lam_conj: Quad
    alpha: Quad
    alpha_conj: Quad
    ell: Quad
    ell_conj: Quad


Triple = tuple[int, int, int]  # (a, b, n): the value (a + b*sqrt(d)) / n


def perron_parts(m, det: int) -> tuple[int, Triple, Triple, Triple]:
    """Squarefree d and integer triples (a, b, n), value (a + b*sqrt(d)) / n
    with n > 0, of lam, alpha and ell for a primitive Mat2 of determinant
    det = +-1 (the caller checks both).

    With lam - m11 = (e + sqrt(D))/2, the right eigenvector gives
    alpha = (lam - m11)/(lam - m11 + m12) and the left eigenvector gives
    ell = (lam - m11)/m21.  Closed forms over the integers
    D = tr^2 - 4 det, e = m22 - m11 and f = e + 2 m12 are
    lam = (tr + sqrt(D))/2, alpha = (e f - D + 2 m12 sqrt(D))/(f^2 - D)
    and ell = (e + sqrt(D))/(2 m21), with sqrt(D) = s sqrt(d).
    """
    tr = m.m11 + m.m22
    disc = tr * tr - 4 * det
    s, d = squarefree_decompose(disc)
    if d in (0, 1):
        raise SturmdualError("eigenvalues are rational; matrix not primitive unimodular")
    e = m.m22 - m.m11
    f = e + 2 * m.m12
    norm = f * f - disc
    alpha = (e * f - disc, 2 * m.m12 * s, norm) if norm > 0 else (disc - e * f, -2 * m.m12 * s, -norm)
    return d, (tr, s, 2), alpha, (e, s, 2 * m.m21)


def spectral(m) -> SpectralData:
    """Exact eigendata for a primitive subst.Mat2 with determinant +-1.

    The six fields are Quads built from the integer triples of
    perron_parts and their conjugates.
    """
    det = m.det()
    if det not in (1, -1):
        raise SturmdualError(f"matrix has determinant {det}, not +-1")
    if not m.is_primitive():
        raise SturmdualError("matrix is not primitive")
    d, *triples = perron_parts(m, det)
    fields = []
    for a, b, n in triples:
        p, q = Fraction(a, n), Fraction(b, n)
        fields += [Quad(p, q, d), Quad(p, -q, d)]
    return SpectralData(*fields)


def dual_frequency_parts(a: int, b: int, n: int, d: int) -> Triple:
    """(alpha' - 1)/(2 alpha' - 1) for alpha = (a + b*sqrt(d)) / n, as the
    integer triple (a*, b*, n*) over the same d with n* >= 0; n* == 0
    exactly when alpha' = 1/2.

    alpha* = (a - n - b sqrt(d)) / (2a - n - 2b sqrt(d)), times the
    conjugate of the denominator above and below.  cf_dual_transform
    uses it over an unfactored discriminant in place of d.
    """
    tp = (a - n) * (2 * a - n) - 2 * b * b * d
    ts = -b * n
    tq = (2 * a - n) * (2 * a - n) - 4 * b * b * d
    return (tp, ts, tq) if tq >= 0 else (-tp, -ts, -tq)


def dual_frequency_value(alpha: Quad) -> Quad:
    """(alpha' - 1) / (2 alpha' - 1) for the algebraic conjugate alpha'.

    One Quad built from the integer triple of dual_frequency_parts.
    """
    a, b, n = alpha._over_one_denominator()
    tp, ts, tq = dual_frequency_parts(a, b, n, alpha.d)
    if tq == 0:
        raise SturmdualError("conjugate frequency 1/2 is not quadratic")
    return Quad(Fraction(tp, tq), Fraction(ts, tq), alpha.d)


def is_sturm_number(x: Quad) -> bool:
    """Quadratic irrational in (0,1) whose conjugate falls outside (0,1)."""
    return _is_sturm(*x._over_one_denominator(), x.d)


def _is_sturm(p: int, s: int, q: int, n: int) -> bool:
    """Whether (p + s*sqrt(n)) / q, q > 0, lies in (0, 1) with its
    conjugate (p - s*sqrt(n)) / q outside; always False when s == 0."""
    # 0 < (p + t*sqrt(n)) / q < 1 for t = s and t = -s
    inside, conj_inside = (_surd_sign(p, t, n) > 0 > _surd_sign(p - q, t, n) for t in (s, -s))
    return inside and not conj_inside


# ---------------------------------------------------------------------------
# Continued fractions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CF:
    """Canonical continued fraction: shortest preperiod, minimal period.

    ``period`` is empty exactly for rational values.  The period is
    stored as the rotation that starts right after the preperiod.
    ``value_hint`` optionally records the exact value (it never takes
    part in equality); its radicand lets long expansions evaluate
    without factoring a huge discriminant.
    """

    preperiod: tuple[int, ...]
    period: tuple[int, ...] = ()
    value_hint: "Quad | None" = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if not self.preperiod and not self.period:
            raise ValueError("empty continued fraction")
        for a in self.preperiod[1:]:
            if a < 1:
                raise ValueError("partial quotients after a0 must be >= 1")
        for a in self.period:
            if a < 1:
                raise ValueError("period quotients must be >= 1")

    def quotients(self, count: int) -> list[int]:
        """First ``count`` partial quotients (finite CFs may yield fewer)."""
        out = list(self.preperiod)
        while self.period and len(out) < count:
            out.extend(self.period)
        return out[:count]

    def __str__(self):
        return format_cf(self)


def format_cf(c: CF) -> str:
    """``[a0; a1, (p1, p2)]``; a purely periodic ``(p0, .., pk)`` prints
    as ``[p0; (p1, .., pk, p0)]``, which parse_cf reads back."""
    head, period = c.preperiod, c.period
    if not head:
        head, period = period[:1], period[1:] + period[:1]
    parts = []
    if len(head) > 1:
        parts.append(", ".join(str(a) for a in head[1:]))
    if period:
        parts.append("(" + ", ".join(str(a) for a in period) + ")")
    tail = ", ".join(parts)
    return f"[{head[0]}; {tail}]" if tail else f"[{head[0]}]"


_CF_RE = re.compile(
    r"\[\s*(-?\d+)\s*(?:;\s*(.*?))?\]\s*$"
)


def _cf_integers(text: str, literal: str) -> list[int]:
    """The comma-separated quotients of ``text``, which must be integers."""
    try:
        return [int(t) for t in text.split(",")]
    except ValueError as exc:
        raise ParseError(f"bad continued fraction literal {literal!r}: quotients must be integers") from exc


def parse_cf(text: str) -> CF:
    """Parse ``[a0; a1, a2, (p1, p2)]``."""
    m = _CF_RE.match(text.strip())
    if not m:
        raise ParseError(f"bad continued fraction literal: {text!r}")
    pre = _cf_integers(m.group(1), text)
    rest = (m.group(2) or "").strip()
    per: list[int] = []
    if rest:
        pm = re.match(r"^(.*?)\(\s*([^)]*)\)\s*$", rest)
        if pm:
            head, body = pm.group(1).strip().rstrip(","), pm.group(2)
            if head:
                pre.extend(_cf_integers(head, text))
            per = _cf_integers(body, text)
        else:
            pre.extend(_cf_integers(rest, text))
    try:
        return normalize_cf(tuple(pre), tuple(per))
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


def normalize_cf(pre: tuple[int, ...], per: tuple[int, ...]) -> CF:
    """Canonicalize: minimal period root, shortest preperiod."""
    per = list(per)
    pre = list(pre)
    if per:
        n = len(per)
        for div in range(1, n + 1):
            if n % div == 0 and per == per[: div] * (n // div):
                per = per[:div]
                break
        # pull equal trailing quotients out of the preperiod
        while pre and pre[-1] == per[-1]:
            pre.pop()
            per = [per[-1]] + per[:-1]
    return CF(tuple(pre), tuple(per))


def surd_quotients(a: int, b: int, q: int, n: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Shortest preperiod and minimal period of (a + b*sqrt(n)) / q.

    Integers with b, q nonzero and n > 0 not a square.  The integer
    state (P + sqrt(N)) / Q with Q | N - P^2 gives each quotient as
    (P + r) // Q, or -((P + r) // -Q) - 1 for Q < 0, with r = isqrt(N)
    taken once; the first repeated state marks the cycle.  More than
    MAX_CF_QUOTIENTS quotients before it raise SturmdualError.
    """
    given = (a, b, n, q)
    g = gcd(a, b, q)
    a, b, q = a // g, b // g, q // g
    if b < 0:
        a, q = -a, -q
    n *= b * b
    if (n - a * a) % q != 0:
        scale = abs(q)
        a, q, n = a * scale, q * scale, n * scale * scale
    r = isqrt(n)
    seen: dict[tuple[int, int], int] = {}
    quotients = []
    while (a, q) not in seen:
        if len(quotients) == MAX_CF_QUOTIENTS:
            raise SturmdualError(
                "continued fraction of ({} + {}*sqrt({}))/{} has more than {} quotients".format(
                    *given, MAX_CF_QUOTIENTS
                )
            )
        seen[(a, q)] = len(quotients)
        k = (a + r) // q if q > 0 else -((a + r) // -q) - 1
        quotients.append(k)
        a = k * q - a
        q = (n - a * a) // q
    start = seen[(a, q)]
    return tuple(quotients[:start]), tuple(quotients[start:])


def cf_expand(x: Quad) -> CF:
    """Exact eventually periodic expansion of a Quad.

    Rational values give a finite expansion (empty period, canonical
    last quotient).  Quadratic irrationals run the integer state
    (P + sqrt(N)) / Q of ``surd_quotients`` on x = (a + b*sqrt(d)) / n;
    no Quad is built, and x itself becomes the value_hint.
    """
    if x.is_rational:
        quotients = []
        num, den = x.p.numerator, x.p.denominator
        while True:
            a, r = divmod(num, den)
            quotients.append(a)
            if r == 0:
                break
            num, den = den, r
        return CF(tuple(quotients), ())
    a, b, n = x._over_one_denominator()
    return CF(*surd_quotients(a, b, n, x.d), x)


def _convergents(quotients) -> tuple[int, int, int, int]:
    """(p1, p0, q1, q0) with [a0; a1, .., ak, y] = (p1 y + p0) / (q1 y + q0)."""
    p1, p0, q1, q0 = 1, 0, 0, 1
    for a in quotients:
        p1, p0 = a * p1 + p0, p1
        q1, q0 = a * q1 + q0, q1
    return p1, p0, q1, q0


def _cf_surd(c: CF) -> tuple[int, int, int, int]:
    """Integers (P, S, Q, N) with value (P + S*sqrt(N)) / Q for a periodic c.

    N is the unfactored discriminant of the periodic tail y, which
    solves k1 y^2 + (k0 - h1) y - h0 = 0 for the period's convergents,
    so y = (u + sqrt(N)) / v.  The period's automorph makes those
    coefficients a multiple of y's primitive form, so dividing out their
    content leaves N equal to y's own discriminant, which does not grow
    with the period.  The preperiod's convergents fold it in:
    value = (p1 y + p0) / (q1 y + q0) = (A + p1 sqrt(N)) / (B + q1 sqrt(N)).
    """
    h1, h0, k1, k0 = _convergents(c.period)
    g = gcd(k1, k0 - h1, h0)
    k1, t, h0 = k1 // g, (k0 - h1) // g, h0 // g
    n = t * t + 4 * k1 * h0
    u, v = -t, 2 * k1
    p1, p0, q1, q0 = _convergents(c.preperiod)
    a, b = p1 * u + p0 * v, q1 * u + q0 * v
    # times the conjugate B - q1 sqrt(N) above and below
    return a * b - p1 * q1 * n, (p1 * q0 - p0 * q1) * v, b * b - q1 * q1 * n, n


def cf_value(c: CF) -> Quad:
    """Exact value of a continued fraction; inverse of cf_expand.

    Integer convergents give the value as (P + S*sqrt(N)) / Q (a
    fraction for finite expansions), from which one Quad is built.  The
    squarefree radicand of value_hint, when present, lets N be resolved
    without factoring, which keeps long periods exact.
    """
    if not c.period:
        p1, _, q1, _ = _convergents(c.preperiod)
        return Quad(Fraction(p1, q1))
    p, s, q, n = _cf_surd(c)
    parts = _square_part_with_field(n, c.value_hint.d) if c.value_hint is not None else None
    if parts is None:
        parts = squarefree_decompose(n)
    root, d = parts
    return Quad(Fraction(p, q), Fraction(s * root, q), d)


# ---------------------------------------------------------------------------
# Duality on continued fractions
# ---------------------------------------------------------------------------


def _anchored_period(c: CF, anchor: int) -> tuple[int, ...] | None:
    """Period rotation of c's quotient stream starting at index ``anchor``."""
    if not c.period or len(c.preperiod) > anchor:
        return None
    shift = (anchor - len(c.preperiod)) % len(c.period)
    return c.period[shift:] + c.period[:shift]


def _sturm_transform_candidates(c: CF):
    """Raw rewritten expansions from the four dual-transform case rules."""
    q = c.quotients(3)
    if not q or q[0] != 0 or len(q) < 2:
        return
    a1 = q[1]
    tail2 = _anchored_period(c, 2)
    if tail2 is not None:
        for rep in (1, 2):
            per = tail2 * rep
            k = len(per)
            if a1 >= 2:
                n1 = a1 - 1
                # rule: last period entry carries n_{k+1} + n_1 with n_{k+1} >= 1
                nk1 = per[-1] - n1
                if nk1 >= 1:
                    out_per = tuple(reversed(per[:-1])) + (n1 + nk1,)
                    yield (0, 1, nk1), out_per
                # rule: period ends with n_1 itself
                if per[-1] == n1:
                    nk = per[-2] if k >= 2 else n1
                    out_per = tuple(reversed(per[:-2])) + (n1, nk)
                    yield (0, 1 + nk), out_per
            elif a1 == 1:
                # rule: plain reversal of the period
                yield (0, 1), tuple(reversed(per))
    if len(q) >= 3 and a1 == 1:
        tail3 = _anchored_period(c, 3)
        if tail3 is not None:
            n2 = q[2]
            for rep in (1, 2):
                per = tail3 * rep
                nk = per[-1] - n2
                if nk >= 1:
                    out_per = tuple(reversed(per[:-1])) + (n2 + nk,)
                    yield (0, 1 + nk), out_per


def cf_dual_transform(c: CF) -> CF:
    """Rewrite the expansion of a Sturm number into that of its dual frequency.

    alpha = (P + S*sqrt(N)) / Q comes from the integer convergents of c
    over the unfactored discriminant N.  Integer sign tests decide the
    Sturm-number test, and the target (alpha' - 1)/(2 alpha' - 1), kept
    as integers over N, is expanded once by cf_expand's integer loop.
    The case rules for Sturm-number shapes then give candidates; the
    first whose canonical form equals that expansion is the result.
    Its value_hint is the target, one Quad, when c's own hint names the
    field, and None otherwise (N stays unfactored).
    """
    if not c.period:
        raise SturmdualError("finite expansion: not a Sturm number")
    p, s, q, n = _cf_surd(c)
    if q < 0:
        p, s, q = -p, -s, -q
    if not _is_sturm(p, s, q, n):
        raise SturmdualError(f"{format_cf(c)} is not the expansion of a Sturm number")
    tp, ts, tq = dual_frequency_parts(p, s, q, n)
    hint = None
    parts = _square_part_with_field(n, c.value_hint.d) if c.value_hint is not None else None
    if parts is not None:
        root, d = parts
        hint = Quad(Fraction(tp, tq), Fraction(ts * root, tq), d)
    expected = CF(*surd_quotients(tp, ts, tq, n), hint)
    for pre, per in _sturm_transform_candidates(c):
        try:
            cand = normalize_cf(pre, per)
        except ValueError:
            continue
        if cand == expected:
            return expected
    raise SturmdualError(f"{format_cf(c)} does not match a Sturm-number shape")


def is_selfdual_frequency(c: CF) -> bool:
    """Palindrome criterion on the expansion of a quadratic in (0,1).

    True iff the quotient stream reads [0; 1+n1, (n2..nk, n1)] or
    [0; 1, (n1..nk)] with n1..nk a palindrome.
    """
    if not c.period or c.quotients(1) != [0]:
        return False
    if len(c.preperiod) > 2:
        return False
    a1 = c.quotients(2)[1]
    per = _anchored_period(c, 2)
    if per is None:
        return False
    if a1 == 1:
        word = per
    elif a1 >= 2:
        n1 = a1 - 1
        if per[-1] != n1:
            return False
        word = (n1,) + per[:-1]
    else:
        return False
    return word == tuple(reversed(word))
