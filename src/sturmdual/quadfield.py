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
from functools import lru_cache
from math import isfinite, isqrt, lcm

from .errors import DeterminantMinusOneError, ParseError, SturmdualError

_FACTOR_LIMIT = 10**14


@lru_cache(maxsize=8192)
def squarefree_decompose(n: int) -> tuple[int, int]:
    """Write n >= 0 as s*s*d with d squarefree; return (s, d)."""
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
        while f * f <= d:
            while d % (f * f) == 0:
                d //= f * f
                s *= f
            f += 1
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
        if isinstance(other, Quad):
            return other
        if isinstance(other, (int, Fraction)):
            return Quad(other)
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
        if norm == 0:
            if o.p == 0 and o.q == 0:
                raise ZeroDivisionError("division by zero")
            raise SturmdualError("division by a zero-norm element")
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
        p, q, d = self.p, self.q, self.d
        if q == 0:
            return (p > 0) - (p < 0)
        if p == 0:
            return 1 if q > 0 else -1
        if p > 0 and q > 0:
            return 1
        if p < 0 and q < 0:
            return -1
        # opposite signs: compare p^2 against q^2 d (cannot tie, d squarefree > 1)
        if p * p > q * q * d:
            return 1 if p > 0 else -1
        return 1 if q > 0 else -1

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
        if self.q == 0:
            return self.p.numerator // self.p.denominator
        a, b, n = self._over_one_denominator()
        root = isqrt(b * b * self.d)  # b*b*d is never a square
        return (a + root) // n if b > 0 else (a - root - 1) // n

    def ceil(self) -> int:
        return -(-self).floor()

    def __float__(self) -> float:
        try:
            value = float(self.p) + float(self.q) * (self.d**0.5)
            if isfinite(value):
                return value
        except OverflowError:
            pass
        raise SturmdualError("value too large to convert to a float")

    def __repr__(self):
        return f"Quad({self!s})"

    def __str__(self):
        return format_quad(self)


QUAD_ZERO = Quad(0)
QUAD_ONE = Quad(1)


def sqrt_int(n: int) -> Quad:
    """Exact sqrt(n) for n >= 0 as a Quad."""
    s, d = squarefree_decompose(n)
    if d == 0:
        return Quad(0)
    if d == 1:
        return Quad(s)
    return Quad(0, s, d)


def format_quad(x: Quad) -> str:
    """Render as ``p+q*sqrt(d)`` with rationals written n/d."""
    if x.q == 0:
        return str(x.p)
    aq = abs(x.q)
    root = f"sqrt({x.d})" if aq == 1 else f"{aq}*sqrt({x.d})"
    if x.p == 0:
        return root if x.q > 0 else f"-{root}"
    sign = "+" if x.q > 0 else "-"
    return f"{x.p}{sign}{root}"


_QUAD_TERM = re.compile(
    r"""(?P<sign>[+-]?)\s*
        (?:
            (?:(?P<coeff>\d+(?:/\d+)?)\s*\*\s*)?sqrt\(\s*(?P<rad>\d+)\s*\)
          | (?P<rat>\d+(?:/\d+)?)
        )\s*""",
    re.VERBOSE,
)


def parse_quad(text: str) -> Quad:
    """Parse the ``p+q*sqrt(d)`` text form (either term may be absent)."""
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
        if m.group("rad") is not None:
            coeff = Fraction(m.group("coeff")) if m.group("coeff") else Fraction(1)
            term = Quad(0, sign * coeff, int(m.group("rad")))
        else:
            term = Quad(sign * Fraction(m.group("rat")))
        total = total + term
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

    @property
    def det(self) -> int:
        prod = self.lam * self.lam_conj
        if not prod.is_rational:
            raise SturmdualError(f"eigenvalue product {prod} is not rational")
        return int(prod.p)


def spectral(m) -> SpectralData:
    """Exact eigendata for a primitive subst.Mat2 with determinant +-1."""
    det = m.det()
    if det not in (1, -1):
        raise SturmdualError(f"matrix has determinant {det}, not +-1")
    if not m.is_primitive():
        raise SturmdualError("matrix is not primitive")
    tr = m.m11 + m.m22
    disc = tr * tr - 4 * det
    root = sqrt_int(disc)
    if root.is_rational:
        raise SturmdualError("eigenvalues are rational; matrix not primitive unimodular")
    lam = (Quad(tr) + root) / 2
    lam_conj = lam.star()
    # right eigenvector (1 - alpha, alpha):  m11(1-a) + m12 a = lam (1-a)
    alpha = (lam - m.m11) / (lam - m.m11 + m.m12)
    # left eigenvector (1, ell):  m11 + ell m21 = lam
    ell = (lam - m.m11) / m.m21
    return SpectralData(lam, lam_conj, alpha, alpha.star(), ell, ell.star())


def dual_frequency(s: SpectralData) -> Quad:
    """Frequency of the dual substitution, from the conjugate frequency.

    Only meaningful in the determinant +1 case; equals the frequency of
    the transposed matrix.
    """
    if s.det != 1:
        raise DeterminantMinusOneError(
            "dual frequency requires determinant +1; analyze the square"
        )
    return dual_frequency_value(s.alpha)


def dual_frequency_value(alpha: Quad) -> Quad:
    """(alpha' - 1) / (2 alpha' - 1) for the algebraic conjugate alpha'."""
    ac = alpha.star()
    denom = ac * 2 - 1
    if denom.sign() == 0:
        raise SturmdualError("conjugate frequency 1/2 is not quadratic")
    return (ac - 1) / denom


def is_sturm_number(x: Quad) -> bool:
    """Quadratic irrational in (0,1) whose conjugate falls outside (0,1)."""
    if x.is_rational:
        return False
    if not (QUAD_ZERO < x < QUAD_ONE):
        return False
    c = x.star()
    return not (QUAD_ZERO < c < QUAD_ONE)


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


def parse_cf(text: str) -> CF:
    """Parse ``[a0; a1, a2, (p1, p2)]``."""
    m = _CF_RE.match(text.strip())
    if not m:
        raise ParseError(f"bad continued fraction literal: {text!r}")
    a0 = int(m.group(1))
    rest = (m.group(2) or "").strip()
    pre = [a0]
    per: list[int] = []
    if rest:
        pm = re.match(r"^(.*?)\(\s*([^)]*)\)\s*$", rest)
        if pm:
            head, body = pm.group(1).strip().rstrip(","), pm.group(2)
            if head:
                pre.extend(int(t) for t in head.split(","))
            per = [int(t) for t in body.split(",")]
        else:
            pre.extend(int(t) for t in rest.split(","))
    try:
        return normalize_cf(tuple(pre), tuple(per))
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


def normalize_cf(
    pre: tuple[int, ...], per: tuple[int, ...], value_hint: "Quad | None" = None
) -> CF:
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
    return CF(tuple(pre), tuple(per), value_hint)


def cf_expand(x: Quad) -> CF:
    """Exact eventually periodic expansion of a Quad.

    Rational values give a finite expansion (empty period, canonical
    last quotient).  Quadratic irrationals use the integer state
    (P + sqrt(N)) / Q; the first repeated state marks the cycle, which
    yields the minimal period and shortest preperiod.
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

    # write x = (P + sqrt(N)) / Q with integers, Q | (N - P^2)
    a_int, b_int, common = x._over_one_denominator()
    n = b_int * b_int * x.d
    if b_int > 0:
        pcur, qcur = a_int, common
    else:
        pcur, qcur = -a_int, -common
    if (n - pcur * pcur) % qcur != 0:
        scale = abs(qcur)
        pcur *= scale
        n *= scale * scale
        qcur *= scale

    sqrt_n = Quad(0, 1, n)
    seen: dict[tuple[int, int], int] = {}
    quotients = []
    while (pcur, qcur) not in seen:
        seen[(pcur, qcur)] = len(quotients)
        a = ((sqrt_n + pcur) / qcur).floor()
        quotients.append(a)
        pnext = a * qcur - pcur
        qnext = (n - pnext * pnext) // qcur
        pcur, qcur = pnext, qnext
    start = seen[(pcur, qcur)]
    return CF(tuple(quotients[:start]), tuple(quotients[start:]), x)


def cf_value(c: CF, radicand: int | None = None) -> Quad:
    """Exact value of a continued fraction; inverse of cf_expand.

    A known squarefree radicand (taken from value_hint when present)
    lets the periodic-tail discriminant be resolved without factoring,
    which keeps long periods exact.
    """
    if radicand is None and c.value_hint is not None:
        radicand = c.value_hint.d
    if c.period:
        h1, h0 = 1, 0  # numerator convergents of the period block
        k1, k0 = 0, 1
        for a in c.period:
            h1, h0 = a * h1 + h0, h1
            k1, k0 = a * k1 + k0, k1
        # periodic tail y satisfies  k1 y^2 + (k0 - h1) y - h0 = 0, y > 1
        disc = (k0 - h1) * (k0 - h1) + 4 * k1 * h0
        parts = _square_part_with_field(disc, radicand) if radicand else None
        if parts is None:
            parts = squarefree_decompose(disc)
        s, d = parts
        root = Quad(s) if d in (0, 1) else Quad(0, s, d)
        value = (Quad(h1 - k0) + root) / (2 * k1)
        head = c.preperiod
    else:
        value = Quad(c.preperiod[-1])
        head = c.preperiod[:-1]
    for a in reversed(head):
        value = Quad(a) + QUAD_ONE / value
    return value


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

    Applies the case rules for Sturm-number shapes and keeps the first
    rewriting whose exact value matches (alpha' - 1)/(2 alpha' - 1).
    """
    if not c.period:
        raise SturmdualError("finite expansion: not a Sturm number")
    alpha = cf_value(c)
    if not is_sturm_number(alpha):
        raise SturmdualError(f"{format_cf(c)} is not the expansion of a Sturm number")
    target = dual_frequency_value(alpha)
    for pre, per in _sturm_transform_candidates(c):
        try:
            cand = normalize_cf(pre, per)
            value = cf_value(cand, radicand=target.d)
        except (ValueError, SturmdualError):
            continue
        if value == target:
            return normalize_cf(cand.preperiod, cand.period, target)
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
