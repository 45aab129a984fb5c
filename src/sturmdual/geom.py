"""Interval tile-substitutions, star-duality, window decompositions,
cut-and-project point sets and rotation words.

All endpoints live in a fixed real quadratic field and every covering or
membership statement is decided exactly.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    CoveringError,
    DeterminantMinusOneError,
    NonIntervalWindowError,
    SturmdualError,
)
from .quadfield import QUAD_ONE, QUAD_ZERO, Quad, spectral
from .subst import Mat2, Substitution, fixed_point_prefix, letter_fixing_power

_IDX = {"a": 0, "b": 1}
# letters of the fixed point whose prefix valuations are checked against a window
_PREFIX_SAMPLE = 2**9


def _as_quad(x) -> Quad:
    if isinstance(x, Quad):
        return x
    if isinstance(x, (int, Fraction)):
        return Quad(x)
    raise TypeError(f"expected a number, got {type(x).__name__}")


@dataclass(frozen=True)
class DigitMatrix:
    """2x2 matrix of finite digit sets (translation offsets)."""

    entries: tuple[tuple[frozenset, frozenset], tuple[frozenset, frozenset]]

    @classmethod
    def from_lists(cls, rows) -> "DigitMatrix":
        return cls(
            tuple(tuple(frozenset(_as_quad(d) for d in cell) for cell in row) for row in rows)
        )

    def cell(self, row: int, col: int) -> frozenset:
        return self.entries[row][col]

    def transpose(self) -> "DigitMatrix":
        e = self.entries
        return DigitMatrix(((e[0][0], e[1][0]), (e[0][1], e[1][1])))

    def star(self) -> "DigitMatrix":
        return DigitMatrix(
            tuple(tuple(frozenset(d.star() for d in cell) for cell in row) for row in self.entries)
        )

    def scale(self, factor: Quad) -> "DigitMatrix":
        return DigitMatrix(
            tuple(tuple(frozenset(d * factor for d in cell) for cell in row) for row in self.entries)
        )

    def cardinalities(self) -> Mat2:
        e = self.entries
        return Mat2(len(e[0][0]), len(e[0][1]), len(e[1][0]), len(e[1][1]))

    def __str__(self):
        def fmt_cell(cell):
            return "{" + ", ".join(str(d) for d in sorted(cell)) + "}"

        return "[" + "; ".join(
            ", ".join(fmt_cell(cell) for cell in row) for row in self.entries
        ) + "]"


@dataclass(frozen=True)
class TileSubst:
    """Self-similar interval substitution: prototile i is [offset_i, offset_i + length_i]
    and inflation * T_j is tiled by translates T_i + d over d in digits[i][j]."""

    inflation: Quad
    lengths: tuple[Quad, Quad]
    offsets: tuple[Quad, Quad]
    digits: DigitMatrix


def _delta_offsets(sigma: Substitution, ell: Quad):
    """Per (target letter, source letter): prefix valuations at the positions
    of the target letter, using tile lengths (1, ell)."""
    table: dict[tuple[str, str], list[Quad]] = {
        (i, j): [] for i in "ab" for j in "ab"
    }
    for j in "ab":
        value = QUAD_ZERO
        for letter in sigma.image(j):
            table[(letter, j)].append(value)
            value = value + (QUAD_ONE if letter == "a" else ell)
    return table


def tile_subst_from(sigma: Substitution) -> TileSubst:
    """Canonical tile-substitution of a primitive unimodular substitution.

    Tile lengths come from the left eigenvector (1, ell); the digit in
    cell (i, j) is the valuation of the prefix before each occurrence
    of i in the image of j.
    """
    spec = spectral(sigma.matrix())
    table = _delta_offsets(sigma, spec.ell)
    digits = DigitMatrix.from_lists(
        [[table[("a", "a")], table[("a", "b")]], [table[("b", "a")], table[("b", "b")]]]
    )
    if digits.cardinalities() != sigma.matrix():
        raise SturmdualError(f"digit counts of {sigma} differ from its matrix")
    return TileSubst(
        inflation=spec.lam,
        lengths=(QUAD_ONE, spec.ell),
        offsets=(QUAD_ZERO, QUAD_ZERO),
        digits=digits,
    )


# ---------------------------------------------------------------------------
# Exact interval attractors
# ---------------------------------------------------------------------------


def _solve_selected(sel, ratio: Quad) -> dict[str, Quad]:
    """Solve x_t = ratio * x_{s(t)} + c_t exactly for the two targets."""
    (sa, ca), (sb, cb) = sel["a"], sel["b"]
    one = QUAD_ONE
    if sa == "a":
        xa = ca / (one - ratio)
        xb = cb / (one - ratio) if sb == "b" else ratio * xa + cb
    elif sb == "a":  # sa == "b"
        xa = (ratio * cb + ca) / (one - ratio * ratio)
        xb = ratio * xa + cb
    else:  # sa == "b", sb == "b"
        xb = cb / (one - ratio)
        xa = ratio * xb + ca
    return {"a": xa, "b": xb}


def solve_interval_ifs(maps, ratio: Quad):
    """Exact interval attractor of x_t = union of ratio*x_s + c.

    maps: {"a": [(source, offset), ...], "b": [...]} with Quad offsets
    and 0 < ratio < 1.  Returns (lo, hi) dicts with exact endpoints and
    verifies that the pieces tile each interval without gaps or
    overlaps; raises CoveringError otherwise.

    The endpoints solve lo_t = min(ratio*lo_s + c) and hi_t =
    max(ratio*hi_s + c) over the pieces of t, found by policy iteration:
    start from the first piece of each target, solve the chosen pieces
    exactly, and switch a target to its best piece only when that piece
    is strictly better than the target's current value.  Each switch
    strictly improves the solved values (the ratio is below 1), so no
    choice of pieces recurs; there are finitely many, so the loop ends,
    and it ends only at the exact solution of both equations.
    """
    if not (QUAD_ZERO < ratio < QUAD_ONE):
        raise SturmdualError("contraction ratio must lie in (0, 1)")
    for t in "ab":
        if not maps.get(t):
            raise CoveringError(f"no pieces produced for tile {t}")

    def solve(better):
        sel = {t: maps[t][0] for t in "ab"}
        while True:
            x = _solve_selected(sel, ratio)
            switched = False
            for t in "ab":
                value = x[t]
                for source, c in maps[t]:
                    candidate = ratio * x[source] + c
                    if better(candidate, value):
                        sel[t], value, switched = (source, c), candidate, True
            if not switched:
                return x

    lo, hi = solve(operator.lt), solve(operator.gt)
    for t in "ab":
        if not lo[t] < hi[t]:
            raise CoveringError(f"degenerate interval for tile {t}")
        pieces = sorted(
            ((ratio * lo[s] + c, ratio * hi[s] + c) for s, c in maps[t]),
            key=lambda piece: piece[0],
        )
        if pieces[0][0] != lo[t] or pieces[-1][1] != hi[t]:
            raise CoveringError(f"pieces do not span the interval for tile {t}")
        for (_, r1), (l2, _) in zip(pieces, pieces[1:]):
            if r1 != l2:
                raise CoveringError(f"gap or overlap inside tile {t}")
    return lo, hi


def tile_subst_from_digits(digits: DigitMatrix) -> TileSubst:
    """Reconstruct the tile-substitution determined by a digit matrix.

    The inflation factor is the dominant eigenvalue of the cardinality
    matrix and the prototiles are the exact interval attractor of the
    subdivision; raises CoveringError when the digits do not tile.
    """
    cards = digits.cardinalities()
    spec = spectral(cards)
    ratio = QUAD_ONE / spec.lam
    maps = {
        j: [
            (i, d * ratio)
            for i in "ab"
            for d in sorted(digits.cell(_IDX[i], _IDX[j]))
        ]
        for j in "ab"
    }
    lo, hi = solve_interval_ifs(maps, ratio)
    return TileSubst(
        inflation=spec.lam,
        lengths=(hi["a"] - lo["a"], hi["b"] - lo["b"]),
        offsets=(lo["a"], lo["b"]),
        digits=digits,
    )


def star_dual(t: TileSubst) -> TileSubst:
    """Tile-substitution of the starred transpose of the digit matrix."""
    return tile_subst_from_digits(t.digits.transpose().star())


def iterate_patch(t: TileSubst, letter: str, n: int):
    """Level-n subdivision patch of one prototile, anchored at translation 0.

    Returns (letter, left endpoint) pairs sorted left to right; the
    tiles abut exactly.
    """
    if n < 0:
        raise ValueError("level must be >= 0")
    tiles = [(letter, QUAD_ZERO)]
    for _ in range(n):
        new = []
        for j, tr in tiles:
            scaled = t.inflation * tr
            for i in "ab":
                for d in t.digits.cell(_IDX[i], _IDX[j]):
                    new.append((i, scaled + d))
        tiles = new
    out = [(ltr, t.offsets[_IDX[ltr]] + tr) for ltr, tr in tiles]
    out.sort(key=lambda pair: pair[1])
    return out


# ---------------------------------------------------------------------------
# Window decompositions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RauzyDecomposition:
    """Exact natural decomposition (window pair) of an invertible
    substitution, certified by the interval set equation."""

    r_a: tuple[Quad, Quad]
    r_b: tuple[Quad, Quad]

    def window(self) -> tuple[Quad, Quad]:
        return (min(self.r_a[0], self.r_b[0]), max(self.r_a[1], self.r_b[1]))


def rauzy_decomposition(sigma: Substitution) -> RauzyDecomposition:
    """Exact window intervals from the conjugate valuation of prefixes.

    The endpoints solve the interval set equation exactly (they are
    strict limits of prefix valuations, so sampling alone cannot attain
    them); a prefix sample of the fixed point is checked for containment.
    """
    if not sigma.is_primitive():
        raise SturmdualError(f"{sigma} is not primitive")
    det = sigma.det()
    if det == -1:
        raise DeterminantMinusOneError(
            f"{sigma} has determinant -1; decompose the window of the square"
        )
    if det != 1:
        raise SturmdualError(f"{sigma} is not unimodular")
    spec = spectral(sigma.matrix())
    ratio = spec.lam_conj  # equals 1/lambda, in (0, 1)
    table = _delta_offsets(sigma, spec.ell_conj)
    maps = {
        i: [(j, off) for j in "ab" for off in table[(i, j)]]
        for i in "ab"
    }
    try:
        lo, hi = solve_interval_ifs(maps, ratio)
    except CoveringError as exc:
        raise NonIntervalWindowError(
            f"window of {sigma} is not a pair of intervals (not invertible)"
        ) from exc

    # cross-check: prefix valuations land inside the solved windows
    prefix = fixed_point_prefix(sigma, _PREFIX_SAMPLE)
    value = QUAD_ZERO
    for m in range(1, len(prefix)):
        value = value + (QUAD_ONE if prefix[m - 1] == "a" else spec.ell_conj)
        nxt = prefix[m]
        if not (lo[nxt] <= value <= hi[nxt]):
            raise NonIntervalWindowError(
                f"prefix valuation escapes the solved window of {sigma}"
            )
    if max(lo["a"], lo["b"]) > min(hi["a"], hi["b"]):
        raise SturmdualError(f"the two windows of {sigma} do not meet")
    return RauzyDecomposition(r_a=(lo["a"], hi["a"]), r_b=(lo["b"], hi["b"]))


def e_matrix(sigma: Substitution) -> DigitMatrix:
    """Digit sets of the window set equation, inflated by the dominant
    eigenvalue: cell (j, i) collects lambda * conjugate-valuation of the
    prefixes before each occurrence of i in the image of j."""
    spec = spectral(sigma.matrix())
    table = _delta_offsets(sigma, spec.ell_conj)
    rows = [
        [
            [spec.lam * off for off in table[(i, j)]]
            for i in "ab"
        ]
        for j in "ab"
    ]
    return DigitMatrix.from_lists(rows)


def star_relation_check(sigma: Substitution) -> bool:
    """Exact identity: starred transpose of the digit matrix equals the
    window digit matrix scaled by 1/lambda."""
    t = tile_subst_from(sigma)
    e = e_matrix(sigma)
    lam = spectral(sigma.matrix()).lam
    return t.digits.star().transpose() == e.scale(QUAD_ONE / lam)


# ---------------------------------------------------------------------------
# Cut and project
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Lattice:
    """Planar lattice spanned by (1, 1) and (ell, ell'); the first
    coordinate is physical space, the second internal space."""

    ell: Quad
    ell_conj: Quad

    def project_phys(self, alpha: int, beta: int) -> Quad:
        return Quad(alpha) + self.ell * beta

    def project_intern(self, alpha: int, beta: int) -> Quad:
        return Quad(alpha) + self.ell_conj * beta


def lattice_for(sigma: Substitution) -> Lattice:
    spec = spectral(sigma.matrix())
    return Lattice(spec.ell, spec.ell_conj)


def cut_project_points(lat: Lattice, window, phys_range, closed: str = "lo") -> list[Quad]:
    """Physical projections of lattice points whose internal projection
    lies in the window; the physical range is closed on both sides.

    closed selects the window convention: "lo" for [lo, hi) (the
    default), "hi" for (lo, hi], "open" for (lo, hi), "both" for [lo, hi].
    """
    if closed not in ("lo", "hi", "open", "both"):
        raise ValueError("closed must be 'lo', 'hi', 'open' or 'both'")
    wlo, whi = (_as_quad(window[0]), _as_quad(window[1]))
    rlo, rhi = (_as_quad(phys_range[0]), _as_quad(phys_range[1]))
    denom = lat.ell - lat.ell_conj
    if denom.sign() <= 0:
        raise SturmdualError("lattice basis is degenerate: ell <= ell'")
    beta_lo = ((rlo - whi) / denom).floor() - 1
    beta_hi = ((rhi - wlo) / denom).ceil() + 1
    points = []
    for beta in range(beta_lo, beta_hi + 1):
        alo = rlo - lat.ell * beta
        ahi = rhi - lat.ell * beta
        for alpha in range(alo.ceil(), ahi.floor() + 1):
            intern = lat.project_intern(alpha, beta)
            lo_ok = wlo <= intern if closed in ("lo", "both") else wlo < intern
            hi_ok = intern <= whi if closed in ("hi", "both") else intern < whi
            if lo_ok and hi_ok:
                points.append(lat.project_phys(alpha, beta))
    points.sort()
    return points


def covering_depth(sigma: Substitution, hi) -> int:
    """Smallest patch level whose fixed-point patch spans [0, hi]."""
    hi = _as_quad(hi)
    spec = spectral(sigma.matrix())
    power, seed, _ = letter_fixing_power(sigma)
    m = sigma.matrix()
    depth = power
    while True:
        counts = m.power(depth).apply((1, 0) if seed == "a" else (0, 1))
        extent = Quad(counts[0]) + spec.ell * counts[1]
        if extent >= hi:
            return depth
        depth += power


def cut_project_verify(sigma: Substitution, depth: int, phys_range) -> bool:
    """Patch vertex set equals the model set with the window decomposition.

    The patch follows the fixed point (it is anchored at the fixed
    point's leading letter and iterated by the letter-fixing power), so
    its vertex set is the origin together with the prefix valuations.
    Interior window points are all vertices; each window endpoint is the
    internal coordinate of at most one lattice point, which is a vertex
    exactly when the fixed-point prefix of the matching length has the
    matching abelianization.  Both sides are computed exactly.
    """
    rlo, rhi = (_as_quad(phys_range[0]), _as_quad(phys_range[1]))
    power, seed, _ = letter_fixing_power(sigma)
    levels = depth if depth % power == 0 else depth + power - depth % power

    t = tile_subst_from(sigma)
    patch = iterate_patch(t, seed, levels)
    last_letter, last_left = patch[-1]
    extent = last_left + t.lengths[_IDX[last_letter]]
    if extent < rhi:
        raise SturmdualError(
            f"level-{levels} patch spans only up to {extent}; increase the depth"
        )
    vertices = [left for _, left in patch]
    vertices.append(extent)
    vertices = sorted(v for v in vertices if rlo <= v <= rhi)

    rd = rauzy_decomposition(sigma)
    lat = lattice_for(sigma)
    model = cut_project_points(lat, rd.window(), (rlo, rhi), closed="open")
    word = "".join(letter for letter, _ in patch)
    for z in rd.window():
        point = _boundary_vertex(lat, z, word)
        if point is not None and rlo <= point <= rhi and point not in model:
            model.append(point)
    model.sort()
    return vertices == model


def _boundary_vertex(lat: Lattice, z: Quad, prefix_word: str) -> Quad | None:
    """Physical coordinate of the unique lattice point with internal
    coordinate z, when that point is a vertex of the fixed-point tiling."""
    beta_frac = z.q / lat.ell_conj.q if lat.ell_conj.q else None
    if beta_frac is None or beta_frac.denominator != 1 or z.d not in (0, lat.ell_conj.d):
        return None
    beta = int(beta_frac)
    alpha_frac = z.p - beta * lat.ell_conj.p
    if alpha_frac.denominator != 1:
        return None
    alpha = int(alpha_frac)
    m = alpha + beta
    if m < 0 or m > len(prefix_word):
        return None
    piece = prefix_word[:m]
    if (piece.count("a"), piece.count("b")) != (alpha, beta):
        return None
    return lat.project_phys(alpha, beta)


# ---------------------------------------------------------------------------
# Rotation words
# ---------------------------------------------------------------------------


def sturmian_word(alpha: Quad, rho, convention: str, n: int) -> str:
    """Coding of the rotation orbit rho, rho+alpha, ... over the two-interval
    partition at 1 - alpha.

    convention "lower" uses [0, 1-alpha) vs [1-alpha, 1); "upper" uses
    (0, 1-alpha] vs (1-alpha, 1].
    """
    if convention not in ("lower", "upper"):
        raise ValueError("convention must be 'lower' or 'upper'")
    if n < 1:
        raise ValueError("need n >= 1")
    alpha = _as_quad(alpha)
    if alpha.is_rational or not (QUAD_ZERO < alpha < QUAD_ONE):
        raise SturmdualError("slope must be a quadratic irrational in (0, 1)")
    threshold = QUAD_ONE - alpha
    x = _as_quad(rho)
    out = []
    for _ in range(n):
        if convention == "lower":
            frac = x - x.floor()
            out.append("a" if frac < threshold else "b")
        else:
            frac = x - (x.ceil() - 1)
            out.append("a" if frac <= threshold else "b")
        x = x + alpha
    return "".join(out)


def characteristic_word(alpha: Quad, n: int) -> str:
    """Rotation word with initial point equal to the slope itself."""
    return sturmian_word(alpha, alpha, "lower", n)
