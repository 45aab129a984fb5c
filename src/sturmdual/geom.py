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
from .quadfield import QUAD_ONE, QUAD_ZERO, LatticeLine, Quad, SpectralData, spectral
from .subst import Mat2, Substitution, fixed_point_prefix, letter_fixing_power
from .words import prefix_counts

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


def tile_subst_from(sigma: Substitution) -> TileSubst:
    """Canonical tile-substitution of a primitive unimodular substitution.

    Tile lengths come from the left eigenvector (1, ell); the digit in
    cell (i, j) is the valuation of the prefix before each occurrence
    of i in the image of j.
    """
    spec = lattice_for(sigma)
    line = LatticeLine(spec.ell)
    rows: list[list[list[Quad]]] = [[[], []], [[], []]]
    for j in "ab":
        image = sigma.image(j)
        for letter, counts in zip(image, prefix_counts(image)):
            rows[_IDX[letter]][_IDX[j]].append(line.value(*counts))
    digits = DigitMatrix.from_lists(rows)
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


def iterate_patch(sigma: Substitution, letter: str, n: int) -> list[tuple[str, Quad]]:
    """Level-n patch of one prototile, anchored at 0: the tiles of
    sigma^n(letter) in word order, tile a of length 1 and tile b of length
    ell, as (letter, left end) pairs.  The tiles abut, so the left end of
    each is |w|_a + |w|_b*ell over the prefix w before it.
    """
    if n < 0:
        raise ValueError("level must be >= 0")
    line = LatticeLine(lattice_for(sigma).ell)
    word = letter
    for _ in range(n):
        word = sigma.apply_positive(word)
    return [(x, line.value(*counts)) for x, counts in zip(word, prefix_counts(word))]


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
    """Exact window intervals: the star-dual's prototiles scaled by lambda.

    The window R_i is the union of lambda' * R_j + v over the conjugate
    valuations v of the prefixes before each occurrence of i in the
    image of j.  For determinant +1, lambda' = 1/lambda, so lambda^-1 R
    solves the set equation of the star-dual, whose digits are the
    starred transpose of the tile digits: R_i = lambda * T*_i.  Its
    endpoints are exact (they are strict limits of prefix valuations,
    so sampling alone cannot attain them).  A prefix sample of the
    fixed point then checks that the scaled star-dual prototiles are
    the windows: each conjugate prefix valuation lies in the window of
    the letter that follows it.
    """
    if sigma.det() == -1 and sigma.is_primitive():
        raise DeterminantMinusOneError(
            f"{sigma} has determinant -1; decompose the window of the square"
        )
    tile = tile_subst_from(sigma)
    try:
        t = star_dual(tile)
    except CoveringError as exc:
        raise NonIntervalWindowError(
            f"window of {sigma} is not a pair of intervals (not invertible)"
        ) from exc
    lo = {x: t.inflation * t.offsets[_IDX[x]] for x in "ab"}
    hi = {x: t.inflation * (t.offsets[_IDX[x]] + t.lengths[_IDX[x]]) for x in "ab"}

    ell_conj = tile.lengths[1].star()
    prefix = fixed_point_prefix(sigma, _PREFIX_SAMPLE)
    value = QUAD_ZERO
    for m in range(1, len(prefix)):
        value = value + (QUAD_ONE if prefix[m - 1] == "a" else ell_conj)
        nxt = prefix[m]
        if not (lo[nxt] <= value <= hi[nxt]):
            raise NonIntervalWindowError(
                f"prefix valuation escapes the solved window of {sigma}"
            )
    if max(lo["a"], lo["b"]) > min(hi["a"], hi["b"]):
        raise SturmdualError(f"the two windows of {sigma} do not meet")
    return RauzyDecomposition(r_a=(lo["a"], hi["a"]), r_b=(lo["b"], hi["b"]))


# ---------------------------------------------------------------------------
# Cut and project
# ---------------------------------------------------------------------------


def lattice_for(sigma: Substitution) -> SpectralData:
    """Spectral data of sigma, whose ell and ell' span the planar lattice
    of (1, 1) and (ell, ell'): physical space first, internal second.
    A sigma that is not primitive, or not unimodular, is refused by name."""
    try:
        return spectral(sigma.matrix())
    except SturmdualError:
        if not sigma.is_primitive():
            raise SturmdualError(f"{sigma} is not primitive") from None
        if sigma.det() not in (1, -1):
            raise SturmdualError(f"{sigma} is not unimodular") from None
        raise


def _model_pairs(lat: SpectralData, window, phys_range) -> list[tuple[int, int]]:
    """The integer pairs (alpha, beta) of the lattice points whose internal
    coordinate alpha + beta*ell' lies in the window [lo, hi) and whose
    physical coordinate alpha + beta*ell lies in the closed range, each
    bound decided by one integer sign test."""
    wlo, whi = (_as_quad(window[0]), _as_quad(window[1]))
    rlo, rhi = (_as_quad(phys_range[0]), _as_quad(phys_range[1]))
    denom = lat.ell - lat.ell_conj
    if denom.sign() <= 0:
        raise SturmdualError("lattice basis is degenerate: ell <= ell'")
    # beta*(ell - ell') is the physical minus the internal coordinate, so
    # it lies in [rlo - whi, rhi - wlo]; per beta, alpha + beta*ell must lie
    # in the range and alpha + beta*ell' in the closed window, so the alpha
    # tested are the integers of an interval no longer than the window
    spread = LatticeLine(denom, whi - rlo, rhi - wlo)
    beta_lo, beta_hi = -spread.ratio_floor(0), spread.ratio_floor(1)
    phys = LatticeLine(lat.ell, rlo, rhi)
    intern = LatticeLine(lat.ell_conj, wlo, whi)
    points = []
    for beta in range(beta_lo, beta_hi + 1):
        # ceil(c - beta*x) is -floor(beta*x - c) and floor(c - beta*x) is -ceil(beta*x - c)
        alo = -min(phys.floor(0, beta, 0), intern.floor(0, beta, 0))
        ahi = -max(phys.ceil(0, beta, 1), intern.ceil(0, beta, 1))
        for alpha in range(alo, ahi + 1):
            if intern.sign(alpha, beta, 0) >= 0 > intern.sign(alpha, beta, 1):
                points.append((alpha, beta))
    return points


def cut_project_points(lat: SpectralData, window, phys_range) -> list[Quad]:
    """Physical projections of lattice points whose internal projection
    lies in the window [lo, hi); the physical range is closed on both sides.

    Lattice points are integer pairs (alpha, beta), tested and sorted as
    such; a Quad is built only for each point returned.
    """
    line = LatticeLine(lat.ell)
    return [line.value(*p) for p in line.ordered(_model_pairs(lat, window, phys_range))]


def cut_project_verify(sigma: Substitution, phys_range) -> bool:
    """The vertices of the fixed point's tiling in the physical range are
    the model set of the window pair.

    The vertices are the integer pairs (|w|_a, |w|_b), the point
    |w|_a + |w|_b*ell, of the prefixes w of sigma^k(x), where x and the
    power come from letter_fixing_power and k is the first level whose
    right end reaches the range's top.  Each window endpoint is the
    internal coordinate of at most one lattice point, so the two sets are
    equal exactly when every vertex lies in the closed window and every
    model-set point whose internal coordinate lies strictly above the
    window's low end (the open-window model set) is a vertex.

    The tiling has no vertex below 0, so a range that reaches below 0 is
    refused with SturmdualError.
    """
    rlo, rhi = (_as_quad(phys_range[0]), _as_quad(phys_range[1]))
    if rlo.sign() < 0:
        raise SturmdualError(
            f"physical range [{rlo}, {rhi}] reaches below 0, where the fixed-point patch has no vertex"
        )
    seed, tau = letter_fixing_power(sigma)
    lat = lattice_for(sigma)
    phys = LatticeLine(lat.ell, rlo, rhi)
    word = seed
    while phys.sign(word.count("a"), word.count("b"), 1) < 0:
        word = tau.apply_positive(word)
    vertices = {v for v in prefix_counts(word) if phys.sign(*v, 0) >= 0 >= phys.sign(*v, 1)}
    window = rauzy_decomposition(sigma).window()
    intern = LatticeLine(lat.ell_conj, *window)
    if any(intern.sign(*v, 0) < 0 or intern.sign(*v, 1) > 0 for v in vertices):
        return False
    model = _model_pairs(lat, window, (rlo, rhi))
    return all(p in vertices for p in model if intern.sign(*p, 0) > 0)


# ---------------------------------------------------------------------------
# Rotation words
# ---------------------------------------------------------------------------


def sturmian_word(alpha: Quad, rho, convention: str, n: int) -> str:
    """Coding of the rotation orbit rho, rho+alpha, ... over the two-interval
    partition at 1 - alpha.

    convention "lower" uses [0, 1-alpha) vs [1-alpha, 1); "upper" uses
    (0, 1-alpha] vs (1-alpha, 1].  Letter k is "ab"[f(x + alpha) - f(x)]
    at x = rho + k*alpha, with f = floor for "lower" and ceil for "upper",
    and each f(rho + k*alpha) is one integer floor or ceiling on the
    lattice line of alpha against the bound -rho.
    """
    if convention not in ("lower", "upper"):
        raise ValueError("convention must be 'lower' or 'upper'")
    if n < 1:
        raise ValueError("need n >= 1")
    alpha = _as_quad(alpha)
    if alpha.is_rational or not (QUAD_ZERO < alpha < QUAD_ONE):
        raise SturmdualError("slope must be a quadratic irrational in (0, 1)")
    line = LatticeLine(alpha, -rho)
    f = line.floor if convention == "lower" else line.ceil
    levels = [f(0, k, 0) for k in range(n + 1)]
    return "".join("ab"[nxt - level] for level, nxt in zip(levels, levels[1:]))


def characteristic_word(alpha: Quad, n: int) -> str:
    """Rotation word with initial point equal to the slope itself."""
    return sturmian_word(alpha, alpha, "lower", n)
