"""Geometric lifts of substitutions to lattice strands and their duals.

A primal segment (W, a) or (W, b) is a unit step from W in the letter
direction; a dual segment (W, a*) spans W to W + e_b and (W, b*) spans
W to W + e_a.  Strands chain such segments into paths that project
injectively to the diagonal x = y (primal) or to x + y = 0 (dual).

Dual strands are traversed from upper left to lower right, and coding
reads a* as the letter a and b* as the letter b along the traversal.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .errors import NotInvertibleError, SturmdualError
from .invert import is_invertible
from .quadfield import QUAD_ONE, LatticeLine, SpectralData
from .subst import Substitution
from .words import prefix_counts

PRIMAL_KINDS = ("a", "b")
DUAL_KINDS = ("a*", "b*")


@dataclass(frozen=True, slots=True)
class Segment:
    x: int
    y: int
    kind: str

    def __post_init__(self):
        if self.kind not in PRIMAL_KINDS + DUAL_KINDS:
            raise ValueError(f"bad segment kind {self.kind!r}")

    @property
    def is_dual(self) -> bool:
        return self.kind in DUAL_KINDS

    @property
    def letter(self) -> str:
        return self.kind[0]

    def traversal_start(self) -> tuple[int, int]:
        if self.kind == "a*":
            return (self.x, self.y + 1)
        return (self.x, self.y)

    def traversal_end(self) -> tuple[int, int]:
        if self.kind == "a":
            return (self.x + 1, self.y)
        if self.kind == "b":
            return (self.x, self.y + 1)
        if self.kind == "a*":
            return (self.x, self.y)
        return (self.x + 1, self.y)

    def traversal_key(self) -> int:
        sx, sy = self.traversal_start()
        return sx + sy if not self.is_dual else sx - sy

    def __str__(self):
        return f"({self.x},{self.y};{self.kind})"


class StrandSum(Counter):
    """Finite formal sum of segments: a Counter of nonnegative multiplicities."""

    @classmethod
    def single(cls, x: int, y: int, kind: str) -> "StrandSum":
        return cls([Segment(x, y, kind)])

    def segments(self) -> list[Segment]:
        """Expanded list, multiplicity-many copies, deterministic order."""
        return sorted(self.elements(), key=lambda s: (s.x, s.y, s.kind))

    def all_primal(self) -> bool:
        return all(not s.is_dual for s in self)

    def all_dual(self) -> bool:
        return all(s.is_dual for s in self)

    def __repr__(self):
        return "StrandSum([" + ", ".join(str(s) for s in self.segments()) + "])"


def e1_apply(sigma: Substitution, s: StrandSum) -> StrandSum:
    """One-dimensional extension acting on primal segments.

    (W, i) maps to the sum over positions k of sigma(i) of
    (M.W + A(prefix before k), k-th letter).
    """
    if not s.all_primal():
        raise SturmdualError("primal extension applied to dual segments")
    m = sigma.matrix()
    out = StrandSum()
    for seg, mult in s.items():
        wx, wy = m.apply((seg.x, seg.y))
        image = sigma.image(seg.letter)
        for letter, (na, nb) in zip(image, prefix_counts(image)):
            out[Segment(wx + na, wy + nb, letter)] += mult
    return out


def e1_star_apply(sigma: Substitution, s: StrandSum) -> StrandSum:
    """Adjoint extension acting on dual segments (unimodular input only).

    (W, i*) maps to the sum over letters j and positions k with
    sigma(j)_k = i of (M^{-1}(W + A(suffix after k)), j*).
    """
    if not s.all_dual():
        raise SturmdualError("dual extension applied to primal segments")
    try:
        minv = sigma.matrix().inverse_unimodular()
    except SturmdualError:
        raise SturmdualError(f"{sigma} is not unimodular") from None
    # per letter i, A(suffix after k) and j* for each k with sigma(j)_k = i:
    # the suffix counts are the image's total minus the prefix through k
    suffixes = {"a": [], "b": []}
    for j, dual_kind in zip("ab", DUAL_KINDS):
        image = sigma.image(j)
        counts = prefix_counts(image)
        ta, tb = counts[-1]
        for letter, (na, nb) in zip(image, counts[1:]):
            suffixes[letter].append((ta - na, tb - nb, dual_kind))
    out = StrandSum()
    for seg, mult in s.items():
        for na, nb, dual_kind in suffixes[seg.letter]:
            wx, wy = minv.apply((seg.x + na, seg.y + nb))
            out[Segment(wx, wy, dual_kind)] += mult
    return out


def sort_along(s: StrandSum) -> list[Segment] | None:
    """Traversal order of a primal or a dual strand, or None when the
    segments mix the two, repeat, or do not chain end to end."""
    if not s:
        return []
    dual = next(iter(s)).is_dual
    if not (s.all_dual() if dual else s.all_primal()) or any(c != 1 for c in s.values()):
        return None
    segs = sorted(s, key=Segment.traversal_key)
    keys = [seg.traversal_key() for seg in segs]
    if len(set(keys)) != len(keys):
        return None
    for cur, nxt in zip(segs, segs[1:]):
        if cur.traversal_end() != nxt.traversal_start():
            return None
    return segs


def dual_substitution(sigma: Substitution) -> Substitution:
    """Word substitution coding the adjoint extension on unit dual segments.

    Defined whenever the images of the two elementary dual segments are
    genuine dual strands; its matrix is the transpose of the input's.
    """
    if not sigma.is_unimodular():
        raise SturmdualError(f"{sigma} is not unimodular")
    images = {}
    for x in "ab":
        chain = sort_along(e1_star_apply(sigma, StrandSum.single(0, 0, x + "*")))
        if chain is None:
            raise NotInvertibleError(
                f"dual image of ({x}*) is not connected; {sigma} has no dual substitution"
            )
        images[x] = "".join(seg.letter for seg in chain)
    dual = Substitution(images["a"], images["b"])
    if dual.matrix() != sigma.matrix().transpose():
        raise SturmdualError(f"matrix of the dual {dual} of {sigma} is not the transpose")
    if sigma.det() == 1 and is_invertible(sigma) and not is_invertible(dual):
        raise SturmdualError(f"dual {dual} of the invertible {sigma} is not invertible")
    return dual


def in_s_alpha(seg: Segment, spec: SpectralData) -> bool:
    """Membership of a dual segment in the stepped line of the expanding
    left eigenvector: 0 <= <W, v> < <e_i, v> for v = (1, ell), decided by
    integer sign tests of x + y*ell and of <W - e_i, v>."""
    if not seg.is_dual:
        raise SturmdualError("stepped-line membership is for dual segments")
    line = LatticeLine(spec.ell, 0)
    x, y = seg.x, seg.y
    below = line.sign(x - 1, y, 0) if seg.kind == "a*" else line.sign(x, y - 1, 0)
    return line.sign(x, y, 0) >= 0 > below


def s_alpha_segments(spec: SpectralData, radius: int) -> list[Segment]:
    """The segments of the stepped line with traversal key in [-radius, radius].

    There is exactly one segment per key, which is checked.
    """
    # each candidate y = ceil(-(key + shift) / (1 + ell)) is the ceiling of
    # 0 + (-(key + shift))*u for u = 1/(1 + ell)
    line = LatticeLine(QUAD_ONE / (spec.ell + 1), 0)
    out = []
    for key in range(-radius, radius + 1):
        # (x, y, a*) has key x - y - 1 and (x, y, b*) key x - y.  With
        # x = key + shift + y, the y that put x + y*ell in [0, 1) or [0, ell)
        # form an interval shorter than 1 that starts at the candidate
        found = []
        for kind, shift in (("a*", 1), ("b*", 0)):
            y = line.ceil(0, -(key + shift), 0)
            seg = Segment(key + shift + y, y, kind)
            if in_s_alpha(seg, spec):
                found.append(seg)
        if len(found) != 1:
            raise SturmdualError(f"stepped line has {len(found)} segments at key {key}")
        out.append(found[0])
    return out
