"""Geometric lifts of substitutions to lattice strands and their duals.

A primal segment (W, a) or (W, b) is a unit step from W in the letter
direction; a dual segment (W, a*) spans W to W + e_b and (W, b*) spans
W to W + e_a.  Strands chain such segments into paths that project
injectively to the diagonal x = y (primal) or to x + y = 0 (dual).

Dual strands are traversed from upper left to lower right, and coding
reads a* as the letter a and b* as the letter b along the traversal.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import NotInvertibleError, SturmdualError
from .invert import is_invertible
from .quadfield import QUAD_ZERO, Quad, SpectralData
from .subst import Substitution

PRIMAL_KINDS = ("a", "b")
DUAL_KINDS = ("a*", "b*")


@dataclass(frozen=True)
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


class StrandSum:
    """Finite formal sum of segments with nonnegative multiplicities."""

    __slots__ = ("_counts",)

    def __init__(self, segments=()):
        counts: dict[Segment, int] = {}
        for seg in segments:
            counts[seg] = counts.get(seg, 0) + 1
        self._counts = counts

    @classmethod
    def from_counts(cls, counts: dict[Segment, int]) -> "StrandSum":
        out = cls()
        out._counts.update({s: c for s, c in counts.items() if c})
        return out

    @classmethod
    def single(cls, x: int, y: int, kind: str) -> "StrandSum":
        return cls([Segment(x, y, kind)])

    def items(self):
        return self._counts.items()

    def segments(self) -> list[Segment]:
        """Expanded list, multiplicity-many copies, deterministic order."""
        out = []
        for seg in sorted(self._counts, key=lambda s: (s.x, s.y, s.kind)):
            out.extend([seg] * self._counts[seg])
        return out

    def multiplicity(self, seg: Segment) -> int:
        return self._counts.get(seg, 0)

    def __len__(self):
        return sum(self._counts.values())

    def __add__(self, other: "StrandSum") -> "StrandSum":
        merged = dict(self._counts)
        for seg, c in other._counts.items():
            merged[seg] = merged.get(seg, 0) + c
        return StrandSum.from_counts(merged)

    def __eq__(self, other):
        if not isinstance(other, StrandSum):
            return NotImplemented
        return self._counts == other._counts

    def __hash__(self):
        return hash(frozenset(self._counts.items()))

    def all_primal(self) -> bool:
        return all(not s.is_dual for s in self._counts)

    def all_dual(self) -> bool:
        return all(s.is_dual for s in self._counts)

    def to_json(self) -> list[str]:
        return [str(s) for s in self.segments()]

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
    counts: dict[Segment, int] = {}
    for seg, mult in s.items():
        wx, wy = m.apply((seg.x, seg.y))
        na = nb = 0
        for letter in sigma.image(seg.letter):
            out = Segment(wx + na, wy + nb, letter)
            counts[out] = counts.get(out, 0) + mult
            if letter == "a":
                na += 1
            else:
                nb += 1
    return StrandSum.from_counts(counts)


def e1_star_apply(sigma: Substitution, s: StrandSum) -> StrandSum:
    """Adjoint extension acting on dual segments (unimodular input only).

    (W, i*) maps to the sum over letters j and positions k with
    sigma(j)_k = i of (M^{-1}(W + A(suffix after k)), j*).
    """
    if not s.all_dual():
        raise SturmdualError("dual extension applied to primal segments")
    if not sigma.is_unimodular():
        raise SturmdualError(f"{sigma} is not unimodular")
    minv = sigma.matrix().inverse_unimodular()
    counts: dict[Segment, int] = {}
    for seg, mult in s.items():
        for j in "ab":
            image = sigma.image(j)
            na, nb = image.count("a"), image.count("b")
            for letter in image:
                if letter == "a":
                    na -= 1
                else:
                    nb -= 1
                if letter != seg.letter:
                    continue
                # (na, nb) now counts the suffix strictly after this position
                wx, wy = minv.apply((seg.x + na, seg.y + nb))
                out = Segment(wx, wy, j + "*")
                counts[out] = counts.get(out, 0) + mult
    return StrandSum.from_counts(counts)


def _chain(s: StrandSum, dual: bool) -> list[Segment] | None:
    if len(s) == 0:
        return []
    if dual and not s.all_dual():
        return None
    if not dual and not s.all_primal():
        return None
    if any(c != 1 for _, c in s.items()):
        return None
    segs = sorted((seg for seg, _ in s.items()), key=Segment.traversal_key)
    keys = [seg.traversal_key() for seg in segs]
    if len(set(keys)) != len(keys):
        return None
    for cur, nxt in zip(segs, segs[1:]):
        if cur.traversal_end() != nxt.traversal_start():
            return None
    return segs


def is_strand(s: StrandSum) -> bool:
    """Segments chain end to end along the primal traversal order."""
    return _chain(s, dual=False) is not None


def is_dual_strand(s: StrandSum) -> bool:
    """Segments chain end to end along the dual traversal order."""
    return _chain(s, dual=True) is not None


def sort_along(s: StrandSum) -> list[Segment]:
    """Traversal order of a (dual) strand; raises when not a strand."""
    if len(s) == 0:
        return []
    dual = next(iter(s.items()))[0].is_dual
    chain = _chain(s, dual)
    if chain is None:
        raise SturmdualError("segments do not form a strand")
    return chain


def code_strand(s: StrandSum) -> str:
    """Word read along a primal strand (a and b steps)."""
    chain = _chain(s, dual=False)
    if chain is None:
        raise SturmdualError("segments do not form a primal strand")
    return "".join(seg.letter for seg in chain)


def code_dual_strand(s: StrandSum) -> str:
    """Word read along a dual strand (a* -> a, b* -> b)."""
    chain = _chain(s, dual=True)
    if chain is None:
        raise SturmdualError("segments do not form a dual strand")
    return "".join(seg.letter for seg in chain)


def dual_substitution(sigma: Substitution) -> Substitution:
    """Word substitution coding the adjoint extension on unit dual segments.

    Defined whenever the images of the two elementary dual segments are
    genuine dual strands; its matrix is the transpose of the input's.
    """
    if not sigma.is_unimodular():
        raise SturmdualError(f"{sigma} is not unimodular")
    images = {}
    for x in "ab":
        image = e1_star_apply(sigma, StrandSum.single(0, 0, x + "*"))
        if not is_dual_strand(image):
            raise NotInvertibleError(
                f"dual image of ({x}*) is not connected; {sigma} has no dual substitution"
            )
        images[x] = code_dual_strand(image)
    dual = Substitution(images["a"], images["b"])
    if dual.matrix() != sigma.matrix().transpose():
        raise SturmdualError(f"matrix of the dual {dual} of {sigma} is not the transpose")
    if sigma.det() == 1 and is_invertible(sigma) and not is_invertible(dual):
        raise SturmdualError(f"dual {dual} of the invertible {sigma} is not invertible")
    return dual


def in_s_alpha(seg: Segment, spec: SpectralData) -> bool:
    """Membership of a dual segment in the stepped line of the expanding
    left eigenvector: 0 <= <W, v> < <e_i, v> for v = (1, ell)."""
    if not seg.is_dual:
        raise SturmdualError("stepped-line membership is for dual segments")
    value = seg.x + spec.ell * seg.y
    bound = spec.ell if seg.kind == "b*" else 1
    return value.sign() >= 0 and value < bound


def s_alpha_segments(spec: SpectralData, radius: int) -> list[Segment]:
    """The segments of the stepped line with traversal key in [-radius, radius].

    There is exactly one segment per key, which is checked.
    """
    out = []
    for key in range(-radius, radius + 1):
        found = []
        # (x, y, b*) has key x - y and needs x + y*ell in [0, ell);
        # (x, y, a*) has key x - y - 1 and needs x + y*ell in [0, 1)
        for kind in DUAL_KINDS:
            shift = 1 if kind == "a*" else 0
            bound = spec.ell if kind == "b*" else Quad(1)
            # with x = key + shift + y: 0 <= (key + shift) + y(1 + ell) < bound
            base = spec.ell + 1
            lo = (QUAD_ZERO - (key + shift)) / base
            hi = (bound - (key + shift)) / base
            y = lo.ceil()
            while Quad(y) < hi:
                found.append(Segment(key + shift + y, y, kind))
                y += 1
        if len(found) != 1:
            raise SturmdualError(f"stepped line has {len(found)} segments at key {key}")
        out.append(found[0])
    return out
