"""Invertibility over the three elementary generators, inverses,
reciprocals, conjugacy witnesses and the selfduality classification."""

from __future__ import annotations

from dataclasses import dataclass

from . import words
from .errors import DeterminantMinusOneError, NotInvertibleError, SturmdualError
from .subst import IDENTITY, FreeEndo, Mat2, Substitution

# the generating set of the monoid of invertible positive morphisms:
# E swaps the letters, L prepends a to b, LT appends a to b
GEN_E = Substitution("b", "a")
GEN_L = Substitution("a", "ab")
GEN_LT = Substitution("a", "ba")

GENERATORS = {"E": GEN_E, "L": GEN_L, "Lt": GEN_LT}
GENERATOR_ORDER = ("E", "L", "Lt")

_SWAP_AB = str.maketrans("ab", "ba")

# the images (u(a), u(b)) of u . g from those of u, for each generator g
_COMPOSE_STEP = {
    "E": lambda a, b: (b, a),
    "L": lambda a, b: (a, a + b),
    "Lt": lambda a, b: (a, b + a),
}

# the reduced images of u . g^-1 from those of u, for each generator g:
# E^-1 = E, L^-1 = (a -> a, b -> Ab) and Lt^-1 = (a -> a, b -> bA)
_INVERSE_STEP = {
    "E": lambda a, b: (b, a),
    "L": lambda a, b: (a, words.reduce_concat(words.invert_word(a), b)),
    "Lt": lambda a, b: (a, words.reduce_concat(b, words.invert_word(a))),
}


def compose_generators(names) -> Substitution:
    """Left-to-right composition g1 . g2 . ... (g1 outermost).

    The letter images are composed as strings, one generator step at a
    time, and one Substitution is built at the end.
    """
    a, b = "a", "b"
    for name in names:
        a, b = _COMPOSE_STEP[name](a, b)
    return Substitution(a, b)


def format_decomposition(names) -> str:
    return ".".join(names) if names else "id"


def decompose(sigma: Substitution) -> tuple[str, ...] | None:
    """Greedy left-peeling into generators; None when not invertible.

    Peels L when in both images every b is directly preceded by a, and
    LT when every b is directly followed by a (preferring L); otherwise
    swaps the output letters once (an E factor).  Each L/LT peel
    strictly shrinks the total image length, and two E peels never
    happen in a row, so the loop terminates.  The factors are certified
    by compose_generators, which composes the two letter images as
    strings, against sigma's images.
    """
    if not sigma.is_unimodular():
        return None
    a, b = sigma.img_a, sigma.img_b
    factors: list[str] = []
    last_was_swap = False
    while True:
        if (a, b) == ("a", "b"):
            break
        if (a, b) == ("b", "a"):
            factors.append("E")
            break
        if "bb" not in a and "bb" not in b and a[0] != "b" and b[0] != "b":
            factors.append("L")
            a, b = a.replace("ab", "b"), b.replace("ab", "b")
            last_was_swap = False
        elif "bb" not in a and "bb" not in b and a[-1] != "b" and b[-1] != "b":
            factors.append("Lt")
            a, b = a.replace("ba", "b"), b.replace("ba", "b")
            last_was_swap = False
        elif not last_was_swap:
            factors.append("E")
            a, b = a.translate(_SWAP_AB), b.translate(_SWAP_AB)
            last_was_swap = True
        else:
            return None
    result = tuple(factors)
    if compose_generators(result) != sigma:
        names = format_decomposition(result)
        raise SturmdualError(f"generators {names} do not compose to {sigma}")
    return result


def is_invertible(sigma: Substitution) -> bool:
    return decompose(sigma) is not None


def inverse(sigma: Substitution) -> FreeEndo:
    """Free-group inverse, composed from inverse generators in reverse.

    The inverse generators are composed on the two reduced images as
    strings, one FreeEndo is built at the end, and sigma(inverse(x)) = x
    certifies it.
    """
    factors = decompose(sigma)
    if factors is None:
        raise NotInvertibleError(f"{sigma} is not invertible")
    a, b = "a", "b"
    for name in reversed(factors):
        a, b = _INVERSE_STEP[name](a, b)
    out = FreeEndo(a, b)
    for x in "ab":
        if sigma.apply(out.apply(x)) != x:
            raise SturmdualError(f"{out} is not the inverse of {sigma}")
    return out


def reciprocal(sigma: Substitution) -> Substitution:
    """The positive substitution hiding inside the inverse.

    Conjugating the inverse by the letter flip a -> a^{-1} turns it
    back into a positive morphism when the determinant is +1.  Its
    matrix is certified to be E M^T E.
    """
    m = sigma.matrix()
    if m.det() == -1:
        raise DeterminantMinusOneError(
            f"{sigma} has determinant -1; take the square first"
        )
    inv = inverse(sigma)
    bar_a = words.flip_a(words.invert_word(inv.img_a))
    bar_b = words.flip_a(inv.img_b)
    if not (words.is_positive(bar_a) and words.is_positive(bar_b)):
        raise SturmdualError(f"reciprocal of {sigma} is not positive")
    bar = Substitution(bar_a, bar_b)
    # E*bar*E = M^T for the letter swap E, that is, bar's matrix is E*M^T*E
    if bar.matrix() != Mat2(m.m22, m.m12, m.m21, m.m11):
        raise SturmdualError(f"matrix of the reciprocal {bar} of {sigma} is wrong")
    return bar


def _rotation_walk(sigma: Substitution, target: Substitution, bound: int) -> str | None:
    """Shortest positive w, of length <= bound, with sigma(x) w = w target(x)."""
    a, b = sigma.img_a, sigma.img_b
    goal = (target.img_a, target.img_b)
    w = ""
    while (a, b) != goal:
        if len(w) == bound or a[0] != b[0]:
            return None
        x = a[0]
        a, b, w = a[1:] + x, b[1:] + x, w + x
    return w


def find_conjugator(sigma: Substitution, rho: Substitution) -> str | None:
    """Shortest w with sigma(x) = w rho(x) w^{-1} for both letters.

    A positive w with sigma(x) w = w rho(x) starts with the common first
    letter of sigma(a) and sigma(b), and the rest of w solves the same
    equation for sigma with that letter rotated to the end of both
    images.  Each step of this rotation walk is forced, so a positive
    witness of length L exists exactly when L steps turn sigma into rho;
    a negative witness is the inverse of the walk from rho to sigma.
    Mixed-sign witnesses cannot occur between positive morphisms of
    equal image lengths.  Each walk stops after 2(|sigma(a)| +
    |sigma(b)|) steps; the shorter witness wins, the positive on a tie.
    """
    if len(sigma.img_a) != len(rho.img_a) or len(sigma.img_b) != len(rho.img_b):
        return None
    bound = 2 * (len(sigma.img_a) + len(sigma.img_b))
    pos = _rotation_walk(sigma, rho, bound)
    neg = _rotation_walk(rho, sigma, bound)
    if neg is not None and (pos is None or len(neg) < len(pos)):
        return words.invert_word(neg)
    return pos


def conjugate_power_search(
    sigma: Substitution, rho: Substitution, kmax: int
) -> tuple[int, int, str] | None:
    """Search k, m <= kmax with equal matrix powers and a conjugating word.

    Returns (k, m, witness) for the first power pair (ordered by k + m,
    then k) whose matrices agree and whose powers are conjugate; None
    when no power pair matches.
    """
    ms, mr = sigma.matrix(), rho.matrix()
    pairs = sorted(
        ((k, m) for k in range(1, kmax + 1) for m in range(1, kmax + 1)),
        key=lambda km: (km[0] + km[1], km[0]),
    )
    for k, m in pairs:
        if ms.power(k) != mr.power(m):
            continue
        witness = find_conjugator(sigma.power(k), rho.power(m))
        if witness is not None:
            return (k, m, witness)
    return None


@dataclass(frozen=True)
class SelfdualClass:
    kind: str  # "direct" | "mirror" | "not_selfdual"
    witness: str | None

    def to_json(self) -> dict:
        return {
            "class": self.kind,
            "witness": words.format_word(self.witness) if self.witness is not None else None,
        }


def selfdual_class(sigma: Substitution) -> SelfdualClass:
    """Conjugacy type of a substitution against its reciprocal.

    "direct" when conjugate to the reciprocal itself, "mirror" when
    conjugate to the letter-swapped reciprocal.  Its agreement with the
    matrix-shape test is the selfdual-forms check of ``sturmdual.checks``.

    The reciprocal has matrix E M^T E, so sigma and the reciprocal share
    their matrix exactly when m11 == m22, and sigma and the swapped
    reciprocal E . bar . E (matrix M^T) exactly when m12 == m21.
    """
    m = sigma.matrix()
    if not m.is_primitive():
        raise SturmdualError(f"{sigma} is not primitive")
    bar = reciprocal(sigma)
    if m.m11 == m.m22:
        result = SelfdualClass("direct", find_conjugator(sigma, bar))
    elif m.m12 == m.m21:
        mirrored = Substitution(bar.img_b.translate(_SWAP_AB), bar.img_a.translate(_SWAP_AB))
        result = SelfdualClass("mirror", find_conjugator(sigma, mirrored))
    else:
        result = SelfdualClass("not_selfdual", None)
    if result.kind != "not_selfdual" and result.witness is None:
        raise SturmdualError(f"no conjugating word for the {result.kind} class of {sigma}")
    return result


def matrix_selfdual_form(m: Mat2) -> tuple[str, int, int] | None:
    """Match against the two selfdual matrix shapes.

    Returns ("M", m, k) for equal-diagonal matrices [[m, k], [(m^2-1)/k, m]],
    ("Mprime", m, k) for symmetric matrices [[m, k], [k, (k^2+1)/m]], or
    None.  Cross-checked against the two conjugation predicates
    Q^{-1} M Q = M^{-1} and P^T M P = M^T.
    """
    if m.det() != 1:
        raise SturmdualError(f"matrix has determinant {m.det()}, not +1")
    if not m.is_primitive():
        raise SturmdualError("matrix is not primitive")
    form: tuple[str, int, int] | None = None
    if m.m11 == m.m22 and m.m12 >= 1 and m.m12 * m.m21 == m.m11 * m.m11 - 1:
        form = ("M", m.m11, m.m12)
    elif m.m12 == m.m21 and m.m11 >= 1 and m.m11 * m.m22 == m.m12 * m.m12 + 1:
        form = ("Mprime", m.m11, m.m12)
    inv = m.inverse_unimodular()
    q_pred = _conj(Mat2(-1, 0, 0, 1), m) == inv or _conj(Mat2(0, -1, 1, 0), m) == inv
    t_pred = m == m.transpose() or _conj(Mat2(0, 1, 1, 0), m) == m.transpose()
    if not ((form is not None) == q_pred == t_pred):
        raise SturmdualError(f"matrix shape of {m} disagrees with the conjugation predicates")
    return form


def _conj(q: Mat2, m: Mat2) -> Mat2:
    return q.inverse_unimodular().mul(m).mul(q)


def theta_substitution(m: int) -> Substitution:
    """L^(m-1) . E . L, the elementary block of the arithmetic coding."""
    if m < 1:
        raise ValueError("m must be >= 1")
    names = ("L",) * (m - 1) + ("E", "L")
    return compose_generators(names)


def generator_products(max_len: int):
    """All distinct substitutions from generator words of length <= max_len.

    Yields (names, substitution) deduplicated by letter images, ordered
    by word length then lexicographically in (E, L, Lt): each image pair
    appears once, under the first word that produces it.  Only those
    first words are extended, which loses nothing: if w and an earlier
    word w' give the same substitution, then so do w.g and the earlier
    w'.g, so no extension of a repeat is a first occurrence.
    """
    yield (), IDENTITY
    frontier = [((), ("a", "b"))]
    seen = {("a", "b")}
    for _ in range(max_len):
        nxt = []
        for names, images in frontier:
            for gname in GENERATOR_ORDER:
                step = _COMPOSE_STEP[gname](*images)
                if step not in seen:
                    seen.add(step)
                    word = names + (gname,)
                    nxt.append((word, step))
                    yield word, Substitution(*step)
        frontier = nxt
