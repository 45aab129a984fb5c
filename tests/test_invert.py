from collections import defaultdict

import pytest
from sympy.combinatorics.free_groups import free_group

from conftest import FIB, KRIEGER, RHO, SIG_UNCHANGED
from sturmdual import words
from sturmdual.errors import DeterminantMinusOneError, NotInvertibleError
from sturmdual.invert import (
    GENERATOR_ORDER,
    GENERATORS,
    GEN_E,
    GEN_L,
    GEN_LT,
    are_conjugate,
    compose_generators,
    decompose,
    find_conjugator,
    format_decomposition,
    generator_products,
    inverse,
    is_invertible,
    matrix_selfdual_form,
    reciprocal,
    selfdual_class,
    theta_substitution,
)
from sturmdual.quadfield import CF, cf_expand, spectral
from sturmdual.subst import Mat2, Substitution


def test_generators():
    assert GEN_E == Substitution("b", "a")
    assert GEN_L == Substitution("a", "ab")
    assert GEN_LT == Substitution("a", "ba")


def test_decompose_examples():
    assert decompose(FIB) == ("L", "E")
    assert decompose(RHO) == ("L", "E", "L", "E")
    assert decompose(KRIEGER) is None
    assert decompose(GEN_E) == ("E",)
    assert decompose(Substitution("a", "b")) == ()
    assert format_decomposition(("L", "E")) == "L.E"


def test_decompose_roundtrip_corpus():
    for names, sub in generator_products(6):
        got = decompose(sub)
        assert got is not None
        assert compose_generators(got) == sub


def test_is_invertible():
    assert is_invertible(RHO)
    assert not is_invertible(Substitution("ab", "ba"))
    assert is_invertible(GEN_E)


def test_inverse_examples():
    inv = inverse(RHO)
    assert (inv.img_a, inv.img_b) == ("Ba", "Abb")
    inv_fib = inverse(FIB)
    assert (inv_fib.img_a, inv_fib.img_b) == ("b", "Ba")
    assert inverse(GEN_E) .img_a == "b"
    with pytest.raises(NotInvertibleError):
        inverse(KRIEGER)


def test_inverse_is_two_sided(corpus8):
    for sub in corpus8[:150]:
        inv = inverse(sub)
        for x in "ab":
            assert sub.apply(inv.apply(x)) == x
            assert inv.apply(sub.apply(x)) == x


def test_inverse_on_random_reduced_words():
    import random

    from sturmdual.words import is_reduced, reduce_word

    rng = random.Random(11)
    inv = inverse(RHO)
    for _ in range(120):
        w = reduce_word("".join(rng.choice("abAB") for _ in range(rng.randint(0, 12))))
        assert is_reduced(w)
        assert RHO.apply(inv.apply(w)) == w
        assert inv.apply(RHO.apply(w)) == w


def test_inverse_positive_on_flipped_alphabet(corpus8_det1):
    # the inverse is a substitution on the alphabet {a^{-1}, b}: its
    # images of a^{-1} and of b are positive words in those two symbols
    for sub in corpus8_det1[:200]:
        inv = inverse(sub)
        img_of_a_inverse = words.invert_word(inv.img_a)
        assert set(img_of_a_inverse + inv.img_b) <= {"A", "b"}


def test_reciprocal_examples():
    assert reciprocal(RHO) == Substitution("ab", "abb")
    assert reciprocal(SIG_UNCHANGED) == Substitution("baaba", "baababa")
    with pytest.raises(DeterminantMinusOneError):
        reciprocal(FIB)
    with pytest.raises(NotInvertibleError):
        reciprocal(KRIEGER)


def test_reciprocal_matrix_identity(corpus8_det1):
    me = GEN_E.matrix()
    for sub in corpus8_det1[:200]:
        bar = reciprocal(sub)
        assert me.mul(bar.matrix()).mul(me) == sub.matrix().transpose()
        # same inflation factor
        assert spectral(bar.matrix()).lam == spectral(sub.matrix()).lam


def test_find_conjugator_examples():
    mirrored = GEN_E.compose(reciprocal(RHO)).compose(GEN_E)
    assert find_conjugator(RHO, mirrored) == "a"
    assert find_conjugator(SIG_UNCHANGED, reciprocal(SIG_UNCHANGED)) == "BAAB"
    assert find_conjugator(RHO, RHO) == ""
    assert find_conjugator(RHO, FIB) is None  # image lengths differ


def test_find_conjugator_witness_is_valid():
    mirrored = GEN_E.compose(reciprocal(RHO)).compose(GEN_E)
    w = find_conjugator(RHO, mirrored)
    wi = words.invert_word(w)
    for x in "ab":
        assert words.reduce_concat(words.reduce_concat(w, mirrored.image(x)), wi) == RHO.image(x)


def test_find_conjugator_witnesses_in_sympy_free_group():
    # every equal-matrix pair of the corpus is conjugate, and the witness
    # satisfies sigma(x) = w rho(x) w^-1 in sympy's free group
    group, a, b = free_group("a b")
    letters = {"a": a, "b": b, "A": a**-1, "B": b**-1}

    def element(word):
        out = group.identity
        for letter in word:
            out *= letters[letter]
        return out

    by_matrix = defaultdict(list)
    for names, sub in generator_products(5):
        by_matrix[sub.matrix()].append(sub)
    pairs = [(s, r) for subs in by_matrix.values() for s in subs for r in subs]
    assert len(pairs) == 767
    for sigma, rho in pairs:
        w = find_conjugator(sigma, rho)
        assert w is not None, (sigma, rho)
        for x in "ab":
            assert element(sigma.image(x)) == element(w) * element(rho.image(x)) * element(w) ** -1


def test_are_conjugate():
    twisted = Substitution(
        words.reduce_concat(words.reduce_concat("A", RHO.img_a), "a"),
        words.reduce_concat(words.reduce_concat("A", RHO.img_b), "a"),
    )
    assert are_conjugate(RHO, twisted)
    flipped = GEN_E.compose(RHO).compose(GEN_E)
    assert not are_conjugate(RHO, flipped)


def test_selfdual_class_examples():
    sd = selfdual_class(RHO)
    assert (sd.kind, sd.witness) == ("mirror", "a")
    sd2 = selfdual_class(SIG_UNCHANGED)
    assert (sd2.kind, sd2.witness) == ("direct", "BAAB")
    # matrix [[3,1],[2,1]] has unequal diagonal and is not symmetric
    other = compose_generators(("L", "L", "E", "L", "E"))
    assert other.matrix().m12 != other.matrix().m21
    assert other.matrix().m11 != other.matrix().m22
    assert selfdual_class(other).kind == "not_selfdual"


def test_selfdual_constant_on_conjugacy_classes(corpus8_det1):
    by_matrix = {}
    for sub in corpus8_det1:
        kind = selfdual_class(sub).kind
        key = sub.matrix().rows()
        assert by_matrix.setdefault(key, kind) == kind


def test_matrix_selfdual_form_examples():
    assert matrix_selfdual_form(Mat2(2, 1, 1, 1)) == ("Mprime", 2, 1)
    assert matrix_selfdual_form(Mat2(3, 4, 2, 3)) == ("M", 3, 4)
    assert matrix_selfdual_form(Mat2(2, 3, 1, 2)) == ("M", 2, 3)
    assert matrix_selfdual_form(Mat2(3, 1, 2, 1)) is None
    with pytest.raises(Exception):
        matrix_selfdual_form(Mat2(1, 7, 1, 7))


def test_theta_substitution():
    assert theta_substitution(1) == Substitution("b", "ba")
    assert theta_substitution(2) == compose_generators(("L", "E", "L"))
    with pytest.raises(ValueError):
        theta_substitution(0)
    # the frequency of theta_m has purely periodic expansion (m)
    for m in range(1, 7):
        alpha = spectral(theta_substitution(m).matrix()).alpha
        assert cf_expand(alpha) == CF((0,), (m,))


def test_generator_products_deterministic_order():
    first = [(names, str(s)) for names, s in generator_products(3)]
    second = [(names, str(s)) for names, s in generator_products(3)]
    assert first == second
    lengths = [len(names) for names, _ in first]
    assert lengths == sorted(lengths)
    # 26 distinct substitutions arise from words of length <= 3 (plus identity)
    assert len(first) == 27


def test_generator_products_match_brute_force():
    # walk all 3^n words; keep the first word (by length, then E < L < Lt)
    # of each image pair
    reference, seen = [], set()
    level = [((), Substitution("a", "b"))]
    for _ in range(9):
        for names, sub in level:
            if (sub.img_a, sub.img_b) not in seen:
                seen.add((sub.img_a, sub.img_b))
                reference.append((names, sub.img_a, sub.img_b))
        level = [
            (names + (g,), sub.compose(GENERATORS[g]))
            for names, sub in level
            for g in GENERATOR_ORDER
        ]
    for n in range(9):
        got = [(names, s.img_a, s.img_b) for names, s in generator_products(n)]
        assert got == [r for r in reference if len(r[0]) <= n]
    assert len(reference) == 1512
