import dataclasses
import random

import pytest

from conftest import FIB, KRIEGER, RHO
from sturmdual.dualmap import (
    DUAL_KINDS,
    Segment,
    StrandSum,
    dual_substitution,
    e1_apply,
    e1_star_apply,
    in_s_alpha,
    s_alpha_segments,
    sort_along,
)
from sturmdual.errors import NotInvertibleError, SturmdualError
from sturmdual.invert import GEN_E, GEN_L, GEN_LT, generator_products, is_invertible, reciprocal
from sturmdual.quadfield import spectral
from sturmdual.subst import Substitution


def seg(x, y, kind):
    return Segment(x, y, kind)


def test_e1_apply_examples():
    out = e1_apply(FIB, StrandSum.single(0, 0, "a"))
    assert out == StrandSum([seg(0, 0, "a"), seg(1, 0, "b")])
    out_b = e1_apply(FIB, StrandSum.single(0, 0, "b"))
    assert out_b == StrandSum([seg(0, 0, "a")])
    # linearity over multiset union
    two = StrandSum([seg(0, 0, "a"), seg(0, 0, "b")])
    assert e1_apply(FIB, two) == out + out_b
    with pytest.raises(SturmdualError):
        e1_apply(FIB, StrandSum.single(0, 0, "a*"))


def test_e1_star_apply_worked_example():
    img_a = e1_star_apply(RHO, StrandSum.single(0, 0, "a*"))
    assert img_a == StrandSum([seg(0, 0, "a*"), seg(0, 1, "a*"), seg(-1, 2, "b*")])
    img_b = e1_star_apply(RHO, StrandSum.single(0, 0, "b*"))
    assert img_b == StrandSum([seg(1, -1, "a*"), seg(0, 0, "b*")])


def test_e1_star_apply_generator():
    # direct formula with the inverse matrix [[1,-1],[0,1]]
    out = e1_star_apply(GEN_L, StrandSum.single(0, 0, "a*"))
    assert out == StrandSum([seg(0, 0, "a*"), seg(-1, 1, "b*")])


def test_segments_are_slotted_with_value_semantics():
    s = seg(1, -2, "a*")
    assert not hasattr(s, "__dict__")
    assert Segment.__slots__ == ("x", "y", "kind")
    with pytest.raises(dataclasses.FrozenInstanceError):
        s.x = 0
    # a kind built at run time is a different string object of equal value
    built = Segment(1, -2, "".join(["a", "*"]))
    assert built.kind is not s.kind
    assert built == s and hash(built) == hash(s)
    assert len({s, built, seg(1, -2, "b*"), seg(-2, 1, "a*")}) == 3
    assert seg(1, -2, "a") != s


def test_e1_star_apply_kinds_are_the_shared_strings():
    members = [s for n, s in generator_products(4) if n and s.is_unimodular()]
    assert len(members) > 20
    for sigma in members:
        for kind in DUAL_KINDS:
            for out, _ in e1_star_apply(sigma, StrandSum.single(2, -1, kind)).items():
                assert any(out.kind is shared for shared in DUAL_KINDS), (str(sigma), out)


def test_e1_star_apply_is_additive():
    # the image of sum m_i*s_i is sum m_i*E1*(s_i), with multiplicities >= 2
    # and both dual kinds in one sum
    rng = random.Random(26)
    grid = [(x, y) for x in range(-3, 4) for y in range(-3, 4)]
    members = [s for n, s in generator_products(5) if n and s.is_unimodular()]
    assert len(members) == 142
    for sigma in members:
        cells = rng.sample(grid, 4)
        parts = [(seg(x, y, kind), rng.randint(2, 4)) for (x, y), kind in zip(cells, DUAL_KINDS * 2)]
        expected = StrandSum()
        for segment, m in parts:
            for image_seg, k in e1_star_apply(sigma, StrandSum([segment])).items():
                expected[image_seg] += m * k
        assert e1_star_apply(sigma, StrandSum(dict(parts))) == expected, str(sigma)


def test_e1_star_guards():
    with pytest.raises(SturmdualError):
        e1_star_apply(KRIEGER, StrandSum.single(0, 0, "a*"))
    with pytest.raises(SturmdualError):
        e1_star_apply(RHO, StrandSum.single(0, 0, "a"))


def code(s: StrandSum) -> str:
    """Word read along a strand: a and a* read a, b and b* read b."""
    return "".join(seg.letter for seg in sort_along(s))


def test_strand_predicates():
    image = e1_star_apply(RHO, StrandSum.single(0, 0, "a*"))
    assert sort_along(image) is not None
    assert sort_along(StrandSum([seg(0, 0, "a*"), seg(5, 0, "b*")])) is None
    assert sort_along(StrandSum([seg(0, 0, "a"), seg(1, 0, "b")])) is not None
    assert sort_along(StrandSum([seg(0, 0, "a"), seg(0, 0, "a")])) is None
    assert sort_along(StrandSum([seg(0, 0, "a"), seg(1, 0, "b*")])) is None


def test_sort_along():
    image = e1_star_apply(RHO, StrandSum.single(0, 0, "a*"))
    assert [s.kind for s in sort_along(image)] == ["b*", "a*", "a*"]
    image_b = e1_star_apply(RHO, StrandSum.single(0, 0, "b*"))
    assert [s.kind for s in sort_along(image_b)] == ["b*", "a*"]
    single = StrandSum.single(2, 3, "b*")
    assert sort_along(single) == [seg(2, 3, "b*")]
    assert sort_along(StrandSum()) == []


def test_codings():
    assert code(e1_star_apply(RHO, StrandSum.single(0, 0, "a*"))) == "baa"
    assert code(e1_star_apply(RHO, StrandSum.single(0, 0, "b*"))) == "ba"
    assert code(e1_star_apply(GEN_L, StrandSum.single(0, 0, "a*"))) == "ba"
    word = FIB.power(4).apply("a")
    path = e1_apply(FIB.power(4), StrandSum.single(0, 0, "a"))
    assert code(path) == word


def test_dual_substitution_examples():
    assert dual_substitution(RHO) == Substitution("baa", "ba")
    assert dual_substitution(GEN_L) == Substitution("ba", "b")
    assert dual_substitution(GEN_LT) == Substitution("ab", "b")
    assert dual_substitution(GEN_E) == GEN_E
    with pytest.raises(SturmdualError):
        dual_substitution(KRIEGER)
    with pytest.raises(NotInvertibleError):
        dual_substitution(Substitution("aab", "ba"))  # unimodular, not invertible


def test_dual_substitution_matrix_transpose(corpus8_det1):
    for sub in corpus8_det1[:120]:
        dual = dual_substitution(sub)
        assert dual.matrix() == sub.matrix().transpose()
        assert is_invertible(dual)


def test_dual_is_the_letter_swapped_reciprocal():
    # the paper's equivalence of duals, exactly: dual(sigma) = E o reciprocal(sigma) o E
    # for every det +1 invertible sigma, primitive or not
    members = [s for names, s in generator_products(6) if names and s.det() == 1]
    assert len(members) == 161
    assert sum(not s.is_primitive() for s in members) == 41
    for sigma in members:
        assert dual_substitution(sigma) == GEN_E.compose(reciprocal(sigma)).compose(GEN_E), sigma


def test_dual_of_composition_reverses():
    # exact contravariance of the coding for determinant +1 factors
    rng = random.Random(3)
    pool = [
        s
        for _, s in generator_products(4)
        if s.det() == 1 and s != Substitution("a", "b")
    ]
    for _ in range(100):
        sigma, tau = rng.choice(pool), rng.choice(pool)
        lhs = dual_substitution(sigma.compose(tau))
        rhs = dual_substitution(tau).compose(dual_substitution(sigma))
        assert lhs == rhs


def test_dual_of_generator_word_up_to_conjugacy():
    # a determinant -1 factor shifts the coding, so the reversed word of
    # generator duals recovers the dual substitution up to conjugation
    from sturmdual.invert import find_conjugator

    duals = {"E": GEN_E, "L": dual_substitution(GEN_L), "Lt": dual_substitution(GEN_LT)}
    count = 0
    for names, sub in generator_products(5):
        if not names or sub.det() != 1:
            continue
        expected = Substitution("a", "b")
        for name in reversed(names):
            expected = expected.compose(duals[name])
        dual = dual_substitution(sub)
        assert dual.matrix() == expected.matrix()
        assert find_conjugator(dual, expected) is not None
        count += 1
    assert count > 50


def test_contravariance_random():
    # the adjoint reverses composition: the image under the composite
    # equals applying the outer factor's adjoint first
    rng = random.Random(20260808)
    pool = [s for _, s in generator_products(4) if s.is_unimodular()]
    for _ in range(100):
        sigma, tau = rng.choice(pool), rng.choice(pool)
        s = StrandSum(
            [seg(rng.randint(-3, 3), rng.randint(-3, 3), rng.choice(("a*", "b*")))]
        )
        assert e1_star_apply(sigma.compose(tau), s) == e1_star_apply(
            tau, e1_star_apply(sigma, s)
        )


def test_duality_pairing():
    # adjointness under the upper-face identification: the multiplicity
    # of (V + e_j - M^{-1} e_i, j*) in the dual image of (W, i*) equals
    # the multiplicity of (W, i) in the primal image of (V, j)
    rng = random.Random(5)
    pool = [s for _, s in generator_products(4) if s.is_unimodular()]
    basis = {"a": (1, 0), "b": (0, 1)}
    for _ in range(200):
        sigma = rng.choice(pool)
        minv = sigma.matrix().inverse_unimodular()
        s = seg(rng.randint(-2, 2), rng.randint(-2, 2), rng.choice(("a", "b")))
        t = seg(rng.randint(-2, 2), rng.randint(-2, 2), rng.choice(("a*", "b*")))
        lhs = e1_apply(sigma, StrandSum([s]))[seg(t.x, t.y, t.kind[0])]
        ej = basis[s.kind]
        mi = minv.apply(basis[t.kind[0]])
        shifted = seg(s.x + ej[0] - mi[0], s.y + ej[1] - mi[1], s.kind + "*")
        rhs = e1_star_apply(sigma, StrandSum([t]))[shifted]
        assert lhs == rhs


def test_in_s_alpha_examples():
    spec = spectral(RHO.matrix())
    assert in_s_alpha(seg(0, 0, "a*"), spec)
    assert not in_s_alpha(seg(1, 0, "a*"), spec)
    with pytest.raises(SturmdualError):
        in_s_alpha(seg(0, 0, "a"), spec)


def test_s_alpha_is_a_strand():
    spec = spectral(RHO.matrix())
    segs = s_alpha_segments(spec, 10)
    assert len(segs) == 21
    assert sort_along(StrandSum(segs)) is not None


def test_stepped_line_stability():
    # images of stepped-line segments stay on the line, without duplicates
    for sub in (RHO, Substitution("ab", "abb"), Substitution("aab", "ab")):
        spec = spectral(sub.matrix())
        union = {}
        for s in s_alpha_segments(spec, 10):
            image = e1_star_apply(sub, StrandSum([s]))
            for out_seg, mult in image.items():
                assert in_s_alpha(out_seg, spec)
                union[out_seg] = union.get(out_seg, 0) + mult
        assert all(v == 1 for v in union.values())


def test_substrand_images_connected():
    for sub in (RHO, Substitution("ab", "abb")):
        spec = spectral(sub.matrix())
        segs = s_alpha_segments(spec, 8)
        for length in (2, 3, 6):
            for start in range(0, len(segs) - length):
                piece = StrandSum(segs[start : start + length])
                assert sort_along(e1_star_apply(sub, piece)) is not None


def test_segment_text_form():
    assert str(seg(0, 1, "a*")) == "(0,1;a*)"
    assert str(seg(-2, 0, "b")) == "(-2,0;b)"
