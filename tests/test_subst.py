from hypothesis import given, strategies as st
import pytest

from conftest import FIB, KRIEGER, KRIEGER_PARTNER, RHO
from sturmdual import words
from sturmdual.errors import ParseError, SturmdualError
from sturmdual.invert import GEN_E, conjugate_power_search, generator_products
from sturmdual.quadfield import spectral
from sturmdual.subst import (
    IDENTITY,
    FreeEndo,
    Mat2,
    Substitution,
    complexity_profile,
    factor_language,
    factor_set,
    fixed_point_prefix,
    hulls_equal_upto,
    is_sturmian_language,
    parse_substitution,
)

signed_words = st.text(alphabet="abAB", max_size=16).map(words.reduce_word)
positive_words = st.text(alphabet="ab", max_size=40)
letter_images = st.text(alphabet="ab", min_size=1, max_size=8)
substitutions = st.builds(Substitution, letter_images, letter_images)


def brute_factors(text: str, length: int) -> set[str]:
    return {text[i : i + length] for i in range(len(text) - length + 1)}


def test_apply_examples():
    assert FIB.apply("a") == "ab"
    assert FIB.power(3).apply("a") == "abaab"
    # reduce (ab)^{-1} . aba with the stack oracle: BA + aba -> a
    assert RHO.apply("Ba") == "a"


def test_apply_freeendo():
    endo = FreeEndo("Ba", "Abb")
    assert endo.apply("ab") == "BaAbb"[0:0] + words.reduce_concat("Ba", "Abb")
    assert endo.apply("A") == words.invert_word("Ba")


@given(substitutions, positive_words)
def test_apply_positive_is_the_letter_by_letter_join(sigma, word):
    assert sigma.apply_positive(word) == "".join(sigma.image(c) for c in word)


def test_compose_and_power():
    assert FIB.power(2) == RHO
    assert FIB.compose(IDENTITY) == FIB
    assert IDENTITY.compose(FIB) == FIB
    assert FIB.power(2).matrix() == FIB.matrix().mul(FIB.matrix())
    with pytest.raises(ValueError):
        FIB.power(0)


@given(signed_words)
def test_abelianization_commutes_with_apply(w):
    image = RHO.apply(w)
    na, nb = words.abelianize(w)
    assert words.abelianize(image) == RHO.matrix().apply((na, nb))


def test_matrix_examples():
    assert RHO.matrix() == Mat2(2, 1, 1, 1)
    assert RHO.det() == 1 and RHO.is_unimodular()
    # letter counting: 7 of each in the long image
    assert KRIEGER.matrix() == Mat2(1, 7, 1, 7)
    assert KRIEGER.det() == 0 and not KRIEGER.is_unimodular()
    assert GEN_E.matrix() == Mat2(0, 1, 1, 0)
    assert GEN_E.det() == -1


def test_is_primitive():
    assert FIB.is_primitive()
    assert not Substitution("a", "ab").is_primitive()
    assert not GEN_E.is_primitive()
    assert KRIEGER.is_primitive()


def test_fixed_point_prefix():
    assert fixed_point_prefix(RHO, 5) == "abaab"
    assert fixed_point_prefix(FIB, 3) == "aba"
    prefix = fixed_point_prefix(RHO, 40)
    assert RHO.apply_positive(prefix).startswith(prefix)
    with pytest.raises(SturmdualError):
        fixed_point_prefix(GEN_E, 5)


def test_factor_set_examples():
    # brute-force oracle: subwords of a long iterate
    assert brute_factors(FIB.power(8).apply("a"), 2) == {"aa", "ab", "ba"}
    assert factor_set(FIB, 2) == {"aa", "ab", "ba"}
    assert factor_set(FIB, 1) == {"a", "b"}
    for n in (5, 12, 30):
        assert len(factor_set(RHO, n)) == n + 1


def test_factor_set_matches_fixed_point_factors():
    # the closure agrees with a brute-force census of the fixed point
    thue_morse = Substitution("ab", "ba")
    for sigma in (RHO, FIB, Substitution("ab", "abb"), thue_morse, KRIEGER):
        prefix = fixed_point_prefix(sigma, 4000)
        for n in (3, 8, 12):
            assert factor_set(sigma, n) == brute_factors(prefix, n)
            census = set().union(*(brute_factors(prefix, m) for m in range(1, n + 1)))
            assert factor_language(sigma, n) == census


def test_factor_set_matches_census_on_primitive_corpus():
    # every primitive generator product of length <= 6 against the
    # windows of a long prefix of its fixed point
    members = [s for names, s in generator_products(6) if names and s.is_primitive()]
    assert len(members) > 100
    for sigma in members:
        prefix = fixed_point_prefix(sigma, 3000)
        for n in (1, 4, 9):
            assert factor_set(sigma, n) == brute_factors(prefix, n), (sigma, n)


def test_factor_set_is_a_kept_frozenset():
    factors = factor_set(RHO, 7)
    assert isinstance(factors, frozenset)
    assert factor_set(RHO, 7) is factors
    assert factor_set(RHO, 0) == frozenset()


def test_complexity_profile():
    assert complexity_profile(RHO, 10) == list(range(2, 12))
    assert is_sturmian_language(RHO, 10)
    assert not is_sturmian_language(KRIEGER, 10)
    tm_like = Substitution("ab", "ba")
    assert len(factor_set(tm_like, 2)) == 4
    assert not is_sturmian_language(tm_like, 5)


def test_factor_language_requires_primitive():
    with pytest.raises(SturmdualError):
        factor_language(Substitution("a", "ab"), 3)


def test_hulls_equal_upto():
    assert hulls_equal_upto(FIB, FIB.power(2), 12)
    assert hulls_equal_upto(FIB, FIB.power(3), 12)
    assert hulls_equal_upto(KRIEGER, KRIEGER_PARTNER, 50)
    flipped = GEN_E.compose(FIB).compose(GEN_E)
    assert not hulls_equal_upto(FIB, flipped, 5)
    assert hulls_equal_upto(FIB, flipped, 0)


def test_hulls_equal_upto_is_only_a_necessary_condition():
    # distinct letter frequencies (0.2324 and 0.2361) give distinct hulls,
    # yet the factor sets agree up to length 16
    sigma, rho = Substitution("aaab", "a"), Substitution("aaab", "aaaba")
    assert spectral(sigma.matrix()).alpha != spectral(rho.matrix()).alpha
    assert hulls_equal_upto(sigma, rho, 15) and hulls_equal_upto(sigma, rho, 16)
    assert not hulls_equal_upto(sigma, rho, 17)


def test_hulls_differ_when_one_language_contains_the_other():
    # Thue-Morse has all four two-letter factors, Fibonacci all but bb:
    # one direction stops at the foreign factor bb, the other walks every
    # Fibonacci factor and is refused by the count
    thue_morse = Substitution("ab", "ba")
    assert factor_set(FIB, 2) < factor_set(thue_morse, 2)
    assert not hulls_equal_upto(FIB, thue_morse, 2)
    assert not hulls_equal_upto(thue_morse, FIB, 2)


def test_hulls_equal_upto_requires_primitive():
    not_primitive = Substitution("a", "ab")
    with pytest.raises(SturmdualError):
        hulls_equal_upto(FIB, not_primitive, 3)
    with pytest.raises(SturmdualError):
        hulls_equal_upto(not_primitive, FIB, 3)


def test_krieger_images_agree_on_two_letter_words():
    assert KRIEGER.apply_positive("ab") == KRIEGER_PARTNER.apply_positive("ab")
    assert KRIEGER.apply_positive("ba") == KRIEGER_PARTNER.apply_positive("ba")


def test_conjugate_power_search():
    # inner twist by the leading letter: x -> first^{-1} sigma(x) first
    twisted = Substitution(
        words.reduce_concat(words.reduce_concat("A", RHO.img_a), "a"),
        words.reduce_concat(words.reduce_concat("A", RHO.img_b), "a"),
    )
    assert conjugate_power_search(RHO, twisted, 1) == (1, 1, "a")
    assert conjugate_power_search(RHO, RHO.power(2), 2) == (2, 1, "")
    assert conjugate_power_search(KRIEGER, KRIEGER_PARTNER, 6) is None


def test_parse_substitution():
    assert parse_substitution("a->ab, b->a") == FIB
    assert parse_substitution("b->a;a->ab") == FIB
    for bad in ["a->ab", "a->ab,b->", "a->ab,b->ca", "a->ab,a->a,b->a"]:
        with pytest.raises(ParseError):
            parse_substitution(bad)


def test_str_roundtrip():
    assert str(RHO) == "a->aba,b->ab"
    assert parse_substitution(str(KRIEGER)) == KRIEGER
