from hypothesis import given, strategies as st
import pytest

from sturmdual import words
from sturmdual.errors import ParseError


def naive_reduce(symbols):
    """Stack oracle for free reduction, independent of reduce_concat."""
    stack = []
    for c in symbols:
        if stack and stack[-1] == c.swapcase():
            stack.pop()
        else:
            stack.append(c)
    return "".join(stack)


signed_words = st.text(alphabet="abAB", max_size=24).map(naive_reduce)


def test_reduce_concat_examples():
    assert words.reduce_concat("ab", "Ba") == "aa"
    assert words.reduce_concat("", "abA") == "abA"
    # hand reduction, cross-checked by the stack oracle
    assert naive_reduce("BAAB" + "baaba") == "a"
    assert words.reduce_concat("BAAB", "baaba") == "a"


@given(signed_words, signed_words)
def test_reduce_concat_matches_stack_oracle(u, v):
    got = words.reduce_concat(u, v)
    assert got == naive_reduce(u + v)
    assert words.is_reduced(got)


@given(signed_words, signed_words)
def test_abelianize_additive(u, v):
    na, nb = words.abelianize(words.reduce_concat(u, v))
    ua, ub = words.abelianize(u)
    va, vb = words.abelianize(v)
    assert (na, nb) == (ua + va, ub + vb)


def test_invert_word_examples():
    assert words.invert_word("ab") == "BA"
    assert words.invert_word("") == ""
    assert words.invert_word("Abb") == "BBa"


@given(signed_words)
def test_invert_word_involution_and_inverse(u):
    assert words.invert_word(words.invert_word(u)) == u
    assert words.reduce_concat(u, words.invert_word(u)) == ""


def test_abelianize_examples():
    assert words.abelianize("aba") == (2, 1)
    assert words.abelianize("Abb") == (-1, 2)
    assert words.abelianize("") == (0, 0)


@given(st.text(alphabet="ab", max_size=24))
def test_prefix_counts_are_the_abelianized_prefixes(word):
    assert words.prefix_counts(word) == [words.abelianize(word[:m]) for m in range(len(word) + 1)]


def test_flip_examples():
    # the letter flip turns a^{-1}bb into abb
    assert words.flip_a("Abb") == "abb"
    assert words.flip_a(words.flip_a("aBAb")) == "aBAb"


@given(signed_words)
def test_flip_involution_commutes_with_invert(u):
    assert words.flip_a(words.flip_a(u)) == u
    assert words.flip_a(words.invert_word(u)) == words.invert_word(words.flip_a(u))


def test_parse_and_format():
    assert words.check_reduced("abAB") == "abAB"
    assert words.format_word("") == "e"
    assert words.format_word("aB") == "aB"
    with pytest.raises(ParseError):
        words.check_reduced("abc")
    with pytest.raises(ParseError):
        words.check_reduced("aA")


def test_check_positive():
    with pytest.raises(ParseError):
        words.check_positive("aBa")
    assert words.check_positive("abba") == "abba"


@given(st.text(alphabet="abAB x", max_size=24))
def test_positivity_matches_the_letterwise_definition(word):
    bad = [i for i, c in enumerate(word) if c not in "ab"]
    assert words.is_positive(word) == (not bad)
    if bad:
        with pytest.raises(ParseError) as info:
            words.check_positive(word)
        assert info.value.position == bad[0]
    else:
        assert words.check_positive(word) == word
