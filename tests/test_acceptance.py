"""Acceptance criteria, one test per criterion, exact tolerances throughout.

Run with -s to see one PASS line per criterion.  The corpus is the
deduplicated set of all generator products of length at most 8.  The
properties over the corpus are the checks of ``sturmdual.checks``, the
same code that ``sturmdual verify`` runs; the negative controls on the
equal-hull pair are part of the complexity and rigidity checks.
"""

from fractions import Fraction as F

from conftest import RHO, SIG_UNCHANGED
from sturmdual import checks
from sturmdual.dualmap import dual_substitution
from sturmdual.geom import (
    DigitMatrix,
    characteristic_word,
    cut_project_verify,
    rauzy_decomposition,
    star_dual,
    tile_subst_from,
)
from sturmdual.invert import GEN_E, GEN_L, find_conjugator, reciprocal
from sturmdual.quadfield import Quad
from sturmdual.subst import Substitution, fixed_point_prefix

TAU = Quad(F(1, 2), F(1, 2), 5)
ALPHA_RHO = Quad(F(3, 2), F(-1, 2), 5)


def report(n, text):
    print(f"ACCEPTANCE {n}: {text} -> PASS")


def test_acceptance_01_dual_substitution():
    assert dual_substitution(RHO) == Substitution("baa", "ba")
    assert dual_substitution(GEN_L) == Substitution("ba", "b")
    assert dual_substitution(GEN_E) == GEN_E
    report(1, "dual substitutions reproduce the worked examples")


def test_acceptance_02_reciprocal_and_witnesses():
    bar = reciprocal(RHO)
    assert bar == Substitution("ab", "abb")
    mirrored = GEN_E.compose(bar).compose(GEN_E)
    assert find_conjugator(RHO, mirrored) == "a"

    bar2 = reciprocal(SIG_UNCHANGED)
    assert bar2 == Substitution("baaba", "baababa")
    assert find_conjugator(SIG_UNCHANGED, bar2) == "BAAB"
    report(2, "reciprocals and conjugating words are exact")


def test_acceptance_03_digit_matrices():
    t = tile_subst_from(RHO)
    assert t.digits == DigitMatrix.from_lists(
        [[{Quad(0), TAU}, {Quad(0)}], [{Quad(1)}, {Quad(1)}]]
    )
    sd = star_dual(t)
    assert sd.digits == DigitMatrix.from_lists(
        [[{Quad(0), Quad(1) - TAU}, {Quad(1)}], [{Quad(0)}, {Quad(1)}]]
    )
    # the window digits (the paper's E-matrix) are lambda times the star-dual digits
    tau_sq = TAU * TAU
    assert DigitMatrix.from_lists(
        [[{sd.inflation * d for d in cell} for cell in row] for row in sd.digits.entries]
    ) == DigitMatrix.from_lists([[{Quad(0), -TAU}, {tau_sq}], [{Quad(0)}, {tau_sq}]])
    report(3, "digit, star-dual and window digit matrices exact")


def test_acceptance_04_rauzy_windows():
    rd = rauzy_decomposition(RHO)
    assert rd.r_a == (Quad(-1), TAU - 1)
    assert rd.r_b == (TAU - 1, TAU)
    report(4, "window decomposition has exact certified endpoints")


def test_acceptance_05_selfdual_matrix_forms(corpus8_det1):
    result = checks.selfdual_forms(corpus8_det1)
    assert result.ok, result.detail
    report(5, f"selfduality matches the matrix shapes on {result.checked} members")


def test_acceptance_06_dual_frequency_and_palindromes(corpus8_det1):
    for check in (checks.dual_frequency, checks.palindrome):
        result = check(corpus8_det1)
        assert result.ok, result.detail
    result = checks.cf_dual(corpus8_det1)
    assert result.ok, result.detail
    assert result.checked >= 30
    report(6, f"dual-frequency laws exact; {result.checked} expansions transformed")


def test_acceptance_07_sturmian_complexity(corpus8_primitive):
    result = checks.complexity(corpus8_primitive, 30)
    assert result.ok, result.detail
    assert characteristic_word(ALPHA_RHO, 5) == "abaab"
    assert characteristic_word(ALPHA_RHO, 5) == fixed_point_prefix(RHO, 5)
    report(
        7,
        f"factor counts are n+1 up to 30 on {result.checked} members; "
        "the non-invertible example fails",
    )


def test_acceptance_08_rigidity(corpus8_primitive):
    result = checks.rigidity(corpus8_primitive)
    assert result.ok, result.detail
    assert result.checked == 1313
    report(
        8,
        f"equal hulls without conjugate powers; {result.checked} inner twists recovered at (1,1)",
    )


def test_acceptance_09_dual_map_structure(corpus8, corpus8_primitive):
    results = [
        checks.dual_contravariance(corpus8, count=100),
        checks.window_stability(corpus8_primitive),
        checks.strand_connectivity(corpus8_primitive),
    ]
    for result in results:
        assert result.ok, result.detail
    report(
        9,
        f"contravariance, stepped-line stability and substrand connectivity "
        f"on {results[1].checked} members",
    )


def test_acceptance_10_cut_and_project(corpus8_det1):
    assert cut_project_verify(RHO, (0, 30))
    result = checks.cut_project(corpus8_det1)
    assert result.ok, result.detail
    report(
        10,
        f"prefix letter counts of sigma^k(x) in [0, 30] equal the model sets "
        f"on {result.checked} members",
    )


def test_acceptance_11_reciprocal_vs_dual_language(corpus8_det1):
    result = checks.reciprocal_dual(corpus8_det1)
    assert result.ok, result.detail
    assert result.checked == 693
    report(11, f"the dual is E o reciprocal o E on {result.checked} members")
