import json
import math
from fractions import Fraction as F

import pytest
import sympy

from conftest import FIB, RHO
from sturmdual.cli import main
from sturmdual.errors import (
    CoveringError,
    DeterminantMinusOneError,
    NonIntervalWindowError,
    SturmdualError,
)
from sturmdual.geom import (
    DigitMatrix,
    characteristic_word,
    covering_depth,
    cut_project_points,
    cut_project_verify,
    e_matrix,
    iterate_patch,
    lattice_for,
    rauzy_decomposition,
    star_dual,
    star_relation_check,
    sturmian_word,
    tile_subst_from,
    tile_subst_from_digits,
)
from sturmdual.invert import generator_products
from sturmdual.quadfield import Quad, spectral
from sturmdual.subst import Substitution, factor_set, fixed_point_prefix

TAU = Quad(F(1, 2), F(1, 2), 5)
TAU_INV = TAU - 1
ALPHA_RHO = Quad(F(3, 2), F(-1, 2), 5)


def test_tile_subst_from_rho():
    t = tile_subst_from(RHO)
    assert t.inflation == TAU * TAU
    assert t.lengths == (Quad(1), TAU_INV)
    assert t.offsets == (Quad(0), Quad(0))
    expected = DigitMatrix.from_lists(
        [[{Quad(0), TAU}, {Quad(0)}], [{Quad(1)}, {Quad(1)}]]
    )
    assert t.digits == expected


def test_tile_subst_cardinalities_match_matrix():
    for sub in (FIB, RHO, Substitution("ab", "abb")):
        t = tile_subst_from(sub)
        assert t.digits.cardinalities() == sub.matrix()


def test_star_dual_rho():
    sd = star_dual(tile_subst_from(RHO))
    expected = DigitMatrix.from_lists(
        [[{Quad(0), -(TAU_INV)}, {Quad(1)}], [{Quad(0)}, {Quad(1)}]]
    )
    assert sd.digits == expected
    # windows swap roles: lengths proportional to the window lengths
    rd = rauzy_decomposition(RHO)
    wa = rd.r_a[1] - rd.r_a[0]
    wb = rd.r_b[1] - rd.r_b[0]
    assert wa * sd.lengths[1] == wb * sd.lengths[0]


def test_star_dual_involution():
    t = tile_subst_from(RHO)
    assert star_dual(star_dual(t)).digits == t.digits
    # starring fixes rational digit sets
    rational = DigitMatrix.from_lists([[{0, 2}, {0}], [{1}, {1}]])
    assert rational.star() == rational


def test_tile_subst_from_digits_recovers_rho():
    t = tile_subst_from(RHO)
    rebuilt = tile_subst_from_digits(t.digits)
    assert rebuilt.inflation == TAU * TAU
    assert rebuilt.lengths == (Quad(1), TAU_INV)
    assert rebuilt.offsets == (Quad(0), Quad(0))


def test_tile_subst_from_digits_star_dual_valid():
    t = tile_subst_from(RHO)
    sd = tile_subst_from_digits(t.digits.transpose().star())
    assert sd.lengths[0] == TAU_INV
    assert sd.lengths[1] == Quad(2) - TAU  # tau^{-2}


def test_tile_subst_from_digits_covering_failure():
    bad = DigitMatrix.from_lists(
        [[{Quad(0), Quad(F(1, 2))}, {Quad(0)}], [{Quad(1)}, {Quad(1)}]]
    )
    with pytest.raises(CoveringError):
        tile_subst_from_digits(bad)


def test_iterate_patch():
    t = tile_subst_from(RHO)
    assert iterate_patch(t, "a", 1) == [("a", Quad(0)), ("b", Quad(1)), ("a", TAU)]
    assert iterate_patch(t, "b", 0) == [("b", Quad(0))]
    # patch word matches the substitution power, tiles abut exactly
    for n in (2, 3):
        patch = iterate_patch(t, "a", n)
        assert "".join(l for l, _ in patch) == RHO.power(n).apply("a")
        pos = Quad(0)
        for letter, left in patch:
            assert left == pos
            pos = pos + t.lengths[0 if letter == "a" else 1]


def test_rauzy_decomposition_rho():
    rd = rauzy_decomposition(RHO)
    assert rd.r_a == (Quad(-1), TAU_INV)
    assert rd.r_b == (TAU_INV, TAU)
    assert rd.window() == (Quad(-1), TAU)


def test_rauzy_decomposition_satisfies_set_equation():
    rd = rauzy_decomposition(RHO)
    spec = spectral(RHO.matrix())
    lp = spec.lam_conj
    intervals = {"a": rd.r_a, "b": rd.r_b}
    # pieces of the equation, target by target, tile each window exactly
    offsets = {"a": [], "b": []}
    for j in "ab":
        value = Quad(0)
        for letter in RHO.image(j):
            offsets[letter].append((j, value))
            value = value + (Quad(1) if letter == "a" else spec.ell_conj)
    for i in "ab":
        pieces = sorted(
            (
                (lp * intervals[j][0] + c, lp * intervals[j][1] + c)
                for j, c in offsets[i]
            ),
            key=lambda piece: piece[0],
        )
        assert pieces[0][0] == intervals[i][0]
        assert pieces[-1][1] == intervals[i][1]
        for (_, r1), (l2, _) in zip(pieces, pieces[1:]):
            assert r1 == l2


def test_printed_windows_solve_the_set_equation_in_sympy(capsys):
    # the Bellman form of the set equation, rebuilt in sympy from the
    # matrix alone: lo_t = min(r*lo_s + c) and hi_t = max(r*hi_s + c)
    # over the pieces of t, with r the conjugate eigenvalue and c the
    # conjugate valuations of the prefixes before each t in sigma(s)
    members = [s for n, s in generator_products(5) if n and s.is_primitive() and s.det() == 1]
    assert len(members) == 39
    for sigma in members:
        assert main(["rauzy", str(sigma), "--json"]) == 0
        printed = json.loads(capsys.readouterr().out)
        lo = {t: sympy.sympify(printed[f"R_{t}"]["lo"]) for t in "ab"}
        hi = {t: sympy.sympify(printed[f"R_{t}"]["hi"]) for t in "ab"}
        m = sympy.Matrix(sigma.matrix().rows())
        ratio = min(m.eigenvals(), key=lambda e: float(e))
        ell = (ratio - m[0, 0]) / m[1, 0]
        pieces = {"a": [], "b": []}
        for s in "ab":
            value = sympy.Integer(0)
            for letter in sigma.image(s):
                pieces[letter].append((s, value))
                value += 1 if letter == "a" else ell
        for t in "ab":
            # every piece lies on the far side of the endpoint, one touches it
            for ends, side in ((lo, 1), (hi, -1)):
                signs = {side * sympy.sign(ratio * ends[s] + c - ends[t]) for s, c in pieces[t]}
                assert signs <= {0, 1} and 0 in signs, (sigma, t)


def test_rauzy_guards():
    with pytest.raises(NonIntervalWindowError):
        rauzy_decomposition(Substitution("aab", "ba"))  # primitive, det 1, not invertible
    with pytest.raises(DeterminantMinusOneError):
        rauzy_decomposition(FIB)
    with pytest.raises(SturmdualError):
        rauzy_decomposition(Substitution("ab", "ba"))  # determinant 0


def test_e_matrix_rho():
    e = e_matrix(RHO)
    tau_sq = TAU * TAU
    expected = DigitMatrix.from_lists(
        [[{Quad(0), -TAU}, {tau_sq}], [{Quad(0)}, {tau_sq}]]
    )
    assert e == expected


def test_star_relation(corpus8_primitive):
    assert star_relation_check(RHO)
    count = 0
    for sub in corpus8_primitive:
        if not sub.is_unimodular():
            continue
        assert star_relation_check(sub)
        count += 1
        if count >= 50:
            break


def test_corpus_tile_substitutions_cover_exactly(corpus8_primitive):
    # rebuilding from the digit matrix verifies the level-1 covering and
    # must recover the canonical anchored prototiles
    count = 0
    for sub in corpus8_primitive:
        if not sub.is_unimodular():
            continue
        t = tile_subst_from(sub)
        rebuilt = tile_subst_from_digits(t.digits)
        assert rebuilt.lengths == t.lengths
        assert rebuilt.offsets == (Quad(0), Quad(0))
        count += 1
        if count >= 60:
            break
    assert count == 60


def test_cut_project_points_basics():
    lat = lattice_for(RHO)
    assert cut_project_points(lat, (Quad(0), Quad(0)), (Quad(0), Quad(10))) == []
    # a window shrunk to one point keeps at most one lattice point
    rd = rauzy_decomposition(RHO)
    single = cut_project_points(lat, (Quad(0), Quad(0)), (Quad(-20), Quad(20)), closed="both")
    assert single == [Quad(0)]


def test_cut_project_verify_rho():
    assert cut_project_verify(RHO, covering_depth(RHO, 30), (0, 30))


def test_cut_project_widened_window_has_extra_points():
    rd = rauzy_decomposition(RHO)
    lat = lattice_for(RHO)
    lo, hi = rd.window()
    widened = cut_project_points(lat, (lo - 1, hi + 1), (Quad(0), Quad(30)))
    exact = cut_project_points(lat, (lo, hi), (Quad(0), Quad(30)))
    assert len(widened) > len(exact)


def test_sturmian_word_examples():
    assert characteristic_word(ALPHA_RHO, 5) == "abaab"
    assert characteristic_word(ALPHA_RHO, 5) == fixed_point_prefix(RHO, 5)
    assert sturmian_word(ALPHA_RHO, Quad(0), "lower", 3) == "aab"
    with pytest.raises(SturmdualError):
        sturmian_word(Quad(F(1, 3)), Quad(0), "lower", 5)


def test_sturmian_rotation_oracle():
    # floating rotation oracle, far from the partition boundary
    alpha = float(ALPHA_RHO)
    word = characteristic_word(ALPHA_RHO, 200)
    for k, letter in enumerate(word):
        point = math.fmod(alpha * (k + 1), 1.0)
        assert abs(point - (1 - alpha)) > 1e-9
        assert letter == ("a" if point < 1 - alpha else "b")


def test_sturmian_upper_vs_lower_generic():
    # a rational initial point never hits the irrational partition point
    x = Quad(F(1, 7))
    assert sturmian_word(ALPHA_RHO, x, "lower", 40) == sturmian_word(
        ALPHA_RHO, x, "upper", 40
    )


def test_characteristic_factors_match_language():
    word = characteristic_word(ALPHA_RHO, 2500)
    for n in (4, 9, 15):
        assert {word[i : i + n] for i in range(len(word) - n + 1)} == factor_set(RHO, n)
