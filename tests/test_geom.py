import json
import math
from fractions import Fraction as F

import pytest
import sympy
from hypothesis import example, given, settings, strategies as st

from conftest import FIB, RHO, sympy_value
from sturmdual.cli import main
from sturmdual.errors import (
    CoveringError,
    DeterminantMinusOneError,
    NonIntervalWindowError,
    SturmdualError,
)
from sturmdual.geom import (
    DigitMatrix,
    RauzyDecomposition,
    characteristic_word,
    cut_project_points,
    cut_project_verify,
    iterate_patch,
    lattice_for,
    rauzy_decomposition,
    star_dual,
    sturmian_word,
    tile_subst_from,
    tile_subst_from_digits,
)
from sturmdual.invert import generator_products
from sturmdual.quadfield import Quad, spectral
from sturmdual.subst import Substitution, factor_set, fixed_point_prefix, parse_substitution

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


def _subdivided_patch(sigma, letter, n):
    """Reference for iterate_patch: n subdivisions of one prototile by the
    tile-substitution, each tile (j, t) becoming (i, inflation*t + d) over
    the digits d in cell (i, j), sorted by left end."""
    t = tile_subst_from(sigma)
    tiles = [(letter, Quad(0))]
    for _ in range(n):
        tiles = [
            (i, t.inflation * left + d)
            for j, left in tiles
            for i in "ab"
            for d in t.digits.cell("ab".index(i), "ab".index(j))
        ]
    return sorted(tiles, key=lambda tile: tile[1])


def test_iterate_patch():
    assert iterate_patch(RHO, "a", 1) == [("a", Quad(0)), ("b", Quad(1)), ("a", TAU)]
    assert iterate_patch(RHO, "b", 0) == [("b", Quad(0))]
    with pytest.raises(ValueError):
        iterate_patch(RHO, "a", -1)
    # the tiles of sigma^n(x) at |w|_a + |w|_b*ell are the level-n subdivision
    members = [s for n, s in generator_products(5) if n and s.is_primitive() and s.det() == 1]
    assert len(members) == 39
    for sigma in members:
        for x in "ab":
            for n in range(4):
                assert iterate_patch(sigma, x, n) == _subdivided_patch(sigma, x, n), (str(sigma), x, n)


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


def _surd_sign(p, q, n):
    """Sign of p + q*sqrt(n) for integers p, q and a non-square n > 0."""
    if p >= 0 and q >= 0:
        return int(p > 0 or q > 0)
    if p <= 0 and q <= 0:
        return -1
    gap = p * p - q * q * n
    return ((gap > 0) - (gap < 0)) * (1 if p > 0 else -1)


def _over_sqrt(z, disc):
    """Integers (P, Q, N), N > 0, with z = (P + Q*sqrt(disc)) / N, read
    from the parts of z alone."""
    coeff = F(0)
    if z.q:
        square, rem = divmod(disc, z.d)
        root = math.isqrt(square)
        assert rem == 0 and root * root == square, (z, disc)
        coeff = z.q / root
    n = math.lcm(z.p.denominator, coeff.denominator)
    return int(z.p * n), int(coeff * n), n


def test_fixed_point_prefix_valuations_lie_in_the_windows():
    # i + j*ell' for the counts (i, j) of a and b in each prefix of a
    # 2048-letter fixed-point prefix lies in the closed window of the next
    # letter; ell' = (e - sqrt(D)) / (2 m21) solves (1, ell') M = lam' (1, ell'),
    # and each comparison is an integer sign test, with no Quad arithmetic
    members = [s for n, s in generator_products(6) if n and s.is_primitive() and s.det() == 1]
    assert len(members) == 120
    for sigma in members:
        m = sigma.matrix()
        disc = (m.m11 + m.m22) ** 2 - 4
        e, den = m.m22 - m.m11, 2 * m.m21
        rd = rauzy_decomposition(sigma)
        windows = {
            letter: [_over_sqrt(z, disc) for z in interval]
            for letter, interval in (("a", rd.r_a), ("b", rd.r_b))
        }
        i = j = 0
        for letter in fixed_point_prefix(sigma, 2048):
            # the value is (den*i + e*j - j*sqrt(disc)) / den
            vp = den * i + e * j
            (lp, lq, ln), (hp, hq, hn) = windows[letter]
            above_lo = _surd_sign(vp * ln - lp * den, -j * ln - lq * den, disc)
            below_hi = _surd_sign(hp * den - vp * hn, hq * den + j * hn, disc)
            assert above_lo >= 0 and below_hi >= 0, (sigma, i, j, letter)
            if letter == "a":
                i += 1
            else:
                j += 1


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
    # the paper's E-matrix, the digits of the window set equation, is
    # lambda times the digit matrix of the star-dual
    sd = star_dual(tile_subst_from(RHO))
    e = DigitMatrix.from_lists(
        [[{sd.inflation * d for d in cell} for cell in row] for row in sd.digits.entries]
    )
    tau_sq = TAU * TAU
    expected = DigitMatrix.from_lists(
        [[{Quad(0), -TAU}, {tau_sq}], [{Quad(0)}, {tau_sq}]]
    )
    assert e == expected


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


def test_cut_project_verify_rho():
    assert cut_project_verify(RHO, (0, 30))


def test_cut_project_verify_refuses_a_range_below_zero():
    # the fixed-point patch starts at 0, so below 0 it has no vertex to
    # compare; such a range is refused, not answered False
    sigma = parse_substitution("a->aba,b->ab")
    with pytest.raises(SturmdualError, match=r"range \[-5, 30\] reaches below 0"):
        cut_project_verify(sigma, (-5, 30))
    with pytest.raises(SturmdualError, match="reaches below 0"):
        cut_project_verify(sigma, (Quad(F(1, 2), F(-1, 2), 5), 30))  # 1/2 - sqrt(5)/2 < 0
    assert cut_project_verify(sigma, (0, 30))
    assert cut_project_verify(sigma, (5, 30))


def test_cut_project_verify_takes_a_window_endpoint_vertex():
    # the window of a -> ab, b -> bab is [ell', 1], and its endpoint 1 is the
    # internal coordinate of the lattice point (1, 0): the vertex 1 after
    # the prefix a of the fixed point abbab...
    sigma = Substitution("ab", "bab")
    lat = lattice_for(sigma)
    assert rauzy_decomposition(sigma).window() == (lat.ell_conj, Quad(1))
    assert fixed_point_prefix(sigma, 5) == "abbab"
    # [lo, hi) leaves the vertex 1 out of the model set over [0, 1]
    assert cut_project_points(lat, (lat.ell_conj, Quad(1)), (Quad(0), Quad(1))) == [Quad(0)]
    assert cut_project_verify(sigma, (0, 30))
    assert cut_project_verify(sigma, (0, 1))


@pytest.mark.parametrize(
    "plant",
    [
        pytest.param(lambda lo, hi: (lo + F(1, 3), hi + F(1, 3)), id="both shifted by 1/3"),
        pytest.param(lambda lo, hi: (lo - 1, hi - 1), id="both shifted by -1"),
        # every vertex stays inside, but the model set gains points
        pytest.param(lambda lo, hi: (lo - F(1, 3), hi + F(1, 3)), id="both widened by 1/3"),
    ],
)
def test_cut_project_verify_refuses_a_planted_window(monkeypatch, plant):
    members = [s for n, s in generator_products(5) if n and s.is_primitive() and s.det() == 1]
    assert len(members) == 39

    def planted(sigma):
        rd = rauzy_decomposition(sigma)
        return RauzyDecomposition(r_a=plant(*rd.r_a), r_b=plant(*rd.r_b))

    monkeypatch.setattr("sturmdual.geom.rauzy_decomposition", planted)
    for sigma in members:
        assert not cut_project_verify(sigma, (0, 30)), str(sigma)


def test_cut_project_verify_refuses_a_lowered_window_top(monkeypatch):
    # R_b = [0, 1], and its top 1 is the internal coordinate of the vertex
    # 1; lowered by 1/1000, the window leaves that vertex out
    sigma = Substitution("ab", "bab")

    def lowered(s):
        rd = rauzy_decomposition(s)
        return RauzyDecomposition(r_a=rd.r_a, r_b=(rd.r_b[0], rd.r_b[1] - F(1, 1000)))

    assert cut_project_verify(sigma, (0, 30))
    monkeypatch.setattr("sturmdual.geom.rauzy_decomposition", lowered)
    assert not cut_project_verify(sigma, (0, 30))


def test_cut_project_widened_window_has_extra_points():
    rd = rauzy_decomposition(RHO)
    lat = lattice_for(RHO)
    lo, hi = rd.window()
    widened = cut_project_points(lat, (lo - 1, hi + 1), (Quad(0), Quad(30)))
    exact = cut_project_points(lat, (lo, hi), (Quad(0), Quad(30)))
    assert len(widened) > len(exact)


def _sign_against(alpha, beta, coord, bound):
    """Sign of alpha + beta*coord - bound: from floats, exact when close."""
    gap = alpha + beta * float(coord) - float(bound)
    if abs(gap) > 1e-6:
        return 1 if gap > 0 else -1
    return (coord * beta + alpha - bound).sign()


def _box_scan(lat, window, phys_range):
    """Every lattice point over the physical range whose internal coordinate
    lies in the closed window, with its two window signs; beta and alpha
    run over generous float bounds and each point is tested on its own."""
    (wlo, whi), (rlo, rhi) = window, phys_range
    basis = float(lat.ell - lat.ell_conj)
    found = []
    for beta in range(math.floor(float(rlo - whi) / basis) - 2, math.ceil(float(rhi - wlo) / basis) + 3):
        shift = beta * float(lat.ell)
        for alpha in range(math.floor(float(rlo) - shift) - 2, math.ceil(float(rhi) - shift) + 3):
            if _sign_against(alpha, beta, lat.ell, rlo) < 0 or _sign_against(alpha, beta, lat.ell, rhi) > 0:
                continue
            signs = (
                _sign_against(alpha, beta, lat.ell_conj, wlo),
                _sign_against(alpha, beta, lat.ell_conj, whi),
            )
            if signs[0] >= 0 and signs[1] <= 0:
                found.append((lat.ell * beta + alpha, *signs))
    return found


def test_cut_project_points_match_a_box_scan():
    members = [s for n, s in generator_products(5) if n and s.is_primitive() and s.det() == 1]
    assert len(members) == 39
    ranges = ((Quad(0), Quad(30)), (Quad(F(-7, 2)), Quad(11)))
    calls = 0
    for sigma in members:
        lat = lattice_for(sigma)
        lo, hi = rauzy_decomposition(sigma).window()
        for window in ((lo, hi), (lo - 1, hi + 1), (lo, lo)):
            for phys_range in ranges:
                # the window [lo, hi): the sign against lo is >= 0, against hi < 0
                box = _box_scan(lat, window, phys_range)
                want = sorted(p for p, lo_sign, hi_sign in box if lo_sign >= 0 > hi_sign)
                got = cut_project_points(lat, window, phys_range)
                assert got == want, (str(sigma), window, phys_range)
                calls += 1
    assert calls == 39 * 3 * 2


@pytest.mark.parametrize(
    "spec", ["a->aba,b->ab", "a->ba,b->babab", "a->bba,b->bbabbab", "a->ba,b->bababab"]
)
def test_printed_model_set_matches_sympy(capsys, spec):
    # lattice points alpha + beta*ell over [-7/2, 20] whose internal
    # coordinate alpha + beta*ell' lies in [lo, hi), with ell and ell'
    # rebuilt in sympy from the matrix and the window read from `rauzy`
    assert main(["rauzy", spec, "--json"]) == 0
    printed = json.loads(capsys.readouterr().out)
    wlo = sympy.Min(*(sympy.sympify(printed[f"R_{t}"]["lo"]) for t in "ab"))
    whi = sympy.Max(*(sympy.sympify(printed[f"R_{t}"]["hi"]) for t in "ab"))
    m = sympy.Matrix(parse_substitution(spec).matrix().rows())
    ell_conj, ell = ((e - m[0, 0]) / m[1, 0] for e in sorted(m.eigenvals(), key=float))
    rlo, rhi = sympy.Rational(-7, 2), sympy.Integer(20)
    # beta*(ell - ell') is the physical minus the internal coordinate
    beta_lo = sympy.floor((rlo - whi) / (ell - ell_conj))
    beta_hi = sympy.ceiling((rhi - wlo) / (ell - ell_conj))
    want = []
    for beta in range(int(beta_lo), int(beta_hi) + 1):
        for alpha in range(int(sympy.ceiling(rlo - beta * ell)), int(sympy.floor(rhi - beta * ell)) + 1):
            intern = alpha + beta * ell_conj
            if bool(wlo <= intern) and bool(intern < whi):
                want.append(sympy.expand(alpha + beta * ell))
    assert main(["cutproject", spec, "--range", "-7/2", "20", "--json"]) == 0
    points = [sympy.expand(sympy.sympify(p)) for p in json.loads(capsys.readouterr().out)]
    assert len(want) > 5
    assert points == sorted(want, key=lambda v: v.evalf(50))


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


def _sympy_rotation_word(alpha, rho, convention: str, n: int) -> str:
    """The rotation word by its definition: the fractional part of x,
    taken in [0, 1) for "lower" and in (0, 1] for "upper", against the
    threshold 1 - alpha, with sympy's exact floor and ceiling."""
    threshold, x, out = 1 - alpha, rho, []
    for _ in range(n):
        if convention == "lower":
            out.append("a" if x - sympy.floor(x) < threshold else "b")
        else:
            out.append("a" if x - (sympy.ceiling(x) - 1) <= threshold else "b")
        x += alpha
    return "".join(out)


small_fractions = st.fractions(min_value=-3, max_value=3, max_denominator=7)


@settings(max_examples=40, deadline=None)
@given(
    small_fractions,
    small_fractions.filter(bool),
    st.sampled_from([2, 3, 5, 6, 7]),
    small_fractions,
    small_fractions,
    st.integers(1, 24),
)
# starting points on the partition boundary, where the conventions differ
@example(F(3, 2), F(-1, 2), 5, F(0), F(0), 12)
@example(F(3, 2), F(-1, 2), 5, F(-3, 2), F(1, 2), 12)
@example(F(3, 2), F(-1, 2), 5, F(-1, 2), F(1, 2), 12)
def test_sturmian_word_matches_the_fractional_part_definition(p, q, d, r0, r1, n):
    alpha = Quad(p, q, d)
    alpha = alpha - alpha.floor()
    rho = Quad(r0, r1, d)
    for convention in ("lower", "upper"):
        want = _sympy_rotation_word(sympy_value(alpha), sympy_value(rho), convention, n)
        assert sturmian_word(alpha, rho, convention, n) == want, convention


def test_characteristic_factors_match_language():
    word = characteristic_word(ALPHA_RHO, 2500)
    for n in (4, 9, 15):
        assert {word[i : i + n] for i in range(len(word) - n + 1)} == factor_set(RHO, n)
