import contextlib
import io
import math
import random
from fractions import Fraction as F

from hypothesis import example, given, settings, strategies as st
import pytest
import sympy
from sympy.ntheory import continued_fraction_periodic
from sympy.ntheory.continued_fraction import continued_fraction_reduce

from conftest import sympy_value
from sturmdual.cli import build_report, main
from sturmdual.errors import ParseError, SturmdualError
from sturmdual.invert import generator_products
from sturmdual.quadfield import (
    CF,
    LatticeLine,
    Quad,
    cf_dual_transform,
    cf_expand,
    cf_value,
    dual_frequency_value,
    float_parts,
    format_cf,
    format_parts,
    format_quad,
    is_selfdual_frequency,
    is_sturm_number,
    normalize_cf,
    parse_cf,
    parse_quad,
    spectral,
    sqrt_int,
    squarefree_decompose,
)
from sturmdual.subst import Mat2

TAU = Quad(F(1, 2), F(1, 2), 5)
ALPHA_RHO = Quad(F(3, 2), F(-1, 2), 5)  # frequency of a->aba, b->ab

quads = st.builds(
    Quad,
    st.fractions(min_value=-8, max_value=8, max_denominator=6),
    st.fractions(min_value=-8, max_value=8, max_denominator=6),
    st.sampled_from([2, 3, 5, 7]),
)


def test_squarefree_decompose():
    assert squarefree_decompose(0) == (1, 0)
    assert squarefree_decompose(12) == (2, 3)
    assert squarefree_decompose(49) == (7, 1)
    assert squarefree_decompose(5) == (1, 5)


def _sympy_square_part(n: int) -> tuple[int, int]:
    s = d = 1
    for prime, e in sympy.factorint(n).items():
        s *= prime ** (e // 2)
        d *= prime ** (e % 2)
    return s, d


@st.composite
def radicands(draw):
    """Radicands up to 10**14; pq and p^2 q with primes p, q > 10**4 leave
    a cofactor that trial division to 10**4 does not split.  m p^2 with a
    prime p past the cube root 46415 of 10**14 leaves a square to isqrt
    beside small single primes; m p^3 with 10**4 < p <= 46415 needs the
    trial division past 10**4."""
    shape = draw(st.sampled_from(["any", "pq", "ppq", "mpp", "mppp"]))
    if shape == "any":
        return draw(st.integers(1, 10**14))
    if shape == "pq":
        p = sympy.nextprime(draw(st.integers(10**4, 10**7)))
        return p * sympy.prevprime(draw(st.integers(10**4 + 2, 10**14 // p)))
    if shape == "mpp":
        p = sympy.nextprime(draw(st.integers(46416, 10**7 - 10**3)))
        return draw(st.integers(1, 10**14 // (p * p))) * p * p
    if shape == "mppp":
        p = sympy.prevprime(draw(st.integers(10**4 + 10, 46415)))
        return draw(st.integers(1, 10**14 // p**3)) * p**3
    p = sympy.nextprime(draw(st.integers(10**4, 9 * 10**4)))
    return p * p * sympy.prevprime(draw(st.integers(10**4 + 2, 10**14 // (p * p))))


@settings(max_examples=300, deadline=None)
@given(radicands())
@example(99999999999973)  # prime just below 10**14
@example(99991 * 99991 * 9973)
@example(10007 * 9993004877)
@example(2 * 100003**2)
@example(210 * 100003**2)
@example(46411**3)  # the largest prime cube up to 10**14
def test_squarefree_decompose_matches_sympy(n):
    assert squarefree_decompose.__wrapped__(n) == _sympy_square_part(n)


def test_squarefree_decompose_refuses_above_the_limit():
    # two primes near 10**8: the cofactor is past the limit and not a square
    with pytest.raises(SturmdualError, match="too large"):
        squarefree_decompose.__wrapped__(100000007 * 100000037)
    # a square cofactor past the limit needs no factoring
    assert squarefree_decompose.__wrapped__(100000007**2 * 4) == (200000014, 1)


big_integers = st.integers(-(10**20), 10**20) | st.integers(-3, 3)


@settings(deadline=None)
@given(
    big_integers,
    big_integers,
    st.integers(1, 10**6) | st.integers(1, 4),
    st.sampled_from([2, 3, 5, 6, 7, 10, 10**9 + 7]),
)
def test_integer_printing_matches_quad(a, b, n, d):
    # the report prints (a + b*sqrt(d)) / n from integers; it must read as
    # the Quad with the same value prints
    x = Quad(F(a, n), F(b, n), d)
    assert format_parts(a, b, n, d if b else 0) == format_quad(x)
    assert float_parts(a, b, n, d) == float(x)


def test_star_examples():
    assert TAU.star() == Quad(F(1, 2), F(-1, 2), 5)
    assert TAU * TAU.star() == Quad(-1)
    assert sqrt_int(12) == Quad(0, 2, 3)


def test_floor_examples():
    # 2.618..., bracketed by the interval oracle floor(x) <= x < floor(x)+1
    x = Quad(F(3, 2), F(1, 2), 5)
    n = x.floor()
    assert n == 2
    assert Quad(n) <= x < Quad(n + 1)
    assert Quad(F(-3, 2), F(-1, 2), 5).floor() == -3
    assert Quad(F(7, 3)).floor() == 2
    # far beyond float precision
    assert Quad(10**25, 1, 2).floor() == 10**25 + 1
    assert Quad(-(10**25), -1, 2).floor() == -(10**25) - 2
    assert Quad(F(10**40 + 1, 3), F(-7, 3), 5).floor() == (10**40 - 15) // 3


@given(quads)
def test_floor_bracket_property(x):
    n = x.floor()
    assert Quad(n) <= x < Quad(n + 1)


def test_cf_command_on_a_large_surd():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["cf", "10000000000000000000000000000000000000000+sqrt(2)"])
    assert code == 0
    assert out.getvalue() == "[10000000000000000000000000000000000000001; (2)]\n"


# small values too, so that the floor often lands next to an integer
numerators = st.integers(-(10**30), 10**30) | st.integers(-50, 50)
denominators = st.integers(1, 10**30) | st.integers(1, 4)
big_surds = st.tuples(numerators, denominators, numerators, denominators, st.integers(2, 1000))


@settings(deadline=None)
@given(big_surds)
def test_floor_and_sign_match_sympy(parts):
    pn, pd, qn, qd, d = parts
    x = Quad(F(pn, pd), F(qn, qd), d)
    exact = sympy.Rational(pn, pd) + sympy.Rational(qn, qd) * sympy.sqrt(d)
    assert x.floor() == sympy.floor(exact)
    assert x.sign() == sympy.sign(exact)


def test_lattice_line_matches_sympy():
    # i + j*x - c for seeded integers i, j (small, and 20 digits of either
    # sign) and Quads x, c over one field, either of them rational at times
    rng = random.Random(20261019)

    def integer():
        return rng.choice([rng.randint(-50, 50), rng.randint(10**19, 10**20 - 1) * rng.choice([-1, 1])])

    def quad(d):
        p = F(rng.randint(-40, 40), rng.randint(1, 12))
        return Quad(p) if rng.random() < 0.15 else Quad(p, F(rng.randint(-40, 40) or 1, rng.randint(1, 12)), d)

    checked = 0
    for _ in range(150):
        d = rng.choice([2, 3, 5, 6, 7, 13])
        x, c = quad(d), quad(d)
        line = LatticeLine(x, c, 0)
        pairs = [(integer(), integer()) for _ in range(2)]
        for i, j in pairs:
            exact = i + j * sympy_value(x) - sympy_value(c)
            assert line.sign(i, j, 0) == sympy.sign(exact), (i, j, x, c)
            assert line.floor(i, j, 0) == sympy.floor(exact), (i, j, x, c)
            assert line.ceil(i, j, 0) == sympy.ceiling(exact), (i, j, x, c)
            assert sympy_value(line.value(i, j)) - (i + j * sympy_value(x)) == 0
            checked += 1
        if not x.is_rational and pairs[0] != pairs[1]:
            (i0, j0), (i1, j1) = pairs
            gap = sympy.sign(i1 - i0 + (j1 - j0) * sympy_value(x))
            assert line.ordered(pairs) == (pairs if gap > 0 else pairs[::-1])
        if x.sign():
            assert line.ratio_floor(0) == sympy.floor(sympy_value(c) / sympy_value(x)), (x, c)
    assert checked == 300


def test_lattice_line_examples():
    line = LatticeLine(TAU, 3, TAU)  # tau = 1.618...
    assert line.value(1, 1) == Quad(F(3, 2), F(1, 2), 5) == TAU + 1
    # against the bound 3: 2 + tau - 3 = 0.618, 1 + tau - 3 = -0.382, tau - tau = 0
    assert (line.sign(2, 1, 0), line.floor(2, 1, 0), line.ceil(2, 1, 0)) == (1, 0, 1)
    assert (line.sign(1, 1, 0), line.floor(1, 1, 0), line.ceil(1, 1, 0)) == (-1, -1, 0)
    assert (line.sign(0, 1, 1), line.floor(0, 1, 1), line.ceil(0, 1, 1)) == (0, 0, 0)
    assert line.ratio_floor(0) == 1  # 3 / tau = 1.854
    # 4.618, 2.618, 3.236, 3.854: exact order, the first two with equal beta
    assert line.ordered([(3, 1), (1, 1), (0, 2), (-1, 3)]) == [(1, 1), (0, 2), (-1, 3), (3, 1)]


def test_lattice_line_refuses_a_second_field():
    with pytest.raises(SturmdualError, match="incompatible radicands"):
        LatticeLine(Quad(0, 1, 5), Quad(0, 1, 3))
    with pytest.raises(SturmdualError, match="incompatible radicands"):
        LatticeLine(Quad(1), 0, Quad(F(1, 2), 1, 2), Quad(0, 1, 7))
    # a rational bound fits every field
    assert LatticeLine(TAU, F(1, 3), 2).sign(0, 1, 0) == 1


@settings(max_examples=40, deadline=None)
@given(
    st.integers(-30, 30),
    st.integers(1, 30).flatmap(lambda q: st.sampled_from([q, -q])),
    st.integers(2, 200).filter(lambda d: math.isqrt(d) ** 2 != d),
)
def test_cf_expand_matches_sympy(p, q, d):
    # (p + sqrt(d)) / q against sympy's periodic expansion, both ways
    x = Quad(F(p, q), F(1, q), d)
    ours = cf_expand(x)
    *pre, per = continued_fraction_periodic(p, q, d)
    pre, per = tuple(map(int, pre)), tuple(map(int, per))
    assert cf_value(CF(pre, per, x)) == x
    count = max(len(pre), len(ours.preperiod)) + math.lcm(len(per), len(ours.period))
    theirs = list(pre)
    while len(theirs) < count:
        theirs.extend(per)
    assert ours.quotients(count) == theirs[:count]


@given(quads, quads)
def test_star_is_field_automorphism(x, y):
    if x.d and y.d and x.d != y.d:
        x = Quad(x.p, x.q, y.d) if x.q else x
    try:
        prod = x * y
    except SturmdualError:
        return
    assert (x.star() * y.star()) == prod.star()
    assert (x.star() + y.star()) == (x + y).star()
    assert x.star().star() == x


@given(quads)
def test_float_agrees_with_exact_sign(x):
    approx = float(x)
    if abs(approx) > 1e-9:
        assert (approx > 0) == (x.sign() > 0)


def test_division_and_errors():
    assert (TAU / TAU) == Quad(1)
    assert Quad(1) / TAU == TAU - 1
    with pytest.raises(ZeroDivisionError):
        TAU / Quad(0)
    with pytest.raises(SturmdualError):
        Quad(0, 1, 2) + Quad(0, 1, 3)


def test_spectral_fibonacci_square():
    s = spectral(Mat2(2, 1, 1, 1))
    assert s.lam == TAU * TAU
    assert s.alpha == ALPHA_RHO
    assert s.ell == TAU - 1  # (sqrt(5)-1)/2
    assert s.lam_conj == s.lam.star()
    # right eigenvector (1-alpha, alpha), left eigenvector (1, ell), exactly
    m = Mat2(2, 1, 1, 1)
    va, vb = Quad(1) - s.alpha, s.alpha
    assert m.m11 * va + m.m12 * vb == s.lam * va
    assert m.m21 * va + m.m22 * vb == s.lam * vb
    assert Quad(m.m11) + s.ell * m.m21 == s.lam
    assert Quad(m.m12) + s.ell * m.m22 == s.lam * s.ell


def test_spectral_fibonacci():
    s = spectral(Mat2(1, 1, 1, 0))
    assert s.lam == TAU


def test_spectral_guards():
    with pytest.raises(SturmdualError):
        spectral(Mat2(1, 6, 1, 8))  # determinant 2
    with pytest.raises(SturmdualError):
        spectral(Mat2(1, 7, 1, 7))  # determinant 0
    with pytest.raises(SturmdualError):
        spectral(Mat2(1, 1, 0, 1))  # unimodular but not primitive


def _sympy_equal(x: Quad, expr) -> bool:
    return sympy.expand(sympy.radsimp(sympy.sympify(format_quad(x)) - expr)) == 0


def _sympy_spectral(rows):
    """(lam, lam', alpha, alpha', ell, ell') from sympy's eigenvectors."""
    m = sympy.Matrix(rows)
    right = {val: vecs[0] for val, _, vecs in m.eigenvects()}
    left = {val: vecs[0] for val, _, vecs in m.T.eigenvects()}
    lam, lam_conj = sorted(right, key=lambda v: v.evalf(), reverse=True)
    out = []
    for val in (lam, lam_conj):
        v, w = right[val], left[val]
        out += [val, v[1] / (v[0] + v[1]), w[1] / w[0]]
    return out[0], out[3], out[1], out[4], out[2], out[5]


def test_spectral_matches_sympy_on_the_corpus():
    # every primitive det +-1 member of the length <= 6 corpus; sympy's
    # right eigenvector with coordinate sum 1 gives alpha, its left
    # eigenvector scaled to (1, ell) gives ell
    oracle = {}
    members = [s for names, s in generator_products(6) if names and s.is_primitive() and s.det() in (1, -1)]
    assert len(members) == 275
    for sigma in members:
        rows = sigma.matrix().rows()
        if rows not in oracle:
            oracle[rows] = _sympy_spectral(rows)
        s = spectral(sigma.matrix())
        ours = (s.lam, s.lam_conj, s.alpha, s.alpha_conj, s.ell, s.ell_conj)
        assert all(_sympy_equal(x, y) for x, y in zip(ours, oracle[rows])), sigma
    assert len(oracle) == 41


def float_cf_quotients(x: float, count: int) -> list[int]:
    """Floating continued-fraction oracle (reliable for small depth)."""
    out = []
    for _ in range(count):
        a = math.floor(x)
        out.append(a)
        frac = x - a
        if frac < 1e-12:
            break
        x = 1.0 / frac
    return out


def test_cf_expand_examples():
    c = cf_expand(ALPHA_RHO)
    assert c == CF((0, 2), (1,))
    assert float_cf_quotients(float(ALPHA_RHO), 12) == c.quotients(12)

    r2 = Quad(-1, 1, 2)
    c2 = cf_expand(r2)
    assert c2 == CF((0,), (2,))
    assert cf_value(c2) == r2

    assert cf_expand(Quad(F(7, 3))) == CF((2, 3), ())


def test_cf_value_examples():
    golden = Quad(F(-1, 2), F(1, 2), 5)  # x = 1/(1+x)
    assert cf_value(CF((0,), (1,))) == golden
    assert cf_value(CF((0, 2), (1,))) == ALPHA_RHO
    assert cf_value(CF((2, 3), ())) == Quad(F(7, 3))


preperiods = st.just([]) | st.builds(
    lambda a0, rest: [a0, *rest], st.integers(-5, 5), st.lists(st.integers(1, 9), max_size=7)
)


@settings(max_examples=100, deadline=None)
@given(preperiods, st.lists(st.integers(1, 9), min_size=1, max_size=6))
def test_cf_value_matches_sympy_with_long_preperiods(pre, per):
    # preperiods up to length 8, beyond what cf_expand's round trip produces
    value = cf_value(CF(tuple(pre), tuple(per)))
    assert _sympy_equal(value, continued_fraction_reduce(pre + [per]))


def test_cf_roundtrip_random_surds():
    # the printed-and-parsed copy carries no value_hint, so cf_value must
    # resolve the period's discriminant alone, which for the first case's
    # 72-quotient period needs the period's quadratic in primitive form
    rng = random.Random(20260808)
    cases = [Quad(F(-29, 14), F(2346, 7), 2)] + [
        Quad(
            F(rng.randint(-9, 9), rng.randint(1, 7)),
            F(rng.randint(1, 9), rng.randint(1, 7)),
            rng.choice([2, 3, 5, 6, 7, 10]),
        )
        for _ in range(100)
    ]
    for x in cases:
        c = cf_expand(x)
        assert cf_value(c) == x
        again = parse_cf(format_cf(c))
        assert again == c and again.value_hint is None
        assert cf_value(again) == x, x


def test_cf_canonical_form():
    # periodic part reduced to its primitive root, preperiod pulled back
    assert normalize_cf((0, 2), (1, 1)) == CF((0, 2), (1,))
    assert normalize_cf((0, 1, 2), (1, 2)) == CF((0,), (1, 2))
    assert normalize_cf((1, 3), (2, 1, 3)) == CF((), (1, 3, 2))
    assert parse_cf("[0; 2, (1)]") == CF((0, 2), (1,))
    assert format_cf(CF((0, 2), (1,))) == "[0; 2, (1)]"
    assert format_cf(CF((2, 3), ())) == "[2; 3]"


@pytest.mark.parametrize(
    "text, printed",
    [("1+sqrt(2)", "[2; (2)]"), ("1/2+1/2*sqrt(5)", "[1; (1)]"), ("2+sqrt(7)", "[4; (1, 1, 1, 4)]")],
)
def test_purely_periodic_expansion_prints_and_parses_back(text, printed):
    x = parse_quad(text)
    c = cf_expand(x)
    assert c.preperiod == ()  # x > 1 with its conjugate in (-1, 0)
    assert str(c) == format_cf(c) == printed
    again = parse_cf(printed)
    assert again == c
    assert cf_value(again) == x
    assert not is_selfdual_frequency(c)


def test_dual_frequency_examples():
    s = spectral(Mat2(2, 1, 1, 1))
    assert dual_frequency_value(s.alpha) == ALPHA_RHO  # selfdual frequency


def test_dual_frequency_is_transposed_frequency():
    rng = random.Random(7)
    found = 0
    while found < 50:
        m = Mat2(rng.randint(1, 12), rng.randint(1, 12), rng.randint(1, 12), 0)
        # adjust the last entry for determinant one
        det_target = 1 + m.m12 * m.m21
        if det_target % m.m11 != 0:
            continue
        m = Mat2(m.m11, m.m12, m.m21, det_target // m.m11)
        if m.det() != 1 or not m.is_primitive():
            continue
        s = spectral(m)
        assert dual_frequency_value(s.alpha) == spectral(m.transpose()).alpha
        found += 1


def test_report_alpha_star_is_sympy_frequency_of_the_transpose():
    # build_report prints alpha* from integers; sympy's alpha of M^T is
    # an oracle that shares none of that arithmetic
    oracle = {}
    members = [s for names, s in generator_products(6) if names and s.is_primitive() and s.det() == 1]
    assert members
    for sigma in members:
        rows = sigma.matrix().transpose().rows()
        if rows not in oracle:
            oracle[rows] = _sympy_spectral(rows)[2]
        exact = build_report(sigma).alpha_star["exact"]
        assert sympy.expand(sympy.radsimp(sympy.sympify(exact) - oracle[rows])) == 0, sigma


def test_is_sturm_number():
    assert is_sturm_number(ALPHA_RHO)
    assert is_sturm_number(Quad(-1, 1, 2))
    assert not is_sturm_number(Quad(F(1, 3)))
    assert not is_sturm_number(Quad(F(1, 2), F(1, 10), 5))  # conjugate inside (0,1)


def _sympy_is_sturm(x: Quad) -> bool:
    root = sympy.sqrt(x.d)
    p = sympy.Rational(x.p.numerator, x.p.denominator)
    q = sympy.Rational(x.q.numerator, x.q.denominator)
    value, conj = p + q * root, p - q * root
    return (
        not value.is_rational
        and bool(0 < value) and bool(value < 1)
        and not (bool(0 < conj) and bool(conj < 1))
    )


@settings(max_examples=200, deadline=None)
@given(
    st.fractions(min_value=-3, max_value=3, max_denominator=8),
    st.fractions(min_value=-3, max_value=3, max_denominator=8),
    st.integers(2, 60),
)
@example(F(3, 2), F(-1, 2), 5)  # a Sturm number
@example(F(1, 2), F(1, 10), 5)  # its conjugate inside (0, 1) too
@example(F(3, 2), F(1, 2), 5)  # its conjugate alone inside (0, 1)
@example(F(1, 2), F(0), 5)  # rational
def test_is_sturm_number_matches_sympy(p, q, d):
    # the value and its fractional part, so that (0, 1) is often hit
    x = Quad(p, q, d)
    for y in (x, x - x.floor()):
        assert is_sturm_number(y) == _sympy_is_sturm(y), y


@settings(max_examples=200, deadline=None)
@given(
    preperiods | st.lists(st.integers(1, 9), max_size=3).map(lambda rest: [0, *rest]),
    st.lists(st.integers(1, 9), min_size=1, max_size=5),
)
def test_cf_dual_transform_refuses_exactly_the_non_sturm_numbers(pre, per):
    c = normalize_cf(tuple(pre), tuple(per))
    try:
        cf_dual_transform(c)
        refused = False
    except SturmdualError as exc:
        refused = "is not the expansion of a Sturm number" in str(exc)
    assert refused == (not is_sturm_number(cf_value(c))), format_cf(c)


def test_cf_dual_transform_examples():
    fixed = cf_dual_transform(CF((0, 2), (1,)))
    assert fixed == CF((0, 2), (1,))

    r2 = Quad(-1, 1, 2)
    out = cf_dual_transform(cf_expand(r2))
    assert cf_value(out) == dual_frequency_value(r2)
    assert out == CF((0, 1, 1), (2,))
    assert out.value_hint == dual_frequency_value(r2)
    assert cf_dual_transform(parse_cf("[0; (2)]")).value_hint is None

    with pytest.raises(SturmdualError):
        cf_dual_transform(CF((0, 3), ()))  # rational


def test_cf_dual_transform_against_oracle_on_sturm_numbers():
    rng = random.Random(99)
    tested = 0
    while tested < 30:
        x = Quad(
            F(rng.randint(-6, 6), rng.randint(1, 5)),
            F(rng.randint(1, 6), rng.randint(1, 5)),
            rng.choice([2, 3, 5, 6, 7]),
        )
        x = x - x.floor()
        if not is_sturm_number(x):
            continue
        out = cf_dual_transform(cf_expand(x))
        assert cf_value(out) == dual_frequency_value(x)
        tested += 1


def test_is_selfdual_frequency_examples():
    assert is_selfdual_frequency(parse_cf("[0; 2, (1)]"))
    assert not is_selfdual_frequency(parse_cf("[0; 1, (2, 1)]"))
    assert is_selfdual_frequency(parse_cf("[0; 1, (3, 3)]"))
    # purely periodic golden expansion is selfdual
    assert is_selfdual_frequency(CF((0,), (1,)))


def test_is_selfdual_frequency_matches_exact_duality():
    # brute comparison against alpha == alpha* through cf_value
    for text in ["[0; 2, (1)]", "[0; 1, (2, 1)]", "[0; 1, (3, 3)]", "[0; 2, (2)]"]:
        c = parse_cf(text)
        alpha = cf_value(c)
        assert is_selfdual_frequency(c) == (alpha == dual_frequency_value(alpha))


def test_quad_text_roundtrip():
    for x in [TAU, Quad(F(-3, 7)), Quad(0), Quad(0, 1, 2), Quad(2, -3, 7)]:
        assert parse_quad(format_quad(x)) == x
    assert parse_quad("sqrt(0)") == Quad(0)
    assert parse_quad("2*sqrt(12)-sqrt(3)") == Quad(0, 3, 3)
    with pytest.raises(ParseError):
        parse_quad("sqrt(2)+sqrt(3)")


@settings(deadline=None)
@given(st.text(alphabet="0123456789/+-*sqrt()[];, "))
@example("1/0")
@example("0/0")
@example("1/0*sqrt(2)")
@example("[1;2,(1/0)]")
@example("sqrt(2)+sqrt(3)")
@example("sqrt(0)")
@example("sqrt(" + "9" * 40 + "7)")
def test_parsers_return_a_value_or_a_parse_error(text):
    for parse in (parse_quad, parse_cf):
        try:
            parse(text)
        except ParseError:
            pass
