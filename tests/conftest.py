import pytest
import sympy

from sturmdual.invert import generator_products
from sturmdual.subst import Substitution

FIB = Substitution("ab", "a")
RHO = Substitution("aba", "ab")  # square of FIB
SIG_UNCHANGED = Substitution("abaab", "ababaab")
KRIEGER = Substitution("ab", "baabbaabbaabba")
KRIEGER_PARTNER = Substitution("abbaab", "baabbaabba")


def sympy_value(x):
    """The value of a Quad as an exact sympy number."""
    return sympy.Rational(x.p.numerator, x.p.denominator) + sympy.Rational(
        x.q.numerator, x.q.denominator
    ) * sympy.sqrt(x.d)


@pytest.fixture(scope="session")
def corpus8():
    """All distinct generator products of length <= 8 (without identity)."""
    return [s for names, s in generator_products(8) if names]


@pytest.fixture(scope="session")
def corpus8_primitive(corpus8):
    return [s for s in corpus8 if s.is_primitive()]


@pytest.fixture(scope="session")
def corpus8_det1(corpus8_primitive):
    return [s for s in corpus8_primitive if s.det() == 1]
