"""The paper's properties as checks over a corpus of substitutions.

Each check takes a corpus and only the numbers ``sturmdual verify`` exposes,
keeps the members the property applies to, and returns a CheckResult; verify
and the acceptance tests run each check alike, on different corpora.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from . import dualmap, geom, invert
from .quadfield import cf_dual_transform, cf_expand, cf_value, dual_frequency_value
from .quadfield import is_selfdual_frequency, spectral
from .subst import Substitution, hulls_equal_upto
from .subst import is_sturmian_language

# equal factor sets (hulls) without conjugate powers; the first is not invertible
KRIEGER_PAIR = (Substitution("ab", "baabbaabbaabba"), Substitution("abbaab", "baabbaabba"))


@dataclass(frozen=True)
class CheckResult:
    """ok, the number of items checked, and a detail naming any counterexample."""

    ok: bool
    checked: int
    detail: str


def _for_all(members, holds, failure: str, success: str) -> CheckResult:
    """``holds`` on every member; ``failure`` names the first member that
    fails as ``{}``, ``success`` may show the number checked as ``{}``."""
    for checked, member in enumerate(members, 1):
        if not holds(member):
            return CheckResult(False, checked, failure.format(member))
    return CheckResult(True, len(members), success.format(len(members)))


def _primitive(corpus, *conditions) -> list[Substitution]:
    """The primitive members that meet every condition."""
    return [s for s in corpus if s.is_primitive() and all(c(s) for c in conditions)]


def _det_one(sigma: Substitution) -> bool:
    return sigma.det() == 1


def complexity(corpus, length: int = 30) -> CheckResult:
    """p(n) = n + 1 up to length on primitive members, but not for KRIEGER_PAIR[0]."""
    result = _for_all(
        _primitive(corpus), lambda s: is_sturmian_language(s, length),
        f"complexity escaped n+1 up to length {length} for {{}}",
        f"factor counts are n+1 up to length {length} on the invertible corpus",
    )
    if result.ok and is_sturmian_language(KRIEGER_PAIR[0], 10):
        detail = "non-invertible example shows Sturmian complexity"
        return CheckResult(False, result.checked, detail)
    return result


def power_hull(corpus) -> CheckResult:
    """The squares and cubes of a primitive member have its factor sets up to length 12."""
    return _for_all(
        _primitive(corpus),
        lambda s: all(hulls_equal_upto(s, s.power(n), 12) for n in (2, 3)),
        "a power of {} changed the factor sets up to length 12",
        "powers 2 and 3 keep the factor sets up to length 12",
    )


def reciprocal_dual(corpus) -> CheckResult:
    """The dual of a primitive det +1 member is E o reciprocal o E, as substitutions."""
    e = invert.GEN_E
    return _for_all(
        _primitive(corpus, _det_one),
        lambda s: dualmap.dual_substitution(s) == e.compose(invert.reciprocal(s)).compose(e),
        "dual of {} is not E o reciprocal o E",
        "the dual equals E o reciprocal o E",
    )


def conjugacy_matrix(corpus) -> CheckResult:
    """Primitive members with equal matrices have a conjugating word."""
    first_with: dict[tuple, Substitution] = {}
    firsts = [(s, first_with.setdefault(s.matrix().rows(), s)) for s in _primitive(corpus)]
    pairs = [(sigma, other) for sigma, other in firsts if other is not sigma]
    return _for_all(
        pairs, lambda pair: invert.find_conjugator(*pair) is not None,
        "equal matrices but not conjugate: {0[0]} vs {0[1]}",
        "{} equal-matrix pairs all conjugate",
    )


def rigidity(corpus) -> CheckResult:
    """KRIEGER_PAIR has equal factor sets up to length 50 but no conjugate powers
    up to 6; for each primitive member whose images start with one letter x,
    conjugate_power_search finds x^-1 sigma x as (1, 1, x)."""
    sigma, rho = KRIEGER_PAIR
    if not hulls_equal_upto(sigma, rho, 50):
        return CheckResult(False, 0, "equal-hull example has distinct factor sets")
    if invert.conjugate_power_search(sigma, rho, 6) is not None:
        return CheckResult(False, 0, "equal-hull example unexpectedly conjugate up to powers")

    def holds(sub):
        x = sub.img_a[0]
        twisted = Substitution(sub.img_a[1:] + x, sub.img_b[1:] + x)
        return invert.conjugate_power_search(sub, twisted, 1) == (1, 1, x)

    return _for_all(
        _primitive(corpus, lambda s: s.img_a[0] == s.img_b[0]), holds,
        "inner twist of {} not found at powers (1,1)",
        "rigidity holds; {} inner twists recovered",
    )


def selfdual_forms(corpus) -> CheckResult:
    """Primitive det +1 members are selfdual by conjugacy exactly when by matrix shape."""
    return _for_all(
        _primitive(corpus, _det_one),
        lambda s: (invert.selfdual_class(s).kind != "not_selfdual")
        == (invert.matrix_selfdual_form(s.matrix()) is not None),
        "selfdual class and matrix shape disagree for {}",
        "conjugacy classification matches the matrix shapes",
    )


def dual_contravariance(corpus, count: int = 100) -> CheckResult:
    """E1*(sigma tau) = E1*(tau) E1*(sigma) on ``count`` random unit dual
    segments, for pairs of unimodular members drawn with a fixed seed."""
    rng = random.Random(73)
    pool = [s for s in corpus if s.is_unimodular()]
    for checked in range(1, count + 1):
        sigma, tau = rng.choice(pool), rng.choice(pool)
        x, y = rng.randint(-3, 3), rng.randint(-3, 3)
        s = dualmap.StrandSum([dualmap.Segment(x, y, rng.choice(("a*", "b*")))])
        lhs = dualmap.e1_star_apply(sigma.compose(tau), s)
        if lhs != dualmap.e1_star_apply(tau, dualmap.e1_star_apply(sigma, s)):
            detail = f"contravariance failed for {sigma} after {tau}"
            return CheckResult(False, checked, detail)
    return CheckResult(True, count, f"{count} random composite images agree")


def window_stability(corpus) -> CheckResult:
    """E1* of a primitive unimodular member maps the stepped-line segments
    with keys in [-10, 10] into the stepped line, none twice."""
    members = _primitive(corpus, Substitution.is_unimodular)
    for checked, sigma in enumerate(members, 1):
        spec = spectral(sigma.matrix())
        union = dualmap.StrandSum()
        for seg in dualmap.s_alpha_segments(spec, 10):
            image = dualmap.e1_star_apply(sigma, dualmap.StrandSum([seg]))
            if not all(dualmap.in_s_alpha(out_seg, spec) for out_seg in image):
                detail = f"image of {seg} under {sigma} leaves the stepped line"
                return CheckResult(False, checked, detail)
            union += image
        if any(v > 1 for v in union.values()):
            return CheckResult(False, checked, f"duplicate image segments for {sigma}")
    detail = "stepped line is invariant with duplicate-free images"
    return CheckResult(True, len(members), detail)


def strand_connectivity(corpus) -> CheckResult:
    """E1* of a primitive invertible member maps the stepped-line pieces of
    lengths 2 to 6, starting every 3 keys in [-10, 10], onto strands."""

    def holds(sigma):
        segs = dualmap.s_alpha_segments(spectral(sigma.matrix()), 10)
        pieces = [segs[i : i + n] for n in range(2, 7) for i in range(0, len(segs) - n, 3)]
        images = (dualmap.e1_star_apply(sigma, dualmap.StrandSum(p)) for p in pieces)
        return all(dualmap.sort_along(image) is not None for image in images)

    return _for_all(
        _primitive(corpus, invert.is_invertible), holds,
        "disconnected image of a substrand under {}", "finite substrands map onto strands",
    )


def dual_frequency(corpus) -> CheckResult:
    """(alpha' - 1)/(2 alpha' - 1) is the frequency of the transposed matrix,
    and equals alpha exactly when 2 alpha alpha' = alpha + alpha' - 1."""

    def holds(sigma):
        spec = spectral(sigma.matrix())
        alpha, alpha_conj = spec.alpha, spec.alpha_conj
        star = dual_frequency_value(alpha)
        identity = alpha * alpha_conj * 2 == alpha + alpha_conj - 1
        transposed = spectral(sigma.matrix().transpose()).alpha
        return star == transposed and identity == (alpha == star)

    return _for_all(
        _primitive(corpus, _det_one), holds,
        "dual frequency formula disagrees for {}",
        "formula matches the transposed spectral data",
    )


def palindrome(corpus) -> CheckResult:
    """A frequency's expansion is palindromic exactly when it is selfdual."""

    def holds(sigma):
        alpha = spectral(sigma.matrix()).alpha
        selfdual = alpha == dual_frequency_value(alpha)
        return is_selfdual_frequency(cf_expand(alpha)) == selfdual

    return _for_all(
        _primitive(corpus, _det_one), holds,
        "palindrome test disagrees for {}",
        "palindromic expansions match selfdual frequencies",
    )


def cf_dual(corpus, min_distinct: int = 0) -> CheckResult:
    """The rewritten expansion of each distinct frequency has the dual
    frequency as its value; fails below ``min_distinct`` frequencies."""
    alphas = dict.fromkeys(spectral(s.matrix()).alpha for s in _primitive(corpus, _det_one))
    result = _for_all(
        list(alphas),
        lambda a: cf_value(cf_dual_transform(cf_expand(a))) == dual_frequency_value(a),
        "expansion transform wrong for the frequency {}",
        "{} expansions transformed correctly",
    )
    if result.ok and result.checked < min_distinct:
        detail = f"only {result.checked} distinct frequencies available"
        return CheckResult(False, result.checked, detail)
    return result


def cut_project(corpus) -> CheckResult:
    """The prefix letter counts of sigma^k(x) in [0, 30] equal the model set (det +1)."""
    return _for_all(
        _primitive(corpus, _det_one), lambda s: geom.cut_project_verify(s, (0, 30)),
        "prefix letter counts in [0, 30] differ from the model set for {}",
        "prefix letter counts of sigma^k(x) in [0, 30] equal the model set",
    )
