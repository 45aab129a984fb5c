"""Exact-arithmetic toolkit for two-letter substitutions and their duals."""

from .errors import (
    CoveringError,
    DeterminantMinusOneError,
    NonIntervalWindowError,
    NotInvertibleError,
    ParseError,
    SturmdualError,
)
from .quadfield import (
    CF,
    Quad,
    SpectralData,
    cf_dual_transform,
    cf_expand,
    cf_value,
    dual_frequency_value,
    format_cf,
    format_quad,
    is_selfdual_frequency,
    is_sturm_number,
    parse_cf,
    parse_quad,
    spectral,
    sqrt_int,
)
from .subst import (
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
from .invert import (
    GEN_E,
    GEN_L,
    GEN_LT,
    SelfdualClass,
    compose_generators,
    conjugate_power_search,
    decompose,
    find_conjugator,
    generator_products,
    inverse,
    is_invertible,
    matrix_selfdual_form,
    reciprocal,
    selfdual_class,
    theta_substitution,
)
from .dualmap import (
    Segment,
    StrandSum,
    dual_substitution,
    e1_apply,
    e1_star_apply,
    in_s_alpha,
    s_alpha_segments,
    sort_along,
)
from .geom import (
    DigitMatrix,
    RauzyDecomposition,
    TileSubst,
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

__version__ = "0.1.0"
