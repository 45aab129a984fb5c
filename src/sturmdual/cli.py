"""Command-line front end: analysis pipelines, enumeration, property
verification suites, JSON and SVG output."""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, dataclass
from time import perf_counter

from . import checks, dualmap, geom, invert, words
# KRIEGER_PAIR and verify_cut_project_covering stay importable from here
from .checks import KRIEGER_PAIR, verify_cut_project_covering  # noqa: F401
from .errors import ParseError, SturmdualError
from .quadfield import (
    Quad,
    cf_dual_transform,
    cf_expand,
    dual_frequency_value,
    format_cf,
    format_quad,
    is_selfdual_frequency,
    parse_cf,
    parse_quad,
    spectral,
)
from .subst import Mat2, Substitution, parse_substitution

SCHEMA_VERSION = 1
# cap on the generator word length of enumerate and verify: the corpus
# grows about 2.1x per length (6974 substitutions up to length 10)
MAX_GENERATOR_LEN = 10
# caps on the tiles and strand segments of all levels that tiling and
# render build; both grow by the inflation factor per level
MAX_PATCH_TILES = 50000
MAX_STRAND_SEGMENTS = 200000
# cap on the width of a cutproject range: the lattice points tested grow
# with its square
MAX_CUTPROJECT_WIDTH = 200

def _exact(x: Quad) -> dict:
    return {"exact": format_quad(x), "approx": round(float(x), 12)}


@dataclass
class AnalysisReport:
    """Aggregated exact analysis of one substitution."""

    substitution: str
    matrix: list
    det: int
    primitive: bool
    invertible: bool
    decomposition: str | None = None
    lam: dict | None = None
    alpha: dict | None = None
    alpha_conj: dict | None = None
    alpha_star: dict | None = None
    cf_alpha: str | None = None
    selfdual_class: str | None = None
    witness: str | None = None
    note: str | None = None

    def to_json_dict(self) -> dict:
        d = asdict(self)
        d["lambda"] = d.pop("lam")
        return {"schema": SCHEMA_VERSION, **d}

    @classmethod
    def from_json_dict(cls, d: dict) -> "AnalysisReport":
        d = dict(d)
        if d.pop("schema", SCHEMA_VERSION) != SCHEMA_VERSION:
            raise ParseError("unknown report schema version")
        if "lambda" in d:
            d["lam"] = d.pop("lambda")
        return cls(**d)


def build_report(sigma: Substitution) -> AnalysisReport:
    m = sigma.matrix()
    decomposition = invert.decompose(sigma)
    report = AnalysisReport(
        substitution=str(sigma),
        matrix=[list(m.rows()[0]), list(m.rows()[1])],
        det=m.det(),
        primitive=sigma.is_primitive(),
        invertible=decomposition is not None,
        decomposition=invert.format_decomposition(decomposition)
        if decomposition is not None
        else None,
    )
    if report.primitive and m.det() in (1, -1):
        spec = spectral(m)
        report.lam = _exact(spec.lam)
        report.alpha = _exact(spec.alpha)
        report.alpha_conj = _exact(spec.alpha_conj)
        report.cf_alpha = format_cf(cf_expand(spec.alpha))
        if m.det() == 1 and report.invertible:
            report.alpha_star = _exact(dual_frequency_value(spec.alpha))
            sd = invert.selfdual_class(sigma)
            report.selfdual_class = sd.kind
            report.witness = (
                words.format_word(sd.witness) if sd.witness is not None else None
            )
        elif m.det() == -1:
            report.note = "determinant -1: analyze the square (--square)"
    return report


def _print_report(report: AnalysisReport, as_json: bool, out):
    if as_json:
        out.write(json.dumps(report.to_json_dict(), indent=2) + "\n")
        return
    for key, value in asdict(report).items():
        if value is None:
            continue
        if isinstance(value, dict):
            value = f"{value['exact']}  (~{value['approx']})"
        out.write(f"{'lambda' if key == 'lam' else key:<15} {value}\n")


# ---------------------------------------------------------------------------
# subcommand implementations
# ---------------------------------------------------------------------------


def _load_subst(text: str, square: bool = False) -> Substitution:
    sigma = parse_substitution(text)
    return sigma.power(2) if square else sigma


def _check_levels(m: Mat2, option: str, levels: int, cap: int, pieces: str) -> None:
    """Refuse levels 0..levels grown from one letter a when they hold more
    than cap pieces in all: level k holds the first column sum of m^k."""
    if levels < 0:
        raise SturmdualError(f"{option} {levels} is negative")
    vec, total = (1, 0), 0
    for _ in range(levels + 1):
        total += vec[0] + vec[1]
        if total > cap:
            raise SturmdualError(f"{option} {levels} builds more than the cap of {cap} {pieces}")
        vec = m.apply(vec)


def cmd_analyze(args, out) -> int:
    sigma = _load_subst(args.spec, args.square)
    _print_report(build_report(sigma), args.json, out)
    return 0


def cmd_dual(args, out) -> int:
    sigma = _load_subst(args.spec, args.square)
    out.write(str(dualmap.dual_substitution(sigma)) + "\n")
    return 0


def cmd_reciprocal(args, out) -> int:
    sigma = _load_subst(args.spec, args.square)
    out.write(str(invert.reciprocal(sigma)) + "\n")
    return 0


def cmd_inverse(args, out) -> int:
    sigma = _load_subst(args.spec, args.square)
    endo = invert.inverse(sigma)
    out.write(str(endo) + "\n")
    return 0


def cmd_decompose(args, out) -> int:
    sigma = _load_subst(args.spec, args.square)
    decomposition = invert.decompose(sigma)
    if decomposition is None:
        raise SturmdualError(f"{sigma} is not invertible")
    out.write(invert.format_decomposition(decomposition) + "\n")
    return 0


def cmd_conjugate(args, out) -> int:
    sigma = parse_substitution(args.spec)
    rho = parse_substitution(args.other)
    if sigma.matrix() != rho.matrix():
        out.write("none\n")
        return 0
    witness = invert.find_conjugator(sigma, rho)
    out.write(words.format_word(witness) + "\n" if witness is not None else "none\n")
    return 0


def cmd_selfdual(args, out) -> int:
    sigma = _load_subst(args.spec, args.square)
    sd = invert.selfdual_class(sigma)
    if args.json:
        out.write(json.dumps(sd.to_json()) + "\n")
    else:
        line = sd.kind
        if sd.witness is not None:
            line += f" witness {words.format_word(sd.witness)}"
        out.write(line + "\n")
    return 0


def cmd_rauzy(args, out) -> int:
    sigma = _load_subst(args.spec, args.square)
    rd = geom.rauzy_decomposition(sigma)
    payload = {
        "R_a": {"lo": format_quad(rd.r_a[0]), "hi": format_quad(rd.r_a[1])},
        "R_b": {"lo": format_quad(rd.r_b[0]), "hi": format_quad(rd.r_b[1])},
    }
    if args.json:
        out.write(json.dumps(payload, indent=2) + "\n")
    else:
        out.write(
            f"R_a = [{payload['R_a']['lo']}, {payload['R_a']['hi']}]  "
            f"(equal up to certification of the set equation)\n"
            f"R_b = [{payload['R_b']['lo']}, {payload['R_b']['hi']}]\n"
        )
    return 0


def cmd_tiling(args, out) -> int:
    sigma = _load_subst(args.spec, args.square)
    t = geom.tile_subst_from(sigma)
    _check_levels(sigma.matrix(), "--depth", args.depth, MAX_PATCH_TILES, "tiles")
    patch = geom.iterate_patch(t, "a", args.depth)
    items = []
    for letter, left in patch:
        right = left + t.lengths[0 if letter == "a" else 1]
        items.append(
            {"type": letter, "left": format_quad(left), "right": format_quad(right)}
        )
    if args.json:
        out.write(json.dumps(items, indent=2) + "\n")
    else:
        for item in items:
            out.write(f"{item['type']}  [{item['left']}, {item['right']}]\n")
    return 0


def cmd_stardual(args, out) -> int:
    sigma = _load_subst(args.spec, args.square)
    t = geom.star_dual(geom.tile_subst_from(sigma))
    payload = {
        "inflation": format_quad(t.inflation),
        "lengths": [format_quad(q) for q in t.lengths],
        "offsets": [format_quad(q) for q in t.offsets],
        "digits": [
            [sorted(format_quad(d) for d in cell) for cell in row]
            for row in t.digits.entries
        ],
    }
    if args.json:
        out.write(json.dumps(payload, indent=2) + "\n")
    else:
        out.write(f"inflation {payload['inflation']}\n")
        out.write(f"lengths   {payload['lengths'][0]} , {payload['lengths'][1]}\n")
        out.write(f"digits    {t.digits}\n")
    return 0


def cmd_cutproject(args, out) -> int:
    sigma = _load_subst(args.spec, args.square)
    lo, hi = parse_quad(args.range[0]), parse_quad(args.range[1])
    if hi - lo > MAX_CUTPROJECT_WIDTH:
        raise SturmdualError(f"--range width {hi - lo} exceeds the cap {MAX_CUTPROJECT_WIDTH}")
    points = geom.cut_project_points(
        geom.lattice_for(sigma),
        geom.rauzy_decomposition(sigma).window(),
        (lo, hi),
    )
    if args.json:
        out.write(json.dumps([format_quad(p) for p in points]) + "\n")
    else:
        for p in points:
            out.write(f"{format_quad(p)}  (~{float(p):.6f})\n")
    return 0


def cmd_sturmian(args, out) -> int:
    alpha = parse_quad(args.alpha)
    rho = parse_quad(args.rho) if args.rho is not None else alpha
    convention = "upper" if args.upper else "lower"
    out.write(geom.sturmian_word(alpha, rho, convention, args.length) + "\n")
    return 0


def cmd_cf(args, out) -> int:
    if args.value.strip().startswith("["):
        c = parse_cf(args.value)
    else:
        c = cf_expand(parse_quad(args.value))
    if args.dual:
        c = cf_dual_transform(c)
    out.write(format_cf(c) + "\n")
    if args.test_selfdual:
        out.write(f"selfdual_frequency {is_selfdual_frequency(c)}\n")
    return 0


def cmd_enumerate(args, out) -> int:
    if args.max_len > MAX_GENERATOR_LEN:
        raise SturmdualError(f"generator length {args.max_len} exceeds the cap {MAX_GENERATOR_LEN}")
    count = 0
    for names, sigma in invert.generator_products(args.max_len):
        if not names:
            continue
        if args.primitive and not sigma.is_primitive():
            continue
        if args.det is not None and sigma.det() != args.det:
            continue
        if args.selfdual:
            if not (sigma.is_primitive() and sigma.det() == 1):
                continue
            if invert.selfdual_class(sigma).kind == "not_selfdual":
                continue
        count += 1
        if args.json:
            report = build_report(sigma)
            d = report.to_json_dict()
            d["generators"] = invert.format_decomposition(list(names))
            out.write(json.dumps(d) + "\n")
        else:
            out.write(f"{'.'.join(names):<24} {sigma}\n")
    if not args.json:
        out.write(f"# {count} substitutions\n")
    return 0


# ---------------------------------------------------------------------------
# verification suites
# ---------------------------------------------------------------------------


def _corpus(max_len: int):
    return [s for names, s in invert.generator_products(max_len) if names]


# suite name -> the check on the generator corpus, with its cap on --max-len
VERIFY_SUITES = {
    "complexity": lambda a: checks.complexity(_corpus(a.max_len), a.length or 30),
    "power-hull": lambda a: checks.power_hull(_corpus(min(a.max_len, 4))),
    "conjugacy-matrix": lambda a: checks.conjugacy_matrix(_corpus(a.max_len)),
    "rigidity": lambda a: checks.rigidity(_corpus(min(a.max_len, 5))),
    "dual-contravariance": lambda a: checks.dual_contravariance(_corpus(5), count=a.count),
    "window-stability": lambda a: checks.window_stability(_corpus(min(a.max_len, 5))),
    "strand-connectivity": lambda a: checks.strand_connectivity(_corpus(min(a.max_len, 5))),
    "dual-frequency": lambda a: checks.dual_frequency(_corpus(a.max_len)),
    "reciprocal-dual": lambda a: checks.reciprocal_dual(
        _corpus(min(a.max_len, 6)), a.length or 20
    ),
    "selfdual-forms": lambda a: checks.selfdual_forms(_corpus(a.max_len)),
    "palindrome": lambda a: checks.palindrome(_corpus(a.max_len)),
    "cf-dual": lambda a: checks.cf_dual(_corpus(a.max_len), 30 if a.max_len >= 8 else 0),
    "star-relation": lambda a: checks.star_relation(_corpus(min(a.max_len, 6))),
    "cut-project": lambda a: checks.cut_project(_corpus(min(a.max_len, 5))),
}


def _run_suite(suite: str, args, out) -> bool:
    start = perf_counter()
    result = VERIFY_SUITES[suite](args)
    elapsed = perf_counter() - start
    if result.checked == 0:
        result = checks.CheckResult(False, 0, f"{suite} checked nothing at --max-len {args.max_len}")
    out.write(
        f"{suite}: {'PASS' if result.ok else 'FAIL'} - {result.detail} "
        f"[{result.checked} checked in {elapsed:.1f} s]\n"
    )
    out.flush()
    return result.ok


def cmd_verify(args, out) -> int:
    if args.suite != "all" and args.suite not in VERIFY_SUITES:
        raise SturmdualError(
            f"unknown suite {args.suite!r}; choose all or one of "
            f"{', '.join(sorted(VERIFY_SUITES))}"
        )
    if not 1 <= args.max_len <= MAX_GENERATOR_LEN:
        raise SturmdualError(
            f"--max-len {args.max_len} is outside 1..{MAX_GENERATOR_LEN}"
        )
    for option, value in (("--count", args.count), ("--length", args.length)):
        if value is not None and value < 1:
            raise SturmdualError(f"{option} {value} is not positive")
    suites = list(VERIFY_SUITES) if args.suite == "all" else [args.suite]
    results = [_run_suite(suite, args, out) for suite in suites]
    return 0 if all(results) else 1


# ---------------------------------------------------------------------------
# SVG rendering
# ---------------------------------------------------------------------------

_COLORS = {"a": "#4a78b8", "b": "#d98032"}


def _svg_document(width: float, height: float, body: list[str]) -> str:
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.1f}" '
        f'height="{height:.1f}" viewBox="0 0 {width:.1f} {height:.1f}">\n'
        + "\n".join(body)
        + "\n</svg>\n"
    )


def _polyline_svg(points, scale: float) -> str:
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    minx, maxx = min(xs), max(xs)
    miny, maxy = min(ys), max(ys)
    pad = 1.0
    width = (maxx - minx + 2 * pad) * scale
    height = (maxy - miny + 2 * pad) * scale
    coord = " ".join(
        f"{(x - minx + pad) * scale:.2f},{(maxy - y + pad) * scale:.2f}"
        for x, y in points
    )
    body = [
        f'<polyline points="{coord}" fill="none" stroke="#333333" stroke-width="2"/>'
    ]
    return _svg_document(width, height, body)


def render_svg(sigma: Substitution, target: str, iterations: int, scale: float) -> str:
    """Deterministic SVG for strands, dual strands, tilings and windows."""
    if iterations < 0:
        raise SturmdualError("iterations must be >= 0")
    if scale <= 0:
        raise SturmdualError("scale must be positive")
    if target in ("strand", "dual_strand"):
        dual = target == "dual_strand"
        m = sigma.matrix().transpose() if dual else sigma.matrix()
        _check_levels(m, "--iterations", iterations, MAX_STRAND_SEGMENTS, "segments")
        s = dualmap.StrandSum.single(0, 0, "a*" if dual else "a")
        for _ in range(iterations):
            s = (dualmap.e1_star_apply if dual else dualmap.e1_apply)(sigma, s)
        chain = dualmap.sort_along(s)
        pts = [chain[0].traversal_start()] + [seg.traversal_end() for seg in chain]
        return _polyline_svg(pts, scale)
    if target == "tiling":
        t = geom.tile_subst_from(sigma)
        _check_levels(sigma.matrix(), "--iterations", iterations, MAX_PATCH_TILES, "tiles")
        rows = []
        for level in range(iterations + 1):
            rows.append(geom.iterate_patch(t, "a", level))
        width = (float(t.inflation) ** iterations + 2) * scale
        height = (len(rows) * 1.5 + 0.5) * scale
        body = []
        for ridx, row in enumerate(rows):
            y = (0.5 + 1.5 * ridx) * scale
            for letter, left in row:
                length = float(t.lengths[0 if letter == "a" else 1])
                body.append(
                    f'<rect x="{(float(left) + 1) * scale:.2f}" y="{y:.2f}" '
                    f'width="{length * scale:.2f}" height="{scale:.2f}" '
                    f'fill="{_COLORS[letter]}" stroke="#222222" stroke-width="0.5"/>'
                )
        return _svg_document(width, height, body)
    if target == "rauzy":
        rd = geom.rauzy_decomposition(sigma)
        lo = float(rd.window()[0])
        hi = float(rd.window()[1])
        span = hi - lo
        width = (span + 2) * scale
        height = 3 * scale
        body = []
        for idx, (name, interval) in enumerate((("a", rd.r_a), ("b", rd.r_b))):
            x0 = (float(interval[0]) - lo + 1) * scale
            w = (float(interval[1]) - float(interval[0])) * scale
            body.append(
                f'<rect x="{x0:.2f}" y="{(0.5 + idx) * scale:.2f}" width="{w:.2f}" '
                f'height="{scale:.2f}" fill="{_COLORS[name]}" fill-opacity="0.6" '
                f'stroke="#222222" stroke-width="0.5"/>'
            )
        return _svg_document(width, height, body)
    raise SturmdualError(f"unknown render target {target!r}")


def cmd_render(args, out) -> int:
    sigma = _load_subst(args.spec, args.square)
    doc = render_svg(sigma, args.target, args.iterations, args.scale)
    if args.svg:
        with open(args.svg, "w", encoding="utf-8") as fh:
            fh.write(doc)
        out.write(f"wrote {args.svg}\n")
    else:
        out.write(doc)
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _add_spec(p, square=True):
    p.add_argument("spec", help="substitution, e.g. 'a->ab,b->a'")
    if square:
        p.add_argument(
            "--square", action="store_true", help="analyze the square of the input"
        )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sturmdual",
        description="Exact analysis of two-letter substitutions and their duals.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="full exact report")
    _add_spec(p)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("dual", help="dual substitution")
    _add_spec(p)
    p.set_defaults(func=cmd_dual)

    p = sub.add_parser("reciprocal", help="reciprocal substitution")
    _add_spec(p)
    p.set_defaults(func=cmd_reciprocal)

    p = sub.add_parser("inverse", help="free-group inverse")
    _add_spec(p)
    p.set_defaults(func=cmd_inverse)

    p = sub.add_parser("decompose", help="generator decomposition")
    _add_spec(p)
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("conjugate", help="conjugating word between two substitutions")
    p.add_argument("spec")
    p.add_argument("other")
    p.set_defaults(func=cmd_conjugate)

    p = sub.add_parser("selfdual", help="selfduality class and witness")
    _add_spec(p)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_selfdual)

    p = sub.add_parser("rauzy", help="window decomposition")
    _add_spec(p)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_rauzy)

    p = sub.add_parser("tiling", help="subdivision patch")
    _add_spec(p)
    p.add_argument("--json", action="store_true")
    p.add_argument("--depth", type=int, default=3)
    p.set_defaults(func=cmd_tiling)

    p = sub.add_parser("stardual", help="star-dual tile-substitution")
    _add_spec(p)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_stardual)

    p = sub.add_parser("cutproject", help="model-set points in a range")
    _add_spec(p)
    p.add_argument("--json", action="store_true")
    p.add_argument("--range", nargs=2, default=("0", "20"), metavar=("LO", "HI"))
    p.set_defaults(func=cmd_cutproject)

    p = sub.add_parser("sturmian", help="rotation word")
    p.add_argument("alpha", help="slope, e.g. '3/2-1/2*sqrt(5)'")
    p.add_argument("--rho", default=None, help="initial point (default: alpha)")
    p.add_argument("--upper", action="store_true")
    p.add_argument("-n", "--length", type=int, default=20)
    p.set_defaults(func=cmd_sturmian)

    p = sub.add_parser("cf", help="continued fraction expansion")
    p.add_argument("value", help="quadratic value or a [a0; ...] literal")
    p.add_argument("--dual", action="store_true", help="apply the dual transform")
    p.add_argument("--test-selfdual", dest="test_selfdual", action="store_true")
    p.set_defaults(func=cmd_cf)

    p = sub.add_parser("enumerate", help="enumerate generator products")
    p.add_argument("--max-len", type=int, default=4)
    p.add_argument("--primitive", action="store_true")
    p.add_argument("--det", type=int, choices=(1, -1), default=None)
    p.add_argument("--selfdual", action="store_true")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("verify", help="run a property verification suite")
    p.add_argument("suite", help="all, " + ", ".join(sorted(VERIFY_SUITES)))
    p.add_argument(
        "--max-len", type=int, default=8, help=f"1..{MAX_GENERATOR_LEN}"
    )
    p.add_argument("--count", type=int, default=100)
    p.add_argument(
        "--length", type=int, default=None, help="factor length (suite default)"
    )
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("render", help="SVG output")
    _add_spec(p)
    p.add_argument(
        "--target",
        choices=("strand", "dual_strand", "tiling", "rauzy"),
        default="tiling",
    )
    p.add_argument("--iterations", type=int, default=3)
    p.add_argument("--scale", type=float, default=24.0)
    p.add_argument("--svg", default=None, metavar="FILE")
    p.set_defaults(func=cmd_render)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, sys.stdout)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except SturmdualError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
