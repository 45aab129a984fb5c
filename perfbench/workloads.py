"""The three workloads: their inputs, one operation each, and its checks.

Each workload builds a list of inputs from a seeded ``random.Random``;
the library sees only those inputs.  A round is ``round_size``
consecutive inputs (all of them when ``round_size`` is None), and a run
attempts whole rounds.  ``run`` is the timed operation; ``extract`` turns
its result into plain values outside the timed phase, and ``check``
tests them with ``oracle``, which shares no code with the library.
"""

from __future__ import annotations

import json

# the physical range of the model sets, as in ``sturmdual verify cut-project``
PHYS_RANGE = (0, 30)
COMPLEXITY_LENGTH = 30
LANGUAGE_LENGTH = 20


def corpus(lib, max_len: int) -> list[tuple[tuple[str, ...], object]]:
    """Distinct generator products of length 1..max_len, as (names, substitution)."""
    return [(names, s) for names, s in lib.invert.generator_products(max_len) if names]


class Workload:
    name = ""
    round_size: int | None = None
    samples = 0  # operations per run that get the extra sampled check

    def samplable(self, item) -> bool:
        return False

    def control(self, oracle, lib) -> None:
        """A check of the run as a whole, outside any operation."""


class Language(Workload):
    """Factor languages: Sturmian complexity and reciprocal-versus-dual hulls.

    One operation is ``complexity_profile(s, 30)`` for a primitive corpus
    member, or, for a det +1 member, the comparison of the dual's factor
    sets at length 20 with those of the reciprocal or its letter swap.
    """

    name = "language"

    def __init__(self, corpus_len: int = 8, round_size: int = 16, samples: int = 4):
        self.corpus_len = corpus_len
        self.round_size = round_size
        self.samples = samples

    def build(self, lib, rng) -> list:
        members = [s for _, s in corpus(lib, self.corpus_len) if s.is_primitive()]
        items = [("profile", s) for s in members] + [("compare", s) for s in members if s.det() == 1]
        rng.shuffle(items)
        return items

    def run(self, lib, span, item):
        kind, s = item
        if kind == "profile":
            return lib.subst.complexity_profile(s, COMPLEXITY_LENGTH)
        bar = lib.invert.reciprocal(s)
        dual = lib.dualmap.dual_substitution(s)
        swapped = lib.invert.GEN_E.compose(bar).compose(lib.invert.GEN_E)
        return lib.subst.hulls_equal_upto(dual, bar, LANGUAGE_LENGTH) or lib.subst.hulls_equal_upto(
            dual, swapped, LANGUAGE_LENGTH
        )

    def samplable(self, item) -> bool:
        """Sampled profile operations get a factor-set comparison."""
        return item[0] == "profile"

    def extract(self, oracle, lib, item, raw, sampled: bool) -> dict:
        kind, s = item
        factors = lib.subst.factor_set(s, COMPLEXITY_LENGTH) if sampled else None
        return {"kind": kind, "images": (s.img_a, s.img_b), "result": raw, "factors": factors}

    @staticmethod
    def check(oracle, plain: dict) -> None:
        if plain["kind"] == "compare":
            oracle.require(plain["result"] is True, "dual and reciprocal factor sets differ")
            return
        oracle.check_profile(plain["result"], COMPLEXITY_LENGTH)
        if plain["factors"] is not None:
            oracle.check_factor_set(*plain["images"], COMPLEXITY_LENGTH, plain["factors"])

    def control(self, oracle, lib) -> None:
        """Negative control: the non-invertible Krieger example is not Sturmian."""
        profile = lib.subst.complexity_profile(lib.cli.KRIEGER_PAIR[0], 10)
        oracle.require(profile != [k + 1 for k in range(1, 11)], "KRIEGER_PAIR[0] reads as Sturmian")


class Geometry(Workload):
    """Windows, cut-and-project sets, star-duals and the stepped line.

    One operation, for a primitive det +1 corpus member: its window
    decomposition, the model set over [0, 30] with that window, the
    covering check, the star-dual tile-substitution, and the adjoint
    images of the stepped-line segments with traversal key in [-10, 10].
    """

    name = "geometry"

    def __init__(self, corpus_len: int = 8, round_size: int = 4):
        self.corpus_len = corpus_len
        self.round_size = round_size

    def build(self, lib, rng) -> list:
        items = [s for _, s in corpus(lib, self.corpus_len) if s.is_primitive() and s.det() == 1]
        rng.shuffle(items)
        return items

    def run(self, lib, span, s):
        geom, dualmap = lib.geom, lib.dualmap
        rd = geom.rauzy_decomposition(s)
        points = geom.cut_project_points(geom.lattice_for(s), rd.window(), PHYS_RANGE)
        covering = lib.cli.verify_cut_project_covering(s, PHYS_RANGE)
        star = geom.star_dual(geom.tile_subst_from(s))
        segments = dualmap.s_alpha_segments(lib.quadfield.spectral(s.matrix()), 10)
        images = [dualmap.e1_star_apply(s, dualmap.StrandSum([seg])) for seg in segments]
        return rd, points, covering, star, images

    def extract(self, oracle, lib, s, raw, sampled: bool) -> dict:
        parse_printed = oracle.parse_printed
        rd, points, covering, star, images = raw
        return {
            "matrix": oracle.letter_matrix(s.img_a, s.img_b),
            "r_a": tuple(parse_printed(str(x)) for x in rd.r_a),
            "r_b": tuple(parse_printed(str(x)) for x in rd.r_b),
            "range": PHYS_RANGE,
            "points": [parse_printed(str(p)) for p in points],
            "covering": covering,
            "star_cards": tuple(tuple(len(cell) for cell in row) for row in star.digits.entries),
            "star_lengths": tuple(parse_printed(str(x)) for x in star.lengths),
            "images": [(seg.x, seg.y, seg.kind, mult) for image in images for seg, mult in image.items()],
        }

    @staticmethod
    def check(oracle, plain: dict) -> None:
        oracle.check_geometry(plain)


class Classify(Workload):
    """The arithmetic classification behind ``sturmdual enumerate --json``.

    One operation is ``cli.build_report`` and its JSON line; for primitive
    det +1 inputs also the dual-frequency rewrite of the expansion of alpha
    and the palindrome test.  The inputs are the corpus up to
    ``corpus_len`` and ``random_words`` seeded generator words of length
    ``word_len`` with det +1 whose two images total ``image_band``
    letters, long enough that free-group reduction in the inverse shows.
    """

    name = "classify"

    def __init__(self, corpus_len: int = 6, random_words: int = 64, word_len: int = 28, image_band=(600, 900)):
        self.corpus_len = corpus_len
        self.random_words = random_words
        self.word_len = word_len
        self.image_band = image_band

    def build(self, lib, rng) -> list:
        items = corpus(lib, self.corpus_len)
        seen = {(s.img_a, s.img_b) for _, s in items}
        lo, hi = self.image_band
        matrices = {name: g.matrix() for name, g in lib.invert.GENERATORS.items()}
        added = attempts = 0
        while added < self.random_words:
            attempts += 1
            if attempts > 1000 * self.random_words:
                raise RuntimeError("too few random generator words fall in the image band")
            names = tuple(rng.choice(lib.invert.GENERATOR_ORDER) for _ in range(self.word_len))
            # det and image lengths come from the letter-count matrix, so only kept words are composed
            m = lib.subst.MAT_IDENTITY
            for name in names:
                m = m.mul(matrices[name])
            if m.det() != 1 or not lo <= m.m11 + m.m12 + m.m21 + m.m22 <= hi:
                continue
            s = lib.invert.compose_generators(names)
            if (s.img_a, s.img_b) not in seen:
                seen.add((s.img_a, s.img_b))
                items.append((names, s))
                added += 1
        rng.shuffle(items)
        return items

    def run(self, lib, span, item):
        names, s = item
        report = lib.cli.build_report(s)
        line = span("cli.report_json", _report_line, lib, report, names)
        if not (report.primitive and report.det == 1):
            return line, None, None
        qf = lib.quadfield
        expansion = qf.cf_expand(qf.spectral(s.matrix()).alpha)
        return line, qf.cf_dual_transform(expansion), qf.is_selfdual_frequency(expansion)

    def extract(self, oracle, lib, item, raw, sampled: bool) -> dict:
        _, s = item
        line, transformed, palindromic = raw
        if transformed is not None:
            transformed = oracle.canonical_cf(*oracle.parse_cf(str(transformed)))
        return {"images": (s.img_a, s.img_b), "line": line, "transformed": transformed, "palindromic": palindromic}

    @staticmethod
    def check(oracle, plain: dict) -> None:
        oracle.check_report(*plain["images"], plain["line"], plain["transformed"], plain["palindromic"])


def _report_line(lib, report, names) -> str:
    d = report.to_json_dict()
    d["generators"] = lib.invert.format_decomposition(list(names))
    return json.dumps(d)


WORKLOADS = {w.name: w for w in (Language, Geometry, Classify)}
