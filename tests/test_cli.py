import hashlib
import io
import json
import os
import re
import subprocess
import sys
import time

import pytest
import sympy
from hypothesis import event, given, settings, strategies as st
from sympy.ntheory.continued_fraction import continued_fraction_reduce

import sturmdual
from sturmdual import cli
from sturmdual import checks
from sturmdual.checks import KRIEGER_PAIR, CheckResult
from sturmdual.cli import (
    VERIFY_SUITES,
    build_parser,
    main,
    render_svg,
)
from sturmdual.errors import SturmdualError
from sturmdual.invert import GENERATOR_ORDER, GENERATORS
from sturmdual.quadfield import MAX_CF_QUOTIENTS, format_quad, parse_quad
from sturmdual.subst import IDENTITY, Mat2, Substitution, parse_substitution


def run_cli(*argv):
    import contextlib

    out = io.StringIO()
    err = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def test_analyze_report_fields():
    code, out, _ = run_cli("analyze", "a->aba,b->ab", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["schema"] == 1
    assert data["matrix"] == [[2, 1], [1, 1]]
    assert data["det"] == 1
    assert data["invertible"] is True
    assert data["decomposition"] == "L.E.L.E"
    assert data["selfdual_class"] == "mirror"
    assert data["witness"] == "a"
    assert data["cf_alpha"] == "[0; 2, (1)]"
    assert data["alpha"]["exact"] == "3/2-1/2*sqrt(5)"


def test_analyze_selfdual_direct_example():
    code, out, _ = run_cli("analyze", "a->abaab,b->ababaab", "--json")
    data = json.loads(out)
    assert data["selfdual_class"] == "direct"
    assert data["witness"] == "BAAB"


def test_analyze_krieger():
    code, out, _ = run_cli("analyze", "a->ab,b->baabbaabbaabba", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["invertible"] is False
    assert data["det"] == 0
    assert data["selfdual_class"] is None


def test_dual_reciprocal_inverse_commands():
    assert run_cli("dual", "a->aba,b->ab") == (0, "a->baa,b->ba\n", "")
    assert run_cli("reciprocal", "a->aba,b->ab") == (0, "a->ab,b->abb\n", "")
    assert run_cli("inverse", "a->aba,b->ab") == (0, "a->Ba,b->Abb\n", "")
    assert run_cli("decompose", "a->aba,b->ab") == (0, "L.E.L.E\n", "")


def test_square_flag():
    code, out, _ = run_cli("reciprocal", "a->ab,b->a", "--square")
    assert code == 0 and out == "a->ab,b->abb\n"


def test_conjugate_command():
    code, out, _ = run_cli("conjugate", "a->aba,b->ab", "a->baa,b->ba")
    assert (code, out) == (0, "a\n")
    code, out, _ = run_cli("conjugate", "a->aba,b->ab", "a->ab,b->abb")
    assert (code, out) == (0, "none\n")


def test_exit_codes():
    code, _, err = run_cli("analyze", "a->xy,b->a")
    assert code == 2 and "parse error" in err
    code, _, err = run_cli("reciprocal", "a->ab,b->a")
    assert code == 1 and "determinant" in err
    code, _, err = run_cli("decompose", "a->ab,b->baabbaabbaabba")
    assert code == 1


def test_cf_refuses_an_expansion_past_the_quotient_cap():
    # sqrt of the prime 99999999999973 has a period of 1211113 quotients
    code, out, err = run_cli("cf", "sqrt(99999999999973)")
    assert (code, out) == (1, "")
    assert "sqrt(99999999999973)" in err and f"{MAX_CF_QUOTIENTS} quotients" in err


def test_rauzy_and_tiling_commands():
    code, out, _ = run_cli("rauzy", "a->aba,b->ab", "--json")
    data = json.loads(out)
    assert data["R_a"] == {"lo": "-1", "hi": "-1/2+1/2*sqrt(5)"}
    assert data["R_b"] == {"lo": "-1/2+1/2*sqrt(5)", "hi": "1/2+1/2*sqrt(5)"}
    code, out, _ = run_cli("tiling", "a->aba,b->ab", "--depth", "1", "--json")
    tiles = json.loads(out)
    assert [t["type"] for t in tiles] == ["a", "b", "a"]
    assert tiles[0]["left"] == "0"


def test_stardual_command():
    code, out, _ = run_cli("stardual", "a->aba,b->ab", "--json")
    data = json.loads(out)
    assert data["digits"][0][0] == sorted(["0", "1/2-1/2*sqrt(5)"])
    assert data["digits"][1] == [["0"], ["1"]]
    # determinant -1 is refused by name, as rauzy and cutproject refuse it;
    # the square has determinant +1
    assert run_cli("stardual", "a->abaab,b->aba") == (
        1, "", "error: a->abaab,b->aba has determinant -1; take the star-dual of the square (--square)\n"
    )
    code, out, _ = run_cli("stardual", "a->abaab,b->aba", "--square")
    assert code == 0 and out.startswith("inflation 9+4*sqrt(5)\n")


def test_cutproject_and_sturmian_and_cf():
    code, out, _ = run_cli("cutproject", "a->aba,b->ab", "--range", "0", "5", "--json")
    points = json.loads(out)
    assert points[0] == "0" and len(points) >= 3
    code, out, _ = run_cli("sturmian", "3/2-1/2*sqrt(5)", "-n", "5")
    assert out == "abaab\n"
    code, out, _ = run_cli("cf", "3/2-1/2*sqrt(5)")
    assert out == "[0; 2, (1)]\n"
    code, out, _ = run_cli("cf", "[0; 2, (2)]", "--dual")
    assert out == "[0; 1, 1, (2)]\n"
    code, out, _ = run_cli("cf", "3/2-1/2*sqrt(5)", "--test-selfdual")
    assert "selfdual_frequency True" in out
    # purely periodic expansions (empty preperiod)
    assert run_cli("cf", "1+sqrt(2)") == (0, "[2; (2)]\n", "")
    assert run_cli("cf", "1/2+1/2*sqrt(5)") == (0, "[1; (1)]\n", "")


def test_values_may_start_with_a_minus_sign():
    code, out, _ = run_cli("cutproject", "a->aba,b->ab", "--range", "-7/2", "3", "--json")
    assert code == 0
    assert json.loads(out) == [
        "-1-sqrt(5)", "-3/2-1/2*sqrt(5)", "-1/2-1/2*sqrt(5)", "-1", "0", "1",
        "1/2+1/2*sqrt(5)", "3/2+1/2*sqrt(5)",
    ]
    code, out, _ = run_cli("sturmian", "1/2*sqrt(5)-1", "--rho", "-1/3")
    assert code == 0
    assert out == run_cli("sturmian", "1/2*sqrt(5)-1", "--rho=-1/3")[1]
    assert out != run_cli("sturmian", "1/2*sqrt(5)-1")[1]
    assert run_cli("cf", "-7/3") == (0, "[-3; 1, 2]\n", "")
    assert run_cli("cf", "-sqrt(5)") == (0, "[-3; 1, 3, (4)]\n", "")
    # an unknown option is still an argparse usage error (exit 2)
    with pytest.raises(SystemExit) as exc:
        run_cli("cf", "--bogus")
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ("cf", "1/0"),
        ("cf", "0/0"),
        ("cf", "1/0*sqrt(2)"),
        ("cutproject", "a->aba,b->ab", "--range", "0", "1/0"),
        ("sturmian", "1/2*sqrt(5)-1/2", "--rho", "1/0"),
        ("cf", "[1;2,(1/0)]"),
    ],
)
def test_zero_denominators_and_non_integer_quotients_are_parse_errors(argv):
    code, out, err = run_cli(*argv)
    assert (code, out) == (2, "")
    assert err.startswith("parse error:")
    assert "Traceback" not in err


def test_long_period_has_a_dual():
    # the discriminant of this period is too large to factor, so the dual
    # transform has to work over it unfactored
    period = list(range(1, 21))
    text = "[0; (" + ", ".join(map(str, period)) + ")]"
    dual_period = [1, *range(20, 1, -1)]
    printed = "[0; 1, (" + ", ".join(map(str, dual_period)) + ")]\n"
    assert run_cli("cf", text, "--dual") == (0, printed, "")
    assert run_cli("cf", text, "--dual", "--test-selfdual") == (0, printed + "selfdual_frequency False\n", "")
    # in sympy: the printed expansion has the value (alpha' - 1)/(2 alpha' - 1)
    alpha = continued_fraction_reduce([0, period])
    root = next(p for p in alpha.atoms(sympy.Pow) if p.exp == sympy.S.Half)
    conj = alpha.subs(root, -root)
    dual = continued_fraction_reduce([0, 1, dual_period])
    assert sympy.expand(sympy.radsimp((conj - 1) / (2 * conj - 1) - dual)) == 0


def _package_env():
    src = os.path.dirname(os.path.dirname(sturmdual.__file__))
    return dict(os.environ, PYTHONPATH=src)


def test_python_dash_m_runs_the_cli():
    proc = subprocess.run(
        [sys.executable, "-m", "sturmdual", "cf", "1+sqrt(2)"],
        env=_package_env(), capture_output=True, text=True, timeout=60,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[2; (2)]\n", "")


def test_cutproject_refuses_a_reversed_range():
    code, out, err = run_cli("cutproject", "a->aba,b->ab", "--range", "5", "1", "--json")
    assert (code, out) == (1, "")
    assert err == "error: --range 5 1 is reversed: its low end exceeds its high end\n"


def test_sturmian_names_the_field_rho_is_outside():
    code, out, err = run_cli("sturmian", "sqrt(2)-1", "--rho", "sqrt(3)")
    assert (code, out) == (1, "")
    assert err == "error: --rho sqrt(3) is not in Q(sqrt(2)), the field of alpha -1+sqrt(2)\n"
    assert run_cli("sturmian", "sqrt(2)-1", "--rho", "1/3", "-n", "3") == (0, "aba\n", "")


def test_cutproject_names_the_field_a_range_end_is_outside():
    code, out, err = run_cli("cutproject", "a->aba,b->ab", "--range", "0", "sqrt(3)")
    assert (code, out) == (1, "")
    assert err == "error: --range end sqrt(3) is not in Q(sqrt(5)), the field of a->aba,b->ab\n"


def test_cutproject_beyond_float_range_is_a_domain_error():
    lo, hi = str(10**400), str(10**400 + 5)
    code, _, err = run_cli("cutproject", "a->aba,b->ab", "--range", lo, hi)
    assert code == 1
    assert err.startswith("error:")
    assert "Traceback" not in err


def test_enumerate_deterministic_and_counts():
    first = run_cli("enumerate", "--max-len", "3")
    second = run_cli("enumerate", "--max-len", "3")
    assert first == second
    assert first[0] == 0
    assert first[1].strip().endswith("# 26 substitutions")
    # single generators are not primitive; the four mixed words are
    code, out, _ = run_cli("enumerate", "--max-len", "2", "--primitive")
    listed = [line for line in out.splitlines() if not line.startswith("#")]
    assert len(listed) == 4
    assert "# 4 substitutions" in out
    code, _, err = run_cli("enumerate", "--max-len", "11")
    assert (code, err) == (1, "error: --max-len 11 is outside 1..10\n")


@pytest.mark.parametrize("command", [("enumerate",), ("verify", "complexity")])
def test_max_len_outside_its_range_is_refused(command):
    # enumerate and verify share one range check and one message
    for value in ("-3", "0", "11"):
        assert run_cli(*command, "--max-len", value) == (
            1, "", f"error: --max-len {value} is outside 1..{cli.MAX_GENERATOR_LEN}\n"
        )


@pytest.mark.parametrize(
    "argv",
    [
        ("tiling", "a->aba,b->ab", "--depth", "30"),
        ("tiling", "a->a,b->ab", "--depth", "1000000000"),
        ("tiling", "a->aba,b->ab", "--depth", "-1"),
        ("render", "a->aba,b->ab", "--iterations", "25"),
        ("render", "a->b,b->a", "--target", "strand", "--iterations", "1000000000"),
        ("render", "a->aba,b->ab", "--target", "dual_strand", "--iterations", "25"),
        ("render", "a->aba,b->ab", "--target", "rauzy", "--iterations", "-1"),
        ("cutproject", "a->aba,b->ab", "--range", "0", "1000000000"),
        ("enumerate", "--max-len", "11"),
        # within each cap, but the corpus size times the squared length is not
        ("verify", "complexity", "--max-len", "10", "--length", "100"),
        ("verify", "all", "--max-len", "8", "--length", "69"),
        ("sturmian", "sqrt(2)-1", "-n", "0"),
        ("sturmian", "sqrt(2)-1", "-n", "-3"),
        ("sturmian", "sqrt(2)-1", "-n", str(cli.MAX_STURMIAN_LENGTH + 1)),
        ("sturmian", "sqrt(2)-1", "--rho", "1/" + "7" * 3000, "-n", "100000"),
        ("sturmian", "1/" + "7" * 3000 + "*sqrt(2)", "-n", "100000"),
    ]
    + [
        # a scale that is not finite and positive, or that overflows the
        # SVG size, would print nan or inf; --scale=-inf because a
        # dash-led word after a bare --scale reads as an option
        ("render", "a->aba,b->ab", "--target", target, f"--scale={scale}")
        for target in ("strand", "dual_strand", "tiling", "rauzy")
        for scale in ("nan", "inf", "-inf", "1e308")
    ]
    + [
        # one letter over the cap
        ("inverse", "a->a,b->" + "a" * (cli.MAX_SUBSTITUTION_LETTERS - 1) + "b"),
        ("conjugate", "a->ab,b->a", "a->b,b->" + "a" * cli.MAX_SUBSTITUTION_LETTERS),
        # 104 letters, but the square holds 100**2 + 2*100 + 5
        ("dual", "a->" + "a" * 100 + "b,b->ab", "--square"),
        # the transposed matrix has a zero row, so the dual strand's levels
        # are empty from level 1 on and never reach the segment cap
        ("render", "a->b,b->b", "--target", "dual_strand", "--iterations", str(10**18)),
    ],
)
def test_oversized_runs_are_refused_before_the_work(argv):
    start = time.perf_counter()
    code, out, err = run_cli(*argv)
    assert (code, out) == (1, "")
    assert err.startswith("error:") and "Traceback" not in err
    assert time.perf_counter() - start < 5


def test_sturmian_length_bounds(monkeypatch):
    assert run_cli("sturmian", "sqrt(2)-1", "-n", "1") == (0, "a\n", "")
    # a literal that prints at the cap is read, one character more is not
    at_cap = "1/" + "7" * (cli.MAX_STURMIAN_LITERAL - 2)
    assert run_cli("sturmian", "sqrt(2)-1", "--rho", at_cap, "-n", "3") == (0, "aab\n", "")
    code, out, err = run_cli("sturmian", "sqrt(2)-1", "--rho", at_cap + "7", "-n", "3")
    assert (code, out) == (1, "") and f"cap of {cli.MAX_STURMIAN_LITERAL}" in err

    # past the cap, refused before any letter is built
    def build_letters(*args):
        raise AssertionError("a letter was built")

    monkeypatch.setattr(cli.geom, "sturmian_word", build_letters)
    code, out, err = run_cli("sturmian", "sqrt(2)-1", "-n", str(cli.MAX_STURMIAN_LENGTH + 1))
    assert (code, out) == (1, "") and f"1..{cli.MAX_STURMIAN_LENGTH}" in err


def test_square_is_refused_before_it_is_built(monkeypatch):
    def build_square(*args):
        raise AssertionError("the square was built")

    monkeypatch.setattr(Substitution, "power", build_square)
    code, out, err = run_cli("dual", "a->" + "a" * 100 + "b,b->ab", "--square")
    assert (code, out) == (1, "")
    assert err == f"error: its square has 10205 letters, more than the cap of {cli.MAX_SUBSTITUTION_LETTERS}\n"
    # at the cap, the substitution itself is still read
    spec = "a->a,b->" + "a" * (cli.MAX_SUBSTITUTION_LETTERS - 2) + "b"
    assert run_cli("decompose", spec)[0] == 0


def test_render_refuses_a_bad_scale_before_the_work(monkeypatch):
    def decompose(*args):
        raise AssertionError("the window was built")

    monkeypatch.setattr(cli.geom, "rauzy_decomposition", decompose)
    for scale in (float("nan"), float("inf"), float("-inf"), 0.0):
        with pytest.raises(SturmdualError, match="is not a finite positive number"):
            render_svg(parse_substitution("a->aba,b->ab"), "rauzy", 0, scale)


def test_size_caps_count_every_level(monkeypatch):
    # levels 0, 1, 2 of a -> aba, b -> ab hold 1, 3 and 8 tiles or segments
    runs = (
        ("tiling", "--depth", "2"),
        ("render", "--iterations", "2"),
        ("render", "--iterations", "2", "--target", "strand"),
        ("render", "--iterations", "2", "--target", "dual_strand"),
    )
    monkeypatch.setattr(cli, "MAX_PATCH_TILES", 12)
    monkeypatch.setattr(cli, "MAX_STRAND_SEGMENTS", 12)
    for argv in runs:
        assert run_cli(argv[0], "a->aba,b->ab", *argv[1:])[0] == 0, argv
    monkeypatch.setattr(cli, "MAX_PATCH_TILES", 11)
    monkeypatch.setattr(cli, "MAX_STRAND_SEGMENTS", 11)
    for argv in runs:
        code, _, err = run_cli(argv[0], "a->aba,b->ab", *argv[1:])
        assert code == 1 and "more than the cap of 11 " in err, argv
    monkeypatch.setattr(cli, "MAX_CUTPROJECT_WIDTH", 5)
    assert run_cli("cutproject", "a->aba,b->ab", "--range", "-1", "4")[0] == 0
    assert run_cli("cutproject", "a->aba,b->ab", "--range", "-1", "4+1/9")[0] == 1


@pytest.mark.parametrize(
    "argv",
    [
        # the largest level counts of a -> ab, b -> a under MAX_PATCH_TILES
        # and MAX_STRAND_SEGMENTS
        ("tiling", "--depth", "20"),
        ("render", "--target", "tiling", "--iterations", "20"),
        ("render", "--target", "dual_strand", "--iterations", "23"),
    ],
)
def test_runs_at_the_level_caps_end_in_bounded_time(argv):
    command, *options, levels = argv
    start = time.perf_counter()
    code, out, err = run_cli(command, "a->ab,b->a", *options, levels)
    elapsed = time.perf_counter() - start
    print(f"{' '.join(argv)}: {elapsed:.2f} s")
    assert (code, err) == (0, "") and out
    assert elapsed < 30
    # one level more is over the cap
    code, _, err = run_cli(command, "a->ab,b->a", *options, str(int(levels) + 1))
    assert code == 1 and "more than the cap of" in err


# a slope and an initial point in Q(sqrt(2)) that print at the literal cap,
# over four denominators with no common repunit factor
ALPHA_AT_CAP = "1/" + "7" * 44 + "+1/" + "3" * 43 + "*sqrt(2)"
RHO_AT_CAP = "-1/" + "9" * 42 + "-1/" + "1" * 44 + "*sqrt(2)"


@pytest.mark.parametrize("convention", [[], ["--upper"]], ids=["lower", "upper"])
def test_sturmian_at_its_caps_ends_in_bounded_time(convention):
    for literal in (ALPHA_AT_CAP, RHO_AT_CAP):
        assert len(format_quad(parse_quad(literal))) == cli.MAX_STURMIAN_LITERAL
    n = str(cli.MAX_STURMIAN_LENGTH)
    start = time.perf_counter()
    code, out, err = run_cli("sturmian", ALPHA_AT_CAP, "--rho", RHO_AT_CAP, "-n", n, *convention)
    elapsed = time.perf_counter() - start
    print(f"sturmian at both caps {' '.join(convention)}: {elapsed:.2f} s")
    assert (code, err) == (0, "") and len(out) == cli.MAX_STURMIAN_LENGTH + 1
    assert elapsed < 30


def test_enumerate_cap_option_is_gone():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["enumerate", "--max-len", "13", "--cap", "13"])


def test_enumerate_selfdual_includes_rho():
    code, out, _ = run_cli("enumerate", "--max-len", "4", "--selfdual")
    assert code == 0
    assert "a->aba,b->ab" in out


# sha256 of `enumerate --max-len 8 --json` as printed by the Fraction-based
# report (Quad values through format_quad and float), before the report
# was printed from integers
ENUMERATE_8_JSON_SHA256 = "038b16726cae49817fcdbad89f396c560211bbfdb5b5d7bc6c88b34da52d02db"


def test_enumerate_json_bytes_are_pinned():
    code, out, _ = run_cli("enumerate", "--max-len", "8", "--json")
    assert code == 0
    assert len(out.splitlines()) == 1511
    assert hashlib.sha256(out.encode()).hexdigest() == ENUMERATE_8_JSON_SHA256


SUITES = (
    "complexity", "power-hull", "conjugacy-matrix", "rigidity", "dual-contravariance",
    "window-stability", "strand-connectivity", "dual-frequency", "reciprocal-dual",
    "selfdual-forms", "palindrome", "cf-dual", "cut-project",
)


VERIFY_LINE = re.compile(r"^([a-z-]+): (PASS|FAIL) - (.*) \[(\d+) checked in \d+\.\d s\]$")


def test_verify_suites_smoke():
    assert sorted(VERIFY_SUITES) == sorted(SUITES)
    code, out, _ = run_cli("verify", "all", "--max-len", "4", "--count", "20")
    lines = [VERIFY_LINE.match(line) for line in out.splitlines()]
    assert code == 0 and all(lines), out
    # every suite in table order, each passing with something checked
    assert [m.group(1) for m in lines] == list(VERIFY_SUITES)
    assert all(m.group(2) == "PASS" and int(m.group(4)) > 0 for m in lines), out
    code, _, err = run_cli("verify", "no-such-suite")
    assert code == 1
    # an empty or oversized corpus is refused, not reported as PASS
    for argv in (
        ("complexity", "--max-len", "0"),
        ("selfdual-forms", "--max-len", "-3"),
        ("all", "--max-len", "11"),
        ("dual-contravariance", "--count", "0"),
        ("complexity", "--length", "-1"),
    ):
        code, out, err = run_cli("verify", *argv)
        assert (code, out) == (1, ""), argv
        assert err.startswith("error:"), argv
    # a suite that checked nothing fails, naming itself and the corpus bound
    code, out, _ = run_cli("verify", "all", "--max-len", "1", "--count", "5")
    lines = [VERIFY_LINE.match(line) for line in out.splitlines()]
    assert code == 1 and all(lines), out
    assert [m.group(1) for m in lines] == list(VERIFY_SUITES)
    for m in lines:
        suite, status, detail, checked = m.groups()
        if checked == "0":
            assert (status, detail) == ("FAIL", f"{suite} checked nothing at --max-len 1")
    assert sum(m.group(2) == "FAIL" for m in lines) == 12, out


def test_verify_work_cap_admits_each_max_len_at_the_default_length(monkeypatch):
    # the cap is the corpus size times the squared length of complexity
    def complexity(corpus, length):
        return CheckResult(True, len(corpus), f"length {length}")

    monkeypatch.setattr(cli.checks, "complexity", complexity)
    for argv in (("--max-len", "10"), ("--max-len", "8", "--length", "68"), ("--max-len", "7", "--length", "100")):
        code, out, _ = run_cli("verify", "complexity", *argv)
        assert code == 0 and VERIFY_LINE.match(out.rstrip("\n")), argv
    code, out, err = run_cli("verify", "complexity", "--max-len", "8", "--length", "69")
    assert (code, out) == (1, "")
    assert err == (
        "error: complexity at --max-len 8 and length 69 is over the cap: "
        f"1511 substitutions times 69**2 exceeds {cli.MAX_VERIFY_WORK}\n"
    )


def test_verify_details_name_their_bounds():
    for argv, bound in (
        (("complexity", "--max-len", "3"), "up to length 30"),
        (("complexity", "--max-len", "3", "--length", "12"), "up to length 12"),
        (("power-hull", "--max-len", "3"), "powers 2 and 3 keep the factor sets up to length 12"),
        (("reciprocal-dual", "--max-len", "4"), "the dual equals E o reciprocal o E"),
        # a capped suite names the generator length it used
        (("power-hull", "--max-len", "5"), "up to length 12 (corpus capped at generator length 4)"),
    ):
        code, out, _ = run_cli("verify", *argv)
        assert code == 0 and bound in VERIFY_LINE.match(out.rstrip("\n")).group(3), argv
    # a counterexample names the bound too
    result = checks.complexity([KRIEGER_PAIR[0]], 10)
    assert not result.ok and "up to length 10" in result.detail


def test_verify_fail_exits_1(monkeypatch):
    failing = CheckResult(False, 1, "planted failure")
    monkeypatch.setitem(VERIFY_SUITES, "palindrome", lambda args: failing)
    code, out, _ = run_cli("verify", "palindrome")
    assert code == 1
    assert VERIFY_LINE.match(out.rstrip("\n")).groups() == (
        "palindrome", "FAIL", "planted failure", "1"
    )
    # verify all still runs every suite after the failure, then exits 1
    passing = CheckResult(True, 2, "planted pass")
    for suite in VERIFY_SUITES:
        if suite != "palindrome":
            monkeypatch.setitem(VERIFY_SUITES, suite, lambda args: passing)
    code, out, _ = run_cli("verify", "all")
    assert code == 1
    lines = out.splitlines()
    assert [line.split(":")[0] for line in lines] == list(VERIFY_SUITES)
    assert [line for line in lines if ": FAIL - " in line] == [
        "palindrome: FAIL - planted failure [1 checked in 0.0 s]"
    ]


def test_verify_certifies_under_optimize():
    # a broken matrix-shape test must not pass silently when asserts are off
    script = (
        "import sys\n"
        "from sturmdual import cli, invert\n"
        "invert.matrix_selfdual_form = lambda m: None\n"
        "sys.exit(cli.main(['verify', 'selfdual-forms', '--max-len', '4']))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script],
        env=_package_env(), capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert proc.stdout.startswith("selfdual-forms: FAIL - selfdual class and matrix shape")
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("flags", [[], ["-O"]])
def test_verify_refuses_the_reciprocal_as_the_dual(flags):
    # the reciprocal has the dual's factor sets, so only equality with
    # E o reciprocal o E tells a planted reciprocal from the dual
    script = (
        "import sys\n"
        "from sturmdual import cli, dualmap, invert\n"
        "dualmap.dual_substitution = invert.reciprocal\n"
        "sys.exit(cli.main(['verify', 'reciprocal-dual', '--max-len', '4']))\n"
    )
    proc = subprocess.run(
        [sys.executable, *flags, "-c", script],
        env=_package_env(), capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert proc.stdout.startswith(
        "reciprocal-dual: FAIL - dual of a->ba,b->bab is not E o reciprocal o E [1 checked in "
    )
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "argv, reason",
    [
        (("stardual", "a->ab,b->ab"), "unimodular"),
        (("cutproject", "a->aab,b->aba"), "unimodular"),
        (("tiling", "a->ab,b->ab"), "unimodular"),
        (("render", "a->ab,b->ab", "--target", "tiling"), "unimodular"),
        (("stardual", "a->a,b->ab"), "primitive"),
        (("cutproject", "a->a,b->ab"), "primitive"),
    ],
)
def test_geometry_refusals_name_their_input(argv, reason):
    # the same refusal as rauzy's, naming the substitution
    expected = (1, "", f"error: {argv[1]} is not {reason}\n")
    assert run_cli("rauzy", argv[1]) == expected
    assert run_cli(*argv) == expected


def test_render_byte_stable_and_counts():
    doc1 = render_svg(parse_substitution("a->aba,b->ab"), "dual_strand", 2, 20.0)
    doc2 = render_svg(parse_substitution("a->aba,b->ab"), "dual_strand", 2, 20.0)
    assert doc1 == doc2
    # polyline point count = segment count + 1; segments = column sum of (M^T)^2
    m = Mat2(2, 1, 1, 1).transpose()
    m2 = m.mul(m)
    expected_segments = m2.m11 + m2.m21
    points = doc1.split('points="')[1].split('"')[0].split()
    assert len(points) == expected_segments + 1


# the outputs of the geometric commands are a contract: the exit code and
# the sha256 of stdout of each command on three substitutions, recorded at
# commit 3470714 (a->abaab,b->aba has determinant -1, so its window
# commands and its star-dual exit 1 with nothing on stdout)
_GOLDEN_COMMANDS = (
    ("rauzy", "--json"),
    ("stardual", "--json"),
    ("cutproject", "--range", "-7/2", "40", "--json"),
    ("dual",),
    *(
        ("render", "--iterations", "4", "--target", target)
        for target in ("strand", "dual_strand", "tiling", "rauzy")
    ),
)
_NOTHING = hashlib.sha256(b"").hexdigest()
_GOLDEN = {
    "a->aba,b->ab": (
        (0, "56adcb736cb60f960e088a9dce6351f27c9a9f2244455e9c0fb74258b66c38d8"),
        (0, "9aa3ccc830e873dc38e913876d5c90c508e45c275b0923e621bb1a237c370fa6"),
        (0, "75d93b27cd93de44812fcc03d46ad28c290ed2be8fb0dea75ff3720ab5942c80"),
        (0, "e4d2b8ab218616325c5221e34aae3d6642f4489412b9ac180d2e51519bacd608"),
        (0, "a0c4bd10029454e292e89a55f9f43893f5cff2db8fc31f6173cc28fa9fc3f221"),
        (0, "6ff6cdd3ef834b92f3a2df5b8245df3e158af0c15fd866604c750b969fdd95bf"),
        (0, "271307c6c6ef4654a81d873f1de3b5a3161bb60d50711bc774d556643924c1bf"),
        (0, "f6c87e16abc814e0778fcf55b3726a100f6aebe4b18d7359558e8f9f805269df"),
    ),
    "a->abaab,b->aba": (
        (1, _NOTHING),
        (1, _NOTHING),
        (1, _NOTHING),
        (0, "bd3779ba5fba181b948d2c0e7d04158e745939bd50f537cb01ed745ee232d067"),
        (0, "76f23f906ed633ff2ca0276791188b54c3fe7627fc645ab03da71e1054f5ea30"),
        (0, "1b83b3b3809f340d4847b7d8df3f2e5a8c9d492e10613fdc62caeb939cfc940e"),
        (0, "345f65df0e874c9a2b8f29beda75f3820f31516a17e6830fad532dc252493b39"),
        (1, _NOTHING),
    ),
    "a->baa,b->ba": (
        (0, "e391da2dd2e317316811f205aba5fe6c8c2fd771b3476a1ccf1519a31ab9af7d"),
        (0, "7057f53893dead3f40783474e7a3cc9e58d36394c3e154e4b846f50c3764af35"),
        (0, "f30bfade53a242e5c3a71457e14c3df502f177318e7a3ee11d55638b76a22ff3"),
        (0, "f346e52cfa14cfb81571d481a10ff3a5f2cddfc0183fb4c4226af31e6a0431a3"),
        (0, "d89fb9708a199771ef98234d805c0e0a89b908612fb0484b320af12f938d818c"),
        (0, "84eb3f6f07783f241beef7eb2d899d74f215b271f10f3182d5a8f5a2e2773ba4"),
        (0, "c7a87b10efe30abee6be099d5f6b674524fc7a6212d228b64f7faf9a84e892a2"),
        (0, "f6c87e16abc814e0778fcf55b3726a100f6aebe4b18d7359558e8f9f805269df"),
    ),
}


@pytest.mark.parametrize("spec", sorted(_GOLDEN))
def test_geometric_outputs_are_byte_stable(spec):
    got = {}
    for command in _GOLDEN_COMMANDS:
        code, out, _ = run_cli(command[0], spec, *command[1:])
        got[command] = (code, hashlib.sha256(out.encode()).hexdigest())
    assert got == dict(zip(_GOLDEN_COMMANDS, _GOLDEN[spec]))


def test_render_tiling_and_strand():
    doc = render_svg(parse_substitution("a->aba,b->ab"), "tiling", 3, 10.0)
    rows = doc.count("<rect")
    total = sum(len(parse_substitution("a->aba,b->ab").power(n).apply("a")) for n in (1, 2, 3)) + 1
    assert rows == total
    strand = render_svg(parse_substitution("a->ab,b->a"), "strand", 0, 10.0)
    assert strand.count("polyline") == 1
    rz = render_svg(parse_substitution("a->aba,b->ab"), "rauzy", 0, 10.0)
    assert rz.count("<rect") == 2


def test_render_names_the_iteration_that_broke_the_strand():
    code, out, err = run_cli("render", "a->ab,b->baa", "--target", "dual_strand", "--iterations", "2")
    assert (code, out) == (1, "")
    assert err == "error: dual_strand of a->ab,b->baa: the segments of iteration 1 do not form a strand\n"
    # iteration 0 is the unit segment itself
    assert run_cli("render", "a->ab,b->baa", "--target", "dual_strand", "--iterations", "0")[0] == 0


def test_render_to_file(tmp_path):
    target = tmp_path / "out.svg"
    code, out, _ = run_cli(
        "render", "a->aba,b->ab", "--target", "tiling", "--iterations", "1",
        "--svg", str(target),
    )
    assert code == 0
    assert target.read_text().startswith("<svg")


def test_parser_covers_all_subcommands():
    parser = build_parser()
    subcommands = {
        "analyze", "dual", "reciprocal", "inverse", "decompose", "conjugate",
        "selfdual", "rauzy", "tiling", "stardual", "cutproject", "sturmian",
        "cf", "enumerate", "verify", "render",
    }
    actions = [a for a in parser._actions if hasattr(a, "choices") and a.choices]
    assert subcommands <= set(actions[0].choices)


# subcommands that read one substitution, with the options each may take
_ONE_SUBSTITUTION = {
    "analyze": ("--json",),
    "dual": (),
    "reciprocal": (),
    "inverse": (),
    "decompose": (),
    "selfdual": ("--json",),
    "rauzy": ("--json",),
    "tiling": ("--json",),
    "stardual": ("--json",),
    "cutproject": ("--json",),
    "render": tuple(f"--target={target}" for target in ("strand", "dual_strand", "tiling", "rauzy")),
}
_NON_FINITE = re.compile(r"\b(nan|inf|infinity)\b", re.IGNORECASE)
_MAX_DRAWN_LETTERS = 40


@st.composite
def _drawn_substitutions(draw):
    """Two arbitrary words, or a generator product of either determinant
    within the letter bound, rotated a few steps along its conjugates."""
    if draw(st.booleans()):
        a, b = (draw(st.text("ab", min_size=1, max_size=_MAX_DRAWN_LETTERS // 2)) for _ in "ab")
        return f"a->{a},b->{b}"
    sigma = IDENTITY
    for name in draw(st.lists(st.sampled_from(GENERATOR_ORDER), max_size=12)):
        step = sigma.compose(GENERATORS[name])
        if len(step.img_a) + len(step.img_b) > _MAX_DRAWN_LETTERS:
            break
        sigma = step
    a, b = sigma.img_a, sigma.img_b
    for _ in range(draw(st.integers(0, 3))):
        if a[0] != b[0]:
            break
        a, b = a[1:] + a[0], b[1:] + b[0]
    return f"a->{a},b->{b}"


@settings(max_examples=60, deadline=None)
@given(
    command=st.sampled_from(sorted(_ONE_SUBSTITUTION)),
    spec=_drawn_substitutions(),
    square=st.booleans(),
    data=st.data(),
)
def test_one_substitution_commands_end_in_an_answer_or_a_refusal(command, spec, square, data):
    options = _ONE_SUBSTITUTION[command]
    argv = [command, spec] + (["--square"] if square else [])
    if options and data.draw(st.booleans()):
        argv.append(data.draw(st.sampled_from(options)))
    start = time.perf_counter()
    try:
        code, out, err = run_cli(*argv)
    except SystemExit as exc:  # argparse refuses with exit status 2
        code, out, err = exc.code, "", ""
    assert code in (0, 1, 2), argv
    assert not _NON_FINITE.search(out + err), argv
    assert time.perf_counter() - start < 10, argv


_TWENTY_DIGITS = 10**20


@st.composite
def _range_literals(draw):
    """A --range value: an integer or a fraction, small or 20 digits long,
    of either sign, at times plus a surd over sqrt(5) (the field of the
    substitutions drawn), another radicand or one too large to reduce."""
    size = draw(st.sampled_from([300, _TWENTY_DIGITS]))
    num = draw(st.integers(-size, size))
    text = str(num) if draw(st.booleans()) else f"{num}/{draw(st.integers(1, size))}"
    if draw(st.booleans()):
        radicand = draw(st.sampled_from([5, 20, 2, 3, _TWENTY_DIGITS + 1]))
        text += f"{draw(st.sampled_from('+-'))}{draw(st.integers(1, 9))}*sqrt({radicand})"
    return text


@settings(max_examples=60, deadline=None)
@given(
    spec=st.sampled_from(["a->aba,b->ab", "a->ba,b->babab", "a->bba,b->bbabbab"]),
    lo=_range_literals() | st.sampled_from(["nan", "inf", "-inf"]),
    json_flag=st.booleans(),
    data=st.data(),
)
def test_cutproject_range_ends_in_an_answer_or_a_refusal(spec, lo, json_flag, data):
    # zero width, a second drawn end (reversed, or over another field, as
    # it falls), or lo plus up to twice the width cap
    hi = data.draw(
        st.just(lo)
        | _range_literals()
        | st.integers(0, 2 * cli.MAX_CUTPROJECT_WIDTH).map(lambda k: f"{lo}+{k}")
    )
    argv = ["cutproject", spec, "--range", lo, hi] + (["--json"] if json_flag else [])
    start = time.perf_counter()
    try:
        code, out, err = run_cli(*argv)
    except SystemExit as exc:  # argparse refuses with exit status 2
        code, out, err = exc.code, "", ""
    assert code in (0, 1, 2), argv
    event(f"exit {code}")
    assert "Traceback" not in out + err, argv
    # a refusal may quote a drawn nan or inf back, but nothing else may print one
    quoted = err.replace(repr(lo), "").replace(repr(hi), "")
    assert not _NON_FINITE.search(out + quoted), argv
    assert time.perf_counter() - start < 10, argv


def _past(cap: int):
    """Integers 0, small ones of either sign, one past the cap and far past it."""
    return st.integers(-3, 3) | st.sampled_from([cap + 1, 10**18, -(10**18)])


_QUADRATIC_LITERALS = (
    _range_literals()
    | st.sampled_from(["3/2-1/2*sqrt(5)", "sqrt(2)-1", "1/2", "0", "nan", "inf", "-inf"])
    # prints in more than MAX_STURMIAN_LITERAL characters
    | st.just("sqrt(2)-1+1/" + "7" * cli.MAX_STURMIAN_LITERAL)
)
_CF_LITERALS = st.sampled_from(
    ["[0; 2, (1)]", "[1; (2)]", "[0; 1, 1, (2)]", "[3]", "[1; 2, (1/0)]", "[0; (0)]", "[]"]
)
# three draws in four are substitutions, the fourth a parse error
_SPECS = st.one_of(
    *[_drawn_substitutions()] * 3, st.sampled_from(["a->ab", "a->ab,b->", "a->ac,b->a", ""])
)
_SLOPES = st.sampled_from(["3/2-1/2*sqrt(5)", "sqrt(2)-1", "1/2*sqrt(5)-1"])


@st.composite
def _other_command_lines(draw, command):
    """An argv of command with drawn values: each integer option 0, small
    of either sign, or past its cap; each literal a quadratic value, a
    continued fraction, nan or inf.  The cost grows with the corpus, the
    level or the length, so values below a cap are kept small (a tiling
    at its tile cap takes 2.6 s, a render 4 s, on 2 vCPUs)."""

    def flag(option):
        return [option] if draw(st.booleans()) else []

    if command == "conjugate":
        spec = draw(_SPECS)
        return [command, spec, draw(st.just(spec) | _SPECS)]
    if command == "sturmian":
        argv = [command, draw(_SLOPES | _QUADRATIC_LITERALS), "-n", str(draw(
            st.integers(-3, 300) | st.sampled_from([cli.MAX_STURMIAN_LENGTH + 1, 10**18])
        ))]
        if draw(st.booleans()):
            argv.append(f"--rho={draw(_SLOPES | _QUADRATIC_LITERALS)}")
        return argv + flag("--upper")
    if command == "cf":
        return [command, draw(_QUADRATIC_LITERALS | _CF_LITERALS)] + flag("--dual") + flag("--test-selfdual")
    if command == "enumerate":
        argv = [command, "--max-len", str(draw(st.integers(-3, 4) | _past(cli.MAX_GENERATOR_LEN)))]
        if draw(st.booleans()):
            argv += ["--det", str(draw(st.sampled_from([1, -1, 0, 2])))]
        return argv + flag("--primitive") + flag("--selfdual") + flag("--json")
    if command == "verify":
        suite = draw(st.sampled_from(sorted(VERIFY_SUITES) + ["all", "no-such-suite"]))
        return [
            command, suite,
            "--max-len", str(draw(st.integers(1, 3) | _past(cli.MAX_GENERATOR_LEN))),
            "--count", str(draw(st.integers(1, 50) | _past(cli.MAX_VERIFY_COUNT))),
            "--length", str(draw(st.integers(1, 40) | _past(cli.MAX_VERIFY_LENGTH))),
        ]
    if command == "tiling":
        depth = draw(st.integers(-3, 2) | st.sampled_from([10**18]))
        return [command, draw(_SPECS), "--depth", str(depth)] + flag("--json")
    scale = draw(st.sampled_from(["24", "0.5", "0", "-1", "1e308", "nan", "inf", "-inf", "x"]))
    return [
        command, draw(_SPECS),
        f"--target={draw(st.sampled_from(['strand', 'dual_strand', 'tiling', 'rauzy', 'x']))}",
        "--iterations", str(draw(st.integers(-3, 2) | st.sampled_from([10**18]))),
        f"--scale={scale}",
    ]


@pytest.mark.parametrize(
    "command", ["conjugate", "sturmian", "cf", "enumerate", "verify", "tiling", "render"]
)
@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_other_commands_end_in_an_answer_or_a_refusal(command, data):
    argv = data.draw(_other_command_lines(command))
    start = time.perf_counter()
    try:
        code, out, err = run_cli(*argv)
    except SystemExit as exc:  # argparse refuses with exit status 2
        code, out, err = exc.code, "", ""
    assert code in (0, 1, 2), argv
    event(f"exit {code}")
    assert "Traceback" not in out + err, argv
    # a refusal may quote a drawn nan or inf back, but nothing else may print one
    quoted = err
    for token in argv:
        value = token.split("=", 1)[-1]
        quoted = quoted.replace(repr(value), "").replace(value, "")
    assert not _NON_FINITE.search(out + quoted), argv
    assert time.perf_counter() - start < 10, argv
