import io
import json
import os
import re
import subprocess
import sys
import time

import pytest

import sturmdual
from sturmdual import cli
from sturmdual.checks import CheckResult
from sturmdual.cli import (
    VERIFY_SUITES,
    AnalysisReport,
    build_parser,
    build_report,
    main,
    render_svg,
)
from sturmdual.subst import Mat2, Substitution, parse_substitution


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


def test_report_json_roundtrip():
    report = build_report(parse_substitution("a->aba,b->ab"))
    again = AnalysisReport.from_json_dict(json.loads(json.dumps(report.to_json_dict())))
    assert again == report


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


def _package_env():
    src = os.path.dirname(os.path.dirname(sturmdual.__file__))
    return dict(os.environ, PYTHONPATH=src)


def test_python_dash_m_runs_the_cli():
    proc = subprocess.run(
        [sys.executable, "-m", "sturmdual", "cf", "1+sqrt(2)"],
        env=_package_env(), capture_output=True, text=True, timeout=60,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[2; (2)]\n", "")


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
    assert code == 1 and "cap" in err


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
    ],
)
def test_oversized_runs_are_refused_before_the_work(argv):
    start = time.perf_counter()
    code, out, err = run_cli(*argv)
    assert (code, out) == (1, "")
    assert err.startswith("error:") and "Traceback" not in err
    assert time.perf_counter() - start < 5


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


def test_enumerate_cap_option_is_gone():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["enumerate", "--max-len", "13", "--cap", "13"])


def test_enumerate_selfdual_includes_rho():
    code, out, _ = run_cli("enumerate", "--max-len", "4", "--selfdual")
    assert code == 0
    assert "a->aba,b->ab" in out


SUITES = (
    "complexity", "power-hull", "conjugacy-matrix", "rigidity", "dual-contravariance",
    "window-stability", "strand-connectivity", "dual-frequency", "reciprocal-dual",
    "selfdual-forms", "palindrome", "cf-dual", "star-relation", "cut-project",
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
    assert sum(m.group(2) == "FAIL" for m in lines) == 13, out


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


def test_render_tiling_and_strand():
    doc = render_svg(parse_substitution("a->aba,b->ab"), "tiling", 3, 10.0)
    rows = doc.count("<rect")
    total = sum(len(parse_substitution("a->aba,b->ab").power(n).apply("a")) for n in (1, 2, 3)) + 1
    assert rows == total
    strand = render_svg(parse_substitution("a->ab,b->a"), "strand", 0, 10.0)
    assert strand.count("polyline") == 1
    rz = render_svg(parse_substitution("a->aba,b->ab"), "rauzy", 0, 10.0)
    assert rz.count("<rect") == 2


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
