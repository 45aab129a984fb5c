"""Tests of the benchmark itself (not collected by the repository's test run).

    python3 -m pytest -q perfbench/selftest.py

Tiny runs of every workload must pass, and every checker must reject a
planted wrong answer.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import oracle  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

TINY = {
    "language": workloads.Language(corpus_len=4, round_size=4, samples=2),
    "geometry": workloads.Geometry(corpus_len=4, round_size=2),
    "classify": workloads.Classify(corpus_len=3, random_words=3, word_len=20, image_band=(100, 300)),
}


@pytest.fixture
def lib(monkeypatch, tmp_path):
    monkeypatch.setattr(run, "OUT", tmp_path)
    return run.import_library()


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_run_passes(lib, name, trace):
    result = run.run(name, seed=7, seconds=0.01, trace=trace, workload=TINY[name], min_ops=2)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    listed = spec["per_layer"] if trace else spec["end_to_end"]
    assert {m["name"]: m["unit"] for m in listed} == {n: v["unit"] for n, v in result["metrics"].items()}
    if trace:
        # the per-layer names come from the tracer, so they cannot drift from BENCHMARK.json
        assert sorted(result["metrics"]) == tracing.per_layer_names()
    else:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_layers_match_the_workload(lib, tmp_path):
    language = run.run("language", 7, 0.01, True, TINY["language"], min_ops=2)["metrics"]
    geometry = run.run("geometry", 7, 0.01, True, TINY["geometry"], min_ops=2)["metrics"]
    assert language["subst.factor_language_calls"]["value"] > 0 and language["quadfield.quad_ops"]["value"] == 0
    assert geometry["quadfield.quad_ops"]["value"] > 0 and geometry["subst.factor_language_calls"]["value"] == 0

    spans = json.loads((tmp_path / "geometry-seed7-trace1-spans.json").read_text(encoding="utf-8"))["spans"]
    for name, start, end, parent, op, self_time in spans:
        if name == "op":
            assert parent == -1
        if name == "op" or op == 0:
            continue
        p_name, p_start, p_end, _, p_op, _ = spans[parent]
        assert p_op == op and p_start <= start <= end <= p_end and 0 <= self_time <= end - start


def test_factor_check_rejects_a_dropped_factor(lib):
    rho = lib.subst.Substitution("aba", "ab")
    factors = lib.subst.factor_set(rho, 12)
    oracle.check_factor_set("aba", "ab", 12, factors)
    with pytest.raises(oracle.CheckError):
        oracle.check_factor_set("aba", "ab", 12, factors - {min(factors)})
    with pytest.raises(oracle.CheckError):
        oracle.check_profile([2, 3, 4, 4], 4)


def test_geometry_check_rejects_a_shifted_window_endpoint(lib):
    w = workloads.Geometry()
    rho = lib.subst.Substitution("aba", "ab")
    plain = w.extract(oracle, lib, rho, w.run(lib, run._direct, rho), False)
    w.check(oracle, plain)
    lo, hi = plain["r_a"]
    with pytest.raises(oracle.CheckError):
        w.check(oracle, {**plain, "r_a": (lo, hi + oracle.Surd(1, 0))})
    with pytest.raises(oracle.CheckError):
        w.check(oracle, {**plain, "points": plain["points"][1:]})


def _classify_plain(lib, predicate):
    w = workloads.Classify()
    for item in workloads.corpus(lib, 5):
        plain = w.extract(oracle, lib, item, w.run(lib, run._direct, item), False)
        if predicate(json.loads(plain["line"])):
            w.check(oracle, plain)
            return w, plain
    raise AssertionError("no corpus member fits")


def _with(plain: dict, **changes) -> dict:
    d = json.loads(plain["line"])
    d.update(changes)
    return {**plain, "line": json.dumps(d)}


def test_classify_check_rejects_a_rotated_period(lib):
    def rotatable(d):
        if not d["cf_alpha"]:
            return False
        _, per = oracle.parse_cf(d["cf_alpha"])
        return len(set(per)) > 1

    w, plain = _classify_plain(lib, rotatable)
    text = json.loads(plain["line"])["cf_alpha"]
    head, _, body = text.partition("(")
    period = body.rstrip(")]").split(", ")
    rotated = head + "(" + ", ".join(period[1:] + period[:1]) + ")]"
    with pytest.raises(oracle.CheckError):
        w.check(oracle, _with(plain, cf_alpha=rotated))


@pytest.mark.parametrize("kind", ["direct", "mirror"])
def test_classify_check_rejects_a_flipped_selfdual_class(lib, kind):
    w, plain = _classify_plain(lib, lambda d: d["selfdual_class"] == kind)
    for wrong in {"direct", "mirror", "not_selfdual"} - {kind}:
        with pytest.raises(oracle.CheckError):
            w.check(oracle, _with(plain, selfdual_class=wrong))


def test_parse_printed_reads_the_library_format(lib):
    from fractions import Fraction as F

    for p, q, d in ((F(-3, 2), F(1, 2), 5), (0, -2, 7), (F(-5, 3), 0, 0), (1, 1, 2), (0, F(1, 55), 55), (0, F(-1, 3), 6)):
        s = oracle.parse_printed(str(lib.quadfield.Quad(p, q, d)))
        assert (s.a, s.b, s.d) == (p, q, d)


def test_a_repeated_wrong_answer_fails_every_time(lib):
    class Stub(workloads.Workload):
        name = "stub"

        def extract(self, oracle, lib, item, raw, sampled):
            return raw

        @staticmethod
        def check(oracle, plain):
            oracle.require(plain == "right", "wrong answer")

    results = [(0, "wrong"), (1, "right"), (0, "wrong"), (1, "right"), (1, "changed")]
    assert run.check_phase(Stub(), lib, ["x", "y"], results, seed=1)[:2] == (3, 3)


def test_run_fails_without_the_library(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "language", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )  # fmt: skip
    assert done.returncode != 0 and done.stdout == ""
