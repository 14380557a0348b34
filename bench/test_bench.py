"""The benchmark's own tests: tiny-size smoke runs of every workload, and
proof that a wrong answer is caught.

Run from the repository root with ``python3 -m pytest -q bench``.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

sys.path.insert(0, str(bench.SRC))

CONTRACT = json.loads((bench.ROOT / "BENCHMARK.json").read_text())


def tiny(workload, trace=False, seed=3):
    return bench.run(workload, seed, 0.0, trace, "tiny", setup_repeats=1)


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_tiny_run_is_correct_and_reports_every_end_to_end_metric(workload):
    record, result = tiny(workload)
    assert result["correct"], record["failures"]
    assert result["attempted"] == record["queries_per_pass"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in CONTRACT["end_to_end"]}
    for m in CONTRACT["end_to_end"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert result["metrics"][m["name"]]["value"] > 0


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_traced_run_reports_every_per_layer_metric(workload):
    record, result = tiny(workload, trace=True)
    assert result["correct"], record["failures"]
    assert set(result["metrics"]) == {m["name"] for m in CONTRACT["per_layer"]}
    for m in CONTRACT["per_layer"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    assert result["metrics"]["trace.overhead_ratio"]["value"] > 0
    assert "waiting" in record


def test_traced_counts_follow_the_workload_layers():
    _, words_run = tiny("words_mixed", trace=True)
    _, ext_run = tiny("ext_search", trace=True)
    _, homs_run = tiny("moves_homs", trace=True)

    def value(result, name):
        return result["metrics"][name]["value"]

    assert value(words_run, "words.normal_form.calls") > 0
    assert value(words_run, "oracle.states") > 0
    assert value(words_run, "extgraph.ext_vertex.calls") == 0
    assert value(words_run, "homs.apply.calls") == 0
    assert value(ext_run, "extgraph.search.adjacency_evals") > 0
    assert 0 < value(ext_run, "extgraph.enumerate.useful_ratio") <= 1
    assert value(ext_run, "homs.apply.calls") == 0
    assert value(homs_run, "homs.words_checked") > 0
    assert value(homs_run, "extgraph.search.calls") == 0


def test_digest_repeats_for_a_seed_and_follows_the_seed():
    first, _ = tiny("words_mixed", seed=5)
    again, _ = tiny("words_mixed", seed=5)
    other, _ = tiny("words_mixed", seed=6)
    assert first["digest"] == again["digest"]
    assert first["digest"] != other["digest"]


def test_a_normal_form_that_drops_a_letter_raises_the_error_rate(monkeypatch):
    load = bench.load_library

    def broken_library():
        R = load()
        right = R.words.normal_form

        def drops_a_letter(g, w):
            return right(g, w)[:-1]

        R.words.normal_form = drops_a_letter
        return R

    monkeypatch.setattr(bench, "load_library", broken_library)
    record, result = tiny("words_mixed")
    assert not result["correct"]
    assert result["failed"] > 0
    assert record["error_rate"] > 0
    assert {f["kind"] for f in record["failures"]} >= {"normal_form"}


def test_fails_without_printing_a_result_when_the_package_is_absent(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(bench.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, *CONTRACT["command"][1:], "--workload", "words_mixed",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_one_command_runs_every_workload():
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "all", "--size", "tiny",
         "--seconds", "0", "--seed", "2"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] and result["failed"] == 0
    for workload in WORKLOADS:
        for m in CONTRACT["end_to_end"]:
            assert f"{workload}.{m['name']}" in result["metrics"]
        assert any(line.split()[:2] == [workload, "error_rate"] for line in lines)
