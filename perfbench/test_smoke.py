"""Smoke test of the benchmark at minimal size: one pass per phase.

Run from the root of a checkout:

    python3 -m pytest perfbench/test_smoke.py
"""

import json
import shutil
import subprocess
import sys

import pytest

import oracle
import run as bench
from workloads import WORKLOADS

SPEC = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(bench.SRC))


def _one_pass(workload: str, trace: bool) -> dict:
    return bench.run(workload, seed=1, seconds=0, trace=trace, min_ops=0)


def test_benchmark_json_names_the_workloads_the_run_knows():
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(WORKLOADS)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_every_metric_is_printed_with_its_unit(workload, trace):
    result = _one_pass(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    listed = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in listed}
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float))


def test_a_wrong_expected_answer_is_counted_as_failed(monkeypatch):
    monkeypatch.setattr(oracle, "long_word_value", lambda k, h: -1)
    result = _one_pass("gram-signature", trace=False)
    assert not result["correct"] and result["failed"] > 0
    assert result["metrics"]["ok_share"]["value"] < 1


def test_fails_without_the_program_sources(tmp_path):
    shutil.copy(bench.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(bench.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "gram-signature",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
