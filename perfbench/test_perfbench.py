"""Quick self-test of the benchmark.

    python3 -m pytest -q perfbench/test_perfbench.py

One item per workload, untraced and traced: every metric that
BENCHMARK.json names is printed with its unit, every output check passes,
and the per-layer counts repeat exactly for the same seed.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402

sys.path.insert(0, str(bench.SRC))

SPEC = json.loads((bench.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
COUNTS = ("calls", "count", "objective_evals", "restarts_per_item", "hit_frac",
          "exact_frac", "accept_frac")


def _units(metrics: dict) -> dict:
    return {name: metric["unit"] for name, metric in metrics.items()}


def _passed(result: dict) -> None:
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], float)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    result = bench.benchmark(workload, seed=7, seconds=0.01, trace=False,
                             max_items=1, setup_reps=1)
    _passed(result)
    assert _units(result["metrics"]) == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    values = {name: metric["value"] for name, metric in result["metrics"].items()}
    # one item may be an uncertified kind; a whole round never is
    assert 0 <= values.pop("certified_frac") <= 1
    assert all(value > 0 for value in values.values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics_and_repeatable_counts(workload):
    first, second = (bench.benchmark(workload, seed=7, seconds=0.01, trace=True, max_items=1)
                     for _ in range(2))
    for result in (first, second):
        _passed(result)
        assert _units(result["metrics"]) == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    counts = [name for name in first["metrics"] if name.rpartition(".")[2] in COUNTS]
    assert counts
    for name in counts:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name


def test_fails_without_the_library(tmp_path):
    """Run where only BENCHMARK.json and the benchmark's files exist."""
    shutil.copy(bench.ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(bench.ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, *SPEC["command"][1:], "--workload", WORKLOADS[0],
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
