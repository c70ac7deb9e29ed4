"""Tests of the benchmark itself.

    python3 -m pytest bench/test_bench.py

Each workload at its smallest size finishes with no failed op and prints every
declared metric; two traced runs with one seed report identical counters; and
a checkout without the majorchain sources is refused without a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from run import COUNTERS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench(workload: str, seed: int, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "0.1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def result(done: subprocess.CompletedProcess) -> dict:
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smallest_run_passes_and_reports_every_metric(workload):
    done = bench(workload, seed=7, trace=0)
    report = result(done)
    assert report["correct"] is True
    assert report["failed"] == 0
    assert report["attempted"] >= 100
    assert set(report["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in report["metrics"].values())
    assert "fail_ratio = 0 ratio" in done.stdout


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_counters_repeat_for_a_seed(workload):
    first, second = (result(bench(workload, seed=3, trace=1)) for _ in range(2))
    assert first["failed"] == 0
    assert set(first["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    assert first["attempted"] == second["attempted"]
    for name in COUNTERS:
        assert first["metrics"][name] == second["metrics"][name], name


def test_checkout_without_the_program_is_refused(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    done = bench("split-sweep", seed=1, trace=0, cwd=tmp_path)
    assert done.returncode != 0
    assert not any(line.startswith("{") for line in done.stdout.splitlines())
