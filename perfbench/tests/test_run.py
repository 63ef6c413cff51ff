"""The command line: its result line, BENCHMARK.json, and a bare directory."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import layers
import run
import workloads

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent


def _spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_matches_the_metrics_and_workloads():
    spec = _spec()
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert list(workloads.WORKLOADS) == list(run.WORKLOAD_NAMES)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers.metric_units()
    assert [m["name"] for m in spec["end_to_end"]] == ["run_s", "setup_s", "peak_rss_mb"]


def test_a_run_prints_every_end_to_end_metric_last(tmp_path):
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "systole-graph",
         "--seed", "4", "--seconds", "0.01", "--trace", "0"],
        capture_output=True, text=True, timeout=170, cwd=ROOT,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] == 2 and result["failed"] == 0
    names = [m["name"] for m in _spec()["end_to_end"]]
    assert sorted(result["metrics"]) == sorted(names)
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_without_the_sources_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mesh-flow",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=170, cwd=tmp_path,
    )
    assert done.returncode != 0
    assert done.stdout == ""
