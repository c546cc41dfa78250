"""Smoke test of the benchmark itself, at tiny simulation sizes (about a minute).

    python3 -m pytest perfbench/test_smoke.py -q

Checks that every metric BENCHMARK.json names is emitted with its unit, for
every workload and both trace modes, and that the benchmark refuses to report
a result where the package sources are missing.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run_bench(*args, cwd=HERE.parent, script=HERE / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), "--seed", "3", "--seconds", "0.2", "--scale", "tiny", *args],
        capture_output=True, text=True, timeout=300, cwd=cwd,
    )


@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_is_emitted_with_its_unit(trace, kind):
    done = run_bench("--workload", "all", "--trace", str(trace))
    assert done.returncode == 0, done.stderr
    results = json.loads(done.stdout.splitlines()[-1])
    assert set(results) == {w["name"] for w in SPEC["workloads"]}
    declared = {m["name"]: m["unit"] for m in SPEC[kind]}
    for name, result in results.items():
        assert set(result) == RESULT_KEYS
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, name
        units = {metric: m["unit"] for metric, m in result["metrics"].items()}
        assert units == declared, name
        for metric, m in result["metrics"].items():
            assert isinstance(m["value"], (int, float)), (name, metric)


def test_single_workload_prints_the_result_last():
    done = run_bench("--workload", "put_bias", "--trace", "0")
    assert done.returncode == 0, done.stderr
    assert set(json.loads(done.stdout.splitlines()[-1])) == RESULT_KEYS
    assert "error_rate 0 " in done.stdout


def test_refuses_without_the_package_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    skip = shutil.ignore_patterns("results", "__pycache__")
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=skip)
    done = run_bench("--workload", "put_bias", cwd=tmp_path, script=tmp_path / HERE.name / "run.py")
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
