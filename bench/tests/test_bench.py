"""Smoke tests of the benchmark: every workload and the traced run, tiny inputs.

Run from the repository root:  python3 -m pytest bench/tests -q
"""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

from harness import evaluate  # noqa: E402
from spinquiver.errors import SingularFactor  # noqa: E402

WORKLOADS = ("verify-max", "grid-survey", "commute-rank-flow")


def run(workload, seed=3, trace=0, cwd=ROOT, script=None):
    cmd = [sys.executable, script or os.path.join(BENCH, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "0", "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, capture_output=True, text=True, cwd=cwd, timeout=120)


def parse(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    digest = next(line.split()[2] for line in lines if line.startswith("verdict digest"))
    return lines, result, digest


@pytest.fixture(scope="module")
def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_prints_every_end_to_end_metric(workload, spec):
    lines, result, digest = parse(run(workload))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for name, unit in expected.items():
        assert any(line.strip().startswith(f"{name} = ") and line.endswith(f" {unit}")
                   for line in lines)
    assert any(line.startswith("check_tail_ms is p") for line in lines)
    assert any(line.startswith("environment ") and '"numpy"' in line for line in lines)
    assert "CLI parity ok" in lines
    # the same seed gives the same verdicts
    assert parse(run(workload))[2] == digest


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_matches_untraced_verdicts(workload, spec):
    lines, result, digest = parse(run(workload, trace=1))
    assert result["correct"] is True
    expected = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert any(line.startswith(f"traced digest {digest} (same as untraced)") for line in lines)
    assert digest == parse(run(workload))[2]
    assert result["metrics"]["trace.overhead_ratio"]["value"] > 0


def test_seed_changes_the_inputs():
    assert parse(run("grid-survey", seed=3))[2] == parse(run("grid-survey", seed=3))[2]
    a = json.loads(run("verify-max", seed=3).stdout.splitlines()[-1])
    b = json.loads(run("verify-max", seed=4).stdout.splitlines()[-1])
    assert a["metrics"]["margin_digits"] != b["metrics"]["margin_digits"]


def test_refuses_to_run_without_the_package_source(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = run("grid-survey", cwd=tmp_path, script=str(tmp_path / "bench" / "run.py"))
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def _raise(exc):
    raise exc


@pytest.mark.parametrize("thunk, verdict", [
    (lambda: (1e-12, 1e-9), "pass"),
    (lambda: (1e-6, 1e-9), "over-tolerance"),
    (lambda: (2, 0.5, "rank"), "rank-mismatch"),
    (lambda: (float("nan"), 1e-9), "non-finite"),
    (lambda: (float("inf"), 1e-9), "non-finite"),
    (lambda: _raise(SingularFactor("x")), "SingularFactor"),
    (lambda: _raise(np.linalg.LinAlgError("x")), "LinAlgError"),
    (lambda: _raise(KeyError("x")), "unexpected-KeyError"),
])
def test_failure_classes(thunk, verdict):
    assert evaluate(thunk)[2] == verdict
