"""Smoke run of the benchmark at tiny sizes, so the harness cannot rot.

    python -m pytest bench/test_smoke.py -q

Runs all four workloads untraced and traced through the real entry point and
checks the contract of the result line; then checks that a directory holding
only the benchmark (no package to measure) fails without printing a result,
that a run is correct only while every failed job is a known defect, and that
the host-speed correction takes a job's speed from the probes inside it.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)


def run_all(trace):
    cmd = [sys.executable, os.path.join(BENCH, "run.py"), "--workload", "all", "--seed", "7",
           "--seconds", "0", "--trace", str(trace), "--smoke"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr[-3000:]
    return proc.stdout, json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
def test_all_workloads_report_every_metric(trace):
    stdout, result = run_all(trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and 0 <= result["failed"] < result["attempted"]
    names = [m["name"] for m in SPEC["per_layer" if trace else "end_to_end"]]
    expected = {f"{w['name']}.{n}" for w in SPEC["workloads"] for n in names}
    assert set(result["metrics"]) == expected
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float)) and metric["unit"]
    if not trace:
        for w in SPEC["workloads"]:
            assert result["metrics"][f"{w['name']}.job_ms_p50"]["value"] > 0
    # the known defects show as failed jobs, with their reasons
    assert "FAILED refused" in stdout and "FAILED exit-code" in stdout
    assert "wrong-verdict" not in stdout


def test_fails_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "sweep-large", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=170)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_only_known_defects_may_fail():
    sys.path.insert(0, BENCH)
    import harness
    import run

    loop = harness.LoopResult()
    loop.failures = {"M3/n=3": ["refused", "", 1], "M2/c34": ["error", "", 1],
                     "M3/n=4": ["wrong-verdict", "", 1]}
    assert run.unexpected_failures("power-generic", loop) == ["M2/c34", "M3/n=4"]
    loop.failures = {"catalog matrix --param n=0 [json]": ["exit-code", "", 2]}
    assert run.unexpected_failures("cli-session", loop) == []
    assert run.unexpected_failures("morphism-scan", loop) == ["catalog matrix --param n=0 [json]"]


def test_speed_factor_uses_probes_inside_a_job():
    sys.path.insert(0, BENCH)
    import calibrate

    speed = calibrate.Speed()
    n = 3 * calibrate.NEAREST
    speed.at = [0.001 * i for i in range(n)]
    # the first third of the probes ran twice as slow as the rest
    speed.seconds = [2 * calibrate.NOMINAL_S if i < n // 3 else calibrate.NOMINAL_S for i in range(n)]
    # a job spanning the whole slow stretch is corrected by its slowdown alone
    assert speed.factor(0.0, 0.001 * (n // 3 - 1)) == 0.5
    # a short job in the fast stretch widens to its NEAREST neighbours
    assert speed.factor(0.001 * (n - 2), 0.001 * (n - 2)) == 1.0
