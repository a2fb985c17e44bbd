"""Smoke test of the benchmark harness at reduced sizes.

    python3 -m pytest -q bench/test_smoke.py

Each workload runs once per trace mode at smoke size; the test checks
that every metric BENCHMARK.json names is emitted with its unit and that
no op failed.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)


def run_bench(root, workload, trace):
    return subprocess.run(
        [sys.executable, os.path.join(root, "bench", "run.py"),
         "--workload", workload, "--seed", "3", "--seconds", "0",
         "--trace", str(trace), "--size", "smoke"],
        cwd=root, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_emitted_without_errors(workload, trace):
    proc = run_bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    kind = "per_layer" if trace else "end_to_end"
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in SPEC[kind]}
    assert result["attempted"] >= 1
    assert result["failed"] == 0 and result["correct"] is True, proc.stderr
    if trace:
        assert result["metrics"]["process.error_rate"]["value"] == 0


def test_tracer_wraps_every_binding_and_restores():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    from contactfbi import partial_fbi, spectra
    from tracer import Tracer
    original = partial_fbi._slice_forward
    tracer = Tracer()
    assert tracer.install() == []
    try:
        # spectra imported _slice_forward by name
        assert spectra._slice_forward is partial_fbi._slice_forward
        assert spectra._slice_forward.__wrapped__ is original
    finally:
        tracer.restore()
    assert spectra._slice_forward is original
    assert partial_fbi._slice_forward is original


def test_refuses_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = run_bench(str(tmp_path), "spectrum", 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
