"""tools/time_primitives.py times the weighted-norm, central-block,
slice-transform and spectrum primitives of a source tree and compares
their outputs with those of the first tree given."""

import importlib.util
import json
import os
import subprocess
import sys

import numpy as np

from contactfbi.cli import _parse_flat

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TOOL = os.path.join(ROOT, "tools", "time_primitives.py")
WORKLOADS = os.path.join(ROOT, "bench", "workloads.py")
PRIMITIVES = ("slice_weight", "weighted_gram", "weighted_norm_measure",
              "CentralBlock.apply", "CentralBlock.apply_adjoint",
              "_slice_forward", "reconstruct_slice", "scatter_slice",
              "model_spectrum")


def test_one_tree_against_itself(tmp_path):
    out = tmp_path / "bench.json"
    src = os.path.join(ROOT, "src")
    subprocess.run([sys.executable, TOOL, "--src", "a=" + src,
                    "--src", "b=" + src, "--repeats", "2", "--rounds", "1",
                    "--out", str(out)], check=True, capture_output=True)
    res = json.loads(out.read_text())
    for label in ("a", "b"):
        for name in PRIMITIVES:
            t = res["timings"][label][name]
            assert t["samples"] == 2 and 0 < t["q1"] <= t["median"] <= t["q3"]
        # the same code on the same inputs gives the same outputs
        assert res["max_rel_diff_from_a"][label] == dict.fromkeys(
            PRIMITIVES, 0.0)
    assert res["configs"]["central"]["k"] == 6
    assert res["configs"]["spectrum"]["refine"] == 2


def _load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_configs_match_the_benchmark_workloads():
    # the tool copies the full-size workload configs as literals; a
    # BENCH_*.json written after either side changed would time other
    # inputs than the benchmark runs
    tool = _load("time_primitives", TOOL)
    bench = _load("bench_workloads", WORKLOADS)
    norms, central, spectrum = (bench.Norms, bench.Central, bench.Spectrum)

    def parse(text):
        return _parse_flat(text.splitlines())
    assert parse(norms.LOWER_BOUND) == tool.LOWER_BOUND
    assert parse(norms.NORM_BOUND["full"]) == tool.NORM_BOUND
    k, n0, k_step = central.PARAMS["full"]
    assert parse(central.CONFIG % (n0, float(np.pi / 2.0), k)) == \
        tool.CENTRAL
    assert k_step == tool.CENTRAL_K
    assert central.FRAME == tool.CENTRAL_FRAME
    assert parse(spectrum.CONFIG % spectrum.FLOW_POINTS["full"]) == \
        tool.SPECTRUM
