"""tools/time_primitives.py times the weighted-norm, central-block,
slice-transform and spectrum primitives of a source tree and compares
their outputs with those of the first tree given."""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TOOL = os.path.join(ROOT, "tools", "time_primitives.py")
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
