"""One pass of each benchmark workload at smoke size, in-process.

bench/workloads.py builds spectra.CentralFrame / CentralBlock and calls
the CLI directly, so a change to that API would otherwise surface only in
bench/test_smoke.py, which runs the harness in subprocesses.  The file
is loaded by path; nothing under bench/ is written to except the
workload's own scratch directory.
"""

import importlib.util
import inspect
import os

import pytest

WORKLOADS = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "bench", "workloads.py")


def load_workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads",
                                                  WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", ["central", "spectrum", "norms"])
def test_smoke_pass_has_no_failed_check(name, tmp_path):
    module = load_workloads()
    workload = module.WORKLOADS[name](module.DEFAULT_SEED, str(tmp_path),
                                      "smoke")
    ops = workload.ops()
    assert ops
    failures = {op: fn() for op, fn in ops}
    assert failures == {op: [] for op, _ in ops}


def test_central_frame_defaults_are_the_benchmarked_frame():
    # central-audit builds CentralFrame with its defaults, and the central
    # workload passes its frame by name: the two must be one frame
    from contactfbi.spectra import CentralFrame
    params = inspect.signature(CentralFrame).parameters
    frame = load_workloads().Central.FRAME
    assert {name: params[name].default for name in frame} == frame
