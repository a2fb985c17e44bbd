"""Benchmark of contactfbi: one workload per process, closed loop.

    python3 bench/run.py --workload {central,spectrum,norms} --seed N \
        --seconds S --trace {0,1}

Run from the repository root.  The process sets the workload up, then
runs passes over the workload's fixed op list, one caller, for S seconds
and at least two passes.  Every op's outputs are checked; an op fails if
it raises, exits non-zero or misses a check.  BLAS keeps its default
thread count.

With --trace 0 the result holds the end-to-end metrics: pass_s (median
pass wall time), setup_s (median of SETUP_SAMPLES set-ups: this process
plus fresh child processes before and after the passes, each importing
contactfbi, writing the configs and building the inputs) and
peak_rss_mb (this process's lifetime maximum).  With --trace 1 the
passes of the first half of the time run untraced and the rest traced;
the result holds the per-layer metrics of tracer.py, the medians over
traced passes, plus process.cpu_s (median untraced pass) and tracing
overhead.  Ops that run once after the passes, such as central's full
audit, are traced apart and recorded in the meta line.

The last line of standard output is the result object; the line before
it records the run's environment, sizes and observed values.  Exit code 0
means a result was printed (its "correct" may still be false); 2 means
the run could not start, for example because src/contactfbi is missing.
"""

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("central", "spectrum", "norms")
SIZES = ("full", "smoke")
MIN_PASSES = 2
# Set-ups per run: this process, then fresh children, half of them before
# the passes and half after, so that the median spans the run.
SETUP_SAMPLES = 5
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
              "NUMEXPR_NUM_THREADS")
# Call counts of one traced k=6 central-audit at the seed commit.
SEED_COMMIT_CENTRAL_CALLS = {
    "partial_fbi._slice_forward.calls": 6720,
    "partial_fbi.scatter_slice.calls": 6720,
    "partial_fbi.reconstruct_slice.calls": 960,
    "partial_fbi._slice_adjoint.calls": 1680,
    "partial_fbi._slice_axis_matrix.calls": 16800,
    "partial_fbi.axis_matrix.distinct": 56,
}


def log(msg):
    print("[bench] %s" % msg, file=sys.stderr, flush=True)


def setup(name, seed, workdir, size):
    """Import contactfbi, write configs, build inputs; return (wl, s)."""
    t0 = time.perf_counter()
    import workloads
    wl = workloads.WORKLOADS[name](seed, workdir, size)
    return wl, time.perf_counter() - t0


def setup_in_child(args):
    cmd = [sys.executable, os.path.abspath(__file__), "--workload",
           args.workload, "--seed", str(args.seed), "--seconds", "0",
           "--trace", "0", "--size", args.size, "--setup-only"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=150)
    if proc.returncode != 0:
        raise RuntimeError("set-up child exited %d: %s"
                           % (proc.returncode, proc.stderr[-2000:]))
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


def run_ops(ops, failures):
    """Run (name, fn) ops; return (attempted, failed)."""
    failed = 0
    for name, fn in ops:
        try:
            msgs = fn()
        except Exception as exc:  # an op that raises counts as failed
            msgs = ["raised %s: %s" % (type(exc).__name__, exc)]
        if msgs:
            failed += 1
            failures.extend("%s: %s" % (name, m) for m in msgs)
            log("FAIL %s: %s" % (name, "; ".join(msgs)))
    return len(ops), failed


def environment():
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version")}
    except (KeyError, TypeError, ValueError):
        blas = None
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                env=env, capture_output=True, text=True,
                                timeout=30).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "contactfbi")
    for fname in sorted(os.listdir(pkg)):
        if fname.endswith(".py"):
            with open(os.path.join(pkg, fname), "rb") as fh:
                digest.update(fname.encode() + b"\0" + fh.read())
    return {"commit": commit, "source_sha256": digest.hexdigest(),
            "python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__, "cpu_count": os.cpu_count(),
            "blas": blas, "thread_env": {k: os.environ.get(k)
                                         for k in THREAD_ENV}}


def measure(wl, seconds, tracer, failures):
    """Run passes; return per-pass walls, cpu times and trace snapshots.

    Passes run until at least MIN_PASSES are done and another pass of
    median length would end past `seconds`.  With a tracer, the passes of
    the first half of the time run untraced and the rest traced, at least
    one.
    """
    walls, cpus, snaps = [], [], []
    attempted = failed = 0
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        done = len(walls) >= MIN_PASSES and \
            elapsed + statistics.median(walls) > seconds
        if tracer is not None and not tracer.installed and walls and \
                (done or elapsed >= seconds / 2.0):
            missing = tracer.install()
            if missing:
                log("not traced (absent): %s" % ", ".join(missing))
        traced = tracer is not None and tracer.installed
        if done and (snaps or not traced):
            break
        if traced:
            tracer.reset()
        c0, t0 = time.process_time(), time.perf_counter()
        a, f = run_ops(wl.ops(), failures)
        walls.append(time.perf_counter() - t0)
        cpus.append(time.process_time() - c0)
        if traced:
            snaps.append(tracer.snapshot())
        attempted, failed = attempted + a, failed + f
        log("pass %d: %.3f s%s" % (len(walls), walls[-1],
                                   " traced" if traced else ""))
    return walls, cpus, snaps, attempted, failed


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=SIZES, default="full",
                        help="smoke shrinks every problem for the harness "
                             "test")
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "contactfbi", "__init__.py")):
        log("no contactfbi sources under %s" % SRC)
        return 2
    sys.path.insert(0, SRC)
    scratch = os.path.join(HERE, ".work")
    os.makedirs(scratch, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="%s-" % args.workload, dir=scratch)
    try:
        wl, setup_s = setup(args.workload, args.seed, workdir, args.size)
        import contactfbi
        if os.path.dirname(os.path.abspath(contactfbi.__file__)) != \
                os.path.join(SRC, "contactfbi"):
            log("contactfbi imported from %s" % contactfbi.__file__)
            return 2
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        children = SETUP_SAMPLES - 1
        setups = [setup_s] + [setup_in_child(args)
                              for _ in range(children // 2)]

        failures = []
        tracer = None
        if args.trace:
            from tracer import Tracer, metric_units
            tracer = Tracer()
        try:
            walls, cpus, snaps, attempted, failed = measure(
                wl, args.seconds, tracer, failures)
            if tracer is not None:
                tracer.reset()
            a, f = run_ops(wl.final_ops(tracer is not None), failures)
            final_snap = tracer.snapshot() if tracer is not None else None
        finally:
            if tracer is not None:
                tracer.restore()
        attempted, failed = attempted + a, failed + f
        setups += [setup_in_child(args)
                   for _ in range(children - children // 2)]
        log("setup: %s" % ", ".join("%.3f" % s for s in setups))

        meta = {"workload": args.workload, "seed": args.seed,
                "size": args.size, "passes": len(walls),
                "pass_walls_s": walls, "pass_cpu_s": cpus,
                "setup_samples_s": setups,
                "sizes": wl.sizes, "observed": wl.observed,
                "failures": failures[:20]}
        meta.update(environment())
        if tracer is None:
            metrics = {
                "pass_s": (statistics.median(walls), "s"),
                "setup_s": (statistics.median(setups), "s"),
                "peak_rss_mb": (resource.getrusage(
                    resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            }
        else:
            units = metric_units()
            metrics = {name: (statistics.median(s[name] for s in snaps),
                              unit) for name, unit in units.items()}
            untraced = walls[:len(walls) - len(snaps)]
            metrics["process.cpu_s"] = (
                statistics.median(cpus[:len(untraced)]), "s")
            metrics["process.tracing_overhead_s"] = (
                statistics.median(walls[len(untraced):])
                - statistics.median(untraced), "s")
            metrics["process.error_rate"] = (failed / attempted, "ratio")
            if args.workload == "central" and args.size == "full":
                counts = {k: final_snap[k] for k in SEED_COMMIT_CENTRAL_CALLS}
                meta["central_audit_calls"] = counts
                meta["seed_commit_call_counts_match"] = \
                    counts == SEED_COMMIT_CENTRAL_CALLS
        print(json.dumps({"meta": meta}, default=str))
        print(json.dumps({
            "correct": failed == 0, "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": u}
                        for k, (v, u) in metrics.items()}}), flush=True)
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
