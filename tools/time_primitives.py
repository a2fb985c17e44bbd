"""Time the weighted-norm, central-block, slice-transform and spectrum
primitives of one or more source trees.

    python tools/time_primitives.py --src parent=../old/src --src change=src \
        [--repeats 30] [--rounds 3] [--out BENCH.json]

Each --src LABEL=PATH names a directory holding a contactfbi package.
Every round runs one fresh process per source tree, in the order given,
and each process times, --repeats times over the same inputs:

* slice_weight: the weights of every flow slice of the lower-bound phase
  grid, at the weight exponent r of the config;
* weighted_gram: the Gram matrix of the windowed packets and their
  images that lower_bound_family hands it on that config;
* weighted_norm_measure: the norms of a norm-bound sweep, every lam and
  every s of the config, one call per lam where the function takes a
  sequence of s values and one call per (lam, s) where it takes one;
* CentralBlock.apply / CentralBlock.apply_adjoint: the true block and
  its surrogate on the k = 6 central frame of the central config,
  applied to a pair seeded with 0;
* _slice_forward / reconstruct_slice / scatter_slice: every call of that
  slice transform made by one apply and one apply_adjoint of both
  blocks, replayed on the arguments recorded from them;
* model_spectrum: the spectra of both refinement levels that
  spectrum --refine 2 plans on the C10 toy config (4 and 6 flow
  slices), against the bound that spectrum computes; its output is the
  moduli of both levels.

The configs are those of the lower-bound and norm-bound ops of the
benchmark's norms workload, the frame of its central workload and the
config of its spectrum workload (bench/workloads.py).  The result
holds, per tree and primitive, the median and quartiles of the pooled
timings, and the largest relative difference of each output from the
first tree's; each tree is named by its label and a digest of its
package files.  It is printed, and written
to --out when given.
"""

import argparse
import hashlib
import inspect
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time

import numpy as np

LOWER_BOUND = {"d": 1, "box_half": 1.6, "n_per_axis": 14, "flow_points": 16,
               "map_family": "shear", "map_lam": 2.0, "map_eps": 0.2,
               "amplitude": "flow", "n_ks": [2, 6], "window_m": 1.0}
NORM_BOUND = {"d": 1}
# the full-size Central workload: its config, the k of its timed step and
# the frame options that central-audit passes
CENTRAL = {"d": 1, "flow_points": 8, "flow_half_period": float(np.pi / 2.0),
           "map_family": "shear", "map_lam": 2.0, "map_eps": 0.3,
           "amplitude": "flow", "r": 1.0, "big_n": 8.0, "ks": 6}
CENTRAL_K = 6
CENTRAL_FRAME = {"c_margin": 2.5, "f_margin": 1.0, "ghat_offsets": 3}
# the full-size Spectrum workload's C10 toy config, run with --refine 2
SPECTRUM = {"d": 1, "box_half": 0.7, "n_per_axis": 4, "flow_points": 4,
            "n_freq": 4, "map_lam": 4.0, "tag": "toy"}
SPECTRUM_REFINE = 2
SLICE_CALLS = ("_slice_forward", "reconstruct_slice", "scatter_slice")
PRIMITIVES = ("slice_weight", "weighted_gram", "weighted_norm_measure",
              "CentralBlock.apply", "CentralBlock.apply_adjoint") \
    + SLICE_CALLS + ("model_spectrum",)


def _timed(fn, repeats):
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        out = fn()
        times.append(time.perf_counter() - t0)
    return times, out


def child(src, repeats, out_path):
    """Time the primitives of the package under src; save the outputs to
    out_path and print the timings as JSON."""
    sys.path.insert(0, os.path.abspath(src))
    from contactfbi import aniso_norm, cli, partial_fbi, spectra, \
        transfer_ops
    cfg = cli.ExperimentConfig(LOWER_BOUND)
    flow, trans, pg = cli.SUBCOMMANDS["lower-bound"][0](cfg, 1)
    captured = []
    gram = spectra.weighted_gram

    def capture(vols, pg_, wspec):
        captured.append((vols, pg_, wspec))
        return gram(vols, pg_, wspec)
    spectra.weighted_gram = capture
    try:
        spectra.lower_bound_family(cfg.transfer_spec(), flow, trans, pg,
                                   cfg.n_ks, cfg.weight, m=cfg.window_m)
    finally:
        spectra.weighted_gram = gram
    (vols, gram_pg, wspec), = captured
    r = cfg.weight.r

    norm_cfg = cli.ExperimentConfig(NORM_BOUND)
    half = (norm_cfg.norm_half_width,) * (2 * norm_cfg.d)
    takes_all = "s_values" in inspect.signature(
        spectra.weighted_norm_measure).parameters

    def sweep():
        rows = []
        for lam in norm_cfg.lams:
            b = np.diag([lam] * norm_cfg.d + [1.0 / lam] * norm_cfg.d)
            kw = dict(half_widths=half, spacing=norm_cfg.norm_spacing)
            if takes_all:
                rows.append(spectra.weighted_norm_measure(
                    b, norm_cfg.s_values, norm_cfg.weight.r, **kw))
            else:
                rows.append([spectra.weighted_norm_measure(
                    b, s, norm_cfg.weight.r, **kw)
                    for s in norm_cfg.s_values])
        return np.array(rows)

    ccfg = cli.ExperimentConfig(CENTRAL)
    frame = spectra.CentralFrame(
        ccfg.transfer_spec(), CENTRAL_K, ccfg.weight,
        partial_fbi.FlowGrid(ccfg.flow_half_period, ccfg.flow_points),
        **CENTRAL_FRAME)
    blocks = [spectra.CentralBlock(frame, primed=p) for p in (False, True)]
    rng = np.random.default_rng(0)
    u, w = [rng.standard_normal(s) + 1j * rng.standard_normal(s)
            for s in ((frame.eta0.size, frame.pg_in.num_points),
                      (frame.xi0.size, frame.pg_out.num_points))]
    # the block applications call the slice transforms through the names
    # transfer_ops imported; record their arguments there
    slice_args = {name: [] for name in SLICE_CALLS}

    def recorder(name, fn):
        def record(*args):
            slice_args[name].append(args)
            return fn(*args)
        return record
    for name in SLICE_CALLS:
        setattr(transfer_ops, name,
                recorder(name, getattr(partial_fbi, name)))
    try:
        for block in blocks:
            block.apply(u)
            block.apply_adjoint(w)
    finally:
        for name in SLICE_CALLS:
            setattr(transfer_ops, name, getattr(partial_fbi, name))

    def replay(name):
        fn = getattr(partial_fbi, name)
        return lambda: [fn(*args) for args in slice_args[name]]

    # the levels spectrum --refine 2 plans: 2 more flow points per level
    scfg = cli.ExperimentConfig(SPECTRUM)
    levels = [cli._volume_grids(scfg, scfg.flow_points + 2 * level,
                                scfg.n_per_axis, True)
              for level in range(SPECTRUM_REFINE)]
    sspec = scfg.transfer_spec()
    _, _, bound = transfer_ops.lambda_delta(sspec, levels[0][0], levels[0][1],
                                            scfg.map_lam, scfg.weight.r)

    def spectrum():
        reps = spectra.model_spectrum(sspec, levels, bound,
                                      margin=scfg.margin)
        return np.concatenate([rep.moduli for rep in reps])

    calls = {
        "slice_weight": lambda: np.stack(
            [aniso_norm.slice_weight(pg, xi0, r) for xi0 in flow.freqs()]),
        "weighted_gram": lambda: spectra.weighted_gram(vols, gram_pg,
                                                       wspec),
        "weighted_norm_measure": sweep,
        "CentralBlock.apply": lambda: [b.apply(u) for b in blocks],
        "CentralBlock.apply_adjoint": lambda: [b.apply_adjoint(w)
                                               for b in blocks],
        "model_spectrum": spectrum,
    }
    calls.update((name, replay(name)) for name in SLICE_CALLS)
    times, outputs = {}, {}
    for name in PRIMITIVES:
        times[name], out = _timed(calls[name], repeats)
        # lists of outputs are stacked after the timing
        outputs[name] = np.asarray(out)
    np.savez(out_path, **outputs)
    print(json.dumps(times))


def _digest(src):
    """sha256 over the names and contents of the package's .py files."""
    digest = hashlib.sha256()
    pkg = os.path.join(src, "contactfbi")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return digest.hexdigest()


def _max_rel_diff(got, want):
    """Largest |got - want| relative to the largest |want|: the packet
    outputs span many decades (the central block's down to 1e-24 of the
    largest value), where an entrywise ratio measures only the rounding
    of values too small to matter."""
    got, want = np.asarray(got), np.asarray(want)
    if got.shape != want.shape:
        return float("inf")
    return float(np.max(np.abs(got - want)) / np.max(np.abs(want)))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", action="append", default=[],
                        metavar="LABEL=PATH")
    parser.add_argument("--repeats", type=int, default=30)
    parser.add_argument("--rounds", type=int, default=3)
    parser.add_argument("--out", default=None)
    parser.add_argument("--child", default=None, help=argparse.SUPPRESS)
    parser.add_argument("--save", default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        child(args.child, args.repeats, args.save)
        return 0
    if not args.src:
        parser.error("give at least one --src LABEL=PATH")
    trees = [tuple(s.split("=", 1)) for s in args.src]
    pooled = {label: {name: [] for name in PRIMITIVES} for label, _ in trees}
    with tempfile.TemporaryDirectory() as tmp:
        saves = {label: os.path.join(tmp, "%d.npz" % i)
                 for i, (label, _) in enumerate(trees)}
        for _ in range(args.rounds):
            for label, path in trees:
                proc = subprocess.run(
                    [sys.executable, os.path.abspath(__file__),
                     "--child", path, "--save", saves[label],
                     "--repeats", str(args.repeats)],
                    capture_output=True, text=True, check=True)
                for name, times in json.loads(
                        proc.stdout.strip().splitlines()[-1]).items():
                    pooled[label][name] += times
        outputs = {label: dict(np.load(saves[label])) for label, _ in trees}
    first = trees[0][0]
    result = {
        "command": "python tools/time_primitives.py " + " ".join(
            "--src %s=PATH" % label for label, _ in trees)
        + " --repeats %d --rounds %d" % (args.repeats, args.rounds),
        "sources_sha256": {label: _digest(path) for label, path in trees},
        "machine": {"platform": platform.platform(),
                    "processor": platform.processor(),
                    "cpu_count": os.cpu_count(),
                    "python": platform.python_version(),
                    "numpy": np.__version__},
        "configs": {"lower-bound": LOWER_BOUND, "norm-bound": NORM_BOUND,
                    "central": dict(CENTRAL, k=CENTRAL_K, **CENTRAL_FRAME),
                    "spectrum": dict(SPECTRUM, refine=SPECTRUM_REFINE)},
        "unit": "s",
        "timings": {},
        "max_rel_diff_from_%s" % first: {},
    }
    for label, _ in trees:
        result["timings"][label] = {}
        for name in PRIMITIVES:
            q1, median, q3 = statistics.quantiles(pooled[label][name], n=4,
                                               method="inclusive")
            result["timings"][label][name] = {
                "median": median, "q1": q1, "q3": q3,
                "samples": len(pooled[label][name])}
        result["max_rel_diff_from_%s" % first][label] = {
            name: _max_rel_diff(outputs[label][name], outputs[first][name])
            for name in PRIMITIVES}
    text = json.dumps(result, indent=2)
    print(text)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
