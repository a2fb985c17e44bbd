"""The benchmark workloads: set-up, the ops of one pass, and their checks.

Each op returns a list of failure messages; an empty list means every
check on its outputs held.  Reference values in reference.json were
recorded at the seed commit; values that depend on the seed are compared
tightly at DEFAULT_SEED and loosely, or not at all, at other seeds.

Sizes: "full" is what the benchmark measures; "smoke" shrinks every
problem so that the harness test runs in seconds, and skips the
reference comparisons, which only hold at full size.
"""

import csv
import json
import os

import numpy as np

from contactfbi import aniso_norm, cli, fbi_core, numerics, partial_fbi, \
    spectra, transfer_ops

DEFAULT_SEED = 0
HERE = os.path.dirname(os.path.abspath(__file__))

with open(os.path.join(HERE, "reference.json")) as _fh:
    REFERENCE = json.load(_fh)


def _close(label, got, want, rtol):
    if abs(got - want) <= rtol * abs(want):
        return []
    return ["%s = %.17g, reference %.17g (rtol %g)" % (label, got, want, rtol)]


def _write(path, text):
    with open(path, "w") as fh:
        fh.write(text)
    return path


class Workload:
    """Base: a workload owns its configs and inputs in workdir."""

    def __init__(self, seed, workdir, size):
        self.seed = int(seed)
        self.workdir = workdir
        self.full = size == "full"
        self.sizes = {}
        self.observed = {}

    def run_cli(self, sub, cfg, *extra):
        """Run one subcommand in-process; return (code, summary, out dir)."""
        out = os.path.join(self.workdir, "out-" + sub)
        code = cli.main([sub, "--config", cfg, "--out", out,
                         "--seed", str(self.seed)] + list(extra))
        with open(os.path.join(out, "summary.json")) as fh:
            summary = json.load(fh)
        return code, summary, out

    def seeded_rtol(self, tight, loose):
        return tight if self.seed == DEFAULT_SEED else loose

    def ops(self):
        """(name, callable) pairs of one timed pass."""
        raise NotImplementedError

    def final_ops(self, traced):
        """(name, callable) ops run once after the timed passes."""
        return []


def _exit_ok(sub, code):
    return [] if code == 0 else ["%s exited %d" % (sub, code)]


class Central(Workload):
    """The central block of the C14 config at k = 6.

    A pass is one step of central-audit's power iteration for both
    blocks: four block applications, where the whole audit makes 240.
    The audit itself runs once, in the traced run only.
    """

    CONFIG = ("d = 1\nflow_points = %d\nflow_half_period = %r\n"
              "map_family = shear\nmap_lam = 2.0\nmap_eps = 0.3\n"
              "amplitude = flow\nr = 1.0\nbig_n = 8.0\nks = %d\n")
    # (audit k, flow points, k of the timed step); at smoke size the
    # audited block vanishes (k^2 <= big_n / 2), which keeps it cheap.
    PARAMS = {"full": (6, 8, 6), "smoke": (2, 2, 3)}
    # Frame options that central-audit passes to central_block_audit.
    FRAME = {"c_margin": 2.5, "f_margin": 1.0, "ghat_offsets": 3}

    def __init__(self, seed, workdir, size):
        super().__init__(seed, workdir, size)
        self.k, n0, k_step = self.PARAMS[size]
        self.config = _write(os.path.join(workdir, "central.cfg"),
                             self.CONFIG % (n0, float(np.pi / 2.0), self.k))
        cfg = cli.ExperimentConfig.from_file(self.config)
        flow = partial_fbi.FlowGrid(cfg.flow_half_period, cfg.flow_points)
        spec = transfer_ops.TransferSpec(cfg.contact_map(),
                                         cfg.amplitude_fn(), name=cfg.tag)
        self.frame = spectra.CentralFrame(spec, k_step, cfg.weight, flow,
                                          **self.FRAME)
        self.blocks = [spectra.CentralBlock(self.frame, primed=p)
                       for p in (False, True)]
        rng = np.random.default_rng(self.seed)
        shape_in = (self.frame.eta0.size, self.frame.pg_in.num_points)
        shape_out = (self.frame.xi0.size, self.frame.pg_out.num_points)
        self.pair = [rng.standard_normal(s) + 1j * rng.standard_normal(s)
                     for s in (shape_in, shape_out)]
        self.sizes = dict(self.frame.sizes(), flow_slices=flow.n_points,
                          rows_in=int(np.prod(shape_in)),
                          rows_out=int(np.prod(shape_out)))

    def ops(self):
        return [("central-step", self.step)]

    def final_ops(self, traced):
        # one full audit takes about as long as a whole timed run, so it
        # runs only in the traced run, where its call counts are recorded
        return [("central-audit", self.audit)] if traced else []

    def step(self):
        """One power-iteration step of the audit, for both blocks.

        Applies the true block and its surrogate, and their adjoints, to
        the seeded pair and checks <A u, w> = <u, A* w> for each.
        """
        u, w = self.pair
        fails = []
        norms = {}
        for primed, block in zip((False, True), self.blocks):
            au = block.apply(u)
            aw = block.apply_adjoint(w)
            lhs, rhs = np.vdot(w, au), np.vdot(aw, u)
            scale = np.linalg.norm(au) * np.linalg.norm(w)
            if not abs(lhs - rhs) <= 1e-10 * scale:
                fails.append("primed=%s adjoint defect %.3g of %.3g"
                             % (primed, abs(lhs - rhs), scale))
            norms["primed" if primed else "true"] = [
                float(np.linalg.norm(au)), float(np.linalg.norm(aw))]
        self.observed["step_norms"] = norms
        if self.full and self.seed == DEFAULT_SEED:
            ref = REFERENCE["central"]
            for key, want in ref["step_norms"].items():
                for label, g, r in zip(("|A u|", "|A* w|"), norms[key],
                                       want):
                    fails += _close("%s %s" % (key, label), g, r,
                                    ref["rtol_step"])
        return fails

    def audit(self):
        code, summary, out = self.run_cli("central-audit", self.config)
        fails = _exit_ok("central-audit", code)
        with open(os.path.join(out, "audit.csv")) as fh:
            rows = list(csv.DictReader(line for line in fh
                                       if not line.startswith("#")))
        if len(rows) != 1 or int(rows[0]["k"]) != self.k:
            return fails + ["audit.csv rows %r" % rows]
        row = rows[0]
        primed, diff = float(row["norm_primed"]), float(row["norm_diff"])
        self.observed.update(norm_primed=primed, norm_diff=diff)
        if not self.full:
            return fails + ([] if row["vanishes"] == "True"
                            else ["k=%d block should vanish" % self.k])
        ref = REFERENCE["central"]
        # power iteration from a seeded start: tight at the default seed,
        # within the iteration's convergence at any other seed
        rtol = self.seeded_rtol(ref["rtol_default_seed"],
                                ref["rtol_any_seed"])
        fails += _close("norm_primed", primed, ref["norm_primed"], rtol)
        fails += _close("norm_diff", diff, ref["norm_diff"], rtol)
        return fails


class Spectrum(Workload):
    """spectrum --refine 2 and lift-audit on the C10 toy config."""

    CONFIG = ("d = 1\nbox_half = 0.7\nn_per_axis = 4\nflow_points = %d\n"
              "n_freq = 4\nmap_lam = 4.0\ntag = toy\n")
    FLOW_POINTS = {"full": 4, "smoke": 2}
    LEADING = 6

    def __init__(self, seed, workdir, size):
        super().__init__(seed, workdir, size)
        self.config = _write(os.path.join(workdir, "spectrum.cfg"),
                             self.CONFIG % self.FLOW_POINTS[size])

    def ops(self):
        return [("spectrum", self.spectrum), ("lift-audit", self.lift_audit)]

    def spectrum(self):
        code, summary, _ = self.run_cli("spectrum", self.config,
                                        "--refine", "2")
        fails = _exit_ok("spectrum", code)
        levels = summary.get("levels", [])
        if len(levels) != 2:
            return fails + ["expected 2 levels, got %d" % len(levels)]
        if not summary["persistence"]["counts_match"]:
            fails.append("outlier counts differ: %r" % summary["persistence"])
        leading = [lv["moduli"][:self.LEADING] for lv in levels]
        rows = [lv["refinement"]["rows"] for lv in levels]
        self.observed = {"leading_moduli": leading, "rows": rows}
        self.sizes = {"levels": [
            {"rows": lv["refinement"]["rows"],
             "flow_slices": lv["refinement"]["n0"],
             "phase_points_per_slice":
                 lv["refinement"]["rows"] // lv["refinement"]["n0"]}
            for lv in levels]}
        if not self.full:
            return fails
        ref = REFERENCE["spectrum"]
        if rows != ref["rows"]:
            fails.append("rows %r, reference %r" % (rows, ref["rows"]))
        # the spectrum does not depend on the seed
        for i, (got, want) in enumerate(zip(leading, ref["leading_moduli"])):
            for j, (g, w) in enumerate(zip(got, want)):
                fails += _close("level %d modulus %d" % (i, j), g, w,
                                ref["rtol"])
        return fails

    def lift_audit(self):
        code, summary, _ = self.run_cli("lift-audit", self.config)
        fails = _exit_ok("lift-audit", code)
        self.observed["lift_rows"] = summary.get("rows")
        if self.full and summary.get("rows") != REFERENCE["spectrum"][
                "lift_rows"]:
            fails.append("lift-audit rows %r" % summary.get("rows"))
        return fails


def volume_suite(rng, count):
    """Seeded smooth fields on the periodic flow x transversal box.

    Flow harmonics stay within |m| <= 3 and the transversal Gaussians
    decay well inside the box, so the coarsest grid resolves them.
    """
    funcs = []
    for _ in range(count):
        m = int(rng.integers(-2, 3))
        amp = rng.uniform(0.0, 0.5)
        center = rng.uniform(-0.2, 0.2, size=2)
        width = rng.uniform(0.2, 0.35)
        freq = rng.uniform(-3.0, 3.0, size=2)

        def f(p, m=m, a=amp, c=center, w=width, q=freq):
            yd = p[:, 1:]
            return (1.0 + a * np.sin(p[:, 0])) * np.exp(
                1j * m * p[:, 0] + 1j * yd @ q
                - np.sum((yd - c) ** 2, axis=-1) / w)
        funcs.append(f)
    return funcs


class Norms(Workload):
    """sobolev_norms on the C9 grids plus four small CLI audits."""

    IDENTITY = ("d = 1\nbox_half = 5.0\nn_per_axis = 26\nflow_points = 6\n"
                "tol = 1e-5\ntag = identity-fine\n")
    NORM_BOUND = {"full": "d = 1\n",
                  "smoke": "d = 1\nlams = 4, 8\ns_values = 1\n"}
    LOWER_BOUND = ("d = 1\nbox_half = 1.6\nn_per_axis = 14\n"
                   "flow_points = 16\nmap_family = shear\nmap_lam = 2.0\n"
                   "map_eps = 0.2\namplitude = flow\nn_ks = 2, 6\n"
                   "window_m = 1.0\n")
    PARTITION = "d = 1\ntag = partition\n"
    # (n0, nt) grids of C9, and the number of suite functions
    GRIDS = {"full": ((8, 14), (12, 20)), "smoke": ((4, 8), (6, 10))}
    SUITE = 1
    R = 1.0
    # C9 criterion: the equivalence constant drifts < 10% under refinement
    DRIFT = 0.10

    def __init__(self, seed, workdir, size):
        super().__init__(seed, workdir, size)
        path = lambda name: os.path.join(workdir, name)
        self.configs = {
            "check-identity": _write(path("identity.cfg"), self.IDENTITY),
            "norm-bound": _write(path("norm.cfg"), self.NORM_BOUND[size]),
            "lower-bound": _write(path("lower.cfg"), self.LOWER_BOUND),
            "partition-audit": _write(path("partition.cfg"), self.PARTITION),
        }
        suite = volume_suite(np.random.default_rng(self.seed), self.SUITE)
        self.volumes = []
        self.sizes = {"grids": []}
        for n0, nt in self.GRIDS[size]:
            flow = partial_fbi.FlowGrid(np.pi, n0)
            trans = numerics.make_grid(2, 1.6, nt)
            self.volumes.append([partial_fbi.sample_volume(f, flow, trans)
                                 for f in suite])
            pg = fbi_core.dual_phase_grid(trans, center_margin=3.5)
            self.sizes["grids"].append(
                {"flow_slices": n0, "transversal_points": nt * nt,
                 "phase_points_per_slice": pg.num_points})

    def ops(self):
        ops = [("sobolev-%d" % i, lambda i=i: self.sobolev(i))
               for i in range(self.SUITE)]
        return ops + [("check-identity", self.check_identity),
                      ("norm-bound", self.norm_bound),
                      ("lower-bound", self.lower_bound),
                      ("partition-audit", self.partition_audit)]

    def sobolev(self, i):
        pairs = [aniso_norm.sobolev_norms(vols[i], self.R)
                 for vols in self.volumes]
        self.observed.setdefault("sobolev", {})[str(i)] = pairs
        fails = []
        ratios = [p / f for f, p in pairs]
        if not all(0.5 < r < 2.0 for r in ratios):
            fails.append("suite %d ratios %r outside (0.5, 2)" % (i, ratios))
        drift = abs(ratios[1] - ratios[0]) / ratios[0]
        if not drift < self.DRIFT:
            fails.append("suite %d drift %.3g" % (i, drift))
        if self.full and self.seed == DEFAULT_SEED:
            ref = REFERENCE["norms"]
            for g, (got, want) in enumerate(zip(pairs, ref["sobolev"][i])):
                fails += _close("suite %d grid %d fourier" % (i, g), got[0],
                                want[0], ref["rtol"])
                fails += _close("suite %d grid %d pfbi" % (i, g), got[1],
                                want[1], ref["rtol"])
        return fails

    def check_identity(self):
        code, summary, _ = self.run_cli("check-identity",
                                        self.configs["check-identity"])
        fails = _exit_ok("check-identity", code)
        if not summary.get("worst_defect", np.inf) <= summary["tolerance"]:
            fails.append("worst_defect %r" % summary.get("worst_defect"))
        return fails

    def norm_bound(self):
        code, summary, _ = self.run_cli("norm-bound",
                                        self.configs["norm-bound"])
        fails = _exit_ok("norm-bound", code)
        self.observed["fitted_c"] = summary.get("fitted_c")
        if self.full:
            ref = REFERENCE["norms"]
            fails += _close("fitted_c", summary["fitted_c"], ref["fitted_c"],
                            self.seeded_rtol(ref["rtol"],
                                             ref["rtol_power_any_seed"]))
        return fails

    def lower_bound(self):
        code, summary, _ = self.run_cli("lower-bound",
                                        self.configs["lower-bound"])
        fails = _exit_ok("lower-bound", code)
        self.observed["min_ratio"] = summary.get("min_ratio")
        if self.full:
            ref = REFERENCE["norms"]
            # lower-bound draws nothing from the seed
            fails += _close("min_ratio", summary["min_ratio"],
                            ref["min_ratio"], ref["rtol"])
        return fails

    def partition_audit(self):
        code, summary, _ = self.run_cli("partition-audit",
                                        self.configs["partition-audit"])
        fails = _exit_ok("partition-audit", code)
        if summary.get("passed") is not True:
            fails.append("partition-audit not passed: %r" % summary)
        return fails


WORKLOADS = {"central": Central, "spectrum": Spectrum, "norms": Norms}
