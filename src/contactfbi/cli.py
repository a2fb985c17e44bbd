"""Command line driver for the desk-scale experiments.

Each invocation runs one subcommand against one configuration file and
writes a JSON summary plus CSV tables into the output directory.  Exit
code 0 means the run finished and all configured tolerances held, 1 means
a tolerance failed or the run stopped on an error (summary.json then names
it in error and error_kind), 2 means the configuration was unusable.
"""

import argparse
import csv
import json
import os
import sys

import numpy as np

from . import __version__
from .aniso_norm import (WeightSpec, _rescaled_twist, chi_n, cutoffs,
                         psi_dyadic_members, q_k, q_tilde_separation)
from .contact_geometry import ContactMap
from .fbi_core import det_factor, dual_phase_grid, fbi_roundtrip
from .numerics import make_grid, sample
from .partial_fbi import (FlowGrid, check_transversal_spacing,
                          min_transversal_points, pfbi_roundtrip,
                          sample_volume)
from .spectra import (central_block_audit, check_flow_frequencies,
                      check_solve_budget, lower_bound_family, model_spectrum,
                      norm_grid, norm_weights, persistent_outliers,
                      weighted_norm_measure)
from .transfer_ops import (AxisProduct, TransferSpec, kernel_bound_audit,
                           lambda_delta, lift_fingerprint)


class ConfigError(Exception):
    """Raised for unreadable or out-of-range configuration input."""


def _coerce(text):
    text = text.strip()
    if "," in text:
        return [_coerce(p) for p in text.split(",") if p.strip()]
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            pass
    return text


def _parse_flat(lines):
    out = {}
    for i, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError("line %d: expected key = value, got %r"
                              % (i, raw.rstrip()))
        key, val = line.split("=", 1)
        key = key.strip()
        if not key or any(c.isspace() for c in key):
            raise ConfigError("line %d: bad key %r" % (i, key))
        out[key] = _coerce(val)
    return out


_DEFAULTS = {
    "d": 1,
    "box_half": 1.6,
    "n_per_axis": 12,
    "flow_half_period": float(np.pi),
    "flow_points": 8,
    "r": 4.0,
    "tau": None,
    "big_n": 32.0,
    "delta": 0.1,
    "map_family": "linear",
    "map_lam": 4.0,
    "map_eps": 0.0,
    "amplitude": "bump",
    "amp_width": 0.5,
    "tol": 1e-6,
    "lams": [4.0, 8.0, 16.0, 32.0],
    "s_values": [1.0, 16.0, 256.0],
    "norm_half_width": 2.0,
    "norm_spacing": 0.35,
    "n_ks": [2, 6],
    "window_m": 1.0,
    "ks": [6, 8, 12],
    "n_freq": None,
    "margin": 0.1,
    "samples": 1000,
    "tag": "run",
}


class ExperimentConfig:
    """Validated parameter set for one experiment."""

    def __init__(self, mapping):
        data = dict(_DEFAULTS)
        unknown = set(mapping) - set(data) - {"out_dir"}
        if unknown:
            raise ConfigError("unknown config keys: %s"
                              % ", ".join(sorted(unknown)))
        data.update(mapping)
        self.raw = data
        try:
            self._read(data)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigError("bad config value: %s" % exc)

    def _read(self, data):
        self.d = _count("d", data["d"])
        if self.d < 1:
            raise ConfigError("d must be >= 1")
        self.box_half = _real("box_half", data["box_half"])
        self.n_per_axis = _count("n_per_axis", data["n_per_axis"])
        self.flow_half_period = _real("flow_half_period",
                                      data["flow_half_period"])
        self.flow_points = _count("flow_points", data["flow_points"])
        if self.box_half <= 0 or self.flow_half_period <= 0:
            raise ConfigError("box sizes must be positive")
        if self.n_per_axis < 4 or self.n_per_axis % 2:
            raise ConfigError("n_per_axis must be even and at least 4")
        if self.flow_points < 2 or self.flow_points % 2:
            raise ConfigError("flow_points must be even and at least 2")
        # WeightSpec refuses a tau outside its open interval, NaN included
        self.weight = WeightSpec(r=_real("r", data["r"]), d=self.d,
                                 tau=data["tau"],
                                 big_n=_real("big_n", data["big_n"]),
                                 delta=_real("delta", data["delta"]))
        self.map_family = str(data["map_family"])
        self.map_lam = _real("map_lam", data["map_lam"])
        self.map_eps = _real("map_eps", data["map_eps"])
        if self.map_family not in ("linear", "shear"):
            raise ConfigError("map_family must be linear or shear")
        if self.map_family == "shear" and self.d != 1:
            raise ConfigError("map_family shear needs d = 1")
        if self.map_lam <= 1.0:
            raise ConfigError("map_lam must exceed 1")
        self.amplitude = str(data["amplitude"])
        if self.amplitude not in ("bump", "flow", "constant", "zero"):
            raise ConfigError("unknown amplitude %r" % self.amplitude)
        self.amp_width = _real("amp_width", data["amp_width"])
        self.tol = _real("tol", data["tol"])
        self.lams = [_real("lams", v) for v in _aslist(data["lams"])]
        self.s_values = [_real("s_values", v)
                         for v in _aslist(data["s_values"])]
        self.norm_half_width = _real("norm_half_width",
                                     data["norm_half_width"])
        self.norm_spacing = _real("norm_spacing", data["norm_spacing"])
        if not all(v > 1.0 for v in self.lams):
            raise ConfigError("lams must each exceed 1")
        if len(set(self.lams)) < 2:
            raise ConfigError("lams needs at least two distinct values to "
                              "fit a slope")
        if not all(v >= 1.0 for v in self.s_values):
            raise ConfigError("s_values must each be at least 1")
        if not (self.norm_half_width > 0 and self.norm_spacing > 0):
            raise ConfigError("norm_half_width and norm_spacing must be "
                              "positive")
        self.n_ks = [_real("n_ks", v) for v in _aslist(data["n_ks"])]
        self.window_m = _real("window_m", data["window_m"])
        if not (self.amp_width > 0 and self.window_m > 0):
            raise ConfigError("amp_width and window_m must be positive")
        self.ks = [_count("ks", v) for v in _aslist(data["ks"])]
        if not all(k >= 1 for k in self.ks):
            raise ConfigError("ks must each be at least 1")
        self.n_freq = data["n_freq"]
        if self.n_freq is not None:
            self.n_freq = _count("n_freq", self.n_freq)
            # every grid built from n_freq has at least n_per_axis points
            # per axis, and dual_phase_grid refuses n_freq below that
            if self.n_freq < self.n_per_axis:
                raise ConfigError("n_freq must be at least n_per_axis (%d)"
                                  % self.n_per_axis)
        self.margin = _real("margin", data["margin"])
        if self.margin < 0:
            raise ConfigError("margin must be non-negative, got %r"
                              % self.margin)
        self.samples = _count("samples", data["samples"])
        if self.samples < 1:
            raise ConfigError("samples must be at least 1")
        self.tag = str(data["tag"])

    @classmethod
    def from_file(cls, path):
        try:
            with open(path) as fh:
                text = fh.read()
        except OSError as exc:
            raise ConfigError("cannot read config %s: %s" % (path, exc))
        stripped = text.lstrip()
        if stripped.startswith("{"):
            try:
                mapping = json.loads(text)
            except json.JSONDecodeError as exc:
                raise ConfigError("config %s: %s" % (path, exc))
            if not isinstance(mapping, dict):
                raise ConfigError("config %s: top level must be an object"
                                  % path)
        else:
            mapping = _parse_flat(text.splitlines())
        return cls(mapping)

    def grid_meta(self):
        return {"d": self.d, "box_half": self.box_half,
                "n_per_axis": self.n_per_axis,
                "flow_half_period": self.flow_half_period,
                "flow_points": self.flow_points}

    def contact_map(self):
        """The shear map, or the linear map of diag(lam I_d, I_d / lam),
        given by its diagonal so that it is diagonal by definition."""
        if self.map_family == "shear":
            return ContactMap.shear(self.map_lam, self.map_eps)
        lam = self.map_lam
        return ContactMap.linear(np.array([lam] * self.d
                                          + [1.0 / lam] * self.d))

    def transfer_spec(self):
        """The configured map and amplitude, named by the tag."""
        return TransferSpec(self.contact_map(), self.amplitude_fn(),
                            name=self.tag)

    def amplitude_fn(self):
        """g on points (y0, y_dag); bump and constant are built from one
        factor per transversal axis (transfer_ops.AxisProduct)."""
        width = self.amp_width
        if self.amplitude == "zero":
            return lambda pts: np.zeros(pts.shape[0], dtype=complex)
        if self.amplitude == "flow":
            return lambda pts: (0.7 + 0.3 * np.cos(pts[:, 0])) * np.exp(
                -np.sum(pts[:, 1:] ** 2, axis=-1) / width)
        if self.amplitude == "constant":
            def factor(y):
                return np.ones(y.shape, dtype=complex)
        else:
            def factor(y):
                return np.exp(-y ** 2 / width)
        return AxisProduct([factor] * (2 * self.d))


def _count(key, val):
    """An integer config value; integral floats such as 8.0 pass."""
    count = int(val)
    if count != float(val):
        raise ConfigError("%s must be an integer, got %r" % (key, val))
    return count


def _real(key, val):
    """A real config value; NaN and infinities are refused."""
    real = float(val)
    if not np.isfinite(real):
        raise ConfigError("%s must be finite, got %r" % (key, val))
    return real


def _aslist(val):
    if isinstance(val, (list, tuple)):
        return list(val)
    return [val]


def _write_csv(path, meta, header, rows):
    with open(path, "w", newline="") as fh:
        fh.write("# " + " ".join("%s=%s" % kv for kv in sorted(meta.items()))
                 + "\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow(row)


def _suite(dim, rng):
    """Small family of smooth test functions on R^dim."""
    funcs = []
    for _ in range(4):
        center = rng.uniform(-0.4, 0.4, size=dim)
        width = rng.uniform(0.25, 0.6)
        freq = rng.uniform(-3.0, 3.0, size=dim)

        def f(pts, c=center, w=width, q=freq):
            return np.exp(-np.sum((pts - c) ** 2, axis=-1) / w
                          + 1j * pts @ q)
        funcs.append(f)
    return funcs


def _volume_grids(cfg, flow_points, min_points, fill_freq):
    """Flow grid, transversal grid of at least min_points per axis that is
    fine enough for the flow frequencies, and its phase grid.  With
    fill_freq an unset n_freq becomes the transversal point count, else
    dual_phase_grid's default."""
    flow = FlowGrid(cfg.flow_half_period, flow_points)
    trans = make_grid(2 * cfg.d, cfg.box_half,
                      max(min_points,
                          min_transversal_points(cfg.box_half, flow)))
    check_transversal_spacing(trans, flow)
    n_freq = cfg.n_freq or (trans.points_per_axis if fill_freq else None)
    return flow, trans, dual_phase_grid(trans, n_freq=n_freq)


def _identity_grids(cfg, refine):
    spaces = []
    for dim in (1, 2):
        grid = make_grid(dim, cfg.box_half, cfg.n_per_axis * refine)
        spaces.append((grid, dual_phase_grid(grid, n_freq=cfg.n_freq,
                                             center_margin=3.5)))
    return spaces, _volume_grids(cfg, cfg.flow_points * refine,
                                 cfg.n_per_axis * refine, False)


def _spectrum_levels(cfg, refine):
    """The configured transfer spec and the refinement levels of spectrum,
    each refused here when what its solve holds is over the dense budget
    (spectra.check_solve_budget, by the route of the spec's lift)."""
    levels = [_volume_grids(cfg, cfg.flow_points + 2 * level,
                            cfg.n_per_axis, True) for level in range(refine)]
    spec = cfg.transfer_spec()
    for flow, trans, _ in levels:
        check_solve_budget(spec, flow, trans)
    return spec, levels


def _lower_bound_grids(cfg, refine):
    """lower-bound's grids; refused when an n_k misses their flow lattice."""
    grids = _volume_grids(cfg, cfg.flow_points * refine,
                          cfg.n_per_axis * refine, False)
    check_flow_frequencies(cfg.n_ks, grids[0])
    return grids


def _norm_spacing(cfg, refine):
    """The spacing of norm-bound's grid, refused here when the grid's dense
    kernel is over the budget (spectra.norm_grid)."""
    spacing = cfg.norm_spacing / refine
    norm_grid((cfg.norm_half_width,) * (2 * cfg.d), spacing)
    return spacing


def run_check_identity(cfg, out, seed, grids):
    """Relative defect of T* T u against u for a seeded suite: the plain
    transform on a D = 1 and a D = 2 grid through fbi_roundtrip, and the
    partial transform through pfbi_roundtrip; both apply one summed packet
    Gram per axis and form no phase-space coefficient."""
    rng = np.random.default_rng(seed)
    spaces, (flow, trans, pg_vol) = grids
    rows = []
    worst = 0.0
    for grid, pg in spaces:
        for i, f in enumerate(_suite(grid.dim, rng)):
            u = sample(f, grid)
            back = fbi_roundtrip(u, pg)
            defect = np.sqrt(np.sum(np.abs(back.values - u.values) ** 2)
                             * grid.weight) / u.norm()
            worst = max(worst, defect)
            rows.append([grid.dim, i, grid.spacing, pg.num_points, defect])
    for i, f in enumerate(_suite(2 * cfg.d + 1, rng)):
        vol = sample_volume(f, flow, trans)
        back = pfbi_roundtrip(vol, pg=pg_vol)
        defect = np.sqrt(np.sum(np.abs(back.values - vol.values) ** 2)
                         * flow.spacing * trans.weight) / vol.norm()
        worst = max(worst, defect)
        rows.append([2 * cfg.d + 1, i, trans.spacing, flow.n_points, defect])
    _write_csv(os.path.join(out, "norms.csv"), cfg.grid_meta(),
               ["dim", "function", "spacing", "phase_points", "defect"],
               rows)
    summary = {"worst_defect": worst, "tolerance": cfg.tol,
               "passed": bool(worst <= cfg.tol)}
    return summary, 0 if worst <= cfg.tol else 1


def run_lift_audit(cfg, out, seed, grids):
    flow, trans, pg = grids
    spec = cfg.transfer_spec()
    audit = kernel_bound_audit(spec, flow, trans, pg, rho=1.0,
                               rng_seed=seed)
    rows = [[flow.n_points, trans.spacing, k, float(v)]
            for k, v in sorted(audit.items()) if np.isscalar(v)]
    _write_csv(os.path.join(out, "audit.csv"), cfg.grid_meta(),
               ["flow_points", "spacing", "quantity", "value"], rows)
    # the lift matrix is never assembled: its size and hash need only grids
    summary = {"rows": flow.n_points * pg.num_points,
               "fingerprint": lift_fingerprint(spec, flow, trans, pg),
               "audit": {k: float(v) for k, v in audit.items()
                         if np.isscalar(v)}}
    return summary, 0


def run_norm_bound(cfg, out, seed, spacing):
    half = tuple([cfg.norm_half_width] * (2 * cfg.d))
    # one kernel per lam, solved for every s: norms[i][j] is lam i, s j
    norms, branches = [], []
    for lam in cfg.lams:
        b = np.diag([lam] * cfg.d + [1.0 / lam] * cfg.d)
        norms.append(weighted_norm_measure(b, cfg.s_values, cfg.weight.r,
                                           half_widths=half, spacing=spacing))
        d_b = det_factor(b)
        branches.append(max(d_b ** -0.5, d_b ** 0.5 * lam ** -cfg.weight.r))
    rows = []
    ratios = []
    for j, s in enumerate(cfg.s_values):
        col = [vals[j] for vals in norms]
        for lam, val, branch in zip(cfg.lams, col, branches):
            ratios.append(val / branch)
            rows.append([s, lam, spacing, cfg.norm_half_width, val, branch,
                         val / branch])
        slope = float(np.polyfit(np.log(cfg.lams), np.log(col), 1)[0])
        rows.append([s, "slope", spacing, cfg.norm_half_width, slope, "", ""])
    _write_csv(os.path.join(out, "norms.csv"), cfg.grid_meta(),
               ["s", "lam", "spacing", "half_width", "norm", "branch",
                "ratio"], rows)
    _, solved = norm_weights(norm_grid(half, spacing), cfg.s_values,
                             cfg.weight.r)
    summary = {"fitted_c": float(np.max(ratios)), "r": cfg.weight.r,
               "distinct_weights": sum(solved)}
    return summary, 0


def run_partition_audit(cfg, out, seed, n):
    rng = np.random.default_rng(seed)
    x = rng.uniform(-2.0, 2.0, size=(n, 2 * cfg.d))
    xi = rng.uniform(-100.0, 100.0, size=(n, 2 * cfg.d + 1))
    chi_sum = sum(chi_n(np.linalg.norm(xi, axis=-1), m) for m in range(12))
    # the members lp_partition(m, x, xi), sharing one rescaled twist
    zeta = _rescaled_twist(x, xi)
    psi_sum = sum(psi_dyadic_members(zeta, range(-12, 13)))
    t = rng.uniform(-20.0, 20.0, size=n)
    q_sum = sum(q_k(t, k) for k in range(-22, 23))
    x0, ctr, hyp = cutoffs(x, xi, cfg.weight)
    cut_sum = x0 + ctr + hyp
    sep = q_tilde_separation(40)
    rows = [
        ["chi_n_sum_defect", float(np.max(np.abs(chi_sum - 1.0)))],
        ["lp_sum_defect", float(np.max(np.abs(psi_sum - 1.0)))],
        ["q_sum_defect", float(np.max(np.abs(q_sum - 1.0)))],
        ["cutoff_sum_defect", float(np.max(np.abs(cut_sum - 1.0)))],
        ["q_tilde_separation", sep],
    ]
    _write_csv(os.path.join(out, "audit.csv"),
               dict(cfg.grid_meta(), samples=n),
               ["quantity", "value"], rows)
    worst = max(v for k, v in rows if k.endswith("defect"))
    summary = {k: v for k, v in rows}
    summary["passed"] = bool(worst <= 1e-10 and sep > 0)
    return summary, 0 if summary["passed"] else 1


def run_spectrum(cfg, out, seed, plan):
    spec, levels = plan
    _, _, bound = lambda_delta(spec, levels[0][0], levels[0][1],
                               cfg.map_lam, cfg.weight.r)
    reports = model_spectrum(spec, levels, bound, margin=cfg.margin)
    for i, rep in enumerate(reports, start=1):
        rep.save_csv(os.path.join(out, "eigenvalues.csv" if i == len(reports)
                                  else "eigenvalues_level%d.csv" % i))
    summary = {"bound": bound,
               "levels": [rep.to_dict() for rep in reports]}
    if len(reports) == 2:
        summary["persistence"] = persistent_outliers(*reports)
    return summary, 0


def run_lower_bound(cfg, out, seed, grids):
    flow, trans, pg = grids
    spec = cfg.transfer_spec()
    res = lower_bound_family(spec, flow, trans, pg, cfg.n_ks, cfg.weight,
                             m=cfg.window_m)
    rows = [[flow.n_points, trans.spacing, nk, c, ratio]
            for nk, c, ratio in zip(res["n_ks"], res["c_k"], res["ratios"])]
    _write_csv(os.path.join(out, "audit.csv"), cfg.grid_meta(),
               ["flow_points", "spacing", "n_k", "c_k", "rayleigh"], rows)
    summary = {"min_ratio": res["min_ratio"],
               "x_star": [float(v) for v in res["x_star"]],
               "gram_offdiag": float(np.max(np.abs(
                   res["gram_phi"] - np.diag(np.diag(res["gram_phi"])))))}
    return summary, 0


def run_central_audit(cfg, out, seed, flow):
    spec = cfg.transfer_spec()
    trans = make_grid(2 * cfg.d, 1.2, 10)
    _, _, bound = lambda_delta(spec, flow, trans, cfg.map_lam, cfg.weight.r)
    rows = []
    results = []
    for k in cfg.ks:
        res = central_block_audit(spec, k, cfg.weight, flow, seed=seed)
        results.append(res)
        rows.append([flow.n_points, k, res["vanishes"], res["norm_primed"],
                     res["norm_diff"]])
    _write_csv(os.path.join(out, "audit.csv"), cfg.grid_meta(),
               ["flow_points", "k", "vanishes", "norm_primed", "norm_diff"],
               rows)
    live = [r for r in results if not r["vanishes"]]
    fitted = max((r["norm_primed"] / bound for r in live), default=0.0)
    diffs = [r["norm_diff"] for r in live]
    summary = {"bound": bound, "fitted_c0": fitted,
               "diff_monotone": bool(all(b <= a * (1.0 + 1e-9) for a, b
                                         in zip(diffs, diffs[1:])))}
    return summary, 0


# Each subcommand's plan and runner.  The plan builds what the runner
# takes from --refine: its grids, or a spacing or sample count.  main
# plans before the output directory exists, so a grid the config cannot
# support is a config error.
SUBCOMMANDS = {
    "check-identity": (_identity_grids, run_check_identity),
    "lift-audit": (lambda cfg, refine: _volume_grids(
        cfg, cfg.flow_points * refine, cfg.n_per_axis, True),
        run_lift_audit),
    "norm-bound": (_norm_spacing, run_norm_bound),
    "partition-audit": (lambda cfg, refine: cfg.samples * refine,
                        run_partition_audit),
    "spectrum": (_spectrum_levels, run_spectrum),
    "lower-bound": (_lower_bound_grids, run_lower_bound),
    "central-audit": (lambda cfg, refine: FlowGrid(
        cfg.flow_half_period, cfg.flow_points * refine), run_central_audit),
}


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="contactfbi",
        description="desk-scale transfer operator experiments")
    parser.add_argument("subcommand", choices=tuple(SUBCOMMANDS))
    parser.add_argument("--config", required=True, metavar="PATH")
    parser.add_argument("--out", default=None, metavar="DIR")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--refine", type=int, choices=(1, 2), default=1)
    parser.add_argument("--version", action="version", version=__version__)
    args = parser.parse_args(argv)
    make_plan, runner = SUBCOMMANDS[args.subcommand]
    try:
        cfg = ExperimentConfig.from_file(args.config)
        plan = make_plan(cfg, args.refine)
    except (ConfigError, ValueError) as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return 2
    out = args.out or cfg.raw.get("out_dir") or "."
    os.makedirs(out, exist_ok=True)
    try:
        summary, code = runner(cfg, out, args.seed, plan)
    except ValueError as exc:
        summary = {"error": str(exc), "error_kind": type(exc).__name__}
        code = 1
        print("error in %s: %s" % (args.subcommand, exc), file=sys.stderr)
    else:
        if code == 1:
            print("tolerance violation in %s, see summary.json in %s"
                  % (args.subcommand, out), file=sys.stderr)
    payload = {"subcommand": args.subcommand, "tag": cfg.tag,
               "seed": args.seed, "refine": args.refine,
               "grid": cfg.grid_meta(), "weight": cfg.weight.as_dict(),
               "exit_code": code, "version": __version__}
    payload.update(summary)
    with open(os.path.join(out, "summary.json"), "w") as fh:
        json.dump(payload, fh, indent=2, default=float)
        fh.write("\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
