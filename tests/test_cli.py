import ast
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import contactfbi
from contactfbi.cli import ConfigError, ExperimentConfig, main


def write(path, text):
    path.write_text(text)
    return str(path)


FINE_IDENTITY = """
d = 1
box_half = 5.0
n_per_axis = 26
flow_points = 6
tol = 1e-5
tag = identity-fine
"""

TINY_MODEL = """
d = 1
box_half = 0.7
n_per_axis = 4
flow_points = 4
n_freq = 4
map_lam = 4.0
tag = tiny
"""


class TestConfigParsing:

    def test_flat_roundtrip(self, tmp_path):
        cfg = ExperimentConfig.from_file(write(tmp_path / "a.cfg", """
        # comment line
        d = 1
        map_lam = 8.0
        lams = 4, 8
        tag = hello
        """))
        assert cfg.map_lam == 8.0
        assert cfg.lams == [4.0, 8.0]
        assert cfg.tag == "hello"

    def test_json_accepted(self, tmp_path):
        path = tmp_path / "a.json"
        path.write_text(json.dumps({"d": 1, "map_lam": 16.0,
                                    "s_values": [1, 16]}))
        cfg = ExperimentConfig.from_file(str(path))
        assert cfg.map_lam == 16.0
        assert cfg.s_values == [1.0, 16.0]

    def test_unknown_key_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_file(write(tmp_path / "a.cfg",
                                             "no_such_option = 1\n"))

    def test_bad_line_is_anchored(self, tmp_path):
        with pytest.raises(ConfigError, match="line 2"):
            ExperimentConfig.from_file(write(tmp_path / "a.cfg",
                                             "d = 1\nbox half = 5.0\n"))

    def test_range_validation(self, tmp_path):
        for body in ("d = 0\n", "n_per_axis = 5\n", "map_lam = 0.5\n",
                     "map_family = rotation\n", "flow_points = 3\n",
                     "d = 2\nmap_family = shear\n", "tol = abc\n",
                     "d = 1.7\n", "n_per_axis = 12.9\n", "flow_points = 8.5\n",
                     "ks = 6, 8.5\n", "n_freq = 4.5\n", "samples = 100.5\n",
                     "d = inf\n", "lams = 0\n", "lams = 4, 1\n",
                     "s_values = 0.5\n", "s_values = 1, nan\n",
                     "norm_spacing = 0\n", "norm_spacing = -0.35\n",
                     "norm_half_width = 0\n", "n_freq = 4\n",
                     "samples = 0\n", "ks = -3\nbig_n = 1\n",
                     "lams = 4.0\n", "lams = 4, 4\n", "seed = 5\n",
                     # one non-finite value per real key
                     "box_half = nan\n", "flow_half_period = inf\n",
                     "r = nan\n", "tau = nan\n", "big_n = nan\n",
                     "delta = nan\n", "map_lam = nan\n", "map_eps = inf\n",
                     "amp_width = nan\n", "tol = nan\n", "lams = 4, inf\n",
                     "norm_half_width = inf\n", "norm_spacing = nan\n",
                     "n_ks = 2, nan\n", "window_m = inf\n", "margin = nan\n",
                     # a zero or negative amplitude width or window
                     "amp_width = 0\n", "amp_width = -0.5\n",
                     "window_m = 0\n", "window_m = -1\n",
                     # r divides tau's default and interval; a negative
                     # margin shrinks the outlier disk to nothing
                     "r = 0\n", "r = -1\n", "margin = -1\n",
                     "margin = -0.01\n"):
            with pytest.raises(ConfigError):
                ExperimentConfig.from_file(write(tmp_path / "a.cfg", body))

    def test_integral_float_counts_pass(self):
        cfg = ExperimentConfig({"flow_points": 8.0, "ks": [6.0],
                                "n_freq": 4.0, "n_per_axis": 4.0})
        assert (cfg.flow_points, cfg.ks, cfg.n_freq, cfg.n_per_axis) == \
            (8, [6], 4, 4)


class TestExitCodes:

    def test_malformed_config_exits_two(self, tmp_path, capsys):
        path = write(tmp_path / "bad.cfg", "d = 1\nbox half = 5.0\n")
        code = main(["check-identity", "--config", path,
                     "--out", str(tmp_path)])
        assert code == 2
        assert "line 2" in capsys.readouterr().err

    def test_missing_config_exits_two(self, tmp_path):
        code = main(["spectrum", "--config", str(tmp_path / "absent.cfg"),
                     "--out", str(tmp_path)])
        assert code == 2

    def test_bad_value_exits_two_before_compute(self, tmp_path, capsys):
        for i, (sub, body) in enumerate((
                ("lower-bound", "d = 2\nmap_family = shear\n"),
                ("lower-bound", "tol = abc\n"),
                ("partition-audit", "samples = 0\n"),
                ("central-audit", "ks = -3\nbig_n = 1\n"),
                ("norm-bound", "lams = 4.0\n"),
                ("norm-bound", "seed = 5\n"),
                ("spectrum", "map_lam = nan\n"))):
            out = tmp_path / ("run%d" % i)
            code = main([sub, "--config",
                         write(tmp_path / "bad.cfg", body), "--out", str(out)])
            assert code == 2
            assert "config error" in capsys.readouterr().err
            assert not out.exists()

    def test_non_positive_r_exits_two_naming_r(self, tmp_path, capsys):
        # r = 0 once crashed every subcommand in tau's default 1/(200 r d)
        for i, body in enumerate(("r = 0\n", "r = -1\n",
                                  "r = 0\ntau = 0.501\n")):
            for sub in ("spectrum", "norm-bound", "check-identity"):
                out = tmp_path / ("run%d-%s" % (i, sub))
                code = main([sub, "--config",
                             write(tmp_path / "bad.cfg", body),
                             "--out", str(out)])
                assert code == 2
                assert "config error: bad config value: r must be " \
                    "positive" in capsys.readouterr().err
                assert not out.exists()

    def test_negative_margin_exits_two(self, tmp_path, capsys):
        # margin = -1 made the outlier disk a point, so every eigenvalue
        # counted as stable
        out = tmp_path / "run"
        path = write(tmp_path / "m.cfg", TINY_MODEL + "margin = -1\n")
        assert main(["spectrum", "--config", path, "--out", str(out)]) == 2
        assert "config error: margin must be non-negative" in \
            capsys.readouterr().err
        assert not out.exists()
        path = write(tmp_path / "m.cfg", TINY_MODEL + "margin = 0\n")
        assert main(["spectrum", "--config", path, "--out", str(out)]) == 0

    def test_non_integer_count_exits_two(self, tmp_path, capsys):
        out = tmp_path / "run"
        path = write(tmp_path / "bad.cfg",
                     "d = 1.7\nn_per_axis = 12.9\nflow_points = 8.5\n")
        code = main(["check-identity", "--config", path, "--out", str(out)])
        assert code == 2
        assert "must be an integer" in capsys.readouterr().err
        assert not out.exists()

    def test_out_of_range_norm_value_exits_two(self, tmp_path, capsys):
        for i, body in enumerate(("lams = 0\n", "s_values = 0.5\n",
                                  "norm_spacing = -0.35\n",
                                  "norm_half_width = 0\n")):
            out = tmp_path / ("run%d" % i)
            code = main(["norm-bound", "--config",
                         write(tmp_path / "bad.cfg", body), "--out", str(out)])
            assert code == 2
            assert "config error" in capsys.readouterr().err
            assert not out.exists()

    def test_norm_bound_over_budget_exits_two_before_compute(self, tmp_path,
                                                            capsys):
        # d = 2 puts 12^4 = 20736 points on the norm grid, refused while
        # the grid is planned
        out = tmp_path / "run"
        path = write(tmp_path / "d2.cfg", "d = 2\n")
        code = main(["norm-bound", "--config", path, "--out", str(out)])
        assert code == 2
        message = ("weighted L0_hat kernel would need a 20736 x 20736 matrix "
                   "(6879707136 bytes), above the dense budget of 320000000 "
                   "bytes")
        assert "config error: " + message in capsys.readouterr().err
        assert not out.exists()

    def test_spectrum_over_budget_exits_two_before_compute(self, tmp_path,
                                                          capsys):
        # d = 2 with an amplitude that varies along the flow: 8 flow
        # slices x 12^4 transversal nodes, a 165,888-row reduced lift on
        # the block route, refused while the levels are planned
        out = tmp_path / "run"
        path = write(tmp_path / "d2.cfg", "d = 2\namplitude = flow\n")
        code = main(["spectrum", "--config", path, "--out", str(out)])
        assert code == 2
        assert ("config error: reduced lift matrix and its eigvals copy "
                "would need a 331776 x 165888 matrix") in \
            capsys.readouterr().err
        assert not out.exists()

    def test_spectrum_plan_counts_the_solver_copy(self, tmp_path, capsys,
                                                  monkeypatch):
        # on the block route (an amplitude that varies along the flow), a
        # budget of one and a half reduced lifts holds the matrix but not
        # the copy np.linalg.eigvals makes of it, so the plan refuses it
        from contactfbi import numerics
        path = write(tmp_path / "tiny.cfg", TINY_MODEL + "amplitude = flow\n")
        side = 4 * 4 ** 2
        monkeypatch.setattr(numerics, "DENSE_BYTES", 24 * side * side)
        out = tmp_path / "run"
        code = main(["spectrum", "--config", path, "--out", str(out)])
        assert code == 2
        assert ("config error: reduced lift matrix and its eigvals copy "
                "would need a %d x %d matrix" % (2 * side, side)) in \
            capsys.readouterr().err
        assert not out.exists()
        monkeypatch.setattr(numerics, "DENSE_BYTES", 32 * side * side)
        assert main(["spectrum", "--config", path, "--out", str(out)]) == 0

    def test_spectrum_plan_budgets_the_per_axis_route(self, tmp_path,
                                                      capsys, monkeypatch):
        # bump on a diagonal map: per flow slice, the plan counts its 16
        # eigenvalues and 2 axis factors of 4 x 4, twice
        from contactfbi import numerics
        path = write(tmp_path / "tiny.cfg", TINY_MODEL)
        need = 16 * 8 * (16 + 2 * 16)
        monkeypatch.setattr(numerics, "DENSE_BYTES", need - 1)
        out = tmp_path / "run"
        assert main(["spectrum", "--config", path, "--out", str(out)]) == 2
        assert ("config error: per-axis factors and eigenvalue list would "
                "need a 8 x 48 matrix") in capsys.readouterr().err
        assert not out.exists()
        monkeypatch.setattr(numerics, "DENSE_BYTES", need)
        assert main(["spectrum", "--config", path, "--out", str(out)]) == 0

    def test_small_n_freq_exits_two(self, tmp_path, capsys):
        # n_freq below n_per_axis = 12 leaves no valid phase grid
        path = write(tmp_path / "bad.cfg", "d = 1\nn_freq = 4\n")
        for sub in ("check-identity", "lower-bound", "lift-audit"):
            out = tmp_path / sub
            code = main([sub, "--config", path, "--out", str(out)])
            assert code == 2
            assert "n_freq must be at least n_per_axis" in \
                capsys.readouterr().err
            assert not out.exists()

    def test_refined_grid_below_n_freq_exits_two(self, tmp_path, capsys):
        # n_freq = n_per_axis passes the config, but --refine 2 builds
        # 24-point space grids (check-identity, lower-bound) and a
        # 14-point transversal grid for 16 flow points (lift-audit)
        path = write(tmp_path / "nf.cfg", "d = 1\nn_freq = 12\n")
        for sub, points in (("check-identity", 24), ("lower-bound", 24),
                            ("lift-audit", 14)):
            out = tmp_path / sub
            code = main([sub, "--config", path, "--out", str(out),
                         "--refine", "2"])
            assert code == 2
            assert "config error: frequency count 12 too small for %d " \
                "points per axis" % points in capsys.readouterr().err
            assert not out.exists()

    def test_coarse_identity_exits_one(self, tmp_path, capsys):
        path = write(tmp_path / "coarse.cfg",
                     "d = 1\nbox_half = 5.0\nn_per_axis = 8\n"
                     "flow_points = 6\ntol = 1e-6\n")
        code = main(["check-identity", "--config", path,
                     "--out", str(tmp_path)])
        assert code == 1
        assert "tolerance" in capsys.readouterr().err
        rep = json.loads((tmp_path / "summary.json").read_text())
        assert rep["passed"] is False
        assert rep["worst_defect"] > 1e-6

    def test_fine_identity_exits_zero(self, tmp_path):
        path = write(tmp_path / "fine.cfg", FINE_IDENTITY)
        code = main(["check-identity", "--config", path,
                     "--out", str(tmp_path)])
        assert code == 0
        rep = json.loads((tmp_path / "summary.json").read_text())
        assert rep["worst_defect"] <= 1e-5
        header = (tmp_path / "norms.csv").read_text().splitlines()[0]
        assert header.startswith("#") and "n_per_axis=26" in header


class TestSubcommands:

    def test_spectrum_writes_artifacts(self, tmp_path):
        path = write(tmp_path / "m.cfg", TINY_MODEL)
        code = main(["spectrum", "--config", path, "--out", str(tmp_path)])
        assert code == 0
        rep = json.loads((tmp_path / "summary.json").read_text())
        assert rep["bound"] > 0
        lines = (tmp_path / "eigenvalues.csv").read_text().splitlines()
        assert "rows=" in lines[0]
        assert any(line.startswith("index") for line in lines[:3])

    def test_lift_audit_deterministic(self, tmp_path):
        path = write(tmp_path / "m.cfg", TINY_MODEL)
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert main(["lift-audit", "--config", path, "--out", str(out),
                         "--seed", "7"]) == 0
            outs.append(json.loads((out / "summary.json").read_text()))
        assert outs[0]["seed"] == 7
        assert outs[0]["fingerprint"] == outs[1]["fingerprint"]
        assert outs[0]["audit"] == outs[1]["audit"]
        # the hash of the lift's meta and shape, as when it was assembled
        assert outs[0]["rows"] == 1024
        assert outs[0]["fingerprint"] == "08b7249b97d5150d"

    def test_lift_fingerprint_follows_the_amplitude(self, tmp_path):
        # the hash reads the amplitude's values on the grids, not the tag:
        # bump and flow differ on the same grids, two tags of one config
        # agree
        prints = {}
        for name, extra in (("bump", "amplitude = bump\n"),
                            ("flow", "amplitude = flow\n"),
                            ("retagged", "amplitude = bump\ntag = other\n")):
            path = write(tmp_path / (name + ".cfg"), TINY_MODEL + extra)
            out = tmp_path / name
            assert main(["lift-audit", "--config", path,
                         "--out", str(out)]) == 0
            prints[name] = json.loads(
                (out / "summary.json").read_text())["fingerprint"]
        assert prints["bump"] != prints["flow"]
        assert prints["bump"] == prints["retagged"]

    def test_lift_audit_default_config(self, tmp_path):
        # 8 flow slices x 12^4 phase points: far above the dense budget,
        # but lift-audit needs only the grids and a sampled audit
        path = write(tmp_path / "d.cfg", "d = 1\n")
        assert main(["lift-audit", "--config", path,
                     "--out", str(tmp_path)]) == 0
        rep = json.loads((tmp_path / "summary.json").read_text())
        assert rep["rows"] == 165888
        assert rep["audit"]["c_rho"] > 0

    def test_spectrum_default_config(self, tmp_path):
        # the 165,888-row lift's spectrum comes from its 8 x 144-row factor
        path = write(tmp_path / "d.cfg", "d = 1\n")
        assert main(["spectrum", "--config", path,
                     "--out", str(tmp_path)]) == 0
        level, = json.loads((tmp_path / "summary.json").read_text())["levels"]
        assert level["refinement"]["rows"] == 165888
        assert level["refinement"]["reduced_rows"] == 1152
        # the 164,736 structural zeros are counted, not listed
        assert len(level["moduli"]) + level["structural_zeros"] == 165888

    def test_spectrum_d2_default_config(self, tmp_path):
        # bump on the diagonal linear map: each of the 8 slice blocks of
        # 20,736 rows is a Kronecker product of four 12 x 12 axis factors
        path = write(tmp_path / "d.cfg", "d = 2\n")
        assert main(["spectrum", "--config", path,
                     "--out", str(tmp_path)]) == 0
        level, = json.loads((tmp_path / "summary.json").read_text())["levels"]
        assert level["refinement"]["route"] == "per-axis"
        assert level["refinement"]["reduced_rows"] == 8 * 12 ** 4
        assert level["refinement"]["slice_blocks"] == 8
        assert len(level["moduli"]) == 8 * 12 ** 4

    def test_spectrum_route_follows_the_config(self, tmp_path):
        routes = {}
        for name, extra in (("bump", ""), ("constant", "amplitude = "
                                           "constant\n"),
                            ("flow", "amplitude = flow\n"),
                            ("shear", "map_family = shear\nmap_eps = 0.3\n"
                             "map_lam = 2.0\n")):
            out = tmp_path / name
            path = write(tmp_path / (name + ".cfg"), TINY_MODEL + extra)
            assert main(["spectrum", "--config", path,
                         "--out", str(out)]) == 0
            level, = json.loads((out / "summary.json").read_text())["levels"]
            routes[name] = level["refinement"]["route"]
        assert routes == {"bump": "per-axis", "constant": "per-axis",
                          "flow": "block", "shear": "block"}

    def test_partition_audit(self, tmp_path):
        path = write(tmp_path / "m.cfg", TINY_MODEL)
        assert main(["partition-audit", "--config", path,
                     "--out", str(tmp_path)]) == 0
        rep = json.loads((tmp_path / "summary.json").read_text())
        assert rep["passed"] is True
        assert rep["q_tilde_separation"] > 0

    def test_norm_bound_sweep(self, tmp_path):
        path = write(tmp_path / "n.cfg",
                     "d = 1\nr = 4.0\nlams = 4, 8\ns_values = 1\n"
                     "norm_half_width = 2.0\nnorm_spacing = 0.35\n")
        assert main(["norm-bound", "--config", path,
                     "--out", str(tmp_path)]) == 0
        rep = json.loads((tmp_path / "summary.json").read_text())
        assert rep["fitted_c"] > 0
        rows = (tmp_path / "norms.csv").read_text().splitlines()
        assert len(rows) == 2 + 2 + 1

    def test_norm_bound_counts_distinct_weights(self, tmp_path):
        # on the default grid V_16 and V_256 are one weight: its norms are
        # solved once, and norms.csv keeps its s-major row order
        path = write(tmp_path / "n.cfg",
                     "d = 1\nlams = 4, 8\ns_values = 1, 16, 256\n")
        assert main(["norm-bound", "--config", path,
                     "--out", str(tmp_path)]) == 0
        rep = json.loads((tmp_path / "summary.json").read_text())
        assert rep["distinct_weights"] == 2
        rows = [ln.split(",") for ln in
                (tmp_path / "norms.csv").read_text().splitlines()[2:]]
        assert [(r[0], r[1]) for r in rows] == [
            (s, lam) for s in ("1.0", "16.0", "256.0")
            for lam in ("4.0", "8.0", "slope")]
        assert [r[4] for r in rows[3:6]] == [r[4] for r in rows[6:]]
        assert rows[0][4] != rows[3][4]

    def test_norm_bound_ignores_seed(self, tmp_path):
        # the norms are exact dense singular values, with nothing drawn
        path = write(tmp_path / "n.cfg", "d = 1\nlams = 4, 8\ns_values = 1\n")
        fitted = []
        for seed in ("0", "7"):
            out = tmp_path / seed
            assert main(["norm-bound", "--config", path, "--out", str(out),
                         "--seed", seed]) == 0
            rep = json.loads((out / "summary.json").read_text())
            fitted.append(rep["fitted_c"])
        assert fitted[0] == fitted[1]

    def test_lower_bound(self, tmp_path):
        path = write(tmp_path / "l.cfg",
                     "d = 1\nbox_half = 1.6\nn_per_axis = 14\n"
                     "flow_points = 16\nmap_family = shear\n"
                     "map_lam = 2.0\nmap_eps = 0.2\namplitude = flow\n"
                     "n_ks = 2, 6\nwindow_m = 1.0\n")
        assert main(["lower-bound", "--config", path,
                     "--out", str(tmp_path)]) == 0
        rep = json.loads((tmp_path / "summary.json").read_text())
        assert rep["min_ratio"] > 0
        assert rep["gram_offdiag"] <= 0.1

    def test_lower_bound_off_lattice_exits_two(self, tmp_path, capsys):
        # refused at planning, before the output directory is made: n_k =
        # 2.5 is off the lattice, and the default config's n_k = 6 is
        # beyond the 8-point flow grid's Nyquist range [-4, 3]
        for name, body, message in (
                ("off", "d = 1\nflow_points = 16\nn_ks = 2.5\n",
                 "not on the flow frequency lattice"),
                ("default", "d = 1\n", "Nyquist range [-4, 3]")):
            path = write(tmp_path / (name + ".cfg"), body)
            out = tmp_path / name
            assert main(["lower-bound", "--config", path,
                         "--out", str(out)]) == 2
            assert message in capsys.readouterr().err
            assert not out.exists()

    def test_central_audit(self, tmp_path):
        path = write(tmp_path / "c.cfg",
                     "d = 1\nflow_points = 8\n"
                     "flow_half_period = %r\nmap_family = shear\n"
                     "map_lam = 2.0\nmap_eps = 0.3\namplitude = flow\n"
                     "r = 1.0\nbig_n = 8.0\nks = 6\n" % (np.pi / 2.0))
        assert main(["central-audit", "--config", path,
                     "--out", str(tmp_path)]) == 0
        rep = json.loads((tmp_path / "summary.json").read_text())
        assert 0 < rep["fitted_c0"] < 3.0
        assert rep["diff_monotone"] is True


class TestImports:

    def test_cli_loads_no_scipy(self):
        # the dense solves are numpy's
        script = ("import sys, contactfbi.cli; print(sorted(m for m in "
                  "sys.modules if m.split('.')[0] == 'scipy'))")
        src = os.path.dirname(os.path.dirname(contactfbi.__file__))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [src] + [p for p in [env.get("PYTHONPATH")] if p])
        run = subprocess.run([sys.executable, "-c", script], env=env,
                             capture_output=True, text=True, timeout=120)
        assert run.returncode == 0, run.stderr
        assert run.stdout.strip() == "[]"

    def test_no_module_imports_scipy(self):
        # scipy is a test dependency only: no module of the package may
        # import it, not even inside a function on a path the CLI skips
        pkg = os.path.dirname(contactfbi.__file__)
        modules = sorted(n for n in os.listdir(pkg) if n.endswith(".py"))
        offenders = []
        for name in modules:
            with open(os.path.join(pkg, name)) as fh:
                tree = ast.parse(fh.read(), filename=name)
            for node in ast.walk(tree):
                if isinstance(node, ast.Import):
                    mods = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and not node.level:
                    mods = [node.module or ""]
                else:
                    continue
                offenders += ["%s line %d: %s" % (name, node.lineno, m)
                              for m in mods if m.split(".")[0] == "scipy"]
        assert "transfer_ops.py" in modules
        assert offenders == []
