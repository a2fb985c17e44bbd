"""Acceptance gate: one test per headline criterion.

Each test prints a single CRITERION nn PASS/FAIL line with the measured
quantities, so a plain pytest -v -s run doubles as the verification
report.  Configurations are frozen; see the repository notes for how the
windows and refinement levels were chosen.
"""

import time

import numpy as np
import pytest

from contactfbi.aniso_norm import (WeightSpec, chi_n, cutoffs, lp_partition,
                                   q_k, q_tilde_separation, sobolev_norms)
from contactfbi.contact_geometry import (ContactMap, second_order_audit)
from contactfbi.fbi_core import (det_factor, dual_phase_grid, fbi_adjoint,
                                 fbi_forward, l0_hat_kernel, lift_linear,
                                 linear_lift_kernel, z_change)
from contactfbi.numerics import make_grid, quad_inner, sample
from contactfbi.partial_fbi import (FlowGrid, PartialPhaseField, pcal_apply,
                                    pfbi_forward, sample_volume)
from contactfbi.spectra import (central_block_audit, model_spectrum,
                                weighted_norm_measure)
from contactfbi.transfer_ops import (TransferSpec, decompose, lambda_delta,
                                     lambda_global, lift_kernel)


def verdict(num, name, ok, detail=""):
    line = "CRITERION %02d %s: %s" % (num, "PASS" if ok else "FAIL", name)
    if detail:
        line += " (%s)" % detail
    print(line)
    assert ok, line


def function_suite(dim, count, seed):
    """Smooth localized test functions, reproducible from the seed."""
    rng = np.random.default_rng(seed)
    funcs = []
    for _ in range(count):
        center = rng.uniform(-0.5, 0.5, size=dim)
        width = rng.uniform(0.6, 1.0)
        freq = rng.uniform(-3.0, 3.0, size=dim)

        def f(pts, c=center, w=width, q=freq):
            return np.exp(-np.sum((pts - c) ** 2, axis=-1) / (2.0 * w ** 2)
                          + 1j * pts @ q)
        funcs.append(f)
    return funcs


GRIDS = {1: make_grid(1, 8.0, 32), 2: make_grid(2, 7.0, 28)}


def suite_fields():
    out = []
    for dim in (1, 2):
        grid = GRIDS[dim]
        pg = dual_phase_grid(grid)
        for f in function_suite(dim, 10, seed=dim):
            out.append((dim, sample(f, grid), pg))
    return out


def test_criterion_01_resolution_of_identity():
    t0 = time.time()
    worst = 0.0
    for dim, u, pg in suite_fields():
        back = fbi_adjoint(fbi_forward(u, pg))
        worst = max(worst, np.linalg.norm(back.values - u.values)
                    / np.linalg.norm(u.values))
    elapsed = time.time() - t0
    verdict(1, "resolution of identity on 20-function suite",
            worst <= 1e-6 and elapsed < 30.0,
            "worst defect %.2e, %.1f s" % (worst, elapsed))


def test_criterion_02_isometry_full_and_partial():
    worst = 0.0
    for dim, u, pg in suite_fields():
        v = fbi_forward(u, pg)
        worst = max(worst, abs(v.norm() - u.norm()) / u.norm())
    flow = FlowGrid(np.pi, 6)
    trans = make_grid(2, 5.0, 26)

    def f(p):
        return np.exp(2j * p[:, 0]
                      - np.sum(p[:, 1:] ** 2, axis=-1) / 1.28)
    vol = sample_volume(f, flow, trans)
    pf = pfbi_forward(vol, dual_phase_grid(trans))
    partial = abs(pf.norm() - vol.norm()) / vol.norm()
    verdict(2, "isometry of full and partial transforms",
            worst <= 1e-6 and partial <= 1e-6,
            "full %.2e, partial %.2e" % (worst, partial))


def test_criterion_03_projection_algebra():
    from contactfbi.fbi_core import apply_p_omega, dagger_form_matrix
    g = GRIDS[2]
    j = dagger_form_matrix(2)
    u = sample(lambda p: np.exp(-np.sum(p ** 2, axis=-1) / 2.0
                                + 1j * (p[:, 0] - p[:, 1])), g)
    pu = apply_p_omega(u, j)
    ppu = apply_p_omega(pu, j)
    idem_p = np.linalg.norm(ppu.values - pu.values) / pu.norm()
    v = sample(lambda p: np.exp(-np.sum((p - 0.3) ** 2, axis=-1)), g)
    lhs = quad_inner(apply_p_omega(u, j), v)
    rhs = quad_inner(u, apply_p_omega(v, j))
    sym_p = abs(lhs - rhs) / abs(lhs)

    flow = FlowGrid(np.pi, 6)
    trans = make_grid(2, 4.0, 22)
    pg = dual_phase_grid(trans, n_freq=30, center_margin=5.0)
    shape = (flow.n_points,) + pg.shape()
    rng = np.random.default_rng(7)
    noise = PartialPhaseField(flow, pg,
                              rng.standard_normal(shape)
                              + 1j * rng.standard_normal(shape))
    p1 = pcal_apply(noise)
    p2 = pcal_apply(p1)
    idem_pc = np.linalg.norm((p2.values - p1.values).ravel()) \
        / np.linalg.norm(p1.values.ravel())
    other = PartialPhaseField(flow, pg,
                              rng.standard_normal(shape)
                              + 1j * rng.standard_normal(shape))
    w = flow.freq_spacing * pg.weight
    lhs = np.sum(np.conj(pcal_apply(noise).values) * other.values) * w
    rhs = np.sum(np.conj(noise.values) * pcal_apply(other).values) * w
    sym_pc = abs(lhs - rhs) / abs(lhs)
    verdict(3, "projection algebra for P and the partial projection",
            max(idem_p, idem_pc) <= 1e-6 and max(sym_p, sym_pc) <= 1e-10,
            "idem %.2e/%.2e, sym %.2e/%.2e"
            % (idem_p, idem_pc, sym_p, sym_pc))


def test_criterion_04_lift_identity():
    b = np.diag([2.0, 0.5])
    assert det_factor(b) == pytest.approx(1.25, abs=1e-14)
    g = make_grid(2, 10.5, 70)
    pg = dual_phase_grid(g)

    def f(p):
        return np.exp(-np.sum(p ** 2, axis=-1) / 2.0)
    u = sample(f, g)
    scale = 1.0 / u.norm()
    u.values = u.values * scale
    ub = sample(lambda p: f(p @ b.T), g)
    ub.values = ub.values * scale
    lhs = fbi_forward(ub, pg)
    rhs = lift_linear(b, fbi_forward(u, pg))
    defect = np.sqrt(np.sum(np.abs(lhs.values - rhs.values) ** 2)
                     * pg.weight)
    verdict(4, "lift identity for B = diag(2, 1/2)",
            defect <= 1e-5, "defect %.2e" % defect)


def test_criterion_05_tensor_factorization():
    rng = np.random.default_rng(0)
    b = np.diag([2.0, 0.5])
    pts_out = rng.normal(size=(40, 4))
    pts_in = rng.normal(size=(40, 4))
    k = linear_lift_kernel(b, pts_out, pts_in)
    zo = np.array([z_change(p[:2], p[2:])[0] for p in pts_out])
    wo = np.array([z_change(p[:2], p[2:])[1] for p in pts_out])
    zi = np.array([z_change(p[:2], p[2:])[0] for p in pts_in])
    wi = np.array([z_change(p[:2], p[2:])[1] for p in pts_in])
    tensor = l0_hat_kernel(b, zo, zi) * np.conj(l0_hat_kernel(b, wo, wi))
    defect = np.max(np.abs(k - tensor)) / np.max(np.abs(k))
    verdict(5, "tensor factorization of the lifted linear kernel",
            defect <= 1e-5, "max rel defect %.2e" % defect)


def test_criterion_06_model_norm_is_one():
    vals = {}
    for lam in (4.0, 8.0, 16.0):
        vals[lam], = weighted_norm_measure(np.diag([lam, 1.0 / lam]), [1.0],
                                           0.0, half_widths=(10.0, 10.0))
    ok = all(0.98 <= v <= 1.02 for v in vals.values())
    verdict(6, "unweighted model operator norm is 1",
            ok, ", ".join("lam %g: %.4f" % kv for kv in sorted(vals.items())))


def test_criterion_07_weighted_norm_bound():
    t0 = time.time()
    lams = (4.0, 8.0, 16.0, 32.0)
    ratios, slope_gaps = [], []
    s_values = (1.0, 16.0, 256.0)
    # one call per lam measures every s: by_lam[i][j] is lam i, s j
    by_lam, branch = [], []
    for lam in lams:
        b = np.diag([lam, 1.0 / lam])
        by_lam.append(weighted_norm_measure(b, s_values, 4.0,
                                            half_widths=(2.0, 2.0),
                                            spacing=0.35))
        d = det_factor(b)
        branch.append(max(d ** -0.5, d ** 0.5 * lam ** -4.0))
    for j in range(len(s_values)):
        norms = [vals[j] for vals in by_lam]
        ratios.extend(n / b for n, b in zip(norms, branch))
        sm = np.polyfit(np.log(lams), np.log(norms), 1)[0]
        sb = np.polyfit(np.log(lams), np.log(branch), 1)[0]
        slope_gaps.append(abs(sm - sb))
    fitted_c = max(ratios)
    bounded = all(r <= fitted_c * (1.0 + 1e-12) for r in ratios)
    elapsed = time.time() - t0
    verdict(7, "weighted norm bound with one fitted constant",
            bounded and max(slope_gaps) <= 0.15 and elapsed < 300.0,
            "C %.3g, worst slope gap %.3f, %.1f s"
            % (fitted_c, max(slope_gaps), elapsed))


def test_criterion_08_partition_audits():
    rng = np.random.default_rng(5)
    n = 1000
    x = rng.uniform(-2.0, 2.0, size=(n, 2))
    xi = rng.uniform(-100.0, 100.0, size=(n, 3))
    chi_sum = sum(chi_n(np.linalg.norm(xi, axis=-1), m) for m in range(12))
    psi_sum = sum(lp_partition(m, x, xi) for m in range(-12, 13))
    t = rng.uniform(-20.0, 20.0, size=n)
    qsum = sum(q_k(t, k) for k in range(-22, 23))
    x0, ctr, hyp = cutoffs(x, xi, WeightSpec())
    cut_sum = x0 + ctr + hyp
    worst = max(float(np.max(np.abs(v - 1.0)))
                for v in (chi_sum, psi_sum, qsum, cut_sum))
    sep = q_tilde_separation(40)
    verdict(8, "partitions of unity and support separation",
            worst <= 1e-10 and sep > 0,
            "worst sum defect %.2e, separation c %.3f" % (worst, sep))


def test_criterion_09_sobolev_equivalence():
    def vol_suite(flow, trans):
        fns = [
            lambda p: (1.0 + 0.5 * np.sin(p[:, 0]))
            * np.exp(-np.sum(p[:, 1:] ** 2, axis=-1) / 0.3),
            lambda p: np.exp(2j * p[:, 0]
                             - np.sum(p[:, 1:] ** 2, axis=-1) / 0.4),
            lambda p: np.exp(4j * p[:, 1]
                             - np.sum(p[:, 1:] ** 2, axis=-1) / 0.35),
            lambda p: p[:, 2] * np.exp(-np.sum(p[:, 1:] ** 2, axis=-1)
                                       / 0.3 - 1j * p[:, 0]),
        ]
        return [sample_volume(f, flow, trans) for f in fns]

    drifts = []
    for r in (1.0, 2.0):
        cs = []
        for n0, nt in ((8, 14), (12, 20)):
            flow = FlowGrid(np.pi, n0)
            trans = make_grid(2, 1.6, nt)
            ratios = []
            for vol in vol_suite(flow, trans):
                fourier, pfbi = sobolev_norms(vol, r)
                ratios.append(pfbi / fourier)
            cs.append(max(max(ratios), 1.0 / min(ratios)))
        drifts.append(abs(cs[1] - cs[0]) / cs[0])
    verdict(9, "Sobolev norm equivalence with refinement-stable constant",
            max(drifts) < 0.10,
            "drift r=1: %.3f%%, r=2: %.3f%%"
            % (100 * drifts[0], 100 * drifts[1]))


def test_criterion_10_toy_spectrum():
    t0 = time.time()
    cmap = ContactMap.linear(np.diag([4.0, 0.25]))

    def bump(pts):
        return np.exp(-np.sum(pts[:, 1:] ** 2, axis=-1) / 0.5)
    spec = TransferSpec(cmap, bump, name="toy")
    levels = []
    for n0 in (4, 6):
        flow = FlowGrid(np.pi, n0)
        trans = make_grid(2, 0.7, 4)
        pg = dual_phase_grid(trans, n_freq=4)
        levels.append((flow, trans, pg))
    lam_big = 0.5
    reps = model_spectrum(spec, levels, lam_big, margin=0.1)
    counts = [r.stable_count for r in reps]
    inside = float(np.mean(reps[1].moduli <= lam_big * 1.1))
    rows = max(r.refinement["rows"] for r in reps)
    elapsed = time.time() - t0
    verdict(10, "toy spectrum outliers persist under refinement",
            counts[0] == counts[1] and inside >= 0.95
            and rows <= 4000 and elapsed < 300.0,
            "counts %s, inside %.1f%%, rows %d, %.1f s"
            % (counts, 100 * inside, rows, elapsed))


def test_criterion_11_compactness_proxy():
    flow = FlowGrid(np.pi, 2)
    trans = make_grid(2, 1.2, 6)
    pg = dual_phase_grid(trans, n_freq=6)

    def g(pts):
        r2 = np.sum(pts[:, 1:] ** 2, axis=-1)
        return np.exp(1j * pts[:, 0]) * np.exp(-r2 / 0.5)
    spec = TransferSpec(ContactMap.shear(2.0, 0.3), g, name="shear-bump")
    mat = lift_kernel(spec, flow, trans, pg)
    cpt, ctr, hyp = decompose(mat, flow, pg, WeightSpec(big_n=1.0))
    assert np.max(np.abs(ctr)) > 0 and np.max(np.abs(hyp)) > 0
    sig = np.linalg.svd(cpt, compute_uv=False)
    ratio = sig[49] / sig[0]
    verdict(11, "singular values of the compact part collapse",
            ratio <= 1e-3, "s50/s1 = %.2e" % ratio)


def test_criterion_12_contact_normal_form():
    audit = second_order_audit(ContactMap.shear(4.0, 0.5))
    verdict(12, "flow shift is flat to second order at the fixed point",
            audit["grad_max"] <= 1e-6 and audit["hess_max"] <= 1e-6,
            "grad %.2e, hess %.2e" % (audit["grad_max"], audit["hess_max"]))


def test_criterion_13_lambda_anchors():
    flow = FlowGrid(np.pi, 6)
    trans = make_grid(2, 1.6, 8)

    def ones(pts):
        return np.ones(pts.shape[0], dtype=complex)
    spec = TransferSpec(ContactMap.linear(np.diag([4.0, 0.25])), ones)
    lam_fg, delta_fg, _ = lambda_delta(spec, flow, trans, lam=4.0, r=4.0)
    glob = lambda_global(1.0, np.e)
    ok = (abs(lam_fg - 0.5) <= 1e-12 and abs(delta_fg - 2.0) <= 1e-12
          and abs(glob - np.exp(-0.5)) <= 1e-12)
    verdict(13, "expansion statistics anchors",
            ok, "Lambda %.4f, Delta %.4f, global %.5f"
            % (lam_fg, delta_fg, glob))


def test_criterion_14_central_block():
    flow = FlowGrid(np.pi / 2.0, 8)

    def g(pts):
        return (0.7 + 0.3 * np.cos(pts[:, 0])) * \
            np.exp(-np.sum(pts[:, 1:] ** 2, axis=-1) / 0.5)
    spec = TransferSpec(ContactMap.shear(2.0, 0.3), g, name="shear")
    wspec = WeightSpec(r=1.0, big_n=8.0)
    trans = make_grid(2, 1.2, 10)
    _, _, bound = lambda_delta(spec, flow, trans, lam=2.0, r=1.0)
    diffs, primed = [], []
    for k in (6, 8, 12):
        res = central_block_audit(spec, k, wspec, flow, seed=0)
        assert not res["vanishes"]
        diffs.append(res["norm_diff"])
        primed.append(res["norm_primed"])
    monotone = all(b <= a * (1.0 + 1e-9)
                   for a, b in zip(diffs, diffs[1:]))
    fitted_c0 = max(p / bound for p in primed)
    respects = all(p <= fitted_c0 * bound * (1.0 + 1e-12) for p in primed)
    verdict(14, "central block surrogate converges and respects the bound",
            monotone and respects,
            "diffs %s, fitted C0 %.3f" % (np.round(diffs, 3).tolist(),
                                          fitted_c0))
