"""Tests for the transfer operator, its lift and the audits."""

import tracemalloc

import numpy as np
import pytest
import scipy.linalg

from contactfbi.aniso_norm import WeightSpec, bracket
from contactfbi.contact_geometry import ContactMap
from contactfbi.fbi_core import (PhaseAxis, PhaseGrid, dual_phase_grid,
                                normalization)
from contactfbi import numerics
from contactfbi.numerics import make_grid
from contactfbi.partial_fbi import (FlowGrid, PartialPhaseField,
                                    _slice_forward, pcal_apply, pfbi_forward,
                                    reconstruct_slice, sample_volume)
from contactfbi.transfer_ops import (TransferSpec, cutoff_diagonals,
                                     decompose, flow_fourier_coeffs,
                                     kernel_bound_audit, kernel_entry_direct,
                                     lambda_delta, lambda_global, lift_apply,
                                     lift_kernel, phase_index, reduced_lift,
                                     slice_coupling, transfer_apply)


def gauss_amp(sigma, amp=1.0):
    def g(pts):
        r2 = np.sum(pts[:, 1:] ** 2, axis=-1)
        return amp * np.exp(-r2 / (2.0 * sigma ** 2))
    return g


def ones_amp(pts):
    return np.ones(pts.shape[0], dtype=complex)


def zero_amp(pts):
    return np.zeros(pts.shape[0], dtype=complex)


def gauss_u(sigma, k0=1.0):
    def u(pts):
        r2 = np.sum(pts[:, 1:] ** 2, axis=-1)
        return np.exp(1j * k0 * pts[:, 0] - r2 / (2.0 * sigma ** 2))
    return u


class TestTransferApply:

    def setup_method(self):
        self.flow = FlowGrid(np.pi, 6)
        self.trans = make_grid(2, 4.0, 16)

    def test_identity_map_unit_amplitude(self):
        spec = TransferSpec(ContactMap.linear(np.eye(2)), ones_amp)
        vol = sample_volume(gauss_u(0.8), self.flow, self.trans)
        out = transfer_apply(spec, vol)
        assert np.max(np.abs(out.values - vol.values)) <= 1e-12

    def test_zero_amplitude(self):
        spec = TransferSpec(ContactMap.shear(2.0, 0.1), zero_amp)
        out = transfer_apply(spec, gauss_u(0.8), self.flow, self.trans)
        assert np.max(np.abs(out.values)) == 0.0

    def test_interpolated_matches_callable(self):
        spec = TransferSpec(ContactMap.shear(1.2, 0.1), gauss_amp(0.35))
        u = gauss_u(0.9)
        vol = sample_volume(u, self.flow, self.trans)
        exact = transfer_apply(spec, u, self.flow, self.trans)
        approx = transfer_apply(spec, vol, method="cubic")
        err = np.linalg.norm((approx.values - exact.values).ravel())
        ref = np.linalg.norm(exact.values.ravel())
        assert err / ref <= 5e-3

    def test_escape_raises(self):
        spec = TransferSpec(ContactMap.linear(np.diag([4.0, 0.25])), ones_amp)
        small = make_grid(2, 1.5, 6)
        vol = sample_volume(gauss_u(0.8), self.flow, small)
        with pytest.raises(ValueError):
            transfer_apply(spec, vol)

    def test_l2_contraction(self):
        # unimodular map, so the continuum bound is sup|g| times the norm
        spec = TransferSpec(ContactMap.linear(np.diag([2.0, 0.5])),
                            gauss_amp(0.6, amp=0.7))
        u = gauss_u(0.6)
        vol = sample_volume(u, self.flow, self.trans)
        out = transfer_apply(spec, u, self.flow, self.trans)
        assert out.norm() <= 0.7 * vol.norm() * 1.01

    def test_support_check(self):
        wide = TransferSpec(ContactMap.linear(np.eye(2)), ones_amp)
        with pytest.raises(ValueError):
            wide.support_check(self.flow, self.trans)
        narrow = TransferSpec(ContactMap.linear(np.eye(2)), gauss_amp(0.5))
        narrow.support_check(self.flow, self.trans)


def flow_phase_sum(g_vals, flow):
    """flow_fourier_coeffs by its defining phase sum over the flow nodes,
    for every amplitude."""
    m = np.arange(-(flow.n_points - 1), flow.n_points)
    phase = np.exp(-1j * np.outer(m * flow.freq_spacing, flow.nodes()))
    return (2.0 * np.pi) ** (-0.5) * flow.spacing * (phase @ g_vals)


def flow_amp(pts):
    r2 = np.sum(pts[:, 1:] ** 2, axis=-1)
    return np.exp(0.3 * np.cos(pts[:, 0])) * np.exp(-r2 / 0.32)


def shear_amp(pts):
    r2 = np.sum(pts[:, 1:] ** 2, axis=-1)
    return np.exp(1j * pts[:, 0]) * np.exp(-r2 / 0.5)


class TestFlowFourier:

    @pytest.mark.parametrize("n0", [2, 4, 8])
    @pytest.mark.parametrize("g", [gauss_amp(0.5), ones_amp, zero_amp],
                             ids=["bump", "constant", "zero"])
    def test_flow_constant_amplitude_has_offset_zero_only(self, g, n0):
        flow = FlowGrid(np.pi, n0)
        spec = TransferSpec(ContactMap.linear(np.eye(2)), g)
        g_vals = spec.g_values(flow, make_grid(2, 1.2, 6).nodes())
        ghat = flow_fourier_coeffs(g_vals, flow)
        want = flow_phase_sum(g_vals, flow)
        assert ghat.shape == want.shape == (2 * n0 - 1, 36)
        others = np.arange(2 * n0 - 1) != n0 - 1
        assert np.all(ghat[others] == 0)
        scale = max(np.max(np.abs(want)), 1e-300)
        assert np.max(np.abs(want[others])) <= 1e-15 * scale
        assert np.max(np.abs(ghat[n0 - 1] - want[n0 - 1])) <= 1e-15 * scale

    @pytest.mark.parametrize("n0", [2, 6])
    @pytest.mark.parametrize("g", [flow_amp, shear_amp],
                             ids=["flow", "shear"])
    def test_flow_dependent_amplitude_is_the_phase_sum(self, g, n0):
        flow = FlowGrid(np.pi, n0)
        spec = TransferSpec(ContactMap.linear(np.eye(2)), g)
        g_vals = spec.g_values(flow, make_grid(2, 1.2, 6).nodes())
        assert np.array_equal(flow_fourier_coeffs(g_vals, flow),
                              flow_phase_sum(g_vals, flow))

    def test_single_mode(self):
        flow = FlowGrid(np.pi, 6)
        trans = make_grid(2, 1.2, 4)

        def g(pts):
            return np.exp(1j * pts[:, 0])
        spec = TransferSpec(ContactMap.linear(np.eye(2)), g)
        ghat = flow_fourier_coeffs(spec.g_values(flow, trans.nodes()), flow)
        # the m = +1 offset carries mass 2 L0 / sqrt(2 pi); on the periodic
        # grid the same mode reappears at the offset m = 1 - n0
        n0 = flow.n_points
        full = 2.0 * np.pi / np.sqrt(2.0 * np.pi)
        for m in range(-(n0 - 1), n0):
            row = np.max(np.abs(ghat[m + n0 - 1]))
            if m in (1, 1 - n0):
                assert row == pytest.approx(full, rel=1e-12)
            else:
                assert row <= 1e-12


def small_setting():
    flow = FlowGrid(np.pi, 2)
    trans = make_grid(2, 1.2, 4)
    pg = dual_phase_grid(trans, n_freq=4)
    return flow, trans, pg


def shear_spec():
    return TransferSpec(ContactMap.shear(2.0, 0.3), shear_amp,
                        name="shear-bump")


def closed_form_lift(spec, flow, trans, pg):
    """The lift matrix from the closed-form packet Gaussians, block by
    block: distance and phase matrices of both packets, the flow-summed
    amplitude ghat(xi0 - eta0) e^{i eta0 f} and the block prefactor."""
    dim2 = trans.dim
    n0, npts = flow.n_points, pg.num_points
    yd = trans.nodes()
    fy = spec.map.f_dag(yd)
    fv = spec.map.flow_shift(yd)
    ghat = flow_fourier_coeffs(spec.g_values(flow, trans.nodes()), flow)
    freqs = flow.freqs()
    pts = pg.points()
    xs, fs = pts[:, :dim2], pts[:, dim2:]
    d2i = (np.sum(fy ** 2, 1)[:, None] + np.sum(xs ** 2, 1)[None, :]
           - 2.0 * fy @ xs.T)
    pha_i = fy @ fs.T - 0.5 * np.sum(fs * xs, 1)[None, :]
    d2o = (np.sum(xs ** 2, 1)[:, None] + np.sum(yd ** 2, 1)[None, :]
           - 2.0 * xs @ yd.T)
    pha_o = fs @ yd.T - 0.5 * np.sum(fs * xs, 1)[:, None]
    a = normalization(dim2)
    values = np.empty((n0 * npts, n0 * npts), dtype=complex)
    for s in range(n0):
        kap_o = float(bracket(freqs[s]))
        a_mat = np.exp(-1j * pha_o - 0.5 * kap_o * d2o)
        for t in range(n0):
            kap_i = float(bracket(freqs[t]))
            b_mat = np.exp(1j * pha_i - 0.5 * kap_i * d2i)
            mid = trans.weight * ghat[s - t + n0 - 1] \
                * np.exp(1j * freqs[t] * fv)
            pref = (kap_o * kap_i) ** (dim2 / 4.0) * a * a \
                / np.sqrt(2.0 * np.pi)
            values[s * npts:(s + 1) * npts, t * npts:(t + 1) * npts] = \
                pref * ((a_mat * mid[None, :]) @ b_mat)
    return values


class TestSliceCoupling:

    def test_band_and_flow_shift(self):
        rng = np.random.default_rng(4)
        ghat = rng.standard_normal((7, 5)) + 1j * rng.standard_normal((7, 5))
        shift = rng.standard_normal(5)
        out_idx, in_idx = np.arange(-1, 4), np.arange(0, 3)
        freqs = 0.5 * in_idx
        c = slice_coupling(ghat, shift, out_idx, in_idx, freqs, band=2)
        assert c.shape == (5, 3, 5)
        for s, m in enumerate(out_idx):
            for t, n in enumerate(in_idx):
                want = ghat[m - n + 3] * np.exp(1j * freqs[t] * shift) \
                    if abs(m - n) <= 2 else np.zeros(5)
                assert np.array_equal(c[s, t], want)

    def test_single_column_serves_every_point(self):
        ghat0 = np.arange(1.0, 8.0) + 0j
        c = slice_coupling(ghat0, np.zeros(4), np.arange(3), np.arange(3),
                           np.ones(3), band=6)
        assert c.shape == (3, 3, 4)
        assert np.array_equal(c[2, 0], np.full(4, ghat0[5]))


class TestLiftKernel:

    def test_matches_closed_form_assembly(self):
        # the 2-slice small grid and the 4-slice, 1024-row grid of C10
        trans = make_grid(2, 0.7, 4)
        settings = (small_setting(), (FlowGrid(np.pi, 4), trans,
                                      dual_phase_grid(trans, n_freq=4)))
        spec = shear_spec()
        for flow, trans, pg in settings:
            ref = closed_form_lift(spec, flow, trans, pg)
            got = lift_kernel(spec, flow, trans, pg).values
            assert np.linalg.norm(got - ref) <= 1e-13 * np.linalg.norm(ref)

    def test_zero_amplitude_zero_matrix(self):
        flow, trans, pg = small_setting()
        spec = TransferSpec(ContactMap.shear(2.0, 0.3), zero_amp)
        mat = lift_kernel(spec, flow, trans, pg)
        assert np.max(np.abs(mat.values)) == 0.0

    def test_phase_index_matches_points(self):
        # two axes of different sizes, so that a mixed-up axis order or
        # center/frequency split shows
        axes = [PhaseAxis(np.linspace(-1.0, 1.0, 3), np.linspace(-2.0, 2.0, 4),
                          np.linspace(-1.0, 1.0, 4)),
                PhaseAxis(np.linspace(-0.5, 0.5, 2), np.linspace(-3.0, 3.0, 5),
                          np.linspace(-1.0, 1.0, 4))]
        pg = PhaseGrid(axes)
        flow = FlowGrid(np.pi, 2)
        pts = pg.points()
        for flat in range(flow.n_points * pg.num_points):
            s, rem = divmod(flat, pg.num_points)
            label = phase_index(flow, pg, flat)
            assert np.array_equal(label.x_dag, pts[rem, :2])
            assert np.array_equal(label.xi_dag, pts[rem, 2:])
            assert label.xi0 == flow.freqs()[s]

    def test_two_kernel_forms_agree(self):
        # factored flow-summed assembly vs direct volume quadrature
        flow, trans, pg = small_setting()
        spec = shear_spec()
        mat = lift_kernel(spec, flow, trans, pg)
        rng = np.random.default_rng(3)
        scale = np.max(np.abs(mat.values))
        for _ in range(10):
            row = int(rng.integers(mat.values.shape[0]))
            col = int(rng.integers(mat.values.shape[1]))
            direct = kernel_entry_direct(spec, flow, trans,
                                         phase_index(flow, pg, row),
                                         phase_index(flow, pg, col))
            assert abs(mat.values[row, col] - direct) <= 1e-10 * scale

    def test_identity_lift_is_projection(self):
        flow, trans, pg = small_setting()
        spec = TransferSpec(ContactMap.linear(np.eye(2)), ones_amp)
        mat = lift_kernel(spec, flow, trans, pg)
        rng = np.random.default_rng(5)
        shape = (flow.n_points,) + pg.shape()
        pf = PartialPhaseField(flow, pg, rng.standard_normal(shape)
                               + 1j * rng.standard_normal(shape))
        lifted = mat.apply(pf)
        proj = pcal_apply(pf)
        err = np.linalg.norm((lifted.values - proj.values).ravel())
        ref = np.linalg.norm(proj.values.ravel())
        assert err / ref <= 1e-10

    def test_matrix_free_matches_dense(self):
        flow, trans, pg = small_setting()
        spec = shear_spec()
        mat = lift_kernel(spec, flow, trans, pg)
        rng = np.random.default_rng(6)
        shape = (flow.n_points,) + pg.shape()
        pf = PartialPhaseField(flow, pg, rng.standard_normal(shape)
                               + 1j * rng.standard_normal(shape))
        dense = mat.apply(pf)
        free = lift_apply(spec, flow, trans, pg, pf)
        err = np.linalg.norm((dense.values - free.values).ravel())
        ref = np.linalg.norm(dense.values.ravel())
        assert err / ref <= 1e-10

    def test_matrix_free_matches_per_pair_loop(self):
        flow = FlowGrid(2.0 * np.pi, 4)
        trans = make_grid(2, 1.2, 4)
        pg = dual_phase_grid(trans, n_freq=4)
        spec = shear_spec()
        rng = np.random.default_rng(8)
        shape = (flow.n_points,) + pg.shape()
        pf = PartialPhaseField(flow, pg, rng.standard_normal(shape)
                               + 1j * rng.standard_normal(shape))
        # one slice transform per (out, in) pair
        n0 = flow.n_points
        fy = spec.map.f_dag(trans.nodes())
        fv = spec.map.flow_shift(trans.nodes())
        ghat = flow_fourier_coeffs(spec.g_values(flow, trans.nodes()), flow)
        kaps = bracket(flow.freqs())
        ref = np.zeros(shape, dtype=complex)
        for t in range(n0):
            rec = reconstruct_slice(pf.values[t], pg, kaps[t], fy) \
                * np.exp(1j * flow.freqs()[t] * fv)
            for s in range(n0):
                m = (ghat[s - t + n0 - 1] * rec).reshape(trans.shape())
                ref[s] += flow.freq_spacing / np.sqrt(2.0 * np.pi) \
                    * _slice_forward(m, pg, kaps[s])
        free = lift_apply(spec, flow, trans, pg, pf).values
        assert np.linalg.norm((free - ref).ravel()) <= \
            1e-13 * np.linalg.norm(ref.ravel())

    def test_memory_guard(self, monkeypatch):
        flow, trans, pg = small_setting()
        monkeypatch.setattr(numerics, "DENSE_BYTES", 16 * 1000)
        with pytest.raises(ValueError, match="dense budget"):
            lift_kernel(shear_spec(), flow, trans, pg)

    def test_singular_decay_of_smooth_kernel(self):
        flow, trans, pg = small_setting()
        mat = lift_kernel(shear_spec(), flow, trans, pg)
        sig = np.linalg.svd(mat.values, compute_uv=False)
        assert sig[49] <= 1e-3 * sig[0]


class TestReducedLift:

    def test_eigenvectors_lift_through_lift_apply(self):
        # the default spectrum grid: 8 slices x 12^4 phase points, a
        # 165,888-row lift far over the dense budget, and a 1,152-row
        # factor; U z is each slice's forward transform of z off the
        # quadrature nodes, and matrix-free lift_apply must map it to lam U z
        flow = FlowGrid(np.pi, 8)
        trans = make_grid(2, 1.6, 12)
        pg = dual_phase_grid(trans, n_freq=12)
        spec = TransferSpec(ContactMap.linear(np.diag([4.0, 0.25])),
                            gauss_amp(0.5))
        lam, vecs = scipy.linalg.eig(scipy.linalg.block_diag(
            *reduced_lift(spec, flow, trans, pg)))
        kaps = bracket(flow.freqs())
        for i in np.argsort(-np.abs(lam))[:4]:
            z = vecs[:, i].reshape((flow.n_points,) + trans.shape())
            lifted = np.stack([
                _slice_forward(z[s], pg, kap) for s, kap in enumerate(kaps)])
            out = lift_apply(spec, flow, trans, pg,
                             PartialPhaseField(flow, pg, lifted)).values
            assert np.linalg.norm(out - lam[i] * lifted) <= \
                1e-12 * abs(lam[i]) * np.linalg.norm(lifted)


class TestDiagram:
    """matrix (T u) against T (L u) on a well-resolved grid."""

    def test_commutation(self):
        flow = FlowGrid(np.pi, 4)
        trans = make_grid(2, 3.84, 16)
        pg = dual_phase_grid(trans, n_freq=16, center_margin=3.0)

        def g(pts):
            r2 = np.sum(pts[:, 1:] ** 2, axis=-1)
            return (0.6 + 0.4 * np.cos(pts[:, 0])) * np.exp(-r2 / 0.5)
        spec = TransferSpec(ContactMap.shear(2.0, 0.2), g)
        u = gauss_u(0.8)
        vol = sample_volume(u, flow, trans)
        tu = pfbi_forward(vol, pg=pg)
        lhs = lift_apply(spec, flow, trans, pg, tu)
        lu = transfer_apply(spec, u, flow, trans)
        rhs = pfbi_forward(lu, pg=pg)
        err = np.linalg.norm((lhs.values - rhs.values).ravel())
        ref = np.linalg.norm(rhs.values.ravel())
        assert err / ref <= 1e-4


class TestDecompose:

    def test_parts_sum_to_whole(self):
        flow, trans, pg = small_setting()
        mat = lift_kernel(shear_spec(), flow, trans, pg)
        wspec = WeightSpec(big_n=2.0)
        cpt, ctr, hyp = decompose(mat, wspec)
        total = cpt.values + ctr.values + hyp.values
        assert np.max(np.abs(total - mat.values)) <= 1e-12 * \
            np.max(np.abs(mat.values))

    def test_diagonals_partition_unity(self):
        flow, trans, pg = small_setting()
        x0, ctr, hyp = cutoff_diagonals(flow, pg, WeightSpec(big_n=2.0))
        assert np.max(np.abs(x0 + ctr + hyp - 1.0)) <= 1e-12
        assert np.min(x0) >= 0.0 and np.min(ctr) >= 0.0 and np.min(hyp) >= 0.0

    def test_large_cutoff_all_compact(self):
        # grid frequencies far below N: everything lands in the compact part
        flow, trans, pg = small_setting()
        mat = lift_kernel(shear_spec(), flow, trans, pg)
        cpt, ctr, hyp = decompose(mat, WeightSpec(big_n=32.0))
        assert np.max(np.abs(ctr.values)) == 0.0
        assert np.max(np.abs(hyp.values)) == 0.0
        assert np.max(np.abs(cpt.values - mat.values)) == 0.0


def scalar_audit(spec, flow, trans, pg, rho, n_per_stratum, rng_seed):
    """kernel_bound_audit one sample at a time: the labels drawn in the
    audit's order, each entry from kernel_entry_direct and each bound
    from its own quadrature; returns the entries, ratios and mismatches."""
    rng = np.random.default_rng(rng_seed)
    n0, npts = flow.n_points, pg.num_points
    freqs = flow.freqs()
    yd = trans.nodes()
    fy = spec.map.f_dag(yd)
    jacs = np.swapaxes(spec.map.jacobian(yd), -1, -2)
    entries, ratios, mismatch = [], [], []
    for dm in range(n0):
        pairs = [(s, s - dm) for s in range(dm, n0)]
        for _ in range(n_per_stratum):
            s, t = pairs[rng.integers(len(pairs))]
            if rng.uniform() < 0.5 and dm > 0:
                s, t = t, s
            out_idx = phase_index(flow, pg, s * npts + rng.integers(npts))
            in_idx = phase_index(flow, pg, t * npts + rng.integers(npts))
            value = kernel_entry_direct(spec, flow, trans, out_idx, in_idx)
            kap_o, kap_i = bracket(freqs[s]), bracket(freqs[t])
            f1 = bracket(freqs[s] - freqs[t])
            f2 = bracket(np.linalg.norm(out_idx.x_dag - yd, axis=1)
                         * np.sqrt(kap_o))
            f3 = bracket(np.linalg.norm(fy - in_idx.x_dag, axis=1)
                         * np.sqrt(kap_i))
            f4 = bracket(np.linalg.norm(out_idx.xi - jacs @ in_idx.xi,
                                        axis=1)
                         / np.sqrt(bracket(np.linalg.norm(in_idx.xi))))
            integral = 2.0 * flow.half_period * trans.weight \
                * np.sum((f1 * f2 * f3 * f4) ** (-rho))
            bound = (kap_o * kap_i) ** (trans.dim / 4.0) * integral
            entries.append(value)
            ratios.append(abs(value) / bound)
            mismatch.append(dm)
    return np.array(entries), np.array(ratios), np.array(mismatch)


class TestKernelBoundAudit:

    def setup_method(self):
        self.flow = FlowGrid(np.pi, 6)
        self.trans = make_grid(2, 1.6, 8)
        self.pg = dual_phase_grid(self.trans, n_freq=8)
        self.spec = TransferSpec(ContactMap.shear(2.0, 0.3), flow_amp)

    @pytest.mark.parametrize("grid", ["c10", "shear"])
    @pytest.mark.parametrize("rho, n_per_stratum, seed",
                             [(1.0, 4, 0), (2.0, 3, 7)])
    def test_batched_audit_matches_entry_loop(self, grid, rho,
                                              n_per_stratum, seed):
        # the benchmark's C10 grid and bump, and this class's shear grid
        if grid == "c10":
            trans = make_grid(2, 0.7, 4)
            args = (TransferSpec(ContactMap.linear(np.diag([4.0, 0.25])),
                                 gauss_amp(0.5)),
                    FlowGrid(np.pi, 4), trans,
                    dual_phase_grid(trans, n_freq=4))
        else:
            args = (self.spec, self.flow, self.trans, self.pg)
        res = kernel_bound_audit(*args, rho=rho, n_per_stratum=n_per_stratum,
                                 rng_seed=seed)
        entries, ratios, mismatch = scalar_audit(*args, rho, n_per_stratum,
                                                 seed)
        assert np.array_equal(res["mismatch"], mismatch)
        peak = np.max(np.abs(entries))
        assert peak > 0
        assert np.max(np.abs(res["entries"] - entries)) <= 1e-12 * peak
        assert np.max(np.abs(res["ratios"] - ratios)) \
            <= 1e-12 * np.max(ratios)
        assert res["c_rho"] == pytest.approx(np.max(ratios), rel=1e-12)

    def test_batch_memory_is_one_stratum(self):
        # a stratum's arrays hold n_per_stratum rows of volume points; all
        # samples at once would hold the six strata of this grid together
        n = 16
        batch = 16 * n * self.flow.n_points * self.trans.num_points
        kernel_bound_audit(self.spec, self.flow, self.trans, self.pg,
                           rho=2.0, n_per_stratum=1)
        tracemalloc.start()
        try:
            kernel_bound_audit(self.spec, self.flow, self.trans, self.pg,
                               rho=2.0, n_per_stratum=n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 10 * batch, peak / batch

    def test_bound_holds_with_fitted_constant(self):
        res = kernel_bound_audit(self.spec, self.flow, self.trans, self.pg,
                                 rho=2.0, n_per_stratum=3, rng_seed=1)
        assert res["c_rho"] > 0.0
        assert np.all(res["ratios"] <= res["c_rho"] + 1e-15)

    def test_mismatch_decay(self):
        # a matched diagonal entry vs one with maximal flow mismatch
        mid = self.pg.num_points // 2
        matched_out = phase_index(self.flow, self.pg,
                                  3 * self.pg.num_points + mid)
        far_in = phase_index(self.flow, self.pg, 0 * self.pg.num_points + mid)
        k_diag = kernel_entry_direct(self.spec, self.flow, self.trans,
                                     matched_out, matched_out)
        k_far = kernel_entry_direct(self.spec, self.flow, self.trans,
                                    matched_out, far_in)
        assert abs(k_far) <= 0.1 * abs(k_diag)

    def test_zero_amplitude(self):
        spec = TransferSpec(ContactMap.shear(2.0, 0.3), zero_amp)
        res = kernel_bound_audit(spec, self.flow, self.trans, self.pg,
                                 rho=2.0, n_per_stratum=2, rng_seed=2)
        assert np.max(res["ratios"]) == 0.0


class TestLambdaDelta:

    def setup_method(self):
        self.flow = FlowGrid(np.pi, 4)
        self.trans = make_grid(2, 2.0, 8)

    def test_linear_anchor(self):
        spec = TransferSpec(ContactMap.linear(np.diag([4.0, 0.25])), ones_amp)
        lam_fg, delta_fg, bound = lambda_delta(spec, self.flow, self.trans,
                                               lam=4.0, r=4.0)
        assert lam_fg == pytest.approx(0.5)
        assert delta_fg == pytest.approx(2.0)
        assert bound == pytest.approx(0.5)

    def test_amplitude_scaling(self):
        cmap = ContactMap.linear(np.diag([4.0, 0.25]))
        a = lambda_delta(TransferSpec(cmap, gauss_amp(0.5)),
                         self.flow, self.trans, lam=4.0, r=4.0)
        b = lambda_delta(TransferSpec(cmap, gauss_amp(0.5, amp=3.0)),
                         self.flow, self.trans, lam=4.0, r=4.0)
        assert b[0] == pytest.approx(3.0 * a[0])
        assert b[1] == pytest.approx(a[1])
        assert b[2] == pytest.approx(3.0 * a[2])

    def test_zero_amplitude(self):
        spec = TransferSpec(ContactMap.linear(np.diag([4.0, 0.25])), zero_amp)
        assert lambda_delta(spec, self.flow, self.trans, 4.0, 4.0) == \
            (0.0, 0.0, 0.0)

    def test_global_anchor(self):
        assert lambda_global(1.0, np.e) == pytest.approx(np.exp(-0.5))
