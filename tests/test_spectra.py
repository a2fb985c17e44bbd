"""Tests for spectrum reports, weighted norms and the frequency block."""

import json

import numpy as np
import pytest

from contactfbi.aniso_norm import WeightSpec
from contactfbi.contact_geometry import ContactMap
from contactfbi.fbi_core import det_factor, dual_phase_grid
from contactfbi.numerics import make_grid
from contactfbi.partial_fbi import (FlowGrid, _slice_adjoint, _slice_forward,
                                    reconstruct_slice, scatter_slice)
from contactfbi.spectra import (CentralBlock, CentralFrame, SpectrumReport,
                                central_block_audit, conjugated_operator,
                                expansion_argmax, lower_bound_family,
                                model_spectrum, persistent_outliers,
                                slice_block_defect, weighted_norm_measure)
from contactfbi.transfer_ops import TransferSpec, lambda_delta, lift_kernel


def sym_block(lam):
    return np.diag([float(lam), 1.0 / float(lam)])


def bump_amp(width=0.5):
    def g(pts):
        yd = pts[:, 1:]
        return np.exp(-np.sum(yd ** 2, axis=-1) / width)
    return g


def flow_amp():
    def g(pts):
        return (0.7 + 0.3 * np.cos(pts[:, 0])) * \
            np.exp(-np.sum(pts[:, 1:] ** 2, axis=-1) / 0.5)
    return g


def zero_amp():
    return lambda pts: np.zeros(pts.shape[0], dtype=complex)


def toy_setting():
    flow = FlowGrid(np.pi, 4)
    trans = make_grid(2, 0.9, 4)
    pg = dual_phase_grid(trans, n_freq=4)
    return flow, trans, pg


class TestSpectrumReport:

    def test_sorted_and_counts(self):
        eigs = [0.1, 0.9 + 0.1j, 0.3, 1.2]
        rep = SpectrumReport(eigs, {"rows": 4}, 0.5, margin=0.1)
        assert np.all(np.diff(rep.moduli) <= 1e-15)
        assert rep.stable_count == 2          # moduli above 0.55
        assert rep.outliers().size == 2

    def test_inside_fraction(self):
        rep = SpectrumReport([1.0, 0.1, 0.1, 0.1], {}, 0.5)
        assert rep.inside_fraction() == pytest.approx(0.75)

    def test_json_and_csv(self, tmp_path):
        rep = SpectrumReport([0.4j, 0.8], {"rows": 2, "n0": 4}, 0.5)
        jp = tmp_path / "spec.json"
        cp = tmp_path / "spec.csv"
        rep.save_json(jp)
        rep.save_csv(cp)
        with open(jp) as fh:
            data = json.load(fh)
        assert data["stable_count"] == rep.stable_count
        assert data["refinement"]["n0"] == 4
        lines = cp.read_text().strip().split("\n")
        assert lines[0].startswith("#") and "n0=4" in lines[0]
        assert lines[2] == "index,re,im,modulus"
        assert len(lines) == 5

    def test_persistence(self):
        a = SpectrumReport([1.0, 0.9, 0.1], {}, 0.5)
        b = SpectrumReport([1.02, 0.88, 0.2], {}, 0.5)
        res = persistent_outliers(a, b)
        assert res["counts_match"] and res["persistent"]
        c = SpectrumReport([1.0, 0.1], {}, 0.5)
        assert not persistent_outliers(a, c)["counts_match"]


class TestWeightedNorm:

    def test_unweighted_is_one(self):
        val = weighted_norm_measure(sym_block(4.0), 1.0, 0.0,
                                    half_widths=(10.0, 10.0))
        assert 0.98 <= val <= 1.02

    def test_slope_tracks_expansion_branch(self):
        # on a window where the weight's dynamic range stays moderate the
        # norm decays with lam like d(B)^(-1/2); wider windows let the
        # cone-transition coupling take over and flatten nothing
        lams = (4.0, 8.0, 16.0, 32.0)
        norms, branch = [], []
        for lam in lams:
            norms.append(weighted_norm_measure(
                sym_block(lam), 16.0, 4.0,
                half_widths=(2.0, 2.0), spacing=0.35))
            d = det_factor(sym_block(lam))
            branch.append(max(d ** -0.5, d ** 0.5 * lam ** -4.0))
        sm = np.polyfit(np.log(lams), np.log(norms), 1)[0]
        sb = np.polyfit(np.log(lams), np.log(branch), 1)[0]
        assert abs(sm - sb) <= 0.15

    def test_norm_decreases_with_lam(self):
        vals = [weighted_norm_measure(sym_block(lam), 16.0, 4.0,
                                      half_widths=(2.0, 2.0), spacing=0.35)
                for lam in (4.0, 16.0)]
        assert vals[1] < vals[0]


class TestModelSpectrum:

    def test_zero_amplitude(self):
        flow, trans, pg = toy_setting()
        cmap = ContactMap.linear(sym_block(4.0))
        spec = TransferSpec(cmap, zero_amp(), name="zero")
        reps = model_spectrum(spec, WeightSpec(), [(flow, trans, pg)], 0.5)
        assert np.max(reps[0].moduli) <= 1e-14
        assert reps[0].stable_count == 0

    def test_conjugation_is_similarity(self):
        flow, trans, pg = toy_setting()
        cmap = ContactMap.linear(sym_block(4.0))
        spec = TransferSpec(cmap, bump_amp(), name="bump")
        mat = lift_kernel(spec, flow, trans, pg)
        plain = np.linalg.eigvals(mat.values * mat.in_measure)
        conj = np.linalg.eigvals(conjugated_operator(mat, WeightSpec()))
        a = np.sort_complex(plain)
        b = np.sort_complex(conj)
        assert np.max(np.abs(a - b)) <= 1e-8 * max(1.0, np.max(np.abs(a)))

    def test_size_guard(self):
        flow = FlowGrid(np.pi, 6)
        trans = make_grid(2, 3.0, 16)
        pg = dual_phase_grid(trans)
        cmap = ContactMap.linear(sym_block(4.0))
        spec = TransferSpec(cmap, bump_amp(), name="bump")
        with pytest.raises(ValueError):
            model_spectrum(spec, WeightSpec(), [(flow, trans, pg)], 0.5,
                           max_size=100)

    def test_block_diagonal_for_flow_independent_amplitude(self):
        flow, trans, pg = toy_setting()
        cmap = ContactMap.linear(sym_block(4.0))
        spec = TransferSpec(cmap, bump_amp(), name="bump")
        mat = lift_kernel(spec, flow, trans, pg)
        assert slice_block_defect(mat) <= 1e-8

    def test_not_block_diagonal_with_flow_dependence(self):
        flow, trans, pg = toy_setting()
        cmap = ContactMap.linear(sym_block(4.0))
        spec = TransferSpec(cmap, flow_amp(), name="flow")
        mat = lift_kernel(spec, flow, trans, pg)
        assert slice_block_defect(mat) > 1e-3


class TestLowerBoundFamily:

    def setup_method(self):
        self.flow = FlowGrid(np.pi, 16)
        self.trans = make_grid(2, 1.6, 16)
        self.pg = dual_phase_grid(self.trans, n_freq=18)
        cmap = ContactMap.shear(2.0, 0.2)
        self.spec = TransferSpec(cmap, bump_amp(), name="bump")
        self.wspec = WeightSpec()

    def test_ratios_positive_and_packets_orthogonal(self):
        # the window must stay wide relative to the flow spacing, else the
        # sampled packets degenerate into near-parallel edge spikes
        res = lower_bound_family(self.spec, self.flow, self.trans, self.pg,
                                 [2, 6], self.wspec, m=1.0)
        assert np.all(res["ratios"] > 0)
        gp = np.abs(res["gram_phi"])
        assert gp[0, 0] == pytest.approx(1.0, rel=1e-8)
        assert gp[0, 1] <= 0.1

    def test_nyquist_guard(self):
        with pytest.raises(ValueError):
            lower_bound_family(self.spec, self.flow, self.trans, self.pg,
                               [64], self.wspec)

    def test_lattice_guard(self):
        with pytest.raises(ValueError):
            lower_bound_family(self.spec, self.flow, self.trans, self.pg,
                               [2.5], self.wspec)

    def test_zero_amplitude(self):
        spec = TransferSpec(self.spec.map, zero_amp(), name="zero")
        res = lower_bound_family(spec, self.flow, self.trans, self.pg,
                                 [3], self.wspec,
                                 x_star=np.zeros(2))
        assert np.max(res["ratios"]) <= 1e-14

    def test_argmax_at_bump_center(self):
        x = expansion_argmax(self.spec, self.flow, self.trans)
        assert np.linalg.norm(x) <= 0.3


def central_setting(g=None, cmap=None):
    flow = FlowGrid(np.pi / 2.0, 8)
    if cmap is None:
        cmap = ContactMap.shear(2.0, 0.3)
    if g is None:
        g = flow_amp()
    spec = TransferSpec(cmap, g, name="central")
    wspec = WeightSpec(big_n=8.0)
    return spec, wspec, flow


def pair_apply(blk, u):
    """CentralBlock.apply as one slice transform per (out, in) pair."""
    f = blk.frame
    v = u * blk.col
    out = np.zeros((f.xi0.size, f.pg_out.num_points), dtype=complex)
    for s, t, moff in blk._pairs():
        rec = reconstruct_slice(v[t].reshape(f.pg_in.shape()), f.pg_in,
                                blk.kap_i[t], blk.mapped)
        mid = blk._ghat_row(moff) * rec * np.exp(1j * f.eta0[t] * blk.shift)
        out[s] += blk.scale * _slice_forward(
            mid.reshape(f.y_shape), f.pg_out, blk.kap_o[s]).ravel()
    return out * blk.row


def pair_apply_adjoint(blk, w):
    """CentralBlock.apply_adjoint as one scatter per (out, in) pair."""
    f = blk.frame
    wr = w * blk.row
    acc = np.zeros((f.eta0.size, f.pg_in.num_points), dtype=complex)
    for s, t, moff in blk._pairs():
        back = _slice_adjoint(wr[s].reshape(f.pg_out.shape()), f.pg_out,
                              blk.kap_o[s]).ravel() \
            * (f.pg_out.y_weight / f.pg_out.weight)
        gfac = blk._ghat_row(moff) * np.exp(1j * f.eta0[t] * blk.shift)
        acc[t] += blk.scale * scatter_slice(np.conj(gfac) * back, f.pg_in,
                                            blk.kap_i[t], blk.mapped).ravel()
    return (f.pg_out.weight / f.pg_in.weight) * acc * blk.col


class TestCentralBlock:

    kwargs = {"c_margin": 2.5, "f_margin": 1.0, "ghat_offsets": 3}

    def test_vanishes_below_threshold(self):
        spec, _, flow = central_setting()
        res = central_block_audit(spec, 4, WeightSpec(big_n=32.0), flow)
        assert res["vanishes"] and res["norm_primed"] == 0.0

    def test_vanishes_when_cutoff_swallows_slab(self):
        # k^2 > N/2 but the q-tilde slab still sits inside the compact
        # cutoff, so the column cutoff is identically zero
        spec, _, flow = central_setting()
        res = central_block_audit(spec, 5, WeightSpec(big_n=32.0), flow,
                                  **self.kwargs)
        assert res["vanishes"]

    def test_adjoint_pairing(self):
        spec, wspec, flow = central_setting()
        frame = CentralFrame(spec, 6, wspec, flow, **self.kwargs)
        rng = np.random.default_rng(3)
        u = rng.standard_normal((frame.eta0.size, frame.pg_in.num_points)) \
            + 1j * rng.standard_normal((frame.eta0.size,
                                        frame.pg_in.num_points))
        w = rng.standard_normal((frame.xi0.size, frame.pg_out.num_points)) \
            + 1j * rng.standard_normal((frame.xi0.size,
                                        frame.pg_out.num_points))
        for primed in (False, True):
            blk = CentralBlock(frame, primed=primed)
            mu_in = frame.fs * frame.pg_in.weight
            mu_out = frame.fs * frame.pg_out.weight
            lhs = np.vdot(blk.apply(u).ravel(), w.ravel()) * mu_out
            rhs = np.vdot(u.ravel(), blk.apply_adjoint(w).ravel()) * mu_in
            assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), 1e-300)

    def test_matches_per_pair_loop(self):
        spec, wspec, flow = central_setting()
        frame = CentralFrame(spec, 6, wspec, flow, **self.kwargs)
        rng = np.random.default_rng(5)
        shape_in = (frame.eta0.size, frame.pg_in.num_points)
        shape_out = (frame.xi0.size, frame.pg_out.num_points)
        u = rng.standard_normal(shape_in) + 1j * rng.standard_normal(shape_in)
        w = rng.standard_normal(shape_out) \
            + 1j * rng.standard_normal(shape_out)
        for primed in (False, True):
            blk = CentralBlock(frame, primed=primed)
            # the first call builds the packet factors, the second reuses
            first = blk.apply(u)
            assert np.array_equal(first, blk.apply(u))
            for got, ref in ((first, pair_apply(blk, u)),
                             (blk.apply_adjoint(w),
                              pair_apply_adjoint(blk, w))):
                assert np.linalg.norm(got - ref) <= \
                    1e-13 * np.linalg.norm(ref)

    def test_zero_amplitude_gives_zero_block(self):
        spec, wspec, flow = central_setting(g=zero_amp())
        frame = CentralFrame(spec, 6, wspec, flow, **self.kwargs)
        blk = CentralBlock(frame, primed=False)
        rng = np.random.default_rng(0)
        u = rng.standard_normal((frame.eta0.size, frame.pg_in.num_points))
        assert np.max(np.abs(blk.apply(u))) == 0.0

    def test_coincidence_linear_flow_amplitude(self):
        # linear map with an amplitude depending only on the flow
        # coordinate: the surrogate differs only through the frequency
        # freeze, so the difference stays below the block norm itself
        def g(pts):
            return 0.8 + 0.2 * np.cos(2.0 * pts[:, 0])
        cmap = ContactMap.linear(sym_block(2.0))
        spec, wspec, flow = central_setting(g=g, cmap=cmap)
        res = central_block_audit(spec, 6, wspec, flow, iters=8,
                                  **self.kwargs)
        assert not res["vanishes"]
        assert res["norm_primed"] > 0
        assert res["norm_diff"] < res["norm_primed"]

    def test_lattice_miss_guard(self):
        spec, wspec, _ = central_setting()
        coarse = FlowGrid(np.pi / 24.0, 4)    # frequency spacing 24
        with pytest.raises(ValueError):
            CentralFrame(spec, 6, wspec, coarse, **self.kwargs)

    def test_surrogate_respects_expansion_bound(self):
        # moderate weight exponent keeps the cone-transition amplification
        # out of the picture, so a small constant suffices
        spec, _, flow = central_setting()
        wspec = WeightSpec(r=1.0, big_n=8.0)
        trans = make_grid(2, 1.2, 10)
        lam_fg, delta_fg, _ = lambda_delta(spec, flow, trans, 2.0, wspec.r)
        res = central_block_audit(spec, 6, wspec, flow, iters=8,
                                  **self.kwargs)
        bound = max(lam_fg, 1.0 * 2.0 ** (-wspec.r) * delta_fg)
        assert res["norm_primed"] <= 3.0 * bound
