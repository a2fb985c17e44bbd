"""Tests for the partial transform: flow factor, slices and projection."""

import numpy as np
import pytest

from contactfbi.fbi_core import dual_phase_grid
from contactfbi.numerics import make_grid
from contactfbi.partial_fbi import (FlowGrid, PartialPhaseField, VolumeField,
                                    _amplitude, _axis_factor, _point_factors,
                                    _slice_adjoint, _slice_forward,
                                    check_transversal_spacing,
                                    min_transversal_points,
                                    partial_packet, pcal_apply, pfbi_adjoint,
                                    pfbi_forward, pfbi_roundtrip,
                                    reconstruct_slice, sample_volume,
                                    scatter_slice)


def gaussian_volume(flow, trans, k_flow=2.0, width=0.8):
    def f(pts):
        y0 = pts[:, 0]
        yd = pts[:, 1:]
        return np.exp(1j * k_flow * y0 - np.sum(yd ** 2, axis=-1) /
                      (2.0 * width ** 2))
    return sample_volume(f, flow, trans)


class TestFlowGrid:

    def test_exact_unitarity(self):
        fg = FlowGrid(np.pi, 8)
        prod = fg.idft_matrix() @ fg.dft_matrix()
        assert np.max(np.abs(prod - np.eye(8))) <= 1e-13

    def test_freqs_integer_type(self):
        fg = FlowGrid(np.pi, 6)
        assert np.allclose(fg.freqs(), [-3, -2, -1, 0, 1, 2])

    def test_spacing(self):
        fg = FlowGrid(np.pi, 6)
        assert fg.spacing == pytest.approx(np.pi / 3.0)
        assert fg.freq_spacing == pytest.approx(1.0)


class TestForward:

    def setup_method(self):
        self.flow = FlowGrid(np.pi, 6)
        self.trans = make_grid(2, 4.0, 22)
        self.vol = gaussian_volume(self.flow, self.trans)

    def test_matches_direct_quadrature(self):
        # the transform must equal the plain quadrature pairing with the
        # packet on the same grid
        pf = pfbi_forward(self.vol, n_freq=26)
        pg = pf.phase
        s = 5                      # slice with xi0 = 2
        xi0 = self.flow.freqs()[s]
        ci, cj, fi, fj = 11, 12, 13, 14
        x_dag = np.array([pg.axes[0].centers[ci], pg.axes[1].centers[cj]])
        xi = np.array([xi0, pg.axes[0].freqs[fi], pg.axes[1].freqs[fj]])
        phi = partial_packet(x_dag, xi)
        y0 = self.flow.nodes()
        yd = self.trans.nodes()
        pts = np.concatenate([np.repeat(y0, yd.shape[0])[:, None],
                              np.tile(yd, (self.flow.n_points, 1))], axis=1)
        w = self.flow.spacing * self.trans.weight
        direct = np.sum(np.conj(phi(pts)) * self.vol.values.ravel()) * w
        assert abs(pf.values[s, ci, cj, fi, fj] - direct) <= 1e-13

    def test_min_transversal_points_is_the_spacing_rule(self):
        for half_width, n0 in ((1.6, 8), (1.6, 16), (5.0, 6), (0.7, 4)):
            flow = FlowGrid(np.pi, n0)
            n = min_transversal_points(half_width, flow)
            assert n % 2 == 0
            check_transversal_spacing(make_grid(2, half_width, n), flow)
            if n > 4:
                with pytest.raises(ValueError, match="too coarse"):
                    check_transversal_spacing(
                        make_grid(2, half_width, n - 2), flow)
        # the default CLI box at 8 and 16 flow points
        assert min_transversal_points(1.6, FlowGrid(np.pi, 8)) == 10
        assert min_transversal_points(1.6, FlowGrid(np.pi, 16)) == 14

    def test_spacing_guard(self):
        coarse = make_grid(2, 4.0, 8)
        vol = gaussian_volume(self.flow, coarse)
        with pytest.raises(ValueError):
            pfbi_forward(vol)

    def test_adjoint_is_adjoint(self):
        pf = pfbi_forward(self.vol, n_freq=26)
        rng = np.random.default_rng(4)
        other = PartialPhaseField(self.flow, pf.phase,
                                  rng.standard_normal(pf.values.shape))
        lhs = np.sum(np.conj(pf.values) * other.values) * \
            self.flow.freq_spacing * pf.phase.weight
        back = pfbi_adjoint(other, trans=self.trans)
        rhs = np.sum(np.conj(self.vol.values) * back.values) * \
            self.flow.spacing * self.trans.weight
        assert abs(lhs - rhs) <= 1e-10 * abs(lhs)


class TestIdentity:

    def test_roundtrip_matches_materialized_pair(self):
        # pfbi_adjoint is the reference oracle of the streamed adjoints
        flow = FlowGrid(np.pi, 4)
        trans = make_grid(2, 3.0, 14)
        vol = gaussian_volume(flow, trans)
        pg = dual_phase_grid(trans)
        want = pfbi_adjoint(pfbi_forward(vol, pg), trans).values
        got = pfbi_roundtrip(vol, pg).values
        assert np.linalg.norm((got - want).ravel()) <= \
            1e-13 * np.linalg.norm(want.ravel())

    def test_roundtrip_identity(self):
        flow = FlowGrid(np.pi, 6)
        trans = make_grid(2, 5.0, 26)
        vol = gaussian_volume(flow, trans)
        back = pfbi_roundtrip(vol)
        err = np.linalg.norm((back.values - vol.values).ravel())
        ref = np.linalg.norm(vol.values.ravel())
        assert err / ref <= 1e-5

    def test_roundtrip_mixed_modes(self):
        flow = FlowGrid(np.pi, 6)
        trans = make_grid(2, 5.0, 26)

        def f(pts):
            y0 = pts[:, 0]
            yd = pts[:, 1:]
            env = np.exp(-np.sum(yd ** 2, axis=-1) / 1.28)
            return (np.exp(1j * y0) + 0.5 * np.exp(-2j * y0)) * env * \
                (1.0 + 0.3 * yd[:, 0])
        vol = sample_volume(f, flow, trans)
        back = pfbi_roundtrip(vol)
        err = np.linalg.norm((back.values - vol.values).ravel())
        ref = np.linalg.norm(vol.values.ravel())
        assert err / ref <= 1e-5

    def test_isometry(self):
        flow = FlowGrid(np.pi, 6)
        trans = make_grid(2, 5.0, 26)
        vol = gaussian_volume(flow, trans)
        pf = pfbi_forward(vol)
        assert abs(pf.norm() - vol.norm()) / vol.norm() <= 1e-5

    def test_weighted_roundtrip_flat_weight(self):
        # a constant weight of one must reproduce the identity application
        flow = FlowGrid(np.pi, 6)
        trans = make_grid(2, 5.0, 26)
        vol = gaussian_volume(flow, trans)
        a = pfbi_roundtrip(vol)
        b = pfbi_roundtrip(vol, weight=lambda xi0, pg: 1.0)
        assert np.allclose(a.values, b.values, atol=1e-14)


class TestProjection:

    def setup_method(self):
        self.flow = FlowGrid(np.pi, 6)
        self.trans = make_grid(2, 4.0, 22)
        self.vol = gaussian_volume(self.flow, self.trans)
        # centers extended beyond the box: every space node keeps full
        # packet coverage, so the projection defect is a boundary tail even
        # on broadband data
        pg = dual_phase_grid(self.trans, n_freq=26, center_margin=3.5)
        self.pf = pfbi_forward(self.vol, pg=pg)

    def test_idempotent_on_range(self):
        # transform data already lies in the range, so the projection
        # moves it only by the identity defect
        proj = pcal_apply(self.pf)
        err = np.linalg.norm((proj.values - self.pf.values).ravel())
        ref = np.linalg.norm(self.pf.values.ravel())
        assert err / ref <= 1e-5

    def test_projection_squares(self):
        rng = np.random.default_rng(7)
        noise = PartialPhaseField(
            self.flow, self.pf.phase,
            rng.standard_normal(self.pf.values.shape)
            + 1j * rng.standard_normal(self.pf.values.shape))
        p1 = pcal_apply(noise)
        p2 = pcal_apply(p1)
        err = np.linalg.norm((p2.values - p1.values).ravel())
        ref = np.linalg.norm(p1.values.ravel())
        assert err / ref <= 1e-5

    def test_self_adjoint(self):
        rng = np.random.default_rng(8)
        shape = self.pf.values.shape
        a = PartialPhaseField(self.flow, self.pf.phase,
                              rng.standard_normal(shape)
                              + 1j * rng.standard_normal(shape))
        b = PartialPhaseField(self.flow, self.pf.phase,
                              rng.standard_normal(shape)
                              + 1j * rng.standard_normal(shape))
        w = self.flow.freq_spacing * self.pf.phase.weight
        lhs = np.sum(np.conj(pcal_apply(a).values) * b.values) * w
        rhs = np.sum(np.conj(a.values) * pcal_apply(b).values) * w
        assert abs(lhs - rhs) <= 1e-10 * abs(lhs)


class TestSliceCore:
    """The off-grid contractions agree with the grid ones at the nodes."""

    def setup_method(self):
        trans = make_grid(2, 2.0, 10)
        self.pg = dual_phase_grid(trans, center_margin=1.0)
        self.nodes = trans.nodes()
        self.kappa = 2.5
        self.rng = np.random.default_rng(11)

    def _noise(self, shape):
        return self.rng.standard_normal(shape) \
            + 1j * self.rng.standard_normal(shape)

    def test_reconstruct_at_nodes_is_adjoint(self):
        v = self._noise(self.pg.shape())
        ref = _slice_adjoint(v, self.pg, self.kappa).ravel()
        got = reconstruct_slice(v, self.pg, self.kappa, self.nodes)
        assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref)

    def test_scatter_at_nodes_is_forward(self):
        u = self._noise((self.pg.axes[0].y.size, self.pg.axes[1].y.size))
        ref = _slice_forward(u, self.pg, self.kappa)
        got = scatter_slice(u.ravel(), self.pg, self.kappa, self.nodes) \
            * (self.pg.y_weight / self.pg.weight)
        assert np.linalg.norm((got - ref).ravel()) <= \
            1e-12 * np.linalg.norm(ref.ravel())

    def _uncached(self, pts, conj):
        return [_axis_factor(ax.centers, ax.freqs, pts[:, a], self.kappa,
                             conj) for a, ax in enumerate(self.pg.axes)]

    def test_off_grid_matches_uncached_factors(self):
        pts = self.rng.uniform(-2.0, 2.0, size=(37, 2))
        pref = _amplitude(self.kappa, 2) * self.pg.weight
        v = self._noise(self.pg.shape())
        a1, a2 = self._uncached(pts, conj=False)
        ref = pref * np.einsum("abcd,acz,bdz->z", v, a1, a2)
        vals = self._noise(pts.shape[0])
        b1, b2 = self._uncached(pts, conj=True)
        ref_back = pref * np.einsum("z,acz,bdz->abcd", vals, b1, b2)
        # the second round reads the memoized factors
        for _ in range(2):
            got = reconstruct_slice(v, self.pg, self.kappa, pts)
            assert np.linalg.norm(got - ref) <= 1e-14 * np.linalg.norm(ref)
            got = scatter_slice(vals, self.pg, self.kappa, pts)
            assert np.linalg.norm((got - ref_back).ravel()) <= \
                1e-14 * np.linalg.norm(ref_back.ravel())

    def test_cached_factors_are_read_only(self):
        pts = self.rng.uniform(-2.0, 2.0, size=(5, 2))
        for conj in (False, True):
            _, _, factors = _point_factors(self.pg, self.kappa, pts, conj)
            for factor in factors:
                assert not factor.flags.writeable
                with pytest.raises(ValueError):
                    factor[0, 0, 0] = 0.0
            _, _, again = _point_factors(self.pg, self.kappa, pts, conj)
            assert all(a is b for a, b in zip(factors, again))
