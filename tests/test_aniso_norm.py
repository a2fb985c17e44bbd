"""Tests for cutoffs, weights and partitions of unity."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from contactfbi.aniso_norm import (WeightSpec, bracket, cal_w_aniso, chi,
                                   chi_n, cutoff_triple, lp_partition,
                                   psi_dyadic, psi_minus, psi_plus, q_block,
                                   q_k, q_tilde, q_tilde_separation,
                                   q_tilde_support, slice_covectors,
                                   slice_weight, smooth_step,
                                   twisted_frequency, v_s, w_aniso)
from contactfbi.contact_geometry import AffineContactMap
from contactfbi.fbi_core import PhaseAxis, PhaseGrid, dual_frequencies


class TestChi:

    def test_plateaus(self):
        assert chi(np.array([0.0, 1.0, 4.0 / 3.0]))[2] == 1.0
        assert np.all(chi(np.array([-5.0, 0.5, 1.2])) == 1.0)
        assert np.all(chi(np.array([5.0 / 3.0, 2.0, 100.0])) == 0.0)

    def test_monotone_transition(self):
        s = np.linspace(4.0 / 3.0, 5.0 / 3.0, 50)
        vals = chi(s)
        assert np.all(np.diff(vals) <= 1e-12)
        assert np.all((vals >= 0.0) & (vals <= 1.0))

    def test_smooth_step_midpoint(self):
        assert smooth_step(np.array([0.5]))[0] == pytest.approx(0.5)


def _step_quotient(t):
    """The step as the plain masked-mollifier quotient over the whole
    line, g(t) / (g(t) + g(1 - t)) with g(t) = exp(-1/t) for t > 0 and
    0 otherwise: the reference smooth_step must equal bit for bit."""
    def g(x):
        out = np.zeros_like(x)
        pos = x > 0
        out[pos] = np.exp(-1.0 / x[pos])
        return out
    t = np.asarray(t, dtype=float)
    with np.errstate(invalid="ignore", over="ignore"):
        return g(t) / (g(t) + g(1.0 - t))


class TestStepOracle:
    """smooth_step, chi and bracket against the quotient evaluated
    everywhere, on every memory layout and on the edges of the band."""

    EDGES = [0.0, -0.0, 1.0, 1e-300, 1.0 - 1e-16, 5e-324, np.nan, np.inf,
             -np.inf, 0.5, 4.0 / 3.0, 5.0 / 3.0]

    @classmethod
    def _inputs(cls):
        rng = np.random.default_rng(3)
        base = rng.normal(0.5, 0.8, (24, 30))
        base[::5, ::7] = np.nan
        base.flat[:len(cls.EDGES)] = cls.EDGES
        col = rng.normal(0.5, 0.8, (1, 30))
        yield "C order", base
        yield "F order", np.asfortranarray(base)
        yield "strided", base[::2, 1::3]
        yield "transposed", base.T
        yield "broadcast", np.broadcast_to(col, (24, 30))
        yield "0-d", np.array(0.25)
        for t in cls.EDGES:
            yield "float %r" % t, float(t)
            yield "0-d %r" % t, np.array(t)

    @staticmethod
    def _same(got, want, name):
        assert np.shape(got) == np.shape(want), name
        assert np.array_equal(got, want, equal_nan=True), name

    def test_smooth_step_is_the_quotient(self):
        with np.errstate(over="ignore"):
            for name, t in self._inputs():
                self._same(smooth_step(t), _step_quotient(t), name)

    def test_chi_and_bracket_are_the_quotient(self):
        with np.errstate(over="ignore"):
            for name, t in self._inputs():
                s = np.asarray(t, dtype=float)
                c = _step_quotient(5.0 - 3.0 * s)
                self._same(chi(t), c, name)
                a = np.abs(s)
                c = _step_quotient(5.0 - 3.0 * a)
                self._same(bracket(t), a * (1.0 - c) + c, name)

    def test_scalars_stay_scalars(self):
        for t in (0.25, np.array(0.25), np.nan, 2.0):
            assert np.ndim(smooth_step(t)) == 0
            assert isinstance(smooth_step(t), np.float64)


class TestBracket:

    def test_values(self):
        assert bracket(0.0) == 1.0
        assert bracket(2.0) == 2.0
        assert bracket(-3.5) == 3.5
        assert bracket(1.0) == 1.0

    @settings(max_examples=80, deadline=None)
    @given(st.floats(-50.0, 50.0))
    def test_lower_bound_and_tail(self, s):
        val = float(bracket(s))
        assert val >= 1.0 - 1e-12
        if abs(s) >= 2.0:
            assert val == pytest.approx(abs(s))


@settings(max_examples=80, deadline=None)
@given(st.floats(-1000.0, 1000.0))
def test_chi_n_partition(s):
    total = sum(chi_n(s, n) for n in range(12))
    assert total == pytest.approx(1.0, abs=1e-12)


class TestPsi:

    def test_cone_plateaus(self):
        assert psi_plus(np.array([1.0, 0.3])) == pytest.approx(1.0)
        assert psi_plus(np.array([0.3, 1.0])) == pytest.approx(0.0)
        assert psi_minus(np.array([0.3, 1.0])) == pytest.approx(1.0)

    def test_direction_only(self):
        z = np.array([1.0, 0.7])
        assert psi_plus(z) == pytest.approx(psi_plus(10.0 * z), abs=1e-12)

    def test_origin_symmetric(self):
        assert psi_plus(np.zeros(2)) == pytest.approx(0.5)

    @pytest.mark.parametrize("t", [0.98, 0.9, 0.5, 0.1])
    def test_both_cone_functions_relatively_accurate(self, t):
        # the point (1, rho) with cone argument t = 1 - log(9 rho^2) / log 81;
        # near t = 1, 1 - psi_plus keeps no digit of psi_minus ~ exp(-50)
        z = np.array([1.0, np.sqrt(81.0 ** (1.0 - t) / 9.0)])
        g1, g2 = np.exp(-1.0 / t), np.exp(-1.0 / (1.0 - t))
        assert psi_plus(z) == pytest.approx(g1 / (g1 + g2), rel=1e-12, abs=0)
        assert psi_minus(z) == pytest.approx(g2 / (g1 + g2), rel=1e-12, abs=0)


class TestWAniso:

    def test_origin(self):
        assert w_aniso(np.zeros(2), 4.0) == pytest.approx(1.0)

    def test_decay_in_plus_cone(self):
        z = np.array([8.0, 0.0])
        assert w_aniso(z, 4.0) == pytest.approx(8.0 ** (-4.0))

    def test_growth_in_minus_cone(self):
        z = np.array([0.0, 8.0])
        assert w_aniso(z, 4.0) == pytest.approx(8.0 ** 4.0)

    def test_r_zero_flat(self):
        rng = np.random.default_rng(0)
        z = rng.normal(size=(20, 2)) * 5
        assert np.allclose(w_aniso(z, 0.0), 1.0)


class TestTwistedFrequency:

    def test_explicit(self):
        x = np.array([2.0, 3.0])          # (x+, x-)
        xi = np.array([5.0, 1.0, 1.0])    # (xi0, xi+, xi-)
        # J(x) = (x-, -x+) = (3, -2)
        assert np.allclose(twisted_frequency(x, xi), [5.0, 16.0, -9.0])

    def test_zero_base(self):
        xi = np.array([1.0, 2.0, 3.0])
        assert np.allclose(twisted_frequency(np.zeros(2), xi), xi)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10 ** 6))
    def test_weight_affine_invariance(self, seed):
        # W(x, xi) must equal W at the image point under A_c with the
        # covector moved by the inverse transpose differential
        rng = np.random.default_rng(seed)
        c_dag = rng.normal(size=2)
        x_dag = rng.normal(size=2)
        xi = rng.normal(size=3) * 3.0
        amap = AffineContactMap(np.concatenate([[0.0], c_dag]))
        x_new = amap.apply(np.concatenate([[0.0], x_dag]))[1:]
        basis = np.eye(3)
        zero = np.zeros(3)
        da = np.stack([amap.apply(basis[i]) - amap.apply(zero)
                       for i in range(3)], axis=-1)
        xi_new = np.linalg.solve(da.T, xi)
        lhs = cal_w_aniso(x_dag, xi, 4.0)
        rhs = cal_w_aniso(x_new, xi_new, 4.0)
        assert lhs == pytest.approx(rhs, rel=1e-9)


class TestWeightSpec:

    def test_defaults(self):
        spec = WeightSpec()
        assert spec.r == 4.0 and spec.big_n == 32.0
        assert 0.5 < spec.tau < 0.5 + 1.0 / (100.0 * 4.0)

    def test_tau_range_enforced(self):
        with pytest.raises(ValueError):
            WeightSpec(tau=0.6)
        with pytest.raises(ValueError):
            WeightSpec(tau=0.5)

    def test_bad_n(self):
        with pytest.raises(ValueError):
            WeightSpec(big_n=0.0)

    def test_as_dict_names_the_cutoff_profile(self):
        # summary.json records the weight through as_dict
        assert WeightSpec().as_dict() == {
            "r": 4.0, "d": 1, "tau": 0.5 + 1.0 / 800.0, "big_n": 32.0,
            "delta": 0.1, "chi": "exp-mollifier"}


class TestCutoffs:

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10 ** 6))
    def test_triple_sums_to_one(self, seed):
        rng = np.random.default_rng(seed)
        spec = WeightSpec()
        x = rng.normal(size=2)
        xi = rng.normal(size=3) * rng.choice([1.0, 10.0, 100.0])
        vals = cutoff_triple(x, xi, spec)
        assert sum(vals) == pytest.approx(1.0, abs=1e-12)
        assert all(v >= -1e-12 for v in vals)

    def test_low_frequency_is_x0(self):
        spec = WeightSpec()
        x0, x_hyp, x_ctr0 = cutoff_triple(np.zeros(2), np.array([1.0, 2.0, 0.5]),
                                          spec)
        assert x0 == pytest.approx(1.0)
        assert x_hyp == pytest.approx(0.0)

    def test_contact_line_is_central(self):
        spec = WeightSpec()
        xi = np.array([500.0, 0.0, 0.0])   # on the contact line at x = 0
        x0, x_hyp, x_ctr0 = cutoff_triple(np.zeros(2), xi, spec)
        assert x_ctr0 == pytest.approx(1.0)

    def test_transversal_is_hyperbolic(self):
        spec = WeightSpec()
        xi = np.array([10.0, 400.0, 0.0])
        x0, x_hyp, x_ctr0 = cutoff_triple(np.zeros(2), xi, spec)
        assert x_hyp == pytest.approx(1.0)


class TestDyadicPartition:

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10 ** 6))
    def test_sums_to_one(self, seed):
        rng = np.random.default_rng(seed)
        zeta = rng.normal(size=2) * rng.choice([0.5, 5.0, 50.0])
        total = sum(psi_dyadic(zeta, m) for m in range(-10, 11))
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_lifted_sums_to_one(self):
        rng = np.random.default_rng(9)
        spec_r = 4.0
        for _ in range(10):
            x = rng.normal(size=2)
            xi = rng.normal(size=3) * 20.0
            total = sum(lp_partition(m, x, xi) for m in range(-10, 11))
            assert total == pytest.approx(1.0, abs=1e-12)

    def test_m_zero_is_ball(self):
        assert psi_dyadic(np.array([0.5, 0.5]), 0) == pytest.approx(1.0)

    def test_sign_tracks_cone(self):
        z = np.array([10.0, 0.0])
        assert psi_dyadic(z, 3) > 0.0
        assert psi_dyadic(z, -3) == pytest.approx(0.0)


class TestQPartitions:

    @settings(max_examples=60, deadline=None)
    @given(st.floats(-20.0, 20.0))
    def test_q_sums_to_one(self, t):
        ks = range(int(np.floor(t)) - 2, int(np.ceil(t)) + 3)
        assert sum(q_k(t, k) for k in ks) == pytest.approx(1.0, abs=1e-12)

    def test_q_support(self):
        assert q_k(3.0, 3) == pytest.approx(1.0)
        assert q_k(3.7, 3) == 0.0
        assert q_k(2.3, 3) == 0.0

    def test_q_tilde_support(self):
        lo, hi = q_tilde_support(4)
        assert q_tilde(lo - 0.01, 4) == 0.0
        assert q_tilde(hi + 0.01, 4) == 0.0
        assert q_tilde(16.0, 4) == pytest.approx(1.0)

    def test_q_tilde_sums_to_one(self):
        # on the positive axis the pieces over k >= 1 tile [1, inf)
        for s in [2.0, 7.3, 100.0, 1234.5]:
            total = sum(q_tilde(s, k) for k in range(0, 40))
            assert total == pytest.approx(1.0, abs=1e-12)

    def test_separation_constant(self):
        c = q_tilde_separation(40)
        assert c > 0.8
        # the minimum is attained at the smallest adjacent-but-two pair
        gap = (3.0 - 2.0 / 3.0) ** 2 - (1.0 + 2.0 / 3.0) ** 2
        assert c == pytest.approx(gap / 3.0)

    def test_q_block_disjoint(self):
        rng = np.random.default_rng(1)
        pts = rng.uniform(-3.0, 3.0, size=(200, 2))
        a = q_block(pts, 5, (0, 0), 0.1)
        b = q_block(pts, 5, (2, 0), 0.1)
        assert np.max(a * b) == 0.0

    def test_q_block_overlapping_indices(self):
        pts = np.array([[0.0, 0.0]])
        assert q_block(pts, 5, (0, 0), 0.1)[0] == pytest.approx(1.0)


class TestNamedOps:

    def test_cutoffs_order_and_sum(self):
        from contactfbi.aniso_norm import cutoffs
        spec = WeightSpec()
        rng = np.random.default_rng(7)
        x = rng.uniform(-2.0, 2.0, size=(50, 2))
        xi = rng.uniform(-80.0, 80.0, size=(50, 3))
        x0, ctr, hyp = cutoffs(x, xi, spec)
        ref0, refh, refc = cutoff_triple(x, xi, spec)
        assert np.array_equal(x0, ref0)
        assert np.array_equal(ctr, refc)
        assert np.array_equal(hyp, refh)
        assert np.max(np.abs(x0 + ctr + hyp - 1.0)) <= 1e-12


class TestSliceWeight:
    """slice_weight, built from the per-axis twisted components, against
    the pointwise cal_w_aniso on the points of the slice."""

    @staticmethod
    def _grid(sizes):
        # distinct axes, so that a center axis paired with the wrong
        # frequency axis, or a wrong sign, changes the weight
        axes = []
        for a, (nc, nf) in enumerate(sizes):
            centers = np.linspace(-2.0 - 0.3 * a, 1.7 + 0.2 * a, nc)
            axes.append(PhaseAxis(centers, dual_frequencies(nf, 0.4 + 0.1 * a),
                                  centers))
        return PhaseGrid(axes)

    # d = 1 and d = 2 transversal blocks, of 374,400 and 129,600 points
    GRIDS = [[(30, 24), (26, 20)], [(5, 4), (4, 6), (6, 3), (3, 5)]]

    @pytest.mark.parametrize("sizes", GRIDS)
    # 36 is a central-block frequency (k = 6); r = 4 is the default
    # WeightSpec, which lower-bound uses
    @pytest.mark.parametrize("xi0", [0.0, -2.5, 60.0, 36.0])
    def test_matches_pointwise(self, sizes, xi0):
        pg = self._grid(sizes)
        for r in (1.0, 2.5, 4.0):
            want = cal_w_aniso(*slice_covectors(pg.points(), xi0), r)
            got = slice_weight(pg, xi0, r)
            assert got.shape == pg.shape()
            assert np.max(np.abs(got.ravel() - want) / want) <= 1e-12

    # d = 1 on 8^2 centers and 8^2 frequencies, d = 2 on 6^4 and 4^4
    @pytest.mark.parametrize("dim, n, n_freq", [(2, 6, 8), (4, 4, 4)])
    def test_negative_slice_is_the_reversed_weight(self, dim, n, n_freq):
        # on the antisymmetric lattices of dual_phase_grid the weight at
        # -xi0 is the weight at xi0 reversed along the frequency axes, bit
        # for bit, which weighted_gram relies on to share one weight
        from contactfbi.fbi_core import dual_phase_grid
        from contactfbi.numerics import make_grid
        from contactfbi.partial_fbi import FlowGrid
        trans = make_grid(dim, 0.2 * n, n)
        pg = dual_phase_grid(trans, n_freq=n_freq, center_margin=0.4)
        reverse = (slice(None),) * dim + (slice(None, None, -1),) * dim
        for xi0 in [*FlowGrid(1.3, 10).freqs(), 0.37, 60.0, 36.0]:
            for r in (1.0, 2.5, 4.0):
                assert np.array_equal(slice_weight(pg, -xi0, r),
                                      slice_weight(pg, xi0, r)[reverse])

    def test_refuses_odd_dimension(self):
        with pytest.raises(ValueError, match="even"):
            slice_weight(self._grid([(4, 4)]), 1.0, 1.0)

    def test_callers_form_no_phase_points(self, monkeypatch):
        from contactfbi.aniso_norm import aniso_norm
        from contactfbi.fbi_core import dual_phase_grid
        from contactfbi.numerics import make_grid
        from contactfbi.partial_fbi import FlowGrid, sample_volume
        from contactfbi.spectra import weight_diagonal, weighted_gram

        def refuse(self):
            raise AssertionError("phase points formed")
        monkeypatch.setattr(PhaseGrid, "points", refuse)
        flow = FlowGrid(np.pi, 4)
        trans = make_grid(2, 1.6, 8)
        vol = sample_volume(
            lambda p: np.exp(1j * p[:, 0] - np.sum(p[:, 1:] ** 2, -1)),
            flow, trans)
        pg = dual_phase_grid(trans, center_margin=3.5)
        spec = WeightSpec(r=1.0)
        assert weight_diagonal(flow.freqs(), pg, 1.0).shape == \
            (flow.n_points, pg.num_points)
        gram = weighted_gram([vol], pg, spec)
        assert aniso_norm(vol, spec) == pytest.approx(
            np.sqrt(gram[0, 0].real), rel=1e-12)


class TestVolumeNorms:

    def setup_method(self):
        from contactfbi.partial_fbi import FlowGrid, sample_volume
        from contactfbi.numerics import make_grid
        self.flow = FlowGrid(np.pi, 8)
        self.trans = make_grid(2, 1.6, 14)

        def u(pts):
            prof = np.exp(-np.sum(pts[:, 1:] ** 2, axis=-1) / 0.3)
            return (1.0 + 0.5 * np.sin(pts[:, 0])) * prof

        self.vol = sample_volume(u, self.flow, self.trans)

    def test_r_zero_reduces_to_l2(self):
        from contactfbi.aniso_norm import sobolev_norms
        four, pfbi = sobolev_norms(self.vol, 0.0)
        ref = self.vol.norm()
        assert abs(four - ref) <= 1e-6 * ref
        assert abs(pfbi - ref) <= 1e-6 * ref

    def test_zero_field(self):
        from contactfbi.aniso_norm import aniso_norm, sobolev_norms
        from contactfbi.partial_fbi import VolumeField
        zero = VolumeField(self.flow, self.trans,
                           np.zeros((8,) + self.trans.shape()))
        assert aniso_norm(zero, WeightSpec()) == 0.0
        assert sobolev_norms(zero, 2.0) == (0.0, 0.0)

    def test_sobolev_matches_pointwise_weight(self):
        # the <(xi0, xi_dag)>^r weight evaluated at every phase point on
        # the ravelled coefficients, as a pointwise weight would be
        from contactfbi.aniso_norm import sobolev_norms
        from contactfbi.fbi_core import dual_phase_grid
        from contactfbi.partial_fbi import flow_slices
        pg = dual_phase_grid(self.trans, center_margin=3.5)
        pts = pg.points()
        for r in (0.0, 1.0, 2.0):
            total = 0.0
            for xi0, _, coeff in flow_slices(self.vol, pg):
                full = np.sqrt(xi0 ** 2 + np.sum(pts[:, 2:] ** 2, axis=-1))
                total += np.sum(np.abs(bracket(full) ** r
                                       * coeff.ravel()) ** 2)
            ref = np.sqrt(total * self.flow.freq_spacing * pg.weight)
            got = sobolev_norms(self.vol, r)[1]
            assert abs(got - ref) <= 1e-13 * ref

    def test_sobolev_matches_pointwise_weight_d2(self, monkeypatch):
        # a d = 2 (D = 4) volume; one slice on its norm grid would hold
        # 22^4 * 12^4 coefficients, so the grid is shrunk to one the
        # pointwise reference, which forms whole slices, can afford
        from contactfbi import aniso_norm, fbi_core
        from contactfbi.aniso_norm import sobolev_norms
        from contactfbi.numerics import make_grid
        from contactfbi.partial_fbi import (FlowGrid, flow_slices,
                                            sample_volume)
        trans = make_grid(4, 0.8, 4)
        flow = FlowGrid(np.pi, 4)

        def u(pts):
            prof = np.exp(-np.sum(pts[:, 1:] ** 2, axis=-1) / 0.2)
            return (1.0 + 0.5 * np.sin(pts[:, 0])) * prof * \
                np.exp(1j * pts[:, 2])

        vol = sample_volume(u, flow, trans)
        pg = fbi_core.dual_phase_grid(trans, n_freq=6, center_margin=0.4)
        monkeypatch.setattr(aniso_norm, "dual_phase_grid",
                            lambda trans, center_margin: pg)
        pts = pg.points()
        for r in (0.0, 1.0, 2.0):
            total = 0.0
            for xi0, _, coeff in flow_slices(vol, pg):
                full = np.sqrt(xi0 ** 2 + np.sum(pts[:, 4:] ** 2, axis=-1))
                total += np.sum(np.abs(bracket(full) ** r
                                       * coeff.ravel()) ** 2)
            ref = np.sqrt(total * flow.freq_spacing * pg.weight)
            got = sobolev_norms(vol, r)[1]
            assert abs(got - ref) <= 1e-13 * ref

    def test_sobolev_builds_no_phase_points(self, monkeypatch):
        from contactfbi.aniso_norm import sobolev_norms
        from contactfbi.fbi_core import PhaseGrid

        def refuse(self):
            raise AssertionError("PhaseGrid.points called")
        monkeypatch.setattr(PhaseGrid, "points", refuse)
        four, pfbi = sobolev_norms(self.vol, 1.0)
        assert pfbi > 0.0

    def test_sobolev_weights_increase_norm(self):
        from contactfbi.aniso_norm import sobolev_norms
        f1, p1 = sobolev_norms(self.vol, 1.0)
        f0, p0 = sobolev_norms(self.vol, 0.0)
        assert f1 > f0 and p1 > p0

    def test_cone_asymmetry(self):
        from contactfbi.aniso_norm import aniso_norm
        from contactfbi.partial_fbi import sample_volume

        def packet(sign):
            def u(pts):
                prof = np.exp(-np.sum(pts[:, 1:] ** 2, axis=-1) / 0.1)
                return prof * np.exp(1j * sign * 6.0 * pts[:, 1])
            return u

        spec = WeightSpec(r=2.0)
        # the weight is asymmetric between the two transversal axes, so
        # packets oscillating along either carry different norms
        plus = aniso_norm(sample_volume(packet(1.0), self.flow, self.trans),
                          spec)

        def u_minus(pts):
            prof = np.exp(-np.sum(pts[:, 1:] ** 2, axis=-1) / 0.1)
            return prof * np.exp(1j * 6.0 * pts[:, 2])

        minus = aniso_norm(sample_volume(u_minus, self.flow, self.trans),
                           spec)
        assert minus > 2.0 * plus

    def test_matches_weighted_gram(self):
        from contactfbi.aniso_norm import aniso_norm
        from contactfbi.fbi_core import dual_phase_grid
        from contactfbi.spectra import weighted_gram
        spec = WeightSpec(r=2.0)
        pg = dual_phase_grid(self.trans, center_margin=3.5)
        ref = np.sqrt(weighted_gram([self.vol], pg, spec)[0, 0].real)
        assert abs(aniso_norm(self.vol, spec) - ref) <= 1e-12 * ref


class TestWeightedGram:
    """The one weighted streaming loop, which aniso_norm also runs."""

    def setup_method(self):
        from contactfbi.fbi_core import dual_phase_grid
        from contactfbi.numerics import make_grid
        from contactfbi.partial_fbi import FlowGrid
        self.flow = FlowGrid(np.pi, 6)
        self.trans = make_grid(2, 1.6, 12)
        self.pg = dual_phase_grid(self.trans, center_margin=1.0)

    @staticmethod
    def _volume(flow, trans, k):
        from contactfbi.partial_fbi import sample_volume

        def u(pts):
            prof = np.exp(-np.sum(pts[:, 1:] ** 2, axis=-1) / 0.3)
            return (1.0 + 0.5 * np.sin(pts[:, 0])) * prof \
                * np.exp(1j * k * pts[:, 2])
        return sample_volume(u, flow, trans)

    @staticmethod
    def _shifted(pg, lattice):
        # the grid itself, or with every center or frequency lattice moved
        # off symmetry by 0.3 steps
        if lattice == "dual":
            return pg
        if lattice == "centers":
            return PhaseGrid([PhaseAxis(ax.centers + 0.3 * ax.c_spacing,
                                        ax.freqs, ax.y) for ax in pg.axes])
        return PhaseGrid([PhaseAxis(ax.centers, ax.freqs + 0.3 * ax.f_spacing,
                                    ax.y) for ax in pg.axes])

    def _materialized(self, vols, pg, spec):
        # materialized transform times the pointwise weight on the phase
        # points of each slice
        from contactfbi.partial_fbi import pfbi_forward
        flow = vols[0].flow
        pts = pg.points()
        weighted = []
        for vol in vols:
            pf = pfbi_forward(vol, pg)
            weighted.append(np.concatenate([
                cal_w_aniso(*slice_covectors(pts, xi0), spec.r) * c.ravel()
                for xi0, c in zip(flow.freqs(), pf.values)]))
        want = np.array([[np.vdot(a, b) for b in weighted]
                         for a in weighted])
        return want * flow.freq_spacing * pg.weight

    def test_matches_materialized_coefficients(self):
        # against the streamed per-axis loop
        from contactfbi.aniso_norm import weighted_gram
        spec = WeightSpec(r=2.0)
        vols = [self._volume(self.flow, self.trans, k) for k in (0.0, 3.0)]
        want = self._materialized(vols, self.pg, spec)
        got = weighted_gram(vols, self.pg, spec)
        assert abs(want[0, 1]) > 1e-3 * abs(want[0, 0])
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    # FlowGrid takes an even n0 only, so the slice -n0/2 is always
    # unpaired; n0 = 2 pairs nothing, n0 / 2 odd and even pair the rest.
    # Shifted centers keep the frequency lattices antisymmetric and the
    # shared weights; shifted frequencies are not antisymmetric, and
    # every slice takes its own weight
    @pytest.mark.parametrize("n0", [2, 6, 8])
    @pytest.mark.parametrize("lattice", ["dual", "centers", "freqs"])
    def test_pairing_matches_materialized(self, n0, lattice):
        from contactfbi.aniso_norm import weighted_gram
        from contactfbi.partial_fbi import FlowGrid
        spec = WeightSpec(r=2.0)
        flow = FlowGrid(np.pi, n0)
        pg = self._shifted(self.pg, lattice)
        vols = [self._volume(flow, self.trans, k) for k in (0.0, 3.0, -2.0)]
        want = self._materialized(vols, pg, spec)
        got = weighted_gram(vols, pg, spec)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    @pytest.mark.parametrize("lattice", ["dual", "centers", "freqs"])
    def test_pairing_matches_materialized_d2(self, lattice):
        # a d = 2 (D = 4) volume on a grid of 6^4 centers and 4^4
        # frequencies, which the materialized reference can afford
        from contactfbi.aniso_norm import weighted_gram
        from contactfbi.fbi_core import dual_phase_grid
        from contactfbi.numerics import make_grid
        from contactfbi.partial_fbi import FlowGrid, sample_volume
        trans = make_grid(4, 0.8, 4)
        flow = FlowGrid(np.pi, 4)
        pg = self._shifted(dual_phase_grid(trans, n_freq=4,
                                           center_margin=0.4), lattice)

        def u(k):
            def f(pts):
                prof = np.exp(-np.sum(pts[:, 1:] ** 2, axis=-1) / 0.2)
                return (1.0 + 0.5 * np.sin(pts[:, 0])) * prof * \
                    np.exp(1j * k * (pts[:, 2] - pts[:, 4]))
            return f
        spec = WeightSpec(r=1.5, d=2)
        vols = [sample_volume(u(k), flow, trans) for k in (0.0, 2.0)]
        want = self._materialized(vols, pg, spec)
        got = weighted_gram(vols, pg, spec)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_refuses_volumes_on_other_grids(self):
        from contactfbi.aniso_norm import weighted_gram
        from contactfbi.numerics import make_grid
        from contactfbi.partial_fbi import FlowGrid
        vol = self._volume(self.flow, self.trans, 1.0)
        for flow in (FlowGrid(np.pi, 4), FlowGrid(np.pi, 8),
                     FlowGrid(2.0, 6)):
            other = self._volume(flow, self.trans, 1.0)
            with pytest.raises(ValueError, match="different flow grids"):
                weighted_gram([vol, other], self.pg, WeightSpec())
        other = self._volume(self.flow, make_grid(2, 1.2, 12), 1.0)
        with pytest.raises(ValueError, match="quadrature nodes differ"):
            weighted_gram([vol, other], self.pg, WeightSpec())
