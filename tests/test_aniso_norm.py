"""Tests for cutoffs, weights and partitions of unity."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from contactfbi.aniso_norm import (WeightSpec, bracket, cal_w_aniso, chi,
                                   chi_n, cutoff_triple, lp_partition,
                                   psi_dyadic, psi_minus, psi_plus, q_block,
                                   q_k, q_tilde, q_tilde_separation,
                                   q_tilde_support, smooth_step,
                                   twisted_frequency, v_s, w_aniso, w_s)
from contactfbi.contact_geometry import AffineContactMap


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
        assert abs(aniso_norm(self.vol, spec, pg) - ref) <= 1e-12 * ref
