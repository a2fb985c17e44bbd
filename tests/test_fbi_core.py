"""Tests for wave packets, the transform pair and lifted linear maps."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from contactfbi.fbi_core import (LinearHyperbolicMap, PhaseAxis, PhaseGrid,
                                 PhaseSpacePoint, apply_p_omega,
                                 cone_certificate, dagger_form_matrix, det_factor,
                                 dual_phase_grid, fbi_adjoint, fbi_forward,
                                 fbi_forward_at, flip_half, l0_hat,
                                 l0_hat_kernel, lift_linear,
                                 linear_lift_kernel, normalization,
                                 projection_kernel, projection_kernel_matrix,
                                 wave_packet, z_change)
from contactfbi.numerics import make_grid, quad_inner, sample


def packet_field(grid, x, xi):
    return sample(wave_packet(PhaseSpacePoint(x, xi)), grid)


class TestWavePacket:

    def test_l2_norm_1d(self):
        # the squared L2 norm of a packet is (2 pi)^(-D)
        g = make_grid(1, 8.0, 128)
        phi = packet_field(g, [0.3], [1.5])
        val = quad_inner(phi, phi).real
        assert abs(val - (2.0 * np.pi) ** (-1)) <= 1e-12

    def test_l2_norm_2d(self):
        g = make_grid(2, 6.0, 48)
        phi = packet_field(g, [0.0, -0.5], [2.0, 0.7])
        val = quad_inner(phi, phi).real
        assert abs(val - (2.0 * np.pi) ** (-2)) <= 1e-12

    def test_peak_modulus(self):
        # |phi(x)| = a_D at the center
        p = PhaseSpacePoint([0.4], [3.0])
        val = wave_packet(p)(np.array([[0.4]]))
        assert abs(abs(val[0]) - normalization(1)) <= 1e-14

    def test_overlap_matches_closed_form(self):
        g = make_grid(1, 10.0, 200)
        pairs = [(([0.0], [0.0]), ([1.0], [2.0])),
                 (([0.5], [-1.0]), ([-0.5], [1.0])),
                 (([2.0], [4.0]), ([2.5], [3.0]))]
        for (x1, f1), (x2, f2) in pairs:
            p = PhaseSpacePoint(x1, f1)
            q = PhaseSpacePoint(x2, f2)
            num = quad_inner(packet_field(g, x1, f1), packet_field(g, x2, f2))
            assert abs(num - projection_kernel(p, q)) <= 1e-12

    def test_overlap_matches_closed_form_2d(self):
        g = make_grid(2, 7.0, 56)
        p = PhaseSpacePoint([0.5, -0.3], [1.0, -2.0])
        q = PhaseSpacePoint([-0.2, 0.4], [2.0, 1.0])
        num = quad_inner(sample(wave_packet(p), g), sample(wave_packet(q), g))
        assert abs(num - projection_kernel(p, q)) <= 1e-12


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_projection_kernel_conjugate_symmetric(seed):
    rng = np.random.default_rng(seed)
    p = PhaseSpacePoint(rng.normal(size=2), rng.normal(size=2))
    q = PhaseSpacePoint(rng.normal(size=2), rng.normal(size=2))
    assert abs(projection_kernel(p, q) - np.conj(projection_kernel(q, p))) <= 1e-14


class TestTransformPair:

    def setup_method(self):
        self.g = make_grid(1, 8.0, 32)
        self.pg = dual_phase_grid(self.g)

    def test_forward_matches_pointwise(self):
        u = sample(lambda p: np.exp(-np.sum(p ** 2, axis=-1)), self.g)
        v = fbi_forward(u, self.pg)
        pts = self.pg.points()
        direct = fbi_forward_at(u, pts)
        assert np.allclose(v.values.ravel(), direct, atol=1e-13)

    def test_identity_on_gaussian(self):
        u = sample(lambda p: np.exp(-np.sum((p - 0.5) ** 2, axis=-1) / 1.3),
                   self.g)
        w = fbi_adjoint(fbi_forward(u, self.pg))
        assert np.linalg.norm(w.values - u.values) / np.linalg.norm(u.values) <= 1e-8

    def test_identity_on_modulated(self):
        def f(p):
            y = p[:, 0]
            return np.exp(3j * y) * np.exp(-y ** 2 / 2.0)

        u = sample(f, self.g)
        w = fbi_adjoint(fbi_forward(u, self.pg))
        assert np.linalg.norm(w.values - u.values) / np.linalg.norm(u.values) <= 1e-8

    def test_isometry(self):
        u = sample(lambda p: (p[:, 0] ** 2 - 1) * np.exp(-np.sum(p ** 2, axis=-1) / 2.0),
                   self.g)
        v = fbi_forward(u, self.pg)
        assert abs(v.norm() - u.norm()) / u.norm() <= 1e-8

    def test_identity_2d(self):
        # box half width 7: the center-coverage boundary tail
        # erfc(L - y) exp(-y^2/2) stays below 1e-8 only for L >= 7
        g = make_grid(2, 7.0, 28)
        pg = dual_phase_grid(g)
        u = sample(lambda p: np.exp(-np.sum(p ** 2, axis=-1) / 2.0
                                    + 1j * p[:, 0]), g)
        w = fbi_adjoint(fbi_forward(u, pg))
        assert np.linalg.norm(w.values - u.values) / np.linalg.norm(u.values) <= 1e-7

    def test_adjoint_of_one_hot(self):
        # T* of a delta coefficient is the packet itself times the cell weight
        v = np.zeros(self.pg.shape(), dtype=complex)
        ci, fi = 10, 20
        v[ci, fi] = 1.0
        from contactfbi.fbi_core import PhaseField
        w = fbi_adjoint(PhaseField(self.pg, v))
        x = self.pg.axes[0].centers[ci]
        xi = self.pg.axes[0].freqs[fi]
        phi = packet_field(self.g, [x], [xi])
        assert np.allclose(w.values, self.pg.weight * phi.values, atol=1e-14)

    def test_adjoint_is_adjoint(self):
        # <T u, v> on phase space equals <u, T* v> on the space grid
        rng = np.random.default_rng(3)
        u = sample(lambda p: np.exp(-np.sum(p ** 2, axis=-1)), self.g)
        from contactfbi.fbi_core import PhaseField
        v = PhaseField(self.pg, rng.standard_normal(self.pg.shape())
                       + 1j * rng.standard_normal(self.pg.shape()))
        tu = fbi_forward(u, self.pg)
        lhs = np.sum(np.conj(tu.values) * v.values) * self.pg.weight
        rhs = quad_inner(u, fbi_adjoint(v))
        assert abs(lhs - rhs) <= 1e-12 * abs(lhs)

    def test_nyquist_guard(self):
        # frequencies beyond the alias limit of the space grid are rejected
        ax = self.pg.axes[0]
        bad = PhaseAxis(ax.centers, ax.freqs * 4.0, ax.y)
        bad_pg = PhaseGrid([bad])
        u = sample(lambda p: np.exp(-np.sum(p ** 2, axis=-1)), self.g)
        with pytest.raises(ValueError):
            fbi_forward(u, bad_pg)

    def test_dual_grid_rejects_small_band(self):
        with pytest.raises(ValueError):
            dual_phase_grid(self.g, n_freq=16)


class TestProjection:

    def test_p_omega_idempotent_and_symmetric(self):
        g = make_grid(2, 8.0, 32)
        j = dagger_form_matrix(2)
        u = sample(lambda p: np.exp(-np.sum(p ** 2, axis=-1) / 2.0
                                    + 1j * (p[:, 0] - p[:, 1])), g)
        pu = apply_p_omega(u, j)
        ppu = apply_p_omega(pu, j)
        assert np.linalg.norm(ppu.values - pu.values) / pu.norm() <= 1e-7
        v = sample(lambda p: np.exp(-np.sum((p - 0.3) ** 2, axis=-1)), g)
        lhs = quad_inner(apply_p_omega(u, j), v)
        rhs = quad_inner(u, apply_p_omega(v, j))
        assert abs(lhs - rhs) <= 1e-10 * abs(lhs)

    def test_p_omega_rejects_bad_form(self):
        g = make_grid(2, 4.0, 8)
        u = sample(lambda p: np.exp(-np.sum(p ** 2, axis=-1)), g)
        with pytest.raises(ValueError):
            apply_p_omega(u, np.eye(2))

    def test_kernel_matrix_matches_scalar(self):
        rng = np.random.default_rng(5)
        pts_a = rng.normal(size=(4, 4))
        pts_b = rng.normal(size=(3, 4))
        k = projection_kernel_matrix(pts_a, pts_b)
        for i in range(4):
            for j_ in range(3):
                p = PhaseSpacePoint(pts_a[i, :2], pts_a[i, 2:])
                q = PhaseSpacePoint(pts_b[j_, :2], pts_b[j_, 2:])
                assert abs(k[i, j_] - projection_kernel(p, q)) <= 1e-14


class TestDetFactor:

    def test_anchor_value(self):
        # diag(2, 1/2): det((I + B^T B)/2) = (5/2)(5/8) = 25/16
        assert det_factor(np.diag([2.0, 0.5])) == pytest.approx(1.25, abs=1e-14)

    def test_identity(self):
        assert det_factor(np.eye(3)) == pytest.approx(1.0, abs=1e-14)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10 ** 6))
    def test_orthogonal_invariance(self, seed):
        rng = np.random.default_rng(seed)
        b = rng.normal(size=(2, 2))
        theta1, theta2 = rng.uniform(0, 2 * np.pi, size=2)
        q1 = np.array([[np.cos(theta1), -np.sin(theta1)],
                       [np.sin(theta1), np.cos(theta1)]])
        q2 = np.array([[np.cos(theta2), -np.sin(theta2)],
                       [np.sin(theta2), np.cos(theta2)]])
        assert det_factor(q1 @ b @ q2) == pytest.approx(det_factor(b), rel=1e-10)


class TestLinearHyperbolicMap:

    def test_diagonal_certifies(self):
        m = LinearHyperbolicMap(np.diag([4.0, 0.25]), lam=3.9)
        report = m.certify()
        assert report["ok"]
        # image aperture of the cone complement is 1/(16 * 0.1)
        assert report["aperture_fwd"] == pytest.approx(0.625, abs=0.05)

    def test_large_stretch_tightens_aperture(self):
        m = LinearHyperbolicMap(np.diag([16.0, 1.0 / 16.0]), lam=15.5)
        report = m.certify()
        assert report["ok"]
        assert report["aperture_fwd"] <= 0.1
        assert report["aperture_bwd"] <= 0.1

    def test_rotation_fails_cone(self):
        th = np.pi / 6.0
        rot = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
        with pytest.raises(ValueError):
            LinearHyperbolicMap(rot, lam=1.0)

    def test_non_unimodular_rejected(self):
        with pytest.raises(ValueError):
            LinearHyperbolicMap(np.diag([4.0, 0.5]), lam=1.0)

    def test_shear_certifies(self):
        b = np.array([[4.0, 0.05], [0.0, 0.25]])
        m = LinearHyperbolicMap(b, lam=3.5)
        assert m.certify()["ok"]

    @pytest.mark.parametrize("b, lam", [
        (np.diag([4.0, 0.25]), 3.9),
        (np.array([[4.0, 0.05], [0.0, 0.25]]), 3.5),
        (np.array([[4.0, 0.3, 0.1, 0.0], [0.0, 2.0, 0.0, 0.2],
                   [0.05, 0.0, 0.25, 0.0], [0.0, 0.1, 0.3, 0.5]]), 1.5)])
    def test_certificate_matches_direction_loop(self, b, lam):
        # the per-direction loop the vectorized certificate replaced
        m = LinearHyperbolicMap(b, lam, check=False)
        if m.dim == 2:
            ang = np.linspace(0.0, 2.0 * np.pi, 720, endpoint=False)
            dirs = np.stack([np.cos(ang), np.sin(ang)], axis=-1)
        else:
            dirs = np.random.default_rng(7).standard_normal((720, m.dim))
            dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        d, theta, binv = m.d, 0.1, np.linalg.inv(b)
        ref = {"aperture_fwd": 0.0, "aperture_bwd": 0.0,
               "expand_fwd": np.inf, "expand_bwd": np.inf,
               "complement_expand_fwd": np.inf,
               "complement_expand_bwd": np.inf}
        for v in dirs:
            plus, minus = np.linalg.norm(v[:d]), np.linalg.norm(v[d:])
            if minus > theta * plus:
                w = binv @ v
                ref["aperture_bwd"] = max(ref["aperture_bwd"],
                                          np.linalg.norm(w[:d])
                                          / max(np.linalg.norm(w[d:]), 1e-300))
                ref["complement_expand_bwd"] = min(
                    ref["complement_expand_bwd"], np.linalg.norm(w))
            if plus > theta * minus:
                w = b @ v
                ref["aperture_fwd"] = max(ref["aperture_fwd"],
                                          np.linalg.norm(w[d:])
                                          / max(np.linalg.norm(w[:d]), 1e-300))
                ref["complement_expand_fwd"] = min(
                    ref["complement_expand_fwd"], np.linalg.norm(w))
            if minus <= theta * plus:
                ref["expand_fwd"] = min(ref["expand_fwd"],
                                        np.linalg.norm(b @ v) - lam)
            if plus <= theta * minus:
                ref["expand_bwd"] = min(ref["expand_bwd"],
                                        np.linalg.norm(binv @ v) - lam)
        for report in (m.certify(),
                       cone_certificate(b[None], dirs, lam, theta)):
            assert report["ok"] == (ref["aperture_fwd"] < 1.0
                                    and ref["aperture_bwd"] < 1.0
                                    and ref["expand_fwd"] >= 0.0
                                    and ref["expand_bwd"] >= 0.0)
            for key, val in ref.items():
                assert report[key] == pytest.approx(val, rel=1e-12, abs=0.0)


class TestLiftedMaps:

    def test_lift_kernel_identity_is_projection(self):
        rng = np.random.default_rng(11)
        pts = rng.normal(size=(6, 4))
        k_lift = linear_lift_kernel(np.eye(2), pts, pts)
        k_proj = projection_kernel_matrix(pts, pts)
        assert np.allclose(k_lift, k_proj, atol=1e-13)

    def test_l0_kernel_identity_is_projection(self):
        rng = np.random.default_rng(12)
        pts = rng.normal(size=(6, 2))
        j = dagger_form_matrix(2)
        k0 = l0_hat_kernel(np.eye(2), pts, pts)
        ph = pts @ j @ pts.T
        d2 = (np.sum(pts ** 2, axis=1)[:, None]
              + np.sum(pts ** 2, axis=1)[None, :] - 2.0 * pts @ pts.T)
        ref = (2 * np.pi) ** (-1) * np.exp(0.5j * ph - d2 / 4.0)
        assert np.allclose(k0, ref, atol=1e-13)

    def test_l0_kernel_rejects_nonsymplectic(self):
        with pytest.raises(ValueError):
            l0_hat_kernel(np.diag([2.0, 1.0]), np.zeros((1, 2)), np.zeros((1, 2)))

    def test_lift_diagonal_matches_dense(self):
        # the separable per-axis application must agree with the dense kernel
        g = make_grid(2, 4.0, 8)
        pg = dual_phase_grid(g, n_freq=8)
        u = sample(lambda p: np.exp(-np.sum(p ** 2, axis=-1) / 2.0), g)
        v = fbi_forward(u, pg)
        b = np.diag([2.0, 0.5])
        sep = lift_linear(b, v)
        dense_b = b + np.array([[0.0, 1e-30], [0.0, 0.0]])  # force dense path
        dense = lift_linear(dense_b, v)
        assert np.allclose(sep.values, dense.values, atol=1e-10)

    def test_l0_hat_norm_near_one(self):
        # quick version of the operator norm anchor at lambda = 4
        g = make_grid(2, 8.0, 32)
        pts = g.nodes()
        k = l0_hat_kernel(np.diag([4.0, 0.25]), pts, pts)
        # uniform weights on both sides: the norm is the weighted SVD norm
        nrm = np.linalg.norm(k * g.weight, 2)
        assert 0.97 <= nrm <= 1.03

    def test_l0_hat_applies(self):
        g = make_grid(2, 6.0, 20)
        u = sample(lambda p: np.exp(-np.sum(p ** 2, axis=-1) / 2.0), g)
        out = l0_hat(np.diag([4.0, 0.25]), u)
        assert out.norm() <= 1.05 * u.norm()


class TestZChange:

    def test_flip_half_squares_to_minus_id(self):
        v = np.array([1.0, 2.0, 3.0, 4.0])
        assert np.allclose(flip_half(flip_half(v)), -v)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10 ** 6))
    def test_isometry(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=2)
        xi = rng.normal(size=2)
        z, w = z_change(x, xi)
        assert (np.sum(z ** 2) + np.sum(w ** 2)) == pytest.approx(
            np.sum(x ** 2) + np.sum(xi ** 2), rel=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10 ** 6))
    def test_symplectic_splitting(self, seed):
        # Omega(p, p') = omega(z, z') - omega(w, w') with omega(u, v) = u . J v
        rng = np.random.default_rng(seed)
        x, xi = rng.normal(size=2), rng.normal(size=2)
        xp, xip = rng.normal(size=2), rng.normal(size=2)
        z, w = z_change(x, xi)
        zp, wp = z_change(xp, xip)
        j = dagger_form_matrix(2)
        lhs = x @ xip - xi @ xp
        rhs = z @ j @ zp - w @ j @ wp
        assert lhs == pytest.approx(rhs, abs=1e-10)
