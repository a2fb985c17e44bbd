"""Tests for wave packets, the transform pair and lifted linear maps."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from contactfbi.contact_geometry import (ContactMap, check_hyperbolic,
                                         cone_certificate)
from contactfbi.fbi_core import (PhaseAxis, PhaseField, PhaseGrid,
                                 apply_p_omega, dagger_form_matrix, det_factor,
                                 dual_phase_grid, fbi_adjoint, fbi_forward,
                                 fbi_roundtrip, flip_half, l0_hat,
                                 l0_hat_kernel, lift_linear,
                                 linear_lift_kernel, normalization,
                                 projection_kernel_matrix, wave_packet,
                                 z_change)
from contactfbi.numerics import Field, make_grid, quad_inner, sample


def packet_field(grid, x, xi):
    return sample(wave_packet(x, xi), grid)


def pair_kernel(p, q):
    """The closed-form overlap of the packets at the points p = (x, xi) and
    q = (x', xi'), one pair through projection_kernel_matrix."""
    return projection_kernel_matrix(np.concatenate(p)[None],
                                    np.concatenate(q)[None])[0, 0]


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
        val = wave_packet([0.4], [3.0])(np.array([[0.4]]))
        assert abs(abs(val[0]) - normalization(1)) <= 1e-14

    def test_overlap_matches_closed_form(self):
        g = make_grid(1, 10.0, 200)
        pairs = [(([0.0], [0.0]), ([1.0], [2.0])),
                 (([0.5], [-1.0]), ([-0.5], [1.0])),
                 (([2.0], [4.0]), ([2.5], [3.0]))]
        for p, q in pairs:
            num = quad_inner(packet_field(g, *p), packet_field(g, *q))
            assert abs(num - pair_kernel(p, q)) <= 1e-12

    def test_overlap_matches_closed_form_2d(self):
        g = make_grid(2, 7.0, 56)
        p = ([0.5, -0.3], [1.0, -2.0])
        q = ([-0.2, 0.4], [2.0, 1.0])
        num = quad_inner(packet_field(g, *p), packet_field(g, *q))
        assert abs(num - pair_kernel(p, q)) <= 1e-12


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_projection_kernel_conjugate_symmetric(seed):
    rng = np.random.default_rng(seed)
    p = (rng.normal(size=2), rng.normal(size=2))
    q = (rng.normal(size=2), rng.normal(size=2))
    assert abs(pair_kernel(p, q) - np.conj(pair_kernel(q, p))) <= 1e-14


class TestTransformPair:

    def setup_method(self):
        self.g = make_grid(1, 8.0, 32)
        self.pg = dual_phase_grid(self.g)

    def test_forward_matches_pointwise(self):
        # T u at each phase point is the quadrature pairing <phi_p, u>
        u = sample(lambda p: np.exp(-np.sum(p ** 2, axis=-1)), self.g)
        v = fbi_forward(u, self.pg)
        direct = [quad_inner(packet_field(self.g, p[:1], p[1:]), u)
                  for p in self.pg.points()]
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

    def test_adjoint_refuses_other_quadrature_nodes(self):
        # the packets are summed at the phase grid's quadrature nodes, so
        # a space grid with other nodes is refused, not relabelled
        g = make_grid(2, 1.6, 12)
        v = fbi_forward(sample(lambda p: np.exp(-np.sum(p ** 2, axis=-1)),
                               g), dual_phase_grid(g))
        for other, fragment in ((make_grid(2, 1.2, 12), "nodes differ"),
                                (make_grid(2, 1.6, 14), "nodes per axis"),
                                (make_grid(1, 1.6, 12), "1-dimensional")):
            with pytest.raises(ValueError, match=fragment):
                fbi_adjoint(v, other)
        assert fbi_adjoint(v, make_grid(2, 1.6, 12)).norm() == \
            pytest.approx(fbi_adjoint(v).norm(), rel=1e-14)

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


class TestRoundtrip:
    """fbi_roundtrip, T* T through the summed axis Grams, against the
    materialized pair it replaces in check-identity."""

    @staticmethod
    def _field(grid):
        # no symmetry between the axes or under conjugation
        def f(p):
            return np.exp(-np.sum(p ** 2, axis=-1) / 1.5
                          + 1j * p @ np.linspace(0.5, -1.0, p.shape[1])) * \
                (1.0 + 0.3 * p[:, 0] + 0.2j * p[:, -1])
        return sample(f, grid)

    # (dim, half width, points per axis); n_freq differs from the points
    @pytest.mark.parametrize("dim, half, n", [(1, 8.0, 32), (2, 3.0, 12),
                                              (3, 1.5, 6)])
    def test_matches_materialized_pair(self, dim, half, n):
        g = make_grid(dim, half, n)
        pg = dual_phase_grid(g, n_freq=n + 3, center_margin=1.0)
        u = self._field(g)
        want = fbi_adjoint(fbi_forward(u, pg), g).values
        got = fbi_roundtrip(u, pg)
        assert got.grid is g
        assert np.linalg.norm(got.values - want) <= \
            1e-13 * np.linalg.norm(want)

    def test_forms_no_coefficients(self, monkeypatch):
        from contactfbi import partial_fbi

        def refuse(*args):
            raise AssertionError("slice transform called")
        monkeypatch.setattr(partial_fbi, "_slice_forward", refuse)
        monkeypatch.setattr(partial_fbi, "_slice_adjoint", refuse)
        g = make_grid(2, 3.0, 12)
        u = self._field(g)
        back = fbi_roundtrip(u, dual_phase_grid(g))
        assert np.linalg.norm(back.values - u.values) <= \
            1e-2 * np.linalg.norm(u.values)

    def test_keeps_forward_input_checks(self):
        g = make_grid(1, 8.0, 32)
        ax = dual_phase_grid(g).axes[0]
        u = self._field(g)
        bad_grids = [PhaseGrid([PhaseAxis(ax.centers, ax.freqs * 4.0, ax.y)]),
                     dual_phase_grid(make_grid(2, 8.0, 32)),
                     dual_phase_grid(make_grid(1, 8.0, 16)),
                     PhaseGrid([PhaseAxis(ax.centers, ax.freqs, ax.y + 0.1)])]
        for pg in bad_grids:
            with pytest.raises(ValueError):
                fbi_forward(u, pg)
            with pytest.raises(ValueError):
                fbi_roundtrip(u, pg)


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
        # the matrix and its one-pair entries against the exponent written
        # out (form, squared distance, one exp of the sum)
        rng = np.random.default_rng(5)
        for dim in (1, 2):
            pts_a = 2.0 * rng.normal(size=(30, 2 * dim))
            pts_b = 2.0 * rng.normal(size=(25, 2 * dim))
            want = old_projection_kernel_matrix(pts_a, pts_b)
            assert max_rel(projection_kernel_matrix(pts_a, pts_b),
                           want) <= 1e-13
            for i in range(4):
                for j_ in range(3):
                    p = (pts_a[i, :dim], pts_a[i, dim:])
                    q = (pts_b[j_, :dim], pts_b[j_, dim:])
                    assert abs(pair_kernel(p, q) - want[i, j_]) \
                        <= 1e-13 * np.max(np.abs(want))
        with pytest.raises(ValueError, match="packets of dimensions 1 and 2"):
            projection_kernel_matrix(np.zeros((1, 2)), np.zeros((1, 4)))


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
    """A linear map B certified as ContactMap.linear(B) by
    contact_geometry.check_hyperbolic, and the cone certificate itself."""

    def test_diagonal_certifies(self):
        report = check_hyperbolic(ContactMap.linear(np.diag([4.0, 0.25])),
                                  lam=3.9)
        assert report["ok"]
        # image aperture of the cone complement is 1/(16 * 0.1)
        assert report["aperture_fwd"] == pytest.approx(0.625, abs=0.05)

    def test_large_stretch_tightens_aperture(self):
        report = check_hyperbolic(
            ContactMap.linear(np.diag([16.0, 1.0 / 16.0])), lam=15.5)
        assert report["ok"]
        assert report["aperture_fwd"] <= 0.1
        assert report["aperture_bwd"] <= 0.1

    def test_non_unimodular_rejected(self):
        with pytest.raises(ValueError, match="not symplectic"):
            ContactMap.linear(np.diag([4.0, 0.5]))

    def test_shear_certifies(self):
        b = np.array([[4.0, 0.05], [0.0, 0.25]])
        assert check_hyperbolic(ContactMap.linear(b), lam=3.5)["ok"]

    @pytest.mark.parametrize("b, lam", [
        (np.diag([4.0, 0.25]), 3.9),
        (np.array([[4.0, 0.05], [0.0, 0.25]]), 3.5),
        (np.array([[4.0, 0.3, 0.1, 0.0], [0.0, 2.0, 0.0, 0.2],
                   [0.05, 0.0, 0.25, 0.0], [0.0, 0.1, 0.3, 0.5]]), 1.5)])
    def test_certificate_matches_direction_loop(self, b, lam):
        # the per-direction loop the vectorized certificate replaced, on
        # 720 unit vectors: evenly spaced angles in the plane, seeded
        # random directions above it
        n = b.shape[0]
        if n == 2:
            ang = np.linspace(0.0, 2.0 * np.pi, 720, endpoint=False)
            dirs = np.stack([np.cos(ang), np.sin(ang)], axis=-1)
        else:
            dirs = np.random.default_rng(7).standard_normal((720, n))
            dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        d, theta, binv = n // 2, 0.1, np.linalg.inv(b)
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
        report = cone_certificate(b[None], dirs, lam, theta)
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
        # the separable per-axis application (diagonal B) and the dense
        # branch (non-diagonal B, however small the off-diagonal entry)
        # must agree with the dense kernel applied on the whole phase grid
        g = make_grid(2, 4.0, 8)
        pg = dual_phase_grid(g, n_freq=8)
        u = sample(lambda p: np.exp(-np.sum(p ** 2, axis=-1) / 2.0), g)
        v = fbi_forward(u, pg)
        pts = pg.points()
        for b in (np.diag([2.0, 0.5]), np.array([[2.0, 0.1], [0.0, 0.5]]),
                  np.array([[2.0, 5e-9], [0.0, 0.5]])):
            dense = (linear_lift_kernel(b, pts, pts) @ v.values.ravel()) \
                * pg.weight
            assert max_rel(lift_linear(b, v).values.ravel(), dense) <= 1e-12

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


def old_projection_kernel_matrix(po, pi_):
    # the exponent as it was built before the one Gaussian kernel builder:
    # the form, the squared distance, then one exp of the sum
    dim = po.shape[1] // 2
    s = dagger_form_matrix(2 * dim)
    omega = po @ s @ pi_.T
    d2 = (np.sum(po ** 2, axis=1)[:, None] + np.sum(pi_ ** 2, axis=1)[None, :]
          - 2.0 * po @ pi_.T)
    return (2.0 * np.pi) ** (-dim) * np.exp(0.5j * omega - d2 / 4.0)


def old_apply_p_omega(u, j):
    dim = u.grid.dim
    pref = (2.0 * np.pi) ** (-(dim // 2)) * u.grid.weight
    pts = u.grid.nodes()
    ph = pts @ j @ pts.T
    d2 = (np.sum(pts ** 2, axis=1)[:, None] + np.sum(pts ** 2, axis=1)[None, :]
          - 2.0 * pts @ pts.T)
    return pref * (np.exp(0.5j * ph - d2 / 4.0) @ u.values)


def old_pair_kernel(a_mat, p1, p2, pref, po, pi_):
    q11 = p1.T @ np.linalg.solve(a_mat, p1)
    q12 = p1.T @ np.linalg.solve(a_mat, p2)
    q22 = p2.T @ np.linalg.solve(a_mat, p2)
    e_out = 0.5 * np.einsum("ni,ij,nj->n", po, q11, po) \
        - np.sum(po ** 2, axis=1) / 4.0
    e_in = 0.5 * np.einsum("ni,ij,nj->n", pi_, q22, pi_) \
        - np.sum(pi_ ** 2, axis=1) / 4.0
    return pref * np.exp(po @ q12 @ pi_.T + e_out[:, None] + e_in[None, :])


def old_linear_lift_kernel(b, po, pi_):
    dim = b.shape[0]
    s = dagger_form_matrix(2 * dim)
    btilde = np.zeros((2 * dim, 2 * dim))
    btilde[:dim, :dim] = b
    btilde[dim:, dim:] = np.linalg.inv(b).T
    eye = np.eye(2 * dim)
    a_mat = (eye + btilde.T @ btilde) / 2.0
    pref = det_factor(b) * (2.0 * np.pi) ** (-dim) \
        / np.sqrt(np.linalg.det(a_mat))
    return old_pair_kernel(a_mat, (eye - 1j * s) / 2.0,
                           btilde.T @ (eye + 1j * s) / 2.0, pref, po, pi_)


def old_l0_hat_kernel(b, po, pi_):
    dim = b.shape[0]
    j = dagger_form_matrix(dim)
    binv = np.linalg.inv(b)
    eye = np.eye(dim)
    a_mat = (eye + binv @ binv.T) / 2.0
    pref = np.sqrt(det_factor(b)) * (2.0 * np.pi) ** (-(dim // 2)) \
        / np.sqrt(np.linalg.det(a_mat))
    return old_pair_kernel(a_mat, (eye - 1j * j) / 2.0,
                           binv @ (eye + 1j * j) / 2.0, pref, po, pi_)


def old_lift_linear_diagonal(b, v):
    # the pair-major loop: permute to (c1, f1, c2, f2, ...), fold each
    # (c_a, f_a) pair, contract axis by axis and permute back
    pg = v.grid
    d = pg.dim
    nc = [ax.centers.size for ax in pg.axes]
    nf = [ax.freqs.size for ax in pg.axes]
    perm = [i for a in range(d) for i in (a, d + a)]
    work = np.transpose(v.values, perm).reshape(
        [nc[a] * nf[a] for a in range(d)])
    for a in range(d):
        ax = pg.axes[a]
        pairs = np.stack([np.repeat(ax.centers, nf[a]),
                          np.tile(ax.freqs, nc[a])], axis=-1)
        k = old_linear_lift_kernel(np.array([[b[a, a]]]), pairs, pairs)
        w = ax.c_spacing * ax.f_spacing
        work = np.tensordot(w * k, work, axes=([1], [0]))
        work = np.moveaxis(work, 0, d - 1)
    work = work.reshape([n for a in range(d) for n in (nc[a], nf[a])])
    inv = [2 * a for a in range(d)] + [2 * a + 1 for a in range(d)]
    return np.transpose(work, inv)


def max_rel(got, want):
    return np.max(np.abs(got - want)) / np.max(np.abs(want))


class TestGaussianKernels:
    """The in-place kernel builder against the exponent builds it replaced."""

    def test_apply_p_omega_dagger_and_rotated_form(self):
        rng = np.random.default_rng(22)
        g = make_grid(2, 4.0, 12)
        u = Field(g, rng.normal(size=g.num_points)
                  + 1j * rng.normal(size=g.num_points))
        j = dagger_form_matrix(2)
        assert max_rel(apply_p_omega(u, j).values,
                       old_apply_p_omega(u, j)) <= 1e-13
        # a compatible form on R^4 other than omega_dagger: Q J Q^T
        g4 = make_grid(4, 3.0, 6)
        u4 = Field(g4, rng.normal(size=g4.num_points))
        q, _ = np.linalg.qr(rng.normal(size=(4, 4)))
        j4 = q @ dagger_form_matrix(4) @ q.T
        assert max_rel(apply_p_omega(u4, j4).values,
                       old_apply_p_omega(u4, j4)) <= 1e-13

    @pytest.mark.parametrize("b", [np.diag([2.0, 0.5]),
                                   np.array([[2.0, 0.3], [-0.1, 0.6]])])
    def test_linear_lift_kernel(self, b):
        rng = np.random.default_rng(23)
        po = 2.0 * rng.normal(size=(30, 4))
        pi_ = 2.0 * rng.normal(size=(25, 4))
        assert max_rel(linear_lift_kernel(b, po, pi_),
                       old_linear_lift_kernel(b, po, pi_)) <= 1e-13

    def test_l0_hat_kernel(self):
        rng = np.random.default_rng(24)
        shear = np.array([[1.0, 0.4], [0.0, 1.0]])
        for b in (np.diag([4.0, 0.25]), np.diag([4.0, 0.25]) @ shear):
            po = 3.0 * rng.normal(size=(30, 2))
            pi_ = 3.0 * rng.normal(size=(25, 2))
            assert max_rel(l0_hat_kernel(b, po, pi_),
                           old_l0_hat_kernel(b, po, pi_)) <= 1e-13

    @pytest.mark.parametrize("dim, n, n_freq", [(1, 12, 16), (2, 8, 8)])
    def test_lift_linear_matches_pair_major_loop(self, dim, n, n_freq):
        rng = np.random.default_rng(25)
        pg = dual_phase_grid(make_grid(dim, 4.0, n), n_freq=n_freq)
        v = PhaseField(pg, rng.normal(size=pg.shape())
                       + 1j * rng.normal(size=pg.shape()))
        b = np.diag([2.0, 0.5][:dim])
        assert max_rel(lift_linear(b, v).values,
                       old_lift_linear_diagonal(b, v)) <= 1e-13

    def test_p_omega_kernel_built_in_place(self):
        g = make_grid(2, 8.0, 40)
        u = sample(lambda p: np.exp(-np.sum(p ** 2, axis=-1) / 2.0), g)
        j = dagger_form_matrix(2)
        kernel_bytes = g.num_points ** 2 * 16
        tracemalloc.start()
        try:
            apply_p_omega(u, j)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * kernel_bytes


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
