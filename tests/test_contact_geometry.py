"""Tests for affine contact maps, normal-form maps and their audits."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from contactfbi.contact_geometry import (AffineContactMap, ContactMap,
                                         alpha0_covector, alpha_dag,
                                         check_hyperbolic,
                                         det_on_unstable,
                                         flow_shift_gradient,
                                         reconstruct_flow_shift,
                                         second_order_audit)


def pullback_defect(apply_map, jac, x):
    """|t(DF) alpha0(F x) - alpha0(x)| measures failure to preserve alpha0."""
    fx = apply_map(x)
    lhs = jac.T @ alpha0_covector(fx[1:])
    return np.linalg.norm(lhs - alpha0_covector(x[1:]))


class TestCovectors:

    def test_alpha_dag_d1(self):
        assert np.allclose(alpha_dag(np.array([2.0, 3.0])), [-3.0, 2.0])

    def test_alpha0_d1(self):
        assert np.allclose(alpha0_covector(np.array([2.0, 3.0])),
                           [1.0, -3.0, 2.0])

    def test_alpha0_d2(self):
        x = np.array([1.0, 2.0, 3.0, 4.0])
        assert np.allclose(alpha0_covector(x), [1.0, -3.0, -4.0, 1.0, 2.0])


class TestAffineContactMap:

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 10 ** 6))
    def test_preserves_contact_form(self, seed):
        rng = np.random.default_rng(seed)
        a = AffineContactMap(rng.normal(size=5))
        x = rng.normal(size=5)
        # the map is affine, so its differential is apply(x + v) - apply(x)
        basis = np.eye(5)
        jac = np.stack([a.apply(x + basis[i]) - a.apply(x) for i in range(5)],
                       axis=-1)
        assert pullback_defect(a.apply, jac, x) <= 1e-10

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 10 ** 6))
    def test_group_law(self, seed):
        rng = np.random.default_rng(seed)
        a = AffineContactMap(rng.normal(size=5))
        b = AffineContactMap(rng.normal(size=5))
        x = rng.normal(size=5)
        assert np.allclose(a.compose(b).apply(x), a.apply(b.apply(x)),
                           atol=1e-10)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 10 ** 6))
    def test_inverse(self, seed):
        rng = np.random.default_rng(seed)
        a = AffineContactMap(rng.normal(size=7))
        x = rng.normal(size=7)
        assert np.allclose(a.inverse().apply(a.apply(x)), x, atol=1e-10)

    def test_translation_origin(self):
        c = np.array([0.5, 1.0, -2.0])
        assert np.allclose(AffineContactMap(c).apply(np.zeros(3)), c)


class TestContactMapFamilies:

    def test_linear_apply(self):
        cm = ContactMap.linear(np.diag([4.0, 0.25]))
        out = cm.apply(np.array([0.5, 1.0, 2.0]))
        assert np.allclose(out, [0.5, 4.0, 0.5])

    def test_linear_from_its_diagonal(self):
        # a 1-D b is the diagonal: the same map, recorded as diagonal
        pts = np.random.default_rng(3).uniform(-1.0, 1.0, size=(7, 5))
        full = ContactMap.linear(np.diag([4.0, 2.0, 0.25, 0.5]), 0.3)
        diag = ContactMap.linear(np.array([4.0, 2.0, 0.25, 0.5]), 0.3)
        assert full.axis_scales is None
        assert np.array_equal(diag.axis_scales, [4.0, 2.0, 0.25, 0.5])
        assert diag.d == 2 and diag.family == "linear"
        assert np.array_equal(diag.apply(pts), full.apply(pts))
        assert np.array_equal(diag.params["matrix"], full.params["matrix"])
        assert ContactMap.shear(4.0, 0.5).axis_scales is None
        with pytest.raises(ValueError, match="not symplectic"):
            ContactMap.linear(np.array([2.0, 1.0]))

    def test_linear_rejects_nonsymplectic(self):
        with pytest.raises(ValueError, match="not symplectic"):
            ContactMap.linear(np.diag([2.0, 1.0]))

    def test_linear_rejects_bad_matrix(self):
        shape = r"square matrix of even size, got shape \(%d, %d\)"
        for b, fragment in ((np.eye(3), shape % (3, 3)),
                            (np.ones((2, 4)), shape % (2, 4)),
                            (np.array([[4.0, np.nan], [0.0, 0.25]]),
                             "finite matrix entries")):
            with pytest.raises(ValueError, match=fragment):
                ContactMap.linear(b)

    def test_shear_apply(self):
        cm = ContactMap.shear(4.0, 0.5)
        out = cm.apply(np.array([0.0, 0.2, 0.6]))
        # f = eps b^3 / (3 lam) = 0.5 * 0.216 / 12
        assert out[0] == pytest.approx(0.5 * 0.216 / 12.0)
        assert np.allclose(out[1:], [4.0 * 0.2 + 0.5 * 0.36, 0.15])

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10 ** 6))
    def test_shear_preserves_contact_form(self, seed):
        # the full Jacobian, including the flow-shift gradient, must pull
        # alpha0 back to itself
        rng = np.random.default_rng(seed)
        cm = ContactMap.shear(4.0, 0.5)
        x = rng.uniform(-0.8, 0.8, size=3)
        jac = cm.jacobian(x[1:])
        assert pullback_defect(cm.apply, jac, x) <= 1e-12

    def test_linear_preserves_contact_form(self):
        rng = np.random.default_rng(8)
        b = np.array([[4.0, 0.05], [0.0, 0.25]])
        cm = ContactMap.linear(b)
        for _ in range(5):
            x = rng.uniform(-1.0, 1.0, size=3)
            assert pullback_defect(cm.apply, cm.jacobian(x[1:]), x) <= 1e-12


class TestFlowShiftReconstruction:

    def test_shear_matches_closed_form(self):
        cm = ContactMap.shear(4.0, 0.5)
        for p in [np.array([0.3, 0.7]), np.array([-0.5, -0.2]),
                  np.array([0.0, 1.0])]:
            num = reconstruct_flow_shift(cm, p)
            assert num == pytest.approx(0.5 * p[1] ** 3 / 12.0, abs=1e-12)

    def test_linear_is_constant(self):
        cm = ContactMap.linear(np.diag([4.0, 0.25]), f_base=0.7)
        assert reconstruct_flow_shift(cm, np.array([0.4, -0.3])) == \
            pytest.approx(0.7, abs=1e-12)

    def test_base_point_shift(self):
        cm = ContactMap.shear(4.0, 0.5)
        base = np.array([0.1, 0.2])
        # integrating from a nonzero base recovers differences of f
        num = reconstruct_flow_shift(cm, np.array([0.3, 0.6]), base_point=base)
        exact = 0.5 * 0.6 ** 3 / 12.0
        offset = 0.5 * 0.2 ** 3 / 12.0
        assert num == pytest.approx(exact - offset, abs=1e-12)


class TestAudits:

    def test_second_order_vanishes_for_shear(self):
        cm = ContactMap.shear(4.0, 0.5)
        audit = second_order_audit(cm)
        assert audit["grad_max"] <= 1e-6
        assert audit["hess_max"] <= 1e-6

    def test_hyperbolic_linear(self):
        cm = ContactMap.linear(np.diag([4.0, 0.25]))
        report = check_hyperbolic(cm, lam=3.9)
        assert report["ok"]

    def test_hyperbolic_shear(self):
        cm = ContactMap.shear(4.0, 0.05)
        report = check_hyperbolic(cm, lam=3.5)
        assert report["ok"]

    @pytest.mark.parametrize("cm, lam", [
        (ContactMap.linear(np.diag([4.0, 0.25])), 3.9),
        (ContactMap.shear(4.0, 0.05), 3.5),
        (ContactMap.linear(np.block([
            [np.array([[4.0, 0.3], [0.0, 2.0]]), np.zeros((2, 2))],
            [np.zeros((2, 2)),
             np.linalg.inv(np.array([[4.0, 0.3], [0.0, 2.0]])).T]])), 1.5)])
    def test_certificate_matches_point_direction_loop(self, cm, lam):
        # the per point, per direction loop the vectorized certificate
        # replaced, on the same sample
        d, theta = cm.d, 0.1
        rng = np.random.default_rng(4)
        base_pts = rng.uniform(-0.8, 0.8, size=(25, 2 * d))
        dirs = rng.standard_normal((240, 2 * d + 1))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        ref = {"aperture_fwd": 0.0, "aperture_bwd": 0.0,
               "expand_fwd": np.inf, "expand_bwd": np.inf}
        for p in base_pts:
            df = cm.jacobian(p)
            dfi = np.linalg.inv(df)
            for v in dirs:
                plus = np.linalg.norm(v[1:1 + d])
                minus = np.linalg.norm(v[1 + d:])
                pv = np.concatenate([[0.0], v[1:]])
                if plus > theta * minus:
                    w = df @ v
                    ref["aperture_fwd"] = max(
                        ref["aperture_fwd"], np.linalg.norm(w[1 + d:])
                        / max(np.linalg.norm(w[1:1 + d]), 1e-300))
                    if minus <= theta * plus:
                        ref["expand_fwd"] = min(
                            ref["expand_fwd"], np.linalg.norm(df @ pv)
                            - lam * np.linalg.norm(pv))
                if minus > theta * plus:
                    w = dfi @ v
                    ref["aperture_bwd"] = max(
                        ref["aperture_bwd"], np.linalg.norm(w[1:1 + d])
                        / max(np.linalg.norm(w[1 + d:]), 1e-300))
                    if plus <= theta * minus:
                        ref["expand_bwd"] = min(
                            ref["expand_bwd"], np.linalg.norm(dfi @ pv)
                            - lam * np.linalg.norm(pv))
        report = check_hyperbolic(cm, lam)
        assert report["ok"] == (ref["aperture_fwd"] < 1.0
                                and ref["aperture_bwd"] < 1.0
                                and ref["expand_fwd"] >= 0.0
                                and ref["expand_bwd"] >= 0.0)
        for key, val in ref.items():
            assert report[key] == pytest.approx(val, rel=1e-12, abs=0.0)
        assert 0.0 < report["complement_expand_fwd"] < np.inf
        assert 0.0 < report["complement_expand_bwd"] < np.inf

    def test_rotation_not_hyperbolic(self):
        th = np.pi / 5.0
        rot = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
        report = check_hyperbolic(ContactMap.linear(rot), lam=1.5)
        assert not report["ok"]

    def test_det_on_unstable_linear(self):
        cm = ContactMap.linear(np.diag([4.0, 0.25]))
        assert det_on_unstable(cm, np.zeros(2)) == pytest.approx(4.0)

    def test_det_on_unstable_shear(self):
        # the unstable column of the shear Jacobian never depends on b
        cm = ContactMap.shear(4.0, 0.5)
        assert det_on_unstable(cm, np.array([0.3, 0.5])) == pytest.approx(4.0)


class TestBatchedJacobians:
    """The Jacobians take points of shape (..., 2d); a batch equals the loop
    over its points, and one point gives a matrix or a float."""

    MAPS = [ContactMap.linear(np.array([[2.0, 0.6], [0.0, 0.5]])),
            ContactMap.linear(np.diag([2.0, 3.0, 0.5, 1.0 / 3.0])),
            ContactMap.shear(2.0, 0.3)]

    @pytest.mark.parametrize("cm", MAPS, ids=["linear", "linear-d2", "shear"])
    @pytest.mark.parametrize("batch", [(7,), (2, 3)])
    def test_batch_equals_point_loop(self, cm, batch):
        pts = np.random.default_rng(5).uniform(-1.5, 1.5,
                                               batch + (2 * cm.d,))
        flat = pts.reshape(-1, 2 * cm.d)
        for fn in (cm.f_dag_jac, cm.jacobian,
                   lambda x: flow_shift_gradient(cm, x),
                   lambda x: det_on_unstable(cm, x)):
            got = np.asarray(fn(pts))
            want = np.stack([np.asarray(fn(p)) for p in flat])
            assert got.shape == batch + want.shape[1:]
            assert np.allclose(got.reshape(want.shape), want, rtol=1e-15,
                               atol=1e-15)

    @pytest.mark.parametrize("cm", MAPS, ids=["linear", "linear-d2", "shear"])
    def test_one_point(self, cm):
        p = np.full(2 * cm.d, 0.4)
        n = 2 * cm.d + 1
        assert np.shape(cm.f_dag_jac(p)) == (n - 1, n - 1)
        assert cm.jacobian(p).shape == (n, n)
        assert flow_shift_gradient(cm, p).shape == (n - 1,)
        assert isinstance(det_on_unstable(cm, p), float)
