"""Contact maps on R^(2d+1) in normal form.

A map preserving the standard contact form

    alpha0 = dx0 + sum_j (x_j dx_{d+j} - x_{d+j} dx_j)

also preserves the vertical vector field and therefore splits as

    F(x0, x_dag) = (x0 + f(x_dag), F_dag(x_dag))

with F_dag symplectic for omega_dag and f determined up to a constant by
df = alpha_dag - F_dag^* alpha_dag.  This module provides the affine
contact group, the normal-form map with its two concrete families, the
reconstruction of f by path integration (an independent check of the
families' closed forms) and hyperbolicity certification.
"""

import numpy as np

from .fbi_core import cone_certificate, dagger_form_matrix, flip_half


def alpha_dag(x_dag):
    """Covector of the one-form alpha_dag at a transversal point.

    The coefficient vector on (dx_1 .. dx_2d) is (-x^-, x^+)."""
    return -flip_half(np.asarray(x_dag, dtype=float))


def alpha0_covector(x_dag):
    """Covector of alpha0 at (x0, x_dag); independent of x0."""
    x_dag = np.asarray(x_dag, dtype=float)
    return np.concatenate([np.ones(x_dag.shape[:-1] + (1,)),
                           alpha_dag(x_dag)], axis=-1)


class AffineContactMap:
    """Affine transformation A_c preserving alpha0.

    A_c(x0, x^+, x^-) = (x0 + c0 - c^+ . x^- + c^- . x^+, x^+ + c^+, x^- + c^-)
    """

    def __init__(self, c):
        self.c = np.asarray(c, dtype=float)
        if not (self.c.ndim == 1 and self.c.size % 2 == 1):
            raise ValueError("affine contact map needs a 1-D c of odd size, "
                             "got shape %s" % (self.c.shape,))

    @property
    def d(self):
        return (self.c.size - 1) // 2

    def apply(self, x):
        x = np.asarray(x, dtype=float)
        d = self.d
        c0, cp, cm = self.c[0], self.c[1:1 + d], self.c[1 + d:]
        xp = x[..., 1:1 + d]
        xm = x[..., 1 + d:]
        x0 = x[..., 0] + c0 - xm @ cp + xp @ cm
        return np.concatenate([x0[..., None], xp + cp, xm + cm], axis=-1)

    def compose(self, other):
        """A_c after A_c' is again affine contact; group law via A_c(c')."""
        if self.d != other.d:
            raise ValueError("cannot compose affine contact maps of d = %d "
                             "and d = %d" % (self.d, other.d))
        return AffineContactMap(self.apply(other.c))

    def inverse(self):
        return AffineContactMap(-self.c)


class ContactMap:
    """Normal-form contact map F(x0, x_dag) = (x0 + f(x_dag), F_dag(x_dag)).

    Construct through the `linear` or `shear` family constructors, which
    supply the transversal map, its Jacobian and the flow shift f in
    closed form.  f_dag, f and f_dag_jac receive transversal points of
    shape (..., 2d) and return arrays of shape (..., 2d), (...) and
    (..., 2d, 2d); one point of shape (2d,) gives one (2d, 2d) Jacobian.
    The symplectic property of F_dag is spot-checked on construction.
    """

    def __init__(self, d, f_dag, f_dag_jac, f, f_base, family, params):
        self.d = int(d)
        self.f_dag = f_dag
        self.f_dag_jac = f_dag_jac
        self.f_base = float(f_base)
        self._f = f
        self.family = family
        self.params = dict(params)
        self.axis_scales = None
        self._check_symplectic()

    def _check_symplectic(self):
        j = dagger_form_matrix(2 * self.d)
        rng = np.random.default_rng(2)
        pts = rng.uniform(-0.8, 0.8, size=(16, 2 * self.d))
        dm = np.asarray(self.f_dag_jac(pts), dtype=float)
        defect = np.linalg.norm(np.swapaxes(dm, -1, -2) @ j @ dm - j, 2,
                                axis=(-2, -1))
        bad = np.flatnonzero(defect > 1e-8)
        if bad.size:
            raise ValueError("transversal map is not symplectic at %r"
                             % (pts[bad[0]],))

    @classmethod
    def linear(cls, b, f_base=0.0):
        """F_dag a symplectic matrix, f constant.  A 1-D b is the matrix's
        diagonal, recorded as axis_scales: diagonal by definition."""
        b = np.asarray(b, dtype=float)
        scales = b.copy() if b.ndim == 1 else None
        if scales is not None:
            b = np.diag(scales)
        d = b.shape[0] // 2
        params = {"matrix": b.copy(), "f_base": float(f_base)}
        cmap = cls(d,
                   f_dag=lambda x: x @ b.T,
                   f_dag_jac=lambda x: np.broadcast_to(
                       b, np.shape(x)[:-1] + b.shape),
                   f=lambda x: np.full(np.asarray(x).shape[:-1], float(f_base)),
                   f_base=f_base, family="linear", params=params)
        cmap.axis_scales = scales
        return cmap

    @classmethod
    def shear(cls, lam, eps, f_base=0.0):
        """d = 1 family F_dag(a, b) = (lam a + eps b^2, b / lam).

        The flow shift solves df = alpha_dag - F_dag^* alpha_dag in closed
        form: f(a, b) = eps b^3 / (3 lam) + f_base.
        """
        lam = float(lam)
        eps = float(eps)

        def f_dag(x):
            x = np.asarray(x, dtype=float)
            a, b = x[..., 0], x[..., 1]
            return np.stack([lam * a + eps * b ** 2, b / lam], axis=-1)

        def f_dag_jac(x):
            x = np.asarray(x, dtype=float)
            out = np.zeros(x.shape[:-1] + (2, 2))
            out[..., 0, 0] = lam
            out[..., 0, 1] = 2.0 * eps * x[..., 1]
            out[..., 1, 1] = 1.0 / lam
            return out

        def f(x):
            x = np.asarray(x, dtype=float)
            return eps * x[..., 1] ** 3 / (3.0 * lam) + f_base

        params = {"lam": lam, "eps": eps, "f_base": float(f_base)}
        return cls(1, f_dag, f_dag_jac, f=f, f_base=f_base,
                   family="shear", params=params)

    def flow_shift(self, x_dag):
        """The function f, in the family's closed form."""
        return self._f(x_dag)

    def apply(self, x):
        x = np.asarray(x, dtype=float)
        x0 = x[..., 0] + self.flow_shift(x[..., 1:])
        return np.concatenate([x0[..., None], self.f_dag(x[..., 1:])], axis=-1)

    def jacobian(self, x_dag):
        """Full (2d+1) square Jacobian of F (x0-independent) at transversal
        points of shape (..., 2d), of shape (..., 2d+1, 2d+1)."""
        x_dag = np.asarray(x_dag, dtype=float)
        n = 2 * self.d + 1
        out = np.zeros(x_dag.shape[:-1] + (n, n))
        out[..., 0, 0] = 1.0
        out[..., 0, 1:] = flow_shift_gradient(self, x_dag)
        out[..., 1:, 1:] = self.f_dag_jac(x_dag)
        return out


def flow_shift_gradient(cmap, x_dag):
    """df at transversal points of shape (..., 2d), from the one-form
    identity (no finite differences)."""
    x_dag = np.asarray(x_dag, dtype=float)
    dm = np.asarray(cmap.f_dag_jac(x_dag), dtype=float)
    pulled = np.swapaxes(dm, -1, -2) @ alpha_dag(cmap.f_dag(x_dag))[..., None]
    return alpha_dag(x_dag) - pulled[..., 0]


def reconstruct_flow_shift(cmap, x_dag, base_point=None):
    """Integrate df along the straight path from the base point.

    24-node Gauss-Legendre quadrature along the segment; exact for
    families whose df is polynomial of modest degree.  One point at a
    time: it cross-checks the families' closed-form f.
    """
    x_dag = np.asarray(x_dag, dtype=float)
    if base_point is None:
        base_point = np.zeros(2 * cmap.d)
    base_point = np.asarray(base_point, dtype=float)
    nodes, weights = np.polynomial.legendre.leggauss(24)
    t = (nodes + 1.0) / 2.0
    delta = x_dag - base_point
    total = 0.0
    for ti, wi in zip(t, weights):
        total += wi * (flow_shift_gradient(cmap, base_point + ti * delta) @ delta)
    return cmap.f_base + total / 2.0


def check_hyperbolic(cmap, lam):
    """Certify cone invariance and transversal expansion of DF on 25 base
    points in [-0.8, 0.8]^(2d) and 240 directions, cone aperture 0.1.

    Same reading as for linear maps: expansion by lam is required on the
    cones where it holds, the achieved image apertures of the cone
    complements are required to stay below one, and the expansion over the
    full complements is recorded without being gated on.  The cones
    ignore the flow direction (see fbi_core.cone_certificate).
    """
    d = cmap.d
    rng = np.random.default_rng(4)
    base_pts = rng.uniform(-0.8, 0.8, size=(25, 2 * d))
    dirs = rng.standard_normal((240, 2 * d + 1))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    return cone_certificate(cmap.jacobian(base_pts), dirs, lam, 0.1)


def second_order_audit(cmap):
    """Finite-difference gradient and Hessian (step 1e-3) of the
    reconstructed f at the origin.

    At a fixed point of the transversal map moved to the origin, both must
    vanish; the returned dict carries the max absolute entries.
    """
    step = 1e-3
    n = 2 * cmap.d
    x_fix = np.zeros(n)

    def f(p):
        return float(reconstruct_flow_shift(cmap, p))

    grad = np.zeros(n)
    hess = np.zeros((n, n))
    eye = np.eye(n) * step
    f0 = f(x_fix)
    for i in range(n):
        fp = f(x_fix + eye[i])
        fm = f(x_fix - eye[i])
        grad[i] = (fp - fm) / (2.0 * step)
        hess[i, i] = (fp - 2.0 * f0 + fm) / step ** 2
    for i in range(n):
        for j in range(i + 1, n):
            fpp = f(x_fix + eye[i] + eye[j])
            fpm = f(x_fix + eye[i] - eye[j])
            fmp = f(x_fix - eye[i] + eye[j])
            fmm = f(x_fix - eye[i] - eye[j])
            hess[i, j] = hess[j, i] = (fpp - fpm - fmp + fmm) / (4.0 * step ** 2)
    return {"grad_max": float(np.max(np.abs(grad))),
            "hess_max": float(np.max(np.abs(hess))),
            "grad": grad, "hess": hess}


def det_on_unstable(cmap, x_dag):
    """Volume stretch |det(DF restricted to E^+)| via a Gram determinant,
    at transversal points of shape (..., 2d): a float for one point, an
    array of shape (...) for a batch.

    E^+ is the span of the flow direction and the plus block, the first
    d + 1 coordinate directions.
    """
    m = cmap.jacobian(x_dag)[..., :cmap.d + 1]
    gram = np.swapaxes(m, -1, -2) @ m
    out = np.sqrt(np.abs(np.linalg.det(gram)))
    return float(out) if out.ndim == 0 else out
