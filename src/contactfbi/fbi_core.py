"""FBI transform on R^D, the phase space projection and lifted linear maps.

The transform pairs a function with Gaussian wave packets

    phi_{x,xi}(y) = a_D exp(i xi.(y - x/2) - |y - x|^2 / 2),
    a_D = (2 pi)^(-D/2) pi^(-D/4),

over a grid of phase space points (x, xi).  Discretization convention: the
packet centers sit on the same lattice as the space quadrature nodes and the
frequency grid is the exact DFT-dual lattice of that spacing,

    xi_j = (j + 1/2 - n/2) * 2 pi / (n h).

With this choice the frequency sum in T* T is a Dirichlet kernel that
vanishes identically at every nonzero lattice offset inside the alias
window, so the discrete T* T is diagonal and the only identity/isometry
errors are Gaussian boundary tails.  The pair T / T* is the kappa = 1
case of the slice transform core in partial_fbi (_slice_forward /
_slice_adjoint, packets of width kappa^(-1/2)); fbi_forward and
fbi_adjoint check their inputs and call it, and fbi_roundtrip applies
T* T through the per-axis packet Grams of partial_fbi.slice_roundtrip.
Operators such as the lifted linear map are applied through closed-form
Gaussian-integral kernels, which keeps them accurate even when the linear
map moves frequencies outside the band that plain quadrature could
resolve.

Every closed form is pref * exp(quadratic form in (p, p')), built in place
by the one builder _gaussian_kernel: the projection kernels through
_form_projection_kernel, and linear_lift_kernel and l0_hat_kernel, Gaussian
integrals of two projections, through _pair_kernel.
"""

import numpy as np

from .numerics import Field, GridSpec, check_dense


def normalization(dim):
    """The packet prefactor a_D."""
    return (2.0 * np.pi) ** (-dim / 2.0) * np.pi ** (-dim / 4.0)


class PhaseSpacePoint:
    """A center/frequency pair (x, xi) indexing one wave packet."""

    def __init__(self, x, xi):
        self.x = np.atleast_1d(np.asarray(x, dtype=float))
        self.xi = np.atleast_1d(np.asarray(xi, dtype=float))
        if self.x.shape != self.xi.shape:
            raise ValueError("phase space point with center of shape %s and "
                             "frequency of shape %s" % (self.x.shape,
                                                        self.xi.shape))
        if not (np.all(np.isfinite(self.x)) and np.all(np.isfinite(self.xi))):
            raise ValueError("non-finite phase space point")

    @property
    def dim(self):
        return self.x.size


def wave_packet(p):
    """Pointwise wave packet phi_{x,xi} as a vectorized function of y."""
    a = normalization(p.dim)

    def phi(y):
        y = np.asarray(y, dtype=float)
        if y.ndim == 1 and p.dim == 1:
            y = y[:, None]
        dy = y - p.x
        phase = np.tensordot(y - p.x / 2.0, p.xi, axes=([-1], [0]))
        return a * np.exp(1j * phase - np.sum(dy ** 2, axis=-1) / 2.0)

    return phi


class PhaseAxis:
    """Center, frequency and space-quadrature nodes along one axis.

    factors holds the read-only packet factors of this axis at its own
    nodes and at off-grid points, keyed by (points bytes, kappa, conj),
    and grams its read-only packet Grams, keyed by kappa; see
    partial_fbi._cached_axis_factor and partial_fbi._slice_gram.  The
    Grams are built in closed form, with no entry in factors.
    """

    def __init__(self, centers, freqs, y):
        self.centers = np.asarray(centers, dtype=float)
        self.freqs = np.asarray(freqs, dtype=float)
        self.y = np.asarray(y, dtype=float)
        self.c_spacing = float(self.centers[1] - self.centers[0])
        self.f_spacing = float(self.freqs[1] - self.freqs[0])
        self.y_spacing = float(self.y[1] - self.y[0])
        self.factors = {}
        self.grams = {}


class PhaseGrid:
    """Product grid of packet centers and frequencies, one PhaseAxis per axis.

    Fields on the phase grid are arrays of shape
    (nc_1, ..., nc_D, nf_1, ..., nf_D) in row-major order.
    """

    def __init__(self, axes):
        self.axes = list(axes)
        self.dim = len(self.axes)

    @property
    def weight(self):
        w = 1.0
        for ax in self.axes:
            w *= ax.c_spacing * ax.f_spacing
        return w

    @property
    def y_weight(self):
        w = 1.0
        for ax in self.axes:
            w *= ax.y_spacing
        return w

    def shape(self):
        return tuple(ax.centers.size for ax in self.axes) + \
            tuple(ax.freqs.size for ax in self.axes)

    @property
    def num_points(self):
        return int(np.prod(self.shape()))

    def points(self):
        """All phase nodes as an array of shape (num_points, 2 D)."""
        grids = [ax.centers for ax in self.axes] + [ax.freqs for ax in self.axes]
        mesh = np.meshgrid(*grids, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=-1)

    def space_grid(self):
        """The attached space quadrature grid (must be isotropic)."""
        n = self.axes[0].y.size
        h = self.axes[0].y_spacing
        for ax in self.axes:
            if ax.y.size != n or abs(ax.y_spacing - h) >= 1e-12:
                raise ValueError("space grid needs the same quadrature on "
                                 "every axis")
        return GridSpec(self.dim, n * h / 2.0, n)


def dual_frequencies(n_freq, spacing):
    """Half-offset symmetric frequency lattice dual to a space spacing."""
    j = np.arange(n_freq)
    return (j + 0.5 - n_freq / 2.0) * (2.0 * np.pi / (n_freq * spacing))


def dual_phase_grid(space_grid, n_freq=None, center_margin=0.0):
    """Phase grid whose centers share the space lattice and whose frequency
    grid is the exact dual lattice.

    center_margin extends the center range beyond the space box by a whole
    number of spacings, which keeps both lattices aligned.
    """
    h = space_grid.spacing
    y = space_grid.axis_nodes()
    extra = int(np.ceil(center_margin / h - 1e-12))
    if extra > 0:
        left = y[0] - h * np.arange(extra, 0, -1)
        right = y[-1] + h * np.arange(1, extra + 1)
        centers = np.concatenate([left, y, right])
    else:
        centers = y.copy()
    if n_freq is None:
        n_freq = space_grid.points_per_axis + 8
    if n_freq * h <= 2.0 * space_grid.half_width - h:
        raise ValueError("frequency count %d too small for %d points per "
                         "axis, alias window does not cover the box"
                         % (n_freq, space_grid.points_per_axis))
    freqs = dual_frequencies(n_freq, h)
    ax = PhaseAxis(centers, freqs, y)
    return PhaseGrid([ax] * space_grid.dim)


class PhaseField:
    """Complex field sampled on a PhaseGrid."""

    def __init__(self, grid, values):
        values = np.asarray(values, dtype=complex)
        if values.shape != grid.shape():
            raise ValueError("shape %s does not match phase grid %s"
                             % (values.shape, grid.shape()))
        self.grid = grid
        self.values = values

    def norm(self):
        return float(np.sqrt(np.sum(np.abs(self.values) ** 2) * self.grid.weight))


def _check_nyquist(pg):
    for ax in pg.axes:
        if ax.y_spacing * np.max(np.abs(ax.freqs)) >= np.pi:
            raise ValueError(
                "space grid too coarse for the requested frequencies: "
                "spacing %.4g, max |xi| %.4g" % (ax.y_spacing, np.max(np.abs(ax.freqs))))


def check_nodes(pg, grid):
    """Refuse a field grid whose nodes are not the quadrature nodes of pg."""
    if grid.dim != pg.dim:
        raise ValueError("a %d-dimensional field on a %d-dimensional phase "
                         "grid" % (grid.dim, pg.dim))
    for ax in pg.axes:
        if ax.y.size != grid.points_per_axis:
            raise ValueError("phase grid has %d quadrature nodes per axis, "
                             "the field %d" % (ax.y.size,
                                               grid.points_per_axis))
        if not np.allclose(ax.y, grid.axis_nodes()):
            raise ValueError("phase grid quadrature nodes differ from the "
                             "field's grid nodes")


def _check_field_on(u, pg):
    """Refuse a field whose grid is not the quadrature grid of pg."""
    _check_nyquist(pg)
    check_nodes(pg, u.grid)


def fbi_forward(u, pg):
    """T u on the phase grid: quadrature pairing of u with every packet.

    This is the partial transform's slice core at kappa = 1."""
    from .partial_fbi import _slice_forward
    _check_field_on(u, pg)
    return PhaseField(pg, _slice_forward(u.reshape(), pg, 1.0))


def fbi_roundtrip(u, pg):
    """T* T u on the field's grid, with the input checks of fbi_forward.

    This is partial_fbi.slice_roundtrip at kappa = 1: one summed packet
    Gram per axis, with no phase-space coefficient formed; the tests hold
    it to fbi_adjoint(fbi_forward(.))."""
    from .partial_fbi import slice_roundtrip
    _check_field_on(u, pg)
    return Field(u.grid, slice_roundtrip(u.reshape(), pg, 1.0).ravel())


def fbi_adjoint(v, space_grid=None):
    """T* v: weighted superposition of packets, sampled on the space grid,
    which must have the phase grid's quadrature nodes (check_nodes).

    This is the partial transform's adjoint slice core at kappa = 1."""
    from .partial_fbi import _slice_adjoint
    pg = v.grid
    if space_grid is None:
        space_grid = pg.space_grid()
    check_nodes(pg, space_grid)
    return Field(space_grid, _slice_adjoint(v.values, pg, 1.0).ravel())


def fbi_forward_at(u, points):
    """T u evaluated at arbitrary phase space points of shape (N, 2 D).

    Sums each packet against u node by node; this is the reference oracle
    that the tests hold fbi_forward (the slice core at kappa = 1) to."""
    pts = np.asarray(points, dtype=float)
    d = u.grid.dim
    if pts.ndim != 2 or pts.shape[1] != 2 * d:
        raise ValueError("points of shape %s for a %d-dimensional field; "
                         "need width %d" % (pts.shape, d, 2 * d))
    nodes = u.grid.nodes()
    out = np.empty(pts.shape[0], dtype=complex)
    a = normalization(d)
    chunk = max(1, int(2e6 // max(nodes.shape[0], 1)))
    for start in range(0, pts.shape[0], chunk):
        p = pts[start:start + chunk]
        x = p[:, :d]
        xi = p[:, d:]
        dy = nodes[None, :, :] - x[:, None, :]
        phase = np.einsum("nyd,nd->ny", nodes[None, :, :] - x[:, None, :] / 2.0, xi)
        packet = np.exp(-1j * phase - np.sum(dy ** 2, axis=-1) / 2.0)
        out[start:start + chunk] = packet @ u.values
    return a * u.grid.weight * out


def projection_kernel(p, q):
    """Closed form of the integral of conj(phi_p) phi_q over R^D.

    Equals (2 pi)^(-D) exp(i Omega(p,q)/2 - |x-x'|^2/4 - |xi-xi'|^2/4) with
    Omega((x,xi),(x',xi')) = x.xi' - xi.x'.
    """
    if p.dim != q.dim:
        raise ValueError("packets of dimensions %d and %d" % (p.dim, q.dim))
    return projection_kernel_matrix(np.concatenate([p.x, p.xi])[None],
                                    np.concatenate([q.x, q.xi])[None])[0, 0]


def _gaussian_kernel(q_out, q_cross, q_in, pref, pts_out, pts_in):
    """Kernel pref exp(p.Q_out p + p.Q_cross p' + p'.Q_in p') on two point
    sets p in pts_out, p' in pts_in.

    The exponent is built and exponentiated in place, so the only matrix of
    the output size is the returned kernel.
    """
    po = np.asarray(pts_out, dtype=float)
    pi_ = np.asarray(pts_in, dtype=float)
    out = po @ q_cross @ pi_.T
    out += np.einsum("ni,ij,nj->n", po, q_out, po)[:, None]
    out += np.einsum("ni,ij,nj->n", pi_, q_in, pi_)[None, :]
    np.exp(out, out=out)
    out *= pref
    return out


def _form_projection_kernel(form, pref, pts_out, pts_in):
    """pref exp(i form(p, p')/2 - |p - p'|^2/4) with form(p, p') = p.J p'."""
    eye = np.eye(form.shape[0])
    return _gaussian_kernel(-eye / 4.0, (eye + 1j * form) / 2.0, -eye / 4.0,
                            pref, pts_out, pts_in)


def projection_kernel_matrix(pts_out, pts_in):
    """Projection kernel sampled on two point sets of shape (N, 2 D)."""
    dim = np.shape(pts_out)[1] // 2
    return _form_projection_kernel(dagger_form_matrix(2 * dim),
                                   (2.0 * np.pi) ** (-dim), pts_out, pts_in)


def apply_p_omega(v, omega):
    """Apply the projection P_omega with kernel
    (2 pi)^(-m) exp(i omega(z, z')/2 - |z - z'|^2/4) on R^(2m).

    The kernel is assembled densely on the grid nodes, within the dense
    budget of numerics.check_dense.
    """
    j = np.asarray(omega, dtype=float)
    dim = v.grid.dim
    if dim % 2 or j.shape != (dim, dim):
        raise ValueError("omega must be a square matrix of the even grid "
                         "dimension %d, got shape %s" % (dim, j.shape))
    if np.linalg.norm(j @ j + np.eye(dim), 2) > 1e-8:
        raise ValueError("omega is not compatible with the Euclidean norm "
                         "(J^2 + Id is not negligible)")
    check_dense(v.grid.num_points, v.grid.num_points, "dense P_omega kernel")
    pts = v.grid.nodes()
    kern = _form_projection_kernel(
        j, (2.0 * np.pi) ** (-(dim // 2)) * v.grid.weight, pts, pts)
    return Field(v.grid, kern @ v.values)


def det_factor(b):
    """d(B) = det((Id + B^T B)/2)^(1/2)."""
    b = np.asarray(b, dtype=float)
    n = b.shape[0]
    return float(np.sqrt(np.linalg.det((np.eye(n) + b.T @ b) / 2.0)))


def cone_certificate(jacs, dirs, lam, theta):
    """Cone invariance and expansion of a stack of maps on sampled directions.

    jacs has shape (P, n, n) and dirs, unit vectors, shape (K, n); every
    map is tested on every direction.  A vector splits into halves
    (v_+, v_-) of length d = n // 2, and C_+(theta) = {|v_-| <= theta |v_+|},
    C_-(theta) = {|v_+| <= theta |v_-|}.  When n is odd the leading axis is
    the flow direction: the cones ignore it and it is projected out of the
    directions before the maps are applied, so the expansion test sees
    only the transversal part.  With M the map and M^{-1} its inverse:

    * aperture_fwd: the largest |w_-| / |w_+| of w = M v over v outside
      C_-(theta); aperture_bwd the same for M^{-1} with the halves swapped;
    * expand_fwd: the smallest |M v| - lam |v| over v in C_+(theta);
      expand_bwd the same for M^{-1} on C_-(theta);
    * complement_expand_fwd / _bwd: the smallest |M v| / |v| over the
      cone complements the apertures use, recorded without being gated on;
    * ok: both apertures below one and both expansions nonnegative.
    """
    jacs = np.asarray(jacs, dtype=float)
    n = jacs.shape[-1]
    d = n // 2
    flow = n - 2 * d
    v = np.array(dirs, dtype=float)
    v[:, :flow] = 0.0
    size = np.linalg.norm(v, axis=1)
    halves = (slice(flow, flow + d), slice(flow + d, n))
    report = {}
    for key, mats, (grow, shrink) in (("fwd", jacs, halves),
                                      ("bwd", np.linalg.inv(jacs),
                                       halves[::-1])):
        vg = np.linalg.norm(v[:, grow], axis=1)
        vs = np.linalg.norm(v[:, shrink], axis=1)
        outside = vg > theta * vs
        # a pure flow direction (both halves zero) lies in neither cone
        inside = (vs <= theta * vg) & (vg > 0.0)
        w = np.einsum("pij,kj->pki", mats, v)
        image = np.linalg.norm(w, axis=-1)
        aperture = np.linalg.norm(w[..., shrink], axis=-1) / np.maximum(
            np.linalg.norm(w[..., grow], axis=-1), 1e-300)
        report["aperture_" + key] = float(
            np.max(aperture[:, outside], initial=0.0))
        report["expand_" + key] = float(
            np.min((image - lam * size)[:, inside], initial=np.inf))
        report["complement_expand_" + key] = float(
            np.min((image / size)[:, outside], initial=np.inf))
    report["ok"] = (report["aperture_fwd"] < 1.0
                    and report["aperture_bwd"] < 1.0
                    and report["expand_fwd"] >= 0.0
                    and report["expand_bwd"] >= 0.0)
    return report


class LinearHyperbolicMap:
    """Linear hyperbolic map B on R^(2d) split into plus/minus halves.

    The constructor certifies the map by sampling unit vectors:

    * B must expand by at least lam on the unstable cone C*_+(1/10) and
      B^{-1} by at least lam on C*_-(1/10);
    * the image under B of the complement of C*_-(1/10) must land strictly
      inside the open plus cone (achieved aperture < 1), and symmetrically
      for B^{-1}.

    For a map with diagonal stretch L the achieved aperture of the image
    cone is about 1/(L^2 theta), so the stronger invariance at aperture
    1/10 only holds once L >= 10; callers that need it can read the
    achieved apertures off the certificate report.  The report also
    records the worst expansion over the whole cone complements, which
    degrades to roughly theta * L and is likewise not gated on.
    """

    def __init__(self, matrix, lam, check=True):
        self.matrix = np.asarray(matrix, dtype=float)
        self.lam = float(lam)
        if self.matrix.ndim != 2 or \
                self.matrix.shape[0] != self.matrix.shape[1] or \
                self.matrix.shape[0] % 2:
            raise ValueError("hyperbolic map needs a square matrix of even "
                             "size, got shape %s" % (self.matrix.shape,))
        self.dim = self.matrix.shape[0]
        self.d = self.dim // 2
        if check:
            if abs(np.linalg.det(self.matrix) - 1.0) > 1e-10:
                raise ValueError("matrix must have unit determinant")
            report = self.certify()
            if not report["ok"]:
                raise ValueError("cone/expansion certificate failed: %r"
                                 % report)

    def certify(self):
        """Check the cone mapping and expansion with cone_certificate on
        720 unit vectors (evenly spaced angles in the plane, seeded random
        directions above it)."""
        if self.dim == 2:
            ang = np.linspace(0.0, 2.0 * np.pi, 720, endpoint=False)
            dirs = np.stack([np.cos(ang), np.sin(ang)], axis=-1)
        else:
            rng = np.random.default_rng(7)
            dirs = rng.standard_normal((720, self.dim))
            dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        return cone_certificate(self.matrix[None], dirs, self.lam, 0.1)


def _pair_kernel(n_mat, form, scale, pts_out, pts_in):
    """Gaussian integral over the middle point of two projection kernels of
    the form J on R^n, the second composed with zeta -> N^T zeta:
    scale det(A)^(-1/2) (2 pi)^(-n/2) exp(b.A^{-1} b/2 - |p|^2/4 - |p'|^2/4)
    with b = P1 p + P2 p', A = (Id + N N^T)/2, P1 = (Id - i J)/2 and
    P2 = N (Id + i J)/2."""
    eye = np.eye(form.shape[0])
    a_mat = (eye + n_mat @ n_mat.T) / 2.0
    p1 = (eye - 1j * form) / 2.0
    p2 = n_mat @ (eye + 1j * form) / 2.0
    sol1 = np.linalg.solve(a_mat, p1)
    sol2 = np.linalg.solve(a_mat, p2)
    pref = scale * (2.0 * np.pi) ** (-eye.shape[0] / 2.0) \
        / np.sqrt(np.linalg.det(a_mat))
    return _gaussian_kernel(0.5 * p1.T @ sol1 - eye / 4.0, p1.T @ sol2,
                            0.5 * p2.T @ sol2 - eye / 4.0, pref,
                            pts_out, pts_in)


def linear_lift_kernel(b, pts_out, pts_in):
    """Closed-form kernel of d(B) P Ltilde_B P on phase space points.

    The intermediate phase space integral of the two projection kernels is a
    Gaussian integral and is evaluated exactly, so the only discretization
    left to the caller is the quadrature over the input point set.
    """
    b = np.asarray(b, dtype=float)
    dim = b.shape[0]
    btilde = np.zeros((2 * dim, 2 * dim))
    btilde[:dim, :dim] = b
    btilde[dim:, dim:] = np.linalg.inv(b).T
    return _pair_kernel(btilde.T, dagger_form_matrix(2 * dim), det_factor(b),
                        pts_out, pts_in)


def lift_linear(b, v):
    """Apply the lifted linear map d(B) P Ltilde_B P to a phase field, on
    the field's own phase grid.

    For diagonal B the kernel factorizes over the (x_a, xi_a) pairs and is
    applied axis by axis, one tensordot over each axis's (center, frequency)
    pair; otherwise a dense kernel is assembled, which is only feasible for
    small phase grids.
    """
    b = np.asarray(b, dtype=float)
    pg = v.grid
    dim = pg.dim
    if b.shape != (dim, dim):
        raise ValueError("lifted map of shape %s on a %d-dimensional phase "
                         "grid" % (b.shape, dim))
    if not np.count_nonzero(b - np.diag(np.diag(b))):
        work = v.values
        for a, ax in enumerate(pg.axes):
            nc, nf = ax.centers.size, ax.freqs.size
            pairs = np.stack([np.repeat(ax.centers, nf),
                              np.tile(ax.freqs, nc)], axis=-1)
            k = linear_lift_kernel(b[a:a + 1, a:a + 1], pairs, pairs)
            k *= ax.c_spacing * ax.f_spacing
            work = np.tensordot(k.reshape(nc, nf, nc, nf), work,
                                axes=([2, 3], [a, dim + a]))
            work = np.moveaxis(work, (0, 1), (a, dim + a))
        return PhaseField(pg, work)
    check_dense(pg.num_points, pg.num_points,
                "dense non-diagonal lift kernel")
    pts = pg.points()
    out = (linear_lift_kernel(b, pts, pts) @ v.values.ravel()) * pg.weight
    return PhaseField(pg, out.reshape(pg.shape()))


def flip_half(x):
    """J(x_plus, x_minus) = (x_minus, -x_plus) on R^(2d)."""
    x = np.asarray(x, dtype=float)
    d = x.shape[-1] // 2
    return np.concatenate([x[..., d:], -x[..., :d]], axis=-1)


def z_change(x, xi):
    """Coordinate change Z(x, xi) = ((xi + J x)/sqrt2, (xi - J x)/sqrt2)."""
    x = np.asarray(x, dtype=float)
    xi = np.asarray(xi, dtype=float)
    jx = flip_half(x)
    z = (xi + jx) / np.sqrt(2.0)
    w = (xi - jx) / np.sqrt(2.0)
    return z, w


def dagger_form_matrix(dim):
    """Matrix J of the form u . J v on R^dim, dim even: omega_dagger on
    R^(2d), and the standard form Omega(p, q) = x . xi' - xi . x' on
    R^(2D) for dim = 2 D."""
    d = dim // 2
    j = np.zeros((dim, dim))
    j[:d, d:] = np.eye(d)
    j[d:, :d] = -np.eye(d)
    return j


def l0_hat_kernel(b, pts_out, pts_in):
    """Closed-form kernel of L0_hat = d(B)^(1/2) P_0 L_0 P_0 on R^(2d),
    where L_0 u(zeta) = u(B^{-T} zeta) and P_0 projects with omega_dagger."""
    b = np.asarray(b, dtype=float)
    j = dagger_form_matrix(b.shape[0])
    if np.linalg.norm(b.T @ j @ b - j, 2) > 1e-10:
        raise ValueError("B does not preserve omega_dagger")
    return _pair_kernel(np.linalg.inv(b), j, np.sqrt(det_factor(b)),
                        pts_out, pts_in)


def l0_hat(b, u):
    """Apply L0_hat to a field on a grid over R^(2d)."""
    b = np.asarray(b, dtype=float)
    if u.grid.dim != b.shape[0]:
        raise ValueError("L0_hat of a %d x %d matrix on a %d-dimensional "
                         "grid" % (b.shape + (u.grid.dim,)))
    check_dense(u.grid.num_points, u.grid.num_points, "L0_hat kernel")
    pts = u.grid.nodes()
    k = l0_hat_kernel(b, pts, pts)
    return Field(u.grid, (k @ u.values) * u.grid.weight)
