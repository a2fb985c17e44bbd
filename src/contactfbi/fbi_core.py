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
fbi_adjoint check their inputs and call it.  Operators such as the lifted
linear map are applied through closed-form Gaussian-integral kernels, which
keeps them accurate even when the linear map moves frequencies outside the
band that plain quadrature could resolve.
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
        assert self.x.shape == self.xi.shape
        assert np.all(np.isfinite(self.x)) and np.all(np.isfinite(self.xi))

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

    point_factors holds the read-only packet factors of this axis at
    off-grid points, keyed by (points bytes, kappa, conj); see
    partial_fbi._point_factors.
    """

    def __init__(self, centers, freqs, y):
        self.centers = np.asarray(centers, dtype=float)
        self.freqs = np.asarray(freqs, dtype=float)
        self.y = np.asarray(y, dtype=float)
        self.c_spacing = float(self.centers[1] - self.centers[0])
        self.f_spacing = float(self.freqs[1] - self.freqs[0])
        self.y_spacing = float(self.y[1] - self.y[0])
        self.point_factors = {}


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
            assert ax.y.size == n and abs(ax.y_spacing - h) < 1e-12
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


def fbi_forward(u, pg):
    """T u on the phase grid: quadrature pairing of u with every packet.

    This is the partial transform's slice core at kappa = 1."""
    from .partial_fbi import _slice_forward
    _check_nyquist(pg)
    assert u.grid.dim == pg.dim
    for ax in pg.axes:
        assert ax.y.size == u.grid.points_per_axis
        assert np.allclose(ax.y, u.grid.axis_nodes())
    return PhaseField(pg, _slice_forward(u.reshape(), pg, 1.0))


def fbi_adjoint(v, space_grid=None):
    """T* v: weighted superposition of packets, sampled on the space grid.

    This is the partial transform's adjoint slice core at kappa = 1."""
    from .partial_fbi import _slice_adjoint
    pg = v.grid
    if space_grid is None:
        space_grid = pg.space_grid()
    return Field(space_grid, _slice_adjoint(v.values, pg, 1.0).ravel())


def fbi_forward_at(u, points):
    """T u evaluated at arbitrary phase space points of shape (N, 2 D).

    Sums each packet against u node by node; this is the reference oracle
    that the tests hold fbi_forward (the slice core at kappa = 1) to."""
    pts = np.asarray(points, dtype=float)
    d = u.grid.dim
    assert pts.shape[1] == 2 * d
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
    assert p.dim == q.dim
    omega = float(p.x @ q.xi - p.xi @ q.x)
    d2 = np.sum((p.x - q.x) ** 2) + np.sum((p.xi - q.xi) ** 2)
    return (2.0 * np.pi) ** (-p.dim) * np.exp(0.5j * omega - d2 / 4.0)


def projection_kernel_matrix(pts_out, pts_in):
    """Projection kernel sampled on two point sets of shape (N, 2 D)."""
    po = np.asarray(pts_out, dtype=float)
    pi_ = np.asarray(pts_in, dtype=float)
    dim = po.shape[1] // 2
    s = dagger_form_matrix(2 * dim)
    omega = po @ s @ pi_.T
    sq_o = np.sum(po ** 2, axis=1)
    sq_i = np.sum(pi_ ** 2, axis=1)
    cross = po @ pi_.T
    d2 = sq_o[:, None] + sq_i[None, :] - 2.0 * cross
    return (2.0 * np.pi) ** (-dim) * np.exp(0.5j * omega - d2 / 4.0)


def apply_p_omega(v, omega):
    """Apply the projection P_omega with kernel
    (2 pi)^(-m) exp(i omega(z, z')/2 - |z - z'|^2/4) on R^(2m)."""
    j = np.asarray(omega, dtype=float)
    dim = v.grid.dim
    assert dim % 2 == 0 and j.shape == (dim, dim)
    if np.linalg.norm(j @ j + np.eye(dim), 2) > 1e-8:
        raise ValueError("omega is not compatible with the Euclidean norm "
                         "(J^2 + Id is not negligible)")
    m = dim // 2
    nodes = v.grid.axis_nodes()
    w = v.grid.weight
    pref = (2.0 * np.pi) ** (-m) * w
    if dim == 2:
        z1 = nodes
        z2 = nodes
        g1 = np.exp(-(z1[:, None] - z1[None, :]) ** 2 / 4.0
                    + 0.5j * j[0, 0] * z1[:, None] * z1[None, :])
        g2 = np.exp(-(z2[:, None] - z2[None, :]) ** 2 / 4.0
                    + 0.5j * j[1, 1] * z2[:, None] * z2[None, :])
        c12 = np.exp(0.5j * j[0, 1] * z1[:, None] * z2[None, :])
        c21 = np.exp(0.5j * j[1, 0] * z2[:, None] * z1[None, :])
        vals = v.reshape()
        out = np.einsum("ac,bd,ad,bc,cd->ab", g1, g2, c12, c21, vals,
                        optimize=True)
        return Field(v.grid, pref * out.ravel())
    check_dense(v.grid.num_points, v.grid.num_points, "dense P_omega kernel")
    pts = v.grid.nodes()
    ph = pts @ j @ pts.T
    d2 = (np.sum(pts ** 2, axis=1)[:, None] + np.sum(pts ** 2, axis=1)[None, :]
          - 2.0 * pts @ pts.T)
    kern = np.exp(0.5j * ph - d2 / 4.0)
    return Field(v.grid, pref * (kern @ v.values))


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

    def __init__(self, matrix, lam, check=True, n_samples=720):
        self.matrix = np.asarray(matrix, dtype=float)
        self.lam = float(lam)
        assert self.matrix.shape[0] == self.matrix.shape[1]
        assert self.matrix.shape[0] % 2 == 0
        self.dim = self.matrix.shape[0]
        self.d = self.dim // 2
        if check:
            if abs(np.linalg.det(self.matrix) - 1.0) > 1e-10:
                raise ValueError("matrix must have unit determinant")
            report = self.certify(n_samples=n_samples)
            if not report["ok"]:
                raise ValueError("cone/expansion certificate failed: %r"
                                 % report)

    def certify(self, theta=0.1, n_samples=720, rng_seed=7):
        """Sample unit vectors and check the cone mapping and expansion
        with cone_certificate."""
        if self.dim == 2:
            ang = np.linspace(0.0, 2.0 * np.pi, n_samples, endpoint=False)
            dirs = np.stack([np.cos(ang), np.sin(ang)], axis=-1)
        else:
            rng = np.random.default_rng(rng_seed)
            dirs = rng.standard_normal((n_samples, self.dim))
            dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        return cone_certificate(self.matrix[None], dirs, self.lam, theta)


def _gaussian_pair_kernel(a_mat, p1, p2, pref, pts_out, pts_in):
    """Kernel pref exp(b^T A^{-1} b / 2 - |p|^2/4 - |p'|^2/4) with
    b = P1 p + P2 p', evaluated on two point sets."""
    po = np.asarray(pts_out, dtype=float)
    pi_ = np.asarray(pts_in, dtype=float)
    q11 = p1.T @ np.linalg.solve(a_mat, p1)
    q12 = p1.T @ np.linalg.solve(a_mat, p2)
    q22 = p2.T @ np.linalg.solve(a_mat, p2)
    e_out = 0.5 * np.einsum("ni,ij,nj->n", po, q11, po) - np.sum(po ** 2, axis=1) / 4.0
    e_in = 0.5 * np.einsum("ni,ij,nj->n", pi_, q22, pi_) - np.sum(pi_ ** 2, axis=1) / 4.0
    # build the exponent in place: one matrix of the output size
    out = po @ q12 @ pi_.T
    out += e_out[:, None]
    out += e_in[None, :]
    np.exp(out, out=out)
    out *= pref
    return out


def linear_lift_kernel(b, pts_out, pts_in):
    """Closed-form kernel of d(B) P Ltilde_B P on phase space points.

    The intermediate phase space integral of the two projection kernels is a
    Gaussian integral and is evaluated exactly, so the only discretization
    left to the caller is the quadrature over the input point set.
    """
    b = np.asarray(b, dtype=float)
    dim = b.shape[0]
    s = dagger_form_matrix(2 * dim)
    btilde = np.zeros((2 * dim, 2 * dim))
    btilde[:dim, :dim] = b
    btilde[dim:, dim:] = np.linalg.inv(b).T
    eye = np.eye(2 * dim)
    a_mat = (eye + btilde.T @ btilde) / 2.0
    p1 = (eye - 1j * s) / 2.0
    p2 = btilde.T @ (eye + 1j * s) / 2.0
    pref = det_factor(b) * (2.0 * np.pi) ** (-dim) \
        / np.sqrt(np.linalg.det(a_mat))
    return _gaussian_pair_kernel(a_mat, p1, p2, pref, pts_out, pts_in)


def _pair_points(ax):
    """(x, xi) pairs of one phase axis, ordered (center-major, freq-minor)."""
    c = np.repeat(ax.centers, ax.freqs.size)
    f = np.tile(ax.freqs, ax.centers.size)
    return np.stack([c, f], axis=-1)


def lift_linear(b, v, out_grid=None):
    """Apply the lifted linear map d(B) P Ltilde_B P to a phase field.

    For diagonal B the kernel factorizes over the (x_a, xi_a) pairs and is
    applied axis by axis; otherwise a dense kernel is assembled, which is
    only feasible for small phase grids.
    """
    b = np.asarray(b, dtype=float)
    pg = v.grid
    dim = pg.dim
    assert b.shape == (dim, dim)
    if out_grid is None:
        out_grid = pg
    if np.allclose(b, np.diag(np.diag(b))):
        d = dim
        nc = [ax.centers.size for ax in pg.axes]
        nf = [ax.freqs.size for ax in pg.axes]
        # move to pair-major layout (c1, f1, c2, f2, ...) and fold pairs
        perm = []
        for a in range(d):
            perm += [a, d + a]
        work = np.transpose(v.values, perm).reshape([nc[a] * nf[a] for a in range(d)])
        for a in range(d):
            beta = np.array([[b[a, a]]])
            k = linear_lift_kernel(beta, _pair_points(out_grid.axes[a]),
                                   _pair_points(pg.axes[a]))
            w = pg.axes[a].c_spacing * pg.axes[a].f_spacing
            work = np.tensordot(w * k, work, axes=([1], [0]))
            work = np.moveaxis(work, 0, d - 1)
        shape = []
        for a in range(d):
            shape += [out_grid.axes[a].centers.size, out_grid.axes[a].freqs.size]
        work = work.reshape(shape)
        inv = []
        for a in range(d):
            inv += [2 * a]
        for a in range(d):
            inv += [2 * a + 1]
        out_vals = np.transpose(work, inv)
        return PhaseField(out_grid, out_vals)
    check_dense(out_grid.num_points, pg.num_points,
                "dense non-diagonal lift kernel")
    k = linear_lift_kernel(b, out_grid.points(), pg.points())
    out = (k @ v.values.ravel()) * pg.weight
    return PhaseField(out_grid, out.reshape(out_grid.shape()))


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
    dim = b.shape[0]
    d = dim // 2
    j = dagger_form_matrix(dim)
    if np.linalg.norm(b.T @ j @ b - j, 2) > 1e-10:
        raise ValueError("B does not preserve omega_dagger")
    binv = np.linalg.inv(b)
    eye = np.eye(dim)
    a_mat = (eye + binv @ binv.T) / 2.0
    p1 = (eye - 1j * j) / 2.0
    p2 = binv @ (eye + 1j * j) / 2.0
    pref = np.sqrt(det_factor(b)) * (2.0 * np.pi) ** (-d) \
        / np.sqrt(np.linalg.det(a_mat))
    return _gaussian_pair_kernel(a_mat, p1, p2, pref, pts_out, pts_in)


def l0_hat(b, u):
    """Apply L0_hat to a field on a grid over R^(2d)."""
    b = np.asarray(b, dtype=float)
    assert u.grid.dim == b.shape[0]
    check_dense(u.grid.num_points, u.grid.num_points, "L0_hat kernel")
    pts = u.grid.nodes()
    k = l0_hat_kernel(b, pts, pts)
    return Field(u.grid, (k @ u.values) * u.grid.weight)
