"""Partial wave packet transform on R^(2d+1).

The transform treats the flow coordinate y0 and the transversal block
y_dag differently: a Fourier transform in y0 followed, slice by slice in
the flow frequency xi0, by a transversal wave packet transform whose
packets have width <xi0>^(-1/2),

    Phi_{x_dag,xi}(y) = (<xi0>^(d/2) a_2d / (2 pi)^(1/2))
        * exp(i xi0 y0 + i xi_dag.(y_dag - x_dag/2)
              - <xi0> |y_dag - x_dag|^2 / 2).

Discretely the flow axis is periodic with an integer-type frequency grid,
which makes the Fourier factor exactly unitary, and each transversal slice
reuses the dual-lattice construction of the plain transform.  The slice
transform of width kappa^(-1/2) (_slice_forward / _slice_adjoint, and
reconstruct_slice / scatter_slice off the quadrature grid) is the one
transform core of the package: the plain FBI transform of fbi_core is its
kappa = 1 case, flow_slices streams it over the flow frequencies of
flow_dft, and every form of the lift in transfer_ops chains it through
one slice coupling (coupled_forward / coupled_adjoint for lift_apply and
the central block; lift_kernel builds its dense packets from the same
axis factors).  flow_dft_stack is where every volume field enters the
core: it refuses a volume whose transversal nodes are not the quadrature
nodes of the phase grid, with the node check of fbi_core.fbi_forward, and
transforms several fields along the flow in one product, stacked on a
trailing field axis that _slice_forward carries through the same
per-axis contraction (aniso_norm.weighted_gram); flow_dft streams it for
one field.

Each slice transform contracts one axis at a time in a fixed order,
searching no contraction path, and scales its prefactor into its smaller
side; the last and largest product of _slice_forward sums over the end
axis, y_1 or y_D, with fewer quadrature nodes (see _per_axis).

A packet is a product of one factor per axis, so a quadratic form of a
slice whose weight depends on the frequencies alone factors through the
closed-form Gram of each axis over its centers, K[f, y, y']
(_slice_gram), an (nf, ny, ny) array: slice_energy (behind
aniso_norm.sobolev_norms) and slice_roundtrip (T* T of one slice, behind
pfbi_roundtrip and fbi_core.fbi_roundtrip) contract the Grams and form
no coefficient.

Every packet factor of an axis is memoized read-only on its PhaseAxis:
the on-grid matrices of _slice_axis_matrix and the off-grid factors of
reconstruct_slice / scatter_slice in ax.factors, the Grams in ax.grams.
So no caller builds or passes a factor, the identical axes of
dual_phase_grid and the slices at +-xi0 share one build, and the memo
lives and dies with the grid.  One axis matrix holds nc nf ny values and
one Gram nf ny^2, where one slice of coefficients holds nc^D nf^D: on
the fine C9 norm grid (nc = 64, nf = 28, ny = 20, D = 2), 573 kB, 179 kB
and 51 MB.

Since the packet width shrinks with <xi0>, the transversal spacing must
satisfy h <= 0.7 <xi0>^(-1/2) for the largest flow frequency on the grid.
"""

import numpy as np

from .aniso_norm import bracket
from .fbi_core import check_nodes, normalization


class FlowGrid:
    """Periodic grid on [-L0, L0) for the flow coordinate with the dual
    integer-type frequency lattice k pi / L0."""

    def __init__(self, half_period, n_points):
        if not (n_points >= 2 and n_points % 2 == 0):
            raise ValueError("flow grid needs an even number of points, at "
                             "least 2, got %r" % (n_points,))
        self.half_period = float(half_period)
        self.n_points = int(n_points)
        self.spacing = 2.0 * self.half_period / self.n_points

    def nodes(self):
        return -self.half_period + self.spacing * np.arange(self.n_points)

    def freqs(self):
        k = np.arange(self.n_points) - self.n_points // 2
        return k * np.pi / self.half_period

    @property
    def freq_spacing(self):
        return np.pi / self.half_period

    def dft_matrix(self):
        """Forward factor: rows are (2 pi)^(-1/2) h0 exp(-i xi0 y0)."""
        y = self.nodes()
        f = self.freqs()
        return (2.0 * np.pi) ** (-0.5) * self.spacing * \
            np.exp(-1j * np.outer(f, y))

    def idft_matrix(self):
        """Adjoint factor with the frequency weight; exact inverse of the
        forward factor on this grid."""
        y = self.nodes()
        f = self.freqs()
        return (2.0 * np.pi) ** (-0.5) * self.freq_spacing * \
            np.exp(1j * np.outer(y, f))


def _check_field_shape(values, expect):
    if values.shape != expect:
        raise ValueError("shape %s does not match %s"
                         % (values.shape, expect))


class VolumeField:
    """Function on the periodic-flow times transversal-box grid, stored
    with shape (n0, n_t, ..., n_t)."""

    def __init__(self, flow, trans, values):
        values = np.asarray(values, dtype=complex)
        _check_field_shape(values, (flow.n_points,) + trans.shape())
        self.flow = flow
        self.trans = trans
        self.values = values

    def norm(self):
        w = self.flow.spacing * self.trans.weight
        return float(np.sqrt(np.sum(np.abs(self.values) ** 2) * w))


def _volume_points(flow, yd):
    """Product points (y0, y_dag) of the flow nodes and the transversal
    points yd, in flow-major order."""
    return np.concatenate([
        np.repeat(flow.nodes(), yd.shape[0])[:, None],
        np.tile(yd, (flow.n_points, 1))], axis=1)


def sample_volume(f, flow, trans):
    """Sample f on the product grid; f gets points (N, 2d+1) as (y0, y_dag)."""
    pts = _volume_points(flow, trans.nodes())
    vals = np.asarray(f(pts), dtype=complex)
    if not np.all(np.isfinite(vals)):
        raise ValueError("sampled function produced non-finite values")
    return VolumeField(flow, trans, vals.reshape((flow.n_points,) + trans.shape()))


class PartialPhaseField:
    """Transform data indexed by (xi0 slice, centers..., transversal freqs...)."""

    def __init__(self, flow, phase, values):
        values = np.asarray(values, dtype=complex)
        _check_field_shape(values, (flow.n_points,) + phase.shape())
        self.flow = flow
        self.phase = phase
        self.values = values

    def norm(self):
        w = self.flow.freq_spacing * self.phase.weight
        return float(np.sqrt(np.sum(np.abs(self.values) ** 2) * w))


class PartialPacketIndex:
    """Label (x_dag, xi0, xi_dag) of a single partial packet."""

    def __init__(self, x_dag, xi0, xi_dag):
        self.x_dag = np.asarray(x_dag, dtype=float)
        self.xi0 = float(xi0)
        self.xi_dag = np.asarray(xi_dag, dtype=float)
        if self.x_dag.shape != self.xi_dag.shape:
            raise ValueError("packet center of shape %s and frequency of "
                             "shape %s differ" % (self.x_dag.shape,
                                                  self.xi_dag.shape))
        if not np.all(np.isfinite(self.x_dag)):
            raise ValueError("non-finite packet center %r" % (self.x_dag,))
        if not np.isfinite(self.xi0):
            raise ValueError("non-finite flow frequency %r" % (self.xi0,))
        if not np.all(np.isfinite(self.xi_dag)):
            raise ValueError("non-finite transversal frequency %r"
                             % (self.xi_dag,))

    @property
    def xi(self):
        return np.concatenate([[self.xi0], self.xi_dag])


def partial_packet(x_dag, xi):
    """Pointwise packet Phi_{x_dag, xi} on R^(2d+1) for oracle checks."""
    x_dag = np.asarray(x_dag, dtype=float)
    xi = np.asarray(xi, dtype=float)
    d2 = x_dag.size
    kappa = float(bracket(xi[0]))
    pref = _amplitude(kappa, d2) / np.sqrt(2.0 * np.pi)

    def phi(y):
        y = np.asarray(y, dtype=float)
        y0 = y[..., 0]
        yd = y[..., 1:]
        phase = xi[0] * y0 + (yd - x_dag / 2.0) @ xi[1:]
        env = np.sum((yd - x_dag) ** 2, axis=-1)
        return pref * np.exp(1j * phase - kappa * env / 2.0)

    return phi


def _max_transversal_spacing(flow):
    """Coarsest transversal spacing that resolves the narrowest slice
    packet: 0.7 / sqrt(max <xi0>) over the flow frequencies."""
    return 0.7 / np.sqrt(float(np.max(bracket(flow.freqs()))))


def check_transversal_spacing(trans, flow):
    need = _max_transversal_spacing(flow)
    if trans.spacing > need:
        raise ValueError(
            "transversal spacing %.4g too coarse for flow frequencies up to "
            "<xi0> = %.4g (need <= %.4g)" % (
                trans.spacing, float(np.max(bracket(flow.freqs()))), need))


def min_transversal_points(half_width, flow):
    """Fewest points per axis, rounded up to even, of a transversal grid on
    [-half_width, half_width] that passes check_transversal_spacing."""
    n = int(np.ceil(2.0 * half_width / _max_transversal_spacing(flow)))
    return n + n % 2


def _amplitude(kappa, d2):
    """Packet prefactor <xi0>^(d/2) a_2d of a slice of width kappa^(-1/2)."""
    return kappa ** (d2 / 4.0) * normalization(d2)


def _axis_factor(centers, freqs, points, kappa, conj):
    """Packet factor of one transversal axis indexed (center, freq, point),

        exp(+-i xi (y - x/2) - kappa (y - x)^2 / 2),

    with the minus sign of the phase when conj is set."""
    x = centers[:, None, None]
    f = freqs[None, :, None]
    y = points[None, None, :]
    sgn = -1.0 if conj else 1.0
    return np.exp(sgn * 1j * f * (y - x / 2.0) - kappa * (y - x) ** 2 / 2.0)


def _memoized(store, key, build):
    """store[key], built by build() on first use and made read-only, since
    every caller shares it."""
    value = store.get(key)
    if value is None:
        value = build()
        value.flags.writeable = False
        store[key] = value
    return value


def _cached_axis_factor(ax, points, kappa, conj):
    """_axis_factor of one phase axis at the given points, memoized on the
    axis in ax.factors; the conjugate factor is np.conj of the plain one."""
    key = (points.tobytes(), float(kappa), bool(conj))
    if conj:
        def build():
            return np.conj(_cached_axis_factor(ax, points, kappa, False))
    else:
        def build():
            return _axis_factor(ax.centers, ax.freqs, points, kappa, False)
    return _memoized(ax.factors, key, build)


def _slice_axis_matrix(ax, kappa, conj):
    """The axis factor sampled at the quadrature nodes of the axis, shape
    (nc, nf, ny); memoized on the axis with the off-grid factors, so
    identical axes and the slices at +-xi0 share one build, and returned
    read-only."""
    return _cached_axis_factor(ax, ax.y, kappa, conj)


def _slice_gram(ax, kappa):
    """Gram of the on-grid packets M = _slice_axis_matrix(ax, kappa, False)
    of one axis over their centers, K[f, y, y'] = sum_c M[c, f, y]
    conj(M[c, f, y']), in closed form with no axis matrix: the phase of M
    in c cancels, so K[f] = D_f G D_f^* with D_f = diag(exp(i f y)) and
    G = g^T g, g[c, y] = exp(-kappa (y - c)^2 / 2).  Memoized in ax.grams."""
    def build():
        g = np.exp(-kappa * (ax.y[None, :] - ax.centers[:, None]) ** 2 / 2.0)
        e = np.exp(1j * np.outer(ax.freqs, ax.y))
        gram = e[:, :, None] * np.conj(e)[:, None, :]
        gram *= g.T @ g
        return gram
    return _memoized(ax.grams, float(kappa), build)


def _per_axis(vals, factors):
    """_slice_forward's contraction of the leading y axes of vals, one
    per factor, with the last axis of each per-axis array (a_i, b_i, y_i).
    Axes of vals after the y axes (a field axis) lead the result.  The
    last, largest product sums over y_D, or over y_1 if it has fewer
    nodes: from y_1 each product contracts the leading y axis and appends
    (a_i, b_i), from y_D (fields first) the factor is on the left of a
    product batched over the axes before y_i.  Either way the result is
    a transposed view (fields..., a..., b...) of a C-contiguous array in
    the per-axis layout (fields..., a_1, b_1, ...) of per_axis_order."""
    dim = len(factors)
    fields = vals.shape[dim:]
    if factors[-1].shape[2] <= factors[0].shape[2]:
        work = vals
        for m in factors:
            work = np.tensordot(work, m, axes=([0], [2]))
    else:
        # fields first, then (..., y_i, done) -> (..., a_i b_i done)
        work = np.moveaxis(vals[..., None], range(dim), range(-dim - 1, -1))
        for m in factors[::-1]:
            work = np.matmul(m.reshape(-1, m.shape[2]), work)
            work = work.reshape(*work.shape[:-2], -1)
        work = work.reshape(fields + sum((m.shape[:2] for m in factors), ()))
    return np.transpose(work, np.argsort(per_axis_order(dim, len(fields))))


def per_axis_order(dim, lead):
    """Axis order taking an array (lead axes..., a_1..a_D, b_1..b_D) on
    a phase grid of dimension D to the per-axis layout (lead axes...,
    a_1, b_1, ..., a_D, b_D) in which _per_axis contracts."""
    return [*range(lead), *(lead + a + off for a in range(dim)
                             for off in (0, dim))]


def _slice_forward(slice_vals, pg, kappa):
    """Forward transform of one slice sampled on the quadrature nodes of
    pg, with the quadrature weight pg.y_weight, through the memoized
    conjugate axis matrices of pg.

    slice_vals may carry a field axis after its transversal axes; the
    one contraction then gives the coefficients of every field, of shape
    (n_fields, nc..., nf...), in the layout of _per_axis."""
    factors = [_slice_axis_matrix(ax, kappa, True) for ax in pg.axes]
    # the prefactor scales the ny^D values, not the nc^D nf^D coefficients
    return _per_axis(slice_vals * (_amplitude(kappa, pg.dim) * pg.y_weight),
                     factors)


def _slice_adjoint(slice_vals, pg, kappa):
    """Adjoint of one slice: packet superposition with the phase grid
    measure pg.weight, sampled on the quadrature nodes of pg, through the
    memoized axis matrices of pg."""
    d2 = pg.dim
    work = slice_vals
    for a, ax in enumerate(pg.axes):
        # after a contractions the layout is (c_{a+1}..c_D, f_{a+1}..f_D,
        # y_1..y_a); contract the leading center axis with its frequency
        work = np.tensordot(work, _slice_axis_matrix(ax, kappa, False),
                            axes=([0, d2 - a], [0, 1]))
    pref = _amplitude(kappa, d2) * pg.weight
    return pref * work


def _point_factors(pg, kappa, pts, conj):
    """Axis factors (c, f, z) of pg at arbitrary transversal points z."""
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    if pts.shape[1] != pg.dim:
        raise ValueError("points of width %d on a %d-dimensional phase grid"
                         % (pts.shape[1], pg.dim))
    return [_cached_axis_factor(ax, pts[:, a], kappa, conj)
            for a, ax in enumerate(pg.axes)]


def reconstruct_slice(slice_vals, pg, kappa, pts):
    """Evaluate the adjoint superposition of one frequency slice at
    arbitrary transversal points z, with the prefactor and measure of
    _slice_adjoint: one tensordot over (c_1, f_1), then one product per
    further (c_i, f_i) batched over z, searching no path; the prefactor
    scales the output, the smaller side."""
    factors = _point_factors(pg, kappa, pts, conj=False)
    work = np.tensordot(np.transpose(slice_vals, per_axis_order(pg.dim, 0)),
                        factors[0], axes=([0, 1], [0, 1]))
    for m in factors[1:]:
        work = (work.reshape(m.shape[0] * m.shape[1], -1, m.shape[2])
                * m.reshape(-1, 1, m.shape[2])).sum(axis=0)
    return _amplitude(kappa, pg.dim) * pg.weight * work.ravel()


def scatter_slice(vals, pg, kappa, pts):
    """Adjoint companion of reconstruct_slice, with the same prefactor and
    measure: push values at transversal points z onto the phase lattice
    of one slice.  The prefactor scales the values, the smaller side; the
    factors of axes D..2 multiply in batched over z, and one tensordot
    with the first factor sums over z, searching no path."""
    factors = _point_factors(pg, kappa, pts, conj=True)
    work = _amplitude(kappa, pg.dim) * pg.weight * np.ravel(vals)
    if work.size != factors[0].shape[2]:
        raise ValueError("%d values for %d points"
                         % (work.size, factors[0].shape[2]))
    for m in factors[:0:-1]:
        work = m.reshape(m.shape[:2] + (1,) * (work.ndim - 1) + (-1,)) * work
    return np.transpose(np.tensordot(factors[0], work, axes=([2], [-1])),
                        np.argsort(per_axis_order(pg.dim, 0)))


def flow_dft_stack(vols, pg):
    """Check each volume field of vols, which share one flow grid, against
    that flow and the quadrature nodes of the phase grid pg, and Fourier
    transform the fields along the flow in one product.  Returns an array
    of shape (n0, n_t, ..., n_t, len(vols)): slice s holds every field at
    the flow frequency flow.freqs()[s], stacked on the last axis."""
    if len(vols) == 0:
        raise ValueError("the flow transform needs at least one volume "
                         "field")
    flow = vols[0].flow
    if not all(np.array_equal(v.flow.nodes(), flow.nodes()) for v in vols):
        raise ValueError("volume fields on different flow grids, of %s "
                         "points" % [v.flow.n_points for v in vols])
    for vol in vols:
        check_transversal_spacing(vol.trans, vol.flow)
        check_nodes(pg, vol.trans)
    return np.tensordot(flow.dft_matrix(),
                        np.stack([v.values for v in vols], axis=-1),
                        axes=([1], [0]))


def flow_dft(vol, pg):
    """The flow transform of flow_dft_stack for one volume field, slice by
    slice: yield (xi0, kappa, values) for each flow frequency xi0, with
    kappa = <xi0> and the slice values on the transversal grid."""
    hat = flow_dft_stack([vol], pg)
    for xi0, slice_vals in zip(vol.flow.freqs(), hat):
        yield xi0, float(bracket(xi0)), slice_vals[..., 0]


def flow_slices(vol, pg):
    """Stream the partial transform of a volume field slice by slice.

    Yields (xi0, kappa, coefficients) for each flow frequency of
    flow_dft(vol, pg), with the slice coefficients on the phase grid pg;
    only one slice of coefficients exists at a time.
    """
    for xi0, kappa, slice_vals in flow_dft(vol, pg):
        yield xi0, kappa, _slice_forward(slice_vals, pg, kappa)


def slice_energy(slice_vals, pg, kappa):
    """sum over the centers of |_slice_forward(slice_vals)|^2, of shape
    (nf_1, ..., nf_D): at f the form <v, (K_1(f_1) x ... x K_D(f_D)) v>
    of the axis Grams, contracted one axis at a time from both sides
    into S_a[y_(a+1..D), y'_(a+1..D), f_1..f_a].  The largest array
    holds nf ny^(2D - 2) values for D >= 2 (11,200 on the fine C9 grid),
    no more than a one-sided nf^D ny^D when nf >= ny."""
    grams = [_slice_gram(ax, kappa) for ax in pg.axes]
    # S_1 = sum_(y1, y1') conj(v) K_1 v, without the outer product of v
    work = np.tensordot(slice_vals, grams[0], axes=([0], [2]))
    work = np.tensordot(np.conj(slice_vals), work, axes=([0], [pg.dim]))
    for a in range(1, pg.dim):
        # contract the leading unprimed and primed axes, appending f_a
        work = np.tensordot(work, grams[a], axes=([0, pg.dim - a], [1, 2]))
    return (_amplitude(kappa, pg.dim) * pg.y_weight) ** 2 * work.real


def pfbi_forward(vol, pg):
    """Apply the partial transform, materializing all flow slices."""
    out = np.empty((vol.flow.n_points,) + pg.shape(), dtype=complex)
    for s, (_, _, coeff) in enumerate(flow_slices(vol, pg)):
        out[s] = coeff
    return PartialPhaseField(vol.flow, pg, out)


def pfbi_adjoint(pf, trans=None):
    """Adjoint of the partial transform back to the volume grid, whose
    transversal grid trans must have the phase grid's quadrature nodes.

    Materializes every slice; this is the reference oracle of the slice
    adjoints: the tests check pfbi_forward against it for adjointness and
    the streamed pfbi_roundtrip against pfbi_adjoint(pfbi_forward(.))."""
    pg = pf.phase
    if trans is None:
        trans = pg.space_grid()
    check_nodes(pg, trans)
    hat = np.empty((pf.flow.n_points,) + trans.shape(), dtype=complex)
    for s, xi0 in enumerate(pf.flow.freqs()):
        kappa = float(bracket(xi0))
        hat[s] = _slice_adjoint(pf.values[s], pg, kappa)
    inv = pf.flow.idft_matrix()
    vals = np.tensordot(inv, hat, axes=([1], [0]))
    return VolumeField(pf.flow, trans, vals)


def slice_roundtrip(slice_vals, pg, kappa):
    """T* T of one slice of width kappa^(-1/2) on the quadrature nodes of
    pg: sum_f K_a[f], an (ny, ny) matrix, applied along each axis a.  The
    Grams are the closed-form _slice_gram, so no axis matrix is formed."""
    work = slice_vals
    for ax in pg.axes:
        # contract the leading y' axis, appending y at the end
        work = np.tensordot(work, _slice_gram(ax, kappa).sum(axis=0),
                            axes=([0], [1]))
    return _amplitude(kappa, pg.dim) ** 2 * pg.y_weight * pg.weight * work


def pfbi_roundtrip(vol, pg):
    """Streamed T* T application, the resolution of identity, one flow
    slice at a time through slice_roundtrip."""
    out_hat = np.empty_like(vol.values)
    for s, (_, kappa, slice_vals) in enumerate(flow_dft(vol, pg)):
        out_hat[s] = slice_roundtrip(slice_vals, pg, kappa)
    vals = np.tensordot(vol.flow.idft_matrix(), out_hat, axes=([1], [0]))
    return VolumeField(vol.flow, vol.trans, vals)


def pcal_apply(pf):
    """The projection onto the transform range, block diagonal over xi0:
    each slice goes through the adjoint and forward of its own width."""
    pg = pf.phase
    out = np.empty_like(pf.values)
    for s, xi0 in enumerate(pf.flow.freqs()):
        kappa = float(bracket(xi0))
        mid = _slice_adjoint(pf.values[s], pg, kappa)
        out[s] = _slice_forward(mid, pg, kappa)
    return PartialPhaseField(pf.flow, pg, out)
