"""Transfer operators g (u o F) on callables and their phase space lifts.

The operator L u = g (u o F) conjugated with the partial transform pair
gives a lifted operator whose kernel couples flow frequency slices only
through the Fourier coefficients of g along the flow axis.  After the
flow sum is carried out, the (xi0, eta0) block of the kernel is a single
transversal quadrature of Gaussian factors,

    K = pref * sum_y w C(xi0, eta0, y)
        * conj(out factor)(y) * (in factor)(F_dag y),
    C(xi0, eta0, y) = ghat(xi0 - eta0, y) e^{i eta0 f(y)}.

The slice coupling C (slice_coupling) is the one place where slices
meet, and lift_coupling is the one place that builds it from a
TransferSpec on a set of quadrature points.  coupled_forward applies it
between the slice transforms of partial_fbi (reconstruct_slice per in
slice, C, _slice_forward per out slice) and coupled_adjoint is its
adjoint; lift_apply and the central block of spectra (the true block
and its linearized surrogate) both run through them, and lift_kernel
assembles the same C between dense slice packets within the dense
budget.  That lift is U C V, of rank at most n0 * n_quad, and
reduced_lift builds its quadrature-space factor C (V U), block by block
of coupled slices, which has the lift's nonzero eigenvalues and is what
spectra solves; the packet Gram V U is a product of per-axis Grams
(_axis_gram), so neither the lift nor a packet matrix is formed, and
axis_lift builds only per-axis factors when the lift splits axis by
axis (lift_route).  The module also provides a
per-entry quadrature used as an independent cross check, the
decomposition by the frequency cutoffs, and the expansion statistics
Lambda / Delta entering the norm bounds.
"""

import hashlib
import json
import string

import numpy as np

from .aniso_norm import bracket, cutoff_triple, slice_covectors
from .contact_geometry import det_on_unstable
from .numerics import check_dense
from .partial_fbi import (PartialPhaseField, VolumeField, _amplitude,
                          _axis_factor, _point_factors, _slice_adjoint,
                          _slice_axis_matrix, _slice_forward, _volume_points,
                          check_transversal_spacing, partial_packet,
                          reconstruct_slice, scatter_slice)


class TransferSpec:
    """A contact map together with a complex amplitude g.

    g is a callable taking points of shape (N, 2d+1) and returning
    complex values.
    """

    def __init__(self, cmap, g, name="transfer"):
        if not callable(g):
            raise ValueError("amplitude g must be callable, got %r" % (g,))
        self.map = cmap
        self.g = g
        self.name = str(name)

    @property
    def d(self):
        return self.map.d

    def g_values(self, flow, points):
        """g on the flow nodes times the transversal points, shape
        (n0, len(points)); raises on non-finite values."""
        vals = np.asarray(self.g(_volume_points(flow, points)),
                          dtype=complex)
        if not np.all(np.isfinite(vals)):
            raise ValueError("amplitude produced non-finite values")
        return vals.reshape(flow.n_points, -1)


class AxisProduct:
    """The amplitude g(y0, y_dag) = prod_a factors[a](y_a), each factor
    mapping one transversal axis's coordinates to values of their shape:
    constant along the flow and a product by construction (lift_route)."""

    def __init__(self, factors):
        self.factors = tuple(factors)

    def __call__(self, pts):
        vals = np.ones(len(pts), dtype=complex)
        for a, factor in enumerate(self.factors):
            vals = vals * factor(pts[:, 1 + a])
        return vals


def transfer_apply(spec, u, flow, trans):
    """Apply L u = g (u o F) on the volume grid flow x trans, with the
    callable u evaluated exactly at the mapped nodes; nothing is
    interpolated.  Non-finite values of g or u are refused."""
    yd = trans.nodes()
    uv = np.asarray(u(spec.map.apply(_volume_points(flow, yd))),
                    dtype=complex)
    if not np.all(np.isfinite(uv)):
        raise ValueError("transferred function produced non-finite values "
                         "at the mapped nodes")
    vals = (spec.g_values(flow, yd).ravel() * uv).reshape(
        (flow.n_points,) + trans.shape())
    return VolumeField(flow, trans, vals)


def flow_fourier_coeffs(g_vals, flow):
    """Fourier coefficients of g along the periodic flow axis.

    Returns an array of shape (2 n0 - 1, n_trans) indexed by the
    frequency offset m = -(n0 - 1) .. n0 - 1 at position m + n0 - 1:
    ghat[m] = (2 pi)^(-1/2) h0 sum_{y0} exp(-i m dxi y0) g(y0, .).

    When every flow row of g is bitwise equal, only offset 0 is nonzero
    and it is returned as (2 pi)^(-1/2) h0 n0 g, the others as exact
    zeros: the sum of exp(-i m dxi y0) over the n0 flow nodes vanishes
    for 0 < |m| < n0.  The lift of such an amplitude couples no two
    flow slices, and reduced_lift splits its factor slice by slice.
    """
    g_mat = np.asarray(g_vals, dtype=complex).reshape(flow.n_points, -1)
    if np.array_equal(g_mat[1:], g_mat[:-1]):
        ghat = np.zeros((2 * flow.n_points - 1, g_mat.shape[1]),
                        dtype=complex)
        ghat[flow.n_points - 1] = (2.0 * np.pi) ** (-0.5) * flow.spacing \
            * flow.n_points * g_mat[0]
        return ghat
    m = np.arange(-(flow.n_points - 1), flow.n_points)
    phase = np.exp(-1j * np.outer(m * flow.freq_spacing, flow.nodes()))
    return (2.0 * np.pi) ** (-0.5) * flow.spacing * (phase @ g_mat)


def slice_coupling(ghat, shift, out_idx, in_idx, in_freqs, band):
    """Coupling of flow frequency slices on the transversal quadrature.

    Entry (s, t, y) is ghat(out_idx[s] - in_idx[t], y) exp(i in_freqs[t]
    shift(y)) for offsets within the band and zero beyond it.  ghat is
    indexed by offset as flow_fourier_coeffs returns it; a single column
    (the amplitude data at one point) serves every quadrature point.
    """
    ghat = np.asarray(ghat, dtype=complex)
    ghat = ghat.reshape(ghat.shape[0], -1)
    n0 = (ghat.shape[0] + 1) // 2
    off = np.subtract.outer(out_idx, in_idx)
    inside = np.abs(off) <= min(band, n0 - 1)
    rows = ghat[np.where(inside, off + n0 - 1, 0)] * inside[:, :, None]
    return rows * np.exp(1j * np.multiply.outer(in_freqs, shift))


def coupled_forward(vals, pg_in, kap_in, points, coupling, pg_out, kap_out):
    """Lift in-slice coefficients through a slice coupling.

    Each in slice is reconstructed at the mapped quadrature points, the
    coupling sums them per out slice, and each sum is transformed once
    by _slice_forward at its width; returns an array of shape
    (n_out,) + pg_out.shape().
    """
    recs = np.empty(coupling.shape[1:], dtype=complex)
    for t, kap in enumerate(kap_in):
        recs[t] = reconstruct_slice(np.reshape(vals[t], pg_in.shape()),
                                    pg_in, kap, points)
    mids = np.einsum("sty,ty->sy", coupling, recs)
    y_shape = tuple(ax.y.size for ax in pg_out.axes)
    out = np.empty((len(kap_out),) + pg_out.shape(), dtype=complex)
    for s, kap in enumerate(kap_out):
        out[s] = _slice_forward(mids[s].reshape(y_shape), pg_out, kap)
    return out


def coupled_adjoint(vals, pg_out, kap_out, coupling, pg_in, kap_in, points):
    """Adjoint of coupled_forward up to the two grid measures: one
    _slice_adjoint per out slice, the conjugate coupling, then one scatter
    per in slice; returns an array of shape (n_in,) + pg_in.shape()."""
    backs = np.empty((coupling.shape[0], coupling.shape[2]), dtype=complex)
    for s, kap in enumerate(kap_out):
        backs[s] = _slice_adjoint(np.reshape(vals[s], pg_out.shape()),
                                  pg_out, kap).ravel()
    # conj(coupling) contracted over s, without a conjugated copy of it
    mids = np.einsum("sty,sy->ty", coupling, backs.conj()).conj()
    out = np.empty((len(kap_in),) + pg_in.shape(), dtype=complex)
    for t, kap in enumerate(kap_in):
        out[t] = scatter_slice(mids[t], pg_in, kap, points)
    return out


def lift_coupling(spec, flow, points, out_idx, in_idx, in_freqs, band):
    """Slice coupling of the lift of spec on the transversal quadrature
    points, and the points mapped by F_dag.

    The one place where a lift evaluates its data: g on the flow nodes
    times the points (refused when non-finite), its flow Fourier
    coefficients, the flow shift f and F_dag.  The slice indices, the in
    frequencies and the band are those of slice_coupling.
    """
    ghat = flow_fourier_coeffs(spec.g_values(flow, points), flow)
    coupling = slice_coupling(ghat, spec.map.flow_shift(points), out_idx,
                              in_idx, in_freqs, band)
    return coupling, spec.map.f_dag(points)


def _full_lift(spec, flow, trans):
    """Set-up of every full lift of spec on flow x trans: the spacing
    check, then the coupling of all slice pairs on the transversal nodes,
    the nodes mapped by F_dag and the slice widths <xi0>."""
    check_transversal_spacing(trans, flow)
    idx = np.arange(flow.n_points)
    coupling, fy = lift_coupling(spec, flow, trans.nodes(), idx, idx,
                                 flow.freqs(), flow.n_points - 1)
    return coupling, fy, bracket(flow.freqs())


def _dense_packets(pg, kappa, points):
    """One slice's conjugate packets at the quadrature nodes, shape
    (num_points, n_quad), and its packets at points, (n_quad, num_points)."""
    cs, fs, ys = (string.ascii_uppercase[i * pg.dim:(i + 1) * pg.dim]
                  for i in range(3))
    on_grid = [_slice_axis_matrix(ax, kappa, True) for ax in pg.axes]
    at_nodes = np.einsum(",".join(map("".join, zip(cs, fs, ys)))
                         + "->" + cs + fs + ys, *on_grid)
    at_points = np.einsum(",".join(c + f + "z" for c, f in zip(cs, fs))
                          + "->z" + cs + fs,
                          *_point_factors(pg, kappa, points, conj=False))
    npts = pg.num_points
    return at_nodes.reshape(npts, -1), at_points.reshape(-1, npts)


def lift_kernel(spec, flow, trans, pg):
    """The dense lifted kernel by quadrature, a complex (n0 npts, n0 npts)
    array, flow-slice major, then pg in its (centers..., freqs...)
    raveling, of plain kernel values: it acts times the in measure
    flow.freq_spacing * pg.weight.  Block (s, t) pairs the conjugate
    slice-s packets at the quadrature nodes with the slice-t packets at
    the mapped nodes through the slice coupling that lift_apply uses."""
    n0, npts = flow.n_points, pg.num_points
    check_dense(n0 * npts, n0 * npts, "lift matrix")
    coupling, fy, kaps = _full_lift(spec, flow, trans)
    amps = [_amplitude(kap, pg.dim) for kap in kaps]
    packets = [_dense_packets(pg, kap, fy) for kap in kaps]
    scale = trans.weight / np.sqrt(2.0 * np.pi)
    values = np.empty((n0 * npts, n0 * npts), dtype=complex)
    for s in range(n0):
        for t in range(n0):
            block = values[s * npts:(s + 1) * npts, t * npts:(t + 1) * npts]
            np.matmul(packets[s][0] * coupling[s, t], packets[t][1],
                      out=block)
            block *= amps[s] * amps[t] * scale
    return values


def _axis_gram(ax, kappa, points):
    """V U of one phase axis and slice width, shape (len(points), ny): its
    packets at the coordinates points against its conjugate packets at
    its quadrature nodes."""
    at_points = _axis_factor(ax.centers, ax.freqs, points, kappa, conj=False)
    return np.tensordot(at_points, _slice_axis_matrix(ax, kappa, True),
                        axes=([0, 1], [0, 1]))


def _packet_gram(pg, kappa, points):
    """V U of one slice width: its packets at points against its conjugate
    packets at the quadrature nodes, the product of one _axis_gram per
    phase axis, shape (len(points), n_quad).  Neither packet matrix is
    formed."""
    gram = np.ones((len(points), 1), dtype=complex)
    for a, ax in enumerate(pg.axes):
        axis = _axis_gram(ax, kappa, points[:, a])
        gram = (gram[:, :, None] * axis[:, None, :]).reshape(len(points), -1)
    return gram


def reduced_lift(spec, flow, trans, pg):
    """The lift's quadrature-space factor, with the lift's nonzero
    eigenvalues, as a stack of independent square blocks: (n0, n_quad,
    n_quad), one per flow slice, when the slice coupling is exactly zero
    off its diagonal, else (1, n0 n_quad, n0 n_quad).

    lift_kernel times its in measure is U C V: U holds the conjugate
    packets at the n_quad transversal nodes, C the slice coupling and V
    the packets at the mapped nodes.  By Sylvester's identity the nonzero
    eigenvalues of U C V are those of C (V U), whose block (s, t) is
    scale coupling[s, t][:, None] a_t^2 (V_t U_t), with a_t the packet
    amplitude of slice t and V_t U_t (_packet_gram) built once per
    distinct width.  The dense budget is checked first, for the whole
    factor.  It is model_spectrum's block route, and the oracle of the
    per-axis route (axis_lift).
    """
    n0, nq = flow.n_points, trans.num_points
    check_dense(n0 * nq, n0 * nq, "reduced lift matrix")
    coupling, fy, kaps = _full_lift(spec, flow, trans)
    # slices per block: all of them once any two slices couple
    size = n0 if np.any(coupling[~np.eye(n0, dtype=bool)]) else 1
    grams = {kap: _packet_gram(pg, kap, fy) for kap in np.unique(kaps)}
    scale = trans.weight / np.sqrt(2.0 * np.pi) * flow.freq_spacing \
        * pg.weight
    factor = np.empty((n0 // size, size, nq, size, nq), dtype=complex)
    for t, kap in enumerate(kaps):
        k, j = divmod(t, size)
        np.multiply(coupling[k * size:(k + 1) * size, t, :, None],
                    scale * _amplitude(kap, pg.dim) ** 2 * grams[kap],
                    out=factor[k, :, :, j])
    return factor.reshape(n0 // size, size * nq, size * nq)


def lift_route(spec):
    """"per-axis" when the lift of spec splits over the transversal axes by
    construction, else "block": F_dag is diagonal by definition
    (ContactMap.linear of a 1-D diagonal; f is then constant) and g an
    AxisProduct of one factor per axis.  Nothing is evaluated."""
    scales = getattr(spec.map, "axis_scales", None)
    if scales is not None and isinstance(spec.g, AxisProduct) \
            and len(spec.g.factors) == 2 * spec.d:
        return "per-axis"
    return "block"


def axis_lift(spec, flow, trans, pg):
    """reduced_lift of a lift that splits axis by axis (lift_route): slice
    s is coef[s] times the Kronecker product over the axes a of
    factors[width[s], a], returned as (coef, factors, width).

    With F_dag = diag(b), f = f_base and g = prod_a g_a, the coupling is
    ghat_0 prod_a g_a(y_a) exp(i xi0 f_base), ghat_0 = (2 pi)^(-1/2) h0
    n0, and the mapped nodes are b_a times each axis's nodes.  So each
    factor, of shape (n, n) for n points per axis, is diag(g_a) times
    that axis's _axis_gram, one per distinct slice width, and
    coef[s] = scale ghat_0 a_s^2 exp(i xi0 f_base) with reduced_lift's
    scale.
    """
    check_transversal_spacing(trans, flow)
    y = trans.axis_nodes()
    axis_g = np.array([np.asarray(g_a(y), dtype=complex)
                       for g_a in spec.g.factors])
    if not np.all(np.isfinite(axis_g)):
        raise ValueError("amplitude produced non-finite values")
    kaps = bracket(flow.freqs())
    widths, width = np.unique(kaps, return_inverse=True)
    factors = np.array([[g_a[:, None] * _axis_gram(ax, kap, b_a * y)
                         for ax, b_a, g_a in zip(pg.axes,
                                                 spec.map.axis_scales, axis_g)]
                        for kap in widths])
    ghat0 = (2.0 * np.pi) ** (-0.5) * flow.spacing * flow.n_points
    scale = trans.weight / np.sqrt(2.0 * np.pi) * flow.freq_spacing \
        * pg.weight
    coef = scale * ghat0 * _amplitude(kaps, pg.dim) ** 2 \
        * np.exp(1j * flow.freqs() * spec.map.f_base)
    return coef, factors, width


def lift_fingerprint(spec, flow, trans, pg):
    """Short hash of what fixes the lift_kernel matrix: the map, the
    amplitude on the flow x transversal nodes (rounded to 12 decimals, so
    a last-bit change in exp keeps the hash; not the spec's name), the
    grid sizes and the matrix shape.  Nothing is assembled."""
    rows = flow.n_points * pg.num_points
    amp = np.round(spec.g_values(flow, trans.nodes()), 12) + 0.0
    meta = {"kind": "lift-kernel", "map_family": spec.map.family,
            "map_params": {k: np.asarray(v).tolist()
                           for k, v in spec.map.params.items()},
            "amplitude": hashlib.sha256(amp.tobytes()).hexdigest(),
            "n0": flow.n_points,
            "half_period": flow.half_period,
            "trans_n": trans.points_per_axis,
            "trans_half_width": trans.half_width}
    blob = json.dumps({"meta": meta, "shape": [rows, rows]},
                      sort_keys=True, default=str)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def lift_apply(spec, flow, trans, pg_out, pf):
    """Matrix free application of the lifted kernel to a phase field.

    Equal to assembling lift_kernel and applying it, through one
    reconstruction per in slice and one transform per out slice.
    """
    if pf.flow.n_points != flow.n_points:
        raise ValueError("phase field has %d flow slices, the lift %d"
                         % (pf.flow.n_points, flow.n_points))
    coupling, fy, kaps = _full_lift(spec, flow, trans)
    out = coupled_forward(pf.values, pf.phase, kaps, fy, coupling, pg_out,
                          kaps)
    out *= flow.freq_spacing / np.sqrt(2.0 * np.pi)
    return PartialPhaseField(flow, pg_out, out)


def _phase_labels(flow, pg, flat):
    """Packet labels of flat matrix row or column indices: the centers,
    shape (len(flat), 2d), and the full frequencies (xi0, xi_dag),
    shape (len(flat), 2d + 1)."""
    s, rem = np.divmod(np.asarray(flat), pg.num_points)
    idx = np.unravel_index(rem, pg.shape())
    d2 = pg.dim
    x_dag = np.stack([ax.centers[i] for ax, i in zip(pg.axes, idx[:d2])],
                     axis=-1)
    xi = np.stack([flow.freqs()[s]] + [ax.freqs[i] for ax, i in
                                       zip(pg.axes, idx[d2:])], axis=-1)
    return x_dag, xi


def kernel_entry_direct(spec, flow, trans, pg, row, col):
    """Entry (row, col) of the lift on flow x pg, for flat lift indices,
    by full quadrature over the volume grid.

    Independent of the factored assembly: evaluates both packets
    pointwise, composes the in packet with the map and sums.  It is the
    one-entry oracle of kernel_bound_audit's batched quadrature.
    """
    pts = _volume_points(flow, trans.nodes())
    fpts = spec.map.apply(pts)
    x_dag, xi = _phase_labels(flow, pg, [row, col])
    phi_o = partial_packet(x_dag[0], xi[0])
    phi_i = partial_packet(x_dag[1], xi[1])
    g = spec.g_values(flow, trans.nodes()).ravel()
    val = np.sum(np.conj(phi_o(pts)) * g * phi_i(fpts))
    return complex(val * flow.spacing * trans.weight)


def _packet_rows(x_dag, xi, pts):
    """Partial packets of a batch of labels (rows of x_dag and xi, as
    _phase_labels gives them) at the volume points pts, shape
    (len(x_dag), len(pts)): partial_packet's formula, one row per label."""
    kappa = bracket(xi[:, 0])
    pref = _amplitude(kappa, x_dag.shape[1]) / np.sqrt(2.0 * np.pi)
    yd = pts[None, :, 1:]
    phase = np.multiply.outer(xi[:, 0], pts[:, 0]) + np.einsum(
        "kna,ka->kn", yd - x_dag[:, None, :] / 2.0, xi[:, 1:])
    env = np.sum((yd - x_dag[:, None, :]) ** 2, axis=-1)
    return pref[:, None] * np.exp(1j * phase - kappa[:, None] * env / 2.0)


def kernel_bound_audit(spec, flow, trans, pg, rho, n_per_stratum=4,
                       rng_seed=0):
    """Compare sampled |K| against the four-factor distance weight.

    For each sampled pair of packet labels the entry is computed by
    direct quadrature and divided by

        <xi0>^{d/2} <eta0>^{d/2} integral kappa^{-rho} dy,

    where kappa multiplies the flow frequency mismatch, the two packet
    center offsets in packet-width units, and the covector mismatch
    xi - t(DF) eta on the intermediate scale.  Sampling is stratified
    over the mismatch |xi0 - eta0| so all factors get exercised; the
    labels are drawn one at a time, and each stratum's n_per_stratum
    entries and bounds are evaluated together, with the volume points,
    their images and g computed once.  Returns the smallest constant
    making the bound hold on the sample, the full ratio list and the
    sampled entries.
    """
    if not rho > 0:
        raise ValueError("kernel bound exponent rho must be positive, got %r"
                         % (rho,))
    if not n_per_stratum >= 1:
        raise ValueError("kernel bound audit needs n_per_stratum >= 1, "
                         "got %r" % (n_per_stratum,))
    rng = np.random.default_rng(rng_seed)
    n0, npts = flow.n_points, pg.num_points
    dim2 = trans.dim
    yd = trans.nodes()
    pts = _volume_points(flow, yd)
    fpts = spec.map.apply(pts)
    g = spec.g_values(flow, yd).ravel()
    fy = spec.map.f_dag(yd)
    jac = spec.map.jacobian(yd)
    two_l0 = 2.0 * flow.half_period
    entries, ratios = [], []
    for dm in range(n0):
        draws = []
        for _ in range(n_per_stratum):
            j = int(rng.integers(n0 - dm))
            s, t = (j, j + dm) if rng.uniform() < 0.5 and dm > 0 \
                else (j + dm, j)
            draws.append((s * npts + int(rng.integers(npts)),
                          t * npts + int(rng.integers(npts))))
        out_flat, in_flat = np.array(draws).T
        out_x, out_xi = _phase_labels(flow, pg, out_flat)
        in_x, in_xi = _phase_labels(flow, pg, in_flat)
        value = np.sum(np.conj(_packet_rows(out_x, out_xi, pts)) * g
                       * _packet_rows(in_x, in_xi, fpts), axis=1) \
            * flow.spacing * trans.weight
        kap_o, kap_i = bracket(out_xi[:, 0]), bracket(in_xi[:, 0])
        f1 = bracket(out_xi[:, 0] - in_xi[:, 0])[:, None]
        f2 = bracket(np.linalg.norm(out_x[:, None, :] - yd, axis=-1)
                     * np.sqrt(kap_o)[:, None])
        f3 = bracket(np.linalg.norm(fy - in_x[:, None, :], axis=-1)
                     * np.sqrt(kap_i)[:, None])
        # the covector mismatch xi - t(DF) eta on the scale <eta>^(1/2)
        pushed = np.einsum("yji,kj->kyi", jac, in_xi)
        width = np.sqrt(bracket(np.linalg.norm(in_xi, axis=-1)))
        f4 = bracket(np.linalg.norm(out_xi[:, None, :] - pushed, axis=-1)
                     / width[:, None])
        integral = two_l0 * trans.weight * \
            np.sum((f1 * f2 * f3 * f4) ** (-rho), axis=1)
        bound = (kap_o * kap_i) ** (dim2 / 4.0) * integral
        entries.append(value)
        ratios.append(np.abs(value) / bound)
    ratios = np.concatenate(ratios)
    return {"rho": float(rho), "c_rho": float(np.max(ratios)),
            "ratios": ratios, "entries": np.concatenate(entries),
            "mismatch": np.repeat(np.arange(n0), n_per_stratum)}


def cutoff_diagonals(flow, pg, wspec):
    """Diagonal cutoff vectors (X0, X_ctr0, X_hyp) on the lift index set."""
    pts = pg.points()
    parts = [cutoff_triple(*slice_covectors(pts, xi0), wspec)
             for xi0 in flow.freqs()]
    x0, x_hyp, x_ctr0 = (np.concatenate(part) for part in zip(*parts))
    return x0, x_ctr0, x_hyp


def decompose(matrix, flow, pg, wspec):
    """Split a lift_kernel matrix on flow x pg into compact, central and
    hyperbolic parts: its columns times the diagonal cutoffs X0, X_ctr
    (1 - X0) and (1 - X_ctr)(1 - X0), which sum to the matrix up to
    floating point."""
    return tuple(matrix * diag[None, :]
                 for diag in cutoff_diagonals(flow, pg, wspec))


def lambda_delta(spec, flow, trans, lam, r):
    """Expansion statistics of the pair (F, g) over the grid support.

    Lambda = max |g| / sqrt(det DF on the unstable subspace),
    Delta = max sqrt(det DF on the unstable subspace), both over points
    where g is non-negligible, and the combined norm bound
    max(Lambda, sup|g| lam^-r Delta), whose constant callers fit.
    """
    ga = np.abs(spec.g_values(flow, trans.nodes()))
    peak = float(np.max(ga))
    if peak == 0.0:
        return 0.0, 0.0, 0.0
    mask = ga > 1e-12 * peak
    roots = np.sqrt(det_on_unstable(spec.map, trans.nodes()))
    if not np.all(roots > 0):
        raise ValueError("degenerate unstable Jacobian: its determinant "
                         "vanishes at a transversal node")
    lam_fg = float(np.max((ga / roots[None, :])[mask]))
    delta_fg = float(np.max(roots[mask.any(axis=0)]))
    bound = max(lam_fg, peak * float(lam) ** (-float(r)) * delta_fg)
    return lam_fg, delta_fg, bound


def lambda_global(g_sup, det_unstable):
    """The ratio sup|g| / sqrt(unstable determinant) for constant data."""
    return float(g_sup) / np.sqrt(float(det_unstable))
