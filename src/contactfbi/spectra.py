"""Spectral measurements for the lifted transfer operators.

Four groups of tools live here:

* weighted norm measurements of the model operator L0_hat on a grid over
  R^(2d), with the interpolating family of weights V_s;
* spectra of the lift at several refinement levels, solved on its
  quadrature-space factor (transfer_ops.reduced_lift) instead of the
  dense lift, one batched solve over the factor's independent blocks
  (one per flow slice for an amplitude constant along the flow), or over
  per-axis factors when the lift splits axis by axis, with
  bookkeeping for which eigenvalues persist under refinement; the
  weight of the anisotropic space enters only the bound they are
  compared with, since conjugating the finite lift by it leaves the
  eigenvalues alone;
* a family of localized packets concentrated at the point of maximal
  expansion, whose Rayleigh ratios bound the operator norm from below;
* a matrix-free audit of one frequency block of the weighted lift around
  eta0 ~ k^2 against its linearized surrogate.

The refinement-stable eigenvalue counts reported by SpectrumReport are an
empirical proxy for the discrete part of the spectrum, never a claim about
the true essential spectral radius.
"""

import functools

import numpy as np

from .aniso_norm import (bracket, chi, cutoff_triple, q_block, q_tilde,
                         q_tilde_support, slice_covectors, slice_weight, v_s,
                         weighted_gram)
from .contact_geometry import ContactMap, alpha0_covector, det_on_unstable
from .fbi_core import PhaseAxis, PhaseGrid, l0_hat_kernel
from .numerics import check_dense, operator_norm
# _slice_forward is unused here, but bench/test_smoke.py checks the tracer
# rewraps this binding
from .partial_fbi import _slice_forward, partial_packet, sample_volume
from .transfer_ops import (TransferSpec, axis_lift, coupled_adjoint,
                           coupled_forward, lift_coupling, lift_route,
                           reduced_lift, transfer_apply)


class SpectrumReport:
    """The solved eigenvalues at one refinement level, sorted by modulus,
    at most refinement["rows"] (the lift's row count) of them: should
    more be given, the smallest are dropped.  structural_zeros counts the
    lift's other eigenvalues, zeros of rank, which nothing lists.

    stable_count is the number of eigenvalues outside the disk of radius
    lambda_t_bound (1 + margin); comparing it across refinement levels is
    the persistence proxy used everywhere in this module.
    """

    def __init__(self, eigenvalues, refinement, lambda_t_bound, margin=0.1):
        eigs = np.asarray(eigenvalues, dtype=complex).ravel()
        if not np.all(np.isfinite(eigs)):
            raise ValueError("non-finite eigenvalue in the spectrum report")
        self.refinement = dict(refinement)
        rows = int(self.refinement.get("rows", eigs.size))
        self.eigenvalues = eigs[np.argsort(-np.abs(eigs))[:rows]]
        self.structural_zeros = max(0, rows - eigs.size)
        self.lambda_t_bound = float(lambda_t_bound)
        self.margin = float(margin)

    @property
    def moduli(self):
        return np.abs(self.eigenvalues)

    @property
    def stable_count(self):
        cut = self.lambda_t_bound * (1.0 + self.margin)
        return int(np.sum(self.moduli > cut))

    def outliers(self):
        return self.eigenvalues[:self.stable_count]

    def to_dict(self):
        return {"moduli": self.moduli.tolist(),
                "structural_zeros": self.structural_zeros,
                "lambda_t_bound": self.lambda_t_bound,
                "margin": self.margin,
                "stable_count": self.stable_count,
                "refinement": self.refinement}

    def save_csv(self, path):
        meta = " ".join("%s=%s" % (k, self.refinement[k])
                        for k in sorted(self.refinement))
        lines = ["# %s" % meta,
                 "# bound=%.17g margin=%.17g stable_count=%d "
                 "structural_zeros=%d" % (
                     self.lambda_t_bound, self.margin, self.stable_count,
                     self.structural_zeros),
                 "index,re,im,modulus"]
        lines += ["%d,%.17g,%.17g,%.17g" % (i, z.real, z.imag, abs(z))
                  for i, z in enumerate(self.eigenvalues)]
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")


def persistent_outliers(rep_a, rep_b):
    """Pairwise comparison of the outlier sets of two reports.

    The counts must agree and the sorted outlier moduli must match within
    5% relative for the pair to count as persistent.
    """
    ca, cb = rep_a.stable_count, rep_b.stable_count
    out = {"count_a": ca, "count_b": cb, "counts_match": ca == cb,
           "max_rel_gap": 0.0}
    if ca == cb and ca > 0:
        ma = np.abs(rep_a.outliers())
        mb = np.abs(rep_b.outliers())
        gap = float(np.max(np.abs(ma - mb) / np.maximum(ma, mb)))
        out["max_rel_gap"] = gap
        out["persistent"] = gap <= 0.05
    else:
        out["persistent"] = ca == cb
    return out


def _axis_lattice(half_width, step):
    """Symmetric half-offset lattice of the given step covering the box."""
    if not (half_width > 0 and step > 0):
        raise ValueError("lattice needs a positive half width and step, got "
                         "%r and %r" % (half_width, step))
    n = max(2, int(np.ceil(2.0 * half_width / step)))
    return (np.arange(n) + 0.5 - n / 2.0) * step


def norm_grid(half_widths, spacing):
    """Points of the weighted-norm grid over R^(2d) in ij raveling, of shape
    (N, 2d): the product of one _axis_lattice per half width.  A grid
    whose dense N x N kernel is over the budget of numerics.check_dense
    is refused before any point is built.

    Every axis lattice is antisymmetric, so point N - 1 - i is exactly
    the negative of point i.
    """
    lattices = [_axis_lattice(hw, spacing) for hw in half_widths]
    n = int(np.prod([lat.size for lat in lattices]))
    check_dense(n, n, "weighted L0_hat kernel")
    mesh = np.meshgrid(*lattices, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=-1)


def weighted_norm_measure(b, s_values, r, half_widths, spacing=0.7):
    """Exact norms of L0_hat for the matrix b on the V_s-weighted grid over
    R^(2d), one per s in s_values: spacing^(2d) times the largest
    singular value of A_s = W_s K W_s^-1.

    With r = 0 the weight is identically one and the value measures the
    plain L2 norm of the model operator.  half_widths gives the box size
    per axis, so the grid may be anisotropic.

    The grid is antisymmetric under the index flip i -> N - 1 - i
    (norm_grid), L0_hat commutes with zeta -> -zeta (a linear map
    commutes with -Id, and P_0 is invariant under it) and V_s is even, so
    A_s commutes with the flip.  In the unitary basis of even and odd
    vectors (e_i +- e_(N-1-i)) / sqrt(2), i < N/2, K splits into the
    blocks K[:h, :h] +- K[:h, flipped], built once from the first
    ceil(N/2) kernel rows, and A_s into the same blocks scaled by
    w_i / w_j, w = V_s on the first ceil(N/2) points; its norm is the
    larger of their largest singular values.  When every axis has an odd
    point count, the middle point is the origin and its own mirror: it
    belongs to the even block alone, as the unit vector e_h, whose row
    there is scaled by 1/sqrt(2) and whose column by sqrt(2).  An s whose
    weight equals the one before it bit for bit reuses its norm
    (norm_weights).
    """
    bm = np.asarray(b, dtype=float)
    dim = bm.shape[0]
    if len(half_widths) != dim:
        raise ValueError("%d half widths for a %d-dimensional grid"
                         % (len(half_widths), dim))
    pts = norm_grid(half_widths, spacing)
    n = pts.shape[0]
    h, rows = n // 2, (n + 1) // 2
    weights, solved = norm_weights(pts[:rows], s_values, r)
    kern = l0_hat_kernel(bm, pts[:rows], pts)
    # columns N - 1 - j for j < h, the mirrors of the first h
    mirror = kern[:, :n - 1 - h:-1]
    odd = kern[:h, :h] - mirror[:h]
    even = kern[:, :rows]
    even[:, :h] += mirror
    if rows > h:
        even[h] /= np.sqrt(2.0)
        even[:, h] *= np.sqrt(2.0)
    norms = []
    for w, solve in zip(weights, solved):
        if solve:
            top = max(_top_singular_value(even, w),
                      _top_singular_value(odd, w[:h]))
        norms.append(float(spacing ** dim * top))
    return norms


def norm_weights(pts, s_values, r):
    """V_s on the points for each s in s_values, and one flag per s that is
    False where the weight equals the one before it bit for bit, so that
    weighted_norm_measure reuses the norm before it instead of solving."""
    weights = [np.asarray(v_s(pts, s, r), dtype=float) for s in s_values]
    for w in weights:
        if not np.all((w > 0) & np.isfinite(w)):
            raise ValueError("weight V_s is not positive and finite on the "
                             "grid")
    solved = [i == 0 or not np.array_equal(w, weights[i - 1])
              for i, w in enumerate(weights)]
    return weights, solved


def _top_singular_value(block, w):
    """Largest singular value of diag(w) block diag(w)^-1."""
    scaled = block * w[:, None]
    scaled /= w[None, :]
    return np.linalg.norm(scaled, 2)


def weight_diagonal(freqs, pg, r):
    """The phase space weight cal_w_aniso on the slices of the given flow
    frequencies, shape (len(freqs), pg.num_points), one
    aniso_norm.slice_weight per frequency (no phase point array).

    Raveled, it is the weight on the lift index set (flow-slice major); a
    single frequency gives one row that broadcasts over every slice.
    """
    return np.stack([slice_weight(pg, xi0, r).ravel() for xi0 in freqs])


def conjugated_operator(matrix, flow, pg, wspec):
    """Dense W-conjugated operator W (A mu) W^{-1} of a lift_kernel
    matrix A on flow x pg, mu = flow.freq_spacing * pg.weight.

    The conjugation is a similarity of the finite matrix, so its
    eigenvalues are those of the lift itself, and model_spectrum takes
    them from the lift's quadrature-space factor without forming either
    matrix.  Nothing in the package calls this; it stays for the
    benchmark tracer, which names it, and for the test that shows the
    two spectra agree.
    """
    w = weight_diagonal(flow.freqs(), pg, wspec.r).ravel()
    a = matrix * (flow.freq_spacing * pg.weight)
    return (w[:, None] / w[None, :]) * a


def check_solve_budget(spec, flow, trans):
    """Refuse a refinement level whose solve on the route of spec
    (transfer_ops.lift_route) does not fit the dense budget.  The block
    route holds the reduced lift, of side n0 * n_quad, twice
    (np.linalg.eigvals copies it; conservative for a split factor), the
    per-axis route twice per flow slice its n_quad eigenvalues and at
    most one width's 2d factors of n x n.  Nothing is evaluated."""
    side = flow.n_points * trans.num_points
    if lift_route(spec) == "block":
        check_dense(2 * side, side, "reduced lift matrix and its eigvals "
                    "copy")
        return
    n = trans.points_per_axis
    check_dense(2 * flow.n_points, trans.num_points + trans.dim * n * n,
                "per-axis factors and eigenvalue list")


def model_spectrum(spec, levels, bound, margin=0.1):
    """Spectra of the lift at the given refinement levels, taken from its
    quadrature-space factor.

    levels is a list of (flow, trans, pg) triples from coarse to fine;
    each yields one SpectrumReport against the same bound.  The lift
    U C V of lift_kernel has rank at most n0 * n_quad, and its nonzero
    eigenvalues are those of transfer_ops.reduced_lift, C (V U).  On the
    "block" route (transfer_ops.lift_route) its stack of independent
    blocks is solved by one batched np.linalg.eigvals.  On the
    "per-axis" route each slice block is a scalar times a Kronecker
    product of n x n factors (transfer_ops.axis_lift): one batched
    np.linalg.eigvals solves the factors, a slice's eigenvalues are its
    scalar times the products of one factor eigenvalue per axis, and no
    block is built.  The report holds at most rows (the lift's row
    count) of them: should the factor be the larger side, its smallest
    eigenvalues, zeros of rank, are the ones it drops.  refinement
    records rows, reduced_rows, the number of independent blocks,
    slice_blocks, and the route.  The weighted space fixes the bound
    (lambda_delta reads the weight exponent), not the eigenvalues:
    conjugating the finite lift by the weight is a similarity.  Each
    level is checked by check_solve_budget before anything is built.
    """
    route = lift_route(spec)
    reports = []
    for flow, trans, pg in levels:
        check_solve_budget(spec, flow, trans)
        if route == "per-axis":
            coef, factors, width = axis_lift(spec, flow, trans, pg)
            per_width = [functools.reduce(np.multiply.outer, eigs).ravel()
                         for eigs in np.linalg.eigvals(factors)]
            lam = (coef[:, None] * np.array(per_width)[width]).ravel()
            blocks = flow.n_points
        else:
            factor = reduced_lift(spec, flow, trans, pg)
            lam = np.linalg.eigvals(factor).ravel()
            blocks = factor.shape[0]
        refinement = {"n0": flow.n_points,
                      "half_period": flow.half_period,
                      "trans_n": trans.points_per_axis,
                      "trans_half_width": trans.half_width,
                      "n_centers": pg.axes[0].centers.size,
                      "n_freqs": pg.axes[0].freqs.size,
                      "rows": flow.n_points * pg.num_points,
                      "reduced_rows": lam.size, "slice_blocks": blocks,
                      "route": route}
        reports.append(SpectrumReport(lam, refinement, bound, margin))
    return reports


def expansion_argmax(spec, flow, trans):
    """Transversal grid point maximizing |g| / sqrt(det DF on E^+)."""
    gv = np.abs(spec.g_values(flow, trans.nodes()))
    roots = np.sqrt(det_on_unstable(spec.map, trans.nodes()))
    score = gv.max(axis=0) / roots
    return trans.nodes()[int(np.argmax(score))]


def _windowed_packet(x_star, xi, m):
    """Packet at (0, x_star) with frequency xi, windowed by chi(m |y - x|)."""
    phi = partial_packet(x_star, xi)
    x_full = np.concatenate([[0.0], x_star])

    def u(pts):
        pts = np.asarray(pts, dtype=float)
        dist = np.linalg.norm(pts - x_full, axis=-1)
        return phi(pts) * chi(m * dist)

    return u


def check_flow_frequencies(n_ks, flow):
    """Refuse a test frequency off the flow frequency lattice or beyond
    its Nyquist range (lower_bound_family and the lower-bound plan)."""
    fs = flow.freq_spacing
    lo, hi = float(np.min(flow.freqs())), float(np.max(flow.freqs()))
    for nk in n_ks:
        if abs(nk / fs - round(nk / fs)) > 1e-9:
            raise ValueError("frequency %r is not on the flow frequency "
                             "lattice of spacing %.4g" % (nk, fs))
        if nk > hi or nk < lo:
            raise ValueError("frequency %r exceeds the flow grid Nyquist "
                             "range [%.4g, %.4g]" % (nk, lo, hi))


def lower_bound_family(spec, flow, trans, pg, n_ks, wspec, m=4,
                       x_star=None):
    """Rayleigh ratios of localized packets at the expansion maximizer.

    Each test function is a packet at (0, x_star) with frequency
    n_k alpha0(x_star), windowed by chi(m |y - x|) and normalized in the
    weighted transform metric.  Returns the ratios together with the Gram
    matrices of the normalized family and of its image under the transfer
    operator.
    """
    check_flow_frequencies(n_ks, flow)
    if x_star is None:
        x_star = expansion_argmax(spec, flow, trans)
    x_star = np.asarray(x_star, dtype=float)
    alpha = alpha0_covector(x_star)
    vols = []
    for nk in n_ks:
        u = _windowed_packet(x_star, float(nk) * alpha, m)
        vols.append(sample_volume(u, flow, trans))
        vols.append(transfer_apply(spec, u, flow=flow, trans=trans))
    gram = weighted_gram(vols, pg, wspec)
    nk_count = len(n_ks)
    norms_phi = np.sqrt(np.abs(np.diag(gram)[0::2]))
    norms_img = np.sqrt(np.abs(np.diag(gram)[1::2]))
    if not np.all(norms_phi > 0):
        raise ValueError("degenerate test packet: a windowed packet has "
                         "zero weighted norm on the grid")
    c_k = 1.0 / norms_phi
    ratios = norms_img / norms_phi
    gram_phi = gram[0::2, 0::2] / np.outer(norms_phi, norms_phi)
    if np.all(norms_img > 0):
        gram_img = gram[1::2, 1::2] / np.outer(norms_img, norms_img)
    else:
        gram_img = np.zeros((nk_count, nk_count), dtype=complex)
    return {"x_star": x_star, "n_ks": list(n_ks), "c_k": c_k,
            "ratios": ratios, "gram_phi": gram_phi, "gram_image": gram_img,
            "min_ratio": float(np.min(ratios))}


class CentralFrame:
    """Index sets, quadrature and cutoff for one frequency block.

    Everything that the block and its linearized surrogate share is built
    once here: the eta0 lattice inside the q-tilde slab, anisotropic
    center/frequency/quadrature lattices scaled to the packet width 1/k,
    the column cutoff, and the two transfer specs.  spec is the true
    operator; linearized is its linearization at the fixed point, the
    linear map with the Jacobian bmat of F_dag at the origin (so no flow
    shift) and g frozen at y_dag = 0.
    """

    def __init__(self, spec, k, wspec, flow, c_margin=2.5, f_margin=1.0,
                 ghat_offsets=3):
        if not k >= 1:
            raise ValueError("frequency block index k must be at least 1, "
                             "got %r" % (k,))
        self.spec = spec
        self.k = int(k)
        self.wspec = wspec
        self.flow = flow
        d2 = 2 * spec.d
        self.d2 = d2
        self.kk = float(k * k)
        fs = flow.freq_spacing
        self.fs = fs
        lo, hi = q_tilde_support(k)
        t0, t1 = int(np.ceil(lo / fs)), int(np.floor(hi / fs))
        if t1 < t0:
            raise ValueError("flow frequency lattice of spacing %.4g "
                             "misses the q-tilde slab [%.4g, %.4g]"
                             % (fs, lo, hi))
        self.eta_idx = np.arange(t0, t1 + 1)
        pad = int(min(flow.n_points - 1, ghat_offsets))
        self.dmax = pad
        self.xi_idx = np.arange(t0 - pad, t1 + 1 + pad)
        self.eta0 = fs * self.eta_idx
        self.xi0 = fs * self.xi_idx
        bmat = np.asarray(spec.map.f_dag_jac(np.zeros(d2)), dtype=float)
        self.bmat = bmat
        g = spec.g
        self.linearized = TransferSpec(
            ContactMap.linear(bmat),
            lambda pts: g(np.concatenate(
                [pts[:, :1], np.zeros((pts.shape[0], d2))], axis=1)),
            name=spec.name + "-linearized")

        # lattice steps of 0.7 packet widths in centers and frequencies
        width = 1.0 / k
        c_h = 0.7 * width
        f_h = 0.7 * k
        z_half = (2.0 / 3.0) * float(k) ** (wspec.delta - 1.0) + 0.5 * width
        f_half_in = 2.0 * float(bracket(self.xi0.max())) ** wspec.tau \
            + f_margin * k
        babs = np.abs(bmat)
        binv_abs = np.abs(np.linalg.inv(bmat))
        y_half = binv_abs @ np.full(d2, z_half + c_margin * width)
        out_f_half = babs.T @ np.full(d2, f_half_in) + f_margin * k
        # the quadrature step must keep the whole out frequency window
        # inside one alias period
        y_h = np.minimum(c_h, np.pi / (1.05 * out_f_half))
        x_half = y_half + c_margin * width

        y_lattices = [_axis_lattice(y_half[j], y_h[j]) for j in range(d2)]
        in_axes = [PhaseAxis(_axis_lattice(z_half, c_h),
                             _axis_lattice(f_half_in, f_h),
                             y_lattices[j]) for j in range(d2)]
        out_axes = [PhaseAxis(_axis_lattice(x_half[j], c_h),
                              _axis_lattice(out_f_half[j], f_h),
                              y_lattices[j]) for j in range(d2)]
        self.pg_in = PhaseGrid(in_axes)
        self.pg_out = PhaseGrid(out_axes)
        # the blocks hold n_xi rows on pg_out and n_eta rows on pg_in
        check_dense(self.xi0.size, self.pg_out.num_points,
                    "central block out slices")
        check_dense(self.eta0.size, self.pg_in.num_points,
                    "central block in slices")
        self.y_shape = tuple(lat.size for lat in y_lattices)
        mesh = np.meshgrid(*y_lattices, indexing="ij")
        self.ypts = np.stack([mm.ravel() for mm in mesh], axis=-1)

        # column cutoff q~_k(eta0) Q_{k,0}(z) X_ctr0(z, eta)
        pts_in = self.pg_in.points()
        qb = np.asarray(q_block(pts_in[:, :d2], k, (0,) * d2, wspec.delta),
                        dtype=float)
        self.col_cut = np.stack([
            float(q_tilde(e0, k)) * qb
            * cutoff_triple(*slice_covectors(pts_in, e0), wspec)[2]
            for e0 in self.eta0])

    def sizes(self):
        return {"n_eta": int(self.eta0.size), "n_xi": int(self.xi0.size),
                "phase_in": int(self.pg_in.num_points),
                "phase_out": int(self.pg_out.num_points),
                "quad": int(self.ypts.shape[0])}


class CentralBlock:
    """One frequency block of the weighted lift, applied matrix free.

    primed=False gives the true block, the lift of frame.spec with packet
    widths <xi0> and <eta0> and weights at the true frequencies.
    primed=True gives the linearized surrogate, the lift of
    frame.linearized with widths and weights at the one frozen frequency
    k^2; a single frequency row broadcasts over every slice.

    The block is the lift of transfer_ops restricted to the slab.  It
    holds, built once: its slice coupling (lift_coupling on the frame's
    quadrature, within dmax offsets) and mapped points; the column weight
    col and the row weight row, with the flow measure fs / sqrt(2 pi)
    folded into row.  apply / apply_adjoint run coupled_forward /
    coupled_adjoint between the weights.  An apply costs n_eta
    reconstruct_slice plus n_xi _slice_forward calls, an adjoint n_xi
    _slice_adjoint plus n_eta scatter_slice calls; after the first
    application neither builds an axis factor, since the on-grid matrices
    of pg_out (one per distinct out width: n_xi widths for the true block,
    one for the surrogate) and the off-grid factors of the reconstructions
    and scatters are memoized on the phase axes.
    """

    def __init__(self, frame, primed):
        self.frame = frame
        self.primed = bool(primed)
        f = frame
        if primed:
            spec, eta0, xi0 = f.linearized, [f.kk], [f.kk]
        else:
            spec, eta0, xi0 = f.spec, f.eta0, f.xi0
        self.kap_i = np.broadcast_to(bracket(eta0), f.eta0.shape)
        self.kap_o = np.broadcast_to(bracket(xi0), f.xi0.shape)
        self.col = f.col_cut / weight_diagonal(eta0, f.pg_in, f.wspec.r)
        self.row = weight_diagonal(xi0, f.pg_out, f.wspec.r)
        self.row *= f.fs / np.sqrt(2.0 * np.pi)
        self.coupling, self.mapped = lift_coupling(
            spec, f.flow, f.ypts, f.xi_idx, f.eta_idx, f.eta0, f.dmax)

    def apply(self, u):
        f = self.frame
        u = np.asarray(u, dtype=complex)
        _check_shape(u, (f.eta0.size, f.pg_in.num_points))
        out = coupled_forward(u * self.col, f.pg_in, self.kap_i, self.mapped,
                              self.coupling, f.pg_out, self.kap_o)
        out = out.reshape(f.xi0.size, -1)
        out *= self.row
        return out

    def apply_adjoint(self, w):
        f = self.frame
        w = np.asarray(w, dtype=complex)
        _check_shape(w, (f.xi0.size, f.pg_out.num_points))
        out = coupled_adjoint(w * self.row, f.pg_out, self.kap_o,
                              self.coupling, f.pg_in, self.kap_i,
                              self.mapped)
        out = out.reshape(f.eta0.size, -1)
        out *= self.col
        out *= f.pg_out.y_weight / f.pg_in.weight
        return out


def _check_shape(vals, shape):
    if vals.shape != shape:
        raise ValueError("block input of shape %s, expected %s"
                         % (vals.shape, shape))


# kept as a named span because bench/tracer.py times it; the iteration is
# numerics.operator_norm
def _pair_norm(matvec, rmatvec, shape, iters=20, seed=0):
    """Power-iteration norm of a block pair, from two starts.

    The in-space quadrature weight is uniform over the index set, so it
    cancels in the Rayleigh quotient and plain vdot inner products apply.
    """
    return operator_norm(matvec, rmatvec, shape, iters=iters, restarts=2,
                         seed=seed)


def central_frame(spec, k, wspec, flow):
    """The CentralFrame of frequency block k, or None when the block
    vanishes identically: for k^2 <= N/2 the compact cutoff swallows the
    whole q-tilde slab, and above that the column cutoff may still be
    zero on every column."""
    if k * k <= wspec.big_n / 2.0:
        return None
    frame = CentralFrame(spec, k, wspec, flow)
    return frame if np.any(frame.col_cut) else None


def central_block_audit(frame, iters=20, seed=0):
    """Compare the frequency block of a live frame (central_frame) of the
    weighted lift with its linearized surrogate: the power-iteration
    norms of the surrogate and of the difference."""
    block = CentralBlock(frame, primed=False)
    surrogate = CentralBlock(frame, primed=True)
    shape = (frame.eta0.size, frame.pg_in.num_points)
    norm_p = _pair_norm(surrogate.apply, surrogate.apply_adjoint, shape,
                        iters=iters, seed=seed)
    norm_d = _pair_norm(
        lambda u: block.apply(u) - surrogate.apply(u),
        lambda w: block.apply_adjoint(w) - surrogate.apply_adjoint(w),
        shape, iters=iters, seed=seed)
    return {"norm_primed": float(norm_p), "norm_diff": float(norm_d)}
