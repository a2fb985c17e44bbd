"""Anisotropic weight functions and the partitions of unity around them.

The basic building block is a smooth step chi equal to 1 below 4/3 and 0
above 5/3, realized with the standard exp(-1/t) mollifier.  From it come
the smoothed modulus <s>, the dyadic partitions chi_n, the projective cone
functions psi_+/-, the anisotropic weight W^r and its phase space lift, the
frequency cutoffs X_0 / X_ctr / X_hyp and the integer-indexed partitions
q_k used to slice the flow frequency axis.
"""

import numpy as np

from .fbi_core import dual_phase_grid, flip_half


def smooth_step(t):
    """Smooth monotone step: 0 for t <= 0, 1 for t >= 1.

    The step is the mollifier quotient g(t) / (g(t) + g(1 - t)) with
    g(t) = exp(-1/t) for t > 0 and 0 otherwise.  Off the open band
    0 < t < 1 one of the two terms is exactly 0 and the other positive,
    so the quotient is exactly 0 or exactly 1 there, and only the band is
    evaluated, gathered and scattered by flat index; a NaN lies on
    neither side, goes through the quotient and comes out NaN.  The
    values equal the quotient on the whole line bit for bit.
    """
    t = np.asarray(t, dtype=float)
    out = np.array(t >= 1.0, dtype=float)
    band, g1, g2 = _band_terms(t)
    out.put(band, g1 / (g1 + g2))
    return out if out.ndim else out[()]


def _band_terms(t):
    """Flat indices of the band 0 < t < 1 (and of NaN) of a float array,
    with the mollifier terms g(t) and g(1 - t) there."""
    band = (~((t <= 0.0) | (t >= 1.0))).ravel().nonzero()[0]
    tb = t.take(band)
    return band, np.exp(-1.0 / tb), np.exp(-1.0 / (1.0 - tb))


def chi(s):
    """Smooth cutoff, 1 on s <= 4/3 and 0 on s >= 5/3."""
    s = np.asarray(s, dtype=float)
    return smooth_step(5.0 - 3.0 * s)


def bracket(s):
    """Smoothed modulus <s> = |s| (1 - chi(|s|)) + chi(|s|).

    Always at least 1 and equal to |s| once |s| >= 5/3.
    """
    s = np.asarray(s, dtype=float)
    a = _bracket_abs(np.abs(s, out=np.empty(s.shape)))
    return a if a.ndim else a[()]


def _bracket_abs(a):
    """bracket of a non-negative array, in place.  chi is exactly 0 from
    5/3 on, where <a> = a, so the step is evaluated only below 5/3; the
    values equal a (1 - chi(a)) + chi(a) bit for bit."""
    low = (a < 5.0 / 3.0).ravel().nonzero()[0]
    if low.size:
        al = a.take(low)
        c = chi(al)
        a.put(low, al * (1.0 - c) + c)
    return a


def chi_n(s, n):
    """Dyadic partition on the line: chi_0 = chi(|s|) and for n >= 1
    chi_n = chi(2^-n |s|) - chi(2^-n+1 |s|); the sum over n >= 0 is 1."""
    if not n >= 0:
        raise ValueError("dyadic index n must be at least 0, got %r" % (n,))
    a = np.abs(np.asarray(s, dtype=float))
    if n == 0:
        return chi(a)
    return chi(a / 2.0 ** n) - chi(a / 2.0 ** (n - 1))


# squared half norms below this count as equal to it in the cone
# function, which reads their ratio: the origin gets the symmetric value 1/2
_TINY2 = 1e-200
_LOG81 = np.log(81.0)


def _cone(plus2, minus2):
    """Argument t of the cone functions psi_plus = smooth_step(t) and
    psi_minus = smooth_step(1 - t), from the squared norms of the two
    halves of their argument: t = 1 - log_9(3 rho) with
    rho = |minus| / |plus|, evaluated as 1 - log(9 rho^2) / log(81)."""
    t = np.asarray(np.maximum(minus2, _TINY2) * 9.0
                   / np.maximum(plus2, _TINY2))
    np.log(t, out=t)
    t /= -_LOG81
    t += 1.0
    return t


def _half_squares(zeta):
    """Squared norms of the plus and minus halves of points of R^(2d)."""
    d = zeta.shape[-1] // 2
    return (np.sum(zeta[..., :d] ** 2, axis=-1),
            np.sum(zeta[..., d:] ** 2, axis=-1))


def psi_plus(zeta):
    """Cone function on the projective space of R^(2d), equal to 1 on
    C*_+(1/3) and 0 on C*_-(1/3); depends only on the direction."""
    return smooth_step(_cone(*_half_squares(np.asarray(zeta, dtype=float))))


def psi_minus(zeta):
    """1 - psi_plus, relatively accurate where psi_plus rounds near 1."""
    return smooth_step(
        1.0 - _cone(*_half_squares(np.asarray(zeta, dtype=float))))


def _w_squares(plus2, minus2, norm2, r):
    """W^r = psi_plus <n>^-r + psi_minus <n>^r of a point of R^(2d), from
    the squared norms of its halves and n^2 = norm2, overwritten.  With
    p = <n>^r, W^r is 1 / p above the band 0 < t < 1 of _cone and p
    below it, and (g(t) / p + g(1 - t) p) / (g(t) + g(1 - t)) on it."""
    t = _cone(plus2, minus2)
    band, g1, g2 = _band_terms(t)
    p = _bracket_abs(np.sqrt(norm2, out=norm2))
    np.power(p, r, out=p)
    pb = p.take(band)
    np.reciprocal(p, out=p, where=t >= 1.0)
    p.put(band, (g1 / pb + g2 * pb) / (g1 + g2))
    return p if p.ndim else p[()]


def w_aniso(zeta, r):
    """Anisotropic symbol W^r on R^(2d): decays like <|zeta|>^-r in the
    plus cone and grows like <|zeta|>^r in the minus cone."""
    plus2, minus2 = _half_squares(np.asarray(zeta, dtype=float))
    return _w_squares(plus2, minus2, np.asarray(plus2 + minus2), r)


def twisted_frequency(x_dag, xi):
    """Frequency covector moved to the origin by the affine contact group:
    (xi_0, xi_dag + xi_0 J(x_dag)).  The transversal part equals
    xi - xi_0 alpha0(x_dag) and measures distance to the contact line."""
    x_dag = np.asarray(x_dag, dtype=float)
    xi = np.asarray(xi, dtype=float)
    xi0 = xi[..., :1]
    xi_dag = xi[..., 1:]
    return np.concatenate([xi0, xi_dag + xi0 * flip_half(x_dag)], axis=-1)


def _rescaled_twist(x_dag, xi):
    """Transversal part of the twisted frequency over <|twisted|>^(1/2)."""
    tw = twisted_frequency(x_dag, xi)
    scale = bracket(np.linalg.norm(tw, axis=-1)) ** 0.5
    return tw[..., 1:] / scale[..., None]


def slice_covectors(pts, xi0):
    """Phase points (x_dag, xi_dag) of one flow slice as the pair
    (x_dag, (xi0, xi_dag)) of transversal centers and full covectors."""
    d2 = pts.shape[1] // 2
    xi = np.concatenate([np.full((pts.shape[0], 1), xi0), pts[:, d2:]],
                        axis=1)
    return pts[:, :d2], xi


def cal_w_aniso(x_dag, xi, r):
    """Phase space weight: W^2r of the rescaled transversal frequency,
    invariant under the affine contact group by construction."""
    return w_aniso(_rescaled_twist(x_dag, xi), 2 * r)


def slice_weight(pg, xi0, r):
    """cal_w_aniso on the flow slice xi0 of the phase grid pg, of shape
    pg.shape(), built from the per-axis twisted components.

    Component a of the transversal twisted frequency is
    v_a = xi_a + xi0 x_(a+d) for a < d and v_a = xi_a - xi0 x_(a-d) for
    a >= d, a small (nc, nf) array over one center and one frequency
    axis; |v_+|^2 and |v_-|^2 are summed from them by broadcasting.  The
    weight reads only these two half sums: the rescaled twist has squared
    norm |v|^2 / <|(xi0, v)|>, and the cone function reads the ratio
    |v_-|^2 / |v_+|^2, in which the rescaling cancels.  So W^2r is
    evaluated (_w_squares) once per pair of distinct half sums, on the
    outer grid of the np.unique values of each, and gathered onto the
    slice by the inverse indices.  Every step is elementwise, so the
    values equal those of the same passes over the full slice bit for
    bit, and cal_w_aniso on the points of slice_covectors(pg.points(),
    xi0) to rounding.  Where the center and frequency lattices are
    exactly antisymmetric (make_grid, dual_phase_grid, _axis_lattice),
    each (center, frequency) pair and its reversal give one square, so
    about a quarter of the slice is evaluated.

    Where every frequency lattice of pg is antisymmetric (freqs[::-1] is
    exactly -freqs, as dual_frequencies and spectra._axis_lattice build
    them), slice_weight(pg, -xi0, r) equals slice_weight(pg, xi0, r)
    reversed along the frequency axes, bit for bit: reversing frequency
    axis a and negating xi0 negate every v_a exactly, since rounding is
    symmetric under negation, and the weight reads only v_a^2.
    weighted_gram relies on this to share one weight between the slices
    at +-xi0.
    """
    d2 = pg.dim
    if d2 % 2:
        raise ValueError("the phase-space weight needs an even transversal "
                         "dimension, got %d" % d2)
    d = d2 // 2
    plus2 = minus2 = 0.0
    for a, ax in enumerate(pg.axes):
        # frequency axis a pairs with center axis b
        b = (a + d) % d2
        sign = 1.0 if a < d else -1.0
        v = ax.freqs[None, :] + sign * xi0 * pg.axes[b].centers[:, None]
        shape = [1] * (2 * d2)
        shape[b], shape[d2 + a] = v.shape
        if a < d:
            plus2 = plus2 + (v ** 2).reshape(shape)
        else:
            minus2 = minus2 + (v ** 2).reshape(shape)
    p2, p_idx = np.unique(plus2.ravel(), return_inverse=True)
    m2, m_idx = np.unique(minus2.ravel(), return_inverse=True)
    p2, m2 = p2[:, None], m2[None, :]
    # |v|^2, then |v|^2 / <|(xi0, v)|>: the squared norm of the rescaled
    # twist, whose half norms are sqrt(plus2) and sqrt(minus2) over the
    # same scale, which cancels in the cone function
    norm2 = p2 + m2
    scale2 = norm2 + xi0 ** 2
    norm2 /= _bracket_abs(np.sqrt(scale2, out=scale2))
    w = _w_squares(p2, m2, norm2, 2 * r)
    # gathered as (plus pair, minus pair) by two one-axis takes: the plus
    # pairs fill the middle axes d .. 3d - 1 of pg.shape(), the minus
    # pairs the d center axes before them and the d frequency axes after
    shape = pg.shape()
    w = w.take(m_idx, axis=1).take(p_idx, axis=0)
    w = w.reshape(p_idx.size, -1, int(np.prod(shape[3 * d:])))
    return w.transpose(1, 0, 2).reshape(shape)


def v_s(z, s, r):
    """Model weight on R^(2d) used for the lifted linear map estimates:
    W^2r(z / <(1 + |z|^2 / s)^(1/2)>^(1/2))."""
    z = np.asarray(z, dtype=float)
    if not s >= 1:
        raise ValueError("s must be at least 1, got %r" % (s,))
    nz = np.linalg.norm(z, axis=-1)
    scale = bracket(np.sqrt(1.0 + nz ** 2 / s)) ** 0.5
    return w_aniso(z / scale[..., None], 2 * r)


class WeightSpec:
    """Parameters of the anisotropic norm and the frequency cutoffs."""

    def __init__(self, r=4.0, d=1, tau=None, big_n=32.0, delta=0.1):
        self.r = float(r)
        self.d = int(d)
        # tau's default and its interval divide by r
        if not self.r > 0:
            raise ValueError("r must be positive, got %g" % self.r)
        if tau is None:
            tau = 0.5 + 1.0 / (200.0 * self.r * self.d)
        self.tau = float(tau)
        upper = 0.5 + 1.0 / (100.0 * self.r * self.d)
        if not (0.5 < self.tau < upper):
            raise ValueError("tau must lie in (1/2, 1/2 + 1/(100 r d)), "
                             "got %g" % self.tau)
        if big_n <= 0:
            raise ValueError("big_n must be positive")
        self.big_n = float(big_n)
        self.delta = float(delta)

    def as_dict(self):
        return {"r": self.r, "d": self.d, "tau": self.tau,
                "big_n": self.big_n, "delta": self.delta,
                "chi": "exp-mollifier"}  # the profile behind chi


def x_zero(x_dag, xi, spec):
    """Cutoff to frequencies of size up to about N."""
    tw = twisted_frequency(x_dag, xi)
    rad = np.sqrt(tw[..., 0] ** 2 + np.sum(tw[..., 1:] ** 2, axis=-1))
    return chi(rad / spec.big_n)


def x_central(x_dag, xi, spec):
    """Cutoff to the central cone around the contact line."""
    tw = twisted_frequency(x_dag, xi)
    trans = np.linalg.norm(tw[..., 1:], axis=-1)
    return chi(trans / bracket(tw[..., 0]) ** spec.tau)


def cutoff_triple(x_dag, xi, spec):
    """The partition X_0, X_hyp, X_ctr0 of unity on phase space."""
    x0 = x_zero(x_dag, xi, spec)
    ctr = x_central(x_dag, xi, spec)
    x_hyp = (1.0 - ctr) * (1.0 - x0)
    x_ctr0 = ctr * (1.0 - x0)
    return x0, x_hyp, x_ctr0


def psi_dyadic(zeta, m):
    """Combined dyadic/cone partition on R^(2d), indexed by an integer m:
    outward plus-cone pieces for m > 0, minus-cone for m < 0, the unit
    ball piece for m = 0.  Sums to 1 over m."""
    zeta = np.asarray(zeta, dtype=float)
    nz = np.linalg.norm(zeta, axis=-1)
    if m == 0:
        return chi_n(nz, 0)
    if m > 0:
        return chi_n(nz, m) * psi_plus(zeta)
    return chi_n(nz, -m) * psi_minus(zeta)


def psi_dyadic_members(zeta, ms):
    """[psi_dyadic(zeta, m) for m in ms], sharing |zeta| and the cones."""
    nz = np.linalg.norm(zeta, axis=-1)
    t = _cone(*_half_squares(zeta))
    cone = {0: 1.0, 1: smooth_step(t), -1: smooth_step(1.0 - t)}
    return [chi_n(nz, abs(m)) * cone[int(np.sign(m))] for m in ms]


def lp_partition(m, x_dag, xi):
    """Littlewood-Paley style partition member Psi_m on phase space: the
    dyadic/cone partition transported with the same rescaled twisted
    frequency used by the weight."""
    return psi_dyadic(_rescaled_twist(x_dag, xi), m)


def cutoffs(x_dag, xi, spec):
    """Frequency cutoff triple in the order (X_0, X_ctr, X_hyp).

    X_ctr here already carries the factor (1 - X_0), so the three values
    sum to 1 pointwise.
    """
    x0, x_hyp, x_ctr0 = cutoff_triple(x_dag, xi, spec)
    return x0, x_ctr0, x_hyp


def weighted_gram(vols, pg, wspec):
    """Gram matrix of volume fields in the W^r-weighted transform metric.

    The fields share one flow DFT (partial_fbi.flow_dft_stack, which
    checks every field as flow_dft does) and, slice by slice, one
    _slice_forward contraction and one Gram update, so the full transform
    is never materialized and one slice of coefficients exists at a time.
    The weight of a slice is slice_weight, evaluated once per pair of
    distinct half sums |v_+|^2, |v_-|^2 of the twisted components (about
    a quarter of the slice on the antisymmetric lattices of
    dual_phase_grid) and permuted into the per-axis layout of the
    contraction instead of the coefficients into the grid's.
    The slices at +-xi0, paired by their integer flow index, share one
    weight when every frequency lattice of pg is antisymmetric: the
    weight at -xi0 is then the one at xi0 reversed along the frequency
    axes (see slice_weight).  The unpaired slices, xi0 = 0 and the lowest
    frequency -n0/2, and every slice of a grid without antisymmetric
    lattices evaluate their own weight.
    """
    from .partial_fbi import _slice_forward, flow_dft_stack, per_axis_order
    hat = flow_dft_stack(vols, pg)
    flow = vols[0].flow
    xi0s = flow.freqs()
    d2 = pg.dim
    mirrored = all(np.array_equal(ax.freqs[::-1], -ax.freqs)
                   for ax in pg.axes)
    reverse = (slice(None),) * d2 + (slice(None, None, -1),) * d2
    coeff_axes, weight_axes = per_axis_order(d2, 1), per_axis_order(d2, 0)
    n = len(vols)
    gram = np.zeros((n, n), dtype=complex)

    def add_slice(s, w):
        kappa = float(bracket(xi0s[s]))
        coeffs = np.transpose(_slice_forward(hat[s], pg, kappa), coeff_axes)
        coeffs *= np.transpose(w, weight_axes)
        flat = coeffs.reshape(n, -1)
        # the upper triangle by vdot, which conjugates without copying the
        # slice as flat.conj() @ flat.T would
        for i in range(n):
            for j in range(i, n):
                gram[i, j] += np.vdot(flat[i], flat[j])

    # slice s holds the flow index s - n0/2 and slice n0 - s its negative;
    # slices 0 (index -n0/2) and n0/2 (index 0) have no partner
    n0 = flow.n_points
    for s in range(n0 // 2 + 1):
        w = slice_weight(pg, xi0s[s], wspec.r)
        add_slice(s, w)
        if 0 < s < n0 // 2:
            w = w[reverse] if mirrored else \
                slice_weight(pg, xi0s[n0 - s], wspec.r)
            add_slice(n0 - s, w)
    gram += np.triu(gram, 1).conj().T
    return flow.freq_spacing * pg.weight * gram


def aniso_norm(vol, spec):
    """Weighted L2 norm of the partial transform image of a volume field:
    the square root of its weighted_gram on the norm grid
    pg = dual_phase_grid(vol.trans, center_margin=3.5), where the weight
    is the phase space lift of W^2r at the slice frequency and the
    transversal phase point (slice_weight)."""
    pg = dual_phase_grid(vol.trans, center_margin=3.5)
    return float(np.sqrt(weighted_gram([vol], pg, spec)[0, 0].real))


def sobolev_norms(vol, r):
    """Pair of H^r norms: plain Fourier and partial-transform version.

    Returns (|<xi>^r F u|_2, |<xi>^r T u|_2).  The transversal box is
    treated as periodic for the Fourier factor, which is harmless for the
    compactly supported suite.  At r = 0 both reduce to the L2 norm.

    The weight of T u depends on the frequencies alone, so each flow
    slice enters through partial_fbi.slice_energy, the sum of its squared
    coefficients over the centers on the norm grid
    pg = dual_phase_grid(vol.trans, center_margin=3.5), contracted from
    both sides with the closed-form axis Grams; no slice coefficient and
    no axis matrix is formed.
    """
    from .partial_fbi import flow_dft, slice_energy
    vals = vol.values
    d2 = vals.ndim - 1
    h_t = vol.trans.spacing
    n_t = vals.shape[1]
    dim = d2 + 1
    uhat = np.fft.fftn(vals)
    uhat *= (2.0 * np.pi) ** (-dim / 2.0) * vol.flow.spacing * h_t ** d2
    freq_axes = [2.0 * np.pi *
                 np.fft.fftfreq(vals.shape[0], d=vol.flow.spacing)]
    freq_axes += [2.0 * np.pi * np.fft.fftfreq(n_t, d=h_t)] * d2
    mesh = np.meshgrid(*freq_axes, indexing="ij")
    xi_norm = np.sqrt(sum(mm ** 2 for mm in mesh))
    meas = (2.0 * np.pi) ** dim / (
        vals.shape[0] * vol.flow.spacing * (n_t * h_t) ** d2)
    fourier = np.sqrt(float(np.sum(
        np.abs(uhat) ** 2 * bracket(xi_norm) ** (2.0 * r))) * meas)

    pg = dual_phase_grid(vol.trans, center_margin=3.5)
    # |xi_dag|^2 on the frequency lattice, summed axis by axis in the order
    # of the columns of pg.points(), as the pointwise weight sums it
    xi_dag2 = sum(f ** 2 for f in np.ix_(*(ax.freqs for ax in pg.axes)))
    total = 0.0
    for xi0, kappa, slice_vals in flow_dft(vol, pg):
        weight2 = bracket(np.sqrt(xi0 ** 2 + xi_dag2)) ** (2.0 * r)
        total += float(np.sum(weight2 * slice_energy(slice_vals, pg, kappa)))
    pfbi = np.sqrt(total * vol.flow.freq_spacing * pg.weight)
    return float(fourier), float(pfbi)


def q_k(t, k):
    """Unit-lattice partition q_k(t) = chi(t - k + 1) - chi(t - k + 2),
    supported on (k - 2/3, k + 2/3); sums to 1 over integers k."""
    t = np.asarray(t, dtype=float)
    return chi(t - k + 1.0) - chi(t - k + 2.0)


def q_tilde(s, k):
    """q_k precomposed with the signed square root, so that the support in
    s sits between (k - 2/3)^2 and (k + 2/3)^2 for k > 0."""
    s = np.asarray(s, dtype=float)
    gamma = np.sign(s) * np.sqrt(np.abs(s))
    return q_k(gamma, k)


def q_tilde_support(k):
    """Support interval of q_tilde(., k) for k > 0."""
    if not k > 0:
        raise ValueError("q_tilde support needs k > 0, got %r" % (k,))
    return ((k - 2.0 / 3.0) ** 2, (k + 2.0 / 3.0) ** 2)


def q_tilde_separation(k_max):
    """Fit the constant c in dist(supp q~_k, supp q~_k') >= c max(k, k')
    over pairs with k' - k >= 2 and 1 <= k <= k' <= k_max."""
    best = np.inf
    for k in range(1, k_max - 1):
        for kp in range(k + 2, k_max + 1):
            gap = (kp - 2.0 / 3.0) ** 2 - (k + 2.0 / 3.0) ** 2
            best = min(best, gap / kp)
    return float(best)


def q_block(x_dag, k, indices, delta):
    """Spatial window Q_{k, indices}: product over the transversal
    coordinates of q_{indices[j]} (k^(1 - delta) x_j)."""
    x_dag = np.asarray(x_dag, dtype=float)
    scale = float(k) ** (1.0 - delta)
    out = np.ones(x_dag.shape[:-1])
    for j, kj in enumerate(indices):
        out = out * q_k(scale * x_dag[..., j], kj)
    return out
