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


def _mollifier(t):
    """exp(-1/t) for t > 0, zero otherwise; smooth at 0."""
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    pos = t > 0
    out[pos] = np.exp(-1.0 / t[pos])
    return out


def smooth_step(t):
    """Smooth monotone step: 0 for t <= 0, 1 for t >= 1."""
    t = np.asarray(t, dtype=float)
    g1 = _mollifier(t)
    g2 = _mollifier(1.0 - t)
    return g1 / (g1 + g2)


def chi(s):
    """Smooth cutoff, 1 on s <= 4/3 and 0 on s >= 5/3."""
    s = np.asarray(s, dtype=float)
    return smooth_step(5.0 - 3.0 * s)


def bracket(s):
    """Smoothed modulus <s> = |s| (1 - chi(|s|)) + chi(|s|).

    Always at least 1 and equal to |s| once |s| >= 5/3.
    """
    a = np.abs(np.asarray(s, dtype=float))
    c = chi(a)
    return a * (1.0 - c) + c


def chi_n(s, n):
    """Dyadic partition on the line: chi_0 = chi(|s|) and for n >= 1
    chi_n = chi(2^-n |s|) - chi(2^-n+1 |s|); the sum over n >= 0 is 1."""
    assert n >= 0
    a = np.abs(np.asarray(s, dtype=float))
    if n == 0:
        return chi(a)
    return chi(a / 2.0 ** n) - chi(a / 2.0 ** (n - 1))


def psi_plus(zeta):
    """Cone function on the projective space of R^(2d), equal to 1 on
    C*_+(1/3) and 0 on C*_-(1/3); depends only on the direction."""
    zeta = np.asarray(zeta, dtype=float)
    d = zeta.shape[-1] // 2
    plus = np.linalg.norm(zeta[..., :d], axis=-1)
    minus = np.linalg.norm(zeta[..., d:], axis=-1)
    # ratio 1 at zeta = 0 gives the symmetric value 1/2 there
    rho = np.where((plus == 0) & (minus == 0), 1.0,
                   minus / np.maximum(plus, 1e-300))
    u = np.log(np.maximum(3.0 * rho, 1e-300)) / np.log(9.0)
    return smooth_step(1.0 - u)


def psi_minus(zeta):
    return 1.0 - psi_plus(zeta)


def w_aniso(zeta, r, psi=None):
    """Anisotropic symbol W^r on R^(2d): decays like <|zeta|>^-r in the
    plus cone and grows like <|zeta|>^r in the minus cone."""
    zeta = np.asarray(zeta, dtype=float)
    if psi is None:
        psi = psi_plus
    pp = psi(zeta)
    br = bracket(np.linalg.norm(zeta, axis=-1))
    return pp * br ** (-r) + (1.0 - pp) * br ** r


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


def cal_w_aniso(x_dag, xi, r, psi=None):
    """Phase space weight: W^2r of the rescaled transversal frequency,
    invariant under the affine contact group by construction."""
    return w_aniso(_rescaled_twist(x_dag, xi), 2 * r, psi=psi)


def v_s(z, s, r, psi=None):
    """Model weight on R^(2d) used for the lifted linear map estimates:
    W^2r(z / <(1 + |z|^2 / s)^(1/2)>^(1/2))."""
    z = np.asarray(z, dtype=float)
    assert s >= 1
    nz = np.linalg.norm(z, axis=-1)
    scale = bracket(np.sqrt(1.0 + nz ** 2 / s)) ** 0.5
    return w_aniso(z / scale[..., None], 2 * r, psi=psi)


def w_s(x_dag, xi_dag, s, r, psi=None):
    """The same model weight in the unseparated variables, with the
    argument xi_dag + J x_dag."""
    arg = np.asarray(xi_dag, dtype=float) + flip_half(np.asarray(x_dag, dtype=float))
    return v_s(arg, s, r, psi=psi)


class WeightSpec:
    """Parameters of the anisotropic norm and the frequency cutoffs."""

    def __init__(self, r=4.0, d=1, tau=None, big_n=32.0, delta=0.1):
        self.r = float(r)
        self.d = int(d)
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


def psi_dyadic(zeta, m, psi=None):
    """Combined dyadic/cone partition on R^(2d), indexed by an integer m:
    outward plus-cone pieces for m > 0, minus-cone for m < 0, the unit
    ball piece for m = 0.  Sums to 1 over m."""
    zeta = np.asarray(zeta, dtype=float)
    if psi is None:
        psi = psi_plus
    nz = np.linalg.norm(zeta, axis=-1)
    if m == 0:
        return chi_n(nz, 0)
    if m > 0:
        return chi_n(nz, m) * psi(zeta)
    return chi_n(nz, -m) * (1.0 - psi(zeta))


def lp_partition(m, x_dag, xi, psi=None):
    """Littlewood-Paley style partition member Psi_m on phase space: the
    dyadic/cone partition transported with the same rescaled twisted
    frequency used by the weight."""
    return psi_dyadic(_rescaled_twist(x_dag, xi), m, psi=psi)


def cutoffs(x_dag, xi, spec):
    """Frequency cutoff triple in the order (X_0, X_ctr, X_hyp).

    X_ctr here already carries the factor (1 - X_0), so the three values
    sum to 1 pointwise.
    """
    x0, x_hyp, x_ctr0 = cutoff_triple(x_dag, xi, spec)
    return x0, x_ctr0, x_hyp


def _streamed_norm(vol, weight, pg, n_freq, center_margin):
    """L2 norm of weight(xi0, pts) times the partial transform of vol,
    streamed over the flow slices; pts are the phase points of pg."""
    from .partial_fbi import flow_slices
    if pg is None:
        pg = dual_phase_grid(vol.trans, n_freq=n_freq,
                             center_margin=center_margin)
    pts = pg.points()
    total = 0.0
    for xi0, _, coeff in flow_slices(vol, pg):
        total += float(np.sum(np.abs(weight(xi0, pts) * coeff.ravel()) ** 2))
    return float(np.sqrt(total * vol.flow.freq_spacing * pg.weight))


def aniso_norm(vol, spec, pg=None, n_freq=None, center_margin=3.5):
    """Weighted L2 norm of the partial transform image of a volume field.

    Streams one flow slice at a time; the weight is the phase space lift
    of W^2r evaluated at the slice frequency and the transversal phase
    point.
    """
    def weight(xi0, pts):
        return cal_w_aniso(*slice_covectors(pts, xi0), spec.r)

    return _streamed_norm(vol, weight, pg, n_freq, center_margin)


def sobolev_norms(vol, r, pg=None, n_freq=None, center_margin=3.5):
    """Pair of H^r norms: plain Fourier and partial-transform version.

    Returns (|<xi>^r F u|_2, |<xi>^r T u|_2).  The transversal box is
    treated as periodic for the Fourier factor, which is harmless for the
    compactly supported suite.  At r = 0 both reduce to the L2 norm.
    """
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

    def weight(xi0, pts):
        full = np.sqrt(xi0 ** 2 + np.sum(pts[:, d2:] ** 2, axis=-1))
        return bracket(full) ** r

    pfbi = _streamed_norm(vol, weight, pg, n_freq, center_margin)
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
    assert k > 0
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
