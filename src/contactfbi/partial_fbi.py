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
kappa = 1 case, flow_slices streams it over the flow frequencies, and
every form of the lift in transfer_ops chains it through one slice
coupling (coupled_forward / coupled_adjoint for lift_apply and the
central block; lift_kernel builds its dense packets from the same axis
factors).

The off-grid packet factors of reconstruct_slice / scatter_slice are
memoized on each PhaseAxis: their callers (the central block's power
iteration, lift_apply, lift_kernel) evaluate the same mapped points at
the same few widths on every application.  The on-grid factors of
_slice_axis_matrix are rebuilt on each call: flow_slices builds each
large (kappa, axis) matrix once per volume, so a cache would only pin all
of them in memory.

Since the packet width shrinks with <xi0>, the transversal spacing must
satisfy h <= 0.7 <xi0>^(-1/2) for the largest flow frequency on the grid.
"""

import string

import numpy as np

from .aniso_norm import bracket
from .fbi_core import dual_phase_grid, normalization


class FlowGrid:
    """Periodic grid on [-L0, L0) for the flow coordinate with the dual
    integer-type frequency lattice k pi / L0."""

    def __init__(self, half_period, n_points):
        assert n_points >= 2 and n_points % 2 == 0
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
        assert self.x_dag.shape == self.xi_dag.shape
        assert np.all(np.isfinite(self.x_dag))
        assert np.isfinite(self.xi0)
        assert np.all(np.isfinite(self.xi_dag))

    @property
    def xi(self):
        return np.concatenate([[self.xi0], self.xi_dag])


def partial_packet(x_dag, xi=None):
    """Pointwise packet Phi_{x_dag, xi} on R^(2d+1) for oracle checks.

    Accepts either a PartialPacketIndex or the pair (x_dag, xi)."""
    if xi is None:
        idx = x_dag
        x_dag, xi = idx.x_dag, idx.xi
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


def _slice_axis_matrix(ax, kappa, conj):
    """The axis factor sampled at the quadrature nodes of the axis."""
    return _axis_factor(ax.centers, ax.freqs, ax.y, kappa, conj)


def _slice_forward(slice_vals, pg, kappa):
    """Forward transform of one slice sampled on the quadrature nodes of
    pg, with the quadrature weight pg.y_weight."""
    d2 = pg.dim
    work = slice_vals
    for ax in pg.axes:
        m = _slice_axis_matrix(ax, kappa, conj=True)
        # contract the leading y axis, appending (center, freq) at the end
        work = np.tensordot(work, m, axes=([0], [2]))
    # axes are now (c1, f1, c2, f2, ...) -> reorder to (c..., f...)
    perm = list(range(0, 2 * d2, 2)) + list(range(1, 2 * d2, 2))
    work = np.transpose(work, perm)
    pref = _amplitude(kappa, d2) * pg.y_weight
    return pref * work


def _slice_adjoint(slice_vals, pg, kappa):
    """Adjoint of one slice: packet superposition with the phase grid
    measure pg.weight, sampled on the quadrature nodes of pg."""
    d2 = pg.dim
    work = slice_vals
    for a, ax in enumerate(pg.axes):
        m = _slice_axis_matrix(ax, kappa, conj=False)
        # after a contractions the layout is (c_{a+1}..c_D, f_{a+1}..f_D,
        # y_1..y_a); contract the leading center axis with its frequency
        work = np.tensordot(work, m, axes=([0, d2 - a], [0, 1]))
    pref = _amplitude(kappa, d2) * pg.weight
    return pref * work


def _cached_axis_factor(ax, points, kappa, conj):
    """_axis_factor of one phase axis at off-grid points, memoized on the
    axis and returned read-only, since every caller shares it."""
    key = (points.tobytes(), float(kappa), bool(conj))
    factor = ax.point_factors.get(key)
    if factor is None:
        factor = _axis_factor(ax.centers, ax.freqs, points, kappa, conj)
        factor.flags.writeable = False
        ax.point_factors[key] = factor
    return factor


def _point_factors(pg, kappa, pts, conj):
    """Axis factors at arbitrary transversal points, with the einsum
    subscripts of the phase grid and of each factor."""
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    d2 = pg.dim
    assert pts.shape[1] == d2
    letters = string.ascii_lowercase
    cs, fs = letters[:d2], letters[d2:2 * d2]
    factors = [_cached_axis_factor(ax, pts[:, a], kappa, conj)
               for a, ax in enumerate(pg.axes)]
    subscripts = [cs[a] + fs[a] + "z" for a in range(d2)]
    return cs + fs, subscripts, factors


def reconstruct_slice(slice_vals, pg, kappa, pts):
    """Evaluate the adjoint superposition of one frequency slice at
    arbitrary transversal points.

    Same prefactor and measure as _slice_adjoint, but the evaluation
    points need not lie on the quadrature grid, so the per-axis structure
    is contracted with one factor per axis through einsum.
    """
    grid, subscripts, factors = _point_factors(pg, kappa, pts, conj=False)
    out = np.einsum(",".join([grid] + subscripts) + "->z",
                    np.asarray(slice_vals, dtype=complex), *factors,
                    optimize=True)
    return _amplitude(kappa, pg.dim) * pg.weight * out


def scatter_slice(vals, pg, kappa, pts):
    """Adjoint companion of reconstruct_slice: push values sitting at
    arbitrary transversal points back onto the phase lattice of one
    slice, with the same prefactor and measure."""
    vals = np.asarray(vals, dtype=complex).ravel()
    grid, subscripts, factors = _point_factors(pg, kappa, pts, conj=True)
    assert vals.size == factors[0].shape[2]
    out = np.einsum(",".join(["z"] + subscripts) + "->" + grid,
                    vals, *factors, optimize=True)
    return _amplitude(kappa, pg.dim) * pg.weight * out


def flow_slices(vol, pg):
    """Stream the partial transform of a volume field slice by slice.

    Checks the transversal spacing, Fourier transforms along the flow and
    yields (xi0, kappa, coefficients) for each flow frequency xi0, with
    kappa = <xi0> and the slice coefficients on the phase grid pg; only
    one slice of coefficients exists at a time.
    """
    check_transversal_spacing(vol.trans, vol.flow)
    hat = np.tensordot(vol.flow.dft_matrix(), vol.values, axes=([1], [0]))
    for xi0, slice_vals in zip(vol.flow.freqs(), hat):
        kappa = float(bracket(xi0))
        yield xi0, kappa, _slice_forward(slice_vals, pg, kappa)


def pfbi_forward(vol, pg=None, n_freq=None):
    """Apply the partial transform, materializing all flow slices."""
    if pg is None:
        pg = dual_phase_grid(vol.trans, n_freq=n_freq)
    out = np.empty((vol.flow.n_points,) + pg.shape(), dtype=complex)
    for s, (_, _, coeff) in enumerate(flow_slices(vol, pg)):
        out[s] = coeff
    return PartialPhaseField(vol.flow, pg, out)


def pfbi_adjoint(pf, trans=None):
    """Adjoint of the partial transform back to the volume grid.

    Materializes every slice; this is the reference oracle of the slice
    adjoints: the tests check pfbi_forward against it for adjointness and
    the streamed pfbi_roundtrip against pfbi_adjoint(pfbi_forward(.))."""
    pg = pf.phase
    if trans is None:
        trans = pg.space_grid()
    hat = np.empty((pf.flow.n_points,) + trans.shape(), dtype=complex)
    for s, xi0 in enumerate(pf.flow.freqs()):
        kappa = float(bracket(xi0))
        hat[s] = _slice_adjoint(pf.values[s], pg, kappa)
    inv = pf.flow.idft_matrix()
    vals = np.tensordot(inv, hat, axes=([1], [0]))
    return VolumeField(pf.flow, trans, vals)


def pfbi_roundtrip(vol, pg=None, n_freq=None, weight=None):
    """Streamed T* (W .) T application, one flow slice at a time.

    With weight None this is the resolution of identity; a callable
    weight(xi0, pg) returning an array of the phase grid shape turns it
    into a multiplier sandwiched between the transform pair.
    """
    if pg is None:
        pg = dual_phase_grid(vol.trans, n_freq=n_freq)
    out_hat = np.empty_like(vol.values)
    for s, (xi0, kappa, coeff) in enumerate(flow_slices(vol, pg)):
        if weight is not None:
            coeff = coeff * weight(xi0, pg)
        out_hat[s] = _slice_adjoint(coeff, pg, kappa)
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
