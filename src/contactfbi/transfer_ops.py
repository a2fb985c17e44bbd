"""Transfer operators g (u o F) and their phase space lifts.

The operator L u = g (u o F) conjugated with the partial transform pair
gives a lifted operator whose kernel couples flow frequency slices only
through the Fourier coefficients of g along the flow axis.  After the
flow sum is carried out, the (xi0, eta0) block of the kernel is a single
transversal quadrature of Gaussian factors,

    K = pref * sum_y w ghat(xi0 - eta0, y) e^{i eta0 f(y)}
        * conj(out factor)(y) * (in factor)(F_dag y),

which we assemble as a thin matrix product per block.  The module
provides dense assembly within the dense budget, a matrix free application
for grids too large to materialize, a per-entry quadrature used as an
independent cross check, the decomposition by the frequency cutoffs,
and the expansion statistics Lambda / Delta entering the norm bounds.
"""

import hashlib
import json

import numpy as np
from scipy.interpolate import RegularGridInterpolator

from .aniso_norm import bracket, cutoffs, slice_covectors
from .contact_geometry import det_on_unstable
from .fbi_core import PhaseAxis, PhaseGrid, normalization
from .numerics import check_dense
from .partial_fbi import (FlowGrid, PartialPacketIndex, PartialPhaseField,
                          VolumeField, _slice_forward, _volume_points,
                          check_transversal_spacing, partial_packet,
                          reconstruct_slice)


class TransferSpec:
    """A contact map together with a complex amplitude g.

    g is a callable taking points of shape (N, 2d+1) and returning
    complex values.  For the lift to be meaningful on a finite grid, g
    should be negligible near the transversal boundary; support_check
    verifies this on a concrete grid.
    """

    def __init__(self, cmap, g, name="transfer"):
        assert callable(g)
        self.map = cmap
        self.g = g
        self.name = str(name)

    @property
    def d(self):
        return self.map.d

    def g_values(self, flow, trans):
        vals = np.asarray(self.g(_volume_points(flow, trans.nodes())),
                          dtype=complex)
        if not np.all(np.isfinite(vals)):
            raise ValueError("amplitude produced non-finite values")
        return vals.reshape((flow.n_points,) + trans.shape())

    def support_check(self, flow, trans, tol=1e-8):
        """Raise if g carries significant mass on the transversal border."""
        vals = self.g_values(flow, trans)
        peak = float(np.max(np.abs(vals)))
        if peak == 0.0:
            return
        border = np.zeros(trans.shape(), dtype=bool)
        for a in range(trans.dim):
            idx = [slice(None)] * trans.dim
            for edge in (0, -1):
                idx[a] = edge
                border[tuple(idx)] = True
        worst = float(np.max(np.abs(vals[:, border])))
        if worst > tol * peak:
            raise ValueError(
                "amplitude is %.3g of its peak at the box border; "
                "enlarge the box or shrink the support" % (worst / peak))


def _interpolate_volume(u, pts, method):
    """Evaluate a grid function at arbitrary points, periodic in flow.

    Points outside the transversal box come back as NaN for the caller
    to handle.
    """
    flow, trans = u.flow, u.trans
    y0 = np.append(flow.nodes(), flow.half_period)
    vals = np.concatenate([u.values, u.values[:1]], axis=0)
    axes = (y0,) + (trans.axis_nodes(),) * trans.dim
    q = np.array(pts, dtype=float)
    period = 2.0 * flow.half_period
    q[:, 0] = np.mod(q[:, 0] + flow.half_period, period) - flow.half_period
    re = RegularGridInterpolator(axes, vals.real, method=method,
                                 bounds_error=False, fill_value=np.nan)
    im = RegularGridInterpolator(axes, vals.imag, method=method,
                                 bounds_error=False, fill_value=np.nan)
    return re(q) + 1j * im(q)


def transfer_apply(spec, u, flow=None, trans=None, method="linear",
                   support_tol=1e-8):
    """Apply L u = g (u o F) on the volume grid.

    u may be a VolumeField (interpolated at the image points, error when
    the map escapes the box where |g| exceeds support_tol of its peak)
    or a plain callable evaluated exactly at the image points.
    """
    if isinstance(u, VolumeField):
        flow = u.flow if flow is None else flow
        trans = u.trans if trans is None else trans
    assert flow is not None and trans is not None
    pts = _volume_points(flow, trans.nodes())
    fpts = spec.map.apply(pts)
    gv = np.asarray(spec.g(pts), dtype=complex)
    if isinstance(u, VolumeField):
        uv = _interpolate_volume(u, fpts, method)
        bad = ~np.isfinite(uv)
        gmax = max(float(np.max(np.abs(gv))), 1e-300)
        if np.any(bad & (np.abs(gv) > support_tol * gmax)):
            raise ValueError(
                "the map leaves the grid inside the support of g")
        uv[bad] = 0.0
    else:
        uv = np.asarray(u(fpts), dtype=complex)
    vals = (gv * uv).reshape((flow.n_points,) + trans.shape())
    return VolumeField(flow, trans, vals)


def flow_fourier_coeffs(g_vals, flow):
    """Fourier coefficients of g along the periodic flow axis.

    Returns an array of shape (2 n0 - 1, n_trans) indexed by the
    frequency offset m = -(n0 - 1) .. n0 - 1 at position m + n0 - 1:
    ghat[m] = (2 pi)^(-1/2) h0 sum_{y0} exp(-i m dxi y0) g(y0, .).
    """
    g_mat = np.asarray(g_vals, dtype=complex).reshape(flow.n_points, -1)
    m = np.arange(-(flow.n_points - 1), flow.n_points)
    phase = np.exp(-1j * np.outer(m * flow.freq_spacing, flow.nodes()))
    return (2.0 * np.pi) ** (-0.5) * flow.spacing * (phase @ g_mat)


def _block_prefactor(kap_o, kap_i, dim2):
    a = normalization(dim2)
    return (kap_o * kap_i) ** (dim2 / 4.0) * a * a / np.sqrt(2.0 * np.pi)


class OperatorMatrix:
    """Dense lift matrix between partial phase grids.

    Row/column layout is flow-slice major, then the phase grid in its
    native (centers..., freqs...) raveling.  Application multiplies by
    the in-grid measure, so the matrix itself holds plain kernel values.
    """

    def __init__(self, values, flow, phase_out, phase_in, meta=None):
        values = np.asarray(values, dtype=complex)
        n0 = flow.n_points
        assert values.shape == (n0 * phase_out.num_points,
                                n0 * phase_in.num_points)
        self.values = values
        self.flow = flow
        self.phase_out = phase_out
        self.phase_in = phase_in
        self.meta = dict(meta or {})

    @property
    def in_measure(self):
        return self.flow.freq_spacing * self.phase_in.weight

    def apply(self, pf):
        expect = (self.flow.n_points,) + self.phase_in.shape()
        assert pf.values.shape == expect
        out = self.values @ pf.values.ravel() * self.in_measure
        shape = (self.flow.n_points,) + self.phase_out.shape()
        return PartialPhaseField(self.flow, self.phase_out,
                                 out.reshape(shape))

    def scaled(self, column_diagonal, meta_update=None):
        """New matrix with columns multiplied by a diagonal vector."""
        diag = np.asarray(column_diagonal)
        assert diag.shape == (self.values.shape[1],)
        meta = dict(self.meta)
        meta.update(meta_update or {})
        return OperatorMatrix(self.values * diag[None, :], self.flow,
                              self.phase_out, self.phase_in, meta)

    def fingerprint(self):
        blob = json.dumps({"meta": self.meta,
                           "shape": list(self.values.shape)},
                          sort_keys=True, default=str)
        return hashlib.sha256(blob.encode()).hexdigest()[:16]

    def singular_values(self):
        return np.linalg.svd(self.values, compute_uv=False)

    def _grid_record(self, pg):
        return [{"centers": ax.centers.tolist(),
                 "freqs": ax.freqs.tolist(),
                 "y": ax.y.tolist()} for ax in pg.axes]

    def save(self, path):
        """Binary array at path.npy plus a sidecar record at path.json."""
        base = str(path)
        np.save(base + ".npy", self.values)
        record = {
            "meta": self.meta,
            "fingerprint": self.fingerprint(),
            "flow": {"half_period": self.flow.half_period,
                     "n_points": self.flow.n_points},
            "phase_out": self._grid_record(self.phase_out),
            "phase_in": self._grid_record(self.phase_in),
        }
        with open(base + ".json", "w") as fh:
            json.dump(record, fh)

    @classmethod
    def load(cls, path):
        base = str(path)
        values = np.load(base + ".npy")
        with open(base + ".json") as fh:
            record = json.load(fh)
        flow = FlowGrid(record["flow"]["half_period"],
                        record["flow"]["n_points"])

        def build(axes):
            return PhaseGrid([PhaseAxis(np.array(a["centers"]),
                                        np.array(a["freqs"]),
                                        np.array(a["y"])) for a in axes])

        return cls(values, flow, build(record["phase_out"]),
                   build(record["phase_in"]), record.get("meta"))

    def export_singular_values(self, path):
        sig = self.singular_values()
        lines = ["# fingerprint=%s rows=%d cols=%d" % (
            self.fingerprint(), self.values.shape[0], self.values.shape[1]),
            "index,sigma"]
        lines += ["%d,%.17g" % (i, s) for i, s in enumerate(sig)]
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        return sig


def lift_kernel(spec, flow, trans, pg_out, pg_in=None):
    """Assemble the dense lifted kernel matrix by quadrature."""
    if pg_in is None:
        pg_in = pg_out
    check_transversal_spacing(trans, flow)
    n0 = flow.n_points
    rows = n0 * pg_out.num_points
    cols = n0 * pg_in.num_points
    check_dense(rows, cols, "lift matrix")
    dim2 = trans.dim
    yd = trans.nodes()
    fy = spec.map.f_dag(yd)
    fv = spec.map.flow_shift(yd)
    ghat = flow_fourier_coeffs(spec.g_values(flow, trans), flow)
    freqs = flow.freqs()
    po = pg_out.points()
    xs, fo = po[:, :dim2], po[:, dim2:]
    pi_ = pg_in.points()
    zs, fi = pi_[:, :dim2], pi_[:, dim2:]

    # the distance and phase matrices do not depend on the slice; only
    # the width kappa does
    d2i = (np.sum(fy ** 2, 1)[:, None] + np.sum(zs ** 2, 1)[None, :]
           - 2.0 * fy @ zs.T)
    pha_i = fy @ fi.T - 0.5 * np.sum(fi * zs, 1)[None, :]
    d2o = (np.sum(xs ** 2, 1)[:, None] + np.sum(yd ** 2, 1)[None, :]
           - 2.0 * xs @ yd.T)
    pha_o = fo @ yd.T - 0.5 * np.sum(fo * xs, 1)[:, None]
    kaps = [float(bracket(f)) for f in freqs]
    b_mats = [np.exp(1j * pha_i - 0.5 * kap_i * d2i) for kap_i in kaps]
    shifts = [np.exp(1j * f * fv) for f in freqs]

    values = np.empty((rows, cols), dtype=complex)
    npo, npi = pg_out.num_points, pg_in.num_points
    for s in range(n0):
        a_mat = np.exp(-1j * pha_o - 0.5 * kaps[s] * d2o)
        for t in range(n0):
            mid = trans.weight * ghat[s - t + n0 - 1] * shifts[t]
            block = _block_prefactor(kaps[s], kaps[t], dim2) * \
                ((a_mat * mid[None, :]) @ b_mats[t])
            values[s * npo:(s + 1) * npo, t * npi:(t + 1) * npi] = block
    meta = {"kind": "lift-kernel", "map_family": spec.map.family,
            "map_params": {k: np.asarray(v).tolist()
                           for k, v in spec.map.params.items()},
            "amplitude": spec.name, "n0": n0,
            "half_period": flow.half_period,
            "trans_n": trans.points_per_axis,
            "trans_half_width": trans.half_width}
    return OperatorMatrix(values, flow, pg_out, pg_in, meta)


def lift_apply(spec, flow, trans, pg_out, pf):
    """Matrix free application of the lifted kernel to a phase field.

    Identical to assembling lift_kernel and applying it, but the kernel
    is contracted block by block so only thin factors are materialized.
    """
    check_transversal_spacing(trans, flow)
    n0 = flow.n_points
    assert pf.flow.n_points == n0
    yd = trans.nodes()
    fy = spec.map.f_dag(yd)
    fv = spec.map.flow_shift(yd)
    ghat = flow_fourier_coeffs(spec.g_values(flow, trans), flow)
    freqs = flow.freqs()
    scale = flow.freq_spacing / np.sqrt(2.0 * np.pi)
    kaps = [float(bracket(f)) for f in freqs]
    recs = np.stack([reconstruct_slice(pf.values[t], pf.phase, kaps[t], fy)
                     * np.exp(1j * freqs[t] * fv) for t in range(n0)])
    # the transform is linear: sum the ghat-weighted in slices on the
    # quadrature points, then transform once per out slice
    out = np.empty((n0,) + pg_out.shape(), dtype=complex)
    for s in range(n0):
        mid = np.sum(ghat[s + n0 - 1 - np.arange(n0)] * recs, axis=0)
        out[s] = _slice_forward(mid.reshape(trans.shape()), pg_out, kaps[s])
    out *= scale
    return PartialPhaseField(flow, pg_out, out)


def phase_index(flow, pg, flat):
    """Packet label of a flat matrix row or column index."""
    s, rem = divmod(int(flat), pg.num_points)
    pt = pg.points()[rem]
    d2 = pg.dim
    return PartialPacketIndex(pt[:d2], flow.freqs()[s], pt[d2:])


def kernel_entry_direct(spec, flow, trans, out_index, in_index):
    """One kernel entry by full quadrature over the volume grid.

    Independent of the factored assembly: evaluates both packets
    pointwise, composes the in packet with the map and sums.
    """
    pts = _volume_points(flow, trans.nodes())
    fpts = spec.map.apply(pts)
    phi_o = partial_packet(out_index)
    phi_i = partial_packet(in_index)
    g = np.asarray(spec.g(pts), dtype=complex)
    val = np.sum(np.conj(phi_o(pts)) * g * phi_i(fpts))
    return complex(val * flow.spacing * trans.weight)


class LiftKernelEntry:
    """A single sampled kernel value with its packet labels."""

    def __init__(self, out_index, in_index, value):
        self.out_index = out_index
        self.in_index = in_index
        self.value = complex(value)
        assert np.isfinite(self.value.real) and np.isfinite(self.value.imag)


def kernel_bound_audit(spec, flow, trans, pg, rho, n_per_stratum=4,
                       rng_seed=0):
    """Compare sampled |K| against the four-factor distance weight.

    For each sampled pair of packet labels the entry is computed by
    direct quadrature and divided by

        <xi0>^{d/2} <eta0>^{d/2} integral kappa^{-rho} dy,

    where kappa multiplies the flow frequency mismatch, the two packet
    center offsets in packet-width units, and the covector mismatch
    xi - t(DF) eta on the intermediate scale.  Sampling is stratified
    over the mismatch |xi0 - eta0| so all factors get exercised.
    Returns the smallest constant making the bound hold on the sample
    and the full ratio list.
    """
    assert rho > 0
    rng = np.random.default_rng(rng_seed)
    n0 = flow.n_points
    freqs = flow.freqs()
    dim2 = trans.dim
    yd = trans.nodes()
    fy = spec.map.f_dag(yd)
    jacs = np.stack([spec.map.jacobian(p).T for p in yd])
    two_l0 = 2.0 * flow.half_period
    entries, ratios, mismatch = [], [], []
    for dm in range(n0):
        pairs = [(s, s - dm) for s in range(dm, n0)]
        for _ in range(n_per_stratum):
            s, t = pairs[rng.integers(len(pairs))]
            if rng.uniform() < 0.5 and dm > 0:
                s, t = t, s
            io = int(rng.integers(pg.num_points))
            ii = int(rng.integers(pg.num_points))
            out_idx = phase_index(flow, pg, s * pg.num_points + io)
            in_idx = phase_index(flow, pg, t * pg.num_points + ii)
            value = kernel_entry_direct(spec, flow, trans, out_idx, in_idx)
            kap_o = float(bracket(freqs[s]))
            kap_i = float(bracket(freqs[t]))
            f1 = float(bracket(freqs[s] - freqs[t]))
            f2 = bracket(np.linalg.norm(out_idx.x_dag - yd, axis=1)
                         * np.sqrt(kap_o))
            f3 = bracket(np.linalg.norm(fy - in_idx.x_dag, axis=1)
                         * np.sqrt(kap_i))
            pushed = jacs @ in_idx.xi
            f4 = bracket(np.linalg.norm(out_idx.xi[None, :] - pushed, axis=1)
                         / np.sqrt(bracket(np.linalg.norm(in_idx.xi))))
            integral = two_l0 * trans.weight * \
                np.sum((f1 * f2 * f3 * f4) ** (-rho))
            bound = (kap_o * kap_i) ** (dim2 / 4.0) * integral
            entries.append(LiftKernelEntry(out_idx, in_idx, value))
            ratios.append(abs(value) / bound)
            mismatch.append(dm)
    ratios = np.array(ratios)
    return {"rho": float(rho), "c_rho": float(np.max(ratios)),
            "ratios": ratios, "mismatch": np.array(mismatch),
            "entries": entries}


def cutoff_diagonals(flow, pg, wspec):
    """Diagonal cutoff vectors (X0, X_ctr0, X_hyp) on the lift index set."""
    pts = pg.points()
    parts = [cutoffs(*slice_covectors(pts, xi0), wspec)
             for xi0 in flow.freqs()]
    return tuple(np.concatenate(part) for part in zip(*parts))


def decompose(matrix, wspec):
    """Split a lift matrix into compact, central and hyperbolic parts.

    The parts are the matrix right-multiplied by the diagonal cutoffs
    X0, X_ctr (1 - X0) and (1 - X_ctr)(1 - X0); their sum recovers the
    matrix up to floating point.
    """
    x0, ctr, hyp = cutoff_diagonals(matrix.flow, matrix.phase_in, wspec)
    cpt = matrix.scaled(x0, {"part": "cpt"})
    mid = matrix.scaled(ctr, {"part": "ctr"})
    tail = matrix.scaled(hyp, {"part": "hyp"})
    return cpt, mid, tail


def lambda_delta(spec, flow, trans, lam, r, c0=1.0):
    """Expansion statistics of the pair (F, g) over the grid support.

    Lambda = max |g| / sqrt(det DF on the unstable subspace),
    Delta = max sqrt(det DF on the unstable subspace), both over points
    where g is non-negligible, and the combined norm bound
    c0 max(Lambda, sup|g| lam^-r Delta).
    """
    gv = spec.g_values(flow, trans)
    ga = np.abs(gv).reshape(flow.n_points, -1)
    peak = float(np.max(ga))
    if peak == 0.0:
        return 0.0, 0.0, 0.0
    mask = ga > 1e-12 * peak
    roots = np.sqrt(np.array([det_on_unstable(spec.map, p)
                              for p in trans.nodes()]))
    assert np.all(roots > 0), "degenerate unstable Jacobian"
    lam_fg = float(np.max((ga / roots[None, :])[mask]))
    delta_fg = float(np.max(roots[mask.any(axis=0)]))
    bound = c0 * max(lam_fg, peak * float(lam) ** (-float(r)) * delta_fg)
    return lam_fg, delta_fg, bound


def lambda_global(g_sup, det_unstable):
    """The ratio sup|g| / sqrt(unstable determinant) for constant data."""
    return float(g_sup) / np.sqrt(float(det_unstable))
