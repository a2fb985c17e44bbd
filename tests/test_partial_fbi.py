"""Tests for the partial transform: flow factor, slices and projection."""

import numpy as np
import pytest

from contactfbi.fbi_core import (PhaseAxis, PhaseGrid, dual_phase_grid,
                                 fbi_roundtrip)
from contactfbi.numerics import make_grid, sample
from contactfbi import partial_fbi
from contactfbi.partial_fbi import (FlowGrid, PartialPhaseField, VolumeField,
                                    _amplitude, _axis_factor, _point_factors,
                                    _slice_adjoint, _slice_axis_matrix,
                                    _slice_forward, _slice_gram,
                                    check_transversal_spacing, flow_dft,
                                    flow_slices, min_transversal_points,
                                    partial_packet, pcal_apply, pfbi_adjoint,
                                    pfbi_forward, pfbi_roundtrip,
                                    per_axis_order,
                                    reconstruct_slice, sample_volume,
                                    scatter_slice, slice_energy,
                                    slice_roundtrip)


def gaussian_volume(flow, trans, k_flow=2.0, width=0.8):
    def f(pts):
        y0 = pts[:, 0]
        yd = pts[:, 1:]
        return np.exp(1j * k_flow * y0 - np.sum(yd ** 2, axis=-1) /
                      (2.0 * width ** 2))
    return sample_volume(f, flow, trans)


class TestFlowGrid:

    def test_exact_unitarity(self):
        fg = FlowGrid(np.pi, 8)
        prod = fg.idft_matrix() @ fg.dft_matrix()
        assert np.max(np.abs(prod - np.eye(8))) <= 1e-13

    def test_freqs_integer_type(self):
        fg = FlowGrid(np.pi, 6)
        assert np.allclose(fg.freqs(), [-3, -2, -1, 0, 1, 2])

    def test_spacing(self):
        fg = FlowGrid(np.pi, 6)
        assert fg.spacing == pytest.approx(np.pi / 3.0)
        assert fg.freq_spacing == pytest.approx(1.0)


class TestForward:

    def setup_method(self):
        self.flow = FlowGrid(np.pi, 6)
        self.trans = make_grid(2, 4.0, 22)
        self.vol = gaussian_volume(self.flow, self.trans)

    def test_matches_direct_quadrature(self):
        # the transform must equal the plain quadrature pairing with the
        # packet on the same grid
        pf = pfbi_forward(
            self.vol, dual_phase_grid(self.trans, n_freq=26))
        pg = pf.phase
        s = 5                      # slice with xi0 = 2
        xi0 = self.flow.freqs()[s]
        ci, cj, fi, fj = 11, 12, 13, 14
        x_dag = np.array([pg.axes[0].centers[ci], pg.axes[1].centers[cj]])
        xi = np.array([xi0, pg.axes[0].freqs[fi], pg.axes[1].freqs[fj]])
        phi = partial_packet(x_dag, xi)
        y0 = self.flow.nodes()
        yd = self.trans.nodes()
        pts = np.concatenate([np.repeat(y0, yd.shape[0])[:, None],
                              np.tile(yd, (self.flow.n_points, 1))], axis=1)
        w = self.flow.spacing * self.trans.weight
        direct = np.sum(np.conj(phi(pts)) * self.vol.values.ravel()) * w
        assert abs(pf.values[s, ci, cj, fi, fj] - direct) <= 1e-13

    def test_min_transversal_points_is_the_spacing_rule(self):
        for half_width, n0 in ((1.6, 8), (1.6, 16), (5.0, 6), (0.7, 4)):
            flow = FlowGrid(np.pi, n0)
            n = min_transversal_points(half_width, flow)
            assert n % 2 == 0
            check_transversal_spacing(make_grid(2, half_width, n), flow)
            if n > 4:
                with pytest.raises(ValueError, match="too coarse"):
                    check_transversal_spacing(
                        make_grid(2, half_width, n - 2), flow)
        # the default CLI box at 8 and 16 flow points
        assert min_transversal_points(1.6, FlowGrid(np.pi, 8)) == 10
        assert min_transversal_points(1.6, FlowGrid(np.pi, 16)) == 14

    def test_spacing_guard(self):
        coarse = make_grid(2, 4.0, 8)
        vol = gaussian_volume(self.flow, coarse)
        with pytest.raises(ValueError):
            pfbi_forward(vol, dual_phase_grid(coarse))

    def test_refuses_other_quadrature_nodes(self):
        # the same node count on a smaller box: the transform of the
        # volume against these nodes would be wrong, with no error
        vol = gaussian_volume(self.flow, make_grid(2, 1.6, 12))
        for trans, fragment in ((make_grid(2, 1.2, 12), "nodes differ"),
                                (make_grid(2, 1.6, 14), "nodes per axis")):
            pg = dual_phase_grid(trans)
            for run in (pfbi_forward, pfbi_roundtrip):
                with pytest.raises(ValueError, match=fragment):
                    run(vol, pg)

    def test_adjoint_refuses_other_quadrature_nodes(self):
        # the adjoint sums the packets at the phase grid's quadrature
        # nodes; unchecked, the smaller box relabelled the values (norm
        # 1.278 for 1.704) and the finer count failed inside numpy
        trans = make_grid(2, 1.6, 12)
        pf = pfbi_forward(gaussian_volume(self.flow, trans),
                          dual_phase_grid(trans))
        for other, fragment in ((make_grid(2, 1.2, 12), "nodes differ"),
                                (make_grid(2, 1.6, 14), "nodes per axis")):
            with pytest.raises(ValueError, match=fragment):
                pfbi_adjoint(pf, other)
        back = pfbi_adjoint(pf, make_grid(2, 1.6, 12))
        assert back.norm() == pytest.approx(pfbi_adjoint(pf).norm(),
                                            rel=1e-14)

    def test_adjoint_is_adjoint(self):
        pf = pfbi_forward(
            self.vol, dual_phase_grid(self.trans, n_freq=26))
        rng = np.random.default_rng(4)
        other = PartialPhaseField(self.flow, pf.phase,
                                  rng.standard_normal(pf.values.shape))
        lhs = np.sum(np.conj(pf.values) * other.values) * \
            self.flow.freq_spacing * pf.phase.weight
        back = pfbi_adjoint(other, trans=self.trans)
        rhs = np.sum(np.conj(self.vol.values) * back.values) * \
            self.flow.spacing * self.trans.weight
        assert abs(lhs - rhs) <= 1e-10 * abs(lhs)


class TestIdentity:

    def test_roundtrip_matches_materialized_pair(self):
        # pfbi_adjoint is the reference oracle of the streamed adjoints
        flow = FlowGrid(np.pi, 4)
        trans = make_grid(2, 3.0, 14)
        vol = gaussian_volume(flow, trans)
        pg = dual_phase_grid(trans)
        want = pfbi_adjoint(pfbi_forward(vol, pg), trans).values
        got = pfbi_roundtrip(vol, pg).values
        assert np.linalg.norm((got - want).ravel()) <= \
            1e-13 * np.linalg.norm(want.ravel())

    def test_roundtrip_identity(self):
        flow = FlowGrid(np.pi, 6)
        trans = make_grid(2, 5.0, 26)
        vol = gaussian_volume(flow, trans)
        back = pfbi_roundtrip(vol, dual_phase_grid(trans))
        err = np.linalg.norm((back.values - vol.values).ravel())
        ref = np.linalg.norm(vol.values.ravel())
        assert err / ref <= 1e-5

    def test_roundtrip_mixed_modes(self):
        flow = FlowGrid(np.pi, 6)
        trans = make_grid(2, 5.0, 26)

        def f(pts):
            y0 = pts[:, 0]
            yd = pts[:, 1:]
            env = np.exp(-np.sum(yd ** 2, axis=-1) / 1.28)
            return (np.exp(1j * y0) + 0.5 * np.exp(-2j * y0)) * env * \
                (1.0 + 0.3 * yd[:, 0])
        vol = sample_volume(f, flow, trans)
        back = pfbi_roundtrip(vol, dual_phase_grid(trans))
        err = np.linalg.norm((back.values - vol.values).ravel())
        ref = np.linalg.norm(vol.values.ravel())
        assert err / ref <= 1e-5

    def test_isometry(self):
        flow = FlowGrid(np.pi, 6)
        trans = make_grid(2, 5.0, 26)
        vol = gaussian_volume(flow, trans)
        pf = pfbi_forward(vol, dual_phase_grid(trans))
        assert abs(pf.norm() - vol.norm()) / vol.norm() <= 1e-5


class TestProjection:

    def setup_method(self):
        self.flow = FlowGrid(np.pi, 6)
        self.trans = make_grid(2, 4.0, 22)
        self.vol = gaussian_volume(self.flow, self.trans)
        # centers extended beyond the box: every space node keeps full
        # packet coverage, so the projection defect is a boundary tail even
        # on broadband data
        pg = dual_phase_grid(self.trans, n_freq=26, center_margin=3.5)
        self.pf = pfbi_forward(self.vol, pg=pg)

    def test_idempotent_on_range(self):
        # transform data already lies in the range, so the projection
        # moves it only by the identity defect
        proj = pcal_apply(self.pf)
        err = np.linalg.norm((proj.values - self.pf.values).ravel())
        ref = np.linalg.norm(self.pf.values.ravel())
        assert err / ref <= 1e-5

    def test_projection_squares(self):
        rng = np.random.default_rng(7)
        noise = PartialPhaseField(
            self.flow, self.pf.phase,
            rng.standard_normal(self.pf.values.shape)
            + 1j * rng.standard_normal(self.pf.values.shape))
        p1 = pcal_apply(noise)
        p2 = pcal_apply(p1)
        err = np.linalg.norm((p2.values - p1.values).ravel())
        ref = np.linalg.norm(p1.values.ravel())
        assert err / ref <= 1e-5

    def test_self_adjoint(self):
        rng = np.random.default_rng(8)
        shape = self.pf.values.shape
        a = PartialPhaseField(self.flow, self.pf.phase,
                              rng.standard_normal(shape)
                              + 1j * rng.standard_normal(shape))
        b = PartialPhaseField(self.flow, self.pf.phase,
                              rng.standard_normal(shape)
                              + 1j * rng.standard_normal(shape))
        w = self.flow.freq_spacing * self.pf.phase.weight
        lhs = np.sum(np.conj(pcal_apply(a).values) * b.values) * w
        rhs = np.sum(np.conj(a.values) * pcal_apply(b).values) * w
        assert abs(lhs - rhs) <= 1e-10 * abs(lhs)


class TestSliceCore:
    """The off-grid contractions agree with the grid ones at the nodes."""

    def setup_method(self):
        trans = make_grid(2, 2.0, 10)
        self.pg = dual_phase_grid(trans, center_margin=1.0)
        self.nodes = trans.nodes()
        self.kappa = 2.5
        self.rng = np.random.default_rng(11)

    def _noise(self, shape):
        return self.rng.standard_normal(shape) \
            + 1j * self.rng.standard_normal(shape)

    def test_reconstruct_at_nodes_is_adjoint(self):
        v = self._noise(self.pg.shape())
        ref = _slice_adjoint(v, self.pg, self.kappa).ravel()
        got = reconstruct_slice(v, self.pg, self.kappa, self.nodes)
        assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref)

    def test_scatter_at_nodes_is_forward(self):
        u = self._noise((self.pg.axes[0].y.size, self.pg.axes[1].y.size))
        ref = _slice_forward(u, self.pg, self.kappa)
        got = scatter_slice(u.ravel(), self.pg, self.kappa, self.nodes) \
            * (self.pg.y_weight / self.pg.weight)
        assert np.linalg.norm((got - ref).ravel()) <= \
            1e-12 * np.linalg.norm(ref.ravel())

    def _uncached(self, pts, conj):
        return [_axis_factor(ax.centers, ax.freqs, pts[:, a], self.kappa,
                             conj) for a, ax in enumerate(self.pg.axes)]

    def test_off_grid_matches_uncached_factors(self):
        pts = self.rng.uniform(-2.0, 2.0, size=(37, 2))
        pref = _amplitude(self.kappa, 2) * self.pg.weight
        v = self._noise(self.pg.shape())
        a1, a2 = self._uncached(pts, conj=False)
        ref = pref * np.einsum("abcd,acz,bdz->z", v, a1, a2)
        vals = self._noise(pts.shape[0])
        b1, b2 = self._uncached(pts, conj=True)
        ref_back = pref * np.einsum("z,acz,bdz->abcd", vals, b1, b2)
        # the second round reads the memoized factors
        for _ in range(2):
            got = reconstruct_slice(v, self.pg, self.kappa, pts)
            assert np.linalg.norm(got - ref) <= 1e-14 * np.linalg.norm(ref)
            got = scatter_slice(vals, self.pg, self.kappa, pts)
            assert np.linalg.norm((got - ref_back).ravel()) <= \
                1e-14 * np.linalg.norm(ref_back.ravel())

    def test_cached_factors_are_read_only(self):
        pts = self.rng.uniform(-2.0, 2.0, size=(5, 2))
        for conj in (False, True):
            factors = _point_factors(self.pg, self.kappa, pts, conj)
            for factor in factors:
                assert not factor.flags.writeable
                with pytest.raises(ValueError):
                    factor[0, 0, 0] = 0.0
            again = _point_factors(self.pg, self.kappa, pts, conj)
            assert all(a is b for a, b in zip(factors, again))


class TestContractionPaths:
    """The slice transforms equal the many-operand einsum formulas they
    replaced, on grids whose axes differ in every count, and search no
    contraction path."""

    # (nc, nf, ny) per axis: ny rising and falling between the end axes,
    # which runs the forward chain from either end
    GRIDS = {"rising 2": [(7, 5, 3), (4, 8, 6)],
             "falling 2": [(7, 5, 6), (4, 8, 3)],
             "rising 4": [(3, 4, 2), (5, 2, 5), (2, 3, 3), (4, 5, 4)],
             "falling 4": [(3, 4, 4), (5, 2, 5), (2, 3, 3), (4, 5, 2)]}
    KAPPA = 2.3

    @staticmethod
    def _grid(counts):
        axes = []
        for a, (nc, nf, ny) in enumerate(counts):
            axes.append(PhaseAxis(
                0.5 * (np.arange(nc) - (nc - 1) / 2.0) + 0.1 * a,
                (np.arange(nf) + 0.5 - nf / 2.0) * 2.0 + 0.3 * a,
                0.4 * (np.arange(ny) - (ny - 1) / 2.0) - 0.05 * a))
        return PhaseGrid(axes)

    @staticmethod
    def _letters(dim):
        return "abcd"[:dim], "efgh"[:dim], "ijkl"[:dim]

    def _factors(self, pg, pts, conj):
        return [_axis_factor(ax.centers, ax.freqs, pts[a], self.KAPPA, conj)
                for a, ax in enumerate(pg.axes)]

    def _reference(self, pg, name, vals, pts=None):
        """The einsum formulas of the slice transforms before they ran
        one axis at a time."""
        cs, fs, ys = self._letters(pg.dim)
        amp = _amplitude(self.KAPPA, pg.dim)
        if name == "forward":
            lead = "z" if vals.ndim > pg.dim else ""
            factors = self._factors(pg, [ax.y for ax in pg.axes], True)
            return amp * pg.y_weight * np.einsum(
                ",".join([ys + lead] + list(map("".join, zip(cs, fs, ys))))
                + "->" + lead + cs + fs, vals, *factors, optimize=True)
        if name == "adjoint":
            factors = self._factors(pg, [ax.y for ax in pg.axes], False)
            return amp * pg.weight * np.einsum(
                ",".join([cs + fs] + list(map("".join, zip(cs, fs, ys))))
                + "->" + ys, vals, *factors, optimize=True)
        subscripts = [c + f + "z" for c, f in zip(cs, fs)]
        if name == "reconstruct":
            factors = self._factors(pg, pts.T, False)
            return amp * pg.weight * np.einsum(
                ",".join([cs + fs] + subscripts) + "->z", vals, *factors,
                optimize=True)
        factors = self._factors(pg, pts.T, True)
        return amp * pg.weight * np.einsum(
            ",".join(["z"] + subscripts) + "->" + cs + fs, vals, *factors,
            optimize=True)

    @staticmethod
    def _noise(rng, shape):
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)

    @staticmethod
    def _close(got, want):
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    @pytest.mark.parametrize("fields", [(), (3,)])
    @pytest.mark.parametrize("name", sorted(GRIDS))
    def test_forward_matches_einsum(self, name, fields):
        pg = self._grid(self.GRIDS[name])
        rng = np.random.default_rng(len(name) + len(fields))
        y_shape = tuple(ax.y.size for ax in pg.axes)
        vals = self._noise(rng, y_shape + fields)
        got = _slice_forward(vals, pg, self.KAPPA)
        self._close(got, self._reference(pg, "forward", vals))
        # weighted_gram reshapes the per-axis layout without a copy
        assert np.transpose(got, per_axis_order(pg.dim, len(fields))) \
            .flags.c_contiguous

    @pytest.mark.parametrize("name", sorted(GRIDS))
    def test_adjoint_and_off_grid_match_einsum(self, name):
        pg = self._grid(self.GRIDS[name])
        rng = np.random.default_rng(len(name))
        coeffs = self._noise(rng, pg.shape())
        self._close(_slice_adjoint(coeffs, pg, self.KAPPA),
                    self._reference(pg, "adjoint", coeffs))
        pts = rng.uniform(-1.0, 1.0, size=(29, pg.dim))
        self._close(reconstruct_slice(coeffs, pg, self.KAPPA, pts),
                    self._reference(pg, "reconstruct", coeffs, pts))
        vals = self._noise(rng, 29)
        self._close(scatter_slice(vals, pg, self.KAPPA, pts),
                    self._reference(pg, "scatter", vals, pts))

    def test_no_contraction_path_is_searched(self, monkeypatch):
        try:
            from numpy._core import einsumfunc
        except ImportError:
            from numpy.core import einsumfunc

        def refuse(*args, **kwargs):
            raise AssertionError("einsum_path called")
        monkeypatch.setattr(einsumfunc, "einsum_path", refuse)
        monkeypatch.setattr(np, "einsum_path", refuse)
        pg = self._grid(self.GRIDS["rising 4"])
        rng = np.random.default_rng(5)
        # the parent's formula searched a path on every call
        with pytest.raises(AssertionError, match="einsum_path"):
            self._reference(pg, "scatter", self._noise(rng, 3),
                            rng.uniform(size=(3, pg.dim)))
        for counts in self.GRIDS.values():
            pg = self._grid(counts)
            pts = rng.uniform(-1.0, 1.0, size=(7, pg.dim))
            _slice_forward(self._noise(rng, tuple(ax.y.size
                                                  for ax in pg.axes)),
                           pg, self.KAPPA)
            reconstruct_slice(self._noise(rng, pg.shape()), pg, self.KAPPA,
                              pts)
            scatter_slice(self._noise(rng, 7), pg, self.KAPPA, pts)


class TestAxisMemo:
    """The on-grid axis matrices and Grams are built once per axis, width
    and conjugation, and shared read-only."""

    def setup_method(self):
        self.trans = make_grid(2, 2.0, 10)
        self.pg = dual_phase_grid(self.trans, center_margin=1.0)
        self.ax = self.pg.axes[0]

    def test_matrices_match_fresh_factors(self):
        ax = self.ax
        for kappa in (1.0, 3.5):
            for conj in (False, True):
                m = _slice_axis_matrix(ax, kappa, conj)
                assert not m.flags.writeable
                with pytest.raises(ValueError):
                    m[0, 0, 0] = 0.0
                want = _axis_factor(ax.centers, ax.freqs, ax.y, kappa, conj)
                assert np.max(np.abs(m - want)) <= 1e-15
            assert np.array_equal(_slice_axis_matrix(ax, kappa, True),
                                  np.conj(_slice_axis_matrix(ax, kappa,
                                                             False)))

    def test_grams_match_explicit_sum(self):
        ax = self.ax
        for kappa in (1.0, 3.5):
            m = _axis_factor(ax.centers, ax.freqs, ax.y, kappa, False)
            want = sum(m[c][:, :, None] * np.conj(m[c][:, None, :])
                       for c in range(ax.centers.size))
            got = _slice_gram(ax, kappa)
            assert not got.flags.writeable
            assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))

    def test_identical_axes_and_opposite_slices_share(self):
        # dual_phase_grid repeats one axis; the slices at +-xi0 share
        # the width <xi0>
        assert self.pg.axes[0] is self.pg.axes[1]
        flow = FlowGrid(np.pi, 6)
        kaps = {}
        for xi0, kappa, _ in flow_dft(gaussian_volume(flow, self.trans),
                                      self.pg):
            kaps.setdefault(abs(xi0), []).append(kappa)
        pairs = [k for k in kaps.values() if len(k) == 2]
        assert pairs
        for kp, km in pairs:
            for conj in (False, True):
                mat = _slice_axis_matrix(self.pg.axes[0], kp, conj)
                assert _slice_axis_matrix(self.pg.axes[1], kp, conj) is mat
                assert _slice_axis_matrix(self.pg.axes[1], km, conj) is mat
            assert _slice_gram(self.pg.axes[1], km) is \
                _slice_gram(self.pg.axes[0], kp)

    def test_memo_lives_on_the_grid(self):
        other = dual_phase_grid(self.trans, center_margin=1.0)
        a = _slice_axis_matrix(self.ax, 2.0, False)
        b = _slice_axis_matrix(other.axes[0], 2.0, False)
        assert a is not b and np.array_equal(a, b)


class TestGramPath:
    """The quadratic forms of the transform through the per-axis packet
    Grams agree with the materialized slices they replace."""

    @staticmethod
    def _volume(flow, trans):
        # no symmetry between the transversal axes or under conjugation
        def f(pts):
            yd = pts[:, 1:]
            return np.exp(1j * pts[:, 0] + 1.5j * yd[:, -1]
                          - np.sum(yd ** 2, axis=-1) / 0.5) * \
                (1.0 + 0.3 * yd[:, 0] + 0.2j * np.cos(2.0 * pts[:, 0]))
        return sample_volume(f, flow, trans)

    def test_slice_gram_sums_over_centers(self):
        ax = dual_phase_grid(make_grid(1, 2.0, 10), center_margin=1.0).axes[0]
        for kappa in (1.0, 3.5):
            m = _slice_axis_matrix(ax, kappa, conj=False)
            want = sum(m[c][:, :, None] * np.conj(m[c][:, None, :])
                       for c in range(ax.centers.size))
            got = _slice_gram(ax, kappa)
            assert got.shape == (ax.freqs.size, ax.y.size, ax.y.size)
            assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))

    # (dim, half width, points per axis, n_freq): n_freq differs from the
    # points per axis, and D = 4 is the d = 2 transversal block
    GRIDS = [(2, 3.0, 14, 17), (4, 0.8, 4, 6)]

    @pytest.mark.parametrize("dim, half, n, n_freq", GRIDS)
    def test_roundtrip_matches_materialized_pair(self, dim, half, n, n_freq):
        flow = FlowGrid(np.pi, 4)
        trans = make_grid(dim, half, n)
        vol = self._volume(flow, trans)
        pg = dual_phase_grid(trans, n_freq=n_freq)
        want = pfbi_adjoint(pfbi_forward(vol, pg), trans).values
        got = pfbi_roundtrip(vol, pg).values
        assert np.linalg.norm((got - want).ravel()) <= \
            1e-13 * np.linalg.norm(want.ravel())

    @pytest.mark.parametrize("dim, half, n, n_freq", GRIDS)
    def test_slice_energy_sums_coefficients(self, dim, half, n, n_freq):
        flow = FlowGrid(np.pi, 4)
        trans = make_grid(dim, half, n)
        vol = self._volume(flow, trans)
        pg = dual_phase_grid(trans, n_freq=n_freq, center_margin=0.5)
        for (_, kappa, vals), (_, _, coeff) in zip(flow_dft(vol, pg),
                                                   flow_slices(vol, pg)):
            want = np.sum(np.abs(coeff) ** 2, axis=tuple(range(dim)))
            got = slice_energy(vals, pg, kappa)
            assert got.shape == want.shape
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(want)

    # (nc, nf, ny, center spacing, node spacing) of each axis: every
    # count and spacing differs between the axes, so a contraction that
    # pairs a Gram or a slice axis with the wrong axis changes the result
    AXES = {2: [(7, 5, 6, 0.45, 0.4), (4, 8, 3, 0.7, 0.55)],
            4: [(3, 4, 5, 0.6, 0.5), (5, 2, 3, 0.4, 0.35),
                (2, 3, 4, 0.8, 0.45), (4, 5, 2, 0.5, 0.6)]}

    @classmethod
    def _distinct_grid(cls, dim):
        axes = []
        for a, (nc, nf, ny, hc, hy) in enumerate(cls.AXES[dim]):
            centers = hc * (np.arange(nc) - (nc - 1) / 2.0) + 0.1 * a
            freqs = (np.arange(nf) + 0.5 - nf / 2.0) * 2.0 * np.pi / (nf * hy)
            y = hy * (np.arange(ny) - (ny - 1) / 2.0) - 0.05 * a
            axes.append(PhaseAxis(centers, freqs, y))
        return PhaseGrid(axes)

    @pytest.mark.parametrize("dim", [2, 4])
    def test_distinct_axes_match_slice_transforms(self, dim):
        pg = self._distinct_grid(dim)
        rng = np.random.default_rng(dim)
        shape = tuple(ax.y.size for ax in pg.axes)
        vals = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        for kappa in (1.0, 2.7):
            coeff = _slice_forward(vals, pg, kappa)
            want = np.sum(np.abs(coeff) ** 2, axis=tuple(range(dim)))
            got = slice_energy(vals, pg, kappa)
            assert got.shape == want.shape
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(want)
            want = _slice_adjoint(coeff, pg, kappa)
            got = slice_roundtrip(vals, pg, kappa)
            assert got.shape == shape
            assert np.linalg.norm((got - want).ravel()) <= \
                1e-13 * np.linalg.norm(want.ravel())

    def test_quadratic_forms_fill_only_the_grams(self, monkeypatch):
        from contactfbi import aniso_norm
        grids = []

        def record(*args, **kwargs):
            grids.append(dual_phase_grid(*args, **kwargs))
            return grids[-1]
        monkeypatch.setattr(aniso_norm, "dual_phase_grid", record)
        flow = FlowGrid(np.pi, 4)
        trans = make_grid(2, 1.6, 8)
        vol = self._volume(flow, trans)
        aniso_norm.sobolev_norms(vol, 1.0)
        grids.append(dual_phase_grid(trans))
        pfbi_roundtrip(vol, grids[-1])
        grids.append(dual_phase_grid(trans, n_freq=11))
        fbi_roundtrip(sample(lambda p: np.exp(-np.sum(p ** 2, axis=-1)),
                             trans), grids[-1])
        assert len(grids) == 3
        for pg in grids:
            for ax in pg.axes:
                assert ax.factors == {}
                assert ax.grams

    def test_energy_peak_on_the_fine_norm_grid(self):
        import tracemalloc
        # the fine C9 norm grid: nc = 64, nf = 28, ny = 20
        pg = dual_phase_grid(make_grid(2, 1.6, 20), center_margin=3.5)
        ax = pg.axes[0]
        assert (ax.centers.size, ax.freqs.size, ax.y.size) == (64, 28, 20)
        rng = np.random.default_rng(9)
        vals = rng.normal(size=(20, 20)) + 1j * rng.normal(size=(20, 20))
        slice_energy(vals, pg, 2.5)
        tracemalloc.start()
        try:
            slice_energy(vals, pg, 2.5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6

    def test_quadratic_forms_form_no_coefficients(self, monkeypatch):
        from contactfbi.aniso_norm import sobolev_norms

        def refuse(*args):
            raise AssertionError("slice transform called")
        monkeypatch.setattr(partial_fbi, "_slice_forward", refuse)
        monkeypatch.setattr(partial_fbi, "_slice_adjoint", refuse)
        flow = FlowGrid(np.pi, 4)
        trans = make_grid(2, 1.6, 8)
        vol = self._volume(flow, trans)
        assert sobolev_norms(vol, 1.0)[1] > 0.0
        back = pfbi_roundtrip(vol, dual_phase_grid(trans))
        assert np.linalg.norm(back.values.ravel()) > 0.0

