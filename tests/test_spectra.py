"""Tests for spectrum reports, weighted norms and the frequency block."""

import functools
import json

import numpy as np
import pytest
import scipy.linalg

from contactfbi.aniso_norm import (WeightSpec, bracket, cal_w_aniso,
                                   slice_covectors, v_s)
from contactfbi.contact_geometry import ContactMap
from contactfbi.fbi_core import (PhaseAxis, PhaseGrid, det_factor,
                                 dual_phase_grid, l0_hat_kernel)
from contactfbi.numerics import make_grid
from contactfbi import partial_fbi, spectra
from contactfbi.partial_fbi import (FlowGrid, _slice_adjoint, _slice_forward,
                                    _volume_points, reconstruct_slice,
                                    scatter_slice)
from contactfbi.spectra import (CentralBlock, CentralFrame, SpectrumReport,
                                central_block_audit, conjugated_operator,
                                expansion_argmax, lower_bound_family,
                                model_spectrum, persistent_outliers,
                                weighted_norm_measure)
from contactfbi.transfer_ops import (AxisProduct, TransferSpec, axis_lift,
                                     flow_fourier_coeffs, lambda_delta,
                                     lift_coupling, lift_kernel, lift_route,
                                     reduced_lift)


def sym_block(lam):
    return np.diag([float(lam), 1.0 / float(lam)])


def bump_amp(width=0.5):
    def g(pts):
        yd = pts[:, 1:]
        return np.exp(-np.sum(yd ** 2, axis=-1) / width)
    return g


def flow_amp():
    def g(pts):
        return (0.7 + 0.3 * np.cos(pts[:, 0])) * \
            np.exp(-np.sum(pts[:, 1:] ** 2, axis=-1) / 0.5)
    return g


def zero_amp():
    return lambda pts: np.zeros(pts.shape[0], dtype=complex)


def toy_setting():
    flow = FlowGrid(np.pi, 4)
    trans = make_grid(2, 0.9, 4)
    pg = dual_phase_grid(trans, n_freq=4)
    return flow, trans, pg


class TestSpectrumReport:

    def test_sorted_and_counts(self):
        eigs = [0.1, 0.9 + 0.1j, 0.3, 1.2]
        rep = SpectrumReport(eigs, {"rows": 4}, 0.5, margin=0.1)
        assert np.all(np.diff(rep.moduli) <= 1e-15)
        assert rep.stable_count == 2          # moduli above 0.55
        assert rep.outliers().size == 2

    def test_json_and_csv(self, tmp_path):
        rep = SpectrumReport([0.4j, 0.8], {"rows": 2, "n0": 4}, 0.5)
        cp = tmp_path / "spec.csv"
        rep.save_csv(cp)
        # the CLI writes to_dict into summary.json
        data = json.loads(json.dumps(rep.to_dict()))
        assert data["stable_count"] == rep.stable_count
        assert data["refinement"]["n0"] == 4
        lines = cp.read_text().strip().split("\n")
        assert lines[0].startswith("#") and "n0=4" in lines[0]
        assert lines[2] == "index,re,im,modulus"
        assert len(lines) == 5

    def test_structural_zeros_counted_not_listed(self, tmp_path):
        rep = SpectrumReport([0.2, 0.9], {"rows": 5, "reduced_rows": 2}, 0.5)
        assert rep.eigenvalues.size == 2 and rep.stable_count == 1
        data = rep.to_dict()
        assert data["moduli"] == [0.9, 0.2]
        assert data["structural_zeros"] == 3
        cp = tmp_path / "spec.csv"
        rep.save_csv(cp)
        lines = cp.read_text().strip().split("\n")
        assert "structural_zeros=3" in lines[1]
        assert lines[3:] == ["0,0.90000000000000002,0,0.90000000000000002",
                             "1,0.20000000000000001,0,0.20000000000000001"]

    def test_persistence(self):
        a = SpectrumReport([1.0, 0.9, 0.1], {}, 0.5)
        b = SpectrumReport([1.02, 0.88, 0.2], {}, 0.5)
        res = persistent_outliers(a, b)
        assert res["counts_match"] and res["persistent"]
        c = SpectrumReport([1.0, 0.1], {}, 0.5)
        assert not persistent_outliers(a, c)["counts_match"]


class TestWeightedNorm:

    def test_unweighted_is_one(self):
        val, = weighted_norm_measure(sym_block(4.0), [1.0], 0.0,
                                     half_widths=(10.0, 10.0))
        assert 0.98 <= val <= 1.02

    def test_slope_tracks_expansion_branch(self):
        # on a window where the weight's dynamic range stays moderate the
        # norm decays with lam like d(B)^(-1/2); wider windows let the
        # cone-transition coupling take over and flatten nothing
        lams = (4.0, 8.0, 16.0, 32.0)
        norms, branch = [], []
        for lam in lams:
            norms.extend(weighted_norm_measure(
                sym_block(lam), [16.0], 4.0,
                half_widths=(2.0, 2.0), spacing=0.35))
            d = det_factor(sym_block(lam))
            branch.append(max(d ** -0.5, d ** 0.5 * lam ** -4.0))
        sm = np.polyfit(np.log(lams), np.log(norms), 1)[0]
        sb = np.polyfit(np.log(lams), np.log(branch), 1)[0]
        assert abs(sm - sb) <= 0.15

    def test_four_dimensional_grid_over_budget(self):
        # 12 points per axis on R^4 would be a 20736 x 20736 kernel
        with pytest.raises(ValueError, match="20736 x 20736"):
            weighted_norm_measure(np.diag([4.0, 4.0, 0.25, 0.25]), [1.0], 4.0,
                                  half_widths=(2.0,) * 4, spacing=0.35)

    SHEAR = np.array([[2.0, 0.6], [0.0, 0.5]])

    # the parity split against the SVD of the full kernel; a float half
    # width is the same on both axes
    @pytest.mark.parametrize("b, s, r, half, h", [
        (sym_block(4.0), 1.0, 0.0, 10.0, 0.7),       # C6 grid
        (sym_block(16.0), 1.0, 0.0, 10.0, 0.7),
        (sym_block(4.0), 1.0, 4.0, 2.0, 0.35),       # C7 grids
        (sym_block(32.0), 256.0, 4.0, 2.0, 0.35),
        # d = 2 within the budget, 4^4 points
        (np.diag([4.0, 4.0, 0.25, 0.25]), 16.0, 4.0, (1.0,) * 4, 0.5),
        # 12 x 11 points: one even and one odd axis
        (sym_block(8.0), 1.0, 4.0, (2.0, 1.9), 0.35),
        # a non-diagonal symplectic b, on even and on odd grids
        (SHEAR, 16.0, 4.0, 2.0, 0.35),
        (SHEAR, 1.0, 0.0, 10.0, 0.7),
        (SHEAR, 1.0, 4.0, (2.0, 1.9), 0.35),
    ])
    def test_equals_dense_two_norm(self, b, s, r, half, h):
        halves = half if isinstance(half, tuple) else (half, half)
        axes = []
        for hw in halves:
            n = int(np.ceil(2.0 * hw / h))
            axes.append((np.arange(n) + 0.5 - n / 2.0) * h)
        pts = np.stack([m.ravel() for m in np.meshgrid(*axes,
                                                       indexing="ij")], -1)
        w = v_s(pts, s, r)
        weighted = w[:, None] * l0_hat_kernel(b, pts, pts) / w[None, :]
        want = h ** len(halves) * np.linalg.norm(weighted, 2)
        got, = weighted_norm_measure(b, [s], r, half_widths=halves,
                                     spacing=h)
        assert got == pytest.approx(want, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("b, halves", [
        (sym_block(8.0), (2.0, 2.0)), (SHEAR, (2.0, 1.9))])
    def test_one_kernel_serves_every_s(self, b, halves):
        # one call measures every s on one kernel; it equals one call per
        # s and the dense norm of each weighted kernel, and on the
        # norm-bound grid s = 16 and s = 256 have one weight, so the
        # second reuses the first's norm
        h, r, s_values = 0.35, 4.0, (1.0, 16.0, 256.0)
        got = weighted_norm_measure(b, s_values, r, half_widths=halves,
                                    spacing=h)
        assert len(got) == len(s_values)
        pts = spectra.norm_grid(halves, h)
        kern = l0_hat_kernel(b, pts, pts)
        for s, val in zip(s_values, got):
            one, = weighted_norm_measure(b, [s], r, half_widths=halves,
                                         spacing=h)
            assert val == pytest.approx(one, rel=1e-12, abs=0.0)
            w = v_s(pts, s, r)
            dense = h ** 2 * np.linalg.norm(
                w[:, None] * kern / w[None, :], 2)
            assert val == pytest.approx(dense, rel=1e-12, abs=0.0)
        assert np.array_equal(v_s(pts, 16.0, r), v_s(pts, 256.0, r))
        assert got[2] == got[1] and got[0] != got[1]
        weights, solved = spectra.norm_weights(pts, s_values, r)
        assert solved == [True, True, False]

    @pytest.mark.parametrize("halves, h", [
        ((10.0, 10.0), 0.7), ((2.0, 1.9), 0.35), ((1.0,) * 4, 0.5)])
    def test_norm_grid_is_antisymmetric(self, halves, h):
        # the parity split pairs point i with point N - 1 - i, its exact
        # negative
        pts = spectra.norm_grid(halves, h)
        assert np.array_equal(pts[::-1], -pts)

    def test_matches_scipy_svdvals(self):
        # the oracle of the numpy solve: scipy's values-only SVD on the
        # norm-bound grid of the default config
        half, h, r = 2.0, 0.35, 4.0
        axis = spectra._axis_lattice(half, h)
        pts = np.stack([m.ravel() for m in np.meshgrid(axis, axis,
                                                       indexing="ij")], -1)
        s_values = (1.0, 16.0, 256.0)
        for lam in (4.0, 8.0, 16.0, 32.0):
            b = sym_block(lam)
            got = weighted_norm_measure(b, s_values, r,
                                        half_widths=(half, half), spacing=h)
            for s, val in zip(s_values, got):
                w = v_s(pts, s, r)
                weighted = w[:, None] * l0_hat_kernel(b, pts, pts) / \
                    w[None, :]
                want = h ** 2 * scipy.linalg.svdvals(weighted)[0]
                assert val == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_unweighted_norm_at_lam_four_is_one(self):
        # the C6 grid resolves the isometry: the exact norm is 1 to 1e-9,
        # a bound that an unconverged iterative estimate misses
        val, = weighted_norm_measure(sym_block(4.0), [1.0], 0.0,
                                     half_widths=(10.0, 10.0))
        assert abs(val - 1.0) <= 1e-8

    def test_norm_decreases_with_lam(self):
        vals = [weighted_norm_measure(sym_block(lam), [16.0], 4.0,
                                      half_widths=(2.0, 2.0), spacing=0.35)[0]
                for lam in (4.0, 16.0)]
        assert vals[1] < vals[0]


def slice_defect(mat, n0):
    """Largest cross-slice entry over the largest diagonal-block entry of
    a lift on n0 flow slices; near zero exactly when the lift is block
    diagonal over xi0."""
    npts = mat.shape[0] // n0
    peak = np.abs(mat).reshape(n0, npts, n0, npts).max(axis=(1, 3))
    return np.max(peak[~np.eye(n0, dtype=bool)]) / np.max(np.diag(peak))


class TestModelSpectrum:

    def test_zero_amplitude(self):
        flow, trans, pg = toy_setting()
        cmap = ContactMap.linear(sym_block(4.0))
        spec = TransferSpec(cmap, zero_amp(), name="zero")
        reps = model_spectrum(spec, [(flow, trans, pg)], 0.5)
        assert np.max(reps[0].moduli) <= 1e-14
        assert reps[0].stable_count == 0

    def test_conjugation_is_similarity(self):
        # the W-conjugated lift has the lift's spectrum, which is why
        # model_spectrum takes the eigenvalues of the lift as assembled
        flow, trans, pg = toy_setting()
        cmap = ContactMap.linear(sym_block(4.0))
        spec = TransferSpec(cmap, bump_amp(), name="bump")
        mat = lift_kernel(spec, flow, trans, pg)
        conj = np.linalg.eigvals(conjugated_operator(mat, flow, pg,
                                                     WeightSpec()))
        rep = model_spectrum(spec, [(flow, trans, pg)], 0.5)[0]
        conj = conj[np.argsort(-np.abs(conj))]
        top, tail = np.split(conj, [rep.refinement["reduced_rows"]])
        a = np.sort_complex(rep.eigenvalues)
        b = np.sort_complex(top)
        assert np.max(np.abs(a - b)) <= 1e-8 * max(1.0, np.max(np.abs(a)))
        assert np.max(np.abs(rep.moduli - np.abs(top))) <= \
            1e-12 * abs(top[0])
        assert np.max(np.abs(tail)) <= 1e-12 * abs(top[0])

    def test_evaluates_no_weight(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("model_spectrum evaluated a weight")
        monkeypatch.setattr(spectra, "weight_diagonal", refuse)
        monkeypatch.setattr(spectra, "slice_weight", refuse)
        flow, trans, pg = toy_setting()
        spec = TransferSpec(ContactMap.linear(sym_block(4.0)), bump_amp())
        rep = model_spectrum(spec, [(flow, trans, pg)], 0.5)[0]
        assert rep.refinement["rows"] == flow.n_points * pg.num_points

    def test_size_guard(self):
        # 6 slices x 28^2 nodes: a 4,704-row reduced lift, refused before
        # the amplitude is evaluated
        def refuse(pts):
            raise AssertionError("the amplitude was evaluated")
        flow = FlowGrid(np.pi, 6)
        trans = make_grid(2, 3.0, 28)
        spec = TransferSpec(ContactMap.linear(sym_block(4.0)), refuse)
        with pytest.raises(ValueError, match="dense budget"):
            model_spectrum(spec, [(flow, trans, dual_phase_grid(trans))], 0.5)

    def test_size_guard_counts_the_solver_copy(self, monkeypatch):
        # np.linalg.eigvals copies the reduced lift, so a budget of one and
        # a half matrices, which reduced_lift alone would pass, is refused
        # before the amplitude is evaluated; two matrices are enough
        from contactfbi import numerics

        def refuse(pts):
            raise AssertionError("the amplitude was evaluated")
        flow, trans, pg = toy_setting()
        side = flow.n_points * trans.num_points
        monkeypatch.setattr(numerics, "DENSE_BYTES", 24 * side * side)
        numerics.check_dense(side, side, "one reduced lift")
        with pytest.raises(ValueError, match="eigvals copy .* dense budget"):
            model_spectrum(TransferSpec(ContactMap.linear(sym_block(4.0)),
                                        refuse), [(flow, trans, pg)], 0.5)
        monkeypatch.setattr(numerics, "DENSE_BYTES", 32 * side * side)
        spec = TransferSpec(ContactMap.linear(sym_block(4.0)), bump_amp())
        rep = model_spectrum(spec, [(flow, trans, pg)], 0.5)[0]
        assert rep.refinement["reduced_rows"] == side

    # (map, amplitude, whether the amplitude is constant along the flow,
    # so that the lift is solved one flow slice at a time)
    SETTINGS = [
        (ContactMap.linear(sym_block(4.0)), bump_amp(), True),
        (ContactMap.linear(sym_block(4.0)), flow_amp(), False),
        (ContactMap.shear(2.0, 0.3), flow_amp(), False),
    ]
    SETTING_IDS = ["linear-bump", "linear-flow", "shear-flow"]

    @pytest.mark.parametrize("n0", [4, 6])
    @pytest.mark.parametrize("cmap, g, by_slice", SETTINGS, ids=SETTING_IDS)
    def test_matches_dense_lift(self, cmap, g, by_slice, n0):
        # the C10 levels: 1,024 and 1,536 lift rows, 64 and 96 reduced
        flow = FlowGrid(np.pi, n0)
        trans = make_grid(2, 0.7, 4)
        pg = dual_phase_grid(trans, n_freq=4)
        spec = TransferSpec(cmap, g)
        rep = model_spectrum(spec, [(flow, trans, pg)], 0.5)[0]
        mat = lift_kernel(spec, flow, trans, pg)
        dense = np.abs(flow.freq_spacing * pg.weight
                       * np.linalg.eigvals(mat))
        dense = np.sort(dense)[::-1]
        reduced = rep.refinement["reduced_rows"]
        assert reduced == rep.eigenvalues.size == n0 * trans.num_points
        assert rep.refinement["rows"] == mat.shape[0]
        assert rep.refinement["slice_blocks"] == (n0 if by_slice else 1)
        assert rep.structural_zeros == mat.shape[0] - reduced
        assert np.max(np.abs(rep.moduli - dense[:reduced])) <= \
            1e-12 * dense[0]
        assert np.max(dense[reduced:]) <= 1e-12 * dense[0]

    @pytest.mark.parametrize("n0", [4, 6])
    @pytest.mark.parametrize("cmap, g, by_slice", SETTINGS, ids=SETTING_IDS)
    def test_matches_scipy_eigvals(self, cmap, g, by_slice, n0):
        # the oracle of the batched numpy solve: scipy's eigvals block by
        # block of the reduced lift on the C10 levels, which is one block
        # per flow slice exactly when the amplitude is constant along the
        # flow
        flow = FlowGrid(np.pi, n0)
        trans = make_grid(2, 0.7, 4)
        pg = dual_phase_grid(trans, n_freq=4)
        spec = TransferSpec(cmap, g)
        rep = model_spectrum(spec, [(flow, trans, pg)], 0.5)[0]
        factor = reduced_lift(spec, flow, trans, pg)
        nq = trans.num_points
        assert factor.shape == ((n0, nq, nq) if by_slice
                                else (1, n0 * nq, n0 * nq))
        want = np.abs(np.concatenate([scipy.linalg.eigvals(block)
                                      for block in factor]))
        want = np.sort(want)[::-1]
        assert rep.refinement["slice_blocks"] == factor.shape[0]
        assert rep.moduli.size == want.size == n0 * nq
        assert np.max(np.abs(rep.moduli - want)) <= 1e-12 * want[0]

    def test_factor_larger_than_lift(self):
        # 2 centers x 2 frequencies per axis: 16 phase points per slice
        # against 36 quadrature nodes, so the factor is the larger side
        flow = FlowGrid(np.pi, 4)
        trans = make_grid(2, 0.9, 6)
        pg = PhaseGrid([PhaseAxis([-0.3, 0.3], [-1.0, 1.0],
                                  trans.axis_nodes())] * 2)
        spec = TransferSpec(ContactMap.shear(2.0, 0.3), flow_amp())
        rep = model_spectrum(spec, [(flow, trans, pg)], 0.5)[0]
        mat = lift_kernel(spec, flow, trans, pg)
        dense = np.abs(flow.freq_spacing * pg.weight
                       * np.linalg.eigvals(mat))
        dense = np.sort(dense)[::-1]
        assert rep.refinement["reduced_rows"] == 144
        assert rep.eigenvalues.size == rep.refinement["rows"] == 64
        assert np.max(np.abs(rep.moduli - dense)) <= 1e-12 * dense[0]

    def test_block_diagonal_for_flow_independent_amplitude(self):
        flow, trans, pg = toy_setting()
        cmap = ContactMap.linear(sym_block(4.0))
        spec = TransferSpec(cmap, bump_amp(), name="bump")
        mat = lift_kernel(spec, flow, trans, pg)
        assert slice_defect(mat, flow.n_points) == 0

    def test_not_block_diagonal_with_flow_dependence(self):
        flow, trans, pg = toy_setting()
        cmap = ContactMap.linear(sym_block(4.0))
        spec = TransferSpec(cmap, flow_amp(), name="flow")
        mat = lift_kernel(spec, flow, trans, pg)
        assert slice_defect(mat, flow.n_points) > 1e-3


def axis_bump(y):
    return np.exp(-y ** 2 / 0.5)


def axis_one(y):
    return np.ones(y.shape, dtype=complex)


class TestPerAxisRoute:
    """The per-axis route against the block route as its oracle: the same
    map given as a full matrix, which lift_route never reads as diagonal,
    and the same AxisProduct amplitude."""

    # (axis factor, f_base)
    CASES = [(axis_bump, 0.0), (axis_one, 0.0), (axis_bump, 0.7)]
    CASE_IDS = ["bump", "constant", "bump-f_base"]

    @staticmethod
    def specs(factor, f_base, d=1):
        scales = np.array([4.0] * d + [0.25] * d)
        g = AxisProduct([factor] * (2 * d))
        return (TransferSpec(ContactMap.linear(scales, f_base), g),
                TransferSpec(ContactMap.linear(np.diag(scales), f_base), g))

    @pytest.mark.parametrize("n0", [4, 6])
    @pytest.mark.parametrize("factor, f_base", CASES, ids=CASE_IDS)
    def test_matches_block_eigvals(self, factor, f_base, n0):
        # the C10 levels, 64 and 96 reduced rows
        flow = FlowGrid(np.pi, n0)
        trans = make_grid(2, 0.7, 4)
        pg = dual_phase_grid(trans, n_freq=4)
        split, whole = self.specs(factor, f_base)
        assert (lift_route(split), lift_route(whole)) == ("per-axis", "block")
        rep = model_spectrum(split, [(flow, trans, pg)], 0.5)[0]
        want = np.sort(np.abs(np.linalg.eigvals(
            reduced_lift(whole, flow, trans, pg)).ravel()))[::-1]
        assert rep.refinement["route"] == "per-axis"
        assert rep.refinement["slice_blocks"] == n0
        assert rep.moduli.size == rep.refinement["reduced_rows"] == want.size
        assert np.max(np.abs(rep.moduli - want)) <= 1e-12 * want[0]
        block = model_spectrum(whole, [(flow, trans, pg)], 0.5)[0]
        assert block.refinement["route"] == "block"

    @pytest.mark.parametrize("d", [1, 2])
    def test_factors_rebuild_the_slice_blocks(self, d):
        # each slice block of reduced_lift, phase included, is the slice
        # scalar times the Kronecker product of its width's axis factors
        flow = FlowGrid(np.pi, 4)
        trans = make_grid(2 * d, 0.7, 4)
        pg = dual_phase_grid(trans, n_freq=4)
        split, whole = self.specs(axis_bump, 0.7, d)
        coef, factors, width = axis_lift(split, flow, trans, pg)
        # the slices at -2, -1, 0 and 1 have widths 2, 1, 1 and 1
        assert factors.shape == (2, 2 * d, 4, 4)
        blocks = reduced_lift(whole, flow, trans, pg)
        for s, block in enumerate(blocks):
            kron = coef[s] * functools.reduce(np.kron, factors[width[s]])
            assert np.max(np.abs(kron - block)) <= \
                1e-14 * np.max(np.abs(block))

    def test_builds_no_block(self, monkeypatch):
        # neither reduced_lift nor g itself is called: only the factors
        def refuse(*args):
            raise AssertionError("the block route was taken")
        monkeypatch.setattr(spectra, "reduced_lift", refuse)
        monkeypatch.setattr(AxisProduct, "__call__", refuse)
        flow, trans, pg = toy_setting()
        split, _ = self.specs(axis_bump, 0.0)
        rep = model_spectrum(split, [(flow, trans, pg)], 0.5)[0]
        assert rep.moduli.size == flow.n_points * trans.num_points

    def test_route_reads_structure_only(self):
        # a factor that raises is not called to choose the route, and an
        # amplitude that is a product only in value stays on the blocks
        def refuse(y):
            raise AssertionError("a factor was evaluated")
        scales = np.array([4.0, 0.25])
        assert lift_route(TransferSpec(ContactMap.linear(scales),
                                       AxisProduct([refuse] * 2))) \
            == "per-axis"
        for spec in (TransferSpec(ContactMap.linear(scales), bump_amp()),
                     TransferSpec(ContactMap.linear(scales), flow_amp()),
                     TransferSpec(ContactMap.linear(scales),
                                  AxisProduct([axis_bump])),
                     TransferSpec(ContactMap.shear(2.0, 0.3),
                                  AxisProduct([axis_bump] * 2))):
            assert lift_route(spec) == "block"

    def test_size_guard_before_factors(self, monkeypatch):
        from contactfbi import numerics

        def refuse(y):
            raise AssertionError("a factor was evaluated")
        flow, trans, pg = toy_setting()
        spec = TransferSpec(ContactMap.linear(np.array([4.0, 0.25])),
                            AxisProduct([refuse] * 2))
        monkeypatch.setattr(numerics, "DENSE_BYTES", 16)
        with pytest.raises(ValueError, match="per-axis factors and "
                           "eigenvalue list .* dense budget"):
            model_spectrum(spec, [(flow, trans, pg)], 0.5)

    def test_non_finite_factor_refused(self):
        flow, trans, pg = toy_setting()
        spec = TransferSpec(ContactMap.linear(np.array([4.0, 0.25])),
                            AxisProduct([axis_bump, lambda y: y / 0.0]))
        with np.errstate(divide="ignore", invalid="ignore"), \
                pytest.raises(ValueError, match="non-finite"):
            model_spectrum(spec, [(flow, trans, pg)], 0.5)


class TestLowerBoundFamily:

    def setup_method(self):
        self.flow = FlowGrid(np.pi, 16)
        self.trans = make_grid(2, 1.6, 16)
        self.pg = dual_phase_grid(self.trans, n_freq=18)
        cmap = ContactMap.shear(2.0, 0.2)
        self.spec = TransferSpec(cmap, bump_amp(), name="bump")
        self.wspec = WeightSpec()

    def test_ratios_positive_and_packets_orthogonal(self):
        # the window must stay wide relative to the flow spacing, else the
        # sampled packets degenerate into near-parallel edge spikes
        res = lower_bound_family(self.spec, self.flow, self.trans, self.pg,
                                 [2, 6], self.wspec, m=1.0)
        assert np.all(res["ratios"] > 0)
        gp = np.abs(res["gram_phi"])
        assert gp[0, 0] == pytest.approx(1.0, rel=1e-8)
        assert gp[0, 1] <= 0.1

    def test_nyquist_guard(self):
        with pytest.raises(ValueError):
            lower_bound_family(self.spec, self.flow, self.trans, self.pg,
                               [64], self.wspec)

    def test_lattice_guard(self):
        with pytest.raises(ValueError):
            lower_bound_family(self.spec, self.flow, self.trans, self.pg,
                               [2.5], self.wspec)

    def test_zero_amplitude(self):
        spec = TransferSpec(self.spec.map, zero_amp(), name="zero")
        res = lower_bound_family(spec, self.flow, self.trans, self.pg,
                                 [3], self.wspec,
                                 x_star=np.zeros(2))
        assert np.max(res["ratios"]) <= 1e-14

    def test_argmax_at_bump_center(self):
        x = expansion_argmax(self.spec, self.flow, self.trans)
        assert np.linalg.norm(x) <= 0.3


def flow_only_amp(pts):
    return 0.8 + 0.2 * np.cos(2.0 * pts[:, 0])


def central_setting(g=None, cmap=None):
    flow = FlowGrid(np.pi / 2.0, 8)
    if cmap is None:
        cmap = ContactMap.shear(2.0, 0.3)
    if g is None:
        g = flow_amp()
    spec = TransferSpec(cmap, g, name="central")
    wspec = WeightSpec(big_n=8.0)
    return spec, wspec, flow


def frame_pairs(f):
    """(out slice, in slice, frequency offset) of every pair in the band."""
    n0 = f.flow.n_points
    for t in range(f.eta0.size):
        for s in range(f.xi0.size):
            moff = int(f.xi_idx[s] - f.eta_idx[t])
            if abs(moff) <= f.dmax and abs(moff) <= n0 - 1:
                yield s, t, moff


def old_definition(blk):
    """The data of a block by its definition, built from frame.spec: on the
    quadrature for the true block, widths <eta0> / <xi0> and weights per
    slice; for the surrogate g at the origin, no flow shift, the points
    mapped by the Jacobian there, and widths and weights at k^2."""
    f = blk.frame
    ys = np.zeros((1, f.d2)) if blk.primed else f.ypts
    ghat = flow_fourier_coeffs(f.spec.g(_volume_points(f.flow, ys)), f.flow)
    if blk.primed:
        eta0, xi0 = np.full(f.eta0.size, f.kk), np.full(f.xi0.size, f.kk)
        kap_i, kap_o = eta0, xi0
        shift, mapped = 0.0, f.ypts @ f.bmat.T
    else:
        eta0, xi0 = f.eta0, f.xi0
        kap_i, kap_o = bracket(eta0), bracket(xi0)
        shift, mapped = f.spec.map.flow_shift(f.ypts), f.spec.map.f_dag(f.ypts)

    def weights(pg, freqs):
        pts = pg.points()
        return np.stack([cal_w_aniso(*slice_covectors(pts, x), f.wspec.r)
                         for x in freqs])
    return {"ghat": ghat, "shift": shift, "mapped": mapped, "kap_i": kap_i,
            "kap_o": kap_o, "scale": f.fs / np.sqrt(2.0 * np.pi),
            "col": f.col_cut / weights(f.pg_in, eta0),
            "row": weights(f.pg_out, xi0)}


def pair_apply(blk, u):
    """CentralBlock.apply as one slice transform per (out, in) pair."""
    f = blk.frame
    d = old_definition(blk)
    v = u * d["col"]
    out = np.zeros((f.xi0.size, f.pg_out.num_points), dtype=complex)
    for s, t, moff in frame_pairs(f):
        rec = reconstruct_slice(v[t].reshape(f.pg_in.shape()), f.pg_in,
                                d["kap_i"][t], d["mapped"])
        mid = d["ghat"][moff + f.flow.n_points - 1] * rec \
            * np.exp(1j * f.eta0[t] * d["shift"])
        out[s] += d["scale"] * _slice_forward(
            mid.reshape(f.y_shape), f.pg_out, d["kap_o"][s]).ravel()
    return out * d["row"]


def pair_apply_adjoint(blk, w):
    """CentralBlock.apply_adjoint as one scatter per (out, in) pair."""
    f = blk.frame
    d = old_definition(blk)
    wr = w * d["row"]
    acc = np.zeros((f.eta0.size, f.pg_in.num_points), dtype=complex)
    for s, t, moff in frame_pairs(f):
        back = _slice_adjoint(wr[s].reshape(f.pg_out.shape()), f.pg_out,
                              d["kap_o"][s]).ravel() \
            * (f.pg_out.y_weight / f.pg_out.weight)
        gfac = d["ghat"][moff + f.flow.n_points - 1] \
            * np.exp(1j * f.eta0[t] * d["shift"])
        acc[t] += d["scale"] * scatter_slice(np.conj(gfac) * back, f.pg_in,
                                            d["kap_i"][t], d["mapped"]).ravel()
    return (f.pg_out.weight / f.pg_in.weight) * acc * d["col"]


class TestCentralBlock:

    def test_vanishes_below_threshold(self):
        spec, _, flow = central_setting()
        res = central_block_audit(spec, 4, WeightSpec(big_n=32.0), flow)
        assert res["vanishes"] and res["norm_primed"] == 0.0

    def test_vanishes_when_cutoff_swallows_slab(self):
        # k^2 > N/2 but the q-tilde slab still sits inside the compact
        # cutoff, so the column cutoff is identically zero
        spec, _, flow = central_setting()
        res = central_block_audit(spec, 5, WeightSpec(big_n=32.0), flow)
        assert res["vanishes"]

    def test_adjoint_pairing(self):
        spec, wspec, flow = central_setting()
        frame = CentralFrame(spec, 6, wspec, flow)
        rng = np.random.default_rng(3)
        u = rng.standard_normal((frame.eta0.size, frame.pg_in.num_points)) \
            + 1j * rng.standard_normal((frame.eta0.size,
                                        frame.pg_in.num_points))
        w = rng.standard_normal((frame.xi0.size, frame.pg_out.num_points)) \
            + 1j * rng.standard_normal((frame.xi0.size,
                                        frame.pg_out.num_points))
        for primed in (False, True):
            blk = CentralBlock(frame, primed=primed)
            mu_in = frame.fs * frame.pg_in.weight
            mu_out = frame.fs * frame.pg_out.weight
            lhs = np.vdot(blk.apply(u).ravel(), w.ravel()) * mu_out
            rhs = np.vdot(u.ravel(), blk.apply_adjoint(w).ravel()) * mu_in
            assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), 1e-300)

    def test_matches_per_pair_loop(self):
        spec, wspec, flow = central_setting()
        frame = CentralFrame(spec, 6, wspec, flow)
        rng = np.random.default_rng(5)
        shape_in = (frame.eta0.size, frame.pg_in.num_points)
        shape_out = (frame.xi0.size, frame.pg_out.num_points)
        u = rng.standard_normal(shape_in) + 1j * rng.standard_normal(shape_in)
        w = rng.standard_normal(shape_out) \
            + 1j * rng.standard_normal(shape_out)
        for primed in (False, True):
            blk = CentralBlock(frame, primed=primed)
            # the first call builds the packet factors, the second reuses
            first = blk.apply(u)
            assert np.array_equal(first, blk.apply(u))
            for got, ref in ((first, pair_apply(blk, u)),
                             (blk.apply_adjoint(w),
                              pair_apply_adjoint(blk, w))):
                assert np.linalg.norm(got - ref) <= \
                    1e-13 * np.linalg.norm(ref)

    def test_second_application_builds_no_axis_factor(self, monkeypatch):
        # the block holds its on-grid axis matrices and the phase axes
        # memoize the off-grid ones, so only the first application may
        # evaluate a packet factor
        spec, wspec, flow = central_setting()
        frame = CentralFrame(spec, 6, wspec, flow)
        rng = np.random.default_rng(7)
        shape_in = (frame.eta0.size, frame.pg_in.num_points)
        shape_out = (frame.xi0.size, frame.pg_out.num_points)
        u = rng.standard_normal(shape_in) + 1j * rng.standard_normal(shape_in)
        w = rng.standard_normal(shape_out) \
            + 1j * rng.standard_normal(shape_out)
        calls = []
        original = partial_fbi._axis_factor

        def counted(*args):
            calls.append(args)
            return original(*args)
        monkeypatch.setattr(partial_fbi, "_axis_factor", counted)
        for primed in (False, True):
            blk = CentralBlock(frame, primed=primed)
            first = (blk.apply(u), blk.apply_adjoint(w))
            del calls[:]
            second = (blk.apply(u), blk.apply_adjoint(w))
            assert calls == []
            assert all(np.array_equal(a, b) for a, b in zip(first, second))

    def test_zero_amplitude_gives_zero_block(self):
        spec, wspec, flow = central_setting(g=zero_amp())
        frame = CentralFrame(spec, 6, wspec, flow)
        blk = CentralBlock(frame, primed=False)
        rng = np.random.default_rng(0)
        u = rng.standard_normal((frame.eta0.size, frame.pg_in.num_points))
        assert np.max(np.abs(blk.apply(u))) == 0.0

    def test_coincidence_linear_flow_amplitude(self):
        # linear map with an amplitude depending only on the flow
        # coordinate: the surrogate differs only through the frequency
        # freeze, so the difference stays below the block norm itself
        spec, wspec, flow = central_setting(
            g=flow_only_amp, cmap=ContactMap.linear(sym_block(2.0)))
        res = central_block_audit(spec, 6, wspec, flow, iters=8)
        assert not res["vanishes"]
        assert res["norm_primed"] > 0
        assert res["norm_diff"] < res["norm_primed"]

    def test_linearized_lift_of_linear_map_is_the_lift(self):
        # in the same setting the linearization is the operator itself, so
        # both specs give the same slice coupling and mapped points
        spec, wspec, flow = central_setting(
            g=flow_only_amp, cmap=ContactMap.linear(sym_block(2.0)))
        f = CentralFrame(spec, 6, wspec, flow)
        args = (f.flow, f.ypts, f.xi_idx, f.eta_idx, f.eta0, f.dmax)
        coupling, mapped = lift_coupling(f.spec, *args)
        lin_coupling, lin_mapped = lift_coupling(f.linearized, *args)
        assert np.max(np.abs(coupling)) > 0
        assert np.max(np.abs(lin_coupling - coupling)) <= \
            1e-15 * np.max(np.abs(coupling))
        assert np.max(np.abs(lin_mapped - mapped)) <= \
            1e-15 * np.max(np.abs(mapped))

    def test_lattice_miss_guard(self):
        spec, wspec, _ = central_setting()
        coarse = FlowGrid(np.pi / 24.0, 4)    # frequency spacing 24
        with pytest.raises(ValueError):
            CentralFrame(spec, 6, wspec, coarse)

    def test_surrogate_respects_expansion_bound(self):
        # moderate weight exponent keeps the cone-transition amplification
        # out of the picture, so a small constant suffices
        spec, _, flow = central_setting()
        wspec = WeightSpec(r=1.0, big_n=8.0)
        trans = make_grid(2, 1.2, 10)
        lam_fg, delta_fg, _ = lambda_delta(spec, flow, trans, 2.0, wspec.r)
        res = central_block_audit(spec, 6, wspec, flow, iters=8)
        bound = max(lam_fg, 1.0 * 2.0 ** (-wspec.r) * delta_fg)
        assert res["norm_primed"] <= 3.0 * bound
