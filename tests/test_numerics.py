"""Tests for grids, sampling and quadrature."""

import os
import subprocess
import sys
import textwrap
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import contactfbi
from contactfbi import fbi_core, spectra, transfer_ops
from contactfbi.contact_geometry import ContactMap
from contactfbi.fbi_core import PhaseField, dual_phase_grid
from contactfbi.numerics import (Field, GridSpec, check_dense, make_grid,
                                 operator_norm, quad_inner, sample)
from contactfbi.partial_fbi import FlowGrid
from contactfbi.transfer_ops import TransferSpec


def gaussian_l2(pts):
    # pi^(-1/4) e^(-y^2/2), unit L2 norm in one dimension
    y = pts[:, 0]
    return np.pi ** (-0.25) * np.exp(-y ** 2 / 2.0)


class TestMakeGrid:

    def test_basic_1d(self):
        g = make_grid(1, 8.0, 64)
        assert g.spacing == pytest.approx(0.25)
        assert g.num_points == 64
        nodes = g.axis_nodes()
        assert nodes[0] == pytest.approx(-8.0 + 0.125)
        assert nodes[-1] == pytest.approx(8.0 - 0.125)

    def test_basic_2d(self):
        g = make_grid(2, 6.0, 48)
        assert g.num_points == 2304
        assert g.nodes().shape == (2304, 2)

    def test_rejects_odd(self):
        with pytest.raises(ValueError):
            make_grid(1, 8.0, 3)

    def test_rejects_tiny(self):
        with pytest.raises(ValueError):
            make_grid(1, 8.0, 2)

    def test_rejects_nonpositive_width(self):
        with pytest.raises(ValueError):
            make_grid(1, 0.0, 16)

    def test_quadrature_weight(self):
        g = make_grid(2, 6.0, 48)
        assert g.weight == pytest.approx(g.spacing ** 2)

    # even counts as make_grid builds them, odd ones through GridSpec
    @pytest.mark.parametrize("half, n", [
        (1.6, 14), (5.0, 26), (1.2, 10), (6.0, 36), (1.0, 5), (2.0, 7),
        (1.0, 1)])
    def test_axis_nodes_are_exactly_antisymmetric(self, half, n):
        # the second half is the negated first half, which keeps its
        # midpoint nodes -L + (j + 1/2) h bit for bit; the middle node of
        # an odd count is 0
        g = GridSpec(1, half, n)
        nodes = g.axis_nodes()
        assert nodes.shape == (n,)
        assert np.array_equal(nodes[::-1], -nodes)
        j = np.arange(n // 2)
        assert np.array_equal(nodes[:n // 2],
                              -g.half_width + (j + 0.5) * g.spacing)
        if n % 2:
            assert nodes[n // 2] == 0.0
        assert np.max(np.abs(nodes - (-g.half_width + (np.arange(n) + 0.5)
                                      * g.spacing))) <= 1e-14 * half


class TestSample:

    def test_constant(self):
        g = make_grid(1, 4.0, 16)
        u = sample(lambda p: np.ones(p.shape[0]), g)
        assert np.allclose(u.values, 1.0)

    def test_gaussian_node_zero(self):
        g = make_grid(1, 4.0, 16)
        u = sample(lambda p: np.exp(-np.sum(p ** 2, axis=-1) / 2.0), g)
        n0 = g.axis_nodes()[0]
        assert u.values[0] == pytest.approx(np.exp(-n0 ** 2 / 2.0))

    def test_nan_rejected(self):
        g = make_grid(1, 4.0, 16)
        with pytest.raises(ValueError):
            sample(lambda p: np.full(p.shape[0], np.nan), g)

    def test_scalar_return_rejected(self):
        g = make_grid(1, 4.0, 16)
        with pytest.raises(ValueError, match="1 values for 16"):
            sample(lambda p: 1.0, g)


class TestDenseBudget:

    def test_budget_is_two_times_ten_to_seven_entries(self):
        check_dense(4472, 4472, "square")
        with pytest.raises(ValueError, match=r"4473 x 4473 matrix "
                           r"\(320123664 bytes\).*320000000 bytes"):
            check_dense(4473, 4473, "square")

    @pytest.mark.parametrize("routine", [
        "model_spectrum", "lift_kernel", "weighted_norm_measure",
        "apply_p_omega", "lift_linear", "l0_hat"])
    def test_one_budget_holds_one_matrix(self, routine, monkeypatch):
        # one call peaks at about the one dense matrix it checked against
        # the budget, not at copies of it
        checked = []

        def record(rows, cols, what):
            check_dense(rows, cols, what)
            checked.append(16 * rows * cols)
        for mod in (fbi_core, spectra, transfer_ops):
            monkeypatch.setattr(mod, "check_dense", record)
        b4 = np.diag([4.0, 0.25])
        spec = TransferSpec(ContactMap.linear(b4), lambda p: np.exp(
            -np.sum(p[:, 1:] ** 2, axis=-1) / 0.5))
        trans = make_grid(2, 0.7, 4)
        level = (FlowGrid(np.pi, 4), trans, dual_phase_grid(trans, n_freq=4))
        # 8 slices x 12^2 nodes: a 1,152-row reduced lift
        nodes = make_grid(2, 1.6, 12)
        reduced = (FlowGrid(np.pi, 8), nodes,
                   dual_phase_grid(nodes, n_freq=12))
        plane = make_grid(2, 6.0, 36)
        u = Field(plane, np.exp(-np.sum(plane.nodes() ** 2, axis=-1)))
        pg = dual_phase_grid(make_grid(2, 1.2, 6), n_freq=6)
        v = PhaseField(pg, np.ones(pg.shape(), dtype=complex))
        calls = {
            "model_spectrum": lambda: spectra.model_spectrum(
                spec, [reduced], 0.5),
            "lift_kernel": lambda: transfer_ops.lift_kernel(spec, *level),
            "weighted_norm_measure": lambda: spectra.weighted_norm_measure(
                b4, [1.0], 1.0, half_widths=(14.0, 14.0)),
            "apply_p_omega": lambda: fbi_core.apply_p_omega(
                u, fbi_core.dagger_form_matrix(2)),
            "lift_linear": lambda: fbi_core.lift_linear(
                np.array([[1.0, 0.5], [0.0, 1.0]]), v),
            "l0_hat": lambda: fbi_core.l0_hat(b4, u),
        }
        tracemalloc.start()
        try:
            calls[routine]()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        if routine == "model_spectrum":
            # the solve is checked first for the reduced lift and the copy
            # np.linalg.eigvals makes of it in memory numpy does not trace
            # (spectra.check_solve_budget), then reduced_lift checks the
            # one matrix it builds
            assert len(checked) == 2 and checked[0] == 2 * checked[1]
            checked = checked[1:]
            # the amplitude is constant along the flow, so the factor is
            # built and solved as 8 slice blocks, not as the whole matrix
            assert peak <= 0.5 * checked[0], peak / checked[0]
        assert len(checked) == 1 and checked[0] >= 10 ** 7
        assert peak <= 1.5 * checked[0], peak / checked[0]

    def test_input_checks_survive_optimized_mode(self):
        # python -O strips assert statements; these checks must still raise
        # their own ValueError, told apart from one numpy raises later by
        # a fragment of the package's message
        script = textwrap.dedent("""
            from types import SimpleNamespace
            import numpy as np
            from contactfbi.aniso_norm import (WeightSpec, chi_n,
                                               q_tilde_support)
            from contactfbi.contact_geometry import (AffineContactMap,
                                                     ContactMap)
            from contactfbi.fbi_core import (LinearHyperbolicMap, PhaseAxis,
                                             PhaseField, PhaseGrid,
                                             PhaseSpacePoint, apply_p_omega,
                                             dual_phase_grid, fbi_adjoint,
                                             fbi_forward, fbi_forward_at,
                                             l0_hat,
                                             lift_linear, projection_kernel)
            from contactfbi.numerics import (Field, GridSpec, check_dense,
                                             make_grid)
            from contactfbi.partial_fbi import (FlowGrid, PartialPacketIndex,
                                                PartialPhaseField, VolumeField,
                                                pfbi_adjoint, pfbi_forward,
                                                reconstruct_slice,
                                                scatter_slice)
            from contactfbi.aniso_norm import v_s
            from contactfbi.spectra import (CentralBlock, CentralFrame,
                                            SpectrumReport, _axis_lattice,
                                            lower_bound_family,
                                            weighted_gram,
                                            weighted_norm_measure)
            from contactfbi.transfer_ops import (TransferSpec,
                                                 kernel_bound_audit,
                                                 lambda_delta, lift_apply)
            assert False, "assert statements are not stripped"
            th = np.pi / 6.0
            rot = np.array([[np.cos(th), -np.sin(th)],
                            [np.sin(th), np.cos(th)]])
            spec = TransferSpec(ContactMap.shear(2.0, 0.3), lambda p: np.exp(
                -np.sum(p[:, 1:] ** 2, axis=-1)))
            block = CentralBlock(CentralFrame(
                spec, 3, WeightSpec(big_n=8.0), FlowGrid(np.pi / 2.0, 2)),
                primed=False)
            flow, trans = FlowGrid(np.pi, 2), make_grid(2, 1.2, 4)
            pg = dual_phase_grid(trans, n_freq=4)
            four_slices = PartialPhaseField(FlowGrid(np.pi, 4), pg,
                                            np.zeros((4,) + pg.shape()))
            b4 = np.diag([4.0, 0.25])
            # a map whose Jacobian vanishes, so E^+ has zero volume
            flat = TransferSpec(SimpleNamespace(
                d=1, jacobian=lambda p: np.zeros((3, 3))),
                lambda p: np.ones(p.shape[0]))
            cases = {
                "not symplectic": ("not symplectic", lambda: ContactMap.linear(
                    np.diag([2.0, 1.0]))),
                "norm s below one": ("s must be at least 1",
                                     lambda: weighted_norm_measure(
                                         b4, [0.5], 0.0,
                                         half_widths=(2.0, 2.0))),
                "norm half widths": ("1 half widths for a 2-dimensional",
                                     lambda: weighted_norm_measure(
                                         b4, [1.0], 0.0, half_widths=(2.0,))),
                # W^2r under- and overflows at r = 1000: zero or nan
                "norm weight": ("not positive and finite",
                                lambda: weighted_norm_measure(
                                    b4, [1.0], 1000.0,
                                    half_widths=(10.0, 10.0))),
                "lattice": ("positive half width and step",
                            lambda: _axis_lattice(2.0, 0.0)),
                "frame k": ("k must be at least 1", lambda: CentralFrame(
                    spec, 0, WeightSpec(big_n=8.0), FlowGrid(np.pi, 2))),
                "v_s": ("s must be at least 1",
                        lambda: v_s(np.zeros((1, 2)), 0.5, 1.0)),
                "report": ("non-finite eigenvalue",
                           lambda: SpectrumReport([1.0, np.nan], {}, 0.5)),
                "block apply": ("block input of shape (1, 1)",
                                lambda: block.apply(np.zeros((1, 1)))),
                "block adjoint": ("block input of shape (1, 1)",
                                  lambda: block.apply_adjoint(
                                      np.zeros((1, 1)))),
                "lift_apply slices": ("4 flow slices, the lift 2",
                                      lambda: lift_apply(spec, flow, trans,
                                                         pg, four_slices)),
                "small band": ("frequency count 16 too small",
                               lambda: dual_phase_grid(make_grid(1, 8.0, 32),
                                                       n_freq=16)),
                "rotation": ("cone/expansion certificate failed",
                             lambda: LinearHyperbolicMap(rot, lam=1.0)),
                "non-unimodular": ("unit determinant",
                                   lambda: LinearHyperbolicMap(
                                       np.diag([4.0, 0.5]), lam=1.0)),
                "odd map": ("square matrix of even size, got shape (3, 3)",
                            lambda: LinearHyperbolicMap(np.eye(3), lam=1.0)),
                "non-square map": ("square matrix of even size, got shape "
                                   "(2, 4)", lambda: LinearHyperbolicMap(
                                       np.ones((2, 4)), lam=1.0)),
                "point shape": ("phase space point with center of shape "
                                "(1,) and frequency of shape (2,)",
                                lambda: PhaseSpacePoint([0.0], [0.0, 0.0])),
                "point finite": ("non-finite phase space point",
                                 lambda: PhaseSpacePoint([0.0], [np.inf])),
                "space grid": ("same quadrature on every axis",
                               lambda: PhaseGrid([
                                   PhaseAxis([0.0, 1.0], [0.0, 1.0],
                                             [0.0, 1.0]),
                                   PhaseAxis([0.0, 1.0], [0.0, 1.0],
                                             [0.0, 0.5])]).space_grid()),
                "point set width": ("points of shape (2, 3) for a "
                                    "2-dimensional field; need width 4",
                                    lambda: fbi_forward_at(
                                        Field(trans, np.zeros(16)),
                                        np.zeros((2, 3)))),
                "over budget": ("above the dense budget",
                                lambda: check_dense(10 ** 5, 10 ** 5, "big")),
                "field": ("value count 3 does not match",
                          lambda: Field(trans, np.zeros(3))),
                "phase field": ("does not match phase grid",
                                lambda: PhaseField(pg, np.zeros(3))),
                "volume field": ("shape (2, 3) does not match",
                                 lambda: VolumeField(flow, trans,
                                                     np.zeros((2, 3)))),
                "partial phase field": ("shape (3, 4, 4, 4, 4) does not match",
                                        lambda: PartialPhaseField(
                                            flow, pg,
                                            np.zeros((3,) + pg.shape()))),
                "forward dimension": ("a 1-dimensional field on a "
                                      "2-dimensional phase grid",
                                      lambda: fbi_forward(
                                          Field(make_grid(1, 1.2, 4),
                                                np.zeros(4)), pg)),
                "forward node count": ("4 quadrature nodes per axis, the "
                                       "field 6", lambda: fbi_forward(
                                           Field(make_grid(2, 1.2, 6),
                                                 np.zeros(36)), pg)),
                "forward nodes": ("quadrature nodes differ",
                                  lambda: fbi_forward(
                                      Field(make_grid(2, 1.0, 4),
                                            np.zeros(16)), pg)),
                "partial nodes": ("quadrature nodes differ",
                                  lambda: pfbi_forward(VolumeField(
                                      flow, make_grid(2, 1.0, 4),
                                      np.zeros((2, 4, 4))), pg)),
                "adjoint nodes": ("quadrature nodes differ",
                                  lambda: fbi_adjoint(
                                      PhaseField(pg, np.zeros(pg.shape())),
                                      make_grid(2, 1.0, 4))),
                "partial adjoint node count": ("4 quadrature nodes per axis, "
                                               "the field 6",
                                               lambda: pfbi_adjoint(
                                                   four_slices,
                                                   make_grid(2, 1.2, 6))),
                "gram flow grids": ("different flow grids",
                                    lambda: weighted_gram([
                                        VolumeField(flow, trans,
                                                    np.zeros((2, 4, 4))),
                                        VolumeField(FlowGrid(np.pi, 4), trans,
                                                    np.zeros((4, 4, 4)))],
                                        pg, WeightSpec())),
                "flow points": ("even number of points",
                                lambda: FlowGrid(np.pi, 3)),
                "point width": ("points of width 3",
                                lambda: reconstruct_slice(
                                    np.zeros(pg.shape()), pg, 1.0,
                                    np.zeros((2, 3)))),
                "scatter count": ("3 values for 2 points",
                                  lambda: scatter_slice(
                                      np.zeros(3), pg, 1.0,
                                      np.zeros((2, 2)))),
                "amplitude": ("g must be callable",
                              lambda: TransferSpec(spec.map, 1.0)),
                "rho": ("rho must be positive",
                        lambda: kernel_bound_audit(spec, flow, trans, pg,
                                                   rho=0.0)),
                "audit samples": ("needs n_per_stratum >= 1, got 0",
                                  lambda: kernel_bound_audit(
                                      spec, flow, trans, pg, rho=1.0,
                                      n_per_stratum=0)),
                "omega shape": ("omega must be a square matrix",
                                lambda: apply_p_omega(
                                    Field(trans, np.zeros(16)), np.eye(3))),
                "lift shape": ("lifted map of shape (3, 3) on a "
                               "2-dimensional phase grid",
                               lambda: lift_linear(
                                   np.eye(3), PhaseField(
                                       pg, np.zeros(pg.shape())))),
                "l0_hat dimension": ("L0_hat of a 4 x 4 matrix on a "
                                     "2-dimensional grid",
                                     lambda: l0_hat(
                                         np.eye(4),
                                         Field(trans, np.zeros(16)))),
                "packet index shape": ("center of shape (1,) and frequency "
                                       "of shape (2,) differ",
                                       lambda: PartialPacketIndex(
                                           [0.0], 1.0, [0.0, 0.0])),
                "packet index center": ("non-finite packet center",
                                        lambda: PartialPacketIndex(
                                            [np.nan], 1.0, [0.0])),
                "packet index flow": ("non-finite flow frequency",
                                      lambda: PartialPacketIndex(
                                          [0.0], np.inf, [0.0])),
                "packet index frequency": ("non-finite transversal frequency",
                                           lambda: PartialPacketIndex(
                                               [0.0], 1.0, [np.nan])),
                "empty gram": ("needs at least one volume field",
                               lambda: weighted_gram([], pg, WeightSpec())),
                # the window chi(4 |y - x|) around x = (10, 10) misses the box
                "test packet": ("degenerate test packet",
                                lambda: lower_bound_family(
                                    spec, flow, trans, pg, [0.0],
                                    WeightSpec(), x_star=[10.0, 10.0])),
                "unstable jacobian": ("degenerate unstable Jacobian",
                                      lambda: lambda_delta(flat, flow, trans,
                                                           4.0, 1.0)),
                "dyadic index": ("n must be at least 0",
                                 lambda: chi_n(1.0, -1)),
                "q_tilde support": ("needs k > 0",
                                    lambda: q_tilde_support(0)),
                "affine c": ("1-D c of odd size, got shape (2,)",
                             lambda: AffineContactMap([0.0, 1.0])),
                "affine compose": ("maps of d = 1 and d = 2",
                                   lambda: AffineContactMap(
                                       np.zeros(3)).compose(
                                           AffineContactMap(np.zeros(5)))),
                "grid dimension": ("integer of at least 1, got 1.5",
                                   lambda: GridSpec(1.5, 1.0, 4)),
                "grid spacing": ("spacing must be positive",
                                 lambda: GridSpec(1, 0.0, 4)),
                "grid points": ("spacing must be positive, got half width "
                                "1.0 and 0 points",
                                lambda: GridSpec(1, 1.0, 0)),
                "packet dimensions": ("packets of dimensions 1 and 2",
                                      lambda: projection_kernel(
                                          PhaseSpacePoint([0.0], [0.0]),
                                          PhaseSpacePoint([0.0, 0.0],
                                                          [0.0, 0.0]))),
            }
            for name, (fragment, case) in cases.items():
                try:
                    case()
                except ValueError as err:
                    if fragment in str(err):
                        continue
                    raise SystemExit("%s: %r lacks %r" % (name, str(err),
                                                          fragment))
                raise SystemExit("no ValueError for " + name)
            print("ok")
        """)
        src = os.path.dirname(os.path.dirname(contactfbi.__file__))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [src] + [p for p in [env.get("PYTHONPATH")] if p])
        run = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                             capture_output=True, text=True, timeout=120)
        assert run.returncode == 0, run.stderr
        assert run.stdout.strip() == "ok"


class TestQuadInner:

    def test_unit_gaussian(self):
        g = make_grid(1, 8.0, 256)
        u = sample(gaussian_l2, g)
        val = quad_inner(u, u)
        assert abs(val - 1.0) <= 1e-10

    def test_zero(self):
        g = make_grid(1, 4.0, 16)
        u = Field(g, np.zeros(16))
        v = sample(gaussian_l2, g)
        assert quad_inner(u, v) == 0.0

    def test_oscillatory_pair(self):
        # Bump-windowed e^{iy} against e^{2iy}; the reference value comes
        # from a 4x finer grid and both must agree to quadrature tolerance.
        def wind(p):
            y = p[:, 0]
            w = np.exp(-y ** 2)
            return w

        def f1(p):
            return np.exp(1j * p[:, 0]) * wind(p)

        def f2(p):
            return np.exp(2j * p[:, 0]) * wind(p)

        g = make_grid(1, 8.0, 256)
        gf = make_grid(1, 8.0, 1024)
        val = quad_inner(sample(f1, g), sample(f2, g))
        ref = quad_inner(sample(f1, gf), sample(f2, gf))
        assert abs(val - ref) <= 1e-10
        # closed form: integral of e^{-2y^2} e^{iy} = sqrt(pi/2) e^{-1/8}
        exact = np.sqrt(np.pi / 2.0) * np.exp(-0.125)
        assert abs(val - exact) <= 1e-10

    def test_grid_mismatch(self):
        u = sample(gaussian_l2, make_grid(1, 8.0, 64))
        v = sample(gaussian_l2, make_grid(1, 8.0, 128))
        with pytest.raises(ValueError):
            quad_inner(u, v)

    def test_refinement_consistency(self):
        def f(p):
            return np.exp(-np.sum(p ** 2, axis=-1) / 2.0)

        def h(p):
            return np.exp(-np.sum((p - 0.5) ** 2, axis=-1))

        vals = []
        for n in (128, 256):
            g = make_grid(1, 8.0, n)
            vals.append(quad_inner(sample(f, g), sample(h, g)))
        assert abs(vals[0] - vals[1]) <= 1e-8


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_quad_inner_conjugate_symmetric(seed):
    rng = np.random.default_rng(seed)
    g = make_grid(1, 4.0, 16)
    u = Field(g, rng.standard_normal(16) + 1j * rng.standard_normal(16))
    v = Field(g, rng.standard_normal(16) + 1j * rng.standard_normal(16))
    assert quad_inner(u, v) == np.conj(quad_inner(v, u))
    self_val = quad_inner(u, u)
    assert self_val.imag == 0.0
    assert self_val.real >= 0.0


class TestOperatorNorm:

    def test_diagonal_matrix(self):
        d = np.array([3.0, 1.0, 0.5])
        mv = lambda v: d * v
        assert operator_norm(mv, mv, 3) == pytest.approx(3.0, rel=1e-8)

    def test_matrix_norm_matches_svd(self):
        # an integral-operator matrix between weighted l2 spaces, written
        # in orthonormal coordinates: sqrt(row w) * m * sqrt(col w)
        rng = np.random.default_rng(1)
        m = rng.standard_normal((20, 15)) + 1j * rng.standard_normal((20, 15))
        rw, cw = rng.uniform(0.1, 1.0, 20), rng.uniform(0.1, 1.0, 15)
        scaled = np.sqrt(rw)[:, None] * m * np.sqrt(cw)[None, :]
        est = operator_norm(lambda v: scaled @ v,
                            lambda v: scaled.conj().T @ v, 15)
        assert est == pytest.approx(np.linalg.norm(scaled, 2), rel=1e-12)

    def test_matrix_norm_weighted(self):
        # a kernel acting as the identity on a weighted grid has norm 1
        # regardless of the weight
        w = np.array([0.5, 0.5, 0.25, 0.25])
        ident = np.sqrt(w)[:, None] * np.diag(1.0 / w) * np.sqrt(w)[None, :]
        mv = lambda v: ident @ v
        assert operator_norm(mv, mv, 4) == pytest.approx(1.0, rel=1e-12)

    def test_matches_two_dimensional_pair_loop(self):
        # the central-block audit's former loop, on a (3, 8) index set
        def pair_loop(matvec, rmatvec, shape, iters, restarts, seed):
            rng = np.random.default_rng(seed)
            best = 0.0
            for _ in range(restarts):
                v = rng.standard_normal(shape) + \
                    1j * rng.standard_normal(shape)
                v /= np.linalg.norm(v.ravel())
                est = 0.0
                for _ in range(iters):
                    av = matvec(v)
                    v2 = rmatvec(av)
                    num = float(np.real(np.vdot(v.ravel(), v2.ravel())))
                    size = float(np.linalg.norm(v2.ravel()))
                    if size == 0.0 or num <= 0.0:
                        est = max(est, 0.0)
                        break
                    est = np.sqrt(num)
                    v = v2 / size
                best = max(best, est)
            return best

        rng = np.random.default_rng(2)
        a = rng.standard_normal((5, 4, 3, 8)) + \
            1j * rng.standard_normal((5, 4, 3, 8))
        mv = lambda u: np.tensordot(a, u, axes=2)
        rmv = lambda w: np.tensordot(a.conj(), w, axes=([0, 1], [0, 1]))
        for iters, seed in ((20, 0), (7, 3)):
            want = pair_loop(mv, rmv, (3, 8), iters, 2, seed)
            assert operator_norm(mv, rmv, (3, 8), iters=iters, restarts=2,
                                 seed=seed) == want
        dense = a.reshape(20, 24)
        assert operator_norm(mv, rmv, (3, 8)) == pytest.approx(
            np.linalg.norm(dense, 2), rel=1e-12)

    def test_zero_operator(self):
        zero = lambda v: np.zeros_like(v)
        assert operator_norm(zero, zero, (2, 3)) == 0.0
