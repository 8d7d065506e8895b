"""Curvature and Koszul-form identities, checked against symbolic oracles.

Point probes on the sin1d family (g = 2 + sin x) use values derived from
the closed forms

    alpha = cos x / (2 (2 + sin x))
    beta  = (2 sin x + 1) / (2 + sin x)^2        kappa = -beta / 2
    Q     = -sin(x)/2 - cos^2(x) / (2 (2 + sin x))
    H     = Q / g^2   (sectional form; max +1/2 at 3pi/2,
                       min -0.0658436 at x = 0.252680 by dense scan)

Mutual-consistency pairs (two independent discrete routes to one tensor)
are checked at truncation level with an order-2 refinement ratio.
"""

import itertools
import re
import warnings

import numpy as np
import pytest

from koszulflow import geometry as geo
from koszulflow.grid import PeriodicGrid, ScalarField, partial3, partial4, stencil

TWO_PI = 2.0 * np.pi
LINE = PeriodicGrid((16,), (1.0,))


def sin1d(n_nodes=512):
    grid = PeriodicGrid((n_nodes,), (TWO_PI,))
    psi = ScalarField.from_function(grid, lambda x: -np.sin(x))
    return geo.PotentialMetric(grid, np.array([[2.0]]), psi)


def bump2d(n_nodes=128):
    grid = PeriodicGrid((n_nodes, n_nodes), (TWO_PI, TWO_PI))
    psi = ScalarField.from_function(grid, lambda x, y: 0.1 * np.cos(x) * np.cos(y))
    return geo.PotentialMetric(grid, np.eye(2), psi)


def wavy2d(n_nodes=128):
    # non-separable potential: genuinely curved, used where bump2d's
    # (accidentally flat) metric would make a check vacuous
    grid = PeriodicGrid((n_nodes, n_nodes), (TWO_PI, TWO_PI))
    psi = ScalarField.from_function(
        grid,
        lambda x, y: 0.1 * np.cos(x) * np.cos(y)
        + 0.05 * np.sin(2 * x + y)
        + 0.03 * np.cos(x + 2 * y),
    )
    return geo.PotentialMetric(grid, np.eye(2), psi)


def flat2d(n_nodes=32):
    grid = PeriodicGrid((n_nodes, n_nodes), (TWO_PI, TWO_PI))
    return geo.PotentialMetric(grid, np.eye(2), ScalarField.zeros(grid))


def twist2d(n_nodes=128):
    grid = PeriodicGrid((n_nodes, n_nodes), (TWO_PI, TWO_PI))
    _, y = grid.coordinate_arrays()
    comps = np.stack(
        [1.0 + 0.3 * np.sin(y), np.zeros(grid.shape), np.ones(grid.shape)], axis=-1
    )
    return geo.MetricField(grid, comps)


def node_at(grid, x):
    return grid.nearest_node((x,) if np.isscalar(x) else x)


class TestMetricFromPotential:
    def test_flat_is_exact_identity(self):
        g = geo.metric_from_potential(flat2d())
        assert np.all(g.component(0, 0) == 1.0)
        assert np.all(g.component(0, 1) == 0.0)
        assert np.all(g.component(1, 1) == 1.0)

    def test_sin1d_matches_stencil_symbol(self):
        # composed first differences turn -sin into sin(x) * (sin h / h)^2
        pm = sin1d(512)
        g = geo.metric_from_potential(pm)
        h = pm.grid.spacings[0]
        x = pm.grid.axis_coordinates(0)
        symbol = (np.sin(h) / h) ** 2
        assert np.max(np.abs(g.component(0, 0) - (2.0 + np.sin(x) * symbol))) <= 1e-11
        assert np.max(np.abs(g.component(0, 0) - (2.0 + np.sin(x)))) <= 6e-5

    def test_nonconvex_potential_rejected(self):
        grid = PeriodicGrid((512,), (TWO_PI,))
        pm = geo.PotentialMetric(
            grid, np.eye(1), ScalarField.from_function(grid, lambda x: -10 * np.sin(x))
        )
        with pytest.raises(geo.NotPositiveDefinite) as info:
            geo.metric_from_potential(pm)
        assert info.value.min_eigenvalue < 0

    def test_huge_two_dimensional_metric_is_positive_definite(self):
        # the closed form squared (a - c)/2 and b unscaled, so entries above
        # about 1e154 gave the radius inf and the smallest eigenvalue -inf
        grid = PeriodicGrid((8, 8), (TWO_PI,) * 2)
        comps = np.empty((8, 8, 3))
        comps[:4] = [1e160, 0.0, 1e150]
        comps[4:] = [2.0, 0.5, 1.0]
        pm = geo.PotentialMetric(grid, 1e200 * np.eye(2), ScalarField.from_function(
            grid, lambda x, y: 1e190 * np.cos(x) * np.cos(y)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            huge = geo.MetricField(grid, np.broadcast_to(comps[0, 0], comps.shape))
            g = geo.MetricField(grid, comps)
            eigs = geo.sym_min_eigenvalues(comps, 2)
            smallest, largest, band = geo._sym_eigen_screen(comps.reshape(-1, 3), 2)
            assert geo.metric_from_potential(pm).min_eigenvalue() > 1e199
        # an exact power-of-two scaling: the bits of the scaled-down matrix, scaled up
        scaled = np.ldexp(geo.sym_min_eigenvalues(np.ldexp(comps[:4], -600), 2), 600)
        assert np.array_equal(eigs[:4], scaled) and huge.min_eigenvalue() == scaled[0, 0]
        assert g.min_eigenvalue() == eigs.min()
        # the other nodes keep the bits of the unscaled closed form
        assert np.all(eigs[4:] == 0.5 * (2.0 + 1.0) - np.sqrt((0.5 * (2.0 - 1.0)) ** 2 + 0.5 * 0.5))
        assert np.array_equal(smallest, eigs.ravel()) and np.all(np.isfinite(band))
        assert np.all(np.abs(largest[:32] - 1e160) <= band[:32])

    # case -> (a call the library rejects, the exception, the message it names)
    REJECTED = {
        "components-of-wrong-shape": (lambda: geo.Sym2Field(LINE, np.zeros((16, 2))), ValueError,
                                      "component shape (16, 2) does not match (16, 1)"),
        "attribute-set-on-a-field": (lambda: setattr(geo.Sym2Field(LINE, np.ones((16, 1))), "grid", LINE),
                                     AttributeError, "Sym2Field is immutable"),
        "metrics-on-different-grids": (lambda: geo.pencil_eigenvalue_range(geo.metric_from_potential(sin1d(16)),
                                                                           geo.metric_from_potential(sin1d(32))),
                                       ValueError, "metrics live on different grids"),
        "background-of-wrong-shape": (lambda: geo.PotentialMetric(LINE, np.eye(2), ScalarField.zeros(LINE)),
                                      ValueError, "background must be 1x1, got (2, 2)"),
        "background-not-symmetric": (lambda: geo.PotentialMetric(flat2d(8).grid, np.array([[1.0, 0.5], [0.0, 1.0]]),
                                                                 flat2d(8).psi),
                                     ValueError, "background matrix must be symmetric"),
        "psi-on-another-grid": (lambda: geo.PotentialMetric(LINE, np.eye(1), sin1d(32).psi), ValueError,
                                "potential lives on a different grid"),
        "no-sectional-samples": (lambda: geo.sectional_extremes(geo.hessian_curvature(sin1d(16)),
                                                                geo.metric_from_potential(sin1d(16)), n_samples=0),
                                 ValueError, "n_samples must be >= 1"),
    }

    @pytest.mark.parametrize("case", sorted(REJECTED))
    def test_rejected_call_names_its_message(self, case):
        call, error, message = self.REJECTED[case]
        with pytest.raises(error, match=re.escape(message)):
            call()

    def test_background_validation(self):
        grid = PeriodicGrid((16,), (1.0,))
        with pytest.raises(ValueError):
            geo.PotentialMetric(grid, -np.eye(1), ScalarField.zeros(grid))


class TestHessianDefect:
    def test_potential_metrics_are_discretely_hessian(self):
        for pm in (sin1d(512), bump2d(128), wavy2d(64)):
            g = geo.metric_from_potential(pm)
            assert geo.hessian_defect(g) <= 1e-12

    def test_flat_defect_exactly_zero(self):
        assert geo.hessian_defect(geo.metric_from_potential(flat2d())) == 0.0

    def test_twist2d_defect_matches_closed_form(self):
        tw = twist2d(128)
        h = tw.grid.spacings[1]
        expected = 0.3 * np.sin(h) / h  # sup of the discrete derivative of 0.3 sin y
        assert geo.hessian_defect(tw) == pytest.approx(expected, abs=1e-12)
        assert geo.hessian_defect(tw) == pytest.approx(0.3, abs=2e-3)


class TestChristoffel:
    def test_flat_vanishes_exactly(self):
        gm, gl = geo.christoffel(geo.metric_from_potential(flat2d()))
        assert np.all(gm == 0.0)
        assert np.all(gl == 0.0)

    def test_sin1d_point_probes(self):
        pm = sin1d(512)
        gm, gl = geo.christoffel(geo.metric_from_potential(pm))
        assert gm[0, 0, 0, 0] == pytest.approx(0.25, abs=1e-4)  # g'/(2g) at 0
        assert gl[0, 0, 0, 0] == pytest.approx(0.5, abs=1e-4)  # g'/2 at 0

    def test_symmetric_in_lower_slots(self):
        gm, gl = geo.christoffel(geo.metric_from_potential(wavy2d(64)))
        assert np.array_equal(gm, np.swapaxes(gm, -2, -1))
        assert np.max(np.abs(gl - np.swapaxes(gl, -2, -1))) <= 1e-15


class TestKoszul:
    def test_flat_vanishes_exactly(self):
        alpha, kappa, beta = geo.koszul(geo.metric_from_potential(flat2d()))
        assert np.all(alpha == 0.0)
        assert np.all(kappa.components == 0.0)
        assert np.all(beta.components == 0.0)

    def test_sin1d_point_probes(self):
        pm = sin1d(512)
        grid = pm.grid
        alpha, kappa, beta = geo.koszul(geo.metric_from_potential(pm))
        k = node_at(grid, np.pi / 2)
        assert alpha[0, 0] == pytest.approx(0.25, abs=1e-4)
        assert kappa.component(0, 0)[0] == pytest.approx(-0.125, abs=1e-4)
        assert beta.component(0, 0)[0] == pytest.approx(0.25, abs=1e-4)
        assert beta.component(0, 0)[k] == pytest.approx(1.0 / 3.0, abs=1e-4)

    def test_kappa_is_exactly_minus_half_beta(self):
        for pm in (sin1d(256), bump2d(64)):
            _, kappa, beta = geo.koszul(geo.metric_from_potential(pm))
            assert np.max(np.abs(kappa.components + 0.5 * beta.components)) == 0.0

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_beta_has_the_bits_of_the_negated_derivatives(self, n):
        # _beta negates its own stack in place; signed zeros included
        rng = np.random.default_rng(n)
        grid = PeriodicGrid({1: (512,), 2: (32, 32), 3: (8, 8, 8)}[n], (TWO_PI,) * n)
        log_det = rng.standard_normal(grid.shape)
        zeros = rng.random(grid.shape) < 0.9
        log_det[zeros] = np.where(rng.random(zeros.sum()) < 0.5, 0.0, -0.0)
        beta = geo._beta(log_det, grid.spacings)
        assert_same_bytes(beta, -geo.sym_derivatives(log_det, 2, grid.spacings))
        assert np.signbit(beta[beta == 0.0]).any() and not np.signbit(beta[beta == 0.0]).all()

    def test_non_finite_forms_raise(self):
        # log det g is finite, but its second differences over a period of
        # 1e-160 overflow; kappa and beta are kept without a copy, still checked
        x = np.arange(8) * (2.0 * np.pi / 8)
        g = geo.MetricField(PeriodicGrid((8,), (1e-160,)), (2.0 + np.sin(x))[:, None])
        for forms in (geo.koszul, geo.beta_form):
            with np.errstate(over="ignore"), pytest.raises(ValueError, match="non-finite"):
                forms(g)
        # log det g shares the check and keeps its own message: det = 1e320 overflows
        huge = geo.MetricField(PeriodicGrid((8, 8), (1.0, 1.0)), np.broadcast_to([1e160, 0.0, 1e160], (8, 8, 3)))
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="^log det g is not finite"):
            huge.log_det()

    def test_alpha_equals_christoffel_trace_at_second_order(self):
        errors = {}
        for n_nodes in (128, 256):
            pm = bump2d(n_nodes)
            g = geo.metric_from_potential(pm)
            alpha, _, _ = geo.koszul(g)
            gm, _ = geo.christoffel(g)
            errors[n_nodes] = np.max(np.abs(alpha - np.einsum("...kik->...i", gm)))
        assert errors[128] <= 1e-3
        assert 3.5 <= errors[128] / errors[256] <= 4.5


class TestHessianCurvature:
    def test_flat_vanishes_exactly(self):
        q = geo.hessian_curvature(flat2d())
        assert np.all(q.components == 0.0)

    def test_sin1d_point_probes(self):
        pm = sin1d(512)
        q = geo.hessian_curvature(pm)
        comp = q.component(0, 0, 0, 0)
        grid = pm.grid
        assert comp[0] == pytest.approx(-0.25, abs=1e-3)
        assert comp[node_at(grid, np.pi / 2)] == pytest.approx(-0.5, abs=1e-3)
        assert comp[node_at(grid, 3 * np.pi / 2)] == pytest.approx(0.5, abs=1e-3)

    def test_symmetries_against_direct_formula(self):
        # direct per-tuple evaluation, no symmetric storage involved
        pm = wavy2d(32)
        g = geo.metric_from_potential(pm)
        ginv = g.inverse_matrices()
        q = geo.hessian_curvature(pm)
        n = 2
        worst = 0.0
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    for l in range(n):
                        fourth = partial4(pm.psi, i, j, k, l).values
                        quad = np.einsum(
                            "...pq,...p,...q->...",
                            ginv,
                            np.stack([partial3(pm.psi, i, k, p).values for p in range(n)], -1),
                            np.stack([partial3(pm.psi, j, l, p).values for p in range(n)], -1),
                        )
                        direct = 0.5 * fourth - 0.5 * quad
                        worst = max(worst, np.max(np.abs(q.component(i, j, k, l) - direct)))
        assert worst <= 1e-12

    def test_listed_symmetry_relations(self):
        q = geo.hessian_curvature(wavy2d(32)).full()
        for perm in [(2, 1, 0, 3), (0, 3, 2, 1), (2, 3, 0, 1), (1, 0, 3, 2)]:
            permuted = np.moveaxis(q, (-4, -3, -2, -1), tuple(p - 4 for p in perm))
            assert np.max(np.abs(q - permuted)) <= 1e-12


class TestRiemann:
    def test_flat_vanishes_exactly(self):
        pm = flat2d()
        g = geo.metric_from_potential(pm)
        assert np.all(geo.riemann_from_gamma(g) == 0.0)
        assert np.all(geo.riemann_from_q(geo.hessian_curvature(pm)) == 0.0)

    def test_one_dimensional_riemann_is_exactly_zero(self):
        pm = sin1d(256)
        assert np.all(geo.riemann_from_q(geo.hessian_curvature(pm)) == 0.0)
        assert np.max(np.abs(geo.riemann_from_gamma(geo.metric_from_potential(pm)))) <= 1e-15

    def test_bump2d_metric_is_flat_so_routes_agree_to_rounding(self):
        # 0.1 cos x cos y separates under the 45-degree rotation, so this
        # metric is a product of 1-D metrics and its Riemann tensor vanishes
        pm = bump2d(128)
        g = geo.metric_from_potential(pm)
        rg = geo.riemann_from_gamma(g)
        rq = geo.riemann_from_q(geo.hessian_curvature(pm))
        assert np.max(np.abs(rg)) <= 1e-12
        assert np.max(np.abs(rg - rq)) <= 1e-12

    def test_route_consistency_with_order_two_decay(self):
        errors = {}
        for n_nodes in (128, 256):
            pm = wavy2d(n_nodes)
            g = geo.metric_from_potential(pm)
            diff = geo.riemann_from_gamma(g) - geo.riemann_from_q(geo.hessian_curvature(pm))
            errors[n_nodes] = np.max(np.abs(diff))
        assert errors[128] <= 1e-3
        assert 3.5 <= errors[128] / errors[256] <= 4.5

    def test_antisymmetry_of_q_route_is_exact(self):
        r = geo.riemann_from_q(geo.hessian_curvature(wavy2d(32)))
        assert np.max(np.abs(r + np.swapaxes(r, -4, -3))) == 0.0


class TestContractionIdentity:
    def test_flat_exact_zero(self):
        pm = flat2d()
        g = geo.metric_from_potential(pm)
        _, _, beta = geo.koszul(g)
        assert geo.contraction_identity_defect(geo.hessian_curvature(pm), g, beta) == 0.0

    def test_sin1d(self):
        pm = sin1d(512)
        g = geo.metric_from_potential(pm)
        _, _, beta = geo.koszul(g)
        assert geo.contraction_identity_defect(geo.hessian_curvature(pm), g, beta) <= 1e-3

    def test_bump2d_with_order_two_decay(self):
        errors = {}
        for n_nodes in (128, 256):
            pm = bump2d(n_nodes)
            g = geo.metric_from_potential(pm)
            _, _, beta = geo.koszul(g)
            errors[n_nodes] = geo.contraction_identity_defect(
                geo.hessian_curvature(pm), g, beta
            )
        assert errors[128] <= 1e-3
        assert 3.0 <= errors[128] / errors[256] <= 5.0


class TestPullbackTorsion:
    def test_hessian_metrics_have_vanishing_torsion(self):
        for pm in (sin1d(512), bump2d(128), wavy2d(64)):
            _, norm = geo.pullback_chern_torsion(geo.metric_from_potential(pm))
            assert norm <= 1e-10

    def test_flat_exact_zero(self):
        _, norm = geo.pullback_chern_torsion(geo.metric_from_potential(flat2d()))
        assert norm == 0.0

    def test_twist2d_has_torsion(self):
        _, norm = geo.pullback_chern_torsion(twist2d(128))
        assert norm >= 0.01

    def test_torsion_iff_hessian_defect(self):
        # both at truncation level or both at rounding level, never mixed
        for build, hessian in ((sin1d(256), True), (bump2d(64), True), (twist2d(64), False)):
            g = build if isinstance(build, geo.MetricField) else geo.metric_from_potential(build)
            defect = geo.hessian_defect(g)
            _, norm = geo.pullback_chern_torsion(g)
            if hessian:
                assert defect <= 1e-10 and norm <= 1e-10
            else:
                assert defect >= 1e-3 and norm >= 1e-3


class TestKahlerCurvaturePullback:
    def test_flat_exact_zero(self):
        assert np.all(geo.kahler_curvature_pullback(flat2d()) == 0.0)

    def test_sin1d_point_probe(self):
        rt = geo.kahler_curvature_pullback(sin1d(512))
        assert rt[0, 0, 0, 0, 0] == pytest.approx(0.125, abs=1e-3)

    def test_equals_minus_half_q_with_order_two_decay(self):
        errors = {}
        for n_nodes in (128, 256):
            pm = bump2d(n_nodes)
            rt = geo.kahler_curvature_pullback(pm)
            q = geo.hessian_curvature(pm).full()
            errors[n_nodes] = np.max(np.abs(rt + 0.5 * q))
        assert errors[128] <= 5e-5  # measured 3.0e-5 at 128^2
        assert 3.5 <= errors[128] / errors[256] <= 4.5


class TestSectionalExtremes:
    def test_flat_reports_zero(self):
        pm = flat2d()
        rep = geo.sectional_extremes(
            geo.hessian_curvature(pm), geo.metric_from_potential(pm), 200, 10, seed=1
        )
        assert rep.max_value == 0.0
        assert rep.min_value == 0.0

    def test_sin1d_extremes_match_dense_scan(self):
        pm = sin1d(512)
        q = geo.hessian_curvature(pm)
        g = geo.metric_from_potential(pm)
        rep = geo.sectional_extremes(q, g, n_samples=1000, refine_steps=50, seed=0)
        # dense-scan oracle of H = Q/g^2: max 1/2 at 3pi/2, min -0.0658436 at 0.252680
        assert rep.max_value == pytest.approx(0.5, abs=0.02)
        assert rep.min_value == pytest.approx(-0.0658436, abs=0.02)
        x_max = pm.grid.axis_coordinates(0)[rep.argmax_node[0]]
        assert abs(x_max - 3 * np.pi / 2) <= 0.5
        assert rep.samples_used == 1000

    def test_reported_frames_are_normalized(self):
        pm = sin1d(256)
        g = geo.metric_from_potential(pm)
        rep = geo.sectional_extremes(geo.hessian_curvature(pm), g, 100, 10, seed=3)
        gm = g.matrices()[rep.argmax_node]
        v, w = rep.argmax_frame
        assert abs(v @ gm @ v - 1.0) <= 1e-10
        assert abs(w @ gm @ w - 1.0) <= 1e-10

    def test_deterministic_for_fixed_seed(self):
        pm = sin1d(256)
        q = geo.hessian_curvature(pm)
        g = geo.metric_from_potential(pm)
        r1 = geo.sectional_extremes(q, g, 200, 20, seed=11)
        r2 = geo.sectional_extremes(q, g, 200, 20, seed=11)
        assert r1.max_value == r2.max_value
        assert r1.min_value == r2.min_value
        assert r1.argmax_node == r2.argmax_node

    def test_scaling_law_with_factor_two(self):
        # under phi -> 2 phi the normalized form halves: H -> H/2
        pm = sin1d(256)
        r1 = geo.sectional_extremes(
            geo.hessian_curvature(pm), geo.metric_from_potential(pm), 500, 20, seed=7
        )
        pm2 = pm.scaled(2.0)
        r2 = geo.sectional_extremes(
            geo.hessian_curvature(pm2), geo.metric_from_potential(pm2), 500, 20, seed=7
        )
        assert abs(2.0 * r2.max_value - r1.max_value) <= 1e-12
        assert abs(2.0 * r2.min_value - r1.min_value) <= 1e-12

    def test_gathers_only_the_sampled_nodes(self, peak_mib):
        # the full Q of a 32^3 grid (20 MiB) is never built for 1000 samples
        grid = PeriodicGrid((32,) * 3, (TWO_PI,) * 3)
        psi = ScalarField.from_function(grid, lambda x, y, z: 0.05 * np.cos(x) * np.sin(y + z))
        pm = geo.PotentialMetric(grid, np.eye(3), psi)
        q, g = geo.hessian_curvature(pm), geo.metric_from_potential(pm)
        full_bytes = grid.num_nodes * 3**4 * 8
        rep, peak = peak_mib(lambda: geo.sectional_extremes(q, g, n_samples=1000, refine_steps=5, seed=0))
        assert peak <= 0.25 * full_bytes / 2**20  # measured 0.15x; gathering q.full() took 1.07x
        assert rep.samples_used == 1000


class TestCurvatureBundle:
    def test_bundle_is_internally_consistent(self):
        pm = sin1d(256)
        bundle = geo.curvature_bundle(geo.metric_from_potential(pm), pm)
        assert np.max(np.abs(bundle.kappa.components + 0.5 * bundle.beta.components)) == 0.0
        assert bundle.q.component(0, 0, 0, 0)[0] == pytest.approx(-0.25, abs=1e-3)

    # the last three cases have more than 2048 nodes, so the node-local
    # kernels of the bundle run in several chunks.  Each case is also checked
    # translated along the first axis so that the node of the largest entry
    # of each whole-grid array lies in the last row, hence in the last chunk
    @pytest.mark.parametrize("case", ["sin1d", "twist2d", "potential3d",
                                      "sin1d_3000", "twist2d_48", "potential3d_14"])
    def test_fields_equal_the_public_functions(self, case):
        name, _, size = case.partition("_")
        if name == "twist2d":
            g, pm = twist2d(int(size or 32)), None
        else:
            size = int(size or (64 if name == "sin1d" else 8))
            pm = sin1d(size) if name == "sin1d" else TestThreeDimensions.potential3d(size)
            g = geo.metric_from_potential(pm)
        self.check_fields(g, pm)
        shape = g.grid.shape
        for array in (*geo.christoffel(g), geo.riemann_from_gamma(g)):
            row = np.unravel_index(np.argmax(np.abs(array).reshape(*shape, -1).max(axis=-1)), shape)[0]
            self.check_fields(*self.translated(g, pm, shape[0] - 1 - row))

    @staticmethod
    def translated(g, pm, rows):
        """The inputs rolled by ``rows`` nodes along the first axis."""
        if pm is None:
            return geo.MetricField(g.grid, np.roll(g.components, rows, axis=0)), None
        psi = ScalarField(pm.grid, np.roll(pm.psi.values, rows, axis=0))
        pm = geo.PotentialMetric(pm.grid, pm.background, psi)
        return geo.metric_from_potential(pm), pm

    @staticmethod
    def check_fields(g, pm):
        """Every field of the bundle against the public functions on the whole
        grid, bit for bit; probes at the first node, the first node of the
        second chunk and the last node."""
        bundle = geo.curvature_bundle(g, pm)
        gamma_mixed, gamma_lower = geo.christoffel(g)
        alpha, kappa, beta = geo.koszul(g)
        assert bundle.sup_gamma_mixed == float(np.max(np.abs(gamma_mixed)))
        assert bundle.sup_gamma_lower == float(np.max(np.abs(gamma_lower)))
        assert bundle.gamma_mixed_000 is None
        assert np.array_equal(bundle.alpha, alpha)
        assert np.array_equal(bundle.kappa.components, kappa.components)
        assert np.array_equal(bundle.beta.components, beta.components)
        assert bundle.hessian_defect == geo.hessian_defect(g)
        assert bundle.torsion_norm == geo.pullback_chern_torsion(g)[1]
        assert bundle.sup_riemann == float(np.max(np.abs(geo.riemann_from_gamma(g))))
        for flat in {0, min(2048, g.grid.num_nodes - 1), g.grid.num_nodes - 1}:
            node = tuple(int(k) for k in np.unravel_index(flat, g.grid.shape))
            probed = geo.curvature_bundle(g, pm, node)
            assert probed.gamma_mixed_000 == gamma_mixed[(*node, 0, 0, 0)]
        if pm is None:
            assert bundle.q is None
        else:
            assert np.array_equal(bundle.q.components, geo.hessian_curvature(pm).components)
            # the component loops form the quadratic term on the whole grid at once
            assert_same_bytes(bundle.q.components, reference_potential_q(pm, g.inverse_matrices()))

    # building the whole difference tensor and Riemann array peaked at 62.5 MiB
    def test_peak_memory(self, peak_mib):
        grid = PeriodicGrid((32,) * 3, (TWO_PI,) * 3)
        psi = ScalarField.from_function(grid, lambda x, y, z: 0.05 * np.cos(x) * np.sin(y + z))
        pm = geo.PotentialMetric(grid, np.eye(3), psi)
        g = geo.metric_from_potential(pm)
        _, peak = peak_mib(lambda: geo.curvature_bundle(g, pm, (1, 2, 3)))
        assert peak <= 25  # measured 11.4 MiB; 21.0 with full operands and Q's fourths, 27.1 with Q copied

    # on a constant metric every node ties in the torsion screen;
    # the torsion kernel running on all of them at once peaked at 28.1 MiB
    def test_fallback_peak_memory(self, peak_mib):
        grid = PeriodicGrid((32,) * 3, (TWO_PI,) * 3)
        pm = geo.PotentialMetric(grid, np.eye(3), ScalarField.zeros(grid))
        g = geo.metric_from_potential(pm)
        bundle, peak = peak_mib(lambda: geo.curvature_bundle(g, pm, (1, 2, 3)))
        assert bundle.torsion_norm == bundle.sup_riemann == 0.0
        assert peak <= 25  # measured 13.1 MiB; 21.0 with full operands and Q's fourths


class TestThreeDimensions:
    """The 3x3 determinant/inverse/eigenvalue paths and all identities at n=3."""

    @staticmethod
    def potential3d(n_nodes=16):
        grid = PeriodicGrid((n_nodes,) * 3, (TWO_PI,) * 3)
        psi = ScalarField.from_function(
            grid,
            lambda x, y, z: 0.05 * np.cos(x) * np.cos(y)
            + 0.04 * np.sin(y + z)
            + 0.03 * np.cos(x + 2 * z),
        )
        background = np.array([[2.0, 0.2, 0.0], [0.2, 1.5, 0.1], [0.0, 0.1, 1.0]])
        return geo.PotentialMetric(grid, background, psi)

    def test_inverse_and_determinant_are_consistent(self):
        g = geo.metric_from_potential(self.potential3d())
        mats = g.matrices()
        ginv = g.inverse_matrices()
        identity = np.einsum("...ij,...jk->...ik", mats, ginv)
        assert np.max(np.abs(identity - np.eye(3))) <= 1e-12
        assert np.max(np.abs(g.det() - np.linalg.det(mats))) <= 1e-12

    def test_min_eigenvalues_match_lapack(self):
        g = geo.metric_from_potential(self.potential3d())
        mine = geo.sym_min_eigenvalues(g.components, 3)
        reference = np.linalg.eigvalsh(g.matrices())[..., 0]
        assert np.max(np.abs(mine - reference)) <= 1e-12

    def test_identities_hold_at_n3(self):
        pm = self.potential3d()
        g = geo.metric_from_potential(pm)
        assert geo.hessian_defect(g) <= 1e-12
        _, kappa, beta = geo.koszul(g)
        assert np.max(np.abs(kappa.components + 0.5 * beta.components)) == 0.0
        _, torsion_norm = geo.pullback_chern_torsion(g)
        assert torsion_norm <= 1e-10
        r = geo.riemann_from_q(geo.hessian_curvature(pm))
        assert np.max(np.abs(r + np.swapaxes(r, -4, -3))) == 0.0

    def test_contraction_identity_decays_at_n3(self):
        defects = {}
        for n_nodes in (16, 32):
            pm = self.potential3d(n_nodes)
            g = geo.metric_from_potential(pm)
            _, _, beta = geo.koszul(g)
            defects[n_nodes] = geo.contraction_identity_defect(geo.hessian_curvature(pm), g, beta)
        assert defects[32] <= 5e-2  # measured 0.027 (coarse grids, k=2 modes)
        assert defects[16] / defects[32] >= 3.0

    def test_pencil_range_at_n3(self):
        g0 = geo.metric_from_potential(self.potential3d())
        lam, big_lam = geo.pencil_eigenvalue_range(g0, g0)
        assert lam == pytest.approx(1.0, abs=1e-10)
        assert big_lam == pytest.approx(1.0, abs=1e-10)
        doubled = geo.MetricField(g0.grid, 2.0 * g0.components)
        lam, big_lam = geo.pencil_eigenvalue_range(doubled, g0)
        assert lam == pytest.approx(2.0, abs=1e-10)
        assert big_lam == pytest.approx(2.0, abs=1e-10)


# --- per-component references of the symmetric storage ------------------------------

def closed_form_pair_index(n, i, j):
    i, j = min(i, j), max(i, j)
    return i * n - (i * (i - 1)) // 2 + (j - i)


def reference_matrices(comps, n):
    mats = np.empty((*comps.shape[:-1], n, n))
    for p, (i, j) in enumerate(geo.sym_pairs(n)):
        mats[..., i, j] = mats[..., j, i] = comps[..., p]
    return mats


def reference_partials(g):
    n = g.grid.ndim
    out = np.empty((*g.grid.shape, n, n, n))
    for i, j in geo.sym_pairs(n):
        for k in range(n):
            out[..., k, i, j] = out[..., k, j, i] = stencil(g.component(i, j), (k,), g.grid.spacings)
    return out


def reference_q_metric(g):
    n = g.grid.ndim
    d2 = np.empty((*g.grid.shape, n, n, n, n))
    for i, j in geo.sym_pairs(n):
        for k, l in geo.sym_pairs(n):
            v = stencil(g.component(i, j), (k, l), g.grid.spacings)
            d2[..., i, j, k, l] = d2[..., i, j, l, k] = d2[..., j, i, k, l] = d2[..., j, i, l, k] = v
    d = reference_partials(g)
    quad = np.einsum("...pq,...kip,...ljq->...ijkl", g.inverse_matrices(), d, d)
    return 0.5 * d2 - 0.5 * quad


def reference_q_component(q, i, j, k, l):
    n = q.grid.ndim
    m = len(geo.sym_pairs(n))
    slot = closed_form_pair_index(m, closed_form_pair_index(n, i, k), closed_form_pair_index(n, j, l))
    return q.components[..., slot]


def reference_q_full(q):
    n = q.grid.ndim
    out = np.empty((*q.grid.shape, n, n, n, n))
    for i, j, k, l in itertools.product(range(n), repeat=4):
        out[..., i, j, k, l] = reference_q_component(q, i, j, k, l)
    return out


def reference_potential_q(pm, ginv):
    grid, n, psi = pm.grid, pm.grid.ndim, pm.psi.values
    third = np.empty((*grid.shape, n, n, n))
    for axes in itertools.product(range(n), repeat=3):
        third[(..., *axes)] = stencil(psi, axes, grid.spacings)
    pairs = geo.sym_pairs(n)
    comps = np.empty((*grid.shape, len(pairs) * (len(pairs) + 1) // 2))
    for a, (i, k) in enumerate(pairs):
        for b, (j, l) in enumerate(pairs[a:], start=a):
            fourth = stencil(psi, (i, j, k, l), grid.spacings)
            quad = np.einsum("...pq,...p,...q->...", ginv, third[..., i, k, :], third[..., j, l, :])
            comps[..., closed_form_pair_index(len(pairs), a, b)] = 0.5 * fourth - 0.5 * quad
    return comps


def cos_sin_potential3d():
    """The 32^3 potential of the memory bounds."""
    grid = PeriodicGrid((32,) * 3, (TWO_PI,) * 3)
    psi = ScalarField.from_function(grid, lambda x, y, z: 0.05 * np.cos(x) * np.sin(y + z))
    return geo.PotentialMetric(grid, np.eye(3), psi)


def random_metric(n, seed, size=8):
    """A non-Hessian metric field: the identity plus small random entries."""
    grid = PeriodicGrid((size,) * n, (TWO_PI,) * n)
    rng = np.random.default_rng(seed)
    comps = 0.05 * rng.standard_normal((*grid.shape, len(geo.sym_pairs(n))))
    comps[..., [p for p, (i, j) in enumerate(geo.sym_pairs(n)) if i == j]] += 1.0
    return geo.MetricField(grid, comps)


def random_potential(n, seed, size=8):
    grid = PeriodicGrid((size,) * n, (TWO_PI,) * n)
    psi = 1e-3 * np.random.default_rng(seed).standard_normal(grid.shape)
    return geo.PotentialMetric(grid, np.eye(n), ScalarField(grid, psi))


def assert_same_bytes(array, reference):
    assert array.flags.c_contiguous
    assert array.shape == reference.shape and array.tobytes() == reference.tobytes()


class TestSymmetricStorage:
    """Symmetric tensors are stored by sorted index tuples and gathered into
    full C-order arrays; every gathered array equals the per-component loop
    byte for byte, as the screens' kernels need the same operand layout."""

    def test_pair_slots_keep_the_closed_form_and_order(self):
        for n in (1, 2, 3):
            assert geo.sym_pairs(n) == tuple((i, j) for i in range(n) for j in range(i, n))
            table = geo.sym_table(n, 2)
            assert not table.flags.writeable
            for i, j in itertools.product(range(n), repeat=2):
                assert table[i, j] == closed_form_pair_index(n, i, j)

    def test_tables_index_sorted_tuples(self):
        for n, order in itertools.product((1, 2, 3), (2, 3, 4)):
            indices, table = geo.sym_indices(n, order), geo.sym_table(n, order)
            assert indices == tuple(sorted(set(tuple(sorted(t)) for t in itertools.product(range(n), repeat=order))))
            for index in itertools.product(range(n), repeat=order):
                assert indices[table[index]] == tuple(sorted(index))

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_metric_arrays_match_component_loops(self, n):
        g = random_metric(n, seed=n)
        assert_same_bytes(geo.sym_matrices(g.components, n), reference_matrices(g.components, n))
        assert_same_bytes(g.matrices(), reference_matrices(g.components, n))
        assert_same_bytes(geo.metric_partials(g), reference_partials(g))
        assert_same_bytes(geo.hessian_curvature_from_metric(g), reference_q_metric(g))

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_hessian_curvature_matches_component_loops(self, n):
        pm = random_potential(n, seed=n)
        g = geo.metric_from_potential(pm)
        q = geo._hessian_curvature(pm, geo.sym_inverse(g.components, n))
        assert_same_bytes(q.components, reference_potential_q(pm, g.inverse_matrices()))
        assert_same_bytes(q.full(), reference_q_full(q))
        for index in itertools.product(range(n), repeat=4):
            assert np.array_equal(q.component(*index), reference_q_component(q, *index))

    @pytest.mark.parametrize("n", [2, 3])
    def test_one_stencil_per_derivative_index_set(self, monkeypatch, n):
        g, pm = random_metric(n, seed=0), random_potential(n, seed=0)
        ginv = geo.sym_inverse(geo.metric_from_potential(pm).components, n)
        calls = []

        def counted(values, axes, spacings, out=None):
            calls.append((values.ndim, tuple(sorted(axes))))
            return stencil(values, axes, spacings, out)

        monkeypatch.setattr(geo, "stencil", counted)
        m = n * (n + 1) // 2
        for run, expected in ((lambda: geo.metric_partials(g), n),
                              (lambda: geo.hessian_curvature_from_metric(g), n + m),
                              (lambda: geo._hessian_curvature(pm, ginv), {2: 4 + 5, 3: 10 + 15}[n]),
                              (lambda: geo.koszul(g), n + m),
                              # first differences of the stacked first differences
                              (lambda: geo.potential_hessian(pm.psi), 2 * n)):
            calls.clear()
            run()
            assert len(calls) == len(set(calls)) == expected

    def test_q_metric_peak_memory(self, peak_mib):
        grid = PeriodicGrid((32,) * 3, (TWO_PI,) * 3)
        psi = ScalarField.from_function(grid, lambda x, y, z: 0.05 * np.cos(x) * np.sin(y + z))
        g = geo.metric_from_potential(geo.PotentialMetric(grid, np.eye(3), psi))
        q, peak = peak_mib(lambda: geo.hessian_curvature_from_metric(g))
        assert peak <= 3 * q.nbytes / 2**20  # measured 2.45x; the component loops took 4.5x

    # measured 9.9, 11.25, 5.5 and 2.64 MiB; the fourth derivatives stacked
    # apart from Q took _hessian_curvature to 13.5 MiB, copying the fresh Q
    # to 16.8 MiB, a swapaxes gather metric_partials to
    # 15.8 MiB, and copying the fresh kappa and beta koszul to 7.2 MiB and
    # beta_form to 3.2 MiB
    @pytest.mark.parametrize("name, limit_mib", [("hessian_curvature", 14.0), ("metric_partials", 11.5),
                                                 ("koszul", 6.0), ("beta_form", 2.9)])
    def test_peak_memory(self, peak_mib, name, limit_mib):
        pm = cos_sin_potential3d()
        g = geo.metric_from_potential(pm)
        ginv = geo.sym_inverse(g.components, 3)
        run = {"hessian_curvature": lambda: geo._hessian_curvature(pm, ginv),
               "metric_partials": lambda: geo.metric_partials(g),
               "koszul": lambda: geo.koszul(g),
               "beta_form": lambda: geo.beta_form(g)}[name]
        assert peak_mib(run)[1] <= limit_mib

    def test_sup_abs_is_the_largest_absolute_entry(self):
        # reduced chunk by chunk of nodes, with the largest entry in the last chunk
        rng = np.random.default_rng(5)
        values = rng.standard_normal((2 * geo._SCREEN_CHUNK + 7, 6))
        values[rng.random(values.shape) < 0.1] = -0.0
        values[-1, 3] = -9.0
        assert geo.sup_abs(values) == np.max(np.abs(values)) == 9.0
        q = geo.hessian_curvature(random_potential(3, seed=2))
        assert q.sup_norm() == float(np.max(np.abs(q.components)))

    def test_public_constructors_keep_a_private_copy(self):
        pm = random_potential(2, seed=1)
        comps = np.array(geo.potential_hessian(pm.psi).components)
        q_comps = np.array(geo.hessian_curvature(pm).components)
        fields = (geo.Sym2Field(pm.grid, comps), geo.HessianCurvature(pm.grid, q_comps))
        stored = [np.array(field.components) for field in fields]
        comps += 1.0
        q_comps += 1.0
        for field, before in zip(fields, stored):
            assert np.array_equal(field.components, before)
            assert not field.components.flags.writeable
        # the library's own arrays are kept without a copy, read-only as well
        assert not geo.hessian_curvature(pm).components.flags.writeable
        for field, wrong in itertools.product(fields, ((0,), (0, 0, 0))):
            with pytest.raises(TypeError):
                field.component(*wrong)
