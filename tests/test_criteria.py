"""Gauge margins, maximal pencil parameter, uniform equivalence.

The dense-scan oracle for max_s evaluates the margin on a 1e-4 grid of S
values and returns the largest feasible one; in one dimension the binding
continuum bound for sin1d with u = 0, theta = 0.1 is
min_x 0.9 (2 + sin x)^3 / (2 sin x + 1) = 6.834375 at sin x = 1/4.
"""

import math

import numpy as np
import pytest

from koszulflow import criteria as cr
from koszulflow import geometry as geo
from koszulflow import registry as reg
from koszulflow.grid import PeriodicGrid, ScalarField


def sin1d_metric(n_nodes=512):
    return geo.metric_from_potential(reg.build_example("sin1d", sizes=(n_nodes,)))


def flat_metric():
    return geo.metric_from_potential(reg.build_example("flat"))


def zero_gauge(g):
    return ScalarField.zeros(g.grid)


def dense_scan_max_s(g0, u, theta, s_hi=20.0, step=1e-4):
    """Brute-force oracle: largest S on a uniform grid with margin >= 0."""
    m0, m1 = cr._pencil_parts(g0, u, theta, scale_gauge_with_s=False)
    n = g0.grid.ndim
    s_values = np.arange(0.0, s_hi, step)
    best = 0.0
    chunk = 2000
    for start in range(0, len(s_values), chunk):
        batch = s_values[start : start + chunk]
        pencil = m0[None, ...] + batch[:, None, None] * m1[None, ...]
        margins = cr.sym_min_eigenvalues(pencil, n).reshape(len(batch), -1).min(axis=1)
        feasible = batch[margins >= 0.0]
        if len(feasible):
            best = max(best, float(feasible[-1]))
    return best


class TestA2Margin:
    def test_flat_margin_is_theta_complement(self):
        g = flat_metric()
        for s in (0.0, 1.0, 100.0):
            assert cr.a2_margin(g, s, zero_gauge(g), 0.5) == pytest.approx(0.5, abs=1e-14)

    def test_sin1d_zero_gauge_zero_s(self):
        g = sin1d_metric()
        margin = cr.a2_margin(g, 0.0, zero_gauge(g), 0.0)
        assert margin == pytest.approx(float(np.min(g.component(0, 0))), abs=1e-14)
        assert margin == pytest.approx(1.0, abs=1e-3)

    def test_log_det_gauge_cancels_beta(self):
        # u = -S log det g0 gives dd(u) = +S beta0 on the shared stencil path,
        # so the margin is (1-theta) min g0 for any S
        g = sin1d_metric()
        min_g = float(np.min(g.component(0, 0)))
        for s in (1.0, 3.0, 10.0):
            u = cr.log_det_gauge(g, scale=s)
            margin = cr.a2_margin(g, s, u, 0.9)
            assert margin == pytest.approx(0.1 * min_g, abs=1e-10)

    def test_gauge_identity_is_exact(self):
        # dd(log det g0) + beta(g0) vanishes bit-exactly (same stencils)
        for g in (sin1d_metric(256), geo.metric_from_potential(reg.build_example("bump2d", sizes=(64, 64)))):
            ldg = ScalarField(g.grid, np.log(g.det()))
            hess = cr.gauge_hessian(ldg)
            beta = geo.beta_form(g)
            assert np.max(np.abs(hess + beta.components)) == 0.0

    def test_certificate_feasibility(self):
        g = flat_metric()
        cert = cr.a2_certificate(g, 2.0, zero_gauge(g), 0.5)
        assert cert.feasible and cert.margin == pytest.approx(0.5, abs=1e-14)


class TestMaxS:
    def test_flat_is_unbounded(self):
        g = flat_metric()
        result = cr.max_s(g, zero_gauge(g), 0.5)
        assert result.unbounded
        assert result.s_max == math.inf

    def test_sin1d_matches_dense_scan(self):
        g = sin1d_metric()
        u = zero_gauge(g)
        result = cr.max_s(g, u, 0.1)
        oracle = dense_scan_max_s(g, u, 0.1)
        assert not result.unbounded
        assert result.s_max == pytest.approx(oracle, abs=1e-3)
        assert result.s_max == pytest.approx(6.834375, abs=0.01)  # continuum bound

    def test_log_det_gauge_family_is_unbounded(self):
        g = sin1d_metric()
        result = cr.max_s(g, cr.log_det_gauge(g), 0.5, scale_gauge_with_s=True)
        assert result.unbounded

    def test_bracketing_invariants(self):
        g = sin1d_metric()
        u = zero_gauge(g)
        s_max = cr.max_s(g, u, 0.1).s_max
        assert cr.a2_margin(g, s_max * (1 - 1e-6), u, 0.1) >= -1e-8
        assert cr.a2_margin(g, s_max * (1 + 1e-4), u, 0.1) < 0.0
        assert cr.a2_margin(g, s_max - 1e-9, u, 0.1) >= -1e-8
        assert cr.a2_margin(g, s_max + 1e-6, u, 0.1) < 0.0

    def test_witness_direction_is_binding(self):
        g = sin1d_metric()
        result = cr.max_s(g, zero_gauge(g), 0.1)
        assert result.witness_node is not None
        v = result.witness_direction
        m0, m1 = cr._pencil_parts(g, zero_gauge(g), 0.1, False)
        pencil = geo.Sym2Field(g.grid, m0 + result.s_max * m1).matrices()[result.witness_node]
        assert float(v @ pencil @ v) == pytest.approx(0.0, abs=1e-7)

    def test_infeasible_at_zero(self):
        g = flat_metric()
        with pytest.raises(cr.InfeasibleAtZero):
            cr.max_s(g, zero_gauge(g), 1.5)

    @staticmethod
    def count_margins(monkeypatch):
        """A list that grows by one at each full-grid margin evaluation, that
        is each call of ``smallest_eigenvalue``."""
        calls = []
        original = cr.smallest_eigenvalue
        monkeypatch.setattr(cr, "smallest_eigenvalue", lambda comps, n: calls.append(n) or original(comps, n))
        return calls

    def test_infeasible_input_evaluates_one_margin(self, monkeypatch):
        g = flat_metric()
        calls = self.count_margins(monkeypatch)
        with pytest.raises(cr.InfeasibleAtZero):
            cr.max_s(g, zero_gauge(g), 1.5)
        assert len(calls) == 1

    @pytest.mark.parametrize("case", ["sin1d", "report3d"])
    def test_each_margin_is_evaluated_once(self, monkeypatch, case):
        # one margin at S = 0, one of the slope M1, one per bracket step and
        # one per bisection step; the witness reuses the margin that set s_lo
        if case == "sin1d":
            g = sin1d_metric()
        else:  # the shape of the benchmark's 3-D report: 32^3, theta = 0.5, zero gauge
            grid = PeriodicGrid((32,) * 3, (2.0 * math.pi,) * 3)
            psi = ScalarField.from_function(grid, lambda x, y, z: 0.1 * np.cos(x) * np.cos(y) * np.cos(z))
            g = geo.metric_from_potential(geo.PotentialMetric(grid, np.eye(3), psi))
        theta = 0.1 if case == "sin1d" else 0.5
        calls = self.count_margins(monkeypatch)
        s_max = cr.max_s(g, zero_gauge(g), theta).s_max
        count = len(calls)
        s_hi = 1.0
        while s_hi <= s_max:
            s_hi *= 2.0
        bracket = int(math.log2(s_hi)) + 1
        width, bisection = s_hi, 0
        while width > cr.BISECTION_TOL:
            width, bisection = 0.5 * width, bisection + 1
        assert count == 2 + bracket + bisection
        if case == "report3d":
            assert (bracket, count) == (2, 35)

    def test_concavity_of_nodewise_minimum_eigenvalue(self):
        g = geo.metric_from_potential(reg.build_example("bump2d", sizes=(64, 64)))
        u = zero_gauge(g)
        m0, m1 = cr._pencil_parts(g, u, 0.1, False)
        s_star = 2.0
        rng = np.random.default_rng(0)
        flat_m0 = m0.reshape(-1, m0.shape[-1])
        flat_m1 = m1.reshape(-1, m1.shape[-1])
        nodes = rng.integers(0, len(flat_m0), size=100)
        for node in nodes:
            f = lambda s: float(
                cr.sym_min_eigenvalues(flat_m0[node] + s * flat_m1[node], 2)
            )
            assert f(0.5 * s_star) >= 0.5 * (f(0.0) + f(s_star)) - 1e-10

    def test_direction_projection_is_affine_in_s(self):
        g = geo.metric_from_potential(reg.build_example("bump2d", sizes=(64, 64)))
        m0, m1 = cr._pencil_parts(g, zero_gauge(g), 0.1, False)
        mats0 = geo.Sym2Field(g.grid, m0).matrices().reshape(-1, 2, 2)
        mats1 = geo.Sym2Field(g.grid, m1).matrices().reshape(-1, 2, 2)
        rng = np.random.default_rng(1)
        nodes = rng.integers(0, len(mats0), size=100)
        dirs = rng.standard_normal((100, 2))
        s_star = 2.0
        for node, v in zip(nodes, dirs):
            f = lambda s: float(v @ (mats0[node] + s * mats1[node]) @ v)
            assert f(0.5 * s_star) == pytest.approx(0.5 * (f(0.0) + f(s_star)), abs=1e-10)


class TestUniformEquivalence:
    def test_identical_metrics(self):
        g = sin1d_metric(256)
        lam, big_lam = cr.uniform_equivalence(g, g)
        assert lam == pytest.approx(1.0, abs=1e-12)
        assert big_lam == pytest.approx(1.0, abs=1e-12)

    def test_scalar_multiple(self):
        g0 = geo.metric_from_potential(reg.build_example("bump2d", sizes=(64, 64)))
        for c in (2.0, 0.5):
            g = geo.MetricField(g0.grid, c * g0.components)
            lam, big_lam = cr.uniform_equivalence(g, g0)
            assert lam == pytest.approx(c, abs=1e-12)
            assert big_lam == pytest.approx(c, abs=1e-12)

    def test_sin1d_at_unit_time(self):
        from koszulflow import flow as fl

        g0 = sin1d_metric(256)
        traj, _ = fl.run_flow(g0, 1.0, fl.StepControl(), diag_stride=0)
        lam, big_lam = cr.uniform_equivalence(traj[-1].g, g0)
        # reference run: lambda = 0.8865, Lambda = 1.4561
        assert lam > 0.4
        assert big_lam < 2.5
