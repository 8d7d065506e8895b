"""Gauge margins, maximal pencil parameter, uniform equivalence.

The dense-scan oracle for max_s evaluates the margin on a 1e-4 grid of S
values and returns the largest feasible one; in one dimension the binding
continuum bound for sin1d with u = 0, theta = 0.1 is
min_x 0.9 (2 + sin x)^3 / (2 sin x + 1) = 6.834375 at sin x = 1/4.
"""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from koszulflow import criteria as cr
from koszulflow import geometry as geo
from koszulflow import registry as reg
from koszulflow.grid import PeriodicGrid, ScalarField
from koszulflow.io import ConfigError


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
    def count_margins(monkeypatch, cap=math.inf):
        """A list that grows at each margin evaluation, that is each call of
        ``smallest_eigenvalue``, by the number of nodes it runs on; a call
        beyond ``cap`` fails, so a bisection that never ends fails too."""
        calls = []
        original = cr.smallest_eigenvalue

        def counted(flat, n):
            calls.append(len(flat))
            assert len(calls) <= cap, f"more than {cap} margin evaluations"
            return original(flat, n)

        monkeypatch.setattr(cr, "smallest_eigenvalue", counted)
        return calls

    @pytest.mark.parametrize("background, amplitude, nodes", [(1.0, 1e-8, 32), (1e12, 3e-3, 8)],
                             ids=["beyond-2^23", "beyond-2^80"])
    def test_large_s_max_ends_one_ulp_apart(self, monkeypatch, background, amplitude, nodes):
        # near-flat potentials: beyond 2^23 one ulp of S exceeds the 1e-9
        # tolerance, beyond 2^80 the bracket takes more than 80 doublings; the
        # bisection ends with the bracket one ulp wide
        grid = PeriodicGrid((nodes,), (2.0 * math.pi,))
        psi = ScalarField.from_function(grid, lambda x: amplitude * np.cos(x))
        g = geo.metric_from_potential(geo.PotentialMetric(grid, background * np.eye(1), psi))
        u = zero_gauge(g)
        self.count_margins(monkeypatch, cap=300)
        s_max = cr.max_s(g, u, 0.5).s_max
        assert math.isfinite(s_max) and s_max > (2.0**80 if background > 1.0 else 2.0**23)
        monkeypatch.undo()
        assert cr.a2_margin(g, s_max, u, 0.5) >= 0.0
        assert cr.a2_margin(g, np.nextafter(s_max, math.inf), u, 0.5) < 0.0

    def test_infeasible_input_evaluates_one_margin(self, monkeypatch):
        g = flat_metric()
        calls = self.count_margins(monkeypatch)
        with pytest.raises(cr.InfeasibleAtZero):
            cr.max_s(g, zero_gauge(g), 1.5)
        assert len(calls) == 1

    @pytest.mark.parametrize("case", ["sin1d", "report3d"])
    def test_each_margin_is_evaluated_once(self, monkeypatch, case):
        # over every node: one margin at S = 0, one of the slope M1, one per
        # bracket step and the final one at s_lo, which gives the witness;
        # each bisection step runs on the active nodes only, fewer than all
        if case == "sin1d":
            g = sin1d_metric()
        else:  # the shape of the benchmark's 3-D report: 32^3, theta = 0.5, zero gauge
            grid = PeriodicGrid((32,) * 3, (2.0 * math.pi,) * 3)
            psi = ScalarField.from_function(grid, lambda x, y, z: 0.1 * np.cos(x) * np.cos(y) * np.cos(z))
            g = geo.metric_from_potential(geo.PotentialMetric(grid, np.eye(3), psi))
        theta = 0.1 if case == "sin1d" else 0.5
        calls = self.count_margins(monkeypatch)
        s_max = cr.max_s(g, zero_gauge(g), theta).s_max
        s_hi = 1.0
        while s_hi <= s_max:
            s_hi *= 2.0
        bracket = int(math.log2(s_hi)) + 1
        width, bisection = s_hi, 0
        while width > cr.BISECTION_TOL:
            width, bisection = 0.5 * width, bisection + 1
        nodes = g.grid.num_nodes
        full, steps = calls[: 2 + bracket] + calls[-1:], calls[2 + bracket : -1]
        assert full == [nodes] * (3 + bracket)
        assert len(steps) == bisection and max(steps) < nodes
        if case == "report3d":
            assert (bracket, len(full)) == (2, 5)

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


def reference_margin(m, n):
    """``criteria._margin`` of the full bisection, verbatim but for the
    ``[:2]`` on ``smallest_eigenvalue``, which also returns its screen."""
    margin, worst = geo.smallest_eigenvalue(m, n)[:2]
    if not math.isfinite(margin):
        raise ConfigError(f"the pencil margin is {margin}: the inputs overflow it")
    return margin, worst


def reference_max_s(g0, u, theta, scale_gauge_with_s=False):
    """``criteria.max_s`` as the full bisection, verbatim: every margin runs
    over every node.  It predates the uncapped bracket and the one-ulp stop
    of ``max_s``, which change no result with S_max below 2^23, the range
    of the pencils here."""
    n = g0.grid.ndim
    m0, m1 = cr._pencil_parts(g0, u, theta, scale_gauge_with_s)

    def margin(s: float) -> tuple[float, int]:
        return reference_margin(m0 + s * m1, n)

    # every margin is one full-grid evaluation: each is taken once, and the
    # one that set s_lo also gives the witness node
    lo = margin(0.0)
    if lo[0] <= 0.0:
        raise cr.InfeasibleAtZero(f"margin at S=0 is {lo[0]:.3e}")
    if reference_margin(m1, n)[0] >= 0.0:
        return cr.PencilResult(s_max=math.inf, witness_node=None, witness_direction=None)

    s_hi = 1.0
    for _ in range(80):
        if margin(s_hi)[0] < 0.0:
            break
        s_hi *= 2.0
    else:
        raise RuntimeError("failed to bracket the infeasible region")
    s_lo = 0.0
    while s_hi - s_lo > cr.BISECTION_TOL:
        mid = 0.5 * (s_lo + s_hi)
        found = margin(mid)
        if found[0] >= 0.0:
            s_lo, lo = mid, found
        else:
            s_hi = mid

    node = tuple(np.unravel_index(lo[1], g0.grid.shape))
    _, vecs = np.linalg.eigh(geo.sym_matrices(m0[node] + s_lo * m1[node], n))  # [[1.0]] for n = 1
    direction = vecs[:, 0]
    return cr.PencilResult(s_max=s_lo, witness_node=node, witness_direction=direction)


def pair_stored(mats):
    """Pair-stored components of full symmetric matrices ``(..., n, n)``."""
    return np.stack([mats[..., i, j] for i, j in geo.sym_pairs(mats.shape[-1])], axis=-1)


@st.composite
def random_pencils(draw):
    """``(shape, M0, M1)``: M0 positive definite at every node and M1
    indefinite or a small shift below positive semidefinite; optionally
    the pencils of nodes 0 and 1 commute and share their eigenvectors, with
    roots (the S where lambda_min reaches 0) that agree to 1e-12."""
    n = draw(st.sampled_from((1, 2, 3)))
    shape = (draw(st.integers(8, 24)),) + (8,) * (n - 1)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(("indefinite", "near_psd", "near_tie")))
    frames = np.linalg.qr(rng.standard_normal((*shape, n, n)))[0]
    spectra = rng.uniform(0.5, 2.0, (*shape, n))
    m0 = frames @ (spectra[..., None] * np.swapaxes(frames, -1, -2))
    if kind == "indefinite":
        m1 = rng.standard_normal((*shape, n, n))
        m1 = 0.5 * (m1 + np.swapaxes(m1, -1, -2))
    else:
        slopes = rng.uniform(0.0, 1.0, (*shape, n)) - draw(st.sampled_from((1e-6, 1e-3, 0.1)))
        m1 = frames @ (slopes[..., None] * np.swapaxes(frames, -1, -2))
    if kind == "near_tie":  # node 1 is node 0 with M0 scaled by 1 + 1e-12
        first, second = (np.unravel_index(k, shape) for k in (0, 1))
        m1[first] = -frames[first] @ np.diag(rng.uniform(0.5, 1.0, n)) @ frames[first].T
        m0[second], m1[second] = (1.0 + 1e-12) * m0[first], m1[first]
    return shape, pair_stored(m0), pair_stored(m1)


def assert_same_result(got, want):
    assert got.s_max.hex() == want.s_max.hex()
    assert got.witness_node == want.witness_node
    if want.witness_direction is None:
        assert got.witness_direction is None
    else:
        assert got.witness_direction.tobytes() == want.witness_direction.tobytes()


def same_outcome(run):
    """``run(max_s)`` for the active-set and the full bisection: the same
    result bit for bit, or the same exception and message."""
    outcomes = []
    for solver in (cr.max_s, reference_max_s):
        try:
            outcomes.append(run(solver))
        except (cr.InfeasibleAtZero, ConfigError) as error:
            outcomes.append((type(error), str(error)))
    got, want = outcomes
    if isinstance(want, cr.PencilResult):
        assert_same_result(got, want)
    else:
        assert got == want
    return want


class TestMaxSAgainstFullBisection:
    """The bisection that runs on the active nodes returns the bits of the
    one that evaluates every margin over every node."""

    @settings(max_examples=60)
    @given(pencil=random_pencils())
    def test_random_pencils(self, pencil):
        shape, m0, m1 = pencil
        n = len(shape)
        grid = PeriodicGrid(shape, (2.0 * math.pi,) * n)
        g0 = geo.MetricField(grid, np.broadcast_to(pair_stored(np.eye(n)), (*shape, m0.shape[-1])))
        with mock.patch.object(cr, "_pencil_parts", return_value=(m0, m1)):
            same_outcome(lambda solver: solver(g0, ScalarField.zeros(grid), 0.0))

    @settings(max_examples=30)
    @given(example=st.sampled_from(("sin1d", "bump2d", "potential3d")),
           theta=st.floats(0.0, 1.2), gauge_scale=st.floats(-1.0, 1.0),
           scale_gauge_with_s=st.booleans())
    def test_gauge_families(self, example, theta, gauge_scale, scale_gauge_with_s):
        # theta >= 1 is infeasible at zero; with scale_gauge_with_s the gauge
        # c (-log det g0) leaves the slope -(1 - c) beta0, unbounded at c = 1
        g0 = small_metric(example)
        u = cr.log_det_gauge(g0, scale=gauge_scale)
        same_outcome(lambda solver: solver(g0, u, theta, scale_gauge_with_s=scale_gauge_with_s))

    def test_infeasible_at_zero(self):
        g0 = small_metric("potential3d")
        want = same_outcome(lambda solver: solver(g0, zero_gauge(g0), 1.0))
        assert want[0] is cr.InfeasibleAtZero


def small_metric(example):
    if example == "potential3d":
        grid = PeriodicGrid((8,) * 3, (2.0 * math.pi,) * 3)
        psi = ScalarField.from_function(grid, lambda x, y, z: 0.1 * np.cos(x) * np.sin(y + 0.3) * np.cos(z - 1.0))
        return geo.metric_from_potential(geo.PotentialMetric(grid, np.eye(3), psi))
    sizes = (64,) if example == "sin1d" else (16, 16)
    return geo.metric_from_potential(reg.build_example(example, sizes=sizes))


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
