"""Gauge margins, maximal pencil parameter, uniform equivalence.

The dense-scan oracle for max_s evaluates the margin on a 1e-4 grid of S
values and returns the largest feasible one; in one dimension the binding
continuum bound for sin1d with u = 0, theta = 0.1 is
min_x 0.9 (2 + sin x)^3 / (2 sin x + 1) = 6.834375 at sin x = 1/4.
"""

import math
import re
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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
        margins = geo.sym_min_eigenvalues(pencil, n).reshape(len(batch), -1).min(axis=1)
        feasible = batch[margins >= 0.0]
        if len(feasible):
            best = max(best, float(feasible[-1]))
    return best


class TestA2Margin:
    def test_flat_margin_is_theta_complement(self):
        g = flat_metric()
        for s in (0.0, 1.0, 100.0):
            assert cr.a2_margin(g, s, zero_gauge(g), 0.5) == pytest.approx(0.5, abs=1e-14)

    # case -> (a call the library rejects, the ValueError message it names)
    REJECTED = {
        "theta-negative": (lambda g: cr.a2_margin(g, 0.0, zero_gauge(g), -0.1), "theta must be nonnegative"),
        "theta-nan": (lambda g: cr.max_s(g, zero_gauge(g), math.nan), "theta must be nonnegative"),
        "gauge-on-another-grid": (lambda g: cr.max_s(g, ScalarField.zeros(PeriodicGrid((32,), (2.0 * math.pi,))), 0.5),
                                  "gauge lives on a different grid"),
    }

    @pytest.mark.parametrize("case", sorted(REJECTED))
    def test_rejected_call_names_its_message(self, case):
        call, message = self.REJECTED[case]
        with pytest.raises(ValueError, match=re.escape(message)):
            call(sin1d_metric(64))

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
            u = cr.log_det_gauge(g) * s
            margin = cr.a2_margin(g, s, u, 0.9)
            assert margin == pytest.approx(0.1 * min_g, abs=1e-10)

    @given(s=st.floats(allow_nan=False, allow_infinity=False))
    @example(s=0.0)
    @example(s=-0.0)
    def test_scaled_log_det_gauge_is_the_scaled_formula(self, s):
        # a2-check scales the gauge as log_det_gauge(g0) * S; a float product is
        # commutative and sign-symmetric, so this is -S * log det g0 bit for bit
        g = geo.metric_from_potential(reg.build_example("bump2d", sizes=(16, 16)))
        with np.errstate(over="ignore"):  # both sides overflow alike near |s| = 1e308
            assert (cr.log_det_gauge(g) * s).values.tobytes() == (-s * g.log_det()).tobytes()

    def test_gauge_identity_is_exact(self):
        # dd(log det g0) + beta(g0) vanishes bit-exactly (same stencils)
        for g in (sin1d_metric(256), geo.metric_from_potential(reg.build_example("bump2d", sizes=(64, 64)))):
            ldg = ScalarField(g.grid, np.log(g.det()))
            hess = cr.gauge_hessian(ldg)
            beta = geo.beta_form(g)
            assert np.max(np.abs(hess + beta.components)) == 0.0

    def test_certificate_feasibility(self):
        # feasible at S = 2 means a nonnegative margin; flat gives 1 - theta
        g = flat_metric()
        margin = cr.a2_margin(g, 2.0, zero_gauge(g), 0.5)
        assert margin >= 0.0 and margin == pytest.approx(0.5, abs=1e-14)


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
        beyond ``cap`` fails, so a walk that never ends fails too."""
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

    def test_bracket_that_overflows_raises_without_a_warning(self):
        # S_max >= 2^1023: the bracket would double to s_hi = inf, where
        # m0 + inf * m1 warns (inf * 0) before the margin's ValueError
        grid = PeriodicGrid((8,), (2.0 * math.pi,))
        psi = ScalarField.from_function(grid, lambda x: 1e288 * np.cos(x))
        g = geo.metric_from_potential(geo.PotentialMetric(grid, 1e300 * np.eye(1), psi))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="overflow"):
                cr.max_s(g, zero_gauge(g), 0.5)

    def test_infeasible_input_evaluates_one_margin(self, monkeypatch):
        g = flat_metric()
        calls = self.count_margins(monkeypatch)
        with pytest.raises(cr.InfeasibleAtZero):
            cr.max_s(g, zero_gauge(g), 1.5)
        assert len(calls) == 1

    # case -> (metric, theta, full-grid margins per call): at S = 0, of the
    # slope M1, and the walk's; on sin1d the estimate 1/lambda is S_max and
    # the walk takes 2 (S_max, one ulp above), on the report3d shape it lies
    # 2 ulps above S_max and the walk takes 4 (down 1 ulp and 2 more, then a halving)
    MARGIN_COUNTS = {"sin1d": (sin1d_metric, 0.1, 4), "report3d": (lambda: report3d_shape(), 0.5, 6)}

    @pytest.mark.parametrize("case", sorted(MARGIN_COUNTS))
    def test_each_margin_is_evaluated_once(self, monkeypatch, case):
        # every margin runs over every node, no S twice, and the witness is
        # the walk's margin at S_max, not one more
        metric, theta, count = self.MARGIN_COUNTS[case]
        g = metric()
        pencils = []
        original = cr._margin
        monkeypatch.setattr(cr, "_margin", lambda m, n: pencils.append(m.tobytes()) or original(m, n))
        calls = self.count_margins(monkeypatch)
        cr.max_s(g, zero_gauge(g), theta)
        assert calls == [g.grid.num_nodes] * count
        assert len(set(pencils)) == len(pencils)

    @settings(max_examples=60)
    @given(n=st.sampled_from((1, 2, 3)), seed=st.integers(0, 2**32 - 1), log_cond=st.floats(0.0, 12.0))
    # draws whose margin at S = 0 is positive and whose M0 the chain cannot factor
    @example(n=2, seed=43, log_cond=0.0)
    @example(n=3, seed=1, log_cond=0.0)
    def test_near_singular_m0_never_ends_in_lin_alg_error(self, n, seed, log_cond):
        # M0 with cond up to 1e12, and at 1 to 3 nodes a smallest eigenvalue
        # from 2 ulps below 0 to 8 above, relative to its norm, where the
        # margin at S = 0 may be positive while a Cholesky factor of M0
        # fails; the pencil chain never ends in LinAlgError (a ValueError),
        # and a result is a sign change of the margin
        rng = np.random.default_rng(seed)
        shape = (8,) * n
        frames = np.linalg.qr(rng.standard_normal((*shape, n, n)))[0]
        spectra = 10.0 ** rng.uniform(0.0, log_cond, (*shape, n))
        near = np.unravel_index(rng.choice(8**n, rng.integers(1, 4), replace=False), shape)
        spectra[near + (0,)] = rng.integers(-2, 9, len(near[0])) * spectra[near].max(axis=-1) * 2.0**-52
        m0 = pair_stored(frames @ (spectra[..., None] * np.swapaxes(frames, -1, -2)))
        m1 = rng.standard_normal((*shape, n, n))
        m1 = pair_stored(m1 + np.swapaxes(m1, -1, -2))
        grid = PeriodicGrid(shape, (2.0 * math.pi,) * n)
        g0 = geo.MetricField(grid, np.broadcast_to(pair_stored(np.eye(n)), m0.shape))
        with mock.patch.object(cr, "_pencil_parts", return_value=(m0, m1)):
            try:
                result = cr.max_s(g0, zero_gauge(g0), 0.0)
            except (cr.InfeasibleAtZero, ValueError) as error:
                assert not isinstance(error, np.linalg.LinAlgError)
                return
        assert isinstance(result, cr.PencilResult)
        assert_sign_change(result, m0, m1)

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
                geo.sym_min_eigenvalues(flat_m0[node] + s * flat_m1[node], 2)
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


# the absolute stop of the full bisection below, which max_s no longer has
BISECTION_TOL = 1e-9


def reference_margin(m, n):
    """``criteria._margin`` of the full bisection, verbatim but for the
    ``[:2]`` on ``smallest_eigenvalue``, which then also returned its screen."""
    margin, worst = geo.smallest_eigenvalue(m, n)[:2]
    if not math.isfinite(margin):
        raise ValueError(f"the pencil margin is {margin}: the inputs overflow it")
    return margin, worst


def reference_max_s(g0, u, theta, scale_gauge_with_s=False):
    """``criteria.max_s`` as the full bisection, verbatim: every margin runs
    over every node.  It predates the uncapped bracket of ``max_s``, which
    changes no result with S_max below 2^79, and shares its one-ulp stop:
    above about 2^23 one ulp of S exceeds ``BISECTION_TOL``, so without the
    stop the bisection never ends, and a gauge scale next to 1 gives
    S_max = 1.1e14."""
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
    while s_hi - s_lo > BISECTION_TOL and s_lo < (mid := 0.5 * (s_lo + s_hi)) < s_hi:
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


def assert_sign_change(got, m0, m1):
    """A finite ``S_max`` is a sign change of the computed margin,
    ``margin(S) >= 0 > margin(nextafter(S, inf))``, and its witness is the
    first node that attains ``margin(S)``, with the direction of the
    smallest eigenvalue there."""
    shape = m0.shape[:-1]
    n = len(shape)
    at_s = reference_margin(m0 + got.s_max * m1, n)
    assert at_s[0] >= 0.0 > reference_margin(m0 + np.nextafter(got.s_max, math.inf) * m1, n)[0]
    node = np.unravel_index(at_s[1], shape)
    assert got.witness_node == node
    _, vecs = np.linalg.eigh(geo.sym_matrices(m0[node] + got.s_max * m1[node], n))
    assert got.witness_direction.tobytes() == vecs[:, 0].tobytes()


def same_outcome(run, m0, m1):
    """``run(max_s)`` for the walk from the pencil's estimate and for the full
    bisection: a finite ``S_max`` within ``1e-9 (1 + S_ref)`` of the
    bisection's, which stops at width 1e-9, and a sign change of the
    margin; an unbounded result for an unbounded one; or the same
    exception, with the same message where both raise InfeasibleAtZero."""
    outcomes = []
    for solver in (cr.max_s, reference_max_s):
        try:
            outcomes.append(run(solver))
        except (cr.InfeasibleAtZero, ValueError) as error:
            assert not isinstance(error, np.linalg.LinAlgError)
            outcomes.append((type(error), str(error)))
    got, want = outcomes
    if not isinstance(want, cr.PencilResult):
        assert type(got) is tuple and got[0] is want[0]
        assert got == want or want[0] is ValueError
    elif want.unbounded:
        assert got.unbounded and got.witness_node is None and got.witness_direction is None
    else:
        assert abs(got.s_max - want.s_max) <= 1e-9 * (1.0 + want.s_max)
        assert_sign_change(got, m0, m1)
    return want


class TestMaxSAgainstFullBisection:
    """The walk from the pencil's estimate ends at a sign change of the
    computed margin next to the S_max of the bisection that ``max_s`` ran
    before, kept here as the oracle, which evaluates every margin over
    every node."""

    @settings(max_examples=60)
    @given(pencil=random_pencils())
    def test_random_pencils(self, pencil):
        shape, m0, m1 = pencil
        n = len(shape)
        grid = PeriodicGrid(shape, (2.0 * math.pi,) * n)
        g0 = geo.MetricField(grid, np.broadcast_to(pair_stored(np.eye(n)), (*shape, m0.shape[-1])))
        with mock.patch.object(cr, "_pencil_parts", return_value=(m0, m1)):
            same_outcome(lambda solver: solver(g0, ScalarField.zeros(grid), 0.0), m0, m1)

    @settings(max_examples=30)
    @given(example=st.sampled_from(("sin1d", "bump2d", "potential3d")),
           theta=st.floats(0.0, 1.2), gauge_scale=st.floats(-1.0, 1.0),
           scale_gauge_with_s=st.booleans())
    # a gauge one ulp below c = 1 gives S_max = 1.1e14, where one ulp of S exceeds BISECTION_TOL
    @example(example="sin1d", theta=0.5, gauge_scale=0.9999999999999999, scale_gauge_with_s=True)
    def test_gauge_families(self, example, theta, gauge_scale, scale_gauge_with_s):
        # theta >= 1 is infeasible at zero; with scale_gauge_with_s the gauge
        # c (-log det g0) leaves the slope -(1 - c) beta0, unbounded at c = 1
        g0 = small_metric(example)
        u = cr.log_det_gauge(g0) * gauge_scale
        m0, m1 = cr._pencil_parts(g0, u, theta, scale_gauge_with_s)
        same_outcome(lambda solver: solver(g0, u, theta, scale_gauge_with_s=scale_gauge_with_s), m0, m1)

    def test_infeasible_at_zero(self):
        g0 = small_metric("potential3d")
        m0, m1 = cr._pencil_parts(g0, zero_gauge(g0), 1.0, False)
        want = same_outcome(lambda solver: solver(g0, zero_gauge(g0), 1.0), m0, m1)
        assert want[0] is cr.InfeasibleAtZero


def report3d_shape():
    """The shape of the benchmark's 3-D report: 32^3 with a product potential."""
    grid = PeriodicGrid((32,) * 3, (2.0 * math.pi,) * 3)
    psi = ScalarField.from_function(grid, lambda x, y, z: 0.1 * np.cos(x) * np.cos(y) * np.cos(z))
    return geo.metric_from_potential(geo.PotentialMetric(grid, np.eye(3), psi))


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
        lam, big_lam = geo.pencil_eigenvalue_range(g, g)
        assert lam == pytest.approx(1.0, abs=1e-12)
        assert big_lam == pytest.approx(1.0, abs=1e-12)

    def test_scalar_multiple(self):
        g0 = geo.metric_from_potential(reg.build_example("bump2d", sizes=(64, 64)))
        for c in (2.0, 0.5):
            g = geo.MetricField(g0.grid, c * g0.components)
            lam, big_lam = geo.pencil_eigenvalue_range(g, g0)
            assert lam == pytest.approx(c, abs=1e-12)
            assert big_lam == pytest.approx(c, abs=1e-12)

    def test_sin1d_at_unit_time(self):
        from koszulflow import flow as fl

        g0 = sin1d_metric(256)
        traj, _ = fl.run_flow(g0, 1.0, fl.StepControl(), diag_stride=0)
        lam, big_lam = geo.pencil_eigenvalue_range(traj[-1].g, g0)
        # reference run: lambda = 0.8865, Lambda = 1.4561
        assert lam > 0.4
        assert big_lam < 2.5
