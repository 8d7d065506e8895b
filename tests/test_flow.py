"""Flow integrators: stability bound, positivity, conservation, equivalence.

Reference-run constants (this grid family, this package, numpy 2.x):

* sin1d convergence to its conserved mean follows sup|g - 2| ~ e^(-t/2)
  (the linearization about the constant 2 is a heat equation with
  diffusivity 1/2); measured ratio to e^(-t/2) within [0.98, 1.10] for
  t in [1, 11], and sup|g - 2| <= 5e-3 first holds near t = 10.7.
* tensor/potential discrepancy, sin1d N=256 dt=1e-4 T=0.1: 2.63e-10,
  improving by 4.00x under (dt/2, N x 2).
* rough1d (seed 42, N=512) smoothing probe over t in [1e-3, 1e-1]:
  max t*sup|Q|_g observed 0.040845; sup|Q| decays 51.8x across the window.
"""

import importlib.util
import math
import os
import re
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from koszulflow import flow as fl
from koszulflow import geometry as geo
from koszulflow import registry as reg
from koszulflow.grid import PeriodicGrid, ScalarField, partial2

CTL = fl.StepControl()
EULER = fl.StepControl(scheme="euler")

# t + (target - t) rounds one ulp short of the sample time here; the flow
# must still land on both targets instead of reporting a blow-up
ULP_SAMPLE, ULP_T = 0.014677137037792349, 0.05028258882712223


def metric(name, sizes=None):
    built = reg.build_example(name, sizes=sizes)
    if isinstance(built, geo.PotentialMetric):
        return geo.metric_from_potential(built)
    return built


def bench_potential(name, seed):
    """The benchmark's potential input of workload ``name`` for ``seed``,
    built by ``bench/workloads.py`` itself."""
    path = os.path.join(os.path.dirname(__file__), os.pardir, "bench", "workloads.py")
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # dataclasses look their module up there
    try:
        spec.loader.exec_module(workloads)
    finally:
        del sys.modules[spec.name]
    workload = workloads.WORKLOADS[name]
    n = workload.ndim
    grid = PeriodicGrid(workload.sizes, (workloads.TWO_PI,) * n)
    background = np.reshape(workload.background, (n, n))
    psi = ScalarField(grid, workloads.potential_values(workload, seed))
    return geo.PotentialMetric(grid, background, psi)


def bench_metric(name, seed):
    """The metric of :func:`bench_potential`."""
    return geo.metric_from_potential(bench_potential(name, seed))


def metric3d():
    grid = PeriodicGrid((10, 9, 8), (2 * np.pi,) * 3)
    x, y, z = grid.coordinate_arrays()
    psi = ScalarField(grid, 0.2 * np.sin(x) * np.cos(y) + 0.1 * np.cos(z + x))
    return geo.metric_from_potential(geo.PotentialMetric(grid, 2.0 * np.eye(3), psi))


def reference_step(g, phi, g0, dt, scheme):
    """One tensor-leg step through the public wrappers, in the operation
    order the lean step must reproduce bit for bit."""
    if scheme == "euler":
        update = geo.beta_form(g)
    else:
        b1 = geo.beta_form(g)
        g_half = geo.MetricField(g.grid, g.components - (0.5 * dt) * b1.components)
        update = geo.beta_form(g_half)
    g_new = geo.MetricField(g.grid, g.components - dt * update.components)
    ratio_old = np.log(g.det()) - np.log(g0.det())
    ratio_new = np.log(g_new.det()) - np.log(g0.det())
    return g_new, phi + (0.5 * dt) * (ratio_old + ratio_new)


def reference_potential_step(phi, g, g0, t, dt, scheme):
    """One potential-leg step through ScalarField, MetricField, beta_form and
    partial2, in the operation order the raw-array step must reproduce."""
    grid, beta0 = g0.grid, geo.beta_form(g0)

    def reconstruct(phi_f, t_new):
        dd = np.stack([partial2(phi_f, i, j).values for i, j in geo.sym_pairs(grid.ndim)], -1)
        return geo.MetricField(grid, g0.components - t_new * beta0.components + dd)

    def rhs(g_rec):
        return np.log(g_rec.det()) - np.log(g0.det())

    k1 = rhs(g)
    if scheme == "euler":
        phi_new = ScalarField(grid, phi.values + dt * k1)
    else:
        k2 = rhs(reconstruct(ScalarField(grid, phi.values + dt * k1), t + dt))
        phi_new = ScalarField(grid, phi.values + (0.5 * dt) * (k1 + k2))
    return phi_new, reconstruct(phi_new, t + dt)


# case -> (a call the library rejects, the ValueError message it names)
REJECTED = {
    "step-dt-zero": (lambda g: fl.step_tensor(fl.FlowState.initial(g), 0.0, CTL), "dt must be positive"),
    "step-potential-dt-negative": (lambda g: fl.step_potential(fl.PotentialFlowState.initial(g), -1e-3, CTL),
                                   "dt must be positive"),
    "run-t-final-zero": (lambda g: fl.run_flow(g, 0.0, CTL), "t_final must be positive"),
    "compare-dt-zero": (lambda g: fl.equivalence_check(g, 0.1, CTL, 0.0), "dt and t_final must be positive"),
    "compare-T-negative": (lambda g: fl.equivalence_check(g, -0.1, CTL, 1e-3), "dt and t_final must be positive"),
    # NaN and inf fail every check instead of passing it
    "run-t-final-nan": (lambda g: fl.run_flow(g, math.nan, CTL), "t_final must be positive"),
    "run-t-final-inf": (lambda g: fl.run_flow(g, math.inf, CTL), "t_final must be positive"),
    "compare-T-nan": (lambda g: fl.equivalence_check(g, math.nan, CTL, 1e-3), "dt and t_final must be positive"),
    "compare-T-inf": (lambda g: fl.equivalence_check(g, math.inf, CTL, 1e-3), "dt and t_final must be positive"),
    "compare-dt-nan": (lambda g: fl.equivalence_check(g, 0.1, CTL, math.nan), "dt and t_final must be positive"),
    "control-dt-min-nan": (lambda g: fl.StepControl(dt_min=math.nan), "dt_min must be positive"),
    "control-dt-min-inf": (lambda g: fl.StepControl(dt_min=math.inf), "dt_min must be positive"),
    "step-dt-nan": (lambda g: fl.step_tensor(fl.FlowState.initial(g), math.nan, CTL), "dt must be positive"),
    "probe-sample-nan": (lambda g: fl.smoothing_probe(g, [math.nan], CTL),
                         "t_samples must be strictly increasing and positive"),
}


@pytest.mark.parametrize("case", sorted(REJECTED))
def test_rejected_call_names_its_message(case):
    call, message = REJECTED[case]
    with pytest.raises(ValueError, match=re.escape(message)):
        call(metric("flat", sizes=(8, 8)))


class TestStepControl:
    def test_validation(self):
        with pytest.raises(ValueError):
            fl.StepControl(sigma=0.0)
        with pytest.raises(ValueError):
            fl.StepControl(sigma=1.5)
        with pytest.raises(ValueError):
            fl.StepControl(scheme="rk4")
        with pytest.raises(ValueError):
            fl.StepControl(dt_min=0.0)
        with pytest.raises(ValueError):
            fl.StepControl(max_halvings=-3)


class TestStableDt:
    def test_flat_two_dimensional_formula(self):
        g = metric("flat", sizes=(64, 64))
        h = 2 * np.pi / 64
        assert fl.stable_dt(g, CTL) == pytest.approx(0.2 * h * h / 4.0, rel=1e-12)

    def test_scales_with_metric(self):
        grid = PeriodicGrid((64,), (2 * np.pi,))
        g1 = geo.MetricField(grid, np.ones((64, 1)))
        g2 = geo.MetricField(grid, 2.0 * np.ones((64, 1)))
        assert fl.stable_dt(g2, CTL) == pytest.approx(2.0 * fl.stable_dt(g1, CTL), rel=1e-12)

    def test_sin1d_uses_minimum_eigenvalue(self):
        g = metric("sin1d")
        h = g.grid.spacings[0]
        min_g = float(np.min(g.component(0, 0)))
        assert fl.stable_dt(g, CTL) == pytest.approx(0.2 * h * h * min_g / 2.0, rel=1e-12)


class TestStepTensor:
    def test_flat_is_exactly_stationary(self):
        g0 = metric("flat")
        state = fl.FlowState.initial(g0)
        for _ in range(200):
            state = fl.step_tensor(state, fl.stable_dt(state.g, CTL), CTL)
        assert np.max(np.abs(state.g.components - g0.components)) == 0.0
        assert np.max(np.abs(state.phi.values)) == 0.0

    def test_sin1d_single_euler_step_matches_probe(self):
        # beta(0) = 1/4 symbolically; truncation enters at O(h^2 * dt)
        state = fl.FlowState.initial(metric("sin1d"))
        stepped = fl.step_tensor(state, 1e-4, EULER)
        assert stepped.g.component(0, 0)[0] == pytest.approx(2.0 - 1e-4 * 0.25, abs=1e-7)
        assert stepped.t == 1e-4

    def test_rejection_retries_with_halved_step(self):
        # the Euler update of sin1d stays positive iff dt < min g^3... /beta,
        # about 7.59 at the binding node; dt=8 must be rejected once
        state = fl.FlowState.initial(metric("sin1d"))
        stepped = fl.step_tensor(state, 8.0, EULER)
        assert stepped.dt_last == pytest.approx(4.0)

    def test_blowup_after_exhausted_halvings(self):
        state = fl.FlowState.initial(metric("sin1d"))
        with pytest.raises(fl.FlowBlowup) as info:
            fl.step_tensor(state, 8.0, fl.StepControl(scheme="euler", max_halvings=0))
        assert info.value.t == 0.0
        assert [type(k) for k in info.value.node] == [int]  # plain ints, as printed and in manifests

    def test_near_degenerate_node_triggers_retry_path(self):
        grid = PeriodicGrid((128,), (2 * np.pi,))
        x = grid.axis_coordinates(0)
        comps = (1e-3 + 1.0 - np.cos(x)).reshape(-1, 1)
        g0 = geo.MetricField(grid, comps)
        state = fl.FlowState.initial(g0)
        try:
            stepped = fl.step_tensor(state, 1.0, EULER)
            assert stepped.dt_last < 1.0
        except fl.FlowBlowup as exc:
            assert exc.t == 0.0

    def test_rk2_consistency_residual(self):
        # ||(g(t+dt) - g(t))/dt + beta(g(t+dt/2))||_sup <= C dt, C ~ 0.01 here
        state = fl.FlowState.initial(metric("sin1d", sizes=(256,)))
        for dt in (1e-3, 5e-4):
            full = fl.step_tensor(state, dt, CTL)
            half = fl.step_tensor(state, dt / 2, CTL)
            resid = np.max(
                np.abs((full.g.components - state.g.components) / dt + geo.beta_form(half.g).components)
            )
            assert resid <= 0.05 * dt

    @pytest.mark.parametrize("scheme", ["euler", "rk2"])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_bit_exact_against_the_wrapper_step(self, n, scheme):
        g0 = {1: lambda: metric("sin1d", sizes=(64,)),
              2: lambda: metric("bump2d", sizes=(16, 16)),
              3: metric3d}[n]()
        control = fl.StepControl(scheme=scheme)
        state = fl.FlowState.initial(g0)
        g, phi = g0, np.zeros(g0.grid.shape)
        for _ in range(4):  # later steps reuse the cached log det and ratio
            state = fl.step_tensor(state, fl.stable_dt(state.g, control), control)
            g, phi = reference_step(g, phi, g0, state.dt_last, scheme)
            assert np.array_equal(state.g.components, g.components)
            assert np.array_equal(state.phi.values, phi)
            eigs = geo.sym_min_eigenvalues(g.components, g.grid.ndim)
            assert state.g.min_eigenvalue() == float(np.min(eigs))
        # an oversized step is rejected and halved until it passes
        halved = fl.step_tensor(state, 64.0, control)
        assert halved.dt_last < 64.0
        g, phi = reference_step(g, phi, g0, halved.dt_last, scheme)
        assert np.array_equal(halved.g.components, g.components)
        assert np.array_equal(halved.phi.values, phi)

    def test_state_arrays_are_read_only(self):
        state = fl.step_tensor(fl.FlowState.initial(metric("sin1d")), 1e-4, CTL)
        with pytest.raises(ValueError):
            state.g.components[0, 0] = 1.0
        with pytest.raises(ValueError):
            state.phi_values[0] = 1.0


class TestRunFlow:
    def test_flat_diagnostics_are_trivial(self):
        _, rows = fl.run_flow(metric("flat"), 1.0, CTL, diag_stride=50)
        for row in rows:
            assert row.lambda_min == pytest.approx(1.0, abs=1e-12)
            assert row.lambda_max == pytest.approx(1.0, abs=1e-12)
            assert row.var_det == 0.0
            assert row.sup_q == 0.0

    @pytest.mark.slow
    def test_mean_conservation_along_sin1d_run(self):
        g0 = metric("sin1d", sizes=(256,))
        _, rows = fl.run_flow(g0, 5.0, CTL, diag_stride=0)
        for row in rows:
            assert max(abs(d) for d in row.mean_drift) <= 1e-10 * (1.0 + row.t)

    @pytest.mark.slow
    def test_sin1d_converges_to_conserved_mean(self):
        # decay law sup|g-2| ~ e^(-t/2); 5e-3 is reached near t = 10.7
        g0 = metric("sin1d", sizes=(256,))
        traj, _ = fl.run_flow(g0, 11.0, CTL, sample_times=(2.5, 5.0, 11.0), diag_stride=0)
        for state in traj:
            err = np.max(np.abs(state.g.component(0, 0) - 2.0))
            assert 0.95 <= err / np.exp(-state.t / 2.0) <= 1.10
        assert np.max(np.abs(traj[-1].g.component(0, 0) - 2.0)) <= 5e-3

    def test_sample_time_zero_is_the_initial_state(self):
        g0 = metric("sin1d", sizes=(16,))
        initial = fl.FlowState.initial(g0)
        traj, rows = fl.run_flow(g0, 0.01, CTL, sample_times=(0.0, 0.005), diag_stride=0)
        assert [state.t for state in traj] == [0.0, 0.005, 0.01]
        assert traj[0].g.components.tobytes() == initial.g.components.tobytes()
        assert traj[0].phi.values.tobytes() == initial.phi.values.tobytes()
        assert [row.t for row in rows] == [0.0, 0.005, 0.01]

    def test_one_dimensional_minimum_principle(self):
        state = fl.FlowState.initial(metric("sin1d", sizes=(256,)))
        previous = state.g.min_eigenvalue()
        for _ in range(500):
            state = fl.step_tensor(state, fl.stable_dt(state.g, EULER), EULER)
            current = state.g.min_eigenvalue()
            assert current >= previous - 1e-12
            previous = current

    @pytest.mark.slow
    def test_bump2d_determinant_variance_collapses(self):
        g0 = metric("bump2d")
        var0 = float(np.var(g0.det()))
        traj, _ = fl.run_flow(g0, 2.0, CTL, diag_stride=0)
        assert float(np.var(traj[-1].g.det())) <= var0 / 10.0

    def test_sample_times_are_hit_exactly(self):
        traj, _ = fl.run_flow(metric("flat"), 1.0, CTL, sample_times=(0.25, 0.5), diag_stride=0)
        assert [s.t for s in traj] == [0.25, 0.5, 1.0]

    def test_deterministic(self):
        g0 = metric("sin1d", sizes=(256,))
        _, rows1 = fl.run_flow(g0, 0.05, CTL, diag_stride=10)
        _, rows2 = fl.run_flow(g0, 0.05, CTL, diag_stride=10)
        assert [r.csv_values() for r in rows1] == [r.csv_values() for r in rows2]

    def test_blowup_carries_partial_results(self):
        # a dt floor above the stability bound with no halving budget makes
        # the very first step fail; run_flow must hand back its partials
        g0 = metric("sin1d", sizes=(128,))
        bad = fl.StepControl(scheme="euler", dt_min=0.5, max_halvings=0)
        with pytest.raises(fl.FlowBlowup) as info:
            fl.run_flow(g0, 1.0, bad, diag_stride=1)
        assert info.value.t == 0.0
        trajectory, rows = info.value.partial
        assert len(rows) == 1  # the t=0 row
        assert trajectory == []

    def test_values_are_computed_once(self, monkeypatch):
        # log det g0 once per run; one eigenvalue pass per candidate metric
        # (g_half and g_new of each rk2 step), none more in stable_dt
        g0 = metric("sin1d", sizes=(32,))
        counts = {"steps": 0, "min_eig": 0, "log_det_g0": 0}

        def counted(key, original, only_self=None):
            def wrapper(*args):
                if only_self is None or args[0] is only_self:
                    counts[key] += 1
                return original(*args)
            return wrapper

        monkeypatch.setattr(fl, "step_tensor", counted("steps", fl.step_tensor))
        for module in (geo, fl):
            if hasattr(module, "sym_min_eigenvalues"):
                monkeypatch.setattr(module, "sym_min_eigenvalues",
                                    counted("min_eig", module.sym_min_eigenvalues))
        monkeypatch.setattr(geo.MetricField, "det", counted("log_det_g0", geo.MetricField.det, g0))
        fl.run_flow(g0, 0.05, CTL, diag_stride=0)
        assert counts["steps"] > 10
        assert counts["min_eig"] == 2 * counts["steps"]
        assert counts["log_det_g0"] == 1

    def test_three_dimensional_step_reads_one_exact_value(self, monkeypatch):
        # at n = 3 each candidate metric passes the positivity certificate,
        # and the smallest eigenvalue is computed once per step, in stable_dt
        g0 = metric3d()
        counts = {"steps": 0, "certificate": 0, "smallest": 0}

        def counted(key, original):
            def wrapper(*args):
                counts[key] += 1
                return original(*args)
            return wrapper

        monkeypatch.setattr(fl, "step_tensor", counted("steps", fl.step_tensor))
        monkeypatch.setattr(geo, "_positivity_certificate",
                            counted("certificate", geo._positivity_certificate))
        monkeypatch.setattr(geo, "smallest_eigenvalue", counted("smallest", geo.smallest_eigenvalue))
        fl.run_flow(g0, 0.1, CTL, diag_stride=0)
        assert counts["steps"] > 3
        assert counts["certificate"] == 2 * counts["steps"] and counts["smallest"] == counts["steps"]
        # two legs, two checks per rk2 step each, and no smallest eigenvalue
        counts.update(certificate=0, smallest=0)
        fl.equivalence_check(g0, 0.01, CTL, 0.005)
        assert (counts["certificate"], counts["smallest"]) == (8, 0)

    def test_certified_three_dimensional_step_forms_no_second_determinant(self, monkeypatch):
        # each candidate metric's log det comes from the determinant its
        # positivity certificate formed, on both legs and in both schemes
        g0 = metric3d()
        counts = {"certificate": 0, "sym_det": 0}

        def counted(key, original):
            def wrapper(*args):
                counts[key] += 1
                return original(*args)
            return wrapper

        monkeypatch.setattr(geo, "_positivity_certificate",
                            counted("certificate", geo._positivity_certificate))
        for module in (geo, fl):
            monkeypatch.setattr(module, "sym_det", counted("sym_det", module.sym_det))
        for control in (CTL, EULER):
            for step, state in ((fl.step_tensor, fl.FlowState.initial(g0)),
                                (fl.step_potential, fl.PotentialFlowState.initial(g0))):
                counts.update(certificate=0, sym_det=0)
                for _ in range(2):
                    state = step(state, 1e-3, control)
                checks = 4 if control.scheme == "rk2" else 2
                assert counts == {"certificate": checks, "sym_det": 0}

    def test_calls_per_accepted_step(self):
        # a guard on per-step dispatch that reads no clock: the package's
        # Python function calls while run_flow's stepping loop (_advance)
        # produces its accepted rk2 steps, counted with sys.setprofile
        g0 = metric("sin1d", sizes=(32,))
        fl.run_flow(g0, 0.01, CTL, diag_stride=0)  # fills the per-process caches
        package = os.path.dirname(fl.__file__) + os.sep
        counts = {"calls": 0, "steps": 0}
        inside = False

        def profile(frame, event, arg):
            nonlocal inside
            if event == "return" and frame.f_code is fl._advance.__code__:
                inside = False
            inside |= event == "call" and frame.f_code is fl._advance.__code__
            if inside and event == "call" and frame.f_code.co_filename.startswith(package):
                counts["calls"] += 1
                counts["steps"] += frame.f_code is fl._attempt_tensor_step.__code__

        sys.setprofile(profile)
        try:
            fl.run_flow(g0, 0.1, CTL, sample_times=(0.05,), diag_stride=5)
        finally:
            sys.setprofile(None)
        assert counts["steps"] > 10
        # one more resume of the loop ends it
        assert counts["calls"] - 1 <= 35 * counts["steps"]

    def test_float_time_targets_are_landed_exactly(self):
        traj, rows = fl.run_flow(metric("sin1d", sizes=(8,)), ULP_T, CTL, (ULP_SAMPLE,), 0)
        assert [s.t for s in traj] == [ULP_SAMPLE, ULP_T]
        assert [r.t for r in rows] == [0.0, ULP_SAMPLE, ULP_T]

    @settings(max_examples=40)
    @given(targets=st.lists(st.floats(1e-9, 0.05), min_size=1, max_size=4, unique=True),
           name=st.sampled_from(("sin1d", "bump2d")))
    # two targets closer than dt_min (1e-15)
    @example(targets=[1e-09, 1.0000000000000003e-09], name="sin1d")
    @example(targets=[1e-09, 1.0000000000000003e-09], name="bump2d")
    def test_advance_lands_on_random_float_targets(self, targets, name):
        targets = sorted(targets)
        g0 = metric(name, sizes=(16,) if name == "sin1d" else (8, 8))
        landed = [state for state, reached in fl._advance(fl.FlowState.initial(g0), targets, CTL)
                  if reached]
        assert [state.t for state in landed] == targets
        assert all(state.min_eig > 0.5 for state in landed)

    @pytest.mark.parametrize(
        "samples, stride",
        [((-0.5,), 100), ((0.5, 2.0), 100), ((float("nan"),), 100), ((), -1)],
        ids=["sample-negative", "sample-beyond-T", "sample-nan", "stride-negative"],
    )
    def test_rejects_bad_samples_and_stride(self, samples, stride):
        with pytest.raises(ValueError):
            fl.run_flow(metric("flat", sizes=(8, 8)), 1.0, CTL, samples, stride)

    def test_rows_factor_g0_once(self, monkeypatch):
        # every row's pencil is taken against g0, whose inverse Cholesky
        # factor the first row forms and g0 keeps
        calls = []
        original = geo._inverse_factor
        monkeypatch.setattr(geo, "_inverse_factor", lambda *args: calls.append(1) or original(*args))
        g0 = metric("bump2d", sizes=(16, 16))
        _, rows = fl.run_flow(g0, 20 * fl.stable_dt(g0, CTL), CTL, diag_stride=5)
        assert len(rows) == 5 and len(calls) == 1


class TestHotPathMemory:
    """Clock-free guards on the whole-grid temporaries of the flow: the
    ``tracemalloc`` peak of one rk2 step and of one diagnostics row on the
    benchmark's ``flow2d_diag`` input (seed 402, 128^2), and of one row on
    its ``report3d`` input (seed 402, 32^3), each after one step and one
    call that fills the per-process caches and ``g0``'s inverse Cholesky
    factor."""

    # measured 1.254, 1.723 and 7.816 MiB; with the row's sup |Q|_g operands
    # and spectral bounds and its pencil screen formed on the whole grid,
    # the rows were 3.378 and 19.50 MiB, and before that, with a stencil's
    # temporaries per pass, a copy per derivative slot, out-of-place rk2
    # stages and spectral bounds, the full g^-1 and [k, i, j] first
    # derivatives at every node and g0's factor formed per row, the 2-D
    # step and row were 1.626 and 4.503 MiB
    @pytest.mark.parametrize("name, limit_mib", [("step", 1.26), ("row", 1.73), ("row3d", 7.82)])
    def test_peak_memory(self, peak_mib, name, limit_mib):
        state = fl.FlowState.initial(bench_metric("report3d" if name == "row3d" else "flow2d_diag", 402))
        dt = fl.stable_dt(state, CTL)
        state = fl.step_tensor(state, dt, CTL)
        run = {"step": lambda: fl.step_tensor(state, dt, CTL),
               "row": lambda: fl.diagnostics_row(state, dt),
               "row3d": lambda: fl.diagnostics_row(state, dt)}[name]
        run()
        assert peak_mib(run)[1] <= limit_mib


class TestReportMemory:
    """Clock-free guards on the whole-grid temporaries of the 3-D report:
    the ``tracemalloc`` peak of each call on the benchmark's ``report3d``
    input (seed 402, 32^3), after one call that fills the per-process
    caches.  Each limit is the value this code reaches."""

    # measured 0.506, 3.894, 4.144, 10.41, 11.41 and 1.127 MiB; with the
    # certificate and the 3x3 eigenvalue screen formed on the whole grid in
    # one temporary per operation, g0 - t beta0 formed twice per potential
    # step, the tensor leg's old state held through the potential step, and
    # the bundle's full d, g^-1 and g matrices and Q's fourth derivatives on
    # the whole grid, they were 5.565, 8.566, 9.066, 17.57, 21.02 and 4.503 MiB
    @pytest.mark.parametrize("name, limit_mib", [("check_metric", 0.51), ("tensor_step", 3.9),
                                                 ("potential_step", 4.15), ("equivalence", 10.42),
                                                 ("bundle", 11.42), ("smallest_eigenvalue", 1.13)])
    def test_peak_memory(self, peak_mib, name, limit_mib):
        pm = bench_potential("report3d", 402)
        g = geo.metric_from_potential(pm)
        dt = fl.stable_dt(g, CTL)
        tensor = fl.step_tensor(fl.FlowState.initial(g), dt, CTL)
        scalar = fl.step_potential(fl.PotentialFlowState.initial(g), dt, CTL)
        run = {"check_metric": lambda: geo.check_metric(g.components, 3),
               "tensor_step": lambda: fl.step_tensor(tensor, dt, CTL),
               "potential_step": lambda: fl.step_potential(scalar, dt, CTL),
               "equivalence": lambda: fl.equivalence_check(g, 0.0025, CTL, 0.0005),
               "bundle": lambda: geo.curvature_bundle(g, pm, (1, 2, 3)),
               "smallest_eigenvalue": lambda: geo.smallest_eigenvalue(g.components, 3)}[name]
        run()
        assert peak_mib(run)[1] <= limit_mib


class TestPotentialFlow:
    def test_flat_potential_stays_exactly_zero(self):
        g0 = metric("flat")
        state = fl.PotentialFlowState.initial(g0)
        for _ in range(50):
            state = fl.step_potential(state, 1e-3, CTL)
        assert np.max(np.abs(state.phi.values)) == 0.0
        assert np.max(np.abs(state.g.components - g0.components)) == 0.0

    def test_two_euler_steps_unroll_in_closed_form(self):
        g0 = metric("sin1d", sizes=(256,))
        dt = 1e-3
        state = fl.PotentialFlowState.initial(g0)
        state = fl.step_potential(state, dt, EULER)
        assert np.max(np.abs(state.phi.values)) == 0.0  # log(det g0/det g0) = 0
        state = fl.step_potential(state, dt, EULER)
        beta0 = geo.beta_form(g0)
        shifted = geo.MetricField(g0.grid, g0.components - dt * beta0.components)
        expected = dt * (np.log(shifted.det()) - np.log(g0.det()))
        assert np.max(np.abs(state.phi.values - expected)) <= 1e-12

    def test_rejection_halves_then_blows_up(self):
        # the first Euler step of the scalar leg reconstructs g0 - dt beta(g0),
        # the tensor leg's Euler update: dt=8 fails positivity, dt=4 passes
        state = fl.PotentialFlowState.initial(metric("sin1d"))
        assert fl.step_potential(state, 8.0, EULER).t == 4.0
        with pytest.raises(fl.FlowBlowup) as info:
            fl.step_potential(state, 8.0, fl.StepControl(scheme="euler", max_halvings=0))
        assert info.value.t == 0.0
        assert info.value.node is not None

    @pytest.mark.parametrize("scheme", ["euler", "rk2"])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_bit_exact_against_the_wrapper_step(self, n, scheme):
        g0 = {1: lambda: metric("sin1d", sizes=(64,)),
              2: lambda: metric("bump2d", sizes=(16, 16)),
              3: metric3d}[n]()
        control = fl.StepControl(scheme=scheme)
        state = fl.PotentialFlowState.initial(g0)
        phi, g = ScalarField.zeros(g0.grid), g0
        for _ in range(4):  # later steps reuse the cached ratio as k1
            dt = fl.stable_dt(state.g, control)
            phi, g = reference_potential_step(phi, g, g0, state.t, dt, scheme)
            state = fl.step_potential(state, dt, control)
            assert np.array_equal(state.g.components, g.components)
            assert np.array_equal(state.phi.values, phi.values)
            assert state.g.min_eigenvalue() == g.min_eigenvalue()
        # an oversized step is rejected and halved until it passes
        halved = fl.step_potential(state, 64.0, control)
        assert halved.dt_last < 64.0
        phi, g = reference_potential_step(phi, g, g0, state.t, halved.dt_last, scheme)
        assert np.array_equal(halved.g.components, g.components)
        assert np.array_equal(halved.phi.values, phi.values)

    def test_bump2d_reconstruction_stays_uniformly_positive(self):
        g0 = metric("bump2d")
        state = fl.PotentialFlowState.initial(g0)
        min_eig = np.inf
        while state.t < 0.1:
            dt = min(fl.stable_dt(state.g, CTL), 0.1 - state.t)
            state = fl.step_potential(state, dt, CTL)
            min_eig = min(min_eig, state.g.min_eigenvalue())
        assert min_eig > 0.5


class TestEquivalence:
    def test_flat_legs_coincide_exactly(self):
        assert fl.equivalence_check(metric("flat"), 0.5, CTL, 1e-2) == 0.0

    def test_euler_legs_are_the_same_discrete_map(self):
        # with matching one-stage schemes the scalar leg telescopes into the
        # tensor leg; only rounding survives
        d = fl.equivalence_check(metric("sin1d", sizes=(256,)), 0.05, EULER, 1e-4)
        assert d <= 1e-12

    def test_forms_log_det_g0_once(self, monkeypatch):
        # the scalar leg starts from the tensor leg's initial state, so both
        # legs share one log det g0, and the run keeps the bits of two starts
        g0 = metric("sin1d", sizes=(64,))
        want = fl.equivalence_check(g0, 0.01, CTL, 1e-3)
        tensor = fl.FlowState.initial(g0)
        scalar = fl.PotentialFlowState.alongside(tensor)
        assert scalar.log_det_g0 is tensor.log_det_g0
        assert scalar.beta0.tobytes() == fl.PotentialFlowState.initial(g0).beta0.tobytes()
        calls = []
        original = geo.MetricField.log_det
        monkeypatch.setattr(geo.MetricField, "log_det", lambda g: calls.append(g) or original(g))
        assert fl.equivalence_check(g0, 0.01, CTL, 1e-3) == want
        assert len(calls) == 1

    def test_sin1d_discrepancy_and_refinement(self):
        coarse = fl.equivalence_check(metric("sin1d", sizes=(256,)), 0.1, CTL, 1e-4)
        fine = fl.equivalence_check(metric("sin1d", sizes=(512,)), 0.1, CTL, 5e-5)
        assert coarse <= 1e-4  # measured 2.63e-10
        assert coarse / fine >= 3.0  # measured 4.00

    def test_no_ulp_long_step_pair_at_the_end(self, monkeypatch):
        # ten steps of 0.01 sum to one ulp short of 0.1: that gap is the
        # rounding of t, not an eleventh pair of steps
        sizes = {"tensor": [], "potential": []}
        for leg in sizes:
            def counted(state, dt, scheme, _leg=leg, _attempt=getattr(fl, f"_attempt_{leg}_step")):
                sizes[_leg].append(dt)
                return _attempt(state, dt, scheme)
            monkeypatch.setattr(fl, f"_attempt_{leg}_step", counted)
        fl.equivalence_check(metric("sin1d", sizes=(32,)), 0.1, CTL, 0.01)
        assert sizes == {"tensor": [0.01] * 10, "potential": [0.01] * 10}

    def test_blowup_reports_the_last_time_both_legs_were_valid(self, monkeypatch):
        # the third potential step fails after the third tensor step succeeded:
        # both legs were last valid after two steps, and the blow-up carries
        # the sup discrepancy of those two, which a run to t = 0.02 reports
        g0 = metric("sin1d", sizes=(32,))
        two_steps = fl.equivalence_check(g0, 0.02, CTL, 0.01)
        attempts = []
        original = fl._attempt_potential_step

        def failing(state, dt, scheme):
            attempts.append(dt)
            if len(attempts) == 3:
                raise geo.NotPositiveDefinite((5,), -1.0)
            return original(state, dt, scheme)

        monkeypatch.setattr(fl, "_attempt_potential_step", failing)
        with pytest.raises(fl.FlowBlowup) as info:
            fl.equivalence_check(g0, 0.1, CTL, 0.01)
        assert (info.value.t, info.value.node) == (0.01 + 0.01, (5,))
        assert info.value.partial == two_steps > 0.0

    def test_steps_build_no_field_wrappers(self, monkeypatch):
        # both legs step on raw arrays; every grid computes its spacings once
        counts = {"ScalarField": 0, "MetricField": 0}
        spacings_per_grid = {}

        def counted(key, original):
            def wrapper(self, *args):
                counts[key] += 1
                return original(self, *args)
            return wrapper

        spacings = PeriodicGrid.__dict__["spacings"]
        compute = spacings.func

        def counted_spacings(grid):
            spacings_per_grid[id(grid)] = spacings_per_grid.get(id(grid), 0) + 1
            return compute(grid)

        monkeypatch.setattr(spacings, "func", counted_spacings)
        g0 = metric("sin1d", sizes=(32,))
        monkeypatch.setattr(ScalarField, "__init__", counted("ScalarField", ScalarField.__init__))
        monkeypatch.setattr(geo.MetricField, "__init__",
                            counted("MetricField", geo.MetricField.__init__))
        assert fl.equivalence_check(g0, 0.02, CTL, 1e-3) > 0.0
        assert counts == {"ScalarField": 0, "MetricField": 0}
        assert set(spacings_per_grid.values()) == {1}


class TestSmoothingProbe:
    def test_flat_curvature_is_zero_at_all_times(self):
        series = fl.smoothing_probe(metric("flat"), (0.01, 0.02), CTL)
        assert all(sup_q == 0.0 for _, sup_q, _ in series)

    def test_rough1d_decay(self):
        g0 = metric("rough1d")
        series = fl.smoothing_probe(g0, (1e-3, 2e-3, 5e-3, 1e-2, 2e-2, 5e-2, 1e-1), CTL)
        sup_first = series[0][1]
        sup_last = series[-1][1]
        assert sup_last <= sup_first / 10.0  # measured ratio 51.8
        assert max(t_sup for _, _, t_sup in series) <= 0.0413  # observed 0.040845

    @pytest.mark.slow
    def test_decay_bound_settles_under_grid_refinement(self):
        # the paper's short-time solution rests on a Lee-Tam-type bound
        # |Q| <= a / t with a set by the C^0 data of g0, not by its curvature.
        # rough1d is nested in N (every low mode kept, higher ones added), so
        # refining grows sup|Q|_g(0) while t sup|Q|_g settles; measured at
        # N = 128, 256, 512: sup|Q|_g(0) 16.85, 56.01, 119.5; max_t 0.051744,
        # 0.051887, 0.051936 (peak near t = 0.46); at t = 1e-3 0.01102,
        # 0.01849, 0.02117.  Without smoothing (beta = 0) t sup|Q|_g grows
        # with sup|Q|_g(0), that is with N.
        times = sorted({*np.logspace(-6.0, -1.0, 26).tolist(), 0.2, 0.3, 0.4, 0.5, 0.6})
        initial, peak, early = [], [], []
        for n in (128, 256, 512):
            g0 = metric("rough1d", sizes=(n,))
            series = fl.smoothing_probe(g0, times, CTL)
            initial.append(geo.sup_q_gnorm(g0))
            peak.append(max(t_sup for _, _, t_sup in series))
            early.append(next(t_sup for t, _, t_sup in series if t == 1e-3))
        assert initial[2] >= 5.0 * initial[0]
        for settling in (peak, early):
            assert abs(settling[2] - settling[1]) < abs(settling[1] - settling[0])

    def test_sample_validation(self):
        with pytest.raises(ValueError):
            fl.smoothing_probe(metric("flat"), (0.01, 0.005), CTL)
        with pytest.raises(ValueError):
            fl.smoothing_probe(metric("flat"), (-0.01,), CTL)

    def test_blowup_carries_the_samples_reached(self, blowup_past):
        g0 = metric("sin1d", sizes=(32,))
        reached = fl.smoothing_probe(g0, (0.01,), CTL)
        blowup_past(0.015)
        with pytest.raises(fl.FlowBlowup) as info:
            fl.smoothing_probe(g0, (0.01, 0.02, 0.03), CTL)
        assert 0.015 < info.value.t < 0.02
        assert info.value.partial == reached

    def test_peak_memory_does_not_grow_with_the_samples(self, peak_mib):
        # the probe keeps rows, not sample states: with 20 samples its peak
        # exceeds that with 2 by less than one state's six arrays (bump2d at
        # 64^2, 0.19 MiB); measured 1.22 and 1.27 MiB, where keeping every
        # sample state took 1.29 and 4.71 MiB
        g0 = metric("bump2d", sizes=(64, 64))
        state_mib = 6 * g0.grid.num_nodes * 8 / 2**20
        peaks = []
        for count in (2, 20):
            times = np.linspace(0.0, 0.01, count + 1)[1:]
            fl.smoothing_probe(g0, times, CTL)  # fills the per-process caches
            series, peak = peak_mib(lambda: fl.smoothing_probe(g0, times, CTL))
            assert len(series) == count
            peaks.append(peak)
        assert peaks[1] - peaks[0] < state_mib

    def test_float_time_targets_are_landed_exactly(self):
        series = fl.smoothing_probe(metric("sin1d", sizes=(8,)), (ULP_SAMPLE, ULP_T), CTL)
        assert [t for t, _, _ in series] == [ULP_SAMPLE, ULP_T]


class TestLogDetGaugeEnvelope:
    """The paper's C^0 estimate for the flow's potential, in the log-det
    gauge, where the a2 window is unbounded: with ``g(t) = g0 + dd(psi)``
    and ``psi = phi + t log det g0``, ``psi_t = log det g``; at a spatial
    maximum of ``psi`` ``dd(psi) <= 0``, and at a minimum ``>= 0``, so at
    every node and for every ``t``

        t (min ldg0 - ldg0(x)) <= phi(t, x) <= t (max ldg0 - ldg0(x)),

    with ``ldg0 = log det g0``, on the tensor leg's ``phi`` (the trapezoid
    of ``log det g - log det g0``).  In 1-D the 3-point second difference
    obeys a discrete maximum principle; in 2-D the centered mixed
    difference does not promise one, so there the bound is measured to
    hold, not proven.  Smallest margin measured: 5.5e-3 (rough1d at
    t = 0.1, its upper side)."""

    @pytest.mark.parametrize("name, sizes, times", [
        ("sin1d", None, (0.5, 1.0)),
        ("rough1d", None, (0.1, 0.5)),
        ("bump2d", (64, 64), (0.25, 1.0)),
        pytest.param("twist2d", None, (0.5,), marks=pytest.mark.slow),  # about 4 s at 128^2
    ], ids=["sin1d", "rough1d", "bump2d", "twist2d"])
    def test_phi_lies_in_the_envelope(self, name, sizes, times):
        g0 = metric(name, sizes)
        ldg0 = g0.log_det()
        states, _ = fl.run_flow(g0, max(times), CTL, sample_times=times, diag_stride=0)
        assert [state.t for state in states] == list(times)
        for state in states:
            phi = state.phi_values
            assert np.all(state.t * (ldg0.min() - ldg0) <= phi), state.t
            assert np.all(phi <= state.t * (ldg0.max() - ldg0)), state.t
