"""Acceptance suite: the package's shipped guarantees, one test per
criterion, each printing a single pass/fail line (run with ``pytest -s``
to see the lines as they are produced).

Criterion 4 includes a convergence clause (sin1d reaches its conserved
mean to 5e-3 by T=5) that the flow it specifies cannot satisfy: the
linearization about the mean 2 diffuses at rate 1/2, so sup|g-2| at t=5
is e^(-2.5) ~ 8.2e-2 and the 5e-3 threshold is first reached near
t = 10.7.  The clause is asserted as stated and is expected to fail; the
surrounding clauses and the decay law itself are verified.
"""

import time

import numpy as np
import pytest

from koszulflow import criteria as cr
from koszulflow import flow as fl
from koszulflow import geometry as geo
from koszulflow import registry as reg
from koszulflow.cli import main as cli_main
from koszulflow.grid import ScalarField, partial3, partial4
from koszulflow.io import read_snapshot

CTL = fl.StepControl()
EULER = fl.StepControl(scheme="euler")


def report(number, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {detail}")
    assert ok, f"criterion {number}: {detail}"


def build(name, sizes=None):
    return reg.build_example(name, sizes=sizes)


def metric(name, sizes=None):
    built = build(name, sizes)
    return geo.metric_from_potential(built) if isinstance(built, geo.PotentialMetric) else built


def q_symmetry_worst(pm):
    """Stored curvature tensor vs fresh per-tuple formula (no storage
    symmetrization involved), sup over all index tuples."""
    g = geo.metric_from_potential(pm)
    ginv = g.inverse_matrices()
    q = geo.hessian_curvature(pm)
    n = pm.grid.ndim
    worst = 0.0
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for l in range(n):
                    fourth = partial4(pm.psi, i, j, k, l).values
                    t_ik = np.stack([partial3(pm.psi, i, k, p).values for p in range(n)], -1)
                    t_jl = np.stack([partial3(pm.psi, j, l, p).values for p in range(n)], -1)
                    quad = np.einsum("...pq,...p,...q->...", ginv, t_ik, t_jl)
                    direct = 0.5 * fourth - 0.5 * quad
                    worst = max(worst, float(np.max(np.abs(q.component(i, j, k, l) - direct))))
    return worst


def test_criterion_1_identity_suite():
    failures = []
    ratios = {}
    for name, sizes in (("sin1d", (512,)), ("bump2d", (128, 128))):
        pm = build(name, sizes)
        g = geo.metric_from_potential(pm)
        _, kappa, beta = geo.koszul(g)
        if np.max(np.abs(kappa.components + 0.5 * beta.components)) > 1e-12:
            failures.append(f"{name}: kappa != -beta/2")
        if geo.hessian_defect(g) > 1e-12:
            failures.append(f"{name}: hessian defect {geo.hessian_defect(g):.2e}")
        if q_symmetry_worst(pm) > 1e-12:
            failures.append(f"{name}: Q symmetry defect")

    for name, coarse, fine in (("sin1d", (512,), (1024,)), ("bump2d", (128, 128), (256, 256))):
        errs_alpha, errs_riem = {}, {}
        for label, sizes in (("coarse", coarse), ("fine", fine)):
            pm = build(name, sizes)
            g = geo.metric_from_potential(pm)
            alpha, _, _ = geo.koszul(g)
            gamma_mixed, _ = geo.christoffel(g)
            errs_alpha[label] = float(np.max(np.abs(alpha - np.einsum("...kik->...i", gamma_mixed))))
            diff = geo.riemann_from_gamma(g) - geo.riemann_from_q(geo.hessian_curvature(pm))
            errs_riem[label] = float(np.max(np.abs(diff)))
        if errs_alpha["coarse"] > 1e-3:
            failures.append(f"{name}: alpha-trace error {errs_alpha['coarse']:.2e}")
        ratio = errs_alpha["coarse"] / errs_alpha["fine"]
        ratios[f"{name} alpha"] = ratio
        if not 3.5 <= ratio <= 4.5:
            failures.append(f"{name}: alpha-trace ratio {ratio:.2f}")
        if errs_riem["coarse"] > 1e-3:
            failures.append(f"{name}: riemann route error {errs_riem['coarse']:.2e}")
        # both routes vanish identically on these examples (1-D, and the
        # separable-flat 2-D bump); the decay clause is vacuous at rounding
        if errs_riem["coarse"] > 1e-12:
            ratio = errs_riem["coarse"] / errs_riem["fine"]
            if not 3.5 <= ratio <= 4.5:
                failures.append(f"{name}: riemann ratio {ratio:.2f}")

    detail = "identities exact, refinement ratios " + ", ".join(
        f"{k}={v:.2f}" for k, v in ratios.items()
    )
    report(1, not failures, detail if not failures else "; ".join(failures))


def test_criterion_2_kahler_correspondence():
    failures = []
    for name in ("flat", "sin1d", "bump2d", "rough1d"):
        _, norm = geo.pullback_chern_torsion(metric(name))
        if norm > 1e-10:
            failures.append(f"{name}: torsion {norm:.2e}")
    _, twist_norm = geo.pullback_chern_torsion(metric("twist2d"))
    if twist_norm < 0.01:
        failures.append(f"twist2d torsion {twist_norm:.2e} < 0.01")

    decays = {}
    for name, coarse, fine in (("sin1d", (512,), (1024,)), ("bump2d", (128, 128), (256, 256))):
        errs_rt, errs_tr = {}, {}
        for label, sizes in (("coarse", coarse), ("fine", fine)):
            pm = build(name, sizes)
            g = geo.metric_from_potential(pm)
            q = geo.hessian_curvature(pm)
            _, _, beta = geo.koszul(g)
            errs_rt[label] = float(np.max(np.abs(geo.kahler_curvature_pullback(pm) + 0.5 * q.full())))
            errs_tr[label] = geo.contraction_identity_defect(q, g, beta)
        for tag, errs in (("pullback", errs_rt), ("trace", errs_tr)):
            if errs["coarse"] > 1e-3:
                failures.append(f"{name} {tag}: {errs['coarse']:.2e}")
            ratio = errs["coarse"] / errs["fine"]
            decays[f"{name} {tag}"] = ratio
            if ratio < 3.0:
                failures.append(f"{name} {tag} ratio {ratio:.2f}")

    detail = "torsion/curvature identities hold, order-2 decays " + ", ".join(
        f"{k}={v:.2f}" for k, v in decays.items()
    )
    report(2, not failures, detail if not failures else "; ".join(failures))


def test_criterion_3_point_probes():
    pm = build("sin1d", (512,))
    grid = pm.grid
    g = geo.metric_from_potential(pm)
    alpha, kappa, beta = geo.koszul(g)
    gamma_mixed, _ = geo.christoffel(g)
    q = geo.hessian_curvature(pm)
    at = lambda field, x: field[grid.nearest_node((x,))]
    q00 = q.component(0, 0, 0, 0)
    sect = geo.sectional_extremes(q, g, n_samples=1000, refine_steps=50, seed=0)
    checks = {
        "beta(0)=1/4": (at(beta.component(0, 0), 0.0), 0.25, 1e-3),
        "beta(pi/2)=1/3": (at(beta.component(0, 0), np.pi / 2), 1 / 3, 1e-3),
        "alpha(0)=1/4": (alpha[grid.nearest_node((0.0,)) + (0,)], 0.25, 1e-3),
        "kappa(0)=-1/8": (at(kappa.component(0, 0), 0.0), -0.125, 1e-3),
        "gamma(0)=1/4": (gamma_mixed[grid.nearest_node((0.0,)) + (0, 0, 0)], 0.25, 1e-3),
        "Q(0)=-1/4": (at(q00, 0.0), -0.25, 1e-3),
        "Q(pi/2)=-1/2": (at(q00, np.pi / 2), -0.5, 1e-3),
        "Q(3pi/2)=+1/2": (at(q00, 3 * np.pi / 2), 0.5, 1e-3),
        "max_H=1/2": (sect.max_value, 0.5, 0.02),
    }
    failures = [
        f"{label}: {value:.6f} vs {target}"
        for label, (value, target, tol) in checks.items()
        if abs(value - target) > tol
    ]
    report(3, not failures, f"{len(checks)} symbolic probes within tolerance"
           if not failures else "; ".join(failures))


@pytest.mark.slow
def test_criterion_4_flow_correctness():
    clauses = {}

    g_flat = metric("flat")
    state = fl.FlowState.initial(g_flat)
    for _ in range(200):
        state = fl.step_tensor(state, fl.stable_dt(state.g, CTL), CTL)
    clauses["flat stationary"] = np.max(np.abs(state.g.components - g_flat.components)) <= 1e-12

    g0 = metric("sin1d", (256,))
    traj, rows = fl.run_flow(g0, 5.0, CTL, diag_stride=0)
    clauses["mean conservation"] = all(
        max(abs(d) for d in row.mean_drift) <= 1e-10 * (1 + row.t) for row in rows
    )
    final_err = float(np.max(np.abs(traj[-1].g.component(0, 0) - 2.0)))
    clauses["convergence to mean (5e-3 at T=5)"] = final_err <= 5e-3

    state = fl.FlowState.initial(metric("sin1d", (256,)))
    previous = state.g.min_eigenvalue()
    min_principle = True
    for _ in range(1000):
        state = fl.step_tensor(state, fl.stable_dt(state.g, EULER), EULER)
        current = state.g.min_eigenvalue()
        if current < previous - 1e-12:
            min_principle = False
            break
        previous = current
    clauses["1-D minimum principle"] = min_principle

    gb = metric("bump2d")
    var0 = float(np.var(gb.det()))
    traj_b, _ = fl.run_flow(gb, 2.0, CTL, diag_stride=0)
    var2 = float(np.var(traj_b[-1].g.det()))
    clauses["bump2d variance 10x drop"] = var2 <= var0 / 10.0

    ok = all(clauses.values())
    detail = "; ".join(f"{k}: {'ok' if v else 'FAILED'}" for k, v in clauses.items())
    if not clauses["convergence to mean (5e-3 at T=5)"]:
        detail += (
            f" [measured sup|g-2|(5) = {final_err:.3e}; the flow diffuses at rate 1/2"
            " about the mean, so e^(-2.5) ~ 8.2e-2 is the attainable value and"
            " 5e-3 is first reached near t = 10.7]"
        )
    report(4, ok, detail)


def test_criterion_5_tensor_potential_equivalence():
    coarse = fl.equivalence_check(metric("sin1d", (256,)), 0.1, CTL, 1e-4)
    fine = fl.equivalence_check(metric("sin1d", (512,)), 0.1, CTL, 5e-5)
    ok = coarse <= 1e-4 and coarse / fine >= 3.0
    report(5, ok, f"discrepancy {coarse:.3e} (<= 1e-4), improvement {coarse / fine:.2f}x (>= 3)")


def test_criterion_6_existence_criteria():
    failures = []
    g_flat = metric("flat")
    if not cr.max_s(g_flat, ScalarField.zeros(g_flat.grid), 0.5).unbounded:
        failures.append("flat/u=0 not unbounded")

    g = metric("sin1d", (512,))
    ldg = ScalarField(g.grid, np.log(g.det()))
    gauge_defect = float(np.max(np.abs(cr.gauge_hessian(ldg) + geo.beta_form(g).components)))
    if gauge_defect > 1e-12:
        failures.append(f"gauge identity defect {gauge_defect:.2e}")

    u = ScalarField.zeros(g.grid)
    result = cr.max_s(g, u, 0.1)
    m0, m1 = cr._pencil_parts(g, u, 0.1, False)
    scan_values = np.arange(0.0, 20.0, 1e-4)
    best = 0.0
    for start in range(0, len(scan_values), 2000):
        batch = scan_values[start : start + 2000]
        pencil = m0[None, ...] + batch[:, None, None] * m1[None, ...]
        margins = geo.sym_min_eigenvalues(pencil, 1).reshape(len(batch), -1).min(axis=1)
        feasible = batch[margins >= 0.0]
        if len(feasible):
            best = max(best, float(feasible[-1]))
    if abs(result.s_max - best) > 1e-3:
        failures.append(f"max_s {result.s_max:.6f} vs scan {best:.6f}")
    if cr.a2_margin(g, result.s_max * (1 - 1e-6), u, 0.1) < -1e-8:
        failures.append("lower bracket violated")
    if cr.a2_margin(g, result.s_max * (1 + 1e-4), u, 0.1) >= 0.0:
        failures.append("upper bracket violated")

    gb = metric("bump2d", (64, 64))
    mb0, mb1 = cr._pencil_parts(gb, ScalarField.zeros(gb.grid), 0.1, False)
    rng = np.random.default_rng(0)
    flat0 = mb0.reshape(-1, 3)
    flat1 = mb1.reshape(-1, 3)
    for node in rng.integers(0, len(flat0), size=100):
        f = lambda s: float(geo.sym_min_eigenvalues(flat0[node] + s * flat1[node], 2))
        if f(1.0) < 0.5 * (f(0.0) + f(2.0)) - 1e-10:
            failures.append(f"concavity violated at node {node}")
            break

    detail = (f"flat unbounded, gauge identity exact, "
              f"max_s {result.s_max:.4f} matches dense scan, concavity holds")
    report(6, not failures, detail if not failures else "; ".join(failures))


# reference constant for the curvature-decay bound, recorded from the run of
# this probe at this exact configuration (rough1d seed 42, N=512, sigma 0.2,
# rk2): max observed t*sup|Q|_g = 0.040845 over the sampled window
REFERENCE_DECAY_BOUND = 0.0413
PROBE_TIMES = (1e-3, 2e-3, 5e-3, 1e-2, 2e-2, 5e-2, 1e-1)


def test_criterion_7_smoothing_probe():
    series = fl.smoothing_probe(metric("rough1d"), PROBE_TIMES, CTL)
    bound = max(t_sup for _, _, t_sup in series)
    decay = series[0][1] / series[-1][1]
    ok = bound <= REFERENCE_DECAY_BOUND and series[-1][1] <= series[0][1] / 10.0
    report(7, ok, f"max t*sup|Q| {bound:.6f} <= {REFERENCE_DECAY_BOUND}, "
                  f"sup|Q| decay {decay:.1f}x (>= 10)")


def test_criterion_8_determinism_and_io(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("example = sin1d\nsizes = 128\nT = 0.02\ndiag_stride = 10\n")
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert cli_main(["flow-run", "--config", str(cfg), "--out", str(out1)]) == 0
    assert cli_main(["flow-run", "--config", str(cfg), "--out", str(out2)]) == 0
    identical = (out1 / "diagnostics.csv").read_bytes() == (out2 / "diagnostics.csv").read_bytes()

    grid, comps, t, _ = read_snapshot(str(out1 / "final_metric.hfld"))
    original = read_snapshot(str(out2 / "final_metric.hfld"))[1]
    round_trip = comps.tobytes() == original.tobytes()
    report(8, identical and round_trip,
           f"CSV byte-identical: {identical}, snapshot round trip bit-exact: {round_trip}")


def test_criterion_9_performance_smoke():
    g0 = metric("bump2d")
    control = fl.StepControl(scheme="rk2")
    state = fl.FlowState.initial(g0)
    start = time.perf_counter()
    dt = fl.stable_dt(state.g, control)
    for _ in range(1000):
        state = fl.step_tensor(state, dt, control)
    elapsed = time.perf_counter() - start
    report(9, elapsed < 60.0, f"1000 rk2 steps on 128x128 in {elapsed:.1f}s (< 60s)")
