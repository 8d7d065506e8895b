"""Time integration of the metric flow dg/dt = -beta(g) and its scalar twin.

Two independent integrators are provided:

* the tensor leg evolves the metric directly (Euler or explicit midpoint
  RK2) and accumulates the potential phi(x, t) = integral of
  log(det g / det g0) by the trapezoid rule;
* the potential leg evolves phi through the parabolic scalar equation
  dphi/dt = log det(g0 - t beta(g0) + dd(phi)) - log det(g0), phi(0) = 0,
  reconstructing the metric as g0 - t beta(g0) + dd(phi).

In the continuum the two legs produce the same metric;
:func:`equivalence_check` measures the discrete discrepancy.

Positivity is the existence monitor: a step whose updated metric fails
nodewise positive definiteness is rejected and retried with half the step,
and :class:`FlowBlowup` is raised once the halving budget (or ``dt_min``)
is exhausted -- the flow has left its window of uniform equivalence.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Iterator, Sequence

import numpy as np

from .geometry import (
    MetricField,
    NotPositiveDefinite,
    _beta,
    check_metric,
    log_det,
    pair_hessian,
    pencil_eigenvalue_range,
    sup_q_gnorm,
    sym_det,
    sym_pairs,
)
from .grid import ScalarField

_SCHEMES = ("euler", "rk2")


class FlowBlowup(RuntimeError):
    """The integrator left the positivity window.

    Carries the last valid time, the offending node, and whatever partial
    trajectory/diagnostics the run had produced.
    """

    def __init__(self, t: float, node: tuple[int, ...] | None, trajectory=None, diagnostics=None):
        self.t = t
        self.node = node
        self.trajectory = trajectory if trajectory is not None else []
        self.diagnostics = diagnostics if diagnostics is not None else []
        super().__init__(f"flow left the positivity window at t={t:.6g} (node {node})")


@dataclass(frozen=True)
class StepControl:
    """Explicit-scheme step control."""

    sigma: float = 0.2
    dt_min: float = 1e-15
    max_halvings: int = 20
    scheme: str = "rk2"

    def __post_init__(self):
        if not 0.0 < self.sigma <= 1.0:
            raise ValueError(f"sigma must be in (0, 1], got {self.sigma}")
        if self.dt_min <= 0.0:
            raise ValueError("dt_min must be positive")
        if self.max_halvings < 0:
            raise ValueError(f"max_halvings must be non-negative, got {self.max_halvings}")
        if self.scheme not in _SCHEMES:
            raise ValueError(f"scheme must be one of {_SCHEMES}, got {self.scheme!r}")


@dataclass(frozen=True, eq=False)
class FlowState:
    """Snapshot of a flow leg on raw arrays, with what the next step reuses.

    ``g_comps`` (pair-stored metric) and ``phi_values`` (potential) are
    read-only; :attr:`g` and :attr:`phi` wrap them on access.  ``log_det`` is
    ``log det g``, ``ratio`` is ``log det g - log det g0`` and ``min_eig`` the
    smallest eigenvalue of ``g`` over the nodes.
    """

    t: float
    g_comps: np.ndarray
    phi_values: np.ndarray
    dt_last: float
    g0: MetricField
    log_det_g0: np.ndarray
    log_det: np.ndarray
    ratio: np.ndarray
    min_eig: float

    @classmethod
    def initial(cls, g0: MetricField) -> "FlowState":
        log_det_g0 = g0.log_det()
        return cls(t=0.0, g_comps=g0.components, phi_values=_read_only(np.zeros(g0.grid.shape)),
                   dt_last=0.0, g0=g0, log_det_g0=log_det_g0, log_det=log_det_g0,
                   ratio=log_det_g0 - log_det_g0, min_eig=g0.min_eigenvalue())

    @property
    def g(self) -> MetricField:
        return MetricField._wrap(self.g0.grid, self.g_comps, _min_eig=self.min_eig)

    @property
    def phi(self) -> ScalarField:
        return ScalarField(self.g0.grid, self.phi_values)


@dataclass(frozen=True)
class DiagnosticsRow:
    """One monitoring record; field order is the CSV column order."""

    t: float
    sup_q: float
    t_sup_q: float
    lambda_min: float
    lambda_max: float
    var_det: float
    mean_drift: tuple[float, ...]
    sup_phi: float
    dt: float

    @staticmethod
    def csv_header(ndim: int) -> list[str]:
        drift = [f"drift_g{i}{j}" for i, j in sym_pairs(ndim)]
        return ["t", "sup_q", "t_sup_q", "lambda_min", "lambda_max", "var_det",
                *drift, "sup_phi", "dt"]

    def csv_values(self) -> list[float]:
        return [self.t, self.sup_q, self.t_sup_q, self.lambda_min, self.lambda_max,
                self.var_det, *self.mean_drift, self.sup_phi, self.dt]


def stable_dt(g: MetricField, control: StepControl) -> float:
    """Explicit stability bound sigma * min(h^2) / (2 n max lambda(g^-1)),
    from the smallest eigenvalue that the metric's check already found."""
    n = g.grid.ndim
    lam_max_inv = 1.0 / g.min_eigenvalue()
    return control.sigma * min(h * h for h in g.grid.spacings) / (2.0 * n * lam_max_inv)


def _read_only(values: np.ndarray) -> np.ndarray:
    values.flags.writeable = False
    return values


def _next_state(state: FlowState, dt: float, g_new: np.ndarray, min_eig: float,
                phi_of_ratio: Callable[[np.ndarray], np.ndarray]) -> FlowState:
    """The state of either leg after a step of ``dt`` to the checked metric
    ``g_new``; its ``ratio`` is the next step's, ``phi_of_ratio`` gives the
    new potential from it."""
    log_det_new = log_det(sym_det(g_new, state.g0.grid.ndim))
    ratio = log_det_new - state.log_det_g0
    phi_new = phi_of_ratio(ratio)
    if not np.isfinite(phi_new).all():
        raise ValueError("field contains non-finite values")
    return replace(state, t=state.t + dt, g_comps=_read_only(g_new),
                   phi_values=_read_only(phi_new), dt_last=dt, log_det=log_det_new,
                   ratio=ratio, min_eig=min_eig)


def _attempt_tensor_step(state: FlowState, dt: float, scheme: str) -> FlowState:
    """One explicit step of the given size on raw arrays.

    Each candidate metric passes :func:`check_metric`, which raises
    ValueError or NotPositiveDefinite; ``phi`` takes the trapezoid rule.
    """
    spacings, n = state.g0.grid.spacings, state.g0.grid.ndim
    g = state.g_comps
    if scheme == "euler":
        update = _beta(state.log_det, spacings)
    else:  # midpoint RK2
        g_half = g - (0.5 * dt) * _beta(state.log_det, spacings)
        check_metric(g_half, n)
        update = _beta(log_det(sym_det(g_half, n)), spacings)
    g_new = g - dt * update
    return _next_state(state, dt, g_new, check_metric(g_new, n),
                       lambda ratio: state.phi_values + (0.5 * dt) * (state.ratio + ratio))


def _with_halving(attempt: Callable, state, dt: float, control: StepControl):
    """``attempt(state, dt, scheme)``, retried with half the step on each
    positivity failure; FlowBlowup once the halving budget or dt_min runs out."""
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    node = None
    for _ in range(control.max_halvings + 1):
        if dt < control.dt_min:
            break
        try:
            return attempt(state, dt, control.scheme)
        except NotPositiveDefinite as exc:
            node = exc.node
            dt *= 0.5
    raise FlowBlowup(state.t, node)


def step_tensor(state: FlowState, dt: float, control: StepControl) -> FlowState:
    """Advance the tensor flow by ``dt``, halving on positivity failures."""
    return _with_halving(_attempt_tensor_step, state, dt, control)


def _advance(
    state: FlowState, targets: Sequence[float], control: StepControl
) -> Iterator[tuple[FlowState, bool]]:
    """Step through ascending time targets at the stable step size, yielding
    ``(state, reached)`` after every accepted step.

    A step that covers all of ``target - t`` lands on ``target`` exactly: the
    rounded sum can fall one ulp short, and the ulp-long step left over is
    below ``dt_min``, so it would end the run as a spurious blow-up.  For the
    same reason ``dt_min`` bounds only the stability steps: a step cut short
    by a target (two targets may lie closer than ``dt_min``) is attempted.
    """
    for target in targets:
        while state.t < target:
            remaining = target - state.t
            dt = min(stable_dt(state.g, control), remaining)
            step_control = replace(control, dt_min=dt) if dt == remaining < control.dt_min else control
            state = step_tensor(state, dt, step_control)
            if state.dt_last == remaining:
                state = replace(state, t=target)
            yield state, state.t >= target


def diagnostics_row(state: FlowState, dt_used: float) -> DiagnosticsRow:
    """Monitoring record for one state (curvature norm, pinching, drift)."""
    g, g0 = state.g, state.g0
    sup_q = sup_q_gnorm(g)
    lam, big_lam = pencil_eigenvalue_range(g, g0)
    drift = tuple(
        float(np.mean(g.component(i, j)) - np.mean(g0.component(i, j)))
        for i, j in sym_pairs(g.grid.ndim)
    )
    return DiagnosticsRow(
        t=state.t,
        sup_q=sup_q,
        t_sup_q=state.t * sup_q,
        lambda_min=lam,
        lambda_max=big_lam,
        var_det=float(np.var(g.det())),
        mean_drift=drift,
        sup_phi=float(np.max(np.abs(state.phi_values))),
        dt=dt_used,
    )


def run_flow(
    g0: MetricField,
    t_final: float,
    control: StepControl,
    sample_times: Sequence[float] | None = None,
    diag_stride: int = 100,
) -> tuple[list[FlowState], list[DiagnosticsRow]]:
    """Integrate to ``t_final`` with adaptive steps.

    Returns states at the requested sample times, which must lie in
    ``[0, t_final]`` (``t_final`` is always included), and diagnostics rows
    at t=0, every ``diag_stride``-th accepted step, every sample time, and
    the end.  On blow-up the partial trajectory and diagnostics ride on the
    raised :class:`FlowBlowup`.
    """
    if t_final <= 0.0:
        raise ValueError("t_final must be positive")
    if diag_stride < 0:
        raise ValueError(f"diag_stride must be non-negative, got {diag_stride}")
    samples = [float(s) for s in (sample_times or [])]
    if not all(0.0 <= s <= t_final for s in samples):
        raise ValueError(f"sample_times must lie in [0, {t_final}], got {samples}")
    targets = sorted({s for s in samples if s > 0.0} | {t_final})

    state = FlowState.initial(g0)
    trajectory: list[FlowState] = []
    rows: list[DiagnosticsRow] = [diagnostics_row(state, 0.0)]
    if 0.0 in samples:
        trajectory.append(state)

    try:
        for steps, (state, reached) in enumerate(_advance(state, targets, control), start=1):
            if reached:
                trajectory.append(state)
                rows.append(diagnostics_row(state, state.dt_last))
            elif diag_stride > 0 and steps % diag_stride == 0:
                rows.append(diagnostics_row(state, state.dt_last))
    except FlowBlowup as exc:
        raise FlowBlowup(exc.t, exc.node, trajectory, rows) from None
    return trajectory, rows


# --- potential (scalar) leg ---------------------------------------------------

@dataclass(frozen=True, eq=False)
class PotentialFlowState(FlowState):
    """Scalar-leg snapshot: ``g_comps`` is the reconstruction
    ``g0 - t beta0 + dd(phi)`` with the frozen pair-stored ``beta0 = beta(g0)``."""

    beta0: np.ndarray

    @classmethod
    def initial(cls, g0: MetricField) -> "PotentialFlowState":
        state = vars(FlowState.initial(g0))
        return cls(**state, beta0=_read_only(_beta(state["log_det_g0"], g0.grid.spacings)))


def _reconstruct(state: PotentialFlowState, phi: np.ndarray, t: float) -> tuple[np.ndarray, float]:
    """``g0 - t beta0 + dd(phi)``, and its smallest eigenvalue from :func:`check_metric`."""
    grid = state.g0.grid
    comps = state.g0.components - t * state.beta0 + pair_hessian(phi, grid.spacings)
    return comps, check_metric(comps, grid.ndim)


def _attempt_potential_step(state: PotentialFlowState, dt: float, scheme: str) -> PotentialFlowState:
    # rk2 here is Heun (explicit trapezoid), not the tensor leg's midpoint:
    # with matching schemes the two legs are algebraically the same discrete
    # map (the stencils are linear and telescoping is exact), and the
    # equivalence check would only ever measure rounding noise.
    k1 = state.ratio  # log det g - log det g0 of the current reconstruction
    if scheme == "euler":
        phi_new = state.phi_values + dt * k1
    else:
        g_pred, _ = _reconstruct(state, state.phi_values + dt * k1, state.t + dt)
        k2 = log_det(sym_det(g_pred, state.g0.grid.ndim)) - state.log_det_g0
        phi_new = state.phi_values + (0.5 * dt) * (k1 + k2)
    g_new, min_eig = _reconstruct(state, phi_new, state.t + dt)
    return _next_state(state, dt, g_new, min_eig, lambda ratio: phi_new)


def step_potential(state: PotentialFlowState, dt: float, control: StepControl) -> PotentialFlowState:
    """Advance the scalar flow by ``dt``, halving on reconstruction failures."""
    return _with_halving(_attempt_potential_step, state, dt, control)


def equivalence_check(
    g0: MetricField,
    t_final: float,
    control: StepControl,
    dt: float,
) -> float:
    """Run both legs in lockstep with a fixed dt; sup metric discrepancy.

    The tensor metric is compared against the potential leg's reconstruction
    ``g0 - t beta(g0) + dd(phi)`` at every step; no step halving is allowed,
    since the two legs must see identical times.
    """
    if dt <= 0.0 or t_final <= 0.0:
        raise ValueError("dt and t_final must be positive")
    tensor = FlowState.initial(g0)
    scalar = PotentialFlowState.initial(g0)
    worst = 0.0
    steps = 0
    # k rounded sums of steps can fall short of t_final by up to k ulps; a
    # gap that small is the rounding of t, not a step still to take
    while t_final - tensor.t > steps * np.spacing(t_final):
        steps += 1
        step = min(dt, t_final - tensor.t)
        try:
            # both legs move only once both steps succeed, so a blow-up
            # reports the last time at which both were valid
            tensor, scalar = (_attempt_tensor_step(tensor, step, control.scheme),
                              _attempt_potential_step(scalar, step, control.scheme))
        except NotPositiveDefinite as exc:
            raise FlowBlowup(tensor.t, exc.node) from None
        worst = max(worst, float(np.max(np.abs(tensor.g_comps - scalar.g_comps))))
    return worst


def smoothing_probe(
    g0_rough: MetricField,
    t_samples: Sequence[float],
    control: StepControl,
) -> list[tuple[float, float, float]]:
    """Curvature-decay series (t, sup|Q|_g, t*sup|Q|_g) along the tensor flow:
    the sample rows of :func:`run_flow`, which are its only diagnostics rows.

    A reporting operation: it records the decay of the g-norm of the
    curvature tensor from low-regularity initial data and asserts nothing.
    """
    times = [float(t) for t in t_samples]
    if not times or any(t <= 0 for t in times) or any(
        b <= a for a, b in zip(times, times[1:])
    ):
        raise ValueError("t_samples must be strictly increasing and positive")
    _, rows = run_flow(g0_rough, times[-1], control, times, diag_stride=0)
    return [(r.t, r.sup_q, r.t_sup_q) for r in rows[1:]]
