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

import math
from dataclasses import dataclass, replace
from typing import Callable, Iterator, Sequence

import numpy as np

from .geometry import (
    MetricField,
    NotPositiveDefinite,
    _beta,
    check_metric,
    log_det,
    pencil_eigenvalue_range,
    sup_abs,
    sup_q_gnorm,
    sym_derivatives,
    sym_det,
    sym_pairs,
)
from .grid import PeriodicGrid, ScalarField, _check_finite

_SCHEMES = ("euler", "rk2")


class FlowBlowup(RuntimeError):
    """The integrator left the positivity window.

    Carries the last valid time ``t``, the offending node, and ``partial``:
    what the driver that raised it had produced by then, in the form that
    driver returns -- ``(trajectory, rows)`` from :func:`run_flow`, the
    ``(t, sup_q, t_sup_q)`` series from :func:`smoothing_probe`, the sup
    discrepancy up to the last valid step from :func:`equivalence_check`,
    and None from a single step.
    """

    def __init__(self, t: float, node: tuple[int, ...] | None, partial=None):
        self.t = t
        self.node = node
        self.partial = partial
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
        if not 0.0 < self.dt_min < math.inf:
            raise ValueError(f"dt_min must be positive and finite, got {self.dt_min}")
        if self.max_halvings < 0:
            raise ValueError(f"max_halvings must be non-negative, got {self.max_halvings}")
        if self.scheme not in _SCHEMES:
            raise ValueError(f"scheme must be one of {_SCHEMES}, got {self.scheme!r}")


@dataclass(frozen=True, eq=False)
class FlowState:
    """Snapshot of a flow leg on raw arrays, with what the next step reuses.

    ``g_comps`` (pair-stored metric) and ``phi_values`` (potential) are
    read-only; :attr:`g` and :attr:`phi` wrap them on access.  ``log_det`` is
    ``log det g`` and ``ratio`` is ``log det g - log det g0``.  ``min_eig`` is
    the smallest eigenvalue of ``g`` over the nodes where the positivity
    check computed it (:func:`~koszulflow.geometry.check_metric`), else
    None: then ``g.min_eigenvalue()`` computes it, and only
    :meth:`min_eigenvalue` reads it.  A state answers :func:`stable_dt`
    like its metric ``g``, through :attr:`grid` and :meth:`min_eigenvalue`,
    without wrapping it.
    """

    t: float
    g_comps: np.ndarray
    phi_values: np.ndarray
    dt_last: float
    g0: MetricField
    log_det_g0: np.ndarray
    log_det: np.ndarray
    ratio: np.ndarray
    min_eig: float | None

    @classmethod
    def initial(cls, g0: MetricField) -> "FlowState":
        log_det_g0 = g0.log_det()
        return cls(t=0.0, g_comps=g0.components, phi_values=_read_only(np.zeros(g0.grid.shape)),
                   dt_last=0.0, g0=g0, log_det_g0=log_det_g0, log_det=log_det_g0,
                   ratio=log_det_g0 - log_det_g0, min_eig=g0._min_eig)

    @property
    def g(self) -> MetricField:
        return MetricField._wrap(self.g0.grid, self.g_comps, _min_eig=self.min_eig)

    @property
    def phi(self) -> ScalarField:
        return ScalarField(self.g0.grid, self.phi_values)

    @property
    def grid(self) -> PeriodicGrid:
        return self.g0.grid

    def min_eigenvalue(self) -> float:
        """``g.min_eigenvalue()``: ``min_eig``, or computed where it is None."""
        return self.g.min_eigenvalue() if self.min_eig is None else self.min_eig


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


def stable_dt(g: MetricField | FlowState, control: StepControl) -> float:
    """Explicit stability bound sigma * min(h^2) / (2 n max lambda(g^-1)),
    from the smallest eigenvalue of ``g``: the one its positivity check
    found, or computed here where the check decided without it.  ``g`` may
    be a flow state, which stands for its metric.  ``min(h)^2`` is
    ``min(h^2)`` bit for bit, since rounding a square is monotone."""
    grid = g.grid
    h = min(grid.spacings)
    lam_max_inv = 1.0 / g.min_eigenvalue()
    return control.sigma * (h * h) / (2.0 * grid.ndim * lam_max_inv)


def _read_only(values: np.ndarray) -> np.ndarray:
    values.flags.writeable = False
    return values


def _checked_log_det(comps: np.ndarray, n: int) -> tuple[float | None, np.ndarray]:
    """The ``min_eig`` of :func:`~koszulflow.geometry.check_metric` for a
    candidate metric (it raises ValueError or NotPositiveDefinite), and the
    metric's log det: at n = 3 from the determinant the check formed."""
    min_eig, det = check_metric(comps, n)
    return min_eig, log_det(sym_det(comps, n) if det is None else det)


def _next_state(state: FlowState, dt: float, g_new: np.ndarray, phi_new: np.ndarray,
                min_eig: float | None, log_det_new: np.ndarray, ratio: np.ndarray) -> FlowState:
    """The state of either leg after a step of ``dt`` to the checked metric
    ``g_new``, whose ``ratio`` the next step reuses: a copy of ``state``'s
    fields with these changed (the fields are not validated again, so no
    dataclass ``__init__`` runs).  ValueError where ``phi_new`` is not finite."""
    _check_finite(phi_new)
    g_new.flags.writeable = phi_new.flags.writeable = False
    new = object.__new__(type(state))
    vars(new).update(vars(state), t=state.t + dt, g_comps=g_new, phi_values=phi_new, dt_last=dt,
                     log_det=log_det_new, ratio=ratio, min_eig=min_eig)
    return new


def _attempt_tensor_step(state: FlowState, dt: float, scheme: str) -> FlowState:
    """One explicit step of the given size on raw arrays.

    Each candidate metric passes :func:`~koszulflow.geometry.check_metric`,
    which raises ValueError or NotPositiveDefinite; ``phi`` takes the
    trapezoid rule.  Each stage ``g - c beta`` is formed in place in its
    fresh ``beta`` buffer, with the bits of the expression.
    """
    grid = state.g0.grid
    spacings, n = grid.spacings, grid.ndim
    g = state.g_comps
    update = _beta(state.log_det, spacings)
    if scheme != "euler":  # midpoint RK2: the update is beta at g - (dt / 2) beta
        update *= 0.5 * dt
        g_half = np.subtract(g, update, out=update)
        update = _beta(_checked_log_det(g_half, n)[1], spacings)
    update *= dt
    g_new = np.subtract(g, update, out=update)
    min_eig, log_det_new = _checked_log_det(g_new, n)
    ratio = log_det_new - state.log_det_g0
    # phi + (0.5 dt) (ratio_old + ratio) in one buffer, with its bits
    phi_new = np.add(state.ratio, ratio)
    phi_new *= 0.5 * dt
    phi_new += state.phi_values
    return _next_state(state, dt, g_new, phi_new, min_eig, log_det_new, ratio)


def _with_halving(attempt: Callable, state, dt: float, control: StepControl):
    """``attempt(state, dt, scheme)``, retried with half the step on each
    positivity failure; FlowBlowup once the halving budget or dt_min runs out."""
    if not 0.0 < dt < math.inf:
        raise ValueError(f"dt must be positive and finite, got {dt}")
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
            dt = min(stable_dt(state, control), remaining)
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
    the end.  On blow-up the raised :class:`FlowBlowup` carries the
    trajectory and rows up to its last valid time as its ``partial``.
    """
    if not 0.0 < t_final < math.inf:
        raise ValueError(f"t_final must be positive and finite, got {t_final}")
    if diag_stride < 0:
        raise ValueError(f"diag_stride must be non-negative, got {diag_stride}")
    samples = [float(s) for s in (sample_times or [])]
    if not all(0.0 <= s <= t_final for s in samples):
        raise ValueError(f"sample_times must lie in [0, {t_final}], got {samples}")
    trajectory: list[FlowState] = []
    try:
        rows = _flow_rows(g0, t_final, control, samples, diag_stride, trajectory.append)
    except FlowBlowup as exc:
        exc.partial = trajectory, exc.partial
        raise
    return trajectory, rows


def _flow_rows(g0: MetricField, t_final: float, control: StepControl, samples: list[float],
               diag_stride: int, reached: Callable[[FlowState], None]) -> list[DiagnosticsRow]:
    """The diagnostics rows of :func:`run_flow` on checked arguments, which
    hands each state at a sample time to ``reached`` and holds no state past
    the current one: the one loop of :func:`run_flow` and
    :func:`smoothing_probe`.  A blow-up carries the rows up to its last
    valid time as its ``partial``."""
    targets = sorted({s for s in samples if s > 0.0} | {t_final})
    state = FlowState.initial(g0)
    rows = [diagnostics_row(state, 0.0)]
    if 0.0 in samples:
        reached(state)
    try:
        for steps, (state, at_target) in enumerate(_advance(state, targets, control), start=1):
            if at_target:
                reached(state)
                rows.append(diagnostics_row(state, state.dt_last))
            elif diag_stride > 0 and steps % diag_stride == 0:
                rows.append(diagnostics_row(state, state.dt_last))
    except FlowBlowup as exc:
        exc.partial = rows
        raise
    return rows


# --- potential (scalar) leg ---------------------------------------------------

@dataclass(frozen=True, eq=False)
class PotentialFlowState(FlowState):
    """Scalar-leg snapshot: ``g_comps`` is the reconstruction
    ``g0 - t beta0 + dd(phi)`` with the frozen pair-stored ``beta0 = beta(g0)``."""

    beta0: np.ndarray

    @classmethod
    def initial(cls, g0: MetricField) -> "PotentialFlowState":
        return cls.alongside(FlowState.initial(g0))

    @classmethod
    def alongside(cls, tensor: FlowState) -> "PotentialFlowState":
        """The state at ``t = 0`` beside the tensor leg's initial state, whose
        ``log det g0`` (and so ``beta0``) it shares instead of forming again."""
        return cls(**vars(tensor), beta0=_read_only(_beta(tensor.log_det_g0, tensor.grid.spacings)))


def _reconstruct(base: np.ndarray, phi: np.ndarray, spacings: tuple[float, ...]) -> np.ndarray:
    """``base + dd(phi)`` in the fresh ``dd(phi)`` buffer, unchecked: with
    ``base = g0 - t beta0``, the bits of ``g0 - t beta0 + dd(phi)``."""
    g = sym_derivatives(phi, 2, spacings)
    g += base
    return g


def _attempt_potential_step(state: PotentialFlowState, dt: float, scheme: str) -> PotentialFlowState:
    # rk2 here is Heun (explicit trapezoid), not the tensor leg's midpoint:
    # with matching schemes the two legs are algebraically the same discrete
    # map (the stencils are linear and telescoping is exact), and the
    # equivalence check would only ever measure rounding noise.
    grid, t_new = state.g0.grid, state.t + dt
    n, spacings = grid.ndim, grid.spacings
    k1 = state.ratio  # log det g - log det g0 of the current reconstruction
    # g0 - t_new beta0, formed once for both reconstructions at t_new
    base = np.multiply(state.beta0, t_new)
    np.subtract(state.g0.components, base, out=base)
    if scheme == "euler":
        phi_new = state.phi_values + dt * k1
    else:
        g_pred = _reconstruct(base, state.phi_values + dt * k1, spacings)
        k2 = _checked_log_det(g_pred, n)[1] - state.log_det_g0
        del g_pred  # not held while the corrector is checked
        phi_new = state.phi_values + (0.5 * dt) * (k1 + k2)
    g_new = _reconstruct(base, phi_new, spacings)
    del base
    min_eig, log_det_new = _checked_log_det(g_new, n)
    return _next_state(state, dt, g_new, phi_new, min_eig, log_det_new, log_det_new - state.log_det_g0)


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
    since the two legs must see identical times.  A blow-up carries the sup
    discrepancy up to the last step both legs took.
    """
    if not (0.0 < dt < math.inf and 0.0 < t_final < math.inf):
        raise ValueError(f"dt and t_final must be positive and finite, got {dt} and {t_final}")
    tensor = FlowState.initial(g0)
    scalar = PotentialFlowState.alongside(tensor)
    worst = 0.0
    steps = 0
    # k rounded sums of steps can fall short of t_final by up to k ulps; a
    # gap that small is the rounding of t, not a step still to take
    while t_final - tensor.t > steps * np.spacing(t_final):
        steps += 1
        step, t = min(dt, t_final - tensor.t), tensor.t
        try:
            # a blow-up of either leg reports t, the last time at which both
            # were valid; of the tensor leg's old state only t is kept while
            # the potential leg steps
            tensor = _attempt_tensor_step(tensor, step, control.scheme)
            scalar = _attempt_potential_step(scalar, step, control.scheme)
        except NotPositiveDefinite as exc:
            raise FlowBlowup(t, exc.node, worst) from None
        worst = max(worst, sup_abs(tensor.g_comps - scalar.g_comps))
    return worst


def smoothing_probe(
    g0_rough: MetricField,
    t_samples: Sequence[float],
    control: StepControl,
) -> list[tuple[float, float, float]]:
    """Curvature-decay series (t, sup|Q|_g, t*sup|Q|_g) along the tensor flow:
    the sample rows of :func:`run_flow`, which are its only diagnostics rows;
    the sample states are not kept, so its memory does not grow with them.

    A reporting operation: it records the decay of the g-norm of the
    curvature tensor from low-regularity initial data and asserts nothing.
    A blow-up carries the series up to its last valid time.
    """
    times = [float(t) for t in t_samples]
    if not times or not all(0.0 < t < math.inf for t in times) or any(
        b <= a for a, b in zip(times, times[1:])
    ):
        raise ValueError(f"t_samples must be strictly increasing and positive finite numbers, got {times}")
    blowup = None
    try:
        rows = _flow_rows(g0_rough, times[-1], control, times, 0, lambda state: None)
    except FlowBlowup as exc:
        blowup, rows = exc, exc.partial
    series = [(r.t, r.sup_q, r.t_sup_q) for r in rows[1:]]
    if blowup is not None:
        blowup.partial = series
        raise blowup
    return series
