"""Existence-window criteria: gauge margins and the maximal pencil parameter.

The feasibility quantity is the nodewise minimum eigenvalue of

    M(x; S) = g0 - S beta(g0) + dd(u) - theta g0 = M0 + S M1

for a fixed smooth periodic gauge u and fixed theta > 0.  With M0 positive
definite, M0 + S M1 >= 0 at a node holds iff 1 - S lambda >= 0 for every
generalized eigenvalue lambda of the pencil (-M1, M0), so the feasible set
is the interval [0, S_max] with S_max = 1 / lambda_max over the nodes,
unbounded where M1 >= 0 at every node.  :func:`max_s` takes that extreme
as an estimate and walks the computed margin from it to adjacent floats
where its sign changes.  On a periodic chart the gauge u = -S log det g0
cancels the beta term exactly (dd and beta share one stencil path), which
is why S_max is unbounded there.

Inputs that overflow the pencil raise ValueError, as
:func:`~koszulflow.geometry.log_det` does for an overflowing determinant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import (
    MetricField,
    beta_form,
    largest_pencil_eigenvalue,
    smallest_eigenvalue,
    sym_derivatives,
    sym_matrices,
)
from .grid import ScalarField


class InfeasibleAtZero(Exception):
    """The margin is not positive even at S = 0."""


@dataclass(frozen=True)
class PencilResult:
    """Maximal feasible S for a fixed gauge; unbounded when S_max is inf."""

    s_max: float
    witness_node: tuple[int, ...] | None
    witness_direction: np.ndarray | None

    @property
    def unbounded(self) -> bool:
        return math.isinf(self.s_max)


def gauge_hessian(u: ScalarField) -> np.ndarray:
    """Pair-stored ``dd(u)``, on the stencil path of ``beta``."""
    return sym_derivatives(u.values, 2, u.grid.spacings)


def _margin(m: np.ndarray, n: int) -> tuple[float, int]:
    """Min over nodes of the smallest eigenvalue of the pencil value ``m`` and
    the flat index of its first node; ValueError when the min is not finite
    (inputs that overflow the pencil)."""
    found = smallest_eigenvalue(m, n)
    if not math.isfinite(found[0]):
        raise ValueError(f"the pencil margin is {found[0]}: the inputs overflow it")
    return found


def _pencil_parts(
    g0: MetricField,
    u: ScalarField,
    theta: float,
    scale_gauge_with_s: bool,
) -> tuple[np.ndarray, np.ndarray]:
    """Component arrays (M0, M1) of the pencil M(S) = M0 + S*M1."""
    if not theta >= 0.0:  # NaN too; an infinite theta overflows the margin
        raise ValueError(f"theta must be nonnegative, got {theta}")
    if u.grid != g0.grid:
        raise ValueError("gauge lives on a different grid")
    beta0 = beta_form(g0)
    hess_u = gauge_hessian(u)
    m0 = (1.0 - theta) * g0.components
    m1 = -beta0.components
    if scale_gauge_with_s:
        m1 = m1 + hess_u
    else:
        m0 = m0 + hess_u
    return m0, m1


def a2_margin(g0: MetricField, s: float, u: ScalarField, theta: float) -> float:
    """Min over nodes of the smallest eigenvalue of g0 - S beta0 + dd(u) - theta g0."""
    m0, m1 = _pencil_parts(g0, u, theta, scale_gauge_with_s=False)
    return _margin(m0 + s * m1, g0.grid.ndim)[0]


def max_s(
    g0: MetricField,
    u: ScalarField,
    theta: float,
    scale_gauge_with_s: bool = False,
) -> PencilResult:
    """Largest S keeping the margin nonnegative, for a fixed gauge.

    With ``scale_gauge_with_s`` the gauge enters as S*u instead of u (the
    gauge family indexed by S itself, e.g. u = -log det g0 per unit S).
    Unbounded is reported when the slope M1 has a nonnegative margin.
    Otherwise 1/lambda, lambda the largest eigenvalue of (-M1, M0) over the
    nodes, estimates S_max (ValueError where that is no positive float: the
    inputs overflow the pencil, or M0 is singular to its rounding).  From
    the estimate the margin walks, up while nonnegative and down while
    negative, in steps that double from one ulp and then halve, to adjacent
    floats lo < hi with margin(lo) >= 0 > margin(hi).  S_max is lo, and the
    witness the first node attaining margin(lo).  Every margin runs over
    every node, once per S.
    """
    n = g0.grid.ndim
    m0, m1 = (m.reshape(-1, m.shape[-1]) for m in _pencil_parts(g0, u, theta, scale_gauge_with_s))

    def margin(s: float) -> tuple[float, int]:
        return _margin(m0 + s * m1, n)

    at_zero = margin(0.0)
    if at_zero[0] <= 0.0:
        raise InfeasibleAtZero(f"margin at S=0 is {at_zero[0]:.3e}")
    if _margin(m1, n)[0] >= 0.0:
        return PencilResult(s_max=math.inf, witness_node=None, witness_direction=None)

    try:
        lam = largest_pencil_eigenvalue(np.negative(m1), m0, n)[0]
    except np.linalg.LinAlgError:  # a node of M0 that its Cholesky factor finds singular
        lam = math.nan
    s = 1.0 / lam if lam > 0.0 else math.inf
    if not 0.0 < s < math.inf:
        raise ValueError(f"the pencil's largest eigenvalue {lam} gives no S_max: "
                         "the inputs overflow it or M0 is singular to its rounding")
    # margin(lo) >= 0 > margin(hi); 0 and inf stand for the ends not yet probed
    (lo, at_lo), hi, step = (0.0, at_zero), math.inf, math.ulp(s)
    while True:
        found = margin(s)
        if found[0] >= 0.0:
            lo, at_lo = s, found
        else:
            hi = s
        if math.isinf(hi):
            s = lo + step
            if math.isinf(s):  # inf * 0 in the pencil would warn before _margin raises
                raise ValueError(f"the pencil margin is nonnegative up to S = {lo}: the inputs overflow it")
        elif lo == 0.0 and hi - step > 0.0:
            s = hi - step
        elif not lo < (s := lo + 0.5 * (hi - lo)) < hi:
            break
        step *= 2.0

    worst = at_lo[1]
    node = tuple(np.unravel_index(worst, g0.grid.shape))
    _, vecs = np.linalg.eigh(sym_matrices(m0[worst] + lo * m1[worst], n))  # [[1.0]] for n = 1
    return PencilResult(s_max=lo, witness_node=node, witness_direction=vecs[:, 0])


def log_det_gauge(g0: MetricField) -> ScalarField:
    """The gauge ``-log det g0``; scaled by S (``log_det_gauge(g0) * S``) it
    cancels the beta term of the pencil exactly (shared stencil path)."""
    return ScalarField(g0.grid, -g0.log_det())
