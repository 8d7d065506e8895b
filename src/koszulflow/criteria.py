"""Existence-window criteria: gauge margins and the maximal pencil parameter.

The feasibility quantity is the nodewise minimum eigenvalue of

    M(x; S) = g0 - S beta(g0) + dd(u) - theta g0

for a fixed smooth periodic gauge u and fixed theta > 0.  At each node
``lambda_min(M0 + S M1)`` is an infimum of functions affine in S, hence
concave, and so is the global margin; the feasible set is therefore an
interval [0, S_max], found by bracketed bisection: the bracket doubles
until the margin is negative, and bisection stops at width 1e-9 or at one
ulp of S, whichever is wider.  Concavity also bounds
each node over the whole bracket by its values at the two ends, so the
bisection evaluates the margin only at the nodes not yet proven
nonnegative there (see "Screened extremes" in docs/conventions.md).  On a
periodic chart the gauge u = -S log det g0 cancels the beta term exactly
(dd and beta share one stencil path), which is why S_max is unbounded there.

Inputs that overflow the pencil or the bracket raise ValueError, as
:func:`~koszulflow.geometry.log_det` does for an overflowing determinant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import (
    SCREEN_FLOOR,
    WHITENING_BAND,
    MetricField,
    beta_form,
    smallest_eigenvalue,
    sym_derivatives,
    sym_matrices,
    sym_min_eigenvalues,  # noqa: F401  (part of this module's namespace, read by the tests)
    sym_pair_weights,
)
from .grid import ScalarField

BISECTION_TOL = 1e-9


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


def _margin(m: np.ndarray, n: int) -> tuple[float, int, np.ndarray]:
    """Min over nodes of the smallest eigenvalue of the pencil value ``m``, the
    flat index of its first node and the flat per-node lower bound of
    :func:`~koszulflow.geometry.smallest_eigenvalue`; ValueError when the
    min is not finite (inputs that overflow the pencil)."""
    found = smallest_eigenvalue(m, n)
    if not math.isfinite(found[0]):
        raise ValueError(f"the pencil margin is {found[0]}: the inputs overflow it")
    return found


def _entry_sum(flat: np.ndarray, n: int) -> np.ndarray:
    """Sum of the absolute entries of each full matrix of ``flat``, a bound on
    its 2-norm."""
    return np.abs(flat) @ sym_pair_weights(n)


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
    Unbounded is reported when the S-slope part of the pencil is positive
    semidefinite at every node.  Otherwise the bracket doubles from S = 1
    until the margin is negative, which ends: the slope is negative at some
    node, and a pencil or a bracket that overflows raises ValueError.
    Bisection then halves the bracket to absolute width 1e-9, or until its
    midpoint rounds to an end (above 2^23 one ulp of S exceeds 1e-9).  The
    margin runs over every node at S = 0, for the slope, at each bracket
    step and once at the final S_max, which gives the witness; each
    bisection step runs only on the active nodes, those not proven
    nonnegative over the whole bracket, and so takes the sign, hence S_max,
    of the margin over every node.
    """
    n = g0.grid.ndim
    m0, m1 = (m.reshape(-1, m.shape[-1]) for m in _pencil_parts(g0, u, theta, scale_gauge_with_s))

    def margin(s: float) -> tuple[float, int, np.ndarray]:
        return _margin(m0 + s * m1, n)

    at_zero = margin(0.0)
    if at_zero[0] <= 0.0:
        raise InfeasibleAtZero(f"margin at S=0 is {at_zero[0]:.3e}")
    if _margin(m1, n)[0] >= 0.0:
        return PencilResult(s_max=math.inf, witness_node=None, witness_direction=None)

    s_hi = 1.0
    while (at_hi := margin(s_hi))[0] >= 0.0:
        s_hi *= 2.0
        if math.isinf(s_hi):  # inf * 0 in the pencil would warn before _margin raises
            raise ValueError("the pencil margin is nonnegative up to S = 2^1023: the inputs overflow it")
    # e(s) = e0 + s*e1 bounds at each node the rounding of m0 + s*m1 plus the
    # kernel's error; a node is active until its lower bounds at both ends of
    # the bracket exceed 2 e(s_hi): by concavity it then stays above
    # e(s_hi) >= e(mid) on the whole bracket, so its margin at any mid is >= 0
    e0 = WHITENING_BAND * _entry_sum(m0, n) + SCREEN_FLOOR
    e1 = WHITENING_BAND * _entry_sum(m1, n)
    nodes = np.arange(len(m0))
    lower_lo, lower_hi = at_zero[2], at_hi[2]
    s_lo = 0.0
    while s_hi - s_lo > BISECTION_TOL and s_lo < (mid := 0.5 * (s_lo + s_hi)) < s_hi:
        bound = 2.0 * (e0[nodes] + s_hi * e1[nodes])
        active = ~((lower_lo > bound) & (lower_hi > bound))
        nodes, lower_lo, lower_hi = nodes[active], lower_lo[active], lower_hi[active]
        found, _, lower = _margin(m0[nodes] + mid * m1[nodes], n)
        if found >= 0.0:
            s_lo, lower_lo = mid, lower
        else:
            s_hi, lower_hi = mid, lower

    worst = margin(s_lo)[1]
    node = tuple(np.unravel_index(worst, g0.grid.shape))
    _, vecs = np.linalg.eigh(sym_matrices(m0[worst] + s_lo * m1[worst], n))  # [[1.0]] for n = 1
    direction = vecs[:, 0]
    return PencilResult(s_max=s_lo, witness_node=node, witness_direction=direction)


def log_det_gauge(g0: MetricField) -> ScalarField:
    """The gauge ``-log det g0``; scaled by S (``log_det_gauge(g0) * S``) it
    cancels the beta term of the pencil exactly (shared stencil path)."""
    return ScalarField(g0.grid, -g0.log_det())
