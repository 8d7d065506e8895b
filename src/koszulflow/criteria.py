"""Existence-window criteria: gauge margins, maximal pencil parameter,
uniform equivalence.

The feasibility quantity is the nodewise minimum eigenvalue of

    M(x; S) = g0 - S beta(g0) + dd(u) - theta g0

for a fixed smooth periodic gauge u and fixed theta > 0.  At each node
``lambda_min(M0 + S M1)`` is an infimum of functions affine in S, hence
concave, and so is the global margin; the feasible set is therefore an
interval [0, S_max], found by bracketed bisection.  On a periodic chart
the gauge u = -S log det g0 cancels the beta term exactly (dd and beta
share one stencil path), which is why S_max is unbounded there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import (
    MetricField,
    beta_form,
    pair_hessian,
    pencil_eigenvalue_range,
    smallest_eigenvalue,
    sym_matrices,
    sym_min_eigenvalues,  # noqa: F401  (part of this module's namespace, read by the tests)
)
from .grid import ScalarField
from .io import ConfigError

BISECTION_TOL = 1e-9


class InfeasibleAtZero(Exception):
    """The margin is not positive even at S = 0."""


@dataclass(frozen=True)
class A2Certificate:
    """One margin evaluation for a gauge: feasible iff margin >= 0."""

    s: float
    theta: float
    u: ScalarField
    margin: float

    @property
    def feasible(self) -> bool:
        return self.margin >= 0.0


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
    return pair_hessian(u.values, u.grid.spacings)


def _margin(m: np.ndarray, n: int) -> tuple[float, int]:
    """Min over nodes of the smallest eigenvalue of the pencil value ``m``, and
    the flat index of its first node; ConfigError when it is not finite
    (inputs that overflow the pencil)."""
    margin, worst = smallest_eigenvalue(m, n)
    if not math.isfinite(margin):
        raise ConfigError(f"the pencil margin is {margin}: the inputs overflow it")
    return margin, worst


def _pencil_parts(
    g0: MetricField,
    u: ScalarField,
    theta: float,
    scale_gauge_with_s: bool,
) -> tuple[np.ndarray, np.ndarray]:
    """Component arrays (M0, M1) of the pencil M(S) = M0 + S*M1."""
    if theta < 0.0:
        raise ValueError("theta must be nonnegative")
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


def a2_certificate(g0: MetricField, s: float, u: ScalarField, theta: float) -> A2Certificate:
    return A2Certificate(s=s, theta=theta, u=u, margin=a2_margin(g0, s, u, theta))


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
    semidefinite at every node; otherwise bracketed bisection to absolute
    tolerance 1e-9.
    """
    n = g0.grid.ndim
    m0, m1 = _pencil_parts(g0, u, theta, scale_gauge_with_s)

    def margin(s: float) -> tuple[float, int]:
        return _margin(m0 + s * m1, n)

    # every margin is one full-grid evaluation: each is taken once, and the
    # one that set s_lo also gives the witness node
    lo = margin(0.0)
    if lo[0] <= 0.0:
        raise InfeasibleAtZero(f"margin at S=0 is {lo[0]:.3e}")
    if _margin(m1, n)[0] >= 0.0:
        return PencilResult(s_max=math.inf, witness_node=None, witness_direction=None)

    s_hi = 1.0
    for _ in range(80):
        if margin(s_hi)[0] < 0.0:
            break
        s_hi *= 2.0
    else:
        raise RuntimeError("failed to bracket the infeasible region")
    s_lo = 0.0
    while s_hi - s_lo > BISECTION_TOL:
        mid = 0.5 * (s_lo + s_hi)
        found = margin(mid)
        if found[0] >= 0.0:
            s_lo, lo = mid, found
        else:
            s_hi = mid

    node = tuple(np.unravel_index(lo[1], g0.grid.shape))
    _, vecs = np.linalg.eigh(sym_matrices(m0[node] + s_lo * m1[node], n))  # [[1.0]] for n = 1
    direction = vecs[:, 0]
    return PencilResult(s_max=s_lo, witness_node=node, witness_direction=direction)


def log_det_gauge(g0: MetricField, scale: float = 1.0) -> ScalarField:
    """The gauge ``scale * (-log det g0)``; with scale tied to S it cancels
    the beta term of the pencil exactly (shared stencil path)."""
    return ScalarField(g0.grid, -scale * g0.log_det())


def uniform_equivalence(g: MetricField, g0: MetricField) -> tuple[float, float]:
    """Tight pinching constants: lam * g0 <= g <= Lam * g0 over all nodes."""
    return pencil_eigenvalue_range(g, g0)
