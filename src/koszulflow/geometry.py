"""Metrics, potentials and curvature on a periodic affine chart.

Quantities computed here, all in the affine coordinates of the chart:

* ``gamma``     difference tensor between the Levi-Civita and flat
  connections; its mixed components are the Christoffel symbols.
* ``Q``         Hessian curvature tensor,
  ``Q_ijkl = phi_ijkl / 2 - g^pq phi_ikp phi_jlq / 2`` for a metric
  ``g = A + dd(psi)`` with full potential ``phi = x'Ax/2 + psi``.
* ``alpha, kappa, beta``  Koszul forms and the flow tensor:
  ``alpha = d(log det g) / 2``, ``kappa = dd(log det g) / 2``,
  ``beta = -dd(log det g)``; hence ``kappa = -beta / 2`` identically.
* ``riemann``   curvature of g, via gamma products or by antisymmetrizing Q.
* pullback quantities of the Hermitian metric induced on the complexified
  chart (the tangent-bundle pullback): Chern torsion, whose vanishing
  characterizes Hessian metrics, and the Kaehler curvature, which equals
  ``-Q/2``.  Both are computed at base level; holomorphic derivatives of
  base functions carry the conventional factor 1/2 (see docs/conventions.md).

Degenerate metrics are rejected: any node whose minimum eigenvalue falls
below ``MIN_EIGENVALUE`` raises :class:`NotPositiveDefinite` rather than
being regularized, since silent regularization corrupts the curvature
identities checked by the test suite.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .grid import PeriodicGrid, ScalarField, stencil

MIN_EIGENVALUE = 1e-10


class NotPositiveDefinite(Exception):
    """A symmetric matrix field failed nodewise positive definiteness."""

    def __init__(self, node: tuple[int, ...], min_eigenvalue: float):
        self.node = node
        self.min_eigenvalue = min_eigenvalue
        super().__init__(
            f"matrix field not positive definite at node {node} "
            f"(min eigenvalue {min_eigenvalue:.3e})"
        )


# --- symmetric-pair index bookkeeping ---------------------------------------

def sym_pairs(n: int) -> list[tuple[int, int]]:
    """Upper-triangle index pairs (i, j), i <= j, in row-major order."""
    return [(i, j) for i in range(n) for j in range(i, n)]


def pair_index(n: int, i: int, j: int) -> int:
    if i > j:
        i, j = j, i
    return i * n - (i * (i - 1)) // 2 + (j - i)


# --- symmetric 2-tensor fields ----------------------------------------------

class Sym2Field:
    """Node-indexed symmetric n x n matrices, stored as upper triangles.

    Component storage has shape ``(*grid.shape, n(n+1)/2)`` with the pair
    order of :func:`sym_pairs`; symmetry is structural.
    """

    __slots__ = ("grid", "components")

    def __init__(self, grid: PeriodicGrid, components):
        comps = np.asarray(components, dtype=np.float64)
        npairs = len(sym_pairs(grid.ndim))
        if comps.shape != (*grid.shape, npairs):
            raise ValueError(
                f"component shape {comps.shape} does not match {(*grid.shape, npairs)}"
            )
        if not np.isfinite(comps).all():
            raise ValueError("tensor field contains non-finite values")
        comps = np.array(comps)
        comps.flags.writeable = False
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "components", comps)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def component(self, i: int, j: int) -> np.ndarray:
        return self.components[..., pair_index(self.grid.ndim, i, j)]

    def matrices(self) -> np.ndarray:
        """Full ``(*shape, n, n)`` array (materialized)."""
        return sym_matrices(self.components, self.grid.ndim)

    def sup_norm(self) -> float:
        return float(np.max(np.abs(self.components)))


def sym_matrices(comps: np.ndarray, n: int) -> np.ndarray:
    """Full ``(..., n, n)`` matrices of a pair-stored symmetric field."""
    mats = np.empty((*comps.shape[:-1], n, n))
    for p, (i, j) in enumerate(sym_pairs(n)):
        mats[..., i, j] = mats[..., j, i] = comps[..., p]
    return mats


def sym_det(comps: np.ndarray, n: int) -> np.ndarray:
    """Determinant of a pair-stored symmetric matrix field, explicit for n <= 3."""
    if n == 1:
        return comps[..., 0].copy()
    if n == 2:
        a, b, c = comps[..., 0], comps[..., 1], comps[..., 2]
        return a * c - b * b
    a, b, c, d, e, f = (comps[..., p] for p in range(6))
    # rows: [a b c; b d e; c e f]
    return a * (d * f - e * e) - b * (b * f - e * c) + c * (b * e - d * c)


def log_det(det: np.ndarray) -> np.ndarray:
    """``log det g`` from a determinant field: the one place the package takes
    that logarithm.  ValueError where it is not finite (a determinant that
    overflows, underflows to zero or is negative)."""
    out = np.log(det)
    if not np.isfinite(out).all():
        raise ValueError("log det g is not finite (the determinant overflows or is not positive)")
    return out


def sym_inverse_matrices(comps: np.ndarray, n: int) -> np.ndarray:
    """Inverse as a full ``(..., n, n)`` array, via the adjugate for n <= 3."""
    det = sym_det(comps, n)
    inv = np.empty((*comps.shape[:-1], n, n))
    if n == 1:
        inv[..., 0, 0] = 1.0 / det
        return inv
    if n == 2:
        a, b, c = comps[..., 0], comps[..., 1], comps[..., 2]
        inv[..., 0, 0] = c / det
        inv[..., 1, 1] = a / det
        inv[..., 0, 1] = inv[..., 1, 0] = -b / det
        return inv
    a, b, c, d, e, f = (comps[..., p] for p in range(6))
    inv[..., 0, 0] = (d * f - e * e) / det
    inv[..., 0, 1] = inv[..., 1, 0] = (c * e - b * f) / det
    inv[..., 0, 2] = inv[..., 2, 0] = (b * e - c * d) / det
    inv[..., 1, 1] = (a * f - c * c) / det
    inv[..., 1, 2] = inv[..., 2, 1] = (b * c - a * e) / det
    inv[..., 2, 2] = (a * d - b * b) / det
    return inv


def sym_min_eigenvalues(comps: np.ndarray, n: int) -> np.ndarray:
    """Nodewise smallest eigenvalue of a pair-stored symmetric matrix field."""
    if n == 1:
        return comps[..., 0]
    if n == 2:
        a, b, c = comps[..., 0], comps[..., 1], comps[..., 2]
        half_trace = 0.5 * (a + c)
        radius = np.sqrt((0.5 * (a - c)) ** 2 + b * b)
        return half_trace - radius
    return np.linalg.eigvalsh(sym_matrices(comps, n))[..., 0]


# --- screened extremes over the nodes ---------------------------------------------
#
# The bands below are derived in docs/conventions.md, "Screened extremes".

SYM_SCREEN_BAND = 1e-6   # closed-form eigenvalues, relative to |q| + 2p
PENCIL_SCREEN_BAND = 1e-10  # whitening, relative to tr(H) tr(H^-1) tr(W)
GNORM_SCREEN_BAND = 1e-11  # |Q|_g^2 by another contraction order, relative to |g^-1|^4 |Q|^2
SCREEN_FLOOR = 1e-150    # absolute part of every band: covers underflow


def screened_extreme(values: np.ndarray, band: np.ndarray, kernel: Callable[..., np.ndarray],
                     operands: tuple[np.ndarray, ...], largest: bool = False) -> tuple[float, int]:
    """``(value, flat index)`` of the minimum (``largest``: the maximum) over
    the nodes of ``kernel(*operands)``, an exact kernel that runs on a few
    nodes only.

    The operands' first axis runs over the flat nodes, and the kernel gives
    the same bits on any subset of them as on all.  ``values`` screens the
    kernel at every node and ``band`` bounds ``|values - kernel|`` there.
    The kernel runs on the nodes whose band reaches the best screened
    bound, which include every node attaining the extreme, so the result
    equals the full call's, ties going to the lowest flat index as with
    ``np.argmin`` and ``np.argmax``.  The full call is made when a screen
    or band is not finite or every node is a candidate.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        lower, upper = values - band, values + band
        candidates = None
        if np.isfinite(lower).all() and np.isfinite(upper).all():
            if largest:
                candidates = np.flatnonzero(upper >= lower.max())
            else:
                candidates = np.flatnonzero(lower <= upper.min())
    full = candidates is None or candidates.size == values.size
    found = kernel(*operands) if full else kernel(*(op[candidates] for op in operands))
    k = int(np.argmax(found) if largest else np.argmin(found))
    return float(found[k]), k if full else int(candidates[k])


_PAIR_IDENTITY = np.array([1.0, 0.0, 0.0, 1.0, 0.0, 1.0])  # 3x3 identity, pair-stored
_PAIR_WEIGHTS = np.array([1.0, 2.0, 2.0, 1.0, 2.0, 1.0])   # Frobenius weights of the pairs


def _sym_eigen_screen(comps: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Closed-form ``(smallest, largest, band)`` eigenvalues of pair-stored
    symmetric 2x2 or 3x3 matrices ``(N, pairs)``: half-trace and radius for
    n = 2, the trigonometric form (Smith, Commun. ACM 4, 1961) for n = 3."""
    with np.errstate(over="ignore", invalid="ignore"):
        if n == 2:
            a, b, c = comps[:, 0], comps[:, 1], comps[:, 2]
            q = 0.5 * (a + c)
            p = np.sqrt((0.5 * (a - c)) ** 2 + b * b)
            smallest, largest, scale = q - p, q + p, np.abs(q) + p
        else:
            q = (comps[:, 0] + comps[:, 3] + comps[:, 5]) / 3.0
            dev = comps - q[:, None] * _PAIR_IDENTITY
            p = np.sqrt((dev * dev) @ _PAIR_WEIGHTS / 6.0)
            inv_p = np.divide(1.0, p, out=np.zeros_like(p), where=p > 0.0)
            r = 0.5 * sym_det(dev * inv_p[:, None], 3)
            phi = np.arccos(np.clip(r, -1.0, 1.0)) / 3.0
            smallest = q + 2.0 * p * np.cos(phi + 2.0 * np.pi / 3.0)
            largest = q + 2.0 * p * np.cos(phi)
            scale = np.abs(q) + 2.0 * p
    return smallest, largest, SYM_SCREEN_BAND * scale + SCREEN_FLOOR


def smallest_eigenvalue(comps: np.ndarray, n: int) -> tuple[float, int]:
    """Smallest eigenvalue over the nodes of a pair-stored symmetric field and
    its flat node index (the first on ties): ``sym_min_eigenvalues`` and its
    ``argmin``, screened for n = 3, where the kernel is LAPACK."""
    if n < 3:
        eigs = sym_min_eigenvalues(comps, n)
        worst = int(np.argmin(eigs))
        return float(eigs.flat[worst]), worst
    flat = comps.reshape(-1, 6)
    smallest, _, band = _sym_eigen_screen(flat, 3)
    return screened_extreme(smallest, band, lambda c: sym_min_eigenvalues(c, 3), (flat,))


def check_metric(comps: np.ndarray, n: int) -> float:
    """Nodewise check of pair-stored metric components; returns the smallest
    eigenvalue over the nodes.

    Raises ValueError for a non-finite entry and :class:`NotPositiveDefinite`,
    naming the worst node, for an eigenvalue below ``MIN_EIGENVALUE``.
    """
    if not np.isfinite(comps).all():
        raise ValueError("tensor field contains non-finite values")
    value, worst = smallest_eigenvalue(comps, n)
    if value < MIN_EIGENVALUE:
        raise NotPositiveDefinite(tuple(np.unravel_index(worst, comps.shape[:-1])), value)
    return value


class MetricField(Sym2Field):
    """A :class:`Sym2Field` that is positive definite at every node."""

    __slots__ = ("_min_eig",)

    def __init__(self, grid: PeriodicGrid, components):
        super().__init__(grid, components)
        object.__setattr__(self, "_min_eig", check_metric(self.components, grid.ndim))

    @classmethod
    def _wrap(cls, grid: PeriodicGrid, comps: np.ndarray, min_eig: float) -> "MetricField":
        """A metric over a read-only array that already passed
        :func:`check_metric` with result ``min_eig``; no copy, no recheck."""
        g = object.__new__(cls)
        object.__setattr__(g, "grid", grid)
        object.__setattr__(g, "components", comps)
        object.__setattr__(g, "_min_eig", min_eig)
        return g

    def det(self) -> np.ndarray:
        return sym_det(self.components, self.grid.ndim)

    def log_det(self) -> np.ndarray:
        return log_det(self.det())

    def inverse_matrices(self) -> np.ndarray:
        return sym_inverse_matrices(self.components, self.grid.ndim)

    def min_eigenvalue(self) -> float:
        return self._min_eig


def pencil_eigenvalue_range(g: MetricField, g0: MetricField) -> tuple[float, float]:
    """Tight constants (lam, Lam) with lam*g0 <= g <= Lam*g0 over all nodes.

    Generalized eigenvalues of (g, g0) per node, computed as the ordinary
    eigenvalues of L^-1 g L^-T with L the Cholesky factor of g0; for n >= 2
    only at the nodes that the closed-form screen leaves as candidates.
    """
    if g.grid != g0.grid:
        raise ValueError("metrics live on different grids")
    n = g.grid.ndim
    if n == 1:
        ratio = g.components[..., 0] / g0.components[..., 0]
        return float(ratio.min()), float(ratio.max())
    npairs = len(sym_pairs(n))
    flat = (g.components.reshape(-1, npairs), g0.components.reshape(-1, npairs))
    smallest, largest, band = _pencil_screen(*flat, n)
    lam, _ = screened_extreme(smallest, band,
                              lambda gc, hc: _pencil_eigenvalues(gc, hc, n)[:, 0], flat)
    big_lam, _ = screened_extreme(largest, band,
                                  lambda gc, hc: _pencil_eigenvalues(gc, hc, n)[:, -1], flat,
                                  largest=True)
    return lam, big_lam


def _pencil_eigenvalues(g_comps: np.ndarray, h_comps: np.ndarray, n: int) -> np.ndarray:
    """Ascending generalized eigenvalues of pair-stored (G, H) per node: the
    ordinary eigenvalues of L^-1 G L^-T, with L the Cholesky factor of H."""
    linv = np.linalg.inv(np.linalg.cholesky(sym_matrices(h_comps, n)))
    return np.linalg.eigvalsh(linv @ sym_matrices(g_comps, n) @ np.swapaxes(linv, -1, -2))


def _pencil_screen(g_flat: np.ndarray, h_flat: np.ndarray,
                   n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Closed-form ``(smallest, largest, band)`` generalized eigenvalues of the
    pair-stored SPD pairs (G, H): the symmetric screen of W = X G X^T, with
    X = L^-1 and L the Cholesky factor of H by explicit formulas."""
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        h = [[h_flat[:, pair_index(n, i, j)] for j in range(n)] for i in range(n)]
        low = [[None] * n for _ in range(n)]
        for j in range(n):
            low[j][j] = np.sqrt(h[j][j] - sum(low[j][k] ** 2 for k in range(j)))
            for i in range(j + 1, n):
                low[i][j] = (h[i][j] - sum(low[i][k] * low[j][k] for k in range(j))) / low[j][j]
        x = [[None] * n for _ in range(n)]  # lower triangular
        for i in range(n):
            x[i][i] = 1.0 / low[i][i]
            for j in range(i):
                x[i][j] = -sum(low[i][k] * x[k][j] for k in range(j, i)) * x[i][i]
        xg = [[sum(x[i][k] * g_flat[:, pair_index(n, k, l)] for k in range(i + 1))
               for l in range(n)] for i in range(n)]
        w = np.empty_like(g_flat)
        for p, (i, j) in enumerate(sym_pairs(n)):
            w[:, p] = sum(xg[i][l] * x[j][l] for l in range(j + 1))
        smallest, largest, band = _sym_eigen_screen(w, n)
        tr_h = sum(h[i][i] for i in range(n))
        tr_h_inv = sum(x[i][j] ** 2 for i in range(n) for j in range(i + 1))
        tr_w = sum(w[:, pair_index(n, i, i)] for i in range(n))
        band = band + PENCIL_SCREEN_BAND * tr_h * tr_h_inv * np.abs(tr_w)
    return smallest, largest, band


# --- potentials ---------------------------------------------------------------

@dataclass(frozen=True)
class PotentialMetric:
    """Hessian-metric data ``g = A + dd(psi)``.

    ``A`` is a constant symmetric positive-definite background and ``psi``
    a periodic potential; the full (non-periodic) potential of the metric
    is ``x'Ax/2 + psi(x)``.
    """

    grid: PeriodicGrid
    background: np.ndarray
    psi: ScalarField

    def __post_init__(self):
        a = np.asarray(self.background, dtype=np.float64)
        n = self.grid.ndim
        if a.shape != (n, n):
            raise ValueError(f"background must be {n}x{n}, got {a.shape}")
        if not np.allclose(a, a.T):
            raise ValueError("background matrix must be symmetric")
        if np.min(np.linalg.eigvalsh(a)) <= 0:
            raise ValueError("background matrix must be positive definite")
        a = 0.5 * (a + a.T)
        a.flags.writeable = False
        object.__setattr__(self, "background", a)
        if self.psi.grid != self.grid:
            raise ValueError("potential lives on a different grid")

    def scaled(self, c: float) -> "PotentialMetric":
        """The potential metric of ``c * (full potential)``, i.e. ``c*A, c*psi``."""
        return PotentialMetric(self.grid, self.background * c, self.psi * c)


def potential_hessian(psi: ScalarField) -> Sym2Field:
    """Second derivatives of the potential as composed first differences.

    Composed centered first differences are used for the diagonal as well
    (not the 3-point stencil): all components then commute with further
    first differences at rounding level, which is what makes the discrete
    Hessian-ness and torsion identities exact for constructed metrics.
    """
    grid, spacings = psi.grid, psi.grid.spacings
    first = [stencil(psi.values, (i,), spacings) for i in range(grid.ndim)]
    pairs = sym_pairs(grid.ndim)
    comps = np.empty((*grid.shape, len(pairs)))
    for p, (i, j) in enumerate(pairs):
        comps[..., p] = stencil(first[i], (j,), spacings)
    return Sym2Field(grid, comps)


def metric_from_potential(pm: PotentialMetric) -> MetricField:
    """Assemble ``g = A + dd(psi)``; raises NotPositiveDefinite if the
    potential is not uniformly convex at grid resolution."""
    hess = potential_hessian(pm.psi)
    comps = hess.components.copy()
    for p, (i, j) in enumerate(sym_pairs(pm.grid.ndim)):
        comps[..., p] += pm.background[i, j]
    return MetricField(pm.grid, comps)


# --- first derivatives of a metric, shared by several operations -------------

def metric_partials(g: Sym2Field) -> np.ndarray:
    """Array ``D[..., k, i, j] = partial_k g_ij``."""
    n, spacings = g.grid.ndim, g.grid.spacings
    out = np.empty((*g.grid.shape, n, n, n))
    for i, j in sym_pairs(n):
        for k in range(n):
            d = stencil(g.component(i, j), (k,), spacings)
            out[..., k, i, j] = d
            out[..., k, j, i] = d
    return out


def hessian_defect(g: Sym2Field) -> float:
    """Sup over nodes and index triples of |partial_k g_ij - partial_i g_kj|.

    Zero (to truncation) exactly when g is a Hessian metric.
    """
    return _hessian_defect(metric_partials(g))


def _hessian_defect(d: np.ndarray) -> float:
    return float(np.max(np.abs(d - np.swapaxes(d, -3, -2))))


# --- connection and Koszul forms ---------------------------------------------

def christoffel(g: MetricField) -> tuple[np.ndarray, np.ndarray]:
    """Difference tensor (Christoffel symbols) of g.

    Returns ``(gamma_mixed, gamma_lower)`` with
    ``gamma_lower[..., i, j, k] = (partial_j g_ik + partial_k g_ij - partial_i g_jk)/2``
    and ``gamma_mixed = g^{-1} gamma_lower`` in the first slot.  Both are
    symmetric in the last two slots by construction.
    """
    return _christoffel(metric_partials(g), g.inverse_matrices())


def _christoffel(d: np.ndarray, ginv: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # gamma_lower[i, j, k] = 0.5 * (d[j, i, k] + d[k, i, j] - d[i, j, k])
    term1 = np.swapaxes(d, -3, -2)                       # [..., i, j, k] <- d[j, i, k]
    term2 = np.moveaxis(d, (-3, -2, -1), (-1, -3, -2))   # [..., i, j, k] <- d[k, i, j]
    gamma_lower = 0.5 * (term1 + term2 - d)
    gamma_mixed = np.einsum("...il,...ljk->...ijk", ginv, gamma_lower)
    return gamma_mixed, gamma_lower


def pair_hessian(values: np.ndarray, spacings: tuple[float, ...]) -> np.ndarray:
    """Pair-stored ``partial2`` of a node array in :func:`sym_pairs` order: the
    one stencil path of ``beta``, the a2 gauge ``dd(u)`` and the potential
    leg's ``dd(phi)``, which makes ``kappa = -beta/2`` and the log-det gauge's
    cancellation of ``beta`` exact."""
    pairs = sym_pairs(len(spacings))
    comps = np.empty((*values.shape, len(pairs)))
    for p, (i, j) in enumerate(pairs):
        comps[..., p] = stencil(values, (i, j), spacings)
    return comps


def koszul(g: MetricField) -> tuple[np.ndarray, Sym2Field, Sym2Field]:
    """First and second Koszul forms and the flow tensor of g.

    Returns ``(alpha, kappa, beta)`` with ``alpha[..., i] = partial_i log det g / 2``,
    ``kappa = dd(log det g)/2`` and ``beta = -dd(log det g)``; the three share
    one stencil evaluation, so ``kappa = -beta/2`` holds exactly.
    """
    ldg, spacings = g.log_det(), g.grid.spacings
    alpha = np.empty((*g.grid.shape, g.grid.ndim))
    for i in range(g.grid.ndim):
        alpha[..., i] = 0.5 * stencil(ldg, (i,), spacings)
    dd = pair_hessian(ldg, spacings)
    kappa = Sym2Field(g.grid, 0.5 * dd)
    beta = Sym2Field(g.grid, -dd)
    return alpha, kappa, beta


def beta_form(g: MetricField) -> Sym2Field:
    """Flow tensor ``beta_ij = -partial_i partial_j log det g``."""
    return Sym2Field(g.grid, -pair_hessian(g.log_det(), g.grid.spacings))


# --- Hessian curvature tensor --------------------------------------------------

class HessianCurvature:
    """The 4-tensor Q, stored on its symmetry group.

    Q is invariant under swapping slots (1,3), swapping slots (2,4), and
    swapping the pairs; storage keeps one component per unordered pair of
    index pairs, ``m(m+1)/2`` components with ``m = n(n+1)/2``.
    """

    __slots__ = ("grid", "components")

    def __init__(self, grid: PeriodicGrid, components):
        m = len(sym_pairs(grid.ndim))
        ncomp = m * (m + 1) // 2
        comps = np.asarray(components, dtype=np.float64)
        if comps.shape != (*grid.shape, ncomp):
            raise ValueError(f"expected {(*grid.shape, ncomp)}, got {comps.shape}")
        comps = np.array(comps)
        comps.flags.writeable = False
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "components", comps)

    def __setattr__(self, name, value):
        raise AttributeError("HessianCurvature is immutable")

    def component(self, i: int, j: int, k: int, l: int) -> np.ndarray:
        n = self.grid.ndim
        m = len(sym_pairs(n))
        a = pair_index(n, i, k)
        b = pair_index(n, j, l)
        return self.components[..., pair_index(m, a, b)]

    def full(self) -> np.ndarray:
        """Materialize the full ``(*shape, n, n, n, n)`` array."""
        n = self.grid.ndim
        out = np.empty((*self.grid.shape, n, n, n, n))
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    for l in range(n):
                        out[..., i, j, k, l] = self.component(i, j, k, l)
        return out

    def sup_norm(self) -> float:
        return float(np.max(np.abs(self.components)))


def hessian_curvature(pm: PotentialMetric) -> HessianCurvature:
    """Q of a potential metric, from third and fourth potential derivatives.

    ``Q_ijkl = phi_ijkl/2 - g^pq phi_ikp phi_jlq / 2``; the quadratic
    background drops out of third and higher derivatives, so only psi is
    differentiated.
    """
    return _hessian_curvature(pm, metric_from_potential(pm).inverse_matrices())


def _hessian_curvature(pm: PotentialMetric, ginv: np.ndarray) -> HessianCurvature:
    grid, n, psi = pm.grid, pm.grid.ndim, pm.psi.values
    third = np.empty((*grid.shape, n, n, n))
    for i in range(n):
        for j in range(i, n):
            for k in range(j, n):
                d = stencil(psi, (i, j, k), grid.spacings)
                for perm in set(itertools.permutations((i, j, k))):
                    third[(..., *perm)] = d

    m = len(sym_pairs(n))
    comps = np.empty((*grid.shape, m * (m + 1) // 2))
    pairs = sym_pairs(n)
    for a, (i, k) in enumerate(pairs):
        for b, (j, l) in enumerate(pairs):
            if a > b:
                continue
            fourth = stencil(psi, (i, j, k, l), grid.spacings)
            quad = np.einsum("...pq,...p,...q->...", ginv, third[..., i, k, :], third[..., j, l, :])
            comps[..., pair_index(m, a, b)] = 0.5 * fourth - 0.5 * quad
    return HessianCurvature(grid, comps)


def hessian_curvature_from_metric(g: MetricField) -> np.ndarray:
    """Q computed from the metric alone (full array, no symmetric storage).

    ``Q_ijkl = partial_k partial_l g_ij / 2 - g^pq (partial_k g_ip)(partial_l g_jq) / 2``;
    agrees with :func:`hessian_curvature` at second order for Hessian
    metrics, and is the route used for diagnostics along a flow, where only
    the metric is carried.
    """
    n = g.grid.ndim
    ginv = g.inverse_matrices()
    d = metric_partials(g)
    d2 = np.empty((*g.grid.shape, n, n, n, n))
    for i, j in sym_pairs(n):
        for k, l in sym_pairs(n):
            v = stencil(g.component(i, j), (k, l), g.grid.spacings)
            d2[..., i, j, k, l] = v
            d2[..., i, j, l, k] = v
            d2[..., j, i, k, l] = v
            d2[..., j, i, l, k] = v
    quad = np.einsum("...pq,...kip,...ljq->...ijkl", ginv, d, d)
    return 0.5 * d2 - 0.5 * quad


def curvature_gnorm(q_full: np.ndarray, ginv: np.ndarray) -> np.ndarray:
    """Nodewise g-contraction norm |Q|_g (all four slots raised against Q),
    from the inverse metric ``ginv``."""
    raised = np.einsum("...ijkl,...ip->...pjkl", q_full, ginv)
    raised = np.einsum("...pjkl,...jq->...pqkl", raised, ginv)
    raised = np.einsum("...pqkl,...kr->...pqrl", raised, ginv)
    raised = np.einsum("...pqrl,...ls->...pqrs", raised, ginv)
    sq = np.einsum("...pqrs,...pqrs->...", raised, q_full)
    return np.sqrt(np.maximum(sq, 0.0))


_GNORM_SQUARED = "...ijkl,...ip,...jq,...kr,...ls,...pqrs->..."
# np.einsum_path's greedy order for n = 2 and 3, whatever the number of nodes
_GNORM_PATH = ["einsum_path", (0, 1), (0, 3), (2, 3), (0, 2), (0, 1)]
_SCREEN_CHUNK = 2048  # nodes per optimized contraction; bounds its intermediates' memory


def sup_curvature_gnorm(q_full: np.ndarray, ginv: np.ndarray) -> float:
    """Sup over the nodes of :func:`curvature_gnorm`; for n >= 2 it runs only
    at the nodes that one optimized contraction of |Q|_g leaves as
    candidates (at n = 1 the chain is as cheap as any screen)."""
    n = ginv.shape[-1]
    if n == 1:
        return float(np.max(curvature_gnorm(q_full, ginv)))
    q_flat, ginv_flat = q_full.reshape(-1, n, n, n, n), ginv.reshape(-1, n, n)
    sq = np.empty(len(q_flat))
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, len(q_flat), _SCREEN_CHUNK):
            part = slice(start, start + _SCREEN_CHUNK)
            q, gi = q_flat[part], ginv_flat[part]
            sq[part] = np.einsum(_GNORM_SQUARED, q, gi, gi, gi, gi, q, optimize=_GNORM_PATH)
        values = np.sqrt(np.maximum(sq, 0.0))
        ginv_sq = np.einsum("...ij,...ij->...", ginv_flat, ginv_flat)
        q_sq = np.einsum("...ijkl,...ijkl->...", q_flat, q_flat)
        delta = GNORM_SCREEN_BAND * ginv_sq * ginv_sq * q_sq + SCREEN_FLOOR
        # |sqrt(a) - sqrt(b)| <= delta / max(sqrt(b), sqrt(delta)), plus the
        # rounding of both square roots
        band = delta / np.maximum(values, np.sqrt(delta)) + 4.0 * np.finfo(float).eps * values
    return screened_extreme(values, band, curvature_gnorm, (q_flat, ginv_flat), largest=True)[0]


# --- Riemann tensor, two routes -----------------------------------------------

def riemann_from_gamma(g: MetricField) -> np.ndarray:
    """Lowered curvature tensor from quadratic products of the difference tensor."""
    gamma_mixed, _ = christoffel(g)
    return _riemann_from_gamma(gamma_mixed, g.matrices())


def _riemann_from_gamma(gamma_mixed: np.ndarray, gmat: np.ndarray) -> np.ndarray:
    r_up = np.einsum("...ilm,...mjk->...ijkl", gamma_mixed, gamma_mixed) - np.einsum(
        "...ikm,...mjl->...ijkl", gamma_mixed, gamma_mixed
    )
    return np.einsum("...ip,...pjkl->...ijkl", gmat, r_up)


def riemann_from_q(q: HessianCurvature) -> np.ndarray:
    """Lowered curvature tensor by antisymmetrizing Q in its first two slots."""
    full = q.full()
    return 0.5 * (full - np.swapaxes(full, -4, -3))


def contraction_identity_defect(q: HessianCurvature, g: MetricField, beta: Sym2Field) -> float:
    """Sup-norm of ``beta_ij + 2 g^kl Q_ijkl`` (trace consistency of Q with beta)."""
    ginv = g.inverse_matrices()
    trace = np.einsum("...ijkl,...kl->...ij", q.full(), ginv)
    return float(np.max(np.abs(beta.matrices() + 2.0 * trace)))


# --- pullback Hermitian quantities ---------------------------------------------

def pullback_chern_torsion(g: MetricField) -> tuple[np.ndarray, float]:
    """Chern torsion of the pullback Hermitian metric, at base level.

    ``T^k_ij = g^kl (partial_i g_jl - partial_j g_il) / 2`` (the factor 1/2
    from holomorphic derivatives of base functions); returns the component
    array ``T[..., k, i, j]`` and the sup over nodes of the pointwise fully
    g-contracted norm.  The norm vanishes (to truncation) exactly when g is
    Hessian.
    """
    return _chern_torsion(metric_partials(g), g.inverse_matrices(), g.matrices())


def _chern_torsion(d: np.ndarray, ginv: np.ndarray, gmat: np.ndarray) -> tuple[np.ndarray, float]:
    # anti[..., i, j, l] = partial_i g_jl - partial_j g_il
    anti = d - np.swapaxes(d, -3, -2)
    torsion = 0.5 * np.einsum("...kl,...ijl->...kij", ginv, anti)
    sq = np.einsum(
        "...kij,...pqr,...kp,...iq,...jr->...", torsion, torsion, gmat, ginv, ginv
    )
    norm = float(np.sqrt(np.max(np.maximum(sq, 0.0))))
    return torsion, norm


def kahler_curvature_pullback(pm: PotentialMetric) -> np.ndarray:
    """Curvature of the pullback Kaehler metric, by the standard formula.

    ``R[..., i, j, k, l] = -partial_k partial_l g_ij / 4
    + g^pq (partial_k g_ip)(partial_l g_jq) / 4`` -- computed from metric
    components only, independent of the potential route, so comparing it
    with ``-Q/2`` is a non-circular check.
    """
    # the factors are powers of two, so this equals -d2/4 + quad/4 evaluated
    # term by term bit for bit, except that exact zeros may flip sign
    return -0.5 * hessian_curvature_from_metric(metric_from_potential(pm))


# --- sectional-form extremum search ---------------------------------------------

@dataclass(frozen=True)
class SectionalReport:
    """Sampled-and-refined extremes of H(v, w) = Q(v, v, w, w) over unit pairs.

    The values are bounds from sampling, never a certificate of sign.
    """

    max_value: float
    min_value: float
    argmax_node: tuple[int, ...]
    argmax_frame: tuple[np.ndarray, np.ndarray]
    argmin_node: tuple[int, ...]
    argmin_frame: tuple[np.ndarray, np.ndarray]
    samples_used: int


_REFINE_STEP = 0.05


def _g_normalize(v: np.ndarray, gmat: np.ndarray) -> np.ndarray:
    norm = np.sqrt(np.einsum("...i,...ij,...j->...", v, gmat, v))
    return v / norm[..., None]


def _frame_value(qn: np.ndarray, v: np.ndarray, w: np.ndarray) -> float:
    return float(np.einsum("ijkl,i,j,k,l->", qn, v, v, w, w))


def _refine_frame(qn, gmat, v, w, sign, steps):
    """Fixed-step projected gradient ascent (sign=+1) or descent (sign=-1)."""
    best_v, best_w = v, w
    best = _frame_value(qn, v, w)
    for _ in range(steps):
        grad_v = 2.0 * np.einsum("ijkl,j,k,l->i", qn, v, w, w)
        grad_w = 2.0 * np.einsum("ijkl,i,j,l->k", qn, v, v, w)
        v = _g_normalize(v + sign * _REFINE_STEP * grad_v, gmat)
        w = _g_normalize(w + sign * _REFINE_STEP * grad_w, gmat)
        value = _frame_value(qn, v, w)
        if sign * value > sign * best:
            best, best_v, best_w = value, v, w
    return best, best_v, best_w


def sectional_extremes(
    q: HessianCurvature,
    g: MetricField,
    n_samples: int = 1000,
    refine_steps: int = 50,
    seed: int = 0,
) -> SectionalReport:
    """Monte Carlo extremes of the normalized sectional form H(v, w).

    Pairs (v, w) are drawn Haar-uniformly on the product of g-unit spheres
    at uniformly random nodes (the product relaxes the orthogonal-frame
    constraint, which is empty in one dimension and only enlarges the
    search set otherwise); the best and worst samples are then refined by
    fixed-step projected gradient iterations at their nodes.  Deterministic
    for a fixed seed.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    rng = np.random.default_rng(seed)
    grid, n = q.grid, q.grid.ndim
    nodes = rng.integers(0, grid.num_nodes, size=n_samples)
    v = rng.standard_normal((n_samples, n))
    w = rng.standard_normal((n_samples, n))

    gmats = g.matrices().reshape(-1, n, n)[nodes]
    q_nodes = q.full().reshape(-1, n, n, n, n)[nodes]
    v = _g_normalize(v, gmats)
    w = _g_normalize(w, gmats)
    values = np.einsum("sijkl,si,sj,sk,sl->s", q_nodes, v, v, w, w)

    imax = int(np.argmax(values))
    imin = int(np.argmin(values))
    max_value, max_v, max_w = _refine_frame(
        q_nodes[imax], gmats[imax], v[imax], w[imax], +1.0, refine_steps
    )
    min_value, min_v, min_w = _refine_frame(
        q_nodes[imin], gmats[imin], v[imin], w[imin], -1.0, refine_steps
    )
    return SectionalReport(
        max_value=max_value,
        min_value=min_value,
        argmax_node=tuple(np.unravel_index(nodes[imax], grid.shape)),
        argmax_frame=(max_v, max_w),
        argmin_node=tuple(np.unravel_index(nodes[imin], grid.shape)),
        argmin_frame=(min_v, min_w),
        samples_used=n_samples,
    )


# --- bundled curvature data ------------------------------------------------------

@dataclass(frozen=True)
class CurvatureBundle:
    """Every curvature/Koszul quantity of one metric, in one record; ``q`` is
    None for a non-Hessian input.  Of the Riemann tensor, the largest array
    of the pipeline, only the sup norm is kept."""

    gamma_mixed: np.ndarray
    gamma_lower: np.ndarray
    alpha: np.ndarray
    kappa: Sym2Field
    beta: Sym2Field
    hessian_defect: float
    torsion_norm: float
    sup_riemann: float
    q: HessianCurvature | None


def curvature_bundle(g: MetricField, pm: PotentialMetric | None) -> CurvatureBundle:
    """The curvature record of ``g = metric_from_potential(pm)``, or of a
    non-Hessian ``g`` with ``pm = None``; the metric derivatives, ``g^-1``
    and the full matrices are computed once and shared by every formula."""
    ginv, gmat = g.inverse_matrices(), g.matrices()
    d = metric_partials(g)
    defect = _hessian_defect(d)
    torsion_norm = _chern_torsion(d, ginv, gmat)[1]
    gamma_mixed, gamma_lower = _christoffel(d, ginv)
    del d  # not needed past the Christoffel pair; freeing it lowers peak memory
    alpha, kappa, beta = koszul(g)
    return CurvatureBundle(
        gamma_mixed=gamma_mixed,
        gamma_lower=gamma_lower,
        alpha=alpha,
        kappa=kappa,
        beta=beta,
        hessian_defect=defect,
        torsion_norm=torsion_norm,
        sup_riemann=float(np.max(np.abs(_riemann_from_gamma(gamma_mixed, gmat)))),
        q=None if pm is None else _hessian_curvature(pm, ginv),
    )
