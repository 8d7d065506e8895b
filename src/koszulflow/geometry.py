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

import functools
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


# --- symmetric storage ---------------------------------------------------------

def sym_indices(n: int, order: int) -> list[tuple[int, ...]]:
    """Sorted index tuples of a symmetric tensor of ``order`` slots over ``n``
    indices, in lexicographic order: the one storage order of symmetric
    derivatives and of Q's pairs of pairs."""
    return list(itertools.combinations_with_replacement(range(n), order))


def sym_pairs(n: int) -> list[tuple[int, int]]:
    """Upper-triangle index pairs (i, j), i <= j, in row-major order."""
    return sym_indices(n, 2)


@functools.cache
def sym_table(n: int, order: int) -> np.ndarray:
    """Read-only ``(n,) * order`` array of storage slots: entry ``[i, j, ...]``
    is the position of the sorted tuple in :func:`sym_indices`.  Full arrays
    are gathered by ``np.take(stored, table, axis=-1)``, which returns C order."""
    indices = sym_indices(n, order)
    table = np.reshape([indices.index(tuple(sorted(t))) for t in np.ndindex((n,) * order)], (n,) * order)
    table.flags.writeable = False
    return table


def sym_derivatives(values: np.ndarray, order: int, spacings: tuple[float, ...]) -> np.ndarray:
    """``(*values.shape, k)`` derivatives of ``order`` of a node array, one
    stencil call per sorted index tuple, in :func:`sym_indices` order: the
    one loop over derivative index sets.  ``values`` may carry trailing
    component axes, so a tensor's derivatives are stored ``[components, K]``."""
    indices = sym_indices(len(spacings), order)
    out = np.empty((*values.shape, len(indices)))
    for s, axes in enumerate(indices):
        out[..., s] = stencil(values, axes, spacings)
    return out


@functools.cache
def _partials_table(n: int, order: int) -> np.ndarray:
    """Slot of ``partial_K g_ij`` in the flattened last two axes of
    ``sym_derivatives(g.components, order, spacings)``, as an ``[i, j, *K]`` array."""
    pair = sym_table(n, 2)
    table = pair.reshape(n, n, *(1,) * order) * len(sym_indices(n, order)) + sym_table(n, order)
    table.flags.writeable = False
    return table


def _full_partials(stacked: np.ndarray, table: np.ndarray) -> np.ndarray:
    """Gather of the ``[ij, K]`` derivatives of a pair-stored field through a
    (possibly transposed) :func:`_partials_table`, in C order."""
    return np.take(stacked.reshape(*stacked.shape[:-2], -1), table, axis=-1)


# --- stored symmetric tensor fields -------------------------------------------

class _StoredTensor:
    """Node-indexed components of a symmetric tensor, one per slot of the
    storage table ``_table(n)``, in an array of shape ``(*grid.shape, slots)``.

    Immutable: the public constructor keeps a private read-only copy, and
    :meth:`_wrap` keeps, without a copy or a check, an array the library
    has just built and hands over.
    """

    __slots__ = ("grid", "components")

    def __init__(self, grid: PeriodicGrid, components):
        comps = np.asarray(components, dtype=np.float64)
        shape = (*grid.shape, int(self._table(grid.ndim).max()) + 1)
        if comps.shape != shape:
            raise ValueError(f"component shape {comps.shape} does not match {shape}")
        self._fill(grid, np.array(comps))

    @classmethod
    def _wrap(cls, grid: PeriodicGrid, comps: np.ndarray, **slots):
        """A field over ``comps``, which no one writes afterwards; ``slots``
        sets a subclass's own slots."""
        field = object.__new__(cls)
        field._fill(grid, comps, **slots)
        return field

    def _fill(self, grid: PeriodicGrid, comps: np.ndarray, **slots) -> None:
        comps.flags.writeable = False
        for name, value in {"grid": grid, "components": comps, **slots}.items():
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def component(self, *index: int) -> np.ndarray:
        table = self._table(self.grid.ndim)
        if len(index) != table.ndim:
            raise TypeError(f"{type(self).__name__}.component takes {table.ndim} indices, got {len(index)}")
        return self.components[..., table[index]]

    def _gather(self) -> np.ndarray:
        """The full array, one axis of length n per slot, in C order."""
        return np.take(self.components, self._table(self.grid.ndim), axis=-1)

    def sup_norm(self) -> float:
        return float(np.max(np.abs(self.components)))


class Sym2Field(_StoredTensor):
    """Node-indexed symmetric n x n matrices, stored as upper triangles.

    Component storage has shape ``(*grid.shape, n(n+1)/2)`` with the pair
    order of :func:`sym_pairs`; symmetry is structural.
    """

    __slots__ = ()
    _table = staticmethod(functools.partial(sym_table, order=2))

    def __init__(self, grid: PeriodicGrid, components):
        super().__init__(grid, components)
        _check_finite(self.components)

    def matrices(self) -> np.ndarray:
        """Full ``(*shape, n, n)`` array (materialized)."""
        return self._gather()


def _check_finite(comps: np.ndarray) -> np.ndarray:
    """``comps``, or ValueError where an entry is not finite."""
    if not np.isfinite(comps).all():
        raise ValueError("tensor field contains non-finite values")
    return comps


def sym_matrices(comps: np.ndarray, n: int) -> np.ndarray:
    """Full ``(..., n, n)`` matrices of a pair-stored symmetric field."""
    return np.take(comps, sym_table(n, 2), axis=-1)


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

SYM_SCREEN_BAND = 1e-6   # 3x3 trigonometric eigenvalues, relative to |q| + 2p
WHITENING_BAND = 1e-13   # every rounding of a whitened screen, relative to its size
SCREEN_FLOOR = 1e-150    # absolute part of every band: covers underflow

_SCREEN_CHUNK = 2048  # nodes per chunk of a node-local kernel; bounds its intermediates' memory


def _chunks(nodes: int):
    """Slices of ``_SCREEN_CHUNK`` flat nodes covering ``range(nodes)``."""
    return (slice(start, start + _SCREEN_CHUNK) for start in range(0, nodes, _SCREEN_CHUNK))


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
    candidates = _candidates(values, band, largest)
    full = candidates is None
    found = kernel(*operands) if full else kernel(*(op[candidates] for op in operands))
    k = int(np.argmax(found) if largest else np.argmin(found))
    return float(found[k]), k if full else int(candidates[k])


def _candidates(values: np.ndarray, band: np.ndarray, largest: bool) -> np.ndarray | None:
    """Ascending flat nodes whose band reaches the best screened bound, or
    None where :func:`screened_extreme` falls back to the full call."""
    with np.errstate(over="ignore", invalid="ignore"):
        lower, upper = values - band, values + band
        if not (np.isfinite(lower).all() and np.isfinite(upper).all()):
            return None
        candidates = np.flatnonzero(upper >= lower.max() if largest else lower <= upper.min())
    return None if candidates.size == values.size else candidates


def _sym_eigen_screen(comps: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Closed-form ``(smallest, largest, band)`` eigenvalues of pair-stored
    symmetric 2x2 or 3x3 matrices ``(N, pairs)``: half-trace and radius for
    n = 2, the trigonometric form (Smith, Commun. ACM 4, 1961) for n = 3."""
    with np.errstate(over="ignore", invalid="ignore"):
        if n == 2:
            a, b, c = comps[:, 0], comps[:, 1], comps[:, 2]
            q = 0.5 * (a + c)
            p = np.sqrt((0.5 * (a - c)) ** 2 + b * b)
            smallest, largest, band = q - p, q + p, WHITENING_BAND * (np.abs(q) + p)
        else:
            # rows [a b c; b d e; c e f], each a contiguous (N,) array
            a, b, c, d, e, f = np.ascontiguousarray(comps.T)
            q = (a + d + f) / 3.0
            a, d, f = a - q, d - q, f - q  # the deviator A - qI
            p = np.sqrt((a * a + d * d + f * f + 2.0 * (b * b + c * c + e * e)) / 6.0)
            inv_p = np.divide(1.0, p, out=np.zeros_like(p), where=p > 0.0)
            a, b, c, d, e, f = (x * inv_p for x in (a, b, c, d, e, f))  # B = (A - qI) / p
            r = 0.5 * (a * (d * f - e * e) - b * (b * f - e * c) + c * (b * e - d * c))
            phi = np.arccos(np.clip(r, -1.0, 1.0)) / 3.0
            smallest = q + 2.0 * p * np.cos(phi + 2.0 * np.pi / 3.0)
            largest = q + 2.0 * p * np.cos(phi)
            band = SYM_SCREEN_BAND * (np.abs(q) + 2.0 * p)
    return smallest, largest, band + SCREEN_FLOOR


def _cholesky(m: np.ndarray) -> np.ndarray:
    """Lower-triangular ``L`` with ``L L^T = M`` by explicit formulas, for
    symmetric positive definite ``m[i, j]`` with the node axis last: the
    one factor behind every whitened screen (zeros above the diagonal)."""
    n = len(m)
    low = np.zeros(m.shape)
    for j in range(n):
        low[j, j] = np.sqrt(m[j, j] - sum(low[j, k] ** 2 for k in range(j)))
        for i in range(j + 1, n):
            low[i, j] = (m[i, j] - sum(low[i, k] * low[j, k] for k in range(j))) / low[j, j]
    return low


def smallest_eigenvalue(comps: np.ndarray, n: int) -> tuple[float, int, np.ndarray]:
    """Smallest eigenvalue over the nodes of a pair-stored symmetric field, its
    flat node index (the first on ties), and a flat per-node lower bound:
    ``sym_min_eigenvalues`` and its ``argmin``, screened for n = 3, where the
    kernel is LAPACK.  There the bound is the screen's ``smallest - band``,
    below both the exact smallest eigenvalue and the kernel's; for n <= 2,
    where the kernel is a closed form, it is the kernel's values, within the
    kernel's rounding of the exact ones."""
    flat = comps.reshape(-1, comps.shape[-1])
    if n < 3:
        eigs = sym_min_eigenvalues(flat, n)
        worst = int(np.argmin(eigs))
        return float(eigs[worst]), worst, eigs
    smallest, _, band = _sym_eigen_screen(flat, 3)
    value, worst = screened_extreme(smallest, band, lambda c: sym_min_eigenvalues(c, 3), (flat,))
    with np.errstate(over="ignore", invalid="ignore"):
        return value, worst, smallest - band


def check_metric(comps: np.ndarray, n: int) -> float:
    """Nodewise check of pair-stored metric components; returns the smallest
    eigenvalue over the nodes.

    Raises ValueError for a non-finite entry and :class:`NotPositiveDefinite`,
    naming the worst node, for an eigenvalue below ``MIN_EIGENVALUE``.
    """
    value, worst = smallest_eigenvalue(_check_finite(comps), n)[:2]
    if value < MIN_EIGENVALUE:
        raise NotPositiveDefinite(tuple(np.unravel_index(worst, comps.shape[:-1])), value)
    return value


class MetricField(Sym2Field):
    """A :class:`Sym2Field` that is positive definite at every node."""

    __slots__ = ("_min_eig",)

    def __init__(self, grid: PeriodicGrid, components):
        super().__init__(grid, components)
        object.__setattr__(self, "_min_eig", check_metric(self.components, grid.ndim))

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
    by one call on the candidates of both extremes of the closed-form
    screen, or on every node where either extreme falls back.  A node that
    is a candidate of both extremes is passed twice, which changes neither
    the min nor the max.
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
    low, high = _candidates(smallest, band, False), _candidates(largest, band, True)
    if low is not None and high is not None:
        nodes = np.concatenate((low, high))
        flat = tuple(op[nodes] for op in flat)
    eigs = _pencil_eigenvalues(*flat, n)
    return float(eigs[:, 0].min()), float(eigs[:, -1].max())


def _pencil_eigenvalues(g_comps: np.ndarray, h_comps: np.ndarray, n: int) -> np.ndarray:
    """Ascending generalized eigenvalues of pair-stored (G, H) per node: the
    ordinary eigenvalues of L^-1 G L^-T, with L the Cholesky factor of H."""
    linv = np.linalg.inv(np.linalg.cholesky(sym_matrices(h_comps, n)))
    return np.linalg.eigvalsh(linv @ sym_matrices(g_comps, n) @ np.swapaxes(linv, -1, -2))


def _pencil_screen(g_flat: np.ndarray, h_flat: np.ndarray,
                   n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Closed-form ``(smallest, largest, band)`` generalized eigenvalues of the
    pair-stored SPD pairs (G, H): the symmetric screen of W = X G X^T, with
    X = L^-1 and L the explicit Cholesky factor of H."""
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        slot = sym_table(n, 2)
        low = _cholesky(h_flat.T[slot])
        x = np.zeros_like(low)  # lower triangular
        for i in range(n):
            x[i, i] = 1.0 / low[i, i]
            for j in range(i):
                x[i, j] = -sum(low[i, k] * x[k, j] for k in range(j, i)) * x[i, i]
        xg = [[sum(x[i, k] * g_flat[:, slot[k, l]] for k in range(i + 1))
               for l in range(n)] for i in range(n)]
        w = np.stack([sum(xg[i][l] * x[j, l] for l in range(j + 1)) for i, j in sym_pairs(n)], axis=1)
        smallest, largest, band = _sym_eigen_screen(w, n)
        tr_w = w[:, slot.diagonal()].sum(axis=1)
        band = band + WHITENING_BAND * _squares(low) * _squares(x) * np.abs(tr_w)
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
    grid, n, spacings = psi.grid, psi.grid.ndim, psi.grid.spacings
    # second[..., i * n + j] = first difference along j of that along i
    second = sym_derivatives(sym_derivatives(psi.values, 1, spacings), 1, spacings)
    upper = [i * n + j for i, j in sym_pairs(n)]
    return Sym2Field(grid, np.take(second.reshape(*grid.shape, -1), upper, axis=-1))


def metric_from_potential(pm: PotentialMetric) -> MetricField:
    """Assemble ``g = A + dd(psi)``; raises NotPositiveDefinite if the
    potential is not uniformly convex at grid resolution."""
    background = np.array([pm.background[pair] for pair in sym_pairs(pm.grid.ndim)])
    return MetricField(pm.grid, potential_hessian(pm.psi).components + background)


# --- first derivatives of a metric, shared by several operations -------------

def metric_partials(g: Sym2Field) -> np.ndarray:
    """Array ``D[..., k, i, j] = partial_k g_ij``."""
    first = sym_derivatives(g.components, 1, g.grid.spacings)
    return _full_partials(first, np.moveaxis(_partials_table(g.grid.ndim, 1), -1, 0))


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
    return sym_derivatives(values, 2, spacings)


def koszul(g: MetricField) -> tuple[np.ndarray, Sym2Field, Sym2Field]:
    """First and second Koszul forms and the flow tensor of g.

    Returns ``(alpha, kappa, beta)`` with ``alpha[..., i] = partial_i log det g / 2``,
    ``kappa = dd(log det g)/2`` and ``beta = -dd(log det g)``; the three share
    one stencil evaluation, so ``kappa = -beta/2`` holds exactly.
    """
    ldg, spacings = g.log_det(), g.grid.spacings
    alpha = sym_derivatives(ldg, 1, spacings)
    alpha *= 0.5
    beta = _check_finite(_beta(ldg, spacings))
    # kappa = -beta/2 bit for bit, signed zeros included
    return alpha, Sym2Field._wrap(g.grid, -0.5 * beta), Sym2Field._wrap(g.grid, beta)


def beta_form(g: MetricField) -> Sym2Field:
    """Flow tensor ``beta_ij = -partial_i partial_j log det g``."""
    return Sym2Field._wrap(g.grid, _check_finite(_beta(g.log_det(), g.grid.spacings)))


def _beta(log_det_g: np.ndarray, spacings: tuple[float, ...]) -> np.ndarray:
    """Pair-stored ``beta`` of the metric with this ``log det g``: the one
    formula behind :func:`beta_form`, :func:`koszul` and both flow legs."""
    return -pair_hessian(log_det_g, spacings)


# --- Hessian curvature tensor --------------------------------------------------

def _q_table(n: int) -> np.ndarray:
    """Storage slot of ``Q[..., i, j, k, l]``: that of the pair of pairs
    ``((i, k), (j, l))`` in :func:`sym_table` of the pair slots."""
    pair = sym_table(n, 2)
    return sym_table(len(sym_pairs(n)), 2)[pair[:, None, :, None], pair[None, :, None, :]]


class HessianCurvature(_StoredTensor):
    """The 4-tensor Q, stored on its symmetry group.

    Q is invariant under swapping slots (1,3), swapping slots (2,4), and
    swapping the pairs; storage keeps one component per unordered pair of
    index pairs, ``m(m+1)/2`` components with ``m = n(n+1)/2``.
    """

    __slots__ = ()
    _table = staticmethod(_q_table)

    def full(self) -> np.ndarray:
        """Materialize the full ``(*shape, n, n, n, n)`` array."""
        return self._gather()


def hessian_curvature(pm: PotentialMetric) -> HessianCurvature:
    """Q of a potential metric, from third and fourth potential derivatives.

    ``Q_ijkl = phi_ijkl/2 - g^pq phi_ikp phi_jlq / 2``; the quadratic
    background drops out of third and higher derivatives, so only psi is
    differentiated.
    """
    return _hessian_curvature(pm, metric_from_potential(pm).inverse_matrices())


def _hessian_curvature(pm: PotentialMetric, ginv: np.ndarray) -> HessianCurvature:
    grid, n, psi, nodes = pm.grid, pm.grid.ndim, pm.psi.values, pm.grid.num_nodes
    thirds, fourths = (sym_derivatives(psi, order, grid.spacings).reshape(nodes, -1) for order in (3, 4))
    flat_ginv = ginv.reshape(nodes, n, n)
    comps = np.empty((nodes, len(sym_indices(len(sym_pairs(n)), 2))))
    for chunk in _chunks(nodes):
        comps[chunk] = _q_potential(flat_ginv[chunk], thirds[chunk], fourths[chunk])
    return HessianCurvature._wrap(grid, comps.reshape(*grid.shape, -1))


def _q_potential(ginv: np.ndarray, thirds: np.ndarray, fourths: np.ndarray) -> np.ndarray:
    """Stored components of ``Q = phi_ijkl/2 - g^pq phi_ikp phi_jlq/2`` on flat
    nodes, from ``g^-1`` and the stored third and fourth potential
    derivatives (:func:`sym_indices` order): node-local, so a chunk of
    nodes gives the bits of the whole grid."""
    n = ginv.shape[-1]
    third, fourth = np.take(thirds, sym_table(n, 3), axis=-1), sym_table(n, 4)
    pairs = sym_pairs(n)
    slots = sym_indices(len(pairs), 2)
    comps = np.empty((len(ginv), len(slots)))
    for s, (a, b) in enumerate(slots):
        (i, k), (j, l) = pairs[a], pairs[b]
        # summed in C order of (p, q): a full einsum reduction may sum in an
        # order that depends on the number of nodes (see docs/conventions.md)
        quad = sum(ginv[:, p, q] * third[:, i, k, p] * third[:, j, l, q] for p, q in np.ndindex(n, n))
        comps[:, s] = 0.5 * fourths[:, fourth[i, j, k, l]] - 0.5 * quad
    return comps


def hessian_curvature_from_metric(g: MetricField) -> np.ndarray:
    """Q computed from the metric alone (full array, no symmetric storage).

    ``Q_ijkl = partial_k partial_l g_ij / 2 - g^pq (partial_k g_ip)(partial_l g_jq) / 2``;
    agrees with :func:`hessian_curvature` at second order for Hessian
    metrics.  Along a flow, where only the metric is carried, the
    diagnostics need only its norm's sup, :func:`sup_q_gnorm`.
    """
    d2 = _full_partials(sym_derivatives(g.components, 2, g.grid.spacings), _partials_table(g.grid.ndim, 2))
    return _q_metric(g.inverse_matrices(), metric_partials(g), d2)


def _q_metric(ginv: np.ndarray, d: np.ndarray, d2: np.ndarray) -> np.ndarray:
    """``Q = d2/2 - g^pq d_kip d_ljq / 2`` from ``g^-1``, the first derivatives
    ``d[..., k, i, p]`` and the full second derivatives ``d2[..., i, j, k, l]``,
    which it overwrites: the one evaluation of the metric route to Q."""
    quad = np.einsum("...pq,...kip,...ljq->...ijkl", ginv, d, d)
    # 0.5 * d2 - 0.5 * quad, in place: the same operations, without two temporaries
    d2 *= 0.5
    quad *= 0.5
    d2 -= quad
    return d2


def curvature_gnorm(q_full: np.ndarray, ginv: np.ndarray) -> np.ndarray:
    """Nodewise g-contraction norm |Q|_g (all four slots raised against Q),
    from the inverse metric ``ginv``."""
    raised = np.einsum("...ijkl,...ip->...pjkl", q_full, ginv)
    raised = np.einsum("...pjkl,...jq->...pqkl", raised, ginv)
    raised = np.einsum("...pqkl,...kr->...pqrl", raised, ginv)
    raised = np.einsum("...pqrl,...ls->...pqrs", raised, ginv)
    sq = np.einsum("...pqrs,...pqrs->...", raised, q_full)
    return np.sqrt(np.maximum(sq, 0.0))


def _sup_screened_norm(norm: Callable[..., np.ndarray], operands: tuple[np.ndarray, ...],
                       screen: Callable[..., tuple]) -> float:
    """Sup over the nodes of ``norm(*operands)``, the square root of a sum of
    products, for flat operands (first axis over nodes).

    For n >= 2 the norm runs only at the nodes that the screen leaves as
    candidates (at n = 1 the norm is as cheap as any screen).  On a chunk of
    nodes ``screen(*chunk)`` returns ``(sq, delta, shift)``: the squared
    norm of a tensor computed in a whitened frame; ``delta``, which bounds
    the rounding of each side's squared norm, the screen's and the kernel's,
    against the exact squared norm of the tensor it contracts; and
    ``shift``, which bounds the difference of the exact norms of the two
    tensors.  The band carries both through the square root.
    """
    n = operands[0].shape[-1]
    if n == 1:
        return float(np.max(norm(*operands)))
    nodes = len(operands[0])
    sq, delta, shift = np.empty(nodes), np.empty(nodes), np.empty(nodes)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for chunk in _chunks(nodes):
            sq[chunk], delta[chunk], shift[chunk] = screen(*(op[chunk] for op in operands))
        values = np.sqrt(np.maximum(sq, 0.0))
        delta += SCREEN_FLOOR
        root = np.sqrt(delta)
        # |sqrt(a) - sqrt(b)| <= delta / max(sqrt(a), sqrt(delta)) for |a - b| <= delta,
        # and as well with sqrt(b) in place of sqrt(a): the screen's side, then the
        # kernel's, whose exact norm is at least values - screen_side - shift
        screen_side = delta / np.maximum(values, root)
        kernel_side = delta / np.maximum(values - screen_side - shift, root)
        # plus the rounding of both square roots
        band = screen_side + shift + kernel_side + 4.0 * np.finfo(float).eps * values
    return screened_extreme(values, band, norm, operands, largest=True)[0]


def _whitened(t: np.ndarray, factors: tuple[np.ndarray, ...]) -> np.ndarray:
    """``t[i, j, ...]`` (node axis last) with each slot ``s`` contracted with
    ``L^T``, ``L = factors[s]`` from :func:`_cholesky`: its components in an
    orthonormal frame of ``M = L L^T``, whose sum of squares is ``t M t``."""
    n = len(t)
    for s, low in enumerate(factors):
        ts = np.moveaxis(t, s, 0)
        out = np.empty(ts.shape)
        for a in range(n):
            out[a] = sum(low[i, a] * ts[i] for i in range(a, n))
        t = np.moveaxis(out, 0, s)
    return t


def _squares(t: np.ndarray) -> np.ndarray:
    """Per-node sum of the squared components of ``t`` (node axis last)."""
    flat = t.reshape(-1, t.shape[-1])
    return np.einsum("ij,ij->j", flat, flat)


def sup_q_gnorm(g: MetricField) -> float:
    """Sup over the nodes of |Q|_g with Q from the metric alone: the value of
    ``curvature_gnorm(hessian_curvature_from_metric(g), g^-1).max()``, bit
    for bit, with the exact Q formed only at the nodes a screen leaves as
    candidates (see "Screened extremes" in docs/conventions.md)."""
    n, nodes = g.grid.ndim, g.grid.num_nodes
    npairs = g.components.shape[-1]
    operands = (g.inverse_matrices().reshape(nodes, n, n), metric_partials(g).reshape(nodes, n, n, n),
                sym_derivatives(g.components, 2, g.grid.spacings).reshape(nodes, npairs, npairs))
    return _sup_screened_norm(_q_gnorm, operands, _q_screen)


def _q_gnorm(ginv: np.ndarray, d: np.ndarray, d2: np.ndarray) -> np.ndarray:
    """The exact kernel of :func:`sup_q_gnorm`: :func:`curvature_gnorm` of
    :func:`_q_metric`, from the ``[ij, kl]`` second derivatives."""
    return curvature_gnorm(_q_metric(ginv, d, _full_partials(d2, _partials_table(ginv.shape[-1], 2))), ginv)


def _q_screen(ginv: np.ndarray, d: np.ndarray, d2: np.ndarray) -> tuple:
    """``(|Q'|_g^2, delta, shift)`` for :func:`_sup_screened_norm` on a chunk,
    in the frame of the kernel's ``g^-1 = R R^T``: the quadratic term is
    ``E E^T`` for the whitened ``E = d R``, then every slot of Q' is whitened."""
    n = ginv.shape[-1]
    r = _cholesky(np.moveaxis(ginv, 0, -1))
    e = _whitened(d.T, (r,))  # e[a, i, k] = sum_p d[k, i, p] R[p, a]
    quad = sum(e[a][:, None, :, None] * e[a][None, :, None, :] for a in range(n))
    q = 0.5 * d2.reshape(len(d2), -1).T[_partials_table(n, 2)] - 0.5 * quad  # d2[i, j, k, l]
    tr_ginv, q_norm = _squares(r), np.sqrt(_squares(q))  # tr(g^-1) = |R|_F^2
    quad_error = WHITENING_BAND * (_squares(d.T) * tr_ginv + q_norm)  # >= |Q - Q'|_F
    delta = WHITENING_BAND * tr_ginv**4 * (q_norm + quad_error) ** 2
    return _squares(_whitened(q, (r,) * 4)), delta, tr_ginv**2 * quad_error


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
    d, ginv = metric_partials(g), g.inverse_matrices()
    return _torsion(d, ginv), _sup_torsion_gnorm(d, ginv, g.matrices())


def _torsion(d: np.ndarray, ginv: np.ndarray) -> np.ndarray:
    """``T[..., k, i, j]`` from the metric derivatives ``d[..., k, i, j]`` and ``g^-1``."""
    # anti[..., i, j, l] = partial_i g_jl - partial_j g_il
    anti = d - np.swapaxes(d, -3, -2)
    return 0.5 * np.einsum("...kl,...ijl->...kij", ginv, anti)


def _sup_torsion_gnorm(d: np.ndarray, ginv: np.ndarray, gmat: np.ndarray) -> float:
    """Sup over the nodes of the torsion's g-norm, with ``T`` formed per
    chunk of the screen and at the candidate nodes only."""
    n = ginv.shape[-1]
    flat = (d.reshape(-1, n, n, n), ginv.reshape(-1, n, n), gmat.reshape(-1, n, n))
    return _sup_screened_norm(_torsion_gnorm, flat, _torsion_screen)


def _torsion_screen(d: np.ndarray, ginv: np.ndarray, gmat: np.ndarray) -> tuple:
    """``(|T|_g^2, delta, 0)`` for :func:`_sup_screened_norm` on a chunk: the
    sum of squares of ``T`` with its upper slot in the frame of the kernel's
    ``g`` and its lower slots in that of its ``g^-1``; the tensor is the same."""
    torsion = _torsion(d, ginv)
    frames = (_cholesky(np.moveaxis(gmat, 0, -1)),) + (_cholesky(np.moveaxis(ginv, 0, -1)),) * 2
    delta = WHITENING_BAND * _squares(frames[0]) * _squares(frames[1]) ** 2 * _squares(torsion.T)
    return _squares(_whitened(np.moveaxis(torsion, 0, -1), frames)), delta, 0.0


def _torsion_gnorm(d: np.ndarray, ginv: np.ndarray, gmat: np.ndarray) -> np.ndarray:
    """Nodewise g-norm of the torsion of the metric derivatives ``d`` (upper
    slot lowered by g, lower slots raised by g^-1), by one unoptimized
    contraction."""
    torsion = _torsion(d, ginv)
    sq = np.einsum("...kij,...pqr,...kp,...iq,...jr->...", torsion, torsion, gmat, ginv, ginv)
    return np.sqrt(np.maximum(sq, 0.0))


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

    gmats = sym_matrices(g.components.reshape(-1, g.components.shape[-1])[nodes], n)
    ncomp = q.components.shape[-1]
    q_nodes = np.take(q.components.reshape(-1, ncomp)[nodes], _q_table(n), axis=-1)
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
    """The curvature report of one metric: the Koszul forms, ``Q`` (None for
    a non-Hessian input), and of the difference tensor, its Riemann tensor
    and the Chern torsion only the sups and the probe's ``gamma^0_00``
    (None without a probe node)."""

    alpha: np.ndarray
    kappa: Sym2Field
    beta: Sym2Field
    hessian_defect: float
    torsion_norm: float
    sup_gamma_mixed: float
    sup_gamma_lower: float
    sup_riemann: float
    gamma_mixed_000: float | None
    q: HessianCurvature | None


def curvature_bundle(g: MetricField, pm: PotentialMetric | None,
                     node: tuple[int, ...] | None = None) -> CurvatureBundle:
    """The curvature record of ``g = metric_from_potential(pm)``, or of a
    non-Hessian ``g`` with ``pm = None``, probed at ``node``.  The metric
    derivatives, ``g^-1`` and the full matrices are computed once and shared
    by every formula; past the stencils every formula is node-local and
    runs chunk by chunk, so no array of the difference tensor, its Riemann
    tensor or the torsion is formed on the whole grid."""
    n, nodes = g.grid.ndim, g.grid.num_nodes
    ginv = g.inverse_matrices().reshape(nodes, n, n)
    gmat = g.matrices().reshape(nodes, n, n)
    d = metric_partials(g).reshape(nodes, n, n, n)
    probe = None if node is None else int(np.ravel_multi_index(node, g.grid.shape))
    sups, gamma_mixed_000 = [], None
    for chunk in _chunks(nodes):
        gamma_mixed, gamma_lower = _christoffel(d[chunk], ginv[chunk])
        riemann = _riemann_from_gamma(gamma_mixed, gmat[chunk])
        sups.append([_hessian_defect(d[chunk]),
                     *(np.max(np.abs(t)) for t in (gamma_mixed, gamma_lower, riemann))])
        if probe is not None and chunk.start <= probe < chunk.stop:
            gamma_mixed_000 = float(gamma_mixed[probe - chunk.start, 0, 0, 0])
    defect, sup_gamma_mixed, sup_gamma_lower, sup_riemann = (float(v) for v in np.max(sups, axis=0))
    torsion_norm = _sup_torsion_gnorm(d, ginv, gmat)
    del d  # freed before the Koszul forms and Q; lowers peak memory
    alpha, kappa, beta = koszul(g)
    return CurvatureBundle(
        alpha=alpha,
        kappa=kappa,
        beta=beta,
        hessian_defect=defect,
        torsion_norm=torsion_norm,
        sup_gamma_mixed=sup_gamma_mixed,
        sup_gamma_lower=sup_gamma_lower,
        sup_riemann=sup_riemann,
        gamma_mixed_000=gamma_mixed_000,
        q=None if pm is None else _hessian_curvature(pm, ginv),
    )
