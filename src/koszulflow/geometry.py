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

from .grid import PeriodicGrid, ScalarField, _check_finite, stencil

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

@functools.cache
def sym_indices(n: int, order: int) -> tuple[tuple[int, ...], ...]:
    """Sorted index tuples of a symmetric tensor of ``order`` slots over ``n``
    indices, in lexicographic order: the one storage order of symmetric
    derivatives and of Q's pairs of pairs."""
    return tuple(itertools.combinations_with_replacement(range(n), order))


def sym_pairs(n: int) -> tuple[tuple[int, int], ...]:
    """Upper-triangle index pairs (i, j), i <= j, in row-major order."""
    return sym_indices(n, 2)


@functools.cache
def sym_pair_weights(n: int) -> np.ndarray:
    """Read-only multiplicity of each stored pair of :func:`sym_pairs` in the
    full matrix: 1 on the diagonal, 2 off it."""
    weights = np.array([1.0 if i == j else 2.0 for i, j in sym_pairs(n)])
    weights.flags.writeable = False
    return weights


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
    component axes, so a tensor's derivatives are stored ``[components, K]``.
    Each stencil writes its last pass into its slot, so no slot is copied."""
    indices = sym_indices(len(spacings), order)
    out = np.empty((*values.shape, len(indices)))
    for s, axes in enumerate(indices):
        stencil(values, axes, spacings, out=out[..., s])
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
        return sup_abs(self.components)


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


def sym_matrices(comps: np.ndarray, n: int) -> np.ndarray:
    """Full ``(..., n, n)`` matrices of a pair-stored symmetric field."""
    return np.take(comps, sym_table(n, 2), axis=-1)


def sym_det(comps: np.ndarray, n: int) -> np.ndarray:
    """Determinant of a pair-stored symmetric matrix field, explicit for n <= 3 (a view at n = 1)."""
    if n == 1:
        return comps[..., 0]
    if n == 2:
        a, b, c = comps[..., 0], comps[..., 1], comps[..., 2]
        det = a * c
        det -= b * b
        return det
    return _det3(*(comps[..., p] for p in range(6)))[0]


def _det3(a, b, c, d, e, f) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
    """Determinant of symmetric 3x3 ``[a b c; b d e; c e f]`` by cofactors of the
    first row, and the six products ``(df, ee, bf, ec, be, dc)`` it forms: the
    one 3x3 determinant formula, so every caller gets :func:`sym_det`'s bits."""
    df, ee, bf, ec, be, dc = d * f, e * e, b * f, e * c, b * e, d * c
    return a * (df - ee) - b * (bf - ec) + c * (be - dc), (df, ee, bf, ec, be, dc)


def log_det(det: np.ndarray) -> np.ndarray:
    """``log det g`` from a determinant field: the one place the package takes
    that logarithm.  ValueError where it is not finite (a determinant that
    overflows, underflows to zero or is negative)."""
    return _check_finite(np.log(det), "log det g is not finite (the determinant overflows or is not positive)")


def sym_inverse(comps: np.ndarray, n: int) -> np.ndarray:
    """Pair-stored inverse of a pair-stored symmetric field, via the adjugate
    for n <= 3, over :func:`sym_det`'s determinant.  At n = 3 the first-row
    cofactors are differences of the products :func:`_det3` formed for it."""
    inv = np.empty(comps.shape)
    if n == 1:
        np.divide(1.0, sym_det(comps, 1), out=inv[..., 0])
        return inv
    if n == 2:
        det = sym_det(comps, 2)
        a, b, c = comps[..., 0], comps[..., 1], comps[..., 2]
        np.divide(c, det, out=inv[..., 0])
        np.divide(-b, det, out=inv[..., 1])
        np.divide(a, det, out=inv[..., 2])
        return inv
    a, b, c, d, e, f = (comps[..., p] for p in range(6))
    det, (df, ee, bf, ec, be, dc) = _det3(a, b, c, d, e, f)
    np.divide(df - ee, det, out=inv[..., 0])
    np.divide(ec - bf, det, out=inv[..., 1])
    np.divide(be - dc, det, out=inv[..., 2])
    np.divide(a * f - c * c, det, out=inv[..., 3])
    np.divide(b * c - a * e, det, out=inv[..., 4])
    np.divide(a * d - b * b, det, out=inv[..., 5])
    return inv


def sym_inverse_matrices(comps: np.ndarray, n: int) -> np.ndarray:
    """Inverse as a full ``(..., n, n)`` array: :func:`sym_inverse`, gathered."""
    return sym_matrices(sym_inverse(comps, n), n)


def sym_min_eigenvalues(comps: np.ndarray, n: int) -> np.ndarray:
    """Nodewise smallest eigenvalue of a pair-stored symmetric matrix field;
    at n = 3 NaN where an entry is not finite, since LAPACK maps a NaN
    entry to finite eigenvalues."""
    if n == 1:
        return comps[..., 0]
    if n == 2:
        half_trace, radius = _half_trace_radius(comps)
        return half_trace - radius
    eigs = np.linalg.eigvalsh(sym_matrices(comps, n))[..., 0]
    eigs[~np.isfinite(comps).all(axis=-1)] = np.nan
    return eigs


def _half_trace_radius(comps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Half-trace ``q`` and radius ``p`` of pair-stored symmetric 2x2
    matrices ``[a b; b c]``, whose eigenvalues are ``q -+ p``.  A node where
    either is not finite, as where the squares overflow (entries above
    about ``1e154``), is recomputed with its entries scaled by a power of
    two to below 1 and the results scaled back; both scalings are exact,
    and every other node keeps its bits."""
    with np.errstate(over="ignore", invalid="ignore"):
        q, p = _unscaled_half_trace_radius(comps)
        if np.isfinite(q).all() and np.isfinite(p).all():
            return q, p
        bad = ~(np.isfinite(q) & np.isfinite(p))
        exponent = np.frexp(np.abs(comps[bad]).max(axis=-1))[1]
        q, p = np.array(q), np.array(p)  # writable, also for a single node
        scaled = _unscaled_half_trace_radius(np.ldexp(comps[bad], -exponent[:, None]))
        q[bad], p[bad] = (np.ldexp(x, exponent) for x in scaled)
    return q, p


def _unscaled_half_trace_radius(comps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """:func:`_half_trace_radius`'s formula, without its rescaling, formed in
    place in two fresh arrays (0-d for one matrix): the bits of
    ``0.5 * (a + c)`` and ``np.sqrt((0.5 * (a - c)) ** 2 + b * b)``."""
    a, b, c = comps[..., 0], comps[..., 1], comps[..., 2]
    q, p = np.add(a, c, out=np.empty(a.shape)), np.subtract(a, c, out=np.empty(a.shape))
    q *= 0.5
    p *= 0.5
    p *= p
    p += b * b
    return q, np.sqrt(p, out=p)


# --- screened extremes over the nodes ---------------------------------------------
#
# The bands below are derived in docs/conventions.md, "Screened extremes".

SYM_SCREEN_BAND = 1e-6   # 3x3 trigonometric eigenvalues, relative to |q| + 2p
WHITENING_BAND = 1e-13   # every O(u) rounding of a screen, relative to its size
SCREEN_FLOOR = 1e-150    # absolute part of every band: covers underflow

_SCREEN_CHUNK = 2048  # nodes per chunk of a node-local kernel; bounds its intermediates' memory


def _per_chunk(fn: Callable, operands: tuple[np.ndarray, ...], rows: np.ndarray | None = None,
               out: np.ndarray | None = None):
    """``fn(*operands)`` on the flat nodes ``rows`` (None: every node), called
    on at most ``_SCREEN_CHUNK`` of them at a time, its array output or each
    array of its tuple output stacked along the nodes: the one loop over
    node chunks, so a node-local kernel's intermediates' memory stays
    bounded however many nodes it runs on.  ``fn`` gives the same bits on
    any subset of nodes as on all, so the result is that of one call.  An
    array output is stacked into ``out`` where given, which may be an
    operand: each chunk is read before its result is written over it."""
    nodes = len(operands[0]) if rows is None else len(rows)
    stacked = None if out is None else (out,)
    for start in range(0, nodes, _SCREEN_CHUNK):
        chunk = slice(start, start + _SCREEN_CHUNK)
        part = fn(*(op[chunk if rows is None else rows[chunk]] for op in operands))
        parts = part if isinstance(part, tuple) else (part,)
        if stacked is None:
            stacked = tuple(np.empty((nodes, *p.shape[1:]), p.dtype) for p in parts)
        for whole, p in zip(stacked, parts):
            whole[chunk] = p
    return stacked if isinstance(part, tuple) else stacked[0]


def screened_extreme(values: np.ndarray, band: np.ndarray, kernel: Callable[..., np.ndarray],
                     operands: tuple[np.ndarray, ...], largest: bool = False) -> tuple[float, int]:
    """``(value, flat index)`` of the minimum (``largest``: the maximum) over
    the nodes of ``kernel(*operands)``, an exact kernel that runs on a few
    nodes only.

    The operands' first axis runs over the flat nodes, and the kernel gives
    the same bits on any subset of them as on all.  ``values`` screens the
    kernel at every node and ``band`` bounds ``|values - kernel|`` there;
    or, for a kernel that is a nondecreasing function of some quantity (a
    norm ending in a square root), ``values`` screens that quantity and
    ``band`` bounds the distance to it, which finds the same nodes.
    The kernel runs (through :func:`_per_chunk`) on the nodes whose band
    reaches the best screened bound, which include every node attaining the
    extreme, so the result equals the full call's, ties going to the lowest
    flat index as with ``np.argmin`` and ``np.argmax``.  A node whose screen
    or band is not finite is a candidate; the kernel runs on every node when
    no node's is finite or every node is a candidate.
    """
    candidates = _candidates(values, band, largest)
    found = _per_chunk(kernel, operands, candidates)
    k = int(np.argmax(found) if largest else np.argmin(found))
    return float(found[k]), k if candidates is None else int(candidates[k])


def _candidates(values: np.ndarray, band: np.ndarray, largest: bool) -> np.ndarray | None:
    """Ascending flat nodes whose band reaches the best screened bound over
    the nodes where both ends are finite, and those where one is not; None
    where :func:`screened_extreme` falls back to the full call."""
    with np.errstate(over="ignore", invalid="ignore"):
        lower, upper, finite = _bound_ends(values, band)
        if not finite.any():
            return None
        if largest:
            keep = upper >= lower.max(where=finite, initial=-np.inf)
        else:
            keep = lower <= upper.min(where=finite, initial=np.inf)
        candidates = np.flatnonzero(keep | ~finite)
    return None if candidates.size == values.size else candidates


def _bound_ends(values: np.ndarray, band: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(values - band, values + band, whether both are finite)``: the
    bounds that :func:`_candidates` compares, under the caller's errstate."""
    lower, upper = values - band, values + band
    return lower, upper, np.isfinite(lower) & np.isfinite(upper)


def _sym_eigen_screen(comps: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Closed-form ``(smallest, largest, band)`` eigenvalues of pair-stored
    symmetric 2x2 or 3x3 matrices ``(N, pairs)``: half-trace and radius for
    n = 2, the trigonometric form (Smith, Commun. ACM 4, 1961) for n = 3."""
    with np.errstate(over="ignore", invalid="ignore"):
        if n == 2:
            q, p = _half_trace_radius(comps)
            band = np.abs(q)
            band += p
            band *= WHITENING_BAND
            smallest, largest = q - p, np.add(q, p, out=q)
        else:
            # rows [a b c; b d e; c e f], each a contiguous (N,) array
            a, b, c, d, e, f = np.ascontiguousarray(comps.T)
            q = (a + d + f) / 3.0
            a, d, f = a - q, d - q, f - q  # the deviator A - qI
            p = np.sqrt((a * a + d * d + f * f + 2.0 * (b * b + c * c + e * e)) / 6.0)
            inv_p = np.divide(1.0, p, out=np.zeros_like(p), where=p > 0.0)
            a, b, c, d, e, f = (x * inv_p for x in (a, b, c, d, e, f))  # B = (A - qI) / p
            r = 0.5 * _det3(a, b, c, d, e, f)[0]
            phi = np.arccos(np.clip(r, -1.0, 1.0)) / 3.0
            smallest = q + 2.0 * p * np.cos(phi + 2.0 * np.pi / 3.0)
            largest = q + 2.0 * p * np.cos(phi)
            band = SYM_SCREEN_BAND * (np.abs(q) + 2.0 * p)
        band += SCREEN_FLOOR
    return smallest, largest, band


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


def smallest_eigenvalue(comps: np.ndarray, n: int) -> tuple[float, int]:
    """Smallest eigenvalue over the nodes of a pair-stored symmetric field and
    its flat node index (the first on ties): ``sym_min_eigenvalues`` and its
    ``argmin``, screened for n = 3, where the kernel is LAPACK."""
    flat = comps.reshape(-1, comps.shape[-1])
    if n < 3:
        eigs = sym_min_eigenvalues(flat, n)
        worst = int(eigs.argmin())
        return float(eigs[worst]), worst
    # the screen is node-local: chunk by chunk, its temporaries take one chunk's memory
    smallest, band = _per_chunk(lambda c: _sym_eigen_screen(c, 3)[::2], (flat,))
    return screened_extreme(smallest, band, lambda c: sym_min_eigenvalues(c, 3), (flat,))


def check_metric(comps: np.ndarray, n: int) -> tuple[float | None, np.ndarray | None]:
    """Nodewise check of pair-stored metric components: the smallest
    eigenvalue of :func:`smallest_eigenvalue` over the nodes is at least
    ``MIN_EIGENVALUE``.  Returns ``(min_eig, det)``.

    At n = 3 :func:`_positivity_certificate`, run chunk by chunk, decides
    where it proves every node, and ``min_eig`` is None; otherwise the value
    is computed.  ``det``
    is the determinant the certificate formed at n = 3 (None for n <= 2),
    whose log det the flow takes.  Raises ValueError for a non-finite entry
    and :class:`NotPositiveDefinite`, naming the worst node (the first on
    ties), for a value below ``MIN_EIGENVALUE``."""
    _check_finite(comps)
    det = None
    if n == 3:
        proven, det = _per_chunk(_positivity_certificate, (comps.reshape(-1, 6),))
        det = det.reshape(comps.shape[:-1])
        if proven.all():
            return None, det
    value, worst = smallest_eigenvalue(comps, n)
    if value < MIN_EIGENVALUE:
        raise NotPositiveDefinite(tuple(int(k) for k in np.unravel_index(worst, comps.shape[:-1])), value)
    return value, det


def _positivity_certificate(comps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(proven, det)`` per flat node of pair-stored symmetric 3x3 matrices:
    whether the leading minors and ``lambda_min >= 4 det / tr^2`` prove,
    through their rounding and that of LAPACK ``eigvalsh``, that the exact
    smallest eigenvalue and the kernel's (:func:`sym_min_eigenvalues`) are
    both at least ``MIN_EIGENVALUE``, and the determinant it forms by
    :func:`_det3`, so with :func:`sym_det`'s bits.  False where it cannot
    tell, never where the kernel's value is below (see docs/conventions.md,
    "Positivity by certificate")."""
    comps = comps.reshape(-1, 6)
    det, det_band, minor, minor_band, bound = _certificate_terms(comps)
    with np.errstate(invalid="ignore"):
        proven = comps[:, 0] > 0.0
        proven &= minor > minor_band
        proven &= det > det_band
        proven &= bound >= MIN_EIGENVALUE
    return proven, det


def _certificate_terms(comps: np.ndarray) -> tuple[np.ndarray, ...]:
    """``(det, det_band, minor, minor_band, bound)`` of
    :func:`_positivity_certificate` for flat pair-stored ``[a b c; b d e;
    c e f]``: ``det = a (df - ee) - b (bf - ec) + c (be - dc)`` as
    :func:`_det3` forms it, ``det_band = WHITENING_BAND (|a| (|df| + ee) +
    |b| (|bf| + |ec|) + |c| (|be| + |dc|)) + SCREEN_FLOOR (1 + |a| + |b| +
    |c|)``, ``minor = ad - bb``, ``minor_band = WHITENING_BAND (|ad| + bb) +
    SCREEN_FLOOR`` and ``bound = 4 (det - det_band) / (tr tr) -
    WHITENING_BAND tr`` with ``tr = a + d + f``.  Formed in place in a few
    reused buffers, with the bits of those expressions: the same operations
    in the same order (a product or a sum of two terms is the same in
    either order)."""
    # rows [a b c; b d e; c e f], each a contiguous (N,) array
    a, b, c, d, e, f = np.ascontiguousarray(comps.T)
    det_band, floor, x, y, z = (np.empty(a.shape) for _ in range(5))
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        # det term by term, with the absolute products of det_band and its
        # floor beside it: a first, then -b and +c
        np.multiply(d, f, out=x)
        np.multiply(e, e, out=y)
        det = np.subtract(x, y)
        det *= a
        np.abs(x, out=det_band)
        det_band += y
        np.abs(a, out=floor)
        det_band *= floor
        floor += 1.0
        for coefficient, (p, q), (r, s), add in ((b, (b, f), (e, c), np.subtract), (c, (b, e), (d, c), np.add)):
            np.multiply(p, q, out=x)
            np.multiply(r, s, out=y)
            np.subtract(x, y, out=z)
            z *= coefficient
            add(det, z, out=det)
            np.abs(x, out=x)
            x += np.abs(y, out=y)
            np.abs(coefficient, out=y)
            x *= y
            det_band += x
            floor += y
        det_band *= WHITENING_BAND
        floor *= SCREEN_FLOOR
        det_band += floor
        minor = np.multiply(a, d, out=x)
        np.multiply(b, b, out=y)
        minor_band = np.abs(minor, out=z)
        minor_band += y
        minor_band *= WHITENING_BAND
        minor_band += SCREEN_FLOOR
        minor -= y
        tr = np.add(a, d, out=floor)
        tr += f
        bound = np.subtract(det, det_band, out=y)
        bound *= 4.0
        bound /= tr * tr
        tr *= WHITENING_BAND
        bound -= tr
    return det, det_band, minor, minor_band, bound


class MetricField(Sym2Field):
    """A :class:`Sym2Field` that is positive definite at every node: its
    smallest eigenvalue over the nodes is at least ``MIN_EIGENVALUE``, as
    :func:`check_metric` decides.  The value itself is kept where the check
    computed it and otherwise computed on the first call of
    :meth:`min_eigenvalue`; the inverse Cholesky factor of its pencils is
    computed on the first call of :meth:`_inverse_factor` and kept too."""

    __slots__ = ("_min_eig", "_factor")

    def __init__(self, grid: PeriodicGrid, components):
        _StoredTensor.__init__(self, grid, components)  # check_metric checks finiteness
        object.__setattr__(self, "_min_eig", check_metric(self.components, grid.ndim)[0])

    def det(self) -> np.ndarray:
        return sym_det(self.components, self.grid.ndim)

    def log_det(self) -> np.ndarray:
        return log_det(self.det())

    def inverse_matrices(self) -> np.ndarray:
        return sym_inverse_matrices(self.components, self.grid.ndim)

    def min_eigenvalue(self) -> float:
        """Smallest eigenvalue over the nodes (:func:`smallest_eigenvalue`)."""
        if self._min_eig is None:
            object.__setattr__(self, "_min_eig", smallest_eigenvalue(self.components, self.grid.ndim)[0])
        return self._min_eig

    def _inverse_factor(self) -> tuple[np.ndarray, np.ndarray]:
        """:func:`_inverse_factor` of the flat components, formed once: a
        flow's every diagnostics row takes its pencil against the same ``g0``."""
        factor = getattr(self, "_factor", None)
        if factor is None:
            comps = self.components
            factor = _inverse_factor(comps.reshape(-1, comps.shape[-1]), self.grid.ndim)
            object.__setattr__(self, "_factor", factor)
        return factor


def pencil_eigenvalue_range(g: MetricField, g0: MetricField) -> tuple[float, float]:
    """Tight constants (lam, Lam) with lam*g0 <= g <= Lam*g0 over all nodes.

    Generalized eigenvalues of (g, g0) per node, the ordinary eigenvalues of
    L^-1 g L^-T with L the Cholesky factor of g0; for n >= 2 by one chain on
    the candidates of both extremes of the closed-form screen (a node of both
    runs twice), or on every node where either extreme falls back.  The
    screen, like the chain, runs chunk by chunk (:func:`_per_chunk`)."""
    if g.grid != g0.grid:
        raise ValueError("metrics live on different grids")
    n = g.grid.ndim
    if n == 1:
        ratio = g.components[..., 0] / g0.components[..., 0]
        return float(ratio.min()), float(ratio.max())
    npairs = len(sym_pairs(n))
    flat = (g.components.reshape(-1, npairs), g0.components.reshape(-1, npairs))
    x, rounding = g0._inverse_factor()
    # the screen chunk by chunk, on g0's factor sliced node-first (views, no copy)
    smallest, largest, band = _per_chunk(
        lambda g_comps, x_nodes, r: _pencil_screen(g_comps, (np.moveaxis(x_nodes, 0, -1), r), n),
        (flat[0], np.moveaxis(x, -1, 0), rounding))
    low, high = _candidates(smallest, band, False), _candidates(largest, band, True)
    nodes = None if low is None or high is None else np.concatenate((low, high))
    eigs = _per_chunk(lambda g_comps, h_comps: _pencil_eigenvalues(g_comps, h_comps, n), flat, nodes)
    return float(eigs[:, 0].min()), float(eigs[:, -1].max())


def largest_pencil_eigenvalue(g_flat: np.ndarray, h_flat: np.ndarray, n: int) -> tuple[float, int]:
    """Largest generalized eigenvalue over the flat nodes of the pair-stored
    pencil (G, H), H positive definite and G any symmetric field, and its
    flat node (the first on ties): the ratio at n = 1, else the
    :func:`_pencil_eigenvalues` chain on the candidates of the screen, which
    factors H chunk by chunk; LinAlgError where the chain cannot factor H."""
    if n == 1:
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            ratio = g_flat[:, 0] / h_flat[:, 0]
        top = int(ratio.argmax())
        return float(ratio[top]), top
    largest, band = _per_chunk(lambda g, h: _pencil_screen(g, _inverse_factor(h, n), n)[1:], (g_flat, h_flat))
    return screened_extreme(largest, band, lambda g, h: _pencil_eigenvalues(g, h, n)[:, -1],
                            (g_flat, h_flat), largest=True)


def _pencil_eigenvalues(g_comps: np.ndarray, h_comps: np.ndarray, n: int) -> np.ndarray:
    """Ascending generalized eigenvalues of pair-stored (G, H) per node: the
    ordinary eigenvalues of L^-1 G L^-T, with L the Cholesky factor of H."""
    linv = np.linalg.inv(np.linalg.cholesky(sym_matrices(h_comps, n)))
    return np.linalg.eigvalsh(linv @ sym_matrices(g_comps, n) @ np.swapaxes(linv, -1, -2))


def _inverse_factor(h_flat: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """``(X, r)`` for pair-stored SPD ``H`` on flat nodes: ``X = L^-1``
    (``X[i, j]`` lower triangular, node axis last) with ``L`` the explicit
    Cholesky factor of ``H``, and ``r = WHITENING_BAND |L|_F^2 |X|_F^2``, the
    factor of the pencil band's rounding term.  Depends on ``H`` alone, so
    :meth:`MetricField._inverse_factor` keeps it for a metric's pencils."""
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        low = _cholesky(h_flat.T[sym_table(n, 2)])
        x = np.zeros_like(low)  # lower triangular
        for i in range(n):
            x[i, i] = 1.0 / low[i, i]
            for j in range(i):
                x[i, j] = -sum(low[i, k] * x[k, j] for k in range(j, i)) * x[i, i]
        return x, WHITENING_BAND * _squares(low) * _squares(x)


def _pencil_screen(g_flat: np.ndarray, h_factor: tuple[np.ndarray, np.ndarray],
                   n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Closed-form ``(smallest, largest, band)`` generalized eigenvalues of the
    pair-stored pairs (G, H), H positive definite: the symmetric screen of
    W = X G X^T, with ``h_factor = (X, r)`` of :func:`_inverse_factor`, and
    ``r |W|_F`` for the rounding of W and of the chain."""
    x, rounding = h_factor
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        slot, g_rows = sym_table(n, 2), np.ascontiguousarray(g_flat.T)  # one contiguous row per pair
        xg = [[sum(x[i, k] * g_rows[slot[k, l]] for k in range(i + 1))
               for l in range(n)] for i in range(n)]
        w = np.stack([sum(xg[i][l] * x[j, l] for l in range(j + 1)) for i, j in sym_pairs(n)]).T
        smallest, largest, band = _sym_eigen_screen(w, n)
        band = band + rounding * np.sqrt(np.square(w) @ sym_pair_weights(n))
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
    return _gathered_partials(sym_derivatives(g.components, 1, g.grid.spacings))


def _gathered_partials(first: np.ndarray) -> np.ndarray:
    """``D[..., k, i, j]`` from the pair-stored first derivatives
    ``first[..., ij, k]`` of :func:`sym_derivatives`."""
    return _full_partials(first, np.moveaxis(_partials_table(first.shape[-1], 1), -1, 0))


def hessian_defect(g: Sym2Field) -> float:
    """Sup over nodes and index triples of |partial_k g_ij - partial_i g_kj|.

    Zero (to truncation) exactly when g is a Hessian metric.
    """
    return float(_hessian_defects(metric_partials(g)).max())


def _hessian_defects(d: np.ndarray) -> np.ndarray:
    """:func:`_largest_abs` of ``partial_k g_ij - partial_i g_kj`` from the
    metric derivatives ``d``: per flat node when ``d`` is flat."""
    return _largest_abs(d - np.swapaxes(d, -3, -2))


def sup_abs(values: np.ndarray) -> float:
    """``np.max(np.abs(values))`` for an array whose last axis holds each
    node's components, reduced chunk by chunk of nodes (:func:`_per_chunk`),
    so no whole-grid ``|values|`` is formed; a max is exact under any
    grouping, so the value is the same."""
    return float(_per_chunk(_largest_abs, (values.reshape(-1, values.shape[-1]),)).max())


def _largest_abs(t: np.ndarray) -> np.ndarray:
    """Largest absolute entry of each ``t[k]``, by ``reduceat``: numpy runs it
    faster than ``max(axis=1)`` on rows as short as a node's."""
    flat = np.abs(t).ravel()
    return np.maximum.reduceat(flat, np.arange(0, flat.size, flat.size // len(t)))


# --- connection and Koszul forms ---------------------------------------------

def christoffel(g: MetricField) -> tuple[np.ndarray, np.ndarray]:
    """Difference tensor (Christoffel symbols) of g: ``(gamma_mixed, gamma_lower)``
    with ``gamma_lower[..., i, j, k] = (partial_j g_ik + partial_k g_ij - partial_i g_jk)/2``
    and ``gamma_mixed = g^{-1} gamma_lower`` in the first slot, both symmetric
    in the last two slots by construction."""
    return _christoffel(metric_partials(g), g.inverse_matrices())


def _christoffel(d: np.ndarray, ginv: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The pair of :func:`christoffel` from ``d[..., k, i, j] = partial_k g_ij``
    and ``g^-1``, formed on arrays with the node axes last, of which it returns
    views with the node axes first.  ``gamma_mixed`` sums ``g^il gamma_ljk`` over
    ``l`` from +0.0, the bits of ``einsum("...il,...ljk->...ijk")``."""
    d = np.ascontiguousarray(np.moveaxis(d, (-3, -2, -1), (0, 1, 2)))
    ginv = np.ascontiguousarray(np.moveaxis(ginv, (-2, -1), (0, 1)))
    # gamma_lower[i, j, k] = 0.5 * (d[j, i, k] + d[k, i, j] - d[i, j, k])
    gamma_lower = 0.5 * (np.swapaxes(d, 0, 1) + np.moveaxis(d, 0, 2) - d)
    gamma_mixed = np.zeros(d.shape)
    for l in range(len(d)):
        gamma_mixed += ginv[:, l, None, None] * gamma_lower[l]
    return tuple(np.moveaxis(gamma, (0, 1, 2), (-3, -2, -1)) for gamma in (gamma_mixed, gamma_lower))


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
    formula behind :func:`beta_form`, :func:`koszul` and both flow legs,
    negated in place: the bits of ``-sym_derivatives(log_det_g, 2, spacings)``."""
    beta = sym_derivatives(log_det_g, 2, spacings)
    return np.negative(beta, out=beta)


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
    g = metric_from_potential(pm)
    return _hessian_curvature(pm, sym_inverse(g.components, g.grid.ndim))


def _hessian_curvature(pm: PotentialMetric, ginv: np.ndarray) -> HessianCurvature:
    """:func:`hessian_curvature` from the pair-stored ``g^-1``.  Each distinct
    fourth derivative is stenciled straight into the first slot of Q that
    reads it, and copied into the others; :func:`_q_potential` then turns
    the slots into Q chunk by chunk, over themselves."""
    grid, n, psi, nodes = pm.grid, pm.grid.ndim, pm.psi.values, pm.grid.num_nodes
    thirds = sym_derivatives(psi, 3, grid.spacings).reshape(nodes, -1)
    fourths = _q_fourths(n)
    comps = np.empty((*grid.shape, len(fourths)))
    for s, fourth in enumerate(fourths):
        first = fourths.index(fourth)
        if first < s:
            comps[..., s] = comps[..., first]
        else:
            stencil(psi, sym_indices(n, 4)[fourth], grid.spacings, out=comps[..., s])
    flat = comps.reshape(nodes, -1)
    _per_chunk(_q_potential, (ginv.reshape(nodes, -1), thirds, flat), out=flat)
    return HessianCurvature._wrap(grid, comps)


@functools.cache
def _q_fourths(n: int) -> tuple[int, ...]:
    """Per storage slot of Q, the :func:`sym_indices` position of the fourth
    derivative ``phi_ijkl`` it reads."""
    pairs = sym_pairs(n)
    return tuple(int(sym_table(n, 4)[i, j, k, l]) for (i, k), (j, l) in
                 (map(pairs.__getitem__, slot) for slot in sym_indices(len(pairs), 2)))


def _q_potential(ginv: np.ndarray, thirds: np.ndarray, fourths: np.ndarray) -> np.ndarray:
    """Stored components of ``Q = phi_ijkl/2 - g^pq phi_ikp phi_jlq/2`` on flat
    nodes, from the pair-stored ``g^-1``, the stored third potential
    derivatives (:func:`sym_indices` order) and ``phi_ijkl`` per storage slot
    of Q: node-local, so a chunk of nodes gives the bits of the whole grid."""
    nodes, n = len(ginv), int(np.sqrt(2 * ginv.shape[-1]))  # n^2 <= n (n + 1) < (n + 1)^2
    pairs = sym_pairs(n)
    m = len(pairs)
    # node axis last: t[p, a] = phi_ikp for the pair a = (i, k)
    t = np.take(thirds.T, sym_table(n, 3)[tuple(np.transpose(pairs))].T, axis=0)
    g_inv = ginv.T[sym_table(n, 2)]
    quad, s = np.empty((m * (m + 1) // 2, nodes)), 0
    for a in range(m):
        # the slots (a, b >= a): g^pq phi_ikp phi_jlq summed from +0.0 in the C order
        # of (p, q), by rows, since numpy sums an inner axis pairwise: so that axis
        # holds two b or more even on one node, the last a also forms (a, a - 1)
        lo = max(0, min(a, m - 2))
        quad[s:s + m - a] = (((g_inv * t[:, None, a])[:, :, None] * t[:, lo:])  # [p, q, b]
                             .reshape(n * n, m - lo, nodes).sum(axis=0, initial=0.0)[a - lo:])
        s += m - a
    # 0.5 * fourths - 0.5 * quad.T, with the bits of the expression
    q = 0.5 * fourths
    quad *= 0.5
    q -= quad.T
    return q


def hessian_curvature_from_metric(g: MetricField) -> np.ndarray:
    """Q computed from the metric alone (full array, no symmetric storage).

    ``Q_ijkl = partial_k partial_l g_ij / 2 - g^pq (partial_k g_ip)(partial_l g_jq) / 2``;
    agrees with :func:`hessian_curvature` at second order for Hessian
    metrics.  A flow's diagnostics take its norm's sup by :func:`sup_q_gnorm`."""
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
    for bit.  For n >= 2 spectral bounds (:func:`_q_bounds`) keep the nodes
    that may attain it, the whitened screen :func:`_q_screen` runs on those,
    and Q is formed at its candidates only (docs/conventions.md).  At n = 1
    the kernel is as cheap as any screen.  The operands are the pair-stored
    ``g^-1`` and first and second derivatives, which the screen and the
    kernel gather into full arrays at the nodes they run on; for n >= 2
    they are formed slab by slab and kept at the survivors of the spectral
    bounds only (:func:`_q_survivors`)."""
    if g.grid.ndim == 1:
        return float(np.max(_q_gnorm(*_q_operands(g.components, g.grid.spacings))))
    operands = _q_survivors(g)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        sq, band = _per_chunk(_q_screen, operands)
    return screened_extreme(sq, band, _q_gnorm, operands, largest=True)[0]


def _q_operands(comps: np.ndarray, spacings: tuple[float, ...], halo: int = 0) -> tuple[np.ndarray, ...]:
    """The flat operands of :func:`_q_gnorm`, the pair-stored ``g^-1``, the
    ``[ij, k]`` first and the ``[ij, kl]`` second derivatives, of the metric
    components ``comps`` at its nodes past ``halo`` rows at each end of
    axis 0, which the stencils read and which are then cropped."""
    n, npairs = len(spacings), comps.shape[-1]
    inner = slice(halo, len(comps) - halo)
    ginv = sym_inverse(comps[inner], n).reshape(-1, npairs)
    nodes = len(ginv)
    return (ginv, sym_derivatives(comps, 1, spacings)[inner].reshape(nodes, npairs, n),
            sym_derivatives(comps, 2, spacings)[inner].reshape(nodes, npairs, npairs))


def _q_survivors(g: MetricField) -> tuple[np.ndarray, ...]:
    """The operands of :func:`sup_q_gnorm` (n >= 2) at the nodes that
    ``_candidates(*_q_bounds(...), largest=True)`` keeps over the whole
    grid, in ascending order, without forming them on the whole grid.

    Slab by slab of about ``2 * _SCREEN_CHUNK`` nodes, a band of rows along
    axis 0 gathered with one periodic halo row at each end (the stencils of
    orders 1 and 2 reach one node along an axis), the operands and their
    bounds are formed, and only the nodes whose upper bound reaches the
    running best finite lower bound, or whose bounds are not finite, are
    kept.  The best only grows, so every node that the final best keeps
    was kept, and filtering with the final best leaves ``_candidates``'
    set (docs/conventions.md, "Screened extremes")."""
    comps, spacings, n = g.components, g.grid.spacings, g.grid.ndim
    rows, npairs = len(comps), comps.shape[-1]
    height = max(1, 2 * _SCREEN_CHUNK * rows // g.grid.num_nodes)
    best, uppers, finites = -np.inf, [], []
    kept = (np.empty((0, npairs)), np.empty((0, npairs, n)), np.empty((0, npairs, npairs)))
    for start in range(0, rows, height):
        slab = np.take(comps, range(start - 1, min(start + height, rows) + 1), axis=0, mode="wrap")
        operands = _q_operands(slab, spacings, halo=1)
        with np.errstate(over="ignore", invalid="ignore"):
            lower, upper, finite = _bound_ends(*_q_bounds(*operands))
            best = max(best, lower.max(where=finite, initial=-np.inf))
            keep = np.flatnonzero((upper >= best) | ~finite)
        uppers.append(upper[keep])
        finites.append(finite[keep])
        for whole, op in zip(kept, operands):
            # grown in place by realloc, so that no kept node is held twice;
            # no view of a buffer outlives its statement, so none sees it move
            count = len(whole)
            whole.resize((count + len(keep), *whole.shape[1:]), refcheck=False)
            whole[count:] = op[keep]
    with np.errstate(invalid="ignore"):
        keep = np.flatnonzero((np.concatenate(uppers) >= best) | ~np.concatenate(finites))
    if len(keep) < len(kept[0]):
        for whole in kept:
            # compacted in place: keep[i] >= i, so a chunk reads no row written before it
            for start in range(0, len(keep), _SCREEN_CHUNK):
                part = keep[start:start + _SCREEN_CHUNK]
                whole[start:start + len(part)] = whole[part]
            whole.resize((len(keep), *whole.shape[1:]), refcheck=False)
    return kept


def _q_bounds(ginv: np.ndarray, first: np.ndarray, d2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(mid, half_width)`` per flat node, n >= 2: ``mid -+ half_width``
    bound the kernel's :func:`_q_gnorm` there.  From the eigenvalue bounds
    ``m <= M`` of the kernel's ``g^-1`` (its closed-form screen), the
    Frobenius norm of the full ``d2`` and the squared one of the full ``d``,
    both read from the pair-stored derivatives with the pair weights,
    without forming Q: ``|Q|_g`` lies between ``m^2 |d2|_F / 2`` and
    ``M^2 |d2|_F / 2``, give or take ``M^3 |d|_F^2 / 2``, which bounds the
    quadratic term's.  NaN where ``m <= 0``, which makes the node a
    candidate of :func:`_candidates`."""
    nodes, n = first.shape[0], first.shape[-1]
    weights = sym_pair_weights(n)
    with np.errstate(over="ignore", invalid="ignore"):
        low, big, band = _sym_eigen_screen(ginv, n)
        low -= band
        big += band
        low[~(low > 0.0)] = np.nan
        flat = d2.reshape(nodes, -1)
        d2_norm = np.einsum("ni,ni,i->n", flat, flat, np.outer(weights, weights).ravel())
        np.sqrt(d2_norm, out=d2_norm)
        flat = first.reshape(nodes, -1)  # [ij, k]
        d_sq = np.einsum("ni,ni,i->n", flat, flat, np.repeat(weights, n))
        # in place below, each with the bits of its expression (a product or a
        # sum of two terms is the same in either order):
        # eps_q = WHITENING_BAND (M d_sq + d2_norm) + SCREEN_FLOOR (1 + M)
        # bounds the kernel's rounding of Q, |Q - (d2 - quad) / 2|_F (the floor,
        # times M^2, covers underflow in both norms); root =
        # sqrt(WHITENING_BAND (n M)^4 (d2_norm / 2 + M d_sq / 2 + eps_q)^2 + SCREEN_FLOOR)
        # carries the rounding of its squared g-norm, with tr(g^-1) <= n M
        eps_q = big * d_sq
        eps_q += d2_norm
        eps_q *= WHITENING_BAND
        band = np.add(1.0, big, out=band)
        band *= SCREEN_FLOOR
        eps_q += band
        root = np.multiply(0.5, big, out=band)
        root *= d_sq
        root += 0.5 * d2_norm
        root += eps_q
        np.square(root, out=root)
        scaled = n * big
        np.power(scaled, 4, out=scaled)
        scaled *= WHITENING_BAND
        root *= scaled
        root += SCREEN_FLOOR
        np.sqrt(root, out=root)
        # mid = (M^2 + m^2) d2_norm / 4 and half = (M^2 - m^2) d2_norm / 4 +
        # M^3 d_sq / 2 + M^2 eps_q + root
        big_sq = np.multiply(big, big, out=scaled)
        np.square(low, out=low)
        mid = big_sq + low
        mid *= 0.25
        mid *= d2_norm
        half = np.subtract(big_sq, low, out=low)
        half *= 0.25
        half *= d2_norm
        big *= 0.5 * big_sq
        big *= d_sq
        half += big
        eps_q *= big_sq
        half += eps_q
        half += root
        root = np.add(mid, half, out=root)  # every rounding above and in _candidates
        root *= WHITENING_BAND
        root += SCREEN_FLOOR
        half += root
    return mid, half


def _q_gnorm(ginv: np.ndarray, first: np.ndarray, d2: np.ndarray) -> np.ndarray:
    """The exact kernel of :func:`sup_q_gnorm`: :func:`curvature_gnorm` of
    :func:`_q_metric`, from the pair-stored ``g^-1``, the ``[ij, k]`` first
    and the ``[ij, kl]`` second derivatives."""
    n = first.shape[-1]
    ginv, d2 = sym_matrices(ginv, n), _full_partials(d2, _partials_table(n, 2))
    return curvature_gnorm(_q_metric(ginv, _gathered_partials(first), d2), ginv)


def _q_screen(ginv: np.ndarray, first: np.ndarray, d2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(|Q'|_g^2, band)`` on flat nodes, from :func:`_q_gnorm`'s operands:
    ``band`` bounds the distance to the squared norm of that kernel.  In
    the frame of the kernel's ``g^-1 = R R^T`` the quadratic term is
    ``E E^T`` for the whitened ``E = d R``, then every slot of Q' is
    whitened.  ``delta``
    bounds each side's rounding against the exact squared norm of its
    tensor, and ``shift`` the difference of the two tensors' exact norms."""
    n, d = first.shape[-1], _gathered_partials(first)
    r = _cholesky(ginv.T[sym_table(n, 2)])
    e = _whitened(d.T, (r,))  # e[a, i, k] = sum_p d[k, i, p] R[p, a]
    quad = sum(e[a][:, None, :, None] * e[a][None, :, None, :] for a in range(n))
    q = 0.5 * d2.reshape(len(d2), -1).T[_partials_table(n, 2)] - 0.5 * quad  # d2[i, j, k, l]
    tr_ginv, q_norm = _squares(r), np.sqrt(_squares(q))  # tr(g^-1) = |R|_F^2
    quad_error = WHITENING_BAND * (_squares(d.T) * tr_ginv + q_norm)  # >= |Q - Q'|_F
    delta = WHITENING_BAND * tr_ginv**4 * (q_norm + quad_error) ** 2 + SCREEN_FLOOR
    sq, shift = _squares(_whitened(q, (r,) * 4)), tr_ginv**2 * quad_error
    return sq, 2.0 * delta + shift * (2.0 * np.sqrt(sq + delta) + shift)


# --- Riemann tensor, two routes -----------------------------------------------

def riemann_from_gamma(g: MetricField) -> np.ndarray:
    """Lowered curvature tensor from quadratic products of the difference tensor."""
    gamma_mixed, _ = christoffel(g)
    r_up = np.einsum("...ilm,...mjk->...ijkl", gamma_mixed, gamma_mixed) - np.einsum(
        "...ikm,...mjl->...ijkl", gamma_mixed, gamma_mixed
    )
    return np.einsum("...ip,...pjkl->...ijkl", g.matrices(), r_up)


def _largest_riemann(gamma_mixed: np.ndarray, gmat: np.ndarray, mixed: np.ndarray) -> np.ndarray:
    """Per flat node the largest ``|R_ijkl|`` of :func:`riemann_from_gamma`,
    bit for bit, from its ``gamma_mixed`` and a finite ``g`` (a checked
    metric's), read with the node axis last (views of :func:`_christoffel`'s
    arrays), and ``mixed``, the largest ``|gamma_mixed|`` per node.  An entry
    with ``k < l`` is summed in the ``einsum``'s order, one with ``k > l`` is
    its exact negation, and one with ``k = l`` is ``x - x`` lowered, 0 unless
    an ``x`` is not finite, so it is formed only where ``2 n mixed^2`` is not
    (docs/conventions.md, "Node-local kernels")."""
    nodes, n = gamma_mixed.shape[:2]
    gamma, g = np.moveaxis(gamma_mixed, 0, -1), np.ascontiguousarray(np.moveaxis(gmat, 0, -1))
    values = np.zeros(nodes)
    with np.errstate(over="ignore", invalid="ignore"):
        open_sums = np.flatnonzero(~(2.0 * n * mixed * mixed < np.inf))
        for k, l in itertools.combinations_with_replacement(range(n), 2):
            at = slice(None) if k < l else open_sums
            if k == l and not open_sums.size:
                continue
            gam, low = gamma[..., at], g[..., at]
            # r[p, j] = sum_m gamma[p, l, m] gamma[m, j, k] less the same with k, l swapped,
            # then sum_p g[i, p] r[p, j]: each sum from 0 in the order of m or p, as the einsum's
            r = sum(gam[:, l, m, None] * gam[m, None, :, k] for m in range(n))
            r -= sum(gam[:, k, m, None] * gam[m, None, :, l] for m in range(n))
            lowered = sum(low[:, p, None] * r[p] for p in range(n))
            values[at] = np.maximum(values[at], np.abs(lowered).max(axis=(0, 1)))
    return values


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
    """Chern torsion of the pullback Hermitian metric, at base level:
    ``T^k_ij = g^kl (partial_i g_jl - partial_j g_il) / 2`` (the factor 1/2
    from holomorphic derivatives of base functions).  Returns the array
    ``T[..., k, i, j]`` and the sup over nodes of its fully g-contracted
    norm, which vanishes (to truncation) exactly when g is Hessian."""
    pairs, n = _pair_operands(g), g.grid.ndim
    torsion = _torsion(_gathered_partials(pairs[0]), sym_matrices(pairs[1], n))
    return torsion.reshape(*g.grid.shape, n, n, n), _sup_torsion_gnorm(pairs)


def _torsion(d: np.ndarray, ginv: np.ndarray) -> np.ndarray:
    """``T[..., k, i, j]`` from the metric derivatives ``d[..., k, i, j]`` and ``g^-1``."""
    # anti[..., i, j, l] = partial_i g_jl - partial_j g_il
    anti = d - np.swapaxes(d, -3, -2)
    return 0.5 * np.einsum("...kl,...ijl->...kij", ginv, anti)


def _sup_torsion_gnorm(pairs: tuple[np.ndarray, np.ndarray, np.ndarray]) -> float:
    """Sup over the nodes of the torsion's g-norm, with ``T`` formed at the
    candidates of the closed-form screen only, from the flat pair-stored
    operands ``pairs`` of :func:`_pair_operands`, which the screen and the
    kernel gather per chunk.  At n = 1, where ``T`` is zero, every node
    ties, so the kernel runs on every node (the fallback)."""
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        sq, band = _per_chunk(_gathering(_torsion_screen), pairs)
    return screened_extreme(sq, band, _gathering(_torsion_gnorm), pairs, largest=True)[0]


def _torsion_screen(d: np.ndarray, ginv: np.ndarray, gmat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(|T|_g^2, band)`` on flat nodes by the closed form ``sum_al (C B)_al
    (B G)_al / (2 det g)``, ``G`` the kernel's ``g^-1``, ``B`` the dual of
    ``A_ijl = d_i g_jl - d_j g_il`` over its antisymmetric pair and ``C = g``
    at n = 3, 1 at n = 2; ``band`` bounds the distance to the squared norm of
    :func:`_torsion_gnorm` (docs/conventions.md)."""
    nodes, n = ginv.shape[:2]
    d, big_g, g = (np.ascontiguousarray(np.moveaxis(x, 0, -1)) for x in (d, ginv, gmat))  # node axis last
    i, j = {1: ([], []), 2: ([0], [1]), 3: ([1, 2, 0], [2, 0, 1])}[n]
    b = d[i, j] - d[j, i]
    c = g if n == 3 else np.eye(len(i))[:, :, None]
    cb, bg, gg = ((x[:, :, None] * y[None]).sum(axis=1) for x, y in ((c, b), (b, big_g), (g, big_g)))
    det = sym_det(np.moveaxis(g[np.triu_indices(n)], 0, -1), n)
    sq = (cb * bg).reshape(-1, nodes).sum(axis=0) / (2.0 * det)
    g_f, inv_f, b_sq = np.sqrt(_squares(g)), np.sqrt(_squares(big_g)), _squares(b)  # Frobenius norms
    e = np.sqrt(_squares(gg - np.eye(n)[:, :, None])) + WHITENING_BAND * g_f * inv_f
    ratio = np.trace(g) ** n / det  # the determinant's relative rounding is a few u times this
    kernel = g_f * inv_f**4 * b_sq / 2.0  # bounds the sum of the kernel's absolute products
    closed, r = np.sqrt(_squares(c)) * inv_f * b_sq / (2.0 * det), 3.0 * e * (1.0 + e) ** 3 / (1.0 - e)
    band = WHITENING_BAND * (kernel + ratio * closed * (1.0 + r)) + r * sq + SCREEN_FLOOR
    # where no band of the closed form holds, 0 screens the kernel within its bound
    valid = (e < 1.0) & (det > 0.0) & (WHITENING_BAND * ratio < 1.0)
    return np.where(valid, sq, 0.0), np.where(valid, band, (1.0 + WHITENING_BAND) * kernel + SCREEN_FLOOR)


def _torsion_gnorm(d: np.ndarray, ginv: np.ndarray, gmat: np.ndarray) -> np.ndarray:
    """Nodewise g-norm of the torsion of the metric derivatives ``d`` (upper
    slot lowered by g, lower slots raised by g^-1), by one unoptimized
    contraction."""
    torsion = _torsion(d, ginv)
    sq = np.einsum("...kij,...pqr,...kp,...iq,...jr->...", torsion, torsion, gmat, ginv, ginv)
    return np.sqrt(np.maximum(sq, 0.0))


def kahler_curvature_pullback(pm: PotentialMetric) -> np.ndarray:
    """Curvature of the pullback Kaehler metric by the standard formula,
    ``R[..., i, j, k, l] = -partial_k partial_l g_ij / 4 + g^pq (partial_k g_ip)
    (partial_l g_jq) / 4``, from metric components only, independent of the
    potential route, so comparing it with ``-Q/2`` is a non-circular check."""
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
    derivatives and ``g^-1`` are computed once, pair-stored, and shared by
    every formula; past the stencils every formula is node-local and runs
    chunk by chunk on the full arrays gathered per chunk (:func:`_gathering`),
    so no array of the difference tensor, its Riemann tensor or the torsion
    is formed on the whole grid.  Q is formed before the Koszul forms, with
    only ``g^-1`` held: the order of the lower peak memory.  ValueError
    where a sup of the record or an entry of Q is not finite (the metric's
    derivatives or their products overflow)."""
    pairs = _pair_operands(g)
    defect, mixed, lower, gamma_000, riemann = _per_chunk(_gathering(_bundle_pass), pairs)
    sups = dict(hessian_defect=float(defect.max()), sup_gamma_mixed=float(mixed.max()),
                sup_gamma_lower=float(lower.max()), sup_riemann=float(riemann.max()),
                gamma_mixed_000=None if node is None else float(gamma_000[np.ravel_multi_index(node, g.grid.shape)]))
    del defect, mixed, lower, gamma_000, riemann
    sups["torsion_norm"] = _sup_torsion_gnorm(pairs)
    overflowed = [name for name, value in sups.items() if name != "gamma_mixed_000" and not np.isfinite(value)]
    if overflowed:
        raise ValueError(f"{', '.join(overflowed)} not finite (the metric's derivatives overflow)")
    ginv = pairs[1]
    del pairs  # the derivatives freed before Q
    q = None if pm is None else _hessian_curvature(pm, ginv)
    del ginv
    if q is not None:
        _check_finite(q.components, "Q is not finite (the potential's derivatives overflow)")
    alpha, kappa, beta = koszul(g)
    return CurvatureBundle(alpha=alpha, kappa=kappa, beta=beta, q=q, **sups)


def _pair_operands(g: MetricField) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The flat pair-stored operands of the node-local kernels of
    :func:`curvature_bundle` and :func:`pullback_chern_torsion`: per flat
    node the ``[ij, k]`` first derivatives, ``g^-1`` and ``g``'s components."""
    n, nodes = g.grid.ndim, g.grid.num_nodes
    return (sym_derivatives(g.components, 1, g.grid.spacings).reshape(nodes, -1, n),
            sym_inverse(g.components, n).reshape(nodes, -1), g.components.reshape(nodes, -1))


def _gathering(kernel: Callable) -> Callable:
    """``kernel(d, g^-1, g)``, a node-local kernel of full arrays, on the
    flat pair-stored operands of :func:`_pair_operands`, gathered on the
    nodes it runs on; ``__wrapped__`` is the kernel."""
    @functools.wraps(kernel)
    def gathered(first: np.ndarray, ginv: np.ndarray, g: np.ndarray):
        n = first.shape[-1]
        return kernel(_gathered_partials(first), sym_matrices(ginv, n), sym_matrices(g, n))
    return gathered


def _bundle_pass(d: np.ndarray, ginv: np.ndarray, gmat: np.ndarray) -> tuple[np.ndarray, ...]:
    """The first pass of :func:`curvature_bundle`, a node-local kernel: per flat
    node the Hessian defect, the largest ``|gamma_mixed|`` and ``|gamma_lower|``,
    ``gamma^0_00`` and the largest ``|R_ijkl|`` (:func:`_largest_riemann`).
    The Christoffel pair is read with the node axis last, as it is formed."""
    gamma_mixed, gamma_lower = _christoffel(d, ginv)
    mixed, lower = (np.abs(np.moveaxis(gamma, 0, -1)).reshape(-1, len(d)).max(axis=0)
                    for gamma in (gamma_mixed, gamma_lower))
    return (_hessian_defects(d), mixed, lower, gamma_mixed[:, 0, 0, 0], _largest_riemann(gamma_mixed, gmat, mixed))
