"""Periodic structured grids and centered finite-difference calculus.

A :class:`PeriodicGrid` is a uniform n-dimensional chart with period
``lengths[d]`` and ``sizes[d]`` nodes along axis ``d`` (node coordinates
``k * h_d`` with ``h_d = lengths[d] / sizes[d]``; indices wrap modulo
``sizes[d]``).  All derivative operators are second-order centered
stencils with periodic wraparound; mixed and higher derivatives are built
by composing stencils in a canonical (sorted-axis) order so that any
permutation of the axis arguments returns a bit-identical field.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property
from typing import Callable, Sequence

import numpy as np

MAX_DIM = 3
MIN_NODES = 8


def _check_finite(values: np.ndarray, message: str = "field contains non-finite values") -> np.ndarray:
    """``values``, or ValueError with ``message`` where an entry is not
    finite: the one finiteness check of the package.  It runs several times
    per flow step, so it counts the finite entries, which costs less than
    the ufunc reduction behind ``ndarray.all`` on small fields."""
    if np.count_nonzero(np.isfinite(values)) != values.size:
        raise ValueError(message)
    return values


@dataclass(frozen=True)
class PeriodicGrid:
    """Uniform periodic chart: ``sizes[d]`` nodes over period ``lengths[d]``."""

    sizes: tuple[int, ...]
    lengths: tuple[float, ...]

    def __post_init__(self):
        sizes = tuple(int(s) for s in self.sizes)
        lengths = tuple(float(length) for length in self.lengths)
        object.__setattr__(self, "sizes", sizes)
        object.__setattr__(self, "lengths", lengths)
        if not 1 <= len(sizes) <= MAX_DIM:
            raise ValueError(f"dimension must be in [1, {MAX_DIM}], got {len(sizes)}")
        if len(lengths) != len(sizes):
            raise ValueError("sizes and lengths must have equal length")
        if any(s < MIN_NODES for s in sizes):
            raise ValueError(f"need at least {MIN_NODES} nodes per axis, got {sizes}")
        if not all(0.0 < length < np.inf for length in lengths):  # NaN too
            raise ValueError(f"periods must be positive and finite, got lengths {lengths}")

    @cached_property
    def ndim(self) -> int:
        return len(self.sizes)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.sizes

    @cached_property
    def spacings(self) -> tuple[float, ...]:
        return tuple(length / n for length, n in zip(self.lengths, self.sizes))

    @property
    def num_nodes(self) -> int:
        return int(np.prod(self.sizes))

    def axis_coordinates(self, axis: int) -> np.ndarray:
        """1-D array of node coordinates along one axis."""
        self._check_axis(axis)
        return np.arange(self.sizes[axis]) * self.spacings[axis]

    def coordinate_arrays(self) -> tuple[np.ndarray, ...]:
        """Full node-coordinate arrays, one per axis, each of shape ``self.shape``."""
        axes = [self.axis_coordinates(d) for d in range(self.ndim)]
        return tuple(np.meshgrid(*axes, indexing="ij"))

    def nearest_node(self, coords: Sequence[float]) -> tuple[int, ...]:
        """Index of the node closest to the given coordinates (periodic)."""
        if len(coords) != self.ndim:
            raise ValueError(f"expected {self.ndim} coordinates, got {len(coords)}")
        return tuple(
            int(round(c / h)) % n
            for c, h, n in zip(coords, self.spacings, self.sizes)
        )

    def _check_axis(self, axis: int) -> None:
        if not 0 <= axis < self.ndim:
            raise ValueError(f"axis {axis} out of range for dimension {self.ndim}")


class ScalarField:
    """One float64 value per grid node.  Immutable after construction."""

    __slots__ = ("grid", "values")

    def __init__(self, grid: PeriodicGrid, values):
        arr = np.asarray(values, dtype=np.float64)
        if arr.shape != grid.shape:
            raise ValueError(f"field shape {arr.shape} does not match grid {grid.shape}")
        arr = np.array(_check_finite(arr))  # private copy
        arr.flags.writeable = False
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", arr)

    def __setattr__(self, name, value):
        raise AttributeError("ScalarField is immutable")

    @classmethod
    def zeros(cls, grid: PeriodicGrid) -> "ScalarField":
        return cls(grid, np.zeros(grid.shape))

    @classmethod
    def constant(cls, grid: PeriodicGrid, value: float) -> "ScalarField":
        return cls(grid, np.full(grid.shape, float(value)))

    @classmethod
    def from_function(cls, grid: PeriodicGrid, fn: Callable[..., np.ndarray]) -> "ScalarField":
        """Evaluate ``fn(x_1, ..., x_n)`` on the node coordinates."""
        return cls(grid, fn(*grid.coordinate_arrays()))

    def value_at(self, index: Sequence[int]) -> float:
        return float(self.values[tuple(index)])

    # Linear-space operations; scalars only on the multiplicative side.
    def __add__(self, other: "ScalarField") -> "ScalarField":
        if other.grid != self.grid:
            raise ValueError("fields live on different grids")
        return ScalarField(self.grid, self.values + other.values)

    def __mul__(self, scalar: float) -> "ScalarField":
        return ScalarField(self.grid, self.values * float(scalar))

    __rmul__ = __mul__


# --- stencil kernels (periodic, second order) -------------------------------

@cache
def _wrap_slices(axis: int) -> tuple[tuple[slice, ...], ...]:
    """Index tuples along ``axis``: the last and the first node of a field,
    then ``f(x+h)`` and ``f(x-h)`` in its copy wrapped by those two."""
    head = (slice(None),) * axis
    return tuple(head + (s,) for s in (slice(-1, None), slice(0, 1), slice(2, None), slice(0, -2)))


def _neighbours(values: np.ndarray, axis: int) -> tuple[np.ndarray, np.ndarray]:
    """``(f(x+h), f(x-h))`` along ``axis``: two slices of one copy of
    ``values`` wrapped periodically by one node at each end."""
    last, first, fwd, bwd = _wrap_slices(axis)
    wrapped = np.concatenate((values[last], values, values[first]), axis=axis)
    return wrapped[fwd], wrapped[bwd]


# Each pass makes one wrapped copy and does its arithmetic in place in one
# contiguous work buffer, in the operation order of the formula, so its bits
# are those of the formula; the last division goes to ``out`` (None: the
# work buffer).  When given, ``work`` is that buffer: :func:`stencil` passes
# ``values`` itself where a previous pass made it, as the wrapped copy has
# read it by then.

def _diff1(values: np.ndarray, axis: int, h: float, out: np.ndarray | None = None,
           work: np.ndarray | None = None) -> np.ndarray:
    """Centered first difference (f(x+h) - f(x-h)) / (2h)."""
    fwd, bwd = _neighbours(values, axis)
    work = np.subtract(fwd, bwd, out=work)
    return np.divide(work, 2.0 * h, out=work if out is None else out)


def _diff2(values: np.ndarray, axis: int, h: float, out: np.ndarray | None = None,
           work: np.ndarray | None = None) -> np.ndarray:
    """3-point second difference (f(x+h) - 2 f(x) + f(x-h)) / h^2."""
    fwd, bwd = _neighbours(values, axis)
    work = np.multiply(values, 2.0, out=work, order="C")
    np.subtract(fwd, work, out=work)
    work += bwd
    return np.divide(work, h * h, out=work if out is None else out)


@cache
def _stencil_plan(axes: tuple[int, ...]) -> tuple[tuple[Callable, int], ...]:
    """The 1-D passes of :func:`stencil` for the axis multiset ``axes``, in
    composition order, as ``(kernel, axis)``."""
    plan = []
    for axis in sorted(set(axes)):
        count = axes.count(axis)
        plan += [(_diff2, axis)] * (count // 2) + [(_diff1, axis)] * (count % 2)
    return tuple(plan)


def stencil(values: np.ndarray, axes: Sequence[int], spacings: Sequence[float],
            out: np.ndarray | None = None) -> np.ndarray:
    """The canonical stencil composition for the axis multiset ``axes`` (at
    least one axis) on a raw node array; the one derivative path of the
    package.

    Distinct axes are processed in increasing order; a repeated axis
    contributes 3-point second-difference blocks, with one centered first
    difference left over when its multiplicity is odd.  The fixed order
    makes the result bit-identical under any permutation of ``axes``.
    ``axes`` is read once, so any iterable of axes will do; the plan of
    passes is cached per axis tuple.  The last pass writes its division
    into ``out`` when given (any array of ``values``' shape, a strided
    slot of a larger one too), which it returns, with the same bits.
    """
    *passes, last = _stencil_plan(tuple(axes))
    work = None  # the caller's values are only read; a pass's own result is the next one's work
    for kernel, axis in passes:
        values = work = kernel(values, axis, spacings[axis], None, work)
    kernel, axis = last
    return kernel(values, axis, spacings[axis], out, work)


def _stencil_field(f: ScalarField, axes: Sequence[int]) -> ScalarField:
    for axis in axes:
        f.grid._check_axis(axis)
    return ScalarField(f.grid, stencil(f.values, axes, f.grid.spacings))


def partial(f: ScalarField, i: int) -> ScalarField:
    """Centered first derivative along axis ``i``."""
    return _stencil_field(f, (i,))


def partial2(f: ScalarField, i: int, j: int) -> ScalarField:
    """Second derivative: 3-point stencil for ``i == j``, composed centered
    first differences otherwise.  Symmetric in (i, j) bit-exactly."""
    return _stencil_field(f, (i, j))


def partial3(f: ScalarField, i: int, j: int, k: int) -> ScalarField:
    """Third derivative; invariant under permutation of the axis arguments."""
    return _stencil_field(f, (i, j, k))


def partial4(f: ScalarField, i: int, j: int, k: int, l: int) -> ScalarField:
    """Fourth derivative; invariant under permutation of the axis arguments."""
    return _stencil_field(f, (i, j, k, l))

