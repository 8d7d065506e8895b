"""Stencil calculus on periodic grids: closed-form values, exact identities."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from koszulflow import flow as fl
from koszulflow import geometry as geo
from koszulflow.grid import (
    PeriodicGrid,
    ScalarField,
    _diff1,
    _diff2,
    _stencil_plan,
    partial,
    partial2,
    partial3,
    partial4,
    stencil,
)

TWO_PI = 2.0 * np.pi


def line_grid(n_nodes=64):
    return PeriodicGrid((n_nodes,), (TWO_PI,))


def square_grid(n_nodes=64):
    return PeriodicGrid((n_nodes, n_nodes), (TWO_PI, TWO_PI))


def sin_field(grid):
    return ScalarField.from_function(grid, np.sin)


def random_field(grid, seed=0):
    rng = np.random.default_rng(seed)
    return ScalarField(grid, rng.standard_normal(grid.shape))


def stencil_weights(axes, h):
    """Offset -> weight table for the canonical composition, built by direct
    convolution of the one-axis tables (independent of the roll implementation)."""
    tables = {
        1: {-1: -1.0 / (2 * h), 1: 1.0 / (2 * h)},
        2: {-1: 1.0 / h**2, 0: -2.0 / h**2, 1: 1.0 / h**2},
    }
    weights = {0: 1.0}
    for axis in sorted(set(axes)):
        count = list(axes).count(axis)
        blocks = [tables[2]] * (count // 2) + [tables[1]] * (count % 2)
        for block in blocks:
            new = {}
            for off1, w1 in weights.items():
                for off2, w2 in block.items():
                    new[off1 + off2] = new.get(off1 + off2, 0.0) + w1 * w2
            weights = new
    return weights


class TestPeriodicGrid:
    def test_basic_properties(self):
        grid = PeriodicGrid((64, 128), (TWO_PI, 4.0))
        assert grid.ndim == 2
        assert grid.num_nodes == 64 * 128
        assert grid.spacings == (TWO_PI / 64, 4.0 / 128)
        assert grid.axis_coordinates(1)[1] == pytest.approx(4.0 / 128)

    def test_validation(self):
        with pytest.raises(ValueError):
            PeriodicGrid((64, 64, 64, 64), (1.0, 1.0, 1.0, 1.0))
        with pytest.raises(ValueError):
            PeriodicGrid((4,), (1.0,))
        with pytest.raises(ValueError):
            PeriodicGrid((64,), (-1.0,))
        with pytest.raises(ValueError):
            PeriodicGrid((64,), (1.0, 2.0))

    @pytest.mark.parametrize("length", [0.0, -1.0, math.inf, -math.inf, math.nan])
    def test_periods_must_be_positive_and_finite(self, length):
        # an infinite period gave spacing inf and a curvature report of zeros
        message = f"periods must be positive and finite, got lengths (6.0, {length})"
        with pytest.raises(ValueError, match=re.escape(message)):
            PeriodicGrid((8, 8), (6.0, length))

    def test_nearest_node_wraps(self):
        grid = line_grid(64)
        h = grid.spacings[0]
        assert grid.nearest_node((0.0,)) == (0,)
        assert grid.nearest_node((TWO_PI,)) == (0,)
        assert grid.nearest_node((3 * h + 0.4 * h,)) == (3,)

    def test_field_shape_and_finiteness(self):
        grid = line_grid()
        with pytest.raises(ValueError):
            ScalarField(grid, np.zeros(63))
        # every field and the flow's next state share one finiteness check
        state = fl.FlowState.initial(geo.MetricField(grid, np.ones((64, 1))))
        makers = (
            lambda v: ScalarField(grid, v),
            lambda v: geo.Sym2Field(grid, v[:, None]),
            lambda v: geo.MetricField(grid, 1.0 + v[:, None]),
            lambda v: fl._next_state(state, 0.1, np.ones((64, 1)), v, 1.0, state.log_det, state.ratio),
        )
        for bad in (np.nan, np.inf, -np.inf):
            values = np.zeros(64)
            values[5] = bad
            for make in makers:
                with pytest.raises(ValueError, match="non-finite"):
                    make(values)

    # case -> (a call the library rejects, the ValueError message it names)
    REJECTED = {
        "sum-across-grids": (lambda: ScalarField.zeros(line_grid(64)) + ScalarField.zeros(line_grid(32)),
                             "fields live on different grids"),
    }

    @pytest.mark.parametrize("case", sorted(REJECTED))
    def test_rejected_call_names_its_message(self, case):
        call, message = self.REJECTED[case]
        with pytest.raises(ValueError, match=re.escape(message)):
            call()

    def test_fields_are_immutable(self):
        source = np.zeros(64)
        f = ScalarField(line_grid(), source)
        with pytest.raises(ValueError):
            f.values[0] = 1.0
        with pytest.raises(AttributeError):
            f.values = source
        source[0] = 7.0  # private copy: the field must not see this
        assert f.values[0] == 0.0


class TestFirstDerivative:
    def test_constant_gives_exact_zero(self):
        f = ScalarField.constant(line_grid(), 3.7)
        assert np.all(partial(f, 0).values == 0.0)

    def test_sin_at_origin_matches_closed_form(self):
        # centered difference of sin at 0 is exactly sin(h)/h
        grid = line_grid(64)
        h = grid.spacings[0]
        d = partial(sin_field(grid), 0)
        assert d.value_at((0,)) == pytest.approx(np.sin(h) / h, abs=1e-14)
        assert np.sin(h) / h == pytest.approx(0.998394, abs=1e-6)

    def test_sup_error_bound_and_refinement(self):
        errors = {}
        for n_nodes in (64, 128):
            grid = line_grid(n_nodes)
            h = grid.spacings[0]
            d = partial(sin_field(grid), 0)
            exact = np.cos(grid.axis_coordinates(0))
            errors[n_nodes] = np.max(np.abs(d.values - exact))
            assert errors[n_nodes] <= h**2 / 6
        assert 3.5 <= errors[64] / errors[128] <= 4.5

    def test_axis_out_of_range(self):
        f = sin_field(line_grid())
        with pytest.raises(ValueError):
            partial(f, 1)


class TestSecondDerivative:
    def test_constant_gives_exact_zero(self):
        grid = square_grid(16)
        f = ScalarField.constant(grid, -2.0)
        for i in range(2):
            for j in range(2):
                assert np.all(partial2(f, i, j).values == 0.0)

    def test_diagonal_three_point_closed_form(self):
        # 3-point stencil on sin at pi/2: -(2/h^2)(1 - cos h)
        grid = line_grid(64)
        h = grid.spacings[0]
        d = partial2(sin_field(grid), 0, 0)
        node = grid.nearest_node((np.pi / 2,))
        expected = -(2.0 / h**2) * (1.0 - np.cos(h))
        assert d.value_at(node) == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(-0.999197, abs=1e-6)

    def test_mixed_product_closed_form(self):
        # composed stencil on sin(x)sin(y) gives (sin h / h)^2 cos(x) cos(y),
        # so the quoted peak value lives at the origin
        grid = square_grid(64)
        h = grid.spacings[0]
        f = ScalarField.from_function(grid, lambda x, y: np.sin(x) * np.sin(y))
        d = partial2(f, 0, 1)
        assert d.value_at((0, 0)) == pytest.approx((np.sin(h) / h) ** 2, abs=1e-12)
        assert (np.sin(h) / h) ** 2 == pytest.approx(0.996791, abs=1e-6)

    def test_argument_order_is_bit_exact(self):
        f = random_field(square_grid(16))
        assert np.array_equal(partial2(f, 0, 1).values, partial2(f, 1, 0).values)


class TestHigherDerivatives:
    def test_constant_gives_exact_zero(self):
        f = ScalarField.constant(line_grid(16), 1.0)
        assert np.all(partial3(f, 0, 0, 0).values == 0.0)
        assert np.all(partial4(f, 0, 0, 0, 0).values == 0.0)

    def test_third_derivative_matches_direct_summation(self):
        # independent oracle: explicit offset/weight summation on sin
        grid = line_grid(64)
        h = grid.spacings[0]
        d = partial3(sin_field(grid), 0, 0, 0)
        oracle = sum(w * np.sin(off * h) for off, w in stencil_weights((0, 0, 0), h).items())
        assert d.value_at((0,)) == pytest.approx(oracle, abs=1e-12)
        # the composition is one 3-point block and one centered difference
        assert oracle == pytest.approx(-(2 * (1 - np.cos(h)) / h**2) * np.sin(h) / h, abs=1e-12)

    @pytest.mark.parametrize("axes", [(0, 1, 0), (1, 0, 0), (0, 0, 1)])
    def test_third_permutations_bit_exact(self, axes):
        f = random_field(square_grid(16), seed=3)
        reference = partial3(f, 0, 0, 1).values
        assert np.array_equal(partial3(f, *axes).values, reference)

    @pytest.mark.parametrize("axes", [(1, 0, 1, 0), (0, 1, 1, 0), (1, 1, 0, 0)])
    def test_fourth_permutations_bit_exact(self, axes):
        f = random_field(square_grid(16), seed=4)
        reference = partial4(f, 0, 0, 1, 1).values
        assert np.array_equal(partial4(f, *axes).values, reference)

    def test_fourth_against_direct_summation_random(self):
        grid = line_grid(32)
        h = grid.spacings[0]
        f = random_field(grid, seed=5)
        d = partial4(f, 0, 0, 0, 0)
        weights = stencil_weights((0, 0, 0, 0), h)
        oracle = sum(w * np.roll(f.values, -off) for off, w in weights.items())
        assert np.max(np.abs(d.values - oracle)) <= 1e-9 * np.max(np.abs(oracle))


class TestStencilProperties:
    def test_axes_may_be_any_iterable(self):
        # the axes are read once, so an iterator gives the derivative and
        # not the field itself
        v = random_field(square_grid(16), 3).values
        want = stencil(v, (1, 0, 0), (0.4, 0.3))
        assert not np.array_equal(want, v)
        for axes in (iter((1, 0, 0)), [0, 1, 0], (a for a in (0, 0, 1))):
            assert stencil(v, axes, (0.4, 0.3)).tobytes() == want.tobytes()

    def test_linearity(self):
        grid = square_grid(16)
        f, g = random_field(grid, 6), random_field(grid, 7)
        combo = 2.5 * f + (-1.25) * g
        for op in (
            lambda u: partial(u, 0),
            lambda u: partial2(u, 0, 1),
            lambda u: partial3(u, 0, 1, 1),
            lambda u: partial4(u, 0, 0, 1, 1),
        ):
            lhs = op(combo).values
            rhs = 2.5 * op(f).values - 1.25 * op(g).values
            assert np.max(np.abs(lhs - rhs)) <= 1e-12 * max(1.0, np.max(np.abs(rhs)))

    def test_exact_discrete_conservation(self):
        grid = square_grid(32)
        f = random_field(grid, 8)
        for i in range(2):
            for j in range(2):
                total = np.sum(partial2(f, i, j).values)
                assert abs(total) <= 1e-12 * np.max(np.abs(f.values)) * grid.num_nodes

    def test_order_of_accuracy_mixed(self):
        errors = {}
        for n_nodes in (32, 64):
            grid = square_grid(n_nodes)
            f = ScalarField.from_function(grid, lambda x, y: np.sin(x) * np.cos(y))
            d = partial2(f, 0, 1)
            x, y = grid.coordinate_arrays()
            exact = -np.cos(x) * np.sin(y)
            errors[n_nodes] = np.max(np.abs(d.values - exact))
        assert 3.5 <= errors[32] / errors[64] <= 4.5


@st.composite
def grid_fields(draw):
    """A random field on a 1-3-D grid of 8-20 nodes per axis with random spacings."""
    sizes = draw(st.lists(st.integers(8, 20), min_size=1, max_size=3))
    spacings = draw(st.lists(st.floats(1e-3, 10.0), min_size=len(sizes), max_size=len(sizes)))
    grid = PeriodicGrid(tuple(sizes), tuple(h * n for h, n in zip(spacings, sizes)))
    seed = draw(st.integers(0, 2**32 - 1))
    return random_field(grid, seed)


@st.composite
def stencil_cases(draw):
    """``(values, axes, spacings)``: a field on a 1-3-D grid of 8-12 nodes
    per axis with up to two trailing component axes, a fifth or nine tenths
    of its entries ``+0.0`` or ``-0.0``, and an axis multiset of order 1-4."""
    n = draw(st.integers(1, 3))
    shape = (*draw(st.lists(st.integers(8, 12), min_size=n, max_size=n)),
             *draw(st.lists(st.integers(1, 3), max_size=2)))
    spacings = draw(st.lists(st.floats(1e-3, 10.0), min_size=n, max_size=n))
    axes = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = rng.standard_normal(shape)
    zeros = rng.random(shape) < draw(st.sampled_from((0.2, 0.9)))
    values[zeros] = np.where(rng.random(zeros.sum()) < 0.5, 0.0, -0.0)
    return values, axes, spacings


def roll_stencil(values, axes, spacings):
    """:func:`stencil` as each pass's one-line formula, by ``np.roll``: the
    operation order, so the bits, that its in-place passes keep."""
    for kernel, axis in _stencil_plan(tuple(axes)):
        h, fwd, bwd = spacings[axis], np.roll(values, -1, axis), np.roll(values, 1, axis)
        values = (fwd - bwd) / (2.0 * h) if kernel is _diff1 else (fwd - 2.0 * values + bwd) / (h * h)
    return values


HYPOTHESIS = settings(max_examples=60)


class TestStencilHypothesis:
    @HYPOTHESIS
    @given(f=grid_fields(), data=st.data())
    def test_kernels_equal_the_roll_formulas(self, f, data):
        axis = data.draw(st.integers(0, f.grid.ndim - 1))
        v, h = f.values, f.grid.spacings[axis]
        fwd, bwd = np.roll(v, -1, axis), np.roll(v, 1, axis)
        assert _diff1(v, axis, h).tobytes() == ((fwd - bwd) / (2.0 * h)).tobytes()
        assert _diff2(v, axis, h).tobytes() == ((fwd - 2.0 * v + bwd) / (h * h)).tobytes()

    @HYPOTHESIS
    @given(case=stencil_cases(), data=st.data())
    def test_slot_output_keeps_the_bits(self, case, data):
        # a slot of a stack, as sym_derivatives hands it: strided whenever the
        # stack has more than one slot; the other slots and the input stay
        values, axes, spacings = case
        before = values.tobytes()
        want = stencil(values, axes, spacings)
        assert want.tobytes() == roll_stencil(values, axes, spacings).tobytes()
        slots = data.draw(st.integers(1, 4))
        slot = data.draw(st.integers(0, slots - 1))
        stack = np.full((*values.shape, slots), np.nan)
        got = stencil(values, axes, spacings, out=stack[..., slot])
        assert np.shares_memory(got, stack) and got.shape == want.shape
        assert got.tobytes() == want.tobytes() and values.tobytes() == before
        assert np.isnan(np.delete(stack, slot, axis=-1)).all()

    @HYPOTHESIS
    @given(f=grid_fields(), data=st.data())
    def test_argument_order_is_bit_exact(self, f, data):
        axis = st.integers(0, f.grid.ndim - 1)
        for op, order in ((partial2, 2), (partial3, 3), (partial4, 4)):
            axes = data.draw(st.lists(axis, min_size=order, max_size=order))
            permuted = data.draw(st.permutations(axes))
            assert op(f, *axes).values.tobytes() == op(f, *permuted).values.tobytes()


class TestReductions:
    def test_constant_field(self):
        f = ScalarField.constant(line_grid(), 3.0)
        assert np.mean(f.values) == 3.0
        assert np.max(np.abs(f.values)) == 3.0
        assert np.var(f.values) == 0.0

    def test_second_difference_has_zero_mean(self):
        f = random_field(square_grid(16), 9)
        assert abs(np.mean(partial2(f, 0, 0).values)) <= 1e-12 * np.max(np.abs(f.values))

    def test_sin_statistics(self):
        f = sin_field(line_grid(64))
        assert abs(np.mean(f.values)) <= 1e-15
        assert np.var(f.values) == pytest.approx(0.5, abs=1e-3)
