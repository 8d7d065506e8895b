"""Screened extremes: node-wise minima and maxima found through a cheap
closed-form screen equal, bit for bit and with the same node, those of the
exact kernels run over every node.

The exact kernels are ``sym_min_eigenvalues`` (LAPACK at n = 3), the
Cholesky/inverse/eigvalsh chain of the metric pencil and the four-step
``curvature_gnorm`` chain.  The design rests on each kernel giving the same
bits on any subset of nodes as on the full grid; the first class checks
that on the grid sizes of the benchmark.
"""

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from koszulflow import criteria as cr
from koszulflow import geometry as geo
from koszulflow.grid import PeriodicGrid, ScalarField

TWO_PI = 2.0 * np.pi
HYPOTHESIS = settings(max_examples=40, deadline=None, database=None)


@functools.cache
def smooth_pair(n):
    """Two different smooth potential metrics (g, g0) at 128^2 or 32^3."""
    grid = PeriodicGrid((128, 128) if n == 2 else (32, 32, 32), (TWO_PI,) * n)
    x = grid.coordinate_arrays()

    def metric(shift, amplitude):
        psi = amplitude * np.prod([np.cos(xi - shift * (i + 1)) for i, xi in enumerate(x)], axis=0)
        psi = psi + 0.02 * np.sin(sum(x) - shift)
        background = np.eye(n) + 0.1 * (np.ones((n, n)) - np.eye(n))
        return geo.metric_from_potential(geo.PotentialMetric(grid, background, ScalarField(grid, psi)))

    return metric(0.3, 0.1), metric(1.1, 0.05)


@functools.cache
def full_kernels(n):
    """Flat operands and the full-grid outputs of the three exact kernels,
    computed on the grid-shaped arrays as the unscreened code did."""
    g, g0 = smooth_pair(n)
    npairs = len(geo.sym_pairs(n))
    q_full = geo.hessian_curvature_from_metric(g)
    ginv = g.inverse_matrices()
    chol = np.linalg.cholesky(g0.matrices())
    linv = np.linalg.inv(chol)
    pencil = np.linalg.eigvalsh(linv @ g.matrices() @ np.swapaxes(linv, -1, -2))
    flat_g, flat_g0 = g.components.reshape(-1, npairs), g0.components.reshape(-1, npairs)
    return {
        "min_eig": (lambda c: geo.sym_min_eigenvalues(c, n), (flat_g,),
                    geo.sym_min_eigenvalues(g.components, n).ravel()),
        "pencil": (lambda a, b: geo._pencil_eigenvalues(a, b, n), (flat_g, flat_g0),
                   pencil.reshape(-1, n)),
        "gnorm": (geo.curvature_gnorm, (q_full.reshape(-1, *(n,) * 4), ginv.reshape(-1, n, n)),
                  geo.curvature_gnorm(q_full, ginv).ravel()),
    }


def pair_stored(mats):
    n = mats.shape[-1]
    return np.stack([mats[..., i, j] for i, j in geo.sym_pairs(n)], axis=-1)


def rotated(spectrum, rng, rotate=True):
    """Symmetric matrices ``R diag(spectrum) R^T`` with random rotations R."""
    if not rotate:
        return np.einsum("...j,jk->...jk", spectrum, np.eye(spectrum.shape[-1]))
    rot, _ = np.linalg.qr(rng.standard_normal((*spectrum.shape, spectrum.shape[-1])))
    return np.einsum("...ij,...j,...kj->...ik", rot, spectrum, rot)


def first_extreme(values, largest=False):
    values = values.ravel()
    k = int(np.argmax(values) if largest else np.argmin(values))
    return values[k], k


@st.composite
def tied_spectra(draw):
    """Pair-stored 3x3 fields on a small grid whose nodes carry rotated
    ``diag(lam, lam, mu)`` (the closed form's worst case) with lam and mu
    from a few shared levels, so that many nodes tie or differ by ulps."""
    shape = tuple(draw(st.lists(st.integers(2, 6), min_size=3, max_size=3)))
    levels = draw(st.lists(st.floats(-1e3, 1e3, allow_subnormal=False), min_size=1, max_size=4))
    shift = draw(st.sampled_from([0.0, 1e3, -1e6]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    lam, mu = (rng.choice(levels, shape) for _ in range(2))
    lam = lam + rng.integers(-3, 4, shape) * (rng.random(shape) < 0.3) * np.spacing(lam)
    spectrum = np.stack([lam, lam, mu], axis=-1) + shift
    return pair_stored(rotated(spectrum, rng, rotate=draw(st.booleans())))


class TestKernelsOnSubsets:
    @HYPOTHESIS
    @given(n=st.sampled_from((2, 3)), kernel=st.sampled_from(("min_eig", "pencil", "gnorm")),
           data=st.data())
    def test_subset_gives_the_full_grid_bits(self, n, kernel, data):
        compute, operands, full = full_kernels(n)[kernel]
        nodes = data.draw(st.lists(st.integers(0, len(full) - 1), min_size=1, max_size=17,
                                   unique=True))
        subset = compute(*(op[nodes] for op in operands))
        assert subset.tobytes() == full[nodes].tobytes()


class TestSymmetricScreen:
    @HYPOTHESIS
    @given(comps=tied_spectra())
    def test_band_bounds_the_closed_form(self, comps):
        flat = comps.reshape(-1, 6)
        smallest, largest, band = geo._sym_eigen_screen(flat, 3)
        eigs = np.linalg.eigvalsh(geo.sym_matrices(flat, 3))
        assert np.all(np.abs(smallest - eigs[:, 0]) <= band)
        assert np.all(np.abs(largest - eigs[:, -1]) <= band)

    @HYPOTHESIS
    @given(comps=tied_spectra())
    def test_smallest_eigenvalue_equals_the_full_argmin(self, comps):
        value, node = geo.smallest_eigenvalue(comps, 3)
        want, want_node = first_extreme(geo.sym_min_eigenvalues(comps, 3))
        assert np.array_equal(value, want) and node == want_node

    @HYPOTHESIS
    @given(comps=tied_spectra())
    def test_check_metric_names_the_first_worst_node(self, comps):
        want, want_node = first_extreme(geo.sym_min_eigenvalues(comps, 3))
        if want >= geo.MIN_EIGENVALUE:
            assert geo.check_metric(comps, 3) == want
            return
        with pytest.raises(geo.NotPositiveDefinite) as info:
            geo.check_metric(comps, 3)
        assert info.value.node == np.unravel_index(want_node, comps.shape[:-1])
        assert info.value.min_eigenvalue == want

    @HYPOTHESIS
    @given(s=st.floats(0.0, 50.0), theta=st.floats(0.0, 2.0), zero_gauge=st.booleans())
    def test_a2_margin_of_indefinite_pencils(self, s, theta, zero_gauge):
        g0, g = smooth_pair(3)
        u = ScalarField(g0.grid, np.zeros(g0.grid.shape) if zero_gauge else g.log_det())
        m0, m1 = cr._pencil_parts(g0, u, theta, scale_gauge_with_s=False)
        pencil = m0 + s * m1
        assert cr._margin(pencil, 3) == first_extreme(geo.sym_min_eigenvalues(pencil, 3))

    def test_max_s_witness_is_the_first_worst_node(self):
        g0, _ = smooth_pair(3)
        u = ScalarField.zeros(g0.grid)
        result = cr.max_s(g0, u, 0.5)
        m0, m1 = cr._pencil_parts(g0, u, 0.5, scale_gauge_with_s=False)
        _, want_node = first_extreme(geo.sym_min_eigenvalues(m0 + result.s_max * m1, 3))
        assert result.witness_node == np.unravel_index(want_node, g0.grid.shape)


class TestPencilScreen:
    @HYPOTHESIS
    @given(n=st.sampled_from((2, 3)), seed=st.integers(0, 2**32 - 1),
           levels=st.lists(st.floats(0.5, 2.0), min_size=1, max_size=3),
           log_cond=st.floats(0.0, 12.0))
    def test_range_equals_the_full_chain(self, n, seed, levels, log_cond):
        # W = L^-1 G L^-T has repeated and shared eigenvalues; H = L L^T is
        # conditioned up to 1e12
        rng = np.random.default_rng(seed)
        grid = PeriodicGrid((8,) * n, (TWO_PI,) * n)
        spectrum = rng.choice(levels, (*grid.shape, n))
        spectrum[..., 1] = spectrum[..., 0]
        h = rotated(10.0 ** rng.uniform(0.0, log_cond, (*grid.shape, n)), rng)
        low = np.linalg.cholesky(h)
        g = low @ rotated(spectrum, rng) @ np.swapaxes(low, -1, -2)
        g, h = (geo.MetricField(grid, pair_stored(0.5 * (a + np.swapaxes(a, -1, -2)))) for a in (g, h))
        npairs = g.components.shape[-1]
        smallest, largest, band = geo._pencil_screen(g.components.reshape(-1, npairs),
                                                     h.components.reshape(-1, npairs), n)
        linv = np.linalg.inv(np.linalg.cholesky(h.matrices()))
        eigs = np.linalg.eigvalsh(linv @ g.matrices() @ np.swapaxes(linv, -1, -2))
        assert np.all(np.abs(smallest - eigs[..., 0].ravel()) <= band)
        assert np.all(np.abs(largest - eigs[..., -1].ravel()) <= band)
        lam, big_lam = geo.pencil_eigenvalue_range(g, h)
        assert np.array_equal(lam, eigs[..., 0].min()) and np.array_equal(big_lam, eigs[..., -1].max())

    @pytest.mark.parametrize("n", [2, 3])
    def test_smooth_range_equals_the_full_chain(self, n):
        g, g0 = smooth_pair(n)
        pencil = full_kernels(n)["pencil"][2]
        assert geo.pencil_eigenvalue_range(g, g0) == (pencil[:, 0].min(), pencil[:, -1].max())


class TestGnormScreen:
    @HYPOTHESIS
    @given(n=st.sampled_from((2, 3)), seed=st.integers(0, 2**32 - 1), copies=st.integers(1, 5),
           log_cond=st.floats(0.0, 4.0))
    def test_sup_equals_the_full_chain(self, n, seed, copies, log_cond):
        # the node with the largest |Q|_g is repeated at `copies` random nodes
        rng = np.random.default_rng(seed)
        nodes = 64
        q = rng.standard_normal((nodes, *(n,) * 4)) * 10.0 ** rng.uniform(-3, 3, (nodes, 1, 1, 1, 1))
        ginv = rotated(10.0 ** rng.uniform(0.0, log_cond, (nodes, n)), rng)
        top = int(np.argmax(geo.curvature_gnorm(q, ginv)))
        for k in rng.choice(nodes, copies, replace=False):
            q[k], ginv[k] = q[top], ginv[top]
        assert np.array_equal(geo.sup_curvature_gnorm(q, ginv), geo.curvature_gnorm(q, ginv).max())

    @pytest.mark.parametrize("n", [2, 3])
    def test_smooth_sup_equals_the_full_chain(self, n):
        g, _ = smooth_pair(n)
        full = full_kernels(n)["gnorm"][2]
        q_full = geo.hessian_curvature_from_metric(g)
        assert geo.sup_curvature_gnorm(q_full, g.inverse_matrices()) == full.max()


class TestCandidates:
    """The exact kernel runs on under 2% of the nodes of a smooth field (1 or 2
    on the benchmark's inputs) and on every node of a field where every node
    ties, the fallback."""

    def kernel_sizes(self, monkeypatch, call):
        sizes = []
        original = geo.screened_extreme

        def recorded(values, band, kernel, operands, largest=False):
            def counted(*ops):
                sizes.append(len(ops[0]))
                return kernel(*ops)
            return original(values, band, counted, operands, largest)

        monkeypatch.setattr(geo, "screened_extreme", recorded)
        call()
        return sizes

    @pytest.mark.parametrize("flat", [False, True], ids=["smooth", "flat"])
    def test_min_eigenvalue(self, monkeypatch, flat):
        g, _ = smooth_pair(3)
        comps = np.broadcast_to(g.components[0, 0, 0], g.components.shape) if flat else g.components
        sizes = self.kernel_sizes(monkeypatch, lambda: geo.check_metric(comps, 3))
        assert sizes == [g.grid.num_nodes] if flat else sizes[0] < 0.02 * g.grid.num_nodes

    @pytest.mark.parametrize("flat", [False, True], ids=["smooth", "flat"])
    def test_pencil_and_gnorm(self, monkeypatch, flat):
        g, g0 = smooth_pair(2)
        if flat:
            g = g0 = geo.MetricField(g.grid, np.broadcast_to([1.5, 0.1, 1.0], g.components.shape))
        q_full, ginv = geo.hessian_curvature_from_metric(g), g.inverse_matrices()
        sizes = self.kernel_sizes(monkeypatch, lambda: (geo.pencil_eigenvalue_range(g, g0),
                                                        geo.sup_curvature_gnorm(q_full, ginv)))
        assert sizes == [g.grid.num_nodes] * 3 if flat else max(sizes) < 0.02 * g.grid.num_nodes
