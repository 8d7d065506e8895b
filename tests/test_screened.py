"""Screened extremes: node-wise minima and maxima found through a cheap
closed-form screen equal, bit for bit and with the same node, those of the
exact kernels run over every node.

The exact kernels are ``sym_min_eigenvalues`` (LAPACK at n = 3), the
Cholesky/inverse/eigvalsh chain of the metric pencil, the metric route to
Q followed by the four-step ``curvature_gnorm`` chain, and the five-operand
contraction of the torsion norm.  The design rests on each kernel giving the same
bits on any subset of nodes as on the full grid; the first class checks
that on the grid sizes of the benchmark, for these kernels and for the
node-local kernels that the curvature report runs chunk by chunk (the
Christoffel pair, its Riemann tensor, the torsion and Q from the potential).
"""

import functools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from koszulflow import criteria as cr
from koszulflow import flow as fl
from koszulflow import geometry as geo
from koszulflow import registry as reg
from koszulflow.grid import PeriodicGrid, ScalarField

TWO_PI = 2.0 * np.pi
HYPOTHESIS = settings(max_examples=40)


@functools.cache
def smooth_potentials(n):
    """Two different smooth potential metrics at 128^2 or 32^3."""
    grid = PeriodicGrid((128, 128) if n == 2 else (32, 32, 32), (TWO_PI,) * n)
    x = grid.coordinate_arrays()

    def potential(shift, amplitude):
        psi = amplitude * np.prod([np.cos(xi - shift * (i + 1)) for i, xi in enumerate(x)], axis=0)
        psi = psi + 0.02 * np.sin(sum(x) - shift)
        background = np.eye(n) + 0.1 * (np.ones((n, n)) - np.eye(n))
        return geo.PotentialMetric(grid, background, ScalarField(grid, psi))

    return potential(0.3, 0.1), potential(1.1, 0.05)


@functools.cache
def smooth_pair(n):
    """The metrics (g, g0) of :func:`smooth_potentials`."""
    return tuple(geo.metric_from_potential(pm) for pm in smooth_potentials(n))


def unscreened_torsion_gnorm(torsion, gmat, ginv):
    """The torsion norm at every node, as the unscreened code computed it."""
    sq = np.einsum("...kij,...pqr,...kp,...iq,...jr->...", torsion, torsion, gmat, ginv, ginv)
    return np.sqrt(np.maximum(sq, 0.0))


@functools.cache
def full_kernels(n):
    """Flat operands and the full-grid outputs of the exact kernels,
    computed on the grid-shaped arrays as the unscreened code did (Q from
    the potential: by one call on every node)."""
    g, g0 = smooth_pair(n)
    npairs = len(geo.sym_pairs(n))
    q_full = geo.hessian_curvature_from_metric(g)
    ginv, gmat = g.inverse_matrices(), g.matrices()
    flat_ginv, flat_gmat = ginv.reshape(-1, n, n), gmat.reshape(-1, n, n)
    flat_d = geo.metric_partials(g).reshape(-1, n, n, n)
    second = geo.sym_derivatives(g.components, 2, g.grid.spacings)
    q_operands = (flat_ginv, flat_d, second.reshape(-1, npairs, npairs))
    torsion = geo._torsion(geo.metric_partials(g), ginv)
    chol = np.linalg.cholesky(g0.matrices())
    linv = np.linalg.inv(chol)
    pencil = np.linalg.eigvalsh(linv @ g.matrices() @ np.swapaxes(linv, -1, -2))
    flat_g, flat_g0 = g.components.reshape(-1, npairs), g0.components.reshape(-1, npairs)
    gamma_pair = geo.christoffel(g)
    pm = smooth_potentials(n)[0]
    psi, spacings = pm.psi.values, pm.grid.spacings
    potential_operands = (flat_ginv, *(geo.sym_derivatives(psi, order, spacings).reshape(len(flat_d), -1)
                                       for order in (3, 4)))
    return {
        "min_eig": (lambda c: geo.sym_min_eigenvalues(c, n), (flat_g,),
                    geo.sym_min_eigenvalues(g.components, n).ravel()),
        "pencil": (lambda a, b: geo._pencil_eigenvalues(a, b, n), (flat_g, flat_g0),
                   pencil.reshape(-1, n)),
        "gnorm": (geo.curvature_gnorm, (q_full.reshape(-1, *(n,) * 4), flat_ginv),
                  geo.curvature_gnorm(q_full, ginv).ravel()),
        "q_gnorm": (geo._q_gnorm, q_operands, geo.curvature_gnorm(q_full, ginv).ravel()),
        "torsion": (geo._torsion_gnorm, (flat_d, flat_ginv, flat_gmat),
                    unscreened_torsion_gnorm(torsion, gmat, ginv).ravel()),
        "christoffel": (lambda d, gi: flat_pair(geo._christoffel(d, gi)), (flat_d, flat_ginv),
                        flat_pair(gamma_pair)),
        "riemann": (geo._riemann_from_gamma, (gamma_pair[0].reshape(-1, n, n, n), flat_gmat),
                    geo.riemann_from_gamma(g).reshape(-1, *(n,) * 4)),
        "torsion_tensor": (geo._torsion, (flat_d, flat_ginv), torsion.reshape(-1, n, n, n)),
        "q_potential": (geo._q_potential, potential_operands, geo._q_potential(*potential_operands)),
    }


def flat_pair(gammas):
    """The Christoffel pair ``(gamma_mixed, gamma_lower)`` as one ``(nodes, 2 n^3)`` array."""
    return np.concatenate([gamma.reshape(-1, gamma.shape[-1] ** 3) for gamma in gammas], axis=1)


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


KERNELS = ("min_eig", "pencil", "gnorm", "q_gnorm", "torsion",
           "christoffel", "riemann", "torsion_tensor", "q_potential")


class TestKernelsOnSubsets:
    @settings(max_examples=20 * len(KERNELS))
    @given(n=st.sampled_from((2, 3)), kernel=st.sampled_from(KERNELS), data=st.data())
    def test_subset_gives_the_full_grid_bits(self, n, kernel, data):
        compute, operands, full = full_kernels(n)[kernel]
        nodes = data.draw(st.lists(st.integers(0, len(full) - 1), min_size=1, max_size=17,
                                   unique=True))
        subset = compute(*(op[nodes] for op in operands))
        assert subset.tobytes() == full[nodes].tobytes()

    @pytest.mark.parametrize("n", [2, 3])
    def test_q_potential_on_single_nodes(self, n):
        # a full einsum reduction summed the quadratic term in another order
        # on one node than on many: at n = 2 first at nodes 21, 29, 32 and 101
        compute, operands, full = full_kernels(n)["q_potential"]
        for node in range(128):
            assert compute(*(op[[node]] for op in operands)).tobytes() == full[node].tobytes(), node


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
        value, node = geo.smallest_eigenvalue(comps, 3)[:2]
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
        assert cr._margin(pencil, 3)[:2] == first_extreme(geo.sym_min_eigenvalues(pencil, 3))

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


def screen_records(monkeypatch, call):
    """``(values, band, kernel, operands)`` of every ``screened_extreme`` call
    made by ``call()``."""
    records = []
    original = geo.screened_extreme

    def recorded(values, band, kernel, operands, largest=False):
        records.append((values, band, kernel, operands))
        return original(values, band, kernel, operands, largest)

    monkeypatch.setattr(geo, "screened_extreme", recorded)
    call()
    return records


class TestGnormScreen:
    """``sup_q_gnorm``: the sup of |Q|_g with Q from the metric, screened in
    a whitened frame, equals the full chain's, and never forms Q at every
    node of a smooth field."""

    @pytest.mark.parametrize("name", ["smooth2", "smooth3", "twist2d"])
    def test_band_bounds_the_screen(self, monkeypatch, name):
        g = reg.build_example("twist2d") if name == "twist2d" else smooth_pair(int(name[-1]))[0]
        (values, band, kernel, operands), = screen_records(monkeypatch, lambda: geo.sup_q_gnorm(g))
        assert kernel is geo._q_gnorm
        assert np.all(np.abs(values - kernel(*operands)) <= band)
        q = geo.hessian_curvature_from_metric(g)
        pair_asymmetry = np.abs(q - np.swapaxes(q, -4, -2)).max()  # swapping slots 1 and 3
        assert pair_asymmetry >= 0.01 if name == "twist2d" else pair_asymmetry < 1e-3

    @HYPOTHESIS
    @given(n=st.sampled_from((2, 3)), seed=st.integers(0, 2**32 - 1), copies=st.integers(1, 5),
           log_cond=st.floats(0.0, 8.0), cancel=st.booleans())
    def test_sup_equals_the_full_chain(self, n, seed, copies, log_cond, cancel):
        # random metric derivatives on an 8^n grid, those of no metric, so Q
        # keeps no symmetry but the swap of its pairs; the node with the
        # largest |Q|_g is repeated at `copies` random nodes.  With `cancel`,
        # d[k, i, p] = a_k b_i b_p and the second derivatives equal the
        # quadratic term to 1e-9, so Q is 1e-9 of its two terms and the
        # rounding of the quadratic term, not the contraction's, fills the band
        rng = np.random.default_rng(seed)
        grid = PeriodicGrid((8,) * n, (TWO_PI,) * n)
        nodes, npairs = grid.num_nodes, len(geo.sym_pairs(n))
        scale = 10.0 ** rng.uniform(-3, 3, (nodes, 1, 1))
        first = rng.standard_normal((nodes, n, npairs)) * scale
        second = rng.standard_normal((nodes, npairs, npairs)) * scale
        gmat = rotated(10.0 ** rng.uniform(0.0, log_cond, (nodes, n)), rng)
        if cancel:
            a, b = rng.standard_normal((2, nodes, n)) * scale[..., 0]
            bb = pair_stored(b[:, :, None] * b[:, None, :])
            first = a[:, :, None] * bb[:, None, :]
            b_ginv_b = np.einsum("ni,nij,nj->n", b, np.linalg.inv(gmat), b)
            second = (b_ginv_b[:, None, None] * pair_stored(a[:, :, None] * a[:, None, :])[:, :, None]
                      * bb[:, None, :] * (1.0 + 1e-9 * rng.standard_normal(second.shape)))
        slot = geo.sym_table(n, 2)

        def metric():
            return geo.MetricField(grid, pair_stored(0.5 * (gmat + np.swapaxes(gmat, -1, -2)))
                                   .reshape(*grid.shape, npairs))

        def derivatives(patch):
            patch.setattr(geo, "metric_partials",
                          lambda g: geo.sym_matrices(first, n).reshape(*grid.shape, n, n, n))
            patch.setattr(geo, "stencil",
                          lambda values, axes, spacings: second[:, slot[axes]].reshape(*grid.shape, npairs))

        def full_chain(g):
            return geo.curvature_gnorm(geo.hessian_curvature_from_metric(g), g.inverse_matrices())

        with pytest.MonkeyPatch.context() as patch:
            derivatives(patch)
            top = int(np.argmax(full_chain(metric())))
            for k in rng.choice(nodes, copies, replace=False):
                first[k], second[k], gmat[k] = first[top], second[top], gmat[top]
            g = metric()
            want = full_chain(g).max()
            (values, band, kernel, operands), = screen_records(patch, lambda: geo.sup_q_gnorm(g))
            assert np.all(np.abs(values - kernel(*operands)) <= band)
            assert np.array_equal(geo.sup_q_gnorm(g), want)

    @pytest.mark.parametrize("n", [2, 3])
    def test_smooth_sup_equals_the_full_chain(self, n):
        g, _ = smooth_pair(n)
        assert geo.sup_q_gnorm(g) == full_kernels(n)["gnorm"][2].max()

    def test_diagnostics_row_never_builds_q_at_every_node(self, monkeypatch):
        g, _ = smooth_pair(2)
        monkeypatch.setattr(geo, "hessian_curvature_from_metric", None)  # a call would raise
        sizes = []
        original = geo._q_metric

        def recorded(ginv, d, d2):
            sizes.append(ginv[..., 0, 0].size)
            return original(ginv, d, d2)

        monkeypatch.setattr(geo, "_q_metric", recorded)
        control = fl.StepControl()
        state = fl.FlowState.initial(g)
        fl.diagnostics_row(state, 0.0)
        state = fl.step_tensor(state, fl.stable_dt(state.g, control), control)
        fl.diagnostics_row(state, state.dt_last)
        assert len(sizes) == 2 and max(sizes) < 0.02 * g.grid.num_nodes

    # building Q at every node peaked at 5.56 MiB at 128^2 and 49.6 MiB at 32^3
    @pytest.mark.parametrize("n, limit_mib", [(2, 5.56), (3, 49.6)])
    def test_peak_memory(self, n, limit_mib):
        g, _ = smooth_pair(n)
        tracemalloc.start()
        try:
            geo.sup_q_gnorm(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= limit_mib * 2**20  # measured 4.0 and 23.8 MiB


class TestTorsionScreen:
    @pytest.mark.parametrize("name", ["smooth2", "smooth3", "twist2d"])
    def test_band_bounds_the_screen(self, monkeypatch, name):
        # on the potentials T is rounding noise; on twist2d it is not
        g = reg.build_example("twist2d") if name == "twist2d" else smooth_pair(int(name[-1]))[0]
        (values, band, kernel, operands), = screen_records(monkeypatch,
                                                           lambda: geo.pullback_chern_torsion(g))
        assert kernel is geo._torsion_gnorm
        exact = kernel(*operands)
        assert np.all(np.abs(values - exact) <= band)
        assert exact.max() >= 0.01 if name == "twist2d" else exact.max() < 1e-12

    @HYPOTHESIS
    @given(n=st.sampled_from((2, 3)), seed=st.integers(0, 2**32 - 1), copies=st.integers(1, 5),
           log_cond=st.floats(0.0, 8.0))
    def test_sup_equals_the_full_chain(self, n, seed, copies, log_cond):
        # random metric derivatives on a 4^n grid; the node with the largest
        # torsion norm is repeated at `copies` random nodes
        rng = np.random.default_rng(seed)
        nodes = 4**n
        d = rng.standard_normal((nodes, n, n, n)) * 10.0 ** rng.uniform(-3, 3, (nodes, 1, 1, 1))
        gmat = rotated(10.0 ** rng.uniform(0.0, log_cond, (nodes, n)), rng)
        ginv = np.linalg.inv(gmat)
        top = int(np.argmax(geo._torsion_gnorm(d, ginv, gmat)))
        for k in rng.choice(nodes, copies, replace=False):
            d[k], gmat[k], ginv[k] = d[top], gmat[top], ginv[top]
        d, gmat, ginv = (a.reshape(*(4,) * n, *a.shape[1:]) for a in (d, gmat, ginv))
        torsion, norm = geo._torsion(d, ginv), geo._sup_torsion_gnorm(d, ginv, gmat)
        assert np.array_equal(norm, unscreened_torsion_gnorm(torsion, gmat, ginv).max())

    @pytest.mark.parametrize("n", [2, 3])
    def test_smooth_sup_equals_the_full_chain(self, n):
        g, _ = smooth_pair(n)
        assert geo.pullback_chern_torsion(g)[1] == full_kernels(n)["torsion"][2].max()


class TestWhitening:
    """The one Cholesky factor of every whitened screen, and the pencil's
    O(u) band at n = 2, where the closed form of W = X G X^T is half-trace
    and radius."""

    @HYPOTHESIS
    @given(n=st.sampled_from((2, 3)), seed=st.integers(0, 2**32 - 1), log_cond=st.floats(0.0, 12.0))
    def test_factor_whitens_its_matrix(self, n, seed, log_cond):
        # H conditioned up to 1e12, as in TestPencilScreen: L L^T = H within
        # the Cholesky step of the band, and X H X^T = I (the pencil of (H, H),
        # whose eigenvalues are all 1) within the pencil's band
        rng = np.random.default_rng(seed)
        h = rotated(10.0 ** rng.uniform(0.0, log_cond, (64, n)), rng)
        h = 0.5 * (h + np.swapaxes(h, -1, -2))
        low = geo._cholesky(np.moveaxis(h, 0, -1))
        residual = np.einsum("ik...,jk...->ij...", low, low) - np.moveaxis(h, 0, -1)
        assert np.all(np.sqrt(geo._squares(residual)) <= geo.WHITENING_BAND * geo._squares(low))
        smallest, largest, band = geo._pencil_screen(pair_stored(h), pair_stored(h), n)
        assert np.all(np.abs(smallest - 1.0) <= band) and np.all(np.abs(largest - 1.0) <= band)

    def test_flow_rows_run_the_pencil_on_few_nodes(self, monkeypatch):
        # rows every 10 steps, as in the benchmark's 2-D flow: at t = 0, where
        # g = g0 and every node ties, one full chain; after it one chain per
        # row, on the at most 2 candidates of each extreme of the range (the
        # 3x3 band at n = 2 left thousands here)
        g, _ = smooth_pair(2)
        sizes = []
        original = geo._pencil_eigenvalues

        def recorded(g_comps, h_comps, n):
            sizes.append(len(g_comps))
            return original(g_comps, h_comps, n)

        monkeypatch.setattr(geo, "_pencil_eigenvalues", recorded)
        control = fl.StepControl()
        _, rows = fl.run_flow(g, 30.5 * fl.stable_dt(g, control), control, diag_stride=10)
        assert [r.t > 0.0 for r in rows] == [False, True, True, True, True]
        assert sizes[0] == g.grid.num_nodes and len(sizes) == 5 and max(sizes[1:]) <= 4


class TestCandidates:
    """The exact kernel runs on under 2% of the nodes of a smooth field (1 to
    4 on the fields here) and once on every node of a field where every
    node ties, the fallback."""

    def kernel_sizes(self, monkeypatch, names, call):
        """Node counts of every call ``call()`` makes to the named kernels."""
        sizes = {name: [] for name in names}
        for name in names:
            def counted(*ops, _name=name, _kernel=getattr(geo, name)):
                sizes[_name].append(len(ops[0]))
                return _kernel(*ops)
            monkeypatch.setattr(geo, name, counted)
        call()
        return sizes

    @pytest.mark.parametrize("flat", [False, True], ids=["smooth", "flat"])
    def test_min_eigenvalue(self, monkeypatch, flat):
        g, _ = smooth_pair(3)
        comps = np.broadcast_to(g.components[0, 0, 0], g.components.shape) if flat else g.components
        sizes, = self.kernel_sizes(monkeypatch, ["sym_min_eigenvalues"],
                                   lambda: geo.check_metric(comps, 3)).values()
        assert sizes == [g.grid.num_nodes] if flat else sizes[0] < 0.02 * g.grid.num_nodes

    @pytest.mark.parametrize("flat", [False, True], ids=["smooth", "flat"])
    def test_pencil_and_gnorm(self, monkeypatch, flat):
        # one pencil chain serves both extremes: on their candidates, or on
        # every node of a flat metric with g = g0, as at t = 0
        g, g0 = smooth_pair(2)
        if flat:
            g = g0 = geo.MetricField(g.grid, np.broadcast_to([1.5, 0.1, 1.0], g.components.shape))
        sizes = self.kernel_sizes(monkeypatch, ["_pencil_eigenvalues", "_q_gnorm"],
                                  lambda: (geo.pencil_eigenvalue_range(g, g0), geo.sup_q_gnorm(g)))
        nodes = g.grid.num_nodes
        if flat:
            assert sizes == {"_pencil_eigenvalues": [nodes], "_q_gnorm": [nodes]}
        else:
            assert [len(s) for s in sizes.values()] == [1, 1]
            assert max(max(s) for s in sizes.values()) < 0.02 * nodes

    def test_pencil_with_one_extreme_falling_back(self, monkeypatch):
        # g = diag(lam(x), 1) against g0 = I: lam < 1 varies, so the smallest
        # extreme has few candidates, while every node attains the largest, 1
        grid = PeriodicGrid((32, 32), (TWO_PI,) * 2)
        x, _ = grid.coordinate_arrays()
        lam = 0.5 + 0.25 * np.cos(x)
        g = geo.MetricField(grid, np.stack([lam, np.zeros_like(lam), np.ones_like(lam)], axis=-1))
        g0 = geo.MetricField(grid, np.broadcast_to([1.0, 0.0, 1.0], g.components.shape))
        smallest, largest, band = geo._pencil_screen(g.components.reshape(-1, 3),
                                                     g0.components.reshape(-1, 3), 2)
        assert geo._candidates(smallest, band, False) is not None
        assert geo._candidates(largest, band, True) is None
        sizes, = self.kernel_sizes(monkeypatch, ["_pencil_eigenvalues"],
                                   lambda: geo.pencil_eigenvalue_range(g, g0)).values()
        assert sizes == [grid.num_nodes]
        linv = np.linalg.inv(np.linalg.cholesky(g0.matrices()))
        eigs = np.linalg.eigvalsh(linv @ g.matrices() @ np.swapaxes(linv, -1, -2))
        lam_min, lam_max = geo.pencil_eigenvalue_range(g, g0)
        assert np.array_equal(lam_min, eigs[..., 0].min()) and np.array_equal(lam_max, eigs[..., -1].max())

    @pytest.mark.parametrize("flat", [False, True], ids=["smooth", "flat"])
    def test_torsion(self, monkeypatch, flat):
        g = geo.metric_from_potential(reg.build_example("flat")) if flat else smooth_pair(3)[0]
        sizes, = self.kernel_sizes(monkeypatch, ["_torsion_gnorm"],
                                   lambda: geo.pullback_chern_torsion(g)).values()
        assert sizes == [g.grid.num_nodes] if flat else sizes[0] < 0.02 * g.grid.num_nodes
