"""Screened extremes: node-wise minima and maxima found through a cheap
closed-form screen equal, bit for bit and with the same node, those of the
exact kernels run over every node.

The exact kernels are ``sym_min_eigenvalues`` (LAPACK at n = 3), the
Cholesky/inverse/eigvalsh chain of the metric pencil, the metric route to
Q followed by the four-step ``curvature_gnorm`` chain, and the five-operand
contraction of the torsion norm.  ``check_metric`` at n = 3
decides positivity by a certificate and runs the eigenvalue kernel only
where it cannot.  The design rests on each kernel giving the same
bits on any subset of nodes as on the full grid; the first class checks
that on the grid sizes of the benchmark, for these kernels and for the
node-local kernels that the curvature report runs chunk by chunk (the
Christoffel pair, the report's first pass, the torsion and Q from the
potential).  The sup of ``|R_ijkl|`` needs no screen: the first pass forms
the exact largest entry per node, which ``TestRiemannSup`` checks bit for
bit against the ``einsum`` kernel.
"""

import functools

import numpy as np
import pytest
from hypothesis import example, given, settings
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
    first = geo.sym_derivatives(g.components, 1, g.grid.spacings)
    q_operands = (geo.sym_inverse(g.components, n).reshape(-1, npairs), first.reshape(-1, npairs, n),
                  second.reshape(-1, npairs, npairs))
    torsion = geo._torsion(geo.metric_partials(g), ginv)
    chol = np.linalg.cholesky(g0.matrices())
    linv = np.linalg.inv(chol)
    pencil = np.linalg.eigvalsh(linv @ g.matrices() @ np.swapaxes(linv, -1, -2))
    flat_g, flat_g0 = g.components.reshape(-1, npairs), g0.components.reshape(-1, npairs)
    gamma_pair = geo.christoffel(g)
    pm = smooth_potentials(n)[0]
    psi, spacings = pm.psi.values, pm.grid.spacings
    fourths = geo.sym_derivatives(psi, 4, spacings).reshape(len(flat_d), -1)[:, list(geo._q_fourths(n))]
    potential_operands = (geo.sym_inverse(g.components, n).reshape(-1, npairs),
                          geo.sym_derivatives(psi, 3, spacings).reshape(len(flat_d), -1), fourths)
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
           "christoffel", "torsion_tensor", "q_potential")


class TestKernelsOnSubsets:
    @settings(max_examples=20 * len(KERNELS))
    @given(n=st.sampled_from((2, 3)), kernel=st.sampled_from(KERNELS), data=st.data())
    def test_subset_gives_the_full_grid_bits(self, n, kernel, data):
        compute, operands, full = full_kernels(n)[kernel]
        nodes = data.draw(st.lists(st.integers(0, len(full) - 1), min_size=1, max_size=17,
                                   unique=True))
        subset = compute(*(op[nodes] for op in operands))
        assert subset.tobytes() == full[nodes].tobytes()

    @pytest.mark.parametrize("kernel", KERNELS)
    @pytest.mark.parametrize("n", [2, 3])
    def test_runner_gives_the_whole_grid_bits(self, n, kernel):
        # 8 chunks at 128^2 and 16 at 32^3
        compute, operands, _ = full_kernels(n)[kernel]
        calls = []

        def counted(*ops):
            calls.append(len(ops[0]))
            return compute(*ops)

        assert geo._per_chunk(counted, operands).tobytes() == compute(*operands).tobytes()
        assert calls == [geo._SCREEN_CHUNK] * (8 if n == 2 else 16)

    def test_runner_stacks_each_output_of_a_tuple(self):
        _, operands, _ = full_kernels(3)["christoffel"]
        stacked = geo._per_chunk(geo._christoffel, operands)
        assert [a.tobytes() for a in stacked] == [a.tobytes() for a in geo._christoffel(*operands)]

    @pytest.mark.parametrize("n", [2, 3])
    def test_bundle_pass_on_subsets_and_through_the_runner(self, n):
        # the curvature bundle's first pass: every per-node output, on random
        # subsets and chunk by chunk, has the bits of one call on every node
        _, operands, _ = full_kernels(n)["torsion"]  # (d, g^-1, g) on the flat nodes
        full = geo._bundle_pass(*operands)
        assert len(full) == 5 and all(out.shape == (len(operands[0]),) for out in full)
        rng = np.random.default_rng(n)
        for size in (1, 2, 17):
            nodes = rng.choice(len(operands[0]), size, replace=False)
            subset = geo._bundle_pass(*(op[nodes] for op in operands))
            assert [out.tobytes() for out in subset] == [out[nodes].tobytes() for out in full]
        stacked = geo._per_chunk(geo._bundle_pass, operands)
        assert [out.tobytes() for out in stacked] == [out.tobytes() for out in full]

    @pytest.mark.parametrize("n", [2, 3])
    def test_q_potential_on_single_nodes(self, n):
        # a full einsum reduction summed the quadratic term in another order
        # on one node than on many: at n = 2 first at nodes 21, 29, 32 and 101
        compute, operands, full = full_kernels(n)["q_potential"]
        for node in range(128):
            assert compute(*(op[[node]] for op in operands)).tobytes() == full[node].tobytes(), node


def per_slot_q_potential(ginv, thirds, fourths):
    """``geometry._q_potential`` as it summed the quadratic term before it was
    batched: per stored slot, the n^2 products ``g^pq phi_ikp phi_jlq`` added
    from 0 in the C order of ``(p, q)`` by a Python sum (the bit oracle).
    ``ginv`` is pair-stored and ``fourths`` holds ``phi_ijkl`` per slot."""
    n = int(np.sqrt(2 * ginv.shape[-1]))
    ginv, third = geo.sym_matrices(ginv, n), np.take(thirds, geo.sym_table(n, 3), axis=-1)
    pairs = geo.sym_pairs(n)
    slots = geo.sym_indices(len(pairs), 2)
    comps = np.empty((len(ginv), len(slots)))
    for s, (a, b) in enumerate(slots):
        (i, k), (j, l) = pairs[a], pairs[b]
        quad = sum(ginv[:, p, q] * third[:, i, k, p] * third[:, j, l, q] for p, q in np.ndindex(n, n))
        comps[:, s] = 0.5 * fourths[:, s] - 0.5 * quad
    return comps


class TestQPotentialBits:
    @settings(max_examples=150)
    @given(n=st.sampled_from((1, 2, 3)), nodes=st.integers(1, 17), seed=st.integers(0, 2**32 - 1))
    @example(n=3, nodes=1, seed=37)  # the last pair's slot alone, summed pairwise, gives other bits here
    def test_batched_sum_gives_the_per_slot_bits(self, n, nodes, seed):
        # entries from 1e-200 to 1e200 of either sign (products overflow and
        # underflow at the ends), within 1e4 of each other at a node so that
        # the order of a sum shows in its bits, with planted +0.0 and -0.0: a
        # sum that starts from -0.0 or adds in another order (numpy's pairwise
        # sum of an inner axis of 9 entries, as on one node) gives other bits
        rng = np.random.default_rng(seed)

        def entries(*shape):
            scale = rng.uniform(-198.0, 198.0, (shape[0],) + (1,) * (len(shape) - 1))
            values = rng.choice((-1.0, 1.0), shape) * 10.0 ** (scale + rng.uniform(-2.0, 2.0, shape))
            zeros = rng.random(shape)
            values[zeros < 0.15] = 0.0
            values[(zeros >= 0.15) & (zeros < 0.3)] = -0.0
            return values

        m = n * (n + 1) // 2
        operands = (entries(nodes, m), entries(nodes, len(geo.sym_indices(n, 3))), entries(nodes, m * (m + 1) // 2))
        with np.errstate(over="ignore", invalid="ignore"):
            assert geo._q_potential(*operands).tobytes() == per_slot_q_potential(*operands).tobytes()


def expression_q_bounds(ginv, first, d2):
    """``_q_bounds`` with one temporary per operation, its screen of ``g^-1``
    included: the bits that its in-place form keeps."""
    nodes, n = first.shape[0], first.shape[-1]
    weights = geo.sym_pair_weights(n)
    with np.errstate(over="ignore", invalid="ignore"):
        if n == 2:
            q, p = geo._half_trace_radius(ginv)
            smallest, largest, band = q - p, q + p, geo.WHITENING_BAND * (np.abs(q) + p) + geo.SCREEN_FLOOR
        else:
            smallest, largest, band = geo._sym_eigen_screen(ginv, n)
        low, big = smallest - band, largest + band
        low[~(low > 0.0)] = np.nan
        flat = d2.reshape(nodes, -1)
        d2_norm = np.sqrt(np.einsum("ni,ni,i->n", flat, flat, np.outer(weights, weights).ravel()))
        flat = first.reshape(nodes, -1)
        d_sq = np.einsum("ni,ni,i->n", flat, flat, np.repeat(weights, n))
        eps_q = geo.WHITENING_BAND * (big * d_sq + d2_norm) + geo.SCREEN_FLOOR * (1.0 + big)
        root = np.sqrt(geo.WHITENING_BAND * (n * big) ** 4 * (0.5 * d2_norm + 0.5 * big * d_sq + eps_q) ** 2
                       + geo.SCREEN_FLOOR)
        big_sq, low_sq = big * big, low * low
        mid = 0.25 * (big_sq + low_sq) * d2_norm
        half = 0.25 * (big_sq - low_sq) * d2_norm + 0.5 * big_sq * big * d_sq + big_sq * eps_q + root
        half += geo.WHITENING_BAND * (mid + half) + geo.SCREEN_FLOOR
    return mid, half


class TestInPlaceBits:
    """The closed forms of a flow step and row that form their terms in
    place keep the bits of one temporary per operation, signed zeros,
    overflow and NaN included."""

    @HYPOTHESIS
    @given(n=st.sampled_from((2, 3)), seed=st.integers(0, 2**32 - 1), log_scale=st.floats(-200.0, 200.0),
           log_cond=st.floats(0.0, 8.0))
    def test_spectral_bounds(self, n, seed, log_scale, log_cond):
        rng = np.random.default_rng(seed)
        nodes, npairs = 33, n * (n + 1) // 2
        gmat = rotated(10.0 ** rng.uniform(0.0, log_cond, (nodes, n)), rng)
        ginv = geo.sym_inverse(pair_stored(0.5 * (gmat + np.swapaxes(gmat, -1, -2))), n)
        first, d2 = (rng.standard_normal(shape) * 10.0 ** log_scale
                     for shape in ((nodes, npairs, n), (nodes, npairs, npairs)))
        first[rng.random(nodes) < 0.2] = -0.0
        d2[rng.random(nodes) < 0.2] = 0.0
        got, want = geo._q_bounds(ginv, first, d2), expression_q_bounds(ginv, first, d2)
        assert all(a.tobytes() == b.tobytes() for a, b in zip(got, want))

    @HYPOTHESIS
    @given(seed=st.integers(0, 2**32 - 1), log_scale=st.floats(-200.0, 200.0), nodes=st.integers(0, 9))
    def test_half_trace_radius_and_determinant(self, seed, log_scale, nodes):
        # nodes = 0 is one matrix, whose results are 0-d
        rng = np.random.default_rng(seed)
        comps = rng.standard_normal((nodes, 3) if nodes else 3) * 10.0 ** log_scale
        comps[rng.random(comps.shape) < 0.2] = -0.0
        a, b, c = comps[..., 0], comps[..., 1], comps[..., 2]
        with np.errstate(over="ignore", invalid="ignore"):
            q, p = geo._unscaled_half_trace_radius(comps)
            want_q, want_p = 0.5 * (a + c), np.sqrt(np.square(0.5 * (a - c)) + b * b)
            det, want_det = geo.sym_det(comps, 2), a * c - b * b
        assert q.tobytes() == np.asarray(want_q).tobytes() and p.tobytes() == np.asarray(want_p).tobytes()
        assert np.asarray(det).tobytes() == np.asarray(want_det).tobytes()


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
        # the check decides; the value is read from min_eigenvalue()
        want, want_node = first_extreme(geo.sym_min_eigenvalues(comps, 3))
        if want >= geo.MIN_EIGENVALUE:
            # tiled to the smallest grid, which has the same smallest eigenvalue
            tiled = np.tile(comps, (*(-(-8 // k) for k in comps.shape[:-1]), 1))
            grid = PeriodicGrid(tiled.shape[:-1], (TWO_PI,) * 3)
            assert geo.MetricField(grid, tiled).min_eigenvalue() == want
            return
        with pytest.raises(geo.NotPositiveDefinite) as info:
            geo.check_metric(comps, 3)
        assert info.value.node == np.unravel_index(want_node, comps.shape[:-1])
        assert info.value.min_eigenvalue == want

    @pytest.mark.parametrize("n", [2, 3])
    def test_non_finite_entry_gives_nan_at_its_node(self, n):
        # 64 pair-stored copies of 2I with a NaN in node 21's first entry:
        # LAPACK's eigenvalues of that matrix at n = 3 are [0, -0, 2], which
        # hid the NaN; check_metric rejects the entry by its own check first
        comps = np.tile(pair_stored(2.0 * np.eye(n)), (*(4,) * 3, 1) if n == 3 else (8, 8, 1))
        comps.reshape(64, -1)[21, 0] = np.nan
        value, node = geo.smallest_eigenvalue(comps, n)
        assert np.isnan(value) and node == 21
        with pytest.raises(ValueError, match="non-finite"):
            geo.check_metric(comps, n)

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


@st.composite
def straddling_spectra(draw):
    """Pair-stored 3x3 fields on a small grid whose smallest eigenvalues
    straddle ``MIN_EIGENVALUE`` (within ulps of it, and where the
    certificate's ``4 det / tr^2`` for an isotropic spectrum is), with
    repeated eigenvalues and ``cond`` up to ``10**log_cond`` (at most 1e8)."""
    shape = tuple(draw(st.lists(st.integers(1, 4), min_size=3, max_size=3)))
    log_cond = draw(st.floats(0.0, 8.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    tiny = geo.MIN_EIGENVALUE
    levels = np.array([-1.0, 0.0, tiny * (1 - 1e-15), tiny, tiny * (1 + 1e-15), 2.25 * tiny * (1 - 1e-9),
                       2.25 * tiny, 2.25 * tiny * (1 + 1e-9), 10.0 * tiny, 1e-3, 1.0])
    lowest = rng.choice(levels, shape)
    ratios = 10.0 ** rng.uniform(0.0, log_cond, (*shape, 2))
    ratios[rng.random(ratios.shape) < 0.3] = 1.0  # ties with the smallest
    ratios[..., 1] = np.where(rng.random(shape) < 0.2, ratios[..., 0], ratios[..., 1])  # ties above it
    spectrum = lowest[..., None] * np.concatenate([np.ones((*shape, 1)), np.sort(ratios, axis=-1)], axis=-1)
    return pair_stored(rotated(spectrum, rng, rotate=draw(st.booleans())))


def expression_certificate(comps):
    """``(proven, (det, det_band, minor, minor_band, bound))`` of the
    positivity certificate with one temporary per operation, as it was
    written before its terms were formed in place: the bits that form keeps."""
    a, b, c, d, e, f = np.ascontiguousarray(comps.reshape(-1, 6).T)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        ad, bb = a * d, b * b
        minor_band = geo.WHITENING_BAND * (np.abs(ad) + bb) + geo.SCREEN_FLOOR
        det, (df, ee, bf, ec, be, dc) = geo._det3(a, b, c, d, e, f)
        abs_b, abs_c = np.abs(b), np.abs(c)
        det_band = (geo.WHITENING_BAND * (np.abs(a) * (np.abs(df) + ee) + abs_b * (np.abs(bf) + np.abs(ec))
                                          + abs_c * (np.abs(be) + np.abs(dc)))
                    + geo.SCREEN_FLOOR * (1.0 + np.abs(a) + abs_b + abs_c))
        tr = a + d + f
        bound = 4.0 * (det - det_band) / (tr * tr) - geo.WHITENING_BAND * tr
        proven = (a > 0.0) & (ad - bb > minor_band) & (det > det_band) & (bound >= geo.MIN_EIGENVALUE)
    return proven, (det, det_band, ad - bb, minor_band, bound)


class TestPositivityCertificate:
    """``check_metric`` at n = 3 decides by leading minors and
    ``lambda_min >= 4 det / tr^2`` where they prove every node, and by the
    screened LAPACK kernel elsewhere; the decision is the kernel's."""

    @settings(max_examples=200)
    @given(comps=straddling_spectra())
    def test_decision_equals_the_kernel(self, comps):
        eigs = geo.sym_min_eigenvalues(comps, 3).ravel()
        proven = geo._positivity_certificate(comps)[0]
        assert np.all(eigs[proven] >= geo.MIN_EIGENVALUE)
        try:
            geo.check_metric(comps, 3)
            failed = False
        except geo.NotPositiveDefinite:
            failed = True
        assert failed == (eigs.min() < geo.MIN_EIGENVALUE)

    @settings(max_examples=200)
    @given(comps=straddling_spectra(), seed=st.integers(0, 2**32 - 1))
    def test_determinant_is_sym_det_bit_for_bit(self, comps, seed):
        # the flow takes each checked metric's log det from the determinant
        # the certificate formed; on near-singular fields and on random
        # (mostly indefinite) entries spanning ten decades it is sym_det's
        rng = np.random.default_rng(seed)
        scattered = rng.standard_normal((64, 6)) * 10.0 ** rng.uniform(-5.0, 5.0, (64, 6))
        for field in (comps, scattered):
            det = geo._positivity_certificate(field)[1]
            assert det.tobytes() == geo.sym_det(field, 3).tobytes()

    @settings(max_examples=200)
    @given(comps=straddling_spectra(), seed=st.integers(0, 2**32 - 1))
    def test_in_place_terms_keep_the_expression_bits(self, comps, seed):
        # spectra straddling MIN_EIGENVALUE and random entries spanning ten
        # decades, each with planted +0.0 and -0.0: every term, the decision
        # and the determinant have the bits of one temporary per operation
        rng = np.random.default_rng(seed)
        scattered = rng.standard_normal((64, 6)) * 10.0 ** rng.uniform(-5.0, 5.0, (64, 6))
        for field, rate in ((comps.reshape(-1, 6).copy(), 0.03), (scattered, 0.1)):
            zeros = rng.random(field.shape)
            field[zeros < rate] = 0.0
            field[(zeros >= rate) & (zeros < 2 * rate)] = -0.0
            want_proven, want = expression_certificate(field)
            assert [x.tobytes() for x in geo._certificate_terms(field)] == [x.tobytes() for x in want]
            proven, det = geo._positivity_certificate(field)
            assert proven.tobytes() == want_proven.tobytes() and det.tobytes() == want[0].tobytes()


def einsum_riemann_max(gamma_mixed, gmat):
    """The largest ``|R_ijkl|`` per flat node of the three ``einsum`` calls of
    ``geometry.riemann_from_gamma`` on the same Christoffel symbols and ``g``
    (the bit oracle)."""
    r_up = np.einsum("...ilm,...mjk->...ijkl", gamma_mixed, gamma_mixed) - np.einsum(
        "...ikm,...mjl->...ijkl", gamma_mixed, gamma_mixed)
    r = np.einsum("...ip,...pjkl->...ijkl", gmat, r_up)
    return np.abs(r).reshape(len(r), -1).max(axis=1)


def overflow_1d():
    """A 1-D potential metric at 64 nodes whose Christoffel symbols and their
    products overflow at most nodes, so the einsum's ``R_0000 = x - x`` is NaN there."""
    grid = PeriodicGrid((64,), (TWO_PI,))
    psi = ScalarField.from_function(grid, lambda x: -(7e307 / 100) * np.cos(10 * x))
    return geo.PotentialMetric(grid, np.array([[8e307]]), psi)


class TestRiemannSup:
    """The sup of ``|R_ijkl|`` in the curvature report: the bundle's first
    pass forms the exact largest entry per node, in the einsum's order of
    summation, with no screen and no second pass."""

    @settings(max_examples=150)
    @given(n=st.sampled_from((1, 2, 3)), nodes=st.integers(1, 2048), seed=st.integers(0, 2**32 - 1),
           log_scale=st.floats(0.0, 200.0))
    def test_pass_gives_the_einsum_bits(self, n, nodes, seed, log_scale):
        # metric derivatives, g^-1 and g with entries up to 10^(log_scale + 2)
        # in size, of either sign, within 1e4 of each other at a node, so that
        # the order of a sum shows in its bits, with planted +0.0 and -0.0,
        # and NaN in all but g, which the pass takes finite, as a checked
        # metric's: past log_scale 62 or so the products overflow at some
        # nodes, and the entries with k = l become NaN with finite
        # Christoffel symbols
        rng = np.random.default_rng(seed)

        def entries(*shape, nan=True):
            scale = rng.uniform(-log_scale, log_scale, (nodes,) + (1,) * len(shape))
            exponents = scale + rng.uniform(-2.0, 2.0, (nodes, *shape))
            values = rng.choice((-1.0, 1.0), exponents.shape) * 10.0**exponents
            planted = rng.random(values.shape)
            values[planted < 0.1] = 0.0
            values[(planted >= 0.1) & (planted < 0.2)] = -0.0
            values[nan & (planted > 0.998)] = np.nan
            return values

        d, ginv, gmat = entries(n, n, n), entries(n, n), entries(n, n, nan=False)
        with np.errstate(over="ignore", invalid="ignore"):
            want = einsum_riemann_max(geo._christoffel(d, ginv)[0], gmat)
            got = geo._bundle_pass(d, ginv, gmat)[-1]
        assert got.tobytes() == want.tobytes()

    def test_overflowing_products_give_nan(self):
        # the first pass gives NaN where the einsum does, with its bits; at
        # n = 1 there is no entry with k < l, so only the entries with k = l
        # carry it; the bundle then reports sup_riemann as not finite
        pm = overflow_1d()
        g = geo.metric_from_potential(pm)
        with np.errstate(over="ignore", invalid="ignore"):
            riemann = np.abs(geo.riemann_from_gamma(g)).ravel()
            largest = geo._gathering(geo._bundle_pass)(*geo._pair_operands(g))[-1]
            want = einsum_riemann_max(geo.christoffel(g)[0].reshape(-1, 1, 1, 1), g.matrices().reshape(-1, 1, 1))
            assert largest.tobytes() == want.tobytes()
            with pytest.raises(ValueError, match="sup_riemann"):
                geo.curvature_bundle(g, pm)
        assert 0 < np.isnan(riemann).sum() < len(riemann)
        assert 0 < np.isnan(largest).sum() < len(largest)


class TestPencilScreen:
    @HYPOTHESIS
    @given(n=st.sampled_from((2, 3)), seed=st.integers(0, 2**32 - 1),
           levels=st.lists(st.floats(0.5, 2.0), min_size=1, max_size=3),
           log_cond=st.floats(0.0, 12.0), indefinite=st.booleans())
    # eigenvalues +-1 of W: tr W = 0 at about half the nodes, where a band in |tr W| fails
    @example(n=2, seed=0, levels=[1.0], log_cond=5.0, indefinite=True)
    def test_range_equals_the_full_chain(self, n, seed, levels, log_cond, indefinite):
        # W = L^-1 G L^-T has repeated and shared eigenvalue magnitudes, of
        # either sign for an indefinite G (as -M1 of the a2 pencil), where
        # tr W may vanish while |W|_2 does not; H = L L^T is conditioned up
        # to 1e12
        rng = np.random.default_rng(seed)
        grid = PeriodicGrid((8,) * n, (TWO_PI,) * n)
        spectrum = rng.choice(levels, (*grid.shape, n))
        spectrum[..., 1] = spectrum[..., 0]
        if indefinite:
            spectrum *= rng.choice([-1.0, 1.0], spectrum.shape)
        h = rotated(10.0 ** rng.uniform(0.0, log_cond, (*grid.shape, n)), rng)
        low = np.linalg.cholesky(h)
        g = low @ rotated(spectrum, rng) @ np.swapaxes(low, -1, -2)
        g, h = (pair_stored(0.5 * (a + np.swapaxes(a, -1, -2))) for a in (g, h))
        npairs = g.shape[-1]
        flat = (g.reshape(-1, npairs), h.reshape(-1, npairs))
        smallest, largest, band = geo._pencil_screen(flat[0], geo._inverse_factor(flat[1], n), n)
        linv = np.linalg.inv(np.linalg.cholesky(geo.sym_matrices(h, n)))
        eigs = np.linalg.eigvalsh(linv @ geo.sym_matrices(g, n) @ np.swapaxes(linv, -1, -2))
        assert np.all(np.abs(smallest - eigs[..., 0].ravel()) <= band)
        assert np.all(np.abs(largest - eigs[..., -1].ravel()) <= band)
        assert geo.largest_pencil_eigenvalue(*flat, n) == first_extreme(eigs[..., -1], largest=True)
        if not indefinite:
            lam, big_lam = geo.pencil_eigenvalue_range(geo.MetricField(grid, g), geo.MetricField(grid, h))
            assert np.array_equal(lam, eigs[..., 0].min()) and np.array_equal(big_lam, eigs[..., -1].max())

    @pytest.mark.parametrize("n", [2, 3])
    def test_smooth_range_equals_the_full_chain(self, n):
        g, g0 = smooth_pair(n)
        pencil = full_kernels(n)["pencil"][2]
        assert geo.pencil_eigenvalue_range(g, g0) == (pencil[:, 0].min(), pencil[:, -1].max())
        flat = (g.components.reshape(len(pencil), -1), g0.components.reshape(len(pencil), -1))
        assert geo.largest_pencil_eigenvalue(*flat, n) == first_extreme(pencil[:, -1], largest=True)

    def test_range_peak_memory(self, peak_mib):
        # at 32^3, after g0's factor is formed: measured 1.42 MiB, where the
        # screen on the whole grid took 9.50 MiB
        g, g0 = smooth_pair(3)
        geo.pencil_eigenvalue_range(g, g0)
        assert peak_mib(lambda: geo.pencil_eigenvalue_range(g, g0))[1] <= 1.42

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_a2_pencil_extreme_equals_the_full_chain(self, monkeypatch, n):
        # the pencil (-M1, M0) of max_s on a smooth metric, theta = 0.5 and
        # the zero gauge, against the unscreened chain over every node (the
        # ratio at n = 1), on a few of the nodes
        g0 = smooth_pair(n)[0] if n > 1 else geo.metric_from_potential(reg.build_example("sin1d"))
        m0, m1 = (m.reshape(g0.grid.num_nodes, -1)
                  for m in cr._pencil_parts(g0, ScalarField.zeros(g0.grid), 0.5, scale_gauge_with_s=False))
        if n == 1:
            want = first_extreme(-m1[:, 0] / m0[:, 0], largest=True)
        else:
            want = first_extreme(geo._pencil_eigenvalues(-m1, m0, n)[:, -1], largest=True)
        found = []
        sizes, = kernel_sizes(monkeypatch, ["_pencil_eigenvalues"],
                              lambda: found.append(geo.largest_pencil_eigenvalue(-m1, m0, n))).values()
        assert found == [want]
        assert sum(sizes) < 0.02 * g0.grid.num_nodes if n > 1 else sizes == []


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


def random_q_metric(patch, n, seed, copies, log_cond, cancel, rows=8, edge=None):
    """``(g, |Q|_g at every node by the full chain)`` for a random metric on a
    grid of ``rows`` nodes along axis 0 and 8 along the others, with cond(g)
    up to ``10**log_cond``, whose first and second derivatives ``patch``
    replaces by random ones, those of no metric, so Q keeps no symmetry but
    the swap of its pairs; both reach every caller through the one stencil
    path, whether it runs on the whole grid or on a slab of its rows.  The
    node with the largest |Q|_g is repeated at ``copies`` random nodes; with
    ``edge`` ("first" or "last") it is moved, not copied, to a random node of
    that row along axis 0.  With ``cancel``, ``d[k, i, p] = a_k b_i b_p`` and
    the second derivatives equal the quadratic term to 1e-9, so Q is 1e-9 of
    its two terms and the rounding of the quadratic term, not the
    contraction's, fills the bands."""
    rng = np.random.default_rng(seed)
    grid = PeriodicGrid((rows,) + (8,) * (n - 1), (TWO_PI,) * n)
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

    def components():
        return pair_stored(0.5 * (gmat + np.swapaxes(gmat, -1, -2))).reshape(*grid.shape, npairs)

    def stencil(values, axes, spacings, out=None):
        # every derivative is one of g's components: first[:, k] along (k,),
        # and second[:, slot[i, j]] along (i, j), at the rows of g that
        # `values` holds (every row of a random metric differs)
        comps = components()
        rows_held = [next(r for r in range(rows) if np.array_equal(comps[r], row)) for row in values]
        part = (first[:, axes[0]] if len(axes) == 1 else second[:, slot[axes]]).reshape(*grid.shape, npairs)
        part = part[rows_held]
        if out is None:
            return part
        out[...] = part
        return out

    patch.setattr(geo, "stencil", stencil)

    def metric():
        return geo.MetricField(grid, components())

    def full_chain(g):
        return geo.curvature_gnorm(geo.hessian_curvature_from_metric(g), g.inverse_matrices()).ravel()

    top = int(np.argmax(full_chain(metric())))
    if edge is None:
        for k in rng.choice(nodes, copies, replace=False):
            first[k], second[k], gmat[k] = first[top], second[top], gmat[top]
    else:
        row_nodes = nodes // rows
        k = rng.integers(row_nodes) + (0 if edge == "first" else nodes - row_nodes)
        for field in (first, second, gmat):
            field[[k, top]] = field[[top, k]]
    g = metric()
    return g, full_chain(g)


def bounds_records(monkeypatch, call):
    """``(operands, (mid, half_width))`` of every ``_q_bounds`` call made by ``call()``."""
    records = []
    original = geo._q_bounds

    def recorded(*operands):
        records.append((operands, original(*operands)))
        return records[-1][1]

    monkeypatch.setattr(geo, "_q_bounds", recorded)
    call()
    return records


def slab_rows(grid):
    """Rows along axis 0 of each slab of ``sup_q_gnorm``: about
    ``2 * _SCREEN_CHUNK`` nodes each, the last one shorter."""
    rows = grid.sizes[0]
    height = max(1, 2 * geo._SCREEN_CHUNK * rows // grid.num_nodes)
    return [min(height, rows - start) for start in range(0, rows, height)]


def slab_bounds(monkeypatch, g):
    """``(operands, (mid, half_width))`` of ``sup_q_gnorm(g)``'s ``_q_bounds``
    calls, one per slab of :func:`slab_rows` on exactly that slab's nodes,
    joined along the nodes in slab order: the whole grid's, node for node."""
    records = bounds_records(monkeypatch, lambda: geo.sup_q_gnorm(g))
    row_nodes = g.grid.num_nodes // g.grid.sizes[0]
    assert [len(operands[0]) for operands, _ in records] == [rows * row_nodes for rows in slab_rows(g.grid)]
    operands, bounds = (tuple(np.concatenate(parts) for parts in zip(*side)) for side in zip(*records))
    return operands, bounds


def kernel_sizes(monkeypatch, names, call):
    """Node counts of every call ``call()`` makes to the named kernels, each
    of which must run on at most one chunk of nodes, as ``_per_chunk`` runs
    them past a screen."""
    sizes = {name: [] for name in names}
    for name in names:
        def counted(*ops, _name=name, _kernel=getattr(geo, name)):
            assert len(ops[0]) <= geo._SCREEN_CHUNK, f"{_name} ran on {len(ops[0])} nodes at once"
            sizes[_name].append(len(ops[0]))
            return _kernel(*ops)
        monkeypatch.setattr(geo, name, counted)
    call()
    return sizes


class TestGnormScreen:
    """``sup_q_gnorm``: the sup of |Q|_g with Q from the metric, screened by
    spectral bounds at every node and then in a whitened frame on the nodes
    they keep, equals the full chain's, and never forms Q at every node of
    a smooth field."""

    @pytest.mark.parametrize("name", ["smooth2", "smooth3", "twist2d"])
    def test_band_bounds_the_screen(self, monkeypatch, name):
        g = reg.build_example("twist2d") if name == "twist2d" else smooth_pair(int(name[-1]))[0]
        (values, band, kernel, operands), = screen_records(monkeypatch, lambda: geo.sup_q_gnorm(g))
        assert kernel is geo._q_gnorm
        assert np.all(np.abs(values - kernel(*operands) ** 2) <= band)
        q = geo.hessian_curvature_from_metric(g)
        pair_asymmetry = np.abs(q - np.swapaxes(q, -4, -2)).max()  # swapping slots 1 and 3
        assert pair_asymmetry >= 0.01 if name == "twist2d" else pair_asymmetry < 1e-3

    @HYPOTHESIS
    @given(n=st.sampled_from((2, 3)), seed=st.integers(0, 2**32 - 1), copies=st.integers(1, 5),
           log_cond=st.floats(0.0, 8.0), cancel=st.booleans())
    def test_sup_equals_the_full_chain(self, n, seed, copies, log_cond, cancel):
        with pytest.MonkeyPatch.context() as patch:
            g, want = random_q_metric(patch, n, seed, copies, log_cond, cancel)
            (values, band, kernel, operands), = screen_records(patch, lambda: geo.sup_q_gnorm(g))
            assert np.all(np.abs(values - kernel(*operands) ** 2) <= band)
            assert np.array_equal(geo.sup_q_gnorm(g), want.max())

    @HYPOTHESIS
    @given(n=st.sampled_from((2, 3)), seed=st.integers(0, 2**32 - 1), copies=st.integers(1, 5),
           log_cond=st.floats(0.0, 8.0), cancel=st.booleans())
    def test_spectral_bounds_hold_the_kernel(self, n, seed, copies, log_cond, cancel):
        # the coarse level: lo <= |Q|_g <= hi at every node where its bounds
        # are finite; they are not where the closed-form band of g^-1 reaches
        # its smallest eigenvalue (cond(g) above about 8e5 at n = 3)
        with pytest.MonkeyPatch.context() as patch:
            g, want = random_q_metric(patch, n, seed, copies, log_cond, cancel)
            operands, (mid, half) = slab_bounds(patch, g)
            assert np.array_equal(geo._q_gnorm(*operands), want)
            finite = np.isfinite(mid) & np.isfinite(half)
            assert np.all(np.abs(want - mid)[finite] <= half[finite])
            assert finite.all() or (n == 3 and log_cond > 5.0)

    @HYPOTHESIS
    @given(n=st.sampled_from((2, 3)), seed=st.integers(0, 2**32 - 1), rows=st.integers(8, 19),
           height=st.sampled_from((None, 2, 3, 4, 5)), edge=st.sampled_from(("first", "last")),
           log_cond=st.floats(0.0, 8.0), cancel=st.booleans())
    # 8 nodes per axis (MIN_NODES): three slabs of 3, 3 and 2 rows, or one
    # slab taller than the grid, whose halo rows wrap onto its own rows
    @example(n=2, seed=0, rows=8, height=3, edge="first", log_cond=2.0, cancel=False)
    @example(n=3, seed=1, rows=8, height=3, edge="last", log_cond=2.0, cancel=False)
    @example(n=2, seed=2, rows=8, height=None, edge="last", log_cond=2.0, cancel=False)
    def test_slabs_give_the_whole_grid_survivors(self, n, seed, rows, height, edge, log_cond, cancel):
        # slabs of `height` rows (None: the real slab height, taller than
        # these grids), where the node of the largest |Q|_g sits on the
        # first or the last row along axis 0: the survivors are the
        # operands of the whole grid at _candidates' nodes of its bounds,
        # and the sup is the full chain's
        with pytest.MonkeyPatch.context() as patch:
            if height is not None:
                patch.setattr(geo, "_SCREEN_CHUNK", height * 8 ** (n - 1) // 2)
            g, want = random_q_metric(patch, n, seed, 0, log_cond, cancel, rows=rows, edge=edge)
            assert int(np.argmax(want)) // (g.grid.num_nodes // rows) == (0 if edge == "first" else rows - 1)
            whole = geo._q_operands(g.components, g.grid.spacings)
            with np.errstate(over="ignore", invalid="ignore"):
                whole_bounds = geo._q_bounds(*whole)
            operands, bounds = slab_bounds(patch, g)
            assert len(slab_rows(g.grid)) == (1 if height is None else -(-rows // height))
            assert all(a.tobytes() == b.tobytes() for a, b in zip(operands + bounds, whole + whole_bounds))
            survivors = []
            original = geo._q_survivors
            patch.setattr(geo, "_q_survivors", lambda metric: survivors.append(original(metric)) or survivors[-1])
            assert np.array_equal(geo.sup_q_gnorm(g), want.max())
            kept = geo._candidates(*whole_bounds, largest=True)
            kept = np.arange(g.grid.num_nodes) if kept is None else kept
            assert all(a.tobytes() == b[kept].tobytes() for a, b in zip(survivors[0], whole))

    @HYPOTHESIS
    @given(n=st.sampled_from((2, 3)), seed=st.integers(0, 2**32 - 1), rows=st.integers(8, 19),
           height=st.sampled_from((2, 3, 4, 5)), edge=st.sampled_from(("first", "last")))
    @example(n=2, seed=0, rows=8, height=3, edge="first")
    @example(n=3, seed=0, rows=8, height=3, edge="last")
    def test_slab_halo_gives_the_whole_grid_stencils(self, n, seed, rows, height, edge):
        # the real stencils on a random smooth potential metric, rolled along
        # axis 0 so that a node of its largest |Q|_g sits on the first or the
        # last row (a roll moves every stencil's bits with it)
        rng = np.random.default_rng(seed)
        grid = PeriodicGrid((rows,) + (8,) * (n - 1), (TWO_PI,) * n)
        x = grid.coordinate_arrays()
        psi = sum(rng.uniform(-0.05, 0.05) * np.cos(sum(int(k) * xi for k, xi in zip(rng.integers(-2, 3, n), x))
                                                     + rng.uniform(0.0, TWO_PI)) for _ in range(4))

        def metric(values):
            return geo.metric_from_potential(geo.PotentialMetric(grid, np.eye(n), ScalarField(grid, values)))

        def full_chain(g):
            return geo.curvature_gnorm(geo.hessian_curvature_from_metric(g), g.inverse_matrices()).ravel()

        top = int(np.argmax(full_chain(metric(psi)))) // (grid.num_nodes // rows)
        g = metric(np.roll(psi, (0 if edge == "first" else rows - 1) - top, axis=0))
        want = full_chain(g)
        assert want.reshape(rows, -1)[0 if edge == "first" else rows - 1].max() == want.max()
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(geo, "_SCREEN_CHUNK", height * 8 ** (n - 1) // 2)
            whole = geo._q_operands(g.components, grid.spacings)
            operands, _ = slab_bounds(patch, g)
            assert all(a.tobytes() == b.tobytes() for a, b in zip(operands, whole))
            assert np.array_equal(geo.sup_q_gnorm(g), want.max())

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

    def test_whitened_screen_sees_few_nodes_of_a_row(self, monkeypatch):
        # bump2d at 128^2, the dominant mode of the benchmark's 2-D flow: A = I,
        # so g^-1 is nearly isotropic where |Q|_g peaks and the spectral bounds
        # are tight there; rows at t = 0 and after one step
        g = geo.metric_from_potential(reg.build_example("bump2d"))
        control = fl.StepControl()
        state = fl.FlowState.initial(g)
        for dt in (0.0, fl.stable_dt(g, control)):
            if dt:
                state = fl.step_tensor(state, dt, control)
            sizes, = kernel_sizes(monkeypatch, ["_q_screen"], lambda: fl.diagnostics_row(state, dt)).values()
            assert 0 < sum(sizes) < 0.02 * g.grid.num_nodes
            monkeypatch.undo()

    def test_flat_falls_back_to_every_node(self, monkeypatch):
        # every node ties, so every node survives and the whitened screen runs on all
        g = geo.metric_from_potential(reg.build_example("flat"))
        operands, bounds = slab_bounds(monkeypatch, g)
        assert geo._candidates(*bounds, largest=True) is None
        sizes, = kernel_sizes(monkeypatch, ["_q_screen"], lambda: geo.sup_q_gnorm(g)).values()
        assert sum(sizes) == g.grid.num_nodes

    def test_bound_that_is_not_finite_makes_a_candidate(self, monkeypatch):
        # one node with g = diag(1e7, 1, 1): the smallest eigenvalue of g^-1,
        # 1e-7, is inside the band of its 3x3 closed form, so m <= 0 there;
        # that node survives, and the bounds still screen every other node
        g, _ = smooth_pair(3)
        comps = g.components.copy()
        comps[0, 0, 0] = pair_stored(np.diag([1e7, 1.0, 1.0]))
        g = geo.MetricField(g.grid, comps)
        operands, (mid, half) = slab_bounds(monkeypatch, g)
        assert np.flatnonzero(~np.isfinite(mid)).tolist() == [0]
        survivors = geo._candidates(mid, half, largest=True)
        finite = np.isfinite(mid)
        screened = np.flatnonzero(finite & (mid + half >= (mid - half)[finite].max()))
        assert survivors.tolist() == [0, *screened] and len(survivors) < 0.02 * g.grid.num_nodes
        sizes = kernel_sizes(monkeypatch, ["_q_screen", "_q_gnorm"], lambda: geo.sup_q_gnorm(g))
        assert sizes["_q_screen"] == [len(survivors)] and len(sizes["_q_gnorm"]) == 1
        monkeypatch.undo()
        want = geo.curvature_gnorm(geo.hessian_curvature_from_metric(g), g.inverse_matrices()).max()
        assert geo.sup_q_gnorm(g) == want

    # measured 2.60 and 19.42 MiB, where 5,310 of 16,384 and 25,980 of
    # 32,768 nodes survive the spectral bounds; with the operands and the
    # bounds formed on the whole grid they were 3.38 and 21.10 MiB, and
    # building Q at every node peaked at 5.56 and 49.6 MiB
    @pytest.mark.parametrize("n, limit_mib", [(2, 2.61), (3, 19.43)])
    def test_peak_memory(self, peak_mib, n, limit_mib):
        g, _ = smooth_pair(n)
        assert peak_mib(lambda: geo.sup_q_gnorm(g))[1] <= limit_mib

    # on a constant metric every node ties, so every node survives both
    # screens; the kernel running on all of them at once peaked at 9.6 and
    # 80.8 MiB
    @pytest.mark.parametrize("n, limit_mib", [(2, 5.56), (3, 49.6)])
    def test_fallback_peak_memory(self, peak_mib, n, limit_mib):
        grid = PeriodicGrid((128, 128) if n == 2 else (32, 32, 32), (TWO_PI,) * n)
        g = geo.metric_from_potential(geo.PotentialMetric(grid, np.eye(n), ScalarField.zeros(grid)))
        sup, peak = peak_mib(lambda: geo.sup_q_gnorm(g))
        assert sup == 0.0
        assert peak <= limit_mib  # measured 4.30 and 22.63 MiB


class TestTorsionScreen:
    @pytest.mark.parametrize("name", ["smooth2", "smooth3", "twist2d"])
    def test_band_bounds_the_screen(self, monkeypatch, name):
        # on the potentials T is rounding noise; on twist2d it is not
        g = reg.build_example("twist2d") if name == "twist2d" else smooth_pair(int(name[-1]))[0]
        (values, band, kernel, operands), = screen_records(monkeypatch,
                                                           lambda: geo.pullback_chern_torsion(g))
        assert kernel.__wrapped__ is geo._torsion_gnorm  # gathered per chunk from the pair-stored operands
        exact = kernel(*operands)
        assert np.all(np.abs(values - exact**2) <= band)
        assert exact.max() >= 0.01 if name == "twist2d" else exact.max() < 1e-12

    @HYPOTHESIS
    @given(n=st.sampled_from((2, 3)), seed=st.integers(0, 2**32 - 1), copies=st.integers(1, 5),
           log_cond=st.floats(0.0, 8.0))
    def test_sup_equals_the_full_chain(self, n, seed, copies, log_cond):
        # random pair-stored metric derivatives [ij, k] on 4^n nodes (every d
        # the library forms is symmetric in i, j), g and g^-1 pair-stored as
        # the bundle keeps them; the node with the largest torsion norm is
        # repeated at `copies` random nodes
        rng = np.random.default_rng(seed)
        nodes = 4**n
        first = rng.standard_normal((nodes, len(geo.sym_pairs(n)), n)) * 10.0 ** rng.uniform(-3, 3, (nodes, 1, 1))
        gmat = rotated(10.0 ** rng.uniform(0.0, log_cond, (nodes, n)), rng)
        g, ginv = pair_stored(gmat), pair_stored(np.linalg.inv(gmat))
        top = int(np.argmax(geo._gathering(geo._torsion_gnorm)(first, ginv, g)))
        for k in rng.choice(nodes, copies, replace=False):
            first[k], g[k], ginv[k] = first[top], g[top], ginv[top]
        d, full_ginv, full_g = geo._gathered_partials(first), geo.sym_matrices(ginv, n), geo.sym_matrices(g, n)
        norm = geo._sup_torsion_gnorm((first, ginv, g))
        assert np.array_equal(norm, unscreened_torsion_gnorm(geo._torsion(d, full_ginv), full_g, full_ginv).max())

    @pytest.mark.parametrize("n", [2, 3])
    def test_smooth_sup_equals_the_full_chain(self, n):
        g, _ = smooth_pair(n)
        assert geo.pullback_chern_torsion(g)[1] == full_kernels(n)["torsion"][2].max()

    @settings(max_examples=100)
    @given(n=st.sampled_from((2, 3)), seed=st.integers(0, 2**32 - 1), log_cond=st.floats(0.0, 8.0),
           inverse=st.sampled_from(("lapack", "adjugate", "perturbed")))
    def test_closed_form_band_holds_the_kernel(self, n, seed, log_cond, inverse):
        # non-Hessian derivatives (symmetric in the metric's pair only, a fifth
        # of the nodes Hessian, where T = 0), g with cond up to 1e8 at scales
        # 1e-3 to 1e3, and the kernel's g^-1 from LAPACK, from the adjugate, or
        # LAPACK's perturbed by up to 1e-3 relatively, which only the residual
        # term of the band covers; where the closed form has no band (its
        # determinant has lost its digits) the screen is 0 within the
        # kernel's bound, so the band holds, finite, at every node
        rng = np.random.default_rng(seed)
        nodes = 64
        spectrum = 10.0 ** rng.uniform(0.0, log_cond, (nodes, n))
        gmat = rotated(spectrum, rng) * 10.0 ** rng.uniform(-3, 3, (nodes, 1, 1))
        gmat = 0.5 * (gmat + np.swapaxes(gmat, -1, -2))
        d = rng.standard_normal((nodes, n, n, n)) * 10.0 ** rng.uniform(-3, 3, (nodes, 1, 1, 1))
        d = 0.5 * (d + np.swapaxes(d, -1, -2))
        hessian = rng.random(nodes) < 0.2
        stored = d.reshape(nodes, -1)[:, :len(geo.sym_indices(n, 3))]
        d[hessian] = np.take(stored, geo.sym_table(n, 3), axis=-1)[hessian]
        ginv = geo.sym_inverse_matrices(pair_stored(gmat), n) if inverse == "adjugate" else np.linalg.inv(gmat)
        if inverse == "perturbed":
            noise = rng.standard_normal(ginv.shape) * 10.0 ** rng.uniform(-12.0, -3.0, (nodes, 1, 1))
            ginv = ginv * (1.0 + noise + np.swapaxes(noise, -1, -2))
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):  # as _sup_torsion_gnorm runs it
            sq, band = geo._torsion_screen(d, ginv, gmat)
        exact = geo._torsion_gnorm(d, ginv, gmat) ** 2
        assert np.all(np.abs(sq - exact) <= band)
        assert np.all(exact[hessian] == 0.0) and np.all(sq[hessian] == 0.0)


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
        smallest, largest, band = geo._pencil_screen(pair_stored(h), geo._inverse_factor(pair_stored(h), n), n)
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
        chunks = -(-g.grid.num_nodes // geo._SCREEN_CHUNK)  # the full chain at t = 0, chunk by chunk
        assert sum(sizes[:chunks]) == g.grid.num_nodes and len(sizes) == chunks + 4 and max(sizes[chunks:]) <= 4


class TestCandidates:
    """The exact kernel runs on under 2% of the nodes of a smooth field (1 to
    4 on the fields here) and on every node of a field where every node
    ties, the fallback; either way on at most one chunk of nodes a call."""

    @pytest.mark.parametrize("flat", [False, True], ids=["smooth", "flat"])
    def test_min_eigenvalue(self, monkeypatch, flat):
        # the value is computed where it is read: the check proves positivity
        # by its certificate, and min_eigenvalue() runs the screened kernel
        g, _ = smooth_pair(3)
        comps = np.broadcast_to(g.components[0, 0, 0], g.components.shape) if flat else g.components
        sizes, = kernel_sizes(monkeypatch, ["sym_min_eigenvalues"],
                              lambda: geo.MetricField(g.grid, comps).min_eigenvalue()).values()
        assert sum(sizes) == g.grid.num_nodes if flat else sizes[0] < 0.02 * g.grid.num_nodes

    def test_min_eigenvalue_ties_across_chunks(self, monkeypatch):
        # one matrix, of smallest eigenvalue 1, at about 3,300 random nodes of
        # 32^3, and a smooth metric above 1 elsewhere: the tying nodes are the
        # candidates, more than one chunk of them, and the first is returned
        g, _ = smooth_pair(3)
        rng = np.random.default_rng(7)
        tied = rng.random(g.grid.shape) < 0.1
        comps = np.where(tied[..., None], pair_stored(rotated(np.array([1.0, 1.5, 2.0]), rng)),
                         g.components + 0.5 * pair_stored(np.eye(3)))
        want = first_extreme(geo.sym_min_eigenvalues(comps, 3))
        found = []
        sizes, = kernel_sizes(monkeypatch, ["sym_min_eigenvalues"],
                              lambda: found.append(geo.smallest_eigenvalue(comps, 3)[:2])).values()
        assert found == [want] and abs(want[0] - 1.0) < 1e-12 and want[1] == np.flatnonzero(tied)[0]
        assert len(sizes) == 2 and sum(sizes) == tied.sum() > geo._SCREEN_CHUNK

    @pytest.mark.parametrize("flat", [False, True], ids=["smooth", "flat"])
    def test_certified_check_runs_no_eigenvalue_kernel(self, monkeypatch, flat):
        # a smooth 32^3 potential metric, as in the benchmark's 3-D report, and
        # a constant one: the certificate proves every node
        g, _ = smooth_pair(3)
        comps = np.broadcast_to(g.components[0, 0, 0], g.components.shape) if flat else g.components
        sizes = kernel_sizes(monkeypatch, ["sym_min_eigenvalues", "smallest_eigenvalue"],
                             lambda: geo.check_metric(comps, 3))
        assert geo._positivity_certificate(comps)[0].all()
        assert sizes == {"sym_min_eigenvalues": [], "smallest_eigenvalue": []}

    @pytest.mark.parametrize("flat", [False, True], ids=["smooth", "flat"])
    def test_riemann(self, monkeypatch, flat):
        # no Riemann kernel runs past the first pass: the Christoffel symbols
        # are formed once per chunk, over every node, whether nodes tie or not
        g = geo.metric_from_potential(reg.build_example("flat")) if flat else smooth_pair(3)[0]
        bundles = []
        sizes, = kernel_sizes(monkeypatch, ["_christoffel"],
                              lambda: bundles.append(geo.curvature_bundle(g, None))).values()
        assert sum(sizes) == g.grid.num_nodes and len(sizes) == -(-g.grid.num_nodes // geo._SCREEN_CHUNK)
        assert bundles[0].sup_riemann == np.abs(geo.riemann_from_gamma(g)).max()

    @pytest.mark.parametrize("flat", [False, True], ids=["smooth", "flat"])
    def test_pencil_and_gnorm(self, monkeypatch, flat):
        # one pencil chain serves both extremes: on their candidates, or on
        # every node of a flat metric with g = g0, as at t = 0
        g, g0 = smooth_pair(2)
        if flat:
            g = g0 = geo.MetricField(g.grid, np.broadcast_to([1.5, 0.1, 1.0], g.components.shape))
        sizes = kernel_sizes(monkeypatch, ["_pencil_eigenvalues", "_q_gnorm"],
                                  lambda: (geo.pencil_eigenvalue_range(g, g0), geo.sup_q_gnorm(g)))
        nodes = g.grid.num_nodes
        if flat:
            assert [sum(s) for s in sizes.values()] == [nodes, nodes]
        else:
            assert [len(s) for s in sizes.values()] == [1, 1]
            assert max(max(s) for s in sizes.values()) < 0.02 * nodes

    def test_pencil_screen_runs_chunk_by_chunk(self, monkeypatch):
        # rows of the benchmark's 2-D flow at t = 0, where g = g0 and every
        # node ties, so the chain falls back to every node, and after one
        # step: the screen sees every node once, never more than a chunk
        g0 = geo.metric_from_potential(reg.build_example("bump2d"))
        control = fl.StepControl()
        state = fl.FlowState.initial(g0)
        for dt in (0.0, fl.stable_dt(g0, control)):
            if dt:
                state = fl.step_tensor(state, dt, control)
            sizes = kernel_sizes(monkeypatch, ["_pencil_screen", "_pencil_eigenvalues"],
                                 lambda: geo.pencil_eigenvalue_range(state.g, g0))
            assert sum(sizes["_pencil_screen"]) == g0.grid.num_nodes
            assert (sum(sizes["_pencil_eigenvalues"]) == g0.grid.num_nodes) == (dt == 0.0)
            monkeypatch.undo()

    def test_pencil_with_one_extreme_falling_back(self, monkeypatch):
        # g = diag(lam(x), 1) against g0 = I: lam < 1 varies, so the smallest
        # extreme has few candidates, while every node attains the largest, 1
        grid = PeriodicGrid((32, 32), (TWO_PI,) * 2)
        x, _ = grid.coordinate_arrays()
        lam = 0.5 + 0.25 * np.cos(x)
        g = geo.MetricField(grid, np.stack([lam, np.zeros_like(lam), np.ones_like(lam)], axis=-1))
        g0 = geo.MetricField(grid, np.broadcast_to([1.0, 0.0, 1.0], g.components.shape))
        smallest, largest, band = geo._pencil_screen(g.components.reshape(-1, 3), g0._inverse_factor(), 2)
        assert geo._candidates(smallest, band, False) is not None
        assert geo._candidates(largest, band, True) is None
        sizes, = kernel_sizes(monkeypatch, ["_pencil_eigenvalues"],
                                   lambda: geo.pencil_eigenvalue_range(g, g0)).values()
        assert sizes == [grid.num_nodes]
        linv = np.linalg.inv(np.linalg.cholesky(g0.matrices()))
        eigs = np.linalg.eigvalsh(linv @ g.matrices() @ np.swapaxes(linv, -1, -2))
        lam_min, lam_max = geo.pencil_eigenvalue_range(g, g0)
        assert np.array_equal(lam_min, eigs[..., 0].min()) and np.array_equal(lam_max, eigs[..., -1].max())

    @pytest.mark.parametrize("case", ["smooth", "flat", "sin1d"])
    def test_torsion(self, monkeypatch, case):
        # at n = 1, where T is zero, every node ties, so the runner's fallback
        # runs the kernel on every node: more than two chunks of them on sin1d
        if case == "smooth":
            g = smooth_pair(3)[0]
        else:
            grid_sizes = (2 * geo._SCREEN_CHUNK + 904,) if case == "sin1d" else None
            g = geo.metric_from_potential(reg.build_example(case, sizes=grid_sizes))
        found = []
        sizes, = kernel_sizes(monkeypatch, ["_torsion_gnorm"],
                              lambda: found.append(geo.pullback_chern_torsion(g))).values()
        nodes = g.grid.num_nodes
        assert sizes[0] < 0.02 * nodes if case == "smooth" else sum(sizes) == nodes
        torsion, norm = found[0]
        assert norm == unscreened_torsion_gnorm(torsion, g.matrices(), g.inverse_matrices()).max()
