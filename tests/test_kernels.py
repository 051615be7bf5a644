import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmestream import (ConstantBudget, ConstantStep, GramCache, InputError, Kernel,
                       LearnerConfig, NumericalError, ZeroBudget, cross_gram, eval_kernel,
                       gram_matrix, inverse_with_jitter, new_state, run_stream,
                       woodbury_append)
from cmestream.kernels import _inverse_factor, clamp_roundoff, grown_capacity
from cmestream.learner import _DELTA_CLAMP_RTOL
from cmestream.operator import NEG_CLAMP_RTOL, Dictionary, OperatorRep, hs_norm_sq
from conftest import run_child

finite_vec = st.lists(st.floats(-5, 5, allow_nan=False), min_size=2, max_size=2)


class TestKernelEval:
    def test_gaussian_at_identical_points(self, gauss03):
        assert eval_kernel(gauss03, (1.0, 0.0), (1.0, 0.0)) == 1.0

    def test_gaussian_closed_form(self, gauss03):
        v = eval_kernel(gauss03, (0.0, 0.0), (0.3, 0.0))
        assert v == pytest.approx(np.exp(-0.5), rel=1e-12)

    def test_gaussian_underflow_far_apart(self, gauss03):
        v = eval_kernel(gauss03, (0.0, 0.0), (10.0, 0.0))
        assert 0.0 <= v < 1e-200

    def test_dimension_mismatch(self, gauss03):
        with pytest.raises(InputError):
            eval_kernel(gauss03, (0.0, 0.0), (1.0, 0.0, 0.0))

    def test_linear_kernel(self):
        k = Kernel.linear(bound=4.0)
        assert eval_kernel(k, (1.0, 2.0), (3.0, -1.0)) == pytest.approx(1.0)

    @given(a=finite_vec, b=finite_vec)
    @settings(max_examples=60, deadline=None)
    def test_symmetry_bitwise(self, a, b):
        k = Kernel.gaussian(0.3)
        assert eval_kernel(k, a, b) == eval_kernel(k, b, a)

    @given(a=finite_vec, b=finite_vec)
    @settings(max_examples=60, deadline=None)
    def test_gaussian_range(self, a, b):
        k = Kernel.gaussian(0.7)
        v = eval_kernel(k, a, b)
        assert 0.0 <= v <= 1.0

    def test_gaussian_needs_bandwidth(self):
        with pytest.raises(InputError):
            Kernel(family="gaussian")

    @pytest.mark.parametrize("keys, message", [
        ({"family": "linear", "bandwidth": 0.3}, "takes no bandwidth"),
        ({"family": "gaussian", "bandwidth": 0.3, "bound": 2.0}, "bound must be 1"),
        ({"family": "custom", "bound": 1.0}, "evaluation function"),
    ])
    def test_from_dict_rejects_keys_the_family_does_not_take(self, keys, message):
        with pytest.raises(InputError, match=message):
            Kernel.from_dict(keys)

    @pytest.mark.parametrize("kernel", [Kernel.gaussian(0.3), Kernel.linear(2.0)])
    def test_from_dict_inverts_to_dict(self, kernel):
        assert Kernel.from_dict(kernel.to_dict()) == kernel

    @pytest.mark.parametrize("make", [
        lambda: Kernel.gaussian(np.nan), lambda: Kernel.gaussian(np.inf),
        lambda: Kernel.linear(np.nan), lambda: Kernel.linear(np.inf),
    ], ids=["gaussian-nan", "gaussian-inf", "linear-nan", "linear-inf"])
    def test_non_finite_bandwidth_or_bound_rejected(self, make):
        with pytest.raises(InputError):
            make()

    def test_custom_kernel(self):
        k = Kernel.custom(lambda A, B: A @ B.T + 1.0, bound=10.0)
        assert eval_kernel(k, (1.0,), (2.0,)) == pytest.approx(3.0)


class TestGram:
    def test_single_point(self, gauss03):
        G = gram_matrix(gauss03, [(0.5, 0.5)])
        assert G.shape == (1, 1) and G[0, 0] == 1.0

    def test_duplicate_points(self, gauss03):
        G = gram_matrix(gauss03, [(0.1, 0.2), (0.1, 0.2)])
        assert np.array_equal(G, np.ones((2, 2)))

    def test_entrywise_matches_eval_and_psd(self, gauss03, rng):
        pts = rng.uniform(-1, 1, (5, 2))
        G = gram_matrix(gauss03, pts)
        for i in range(5):
            for j in range(5):
                assert G[i, j] == eval_kernel(gauss03, pts[i], pts[j])
        assert np.array_equal(G, G.T)
        assert np.linalg.eigvalsh(G).min() >= -1e-10 * np.trace(G)

    def test_empty_list_rejected(self, gauss03):
        with pytest.raises(InputError):
            gram_matrix(gauss03, [])

    def test_larger_random_sets_stay_psd(self, gauss05, rng):
        for n in (10, 40):
            pts = rng.uniform(-2, 2, (n, 3))
            G = gram_matrix(gauss05, pts)
            assert np.array_equal(G, G.T)
            assert np.linalg.eigvalsh(G).min() >= -1e-10 * np.trace(G)


class TestCrossGram:
    def test_equal_lists_match_gram(self, gauss03, rng):
        pts = rng.uniform(-1, 1, (4, 2))
        assert np.array_equal(cross_gram(gauss03, pts, pts), gram_matrix(gauss03, pts))

    def test_single_pair(self, gauss03):
        C = cross_gram(gauss03, [(0.0, 0.0)], [(0.3, 0.0)])
        assert C.shape == (1, 1)
        assert C[0, 0] == eval_kernel(gauss03, (0.0, 0.0), (0.3, 0.0))

    def test_prefix_is_block_of_gram(self, gauss03, rng):
        cols = rng.uniform(-1, 1, (6, 2))
        rows = cols[:3]
        C = cross_gram(gauss03, rows, cols)
        G = gram_matrix(gauss03, cols)
        assert np.allclose(C, G[:3, :], atol=0, rtol=0)

    def test_gaussian_temporaries_are_block_sized(self, gauss03, rng):
        # squares are added one coordinate at a time: no n x m x dim tensor
        rows, cols = rng.uniform(-1, 1, (300, 9)), rng.uniform(-1, 1, (200, 9))
        tracemalloc.start()
        try:
            cross_gram(gauss03, rows, cols)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5 * 300 * 200 * 8

    def test_dim_mismatch(self, gauss03):
        with pytest.raises(InputError):
            cross_gram(gauss03, [(0.0, 0.0)], [(1.0, 2.0, 3.0)])


class TestInverseWithJitter:
    def test_identity_no_jitter(self):
        M, used = inverse_with_jitter(np.eye(3), 0.0)
        assert used == 0.0
        assert np.allclose(M, np.eye(3), atol=1e-14)

    def test_singular_two_by_two_escalates(self):
        G = np.array([[1.0, 1.0], [1.0, 1.0]])
        M, used = inverse_with_jitter(G, 1e-10)
        assert np.all(np.isfinite(M))
        A = G + used * np.eye(2)
        assert np.linalg.norm(A @ M - np.eye(2)) / np.sqrt(2) <= 1e-8
        assert used <= 1e-4 * np.trace(G) / 2

    def test_random_spd_residual(self, rng):
        B = rng.normal(size=(10, 10))
        G = B @ B.T + np.eye(10)
        M, used = inverse_with_jitter(G, 1e-10)
        A = G + used * np.eye(10)
        assert np.linalg.norm(A @ M - np.eye(10)) / np.sqrt(10) <= 1e-8

    def test_not_invertible_raises(self):
        # negative definite: no jitter within the cap can fix it
        with pytest.raises(NumericalError):
            inverse_with_jitter(-np.eye(3), 1e-10)

    def test_nan_jitter_scale_rejected(self, tmp_path):
        # a NaN never passes the escalation cap: a child process turns a hang
        # into a timeout
        proc = run_child(tmp_path, "-c", "import numpy as np; from cmestream import "
                         "inverse_with_jitter; inverse_with_jitter(np.eye(2), np.nan)")
        assert "InputError: jitter_scale must be nonnegative and finite" in proc.stderr

    def test_asymmetric_rejected(self):
        with pytest.raises(InputError):
            inverse_with_jitter(np.array([[1.0, 0.5], [0.0, 1.0]]), 0.0)


class TestWoodburyAppend:
    def test_block_diagonal_append(self):
        out = woodbury_append(np.array([[1.0]]), [0.0], 1.0)
        assert np.allclose(out, np.eye(2), atol=1e-14)

    def test_two_by_two_against_direct(self):
        out = woodbury_append(np.array([[1.0]]), [0.5], 1.0)
        direct = np.linalg.inv(np.array([[1.0, 0.5], [0.5, 1.0]]))
        assert np.allclose(out, direct, rtol=1e-12)

    def test_sequential_appends_match_direct(self, gauss05, rng):
        pts = rng.uniform(-2, 2, (20, 2))
        G = gram_matrix(gauss05, pts)
        jitter = 1e-10 * 1.0
        inv = np.array([[1.0 / (G[0, 0] + jitter)]])
        for d in range(1, 20):
            inv = woodbury_append(inv, G[:d, d], G[d, d] + jitter)
        direct = np.linalg.inv(G + jitter * np.eye(20))
        assert np.allclose(inv, direct, rtol=1e-8, atol=1e-8)

    def test_degenerate_schur_falls_back(self):
        # duplicate column with zero jitter: Schur complement collapses
        G = np.array([[1.0]])
        inv = np.linalg.inv(G)
        with pytest.raises(NumericalError):
            woodbury_append(inv, [1.0], 1.0)

    def test_from_empty(self):
        out = woodbury_append(np.zeros((0, 0)), [], 2.0)
        assert np.allclose(out, [[0.5]])


class TestGramCache:
    def test_incremental_matches_batch(self, gauss05, rng):
        cache = GramCache(gauss05, jitter_scale=1e-10)
        pts = rng.uniform(-2, 2, (15, 2))
        for p in pts:
            cache.append(p)
        assert np.array_equal(cache.G, gram_matrix(gauss05, pts))

    def test_lazy_inverse_tracks_appends(self, gauss05, rng):
        cache = GramCache(gauss05, jitter_scale=1e-10)
        pts = rng.uniform(-2, 2, (30, 2))
        for p in pts[:10]:
            cache.append(p)
        assert not cache.has_inverse
        inv10 = cache.inverse()
        A = cache.G + cache.jitter * np.eye(10)
        assert np.linalg.norm(A @ inv10 - np.eye(10)) / np.sqrt(10) <= 1e-8
        for p in pts[10:]:
            cache.append(p)
        inv30 = cache.inverse()
        direct, _ = inverse_with_jitter(cache.G + cache.jitter * np.eye(30), 0.0)
        assert np.allclose(inv30, direct, rtol=1e-8, atol=1e-8)

    def test_leading_valid_stops_where_kernel_vector_raises(self, gauss05):
        # an empty cache takes the first point's dimension
        cache = GramCache(gauss05)
        good = [np.zeros(2), np.ones(2)]
        assert cache.leading_valid([]) == 0
        assert cache.leading_valid(good + [np.ones(3), np.ones(2)]) == 2
        cache.append(np.zeros(2))
        for bad in (np.array([0.0, np.nan]), np.ones(3), np.ones((2, 2)), np.zeros(0),
                    "abc", object(), [1.0, [2.0]]):
            with pytest.raises(InputError):
                cache.kernel_vector(bad)
            assert cache.leading_valid(good + [bad] + good) == 2
            assert cache.leading_valid([bad] + good) == 0

    def test_duplicate_appends_survive(self, gauss05):
        cache = GramCache(gauss05, jitter_scale=1e-10)
        cache.append([0.0, 0.0])
        cache.inverse()
        cache.append([0.0, 0.0])    # exactly duplicated atom
        cache.append([1.0, 1.0])
        inv = cache.inverse()
        assert np.all(np.isfinite(inv))

    def test_degenerate_pivot_refactors_at_escalated_jitter(self, gauss05):
        cache = GramCache(gauss05, jitter_scale=0.0)
        cache.append([0.0, 0.0])
        cache.inverse()
        assert cache.jitter == 0.0
        cache.append([0.0, 0.0])    # pivot^2 is exactly 0 at zero jitter
        assert cache.jitter > 0.0
        A = cache.G + cache.jitter * np.eye(2)
        assert np.linalg.norm(A @ cache.inverse() - np.eye(2)) / np.sqrt(2) <= 1e-8
        assert np.allclose(cache.solve(np.ones(2)), cache.inverse() @ np.ones(2))

    @pytest.mark.parametrize("filled, point", [
        (False, []), (False, [[0.0, 0.0], [1.0, 1.0]]), (False, [np.nan, 0.0]),
        (True, [0.0, 0.0, 0.0]), (True, [[0.0, 0.0], [1.0, 1.0]]), (True, [0.0, np.nan]),
    ], ids=["empty-no-coordinate", "empty-two-points", "empty-nan",
            "filled-wrong-dim", "filled-two-points", "filled-nan"])
    def test_bad_point_rejected(self, gauss05, filled, point):
        cache = GramCache(gauss05)
        if filled:
            cache.append([0.5, 0.5])
        with pytest.raises(InputError):
            cache.kernel_vector(point)
        with pytest.raises(InputError):
            cache.append(point)
        assert cache.size == int(filled)

    def test_find_returns_first_index(self, gauss05):
        cache = GramCache(gauss05)
        assert cache.find([0.0, 0.0]) is None
        for p in ([1.0, 2.0], [0.0, -0.0], [1.0, 2.0], [-0.0, 0.0]):
            cache.append(p)
        assert cache.find([1.0, 2.0]) == 0
        assert cache.find(np.array([-0.0, 0.0])) == 1     # signed zeros merge
        assert cache.find([2.0, 1.0]) is None
        assert cache.find([1.0]) is None

    @pytest.mark.parametrize("bandwidth", [1e-3, 1e3])
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_gaussian_kernel_vector_bitwise_cross_gram(self, rng, dim, bandwidth):
        kernel = Kernel.gaussian(bandwidth)
        query = rng.uniform(-1, 1, dim)
        query[0] = -0.0
        near = query + bandwidth * rng.normal(0, 1, (20, dim))   # values off 0 and 1
        signed = np.zeros((2, dim))
        signed[1] = -0.0
        pts = np.vstack([near, rng.uniform(-1, 1, (10, dim)), signed, query])
        cache = GramCache(kernel)
        for p in pts:
            cache.append(p)
        for q in (query, np.zeros(dim), -np.zeros(dim), pts[3]):
            kv = cache.kernel_vector(q)
            assert np.array_equal(kv.view(np.int64),
                                  cross_gram(kernel, pts, q[None, :])[:, 0].view(np.int64))
        assert np.array_equal(cache.G, gram_matrix(kernel, pts))

    def test_composed_woodbury_property(self, gauss05, rng):
        # bordered updates composed n times equal the direct inverse, n <= 50
        cache = GramCache(gauss05, jitter_scale=1e-10)
        pts = rng.uniform(-2, 2, (50, 2))
        cache.append(pts[0])
        cache.inverse()
        for p in pts[1:]:
            cache.append(p)
        A = cache.G + cache.jitter * np.eye(50)
        direct = np.linalg.solve(A, np.eye(50))
        err = np.linalg.norm(cache.inverse() - direct) / np.linalg.norm(direct)
        assert err <= 1e-8


def _l1_laplace(a, b):
    # symmetric bitwise: |a - b| == |b - a| and the same summation order
    return np.exp(-np.abs(a[:, None, :] - b[None, :, :]).sum(axis=2))


GRAM_KERNELS = {
    "gaussian-1d": (Kernel.gaussian(0.5), 1),
    "gaussian-2d": (Kernel.gaussian(0.5), 2),
    "gaussian-3d": (Kernel.gaussian(0.5), 3),
    "linear": (Kernel.linear(9.0), 3),
    "custom": (Kernel.custom(_l1_laplace, 1.0), 2),
}


def _gram_points(rng, dim, n=40):
    pts = rng.uniform(-1, 1, (n, dim))
    pts[5] = pts[2]                     # an exact duplicate
    pts[7] = 0.0
    pts[8] = -0.0                       # signed zeros
    return pts


def _two_caches(kernel, pts, jitter_scale=1e-10):
    """``read`` keeps its Gram buffer current through appends, as the
    learner's Y cache does (first read after the first append);
    ``built`` never reads ``G`` before the end."""
    read, built = GramCache(kernel, jitter_scale), GramCache(kernel, jitter_scale)
    for n, p in enumerate(pts):
        read.append(p)
        built.append(p)
        if n == 0:
            read.G
    return read, built


class TestGramOnDemand:
    def test_no_gram_buffer_until_read(self, gauss05, rng):
        pts = rng.uniform(-2, 2, (600, 2))
        cache = GramCache(gauss05)
        tracemalloc.start()
        try:
            for p in pts:
                cache.append(p)
            held = tracemalloc.get_traced_memory()[0]
            cache.G
            with_gram = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        square = grown_capacity(16, 600) ** 2 * 8     # the Gram buffer of 600 points
        assert held < square / 8
        assert with_gram - held >= square

    @pytest.mark.parametrize("name", list(GRAM_KERNELS))
    def test_built_gram_bitwise_equals_appended(self, rng, name):
        kernel, dim = GRAM_KERNELS[name]
        read, built = _two_caches(kernel, _gram_points(rng, dim))
        assert np.array_equal(read.G.view(np.int64), built.G.view(np.int64))
        assert np.array_equal(built.G, built.G.T)

    @pytest.mark.parametrize("name", list(GRAM_KERNELS))
    def test_first_solve_factor_bitwise(self, rng, name):
        kernel, dim = GRAM_KERNELS[name]
        pts = _gram_points(rng, dim)
        read, built = _two_caches(kernel, pts)
        rhs = rng.normal(size=len(pts))
        assert np.array_equal(read.solve(rhs), built.solve(rhs))
        assert read.jitter == built.jitter
        assert np.array_equal(read._factor_view(), built._factor_view())
        if kernel.family == "gaussian":     # the appended Gram is gram_matrix
            R, jitter = _inverse_factor(gram_matrix(kernel, pts), 1e-10)
            assert np.array_equal(built._factor_view(), R) and built.jitter == jitter

    def test_refactor_on_degenerate_pivot_bitwise(self, gauss05, rng):
        pts = rng.uniform(-1, 1, (12, 2))
        read, built = _two_caches(gauss05, pts[:6], jitter_scale=0.0)
        for cache in (read, built):
            cache.inverse()
            for p in np.vstack([pts[3], pts[6:]]):     # pts[3] repeats: pivot^2 0
                cache.append(p)
        assert built.jitter > 0.0 and read.jitter == built.jitter
        assert np.array_equal(read._factor_view(), built._factor_view())

    @pytest.mark.parametrize("dim", [1, 2])
    def test_points_is_a_copy(self, gauss05, rng, dim):
        # a (size, 1) slice of the coordinate-major buffer is already C-contiguous
        pts = rng.uniform(-1, 1, (5, dim))
        cache = GramCache(gauss05)
        for p in pts:
            cache.append(p)
        cache.points[:] = 9.0
        assert np.array_equal(cache.points, pts)


class TestBufferLayout:
    @pytest.mark.parametrize("need", [2 ** k for k in range(4, 12)])
    def test_no_row_stride_is_a_multiple_of_4k(self, gauss05, need):
        # a 4 KiB-multiple row stride maps every row to the same cache sets
        cache = GramCache(gauss05)
        cache.append([0.0, 0.0])
        cache.G
        cache.inverse()                 # both square buffers exist
        cache._grow(need)
        state = new_state(LearnerConfig(lam=0.1, step_schedule=ConstantStep(0.2),
                                        budget_schedule=ZeroBudget(),
                                        kernel_x=gauss05, kernel_y=gauss05))
        state._grow(need)
        buffers = {"points": cache._pts, "G": cache._G, "R": cache._R, "Wf": state._Wf,
                   "Ut": state._Ut, "Vt": state._Vt}
        for name, buf in buffers.items():
            assert buf.shape[1] == grown_capacity(16, need), name
            assert buf.strides[0] % 4096 != 0, name

    def test_no_capacity_is_a_multiple_of_256(self):
        # so no row stride of float64 capacity buffers is a multiple of 2 KiB
        caps = [grown_capacity(0, 1)]
        while caps[-1] < 2 ** 24:
            caps.append(grown_capacity(caps[-1], caps[-1] + 1))
        assert caps[:5] == [16, 20, 25, 31, 38]
        assert all(cap % 256 for cap in caps)

    @pytest.mark.parametrize("dim", list(range(1, 10)))
    def test_kernel_vector_bitwise_cross_gram_across_growth(self, rng, dim):
        # the caches add squared coordinate rows, cross_gram squared
        # coordinate slices, both in coordinate order; 16, 20, 25 and 31
        # points fill a capacity exactly
        kernel = Kernel.gaussian(0.7)
        pts = _gram_points(rng, dim)
        queries = np.vstack([rng.uniform(-1, 1, (3, dim)), pts[3], -np.zeros(dim)])
        for n in (15, 16, 17, 20, 21, 25, 26, 31, 32):
            want = cross_gram(kernel, pts[:n], queries).T
            for cache in _two_caches(kernel, pts[:n]):
                got = np.array([cache.kernel_vector(q) for q in queries])
                assert np.array_equal(got.view(np.int64), want.view(np.int64))

    @pytest.mark.parametrize("kernel, dim", [
        (Kernel.gaussian(0.7), 1), (Kernel.gaussian(0.7), 2), (Kernel.gaussian(0.7), 3),
        (Kernel.gaussian(0.7), 9), (Kernel.linear(4.0), 2),
        (Kernel.custom(lambda a, b: (1.0 + a @ b.T) ** 2, 16.0), 2),
    ], ids=["gauss-1", "gauss-2", "gauss-3", "gauss-9", "linear", "custom"])
    def test_kernel_matrix_columns_are_kernel_vectors(self, rng, kernel, dim):
        # a block's kernel matrix, column for column what each point's
        # kernel_vector gives; 16, 20 and 25 points fill a capacity exactly
        pts = _gram_points(rng, dim)
        queries = np.vstack([rng.uniform(-1, 1, (30, dim)), pts[3], -np.zeros(dim)])
        for n in (0, 1, 16, 17, 20, 25, 26):
            cache = GramCache(kernel)
            for p in pts[:n]:
                cache.append(p)
            got = cache.kernel_matrix(queries)
            want = np.array([cache.kernel_vector(q) for q in queries]).reshape(32, n).T
            assert got.shape == (n, 32)
            assert np.array_equal(got.view(np.int64), want.view(np.int64))

    @pytest.mark.parametrize("dim", [3, 9])
    def test_squares_added_in_coordinate_order(self, rng, dim):
        # exp(-(((d0^2 + d1^2) + d2^2) + ...) / (2h^2)), one addition at a time
        kernel = Kernel.gaussian(0.7)
        pts = _gram_points(rng, dim)
        queries = rng.uniform(-1, 1, (5, dim))
        sq = np.zeros((len(queries), len(pts)))
        for i, q in enumerate(queries):
            for j, p in enumerate(pts):
                for k in range(dim):
                    diff = float(p[k] - q[k])
                    sq[i, j] += diff * diff
        want = np.exp(-sq / (2.0 * kernel.bandwidth ** 2))
        assert np.array_equal(cross_gram(kernel, queries, pts).view(np.int64),
                              want.view(np.int64))
        for cache in _two_caches(kernel, pts):
            got = np.array([cache.kernel_vector(q) for q in queries])
            assert np.array_equal(got.view(np.int64), want.view(np.int64))

    def test_linear_replay_bitwise_from_coordinate_rows(self, rng):
        # the replay reads each point back out of its coordinate-major
        # column; from dim 5 a strided point rounds the diagonal differently
        read, built = _two_caches(Kernel.linear(9.0), _gram_points(rng, 9))
        assert np.array_equal(read.G.view(np.int64), built.G.view(np.int64))


def _diag_rep(a: float, b: float) -> OperatorRep:
    """A two-atom rep whose ``hs_norm_sq`` terms are exactly ``a`` and ``b``:
    W = I, G_X = I and G_Y = diag(a, b) (an indefinite custom kernel)."""
    same = lambda r, c: (r[:, :1] == c[:, 0]).astype(float)
    diag = lambda r, c: np.where(r[:, :1] == c[:, 0], r[:, :1], 0.0)
    return OperatorRep(dict=Dictionary(np.array([[0.0], [1.0]]), np.array([[a], [b]])),
                       W=np.eye(2), kernel_x=Kernel.custom(same, 1.0),
                       kernel_y=Kernel.custom(diag, 1.0))


def _step_residual(raw, scale):
    """``step``'s clamped residual ``delta / eta^2`` for a second sample whose
    terms are ``k_X(x,x) |g|^2 = (scale + raw)/2`` and ``fit = (scale - raw)/2``:
    k_X is 1 everywhere, and k_Y (indefinite when ``raw < 0``) has G_Y = 4 fit
    on the 1-d points 0 and 1, so that at eta = 1/4 the y-side solve is 1/2."""
    eta, fit = 0.25, (scale - raw) / 2.0
    g = 4.0 * fit                           # k_Y(0, 0)
    beta = 2.0 * fit + g * eta              # k_Y(0, 1): r = beta - g eta = 2 fit
    sigma = (scale + raw) / 2.0 + 2.0 * beta * eta - g * eta * eta     # k_Y(1, 1)
    table = {(0.0, 0.0): g, (0.0, 1.0): beta, (1.0, 0.0): beta, (1.0, 1.0): sigma}
    k_y = lambda r, c: np.array([[table[a[0], b[0]] for b in c] for a in r])
    ones = lambda r, c: np.ones((r.shape[0], c.shape[0]))
    cfg = LearnerConfig(lam=0.1, step_schedule=ConstantStep(eta),
                        budget_schedule=ConstantBudget(1.0), jitter_scale=0.0,
                        kernel_x=Kernel.custom(ones, 1.0), kernel_y=Kernel.custom(k_y, 4.0))
    state, _ = run_stream(cfg, [([0.0], [0.0]), ([1.0], [1.0])])
    return state.stats[-1].delta / eta ** 2


def _operator_norm_sq(raw, scale):
    # terms a + b = raw with |a| + |b| = scale, for |raw| < scale
    return hs_norm_sq(_diag_rep((scale + raw) / 2.0, (raw - scale) / 2.0))


class TestRoundoffClamp:
    SITES = {
        "learner-delta": (_step_residual, _DELTA_CLAMP_RTOL,
                          "compression residual came out negative: "),
        "operator-hs-norm-sq": (_operator_norm_sq, NEG_CLAMP_RTOL,
                                "squared norm came out negative beyond round-off: "),
    }

    @pytest.mark.parametrize("site", list(SITES))
    def test_three_branches_at_each_call_site(self, site):
        clamp, rtol, message = self.SITES[site]
        assert clamp(0.5, 2.0) == pytest.approx(0.5, rel=1e-15)
        assert clamp(0.0, 2.0) == 0.0
        assert clamp(-0.1 * rtol * 2.0, 2.0) == 0.0
        with pytest.raises(NumericalError) as err:
            clamp(-10.0 * rtol * 2.0, 2.0)
        assert str(err.value).startswith(message)

    @pytest.mark.parametrize("rtol", [_DELTA_CLAMP_RTOL, NEG_CLAMP_RTOL])
    def test_band_edges(self, rtol):
        assert clamp_roundoff(3.0, 4.0, rtol, "m") == 3.0
        assert clamp_roundoff(-rtol * 4.0, 4.0, rtol, "m") == 0.0
        with pytest.raises(NumericalError, match=r"^m: -"):
            clamp_roundoff(np.nextafter(-rtol * 4.0, -1.0), 4.0, rtol, "m")
        # a zero scale still clamps a denormal-sized negative
        assert clamp_roundoff(-1e-320, 0.0, rtol, "m") == 0.0
