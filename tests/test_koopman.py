import json
import tracemalloc

import numpy as np
import pytest

from cmestream import (ConstantBudget, ConstantStep, CubicBudget, Dictionary,
                       DuffingTrajectories, GridSpec, InputError, Kernel, KoopmanSpectrum,
                       LearnerConfig, OperatorRep, ZeroBudget,
                       cross_gram, eigen_spectrum, eval_eigenfunction, eval_kernel,
                       generate_stream, grid_eval, gram_matrix, hs_norm, koopman_matrix,
                       koopman_spectrum, run_stream, save_rep)
from cmestream.cli import main
from cmestream.koopman import RESIDUAL_RTOL, _normalize_pair
from conftest import random_rep, run_child


def dynamics_rep(kernel, xs, ys, W):
    return OperatorRep(dict=Dictionary(xs, ys), W=W, kernel_x=kernel, kernel_y=kernel)


class TestKoopmanMatrix:
    def test_identity_dynamics(self, gauss05, rng):
        xs = rng.uniform(-1, 1, (4, 2))
        B = rng.normal(size=(4, 4))
        W = B @ B.T
        rep = dynamics_rep(gauss05, xs, xs.copy(), W)
        M = koopman_matrix(rep)
        assert np.allclose(M, W.T @ gram_matrix(gauss05, xs), rtol=1e-12)

    def test_zero_coefficients(self, gauss05, rng):
        xs = rng.uniform(-1, 1, (3, 2))
        rep = dynamics_rep(gauss05, xs, rng.uniform(-1, 1, (3, 2)), np.zeros((3, 3)))
        assert np.array_equal(koopman_matrix(rep), np.zeros((3, 3)))

    def test_entrywise_double_loop(self, gauss05, rng):
        xs = rng.uniform(-1, 1, (3, 2))
        ys = rng.uniform(-1, 1, (3, 2))
        W = rng.normal(size=(3, 3))
        M = koopman_matrix(dynamics_rep(gauss05, xs, ys, W))
        for i in range(3):
            for j in range(3):
                want = sum(W[k, i] * eval_kernel(gauss05, ys[k], xs[j]) for k in range(3))
                assert M[i, j] == pytest.approx(want, rel=1e-12)

    def test_dim_mismatch_rejected(self, gauss05, rng):
        rep = OperatorRep(dict=Dictionary(rng.uniform(size=(2, 2)),
                                          rng.uniform(size=(2, 3))),
                          W=np.zeros((2, 2)), kernel_x=gauss05, kernel_y=gauss05)
        with pytest.raises(InputError):
            koopman_matrix(rep)

    def test_kernel_mismatch_rejected(self, gauss03, gauss05, rng):
        rep = OperatorRep(dict=Dictionary(rng.uniform(size=(2, 2)),
                                          rng.uniform(size=(2, 2))),
                          W=np.zeros((2, 2)), kernel_x=gauss03, kernel_y=gauss05)
        with pytest.raises(InputError):
            koopman_matrix(rep)


class TestEigenSpectrum:
    def test_identity_matrix(self):
        spec = eigen_spectrum(np.eye(4), 4)
        assert np.allclose(spec.eigenvalues, np.ones(4))
        assert np.all(spec.residuals <= 1e-12)

    def test_diagonal_ordering_and_vectors(self):
        spec = eigen_spectrum(np.diag([0.5, 0.9]), 2)
        assert np.allclose(spec.eigenvalues, [0.9, 0.5])
        assert abs(spec.eigenvectors[1, 0]) == pytest.approx(1.0)
        assert abs(spec.eigenvectors[0, 1]) == pytest.approx(1.0)

    def test_random_residuals(self, rng):
        M = rng.normal(size=(5, 5))
        spec = eigen_spectrum(M, 5)
        for i in range(5):
            v = spec.eigenvectors[:, i]
            res = np.linalg.norm(M @ v - spec.eigenvalues[i] * v)
            assert res <= 1e-6 * np.linalg.norm(v) * max(1.0, abs(spec.eigenvalues[i]))

    def test_sign_convention_deterministic(self, rng):
        M = rng.normal(size=(4, 4))
        M = M + M.T                     # real spectrum
        s1 = eigen_spectrum(M, 4)
        s2 = eigen_spectrum(M.copy(), 4)
        assert np.array_equal(s1.eigenvectors, s2.eigenvectors)
        for i in range(4):
            v = s1.eigenvectors[:, i].real
            nz = np.nonzero(np.abs(v) > 1e-12)[0]
            assert v[nz[0]] > 0

    def test_conjugate_pairs_kept(self):
        M = np.array([[0.0, -1.0], [1.0, 0.0]])   # eigenvalues +-i
        spec = eigen_spectrum(M, 2)
        assert spec.eigenvalues[0] == pytest.approx(np.conj(spec.eigenvalues[1]))
        assert np.allclose(spec.eigenvectors[:, 0],
                           np.conj(spec.eigenvectors[:, 1]), atol=1e-12)

    def test_k_out_of_range(self):
        with pytest.raises(InputError):
            eigen_spectrum(np.eye(3), 4)

    def test_sorted_by_modulus(self, rng):
        M = rng.normal(size=(6, 6))
        spec = eigen_spectrum(M, 6)
        mods = np.abs(spec.eigenvalues)
        assert np.all(np.diff(mods) <= 1e-12)


def eig_pairs(M):
    """``np.linalg.eig``'s pairs, normalized as ``eigen_spectrum`` normalizes."""
    vals, vecs = np.linalg.eig(M)
    pairs = [_normalize_pair(vals[i], vecs[:, i]) for i in range(len(vals))]
    return np.array([lam for lam, _ in pairs]), np.array([v for _, v in pairs]).T


def readme_duffing_rep(n_traj, budget):
    """The README Duffing learner over the first ``10 * n_traj`` pairs."""
    kernel = Kernel.gaussian(0.3)
    xs, ys = generate_stream(DuffingTrajectories(
        n_traj=n_traj, steps_per_traj=10, seed=0))
    cfg = LearnerConfig(lam=0.0012, step_schedule=ConstantStep(0.2),
                        budget_schedule=budget, kernel_x=kernel, kernel_y=kernel)
    return run_stream(cfg, zip(xs, ys))[0].snapshot_rep()


class TestInverseIteration:
    """Eigenvalues from ``eigvals``; vectors by inverse iteration, only for
    the pairs asked for.  They must agree with ``np.linalg.eig``."""

    def test_random_pairs_match_eig(self, rng):
        n_complex = 0
        for _ in range(20):
            d = int(rng.integers(5, 61))
            M = rng.normal(size=(d, d)) / np.sqrt(d)
            spec = eigen_spectrum(M, d)
            vals, vecs = eig_pairs(M)
            n_complex += int(np.sum(spec.eigenvalues.imag != 0))
            for lam, v in zip(spec.eigenvalues, spec.eigenvectors.T):
                j = int(np.argmin(np.abs(vals - lam)))
                sep = np.min(np.abs(np.delete(vals, j) - vals[j]))
                assert abs(lam - vals[j]) <= 1e-12
                assert np.linalg.norm(v - vecs[:, j]) <= 1e-8 / min(sep, 1.0)
        assert n_complex >= 100

    @pytest.mark.parametrize("n_traj, budget", [(355, CubicBudget(2.0)), (120, ZeroBudget())],
                             ids=["readme-cubic", "zero-budget-1200"])
    def test_duffing_operators_match_eig(self, n_traj, budget):
        rep = readme_duffing_rep(n_traj, budget)
        spec = koopman_spectrum(rep, 5)
        vals, vecs = eig_pairs(koopman_matrix(rep))
        order = np.lexsort((-vals.imag, -vals.real, -np.abs(vals)))[:5]
        assert np.max(np.abs(spec.eigenvalues - vals[order])) <= 1e-13
        assert np.max(np.abs(spec.eigenvectors - vecs[:, order])) <= 1e-9
        assert np.any(spec.eigenvalues.imag != 0)
        assert np.all(spec.residuals <= RESIDUAL_RTOL)

    def test_identity_gets_independent_vectors(self):
        spec = eigen_spectrum(np.eye(4), 4)
        assert np.array_equal(spec.eigenvalues, np.ones(4))
        assert np.linalg.svd(spec.eigenvectors, compute_uv=False)[-1] >= 0.5

    @pytest.mark.parametrize("a", [0.0, 0.5])
    def test_jordan_block_gets_parallel_vectors(self, a):
        # as np.linalg.eig: both pairs carry the one eigenvector e_1
        spec = eigen_spectrum(np.array([[a, 1.0], [0.0, a]]), 2)
        assert np.array_equal(spec.eigenvalues, [a, a])
        assert np.allclose(spec.eigenvectors, [[1.0, 1.0], [0.0, 0.0]], atol=1e-12)
        assert np.all(spec.residuals <= 1e-12)

    def test_conjugate_partner_cut_by_k(self):
        # k may keep one member of a complex pair; its vector is still exact
        M = np.array([[0.9, -0.6, 0.0], [0.15, 0.9, 0.0], [0.1, 0.2, 0.2]])
        spec = eigen_spectrum(M, 1)
        assert spec.eigenvalues[0] == pytest.approx(0.9 + 0.3j)
        vals, vecs = eig_pairs(M)
        j = int(np.argmin(np.abs(vals - spec.eigenvalues[0])))
        assert np.allclose(spec.eigenvectors[:, 0], vecs[:, j], atol=1e-12)

    def test_traced_peak_below_three_matrices(self, gauss05, rng):
        d = 600
        rep = random_rep(rng, gauss05, d)
        koopman_spectrum(rep, 5)            # warm up
        tracemalloc.start()
        try:
            spec = koopman_spectrum(rep, 5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.any(spec.eigenvalues.imag != 0)      # the complex path ran
        assert peak < 3 * d * d * 8

    @staticmethod
    def contract_input(name):
        rng = np.random.default_rng(7)
        M = rng.normal(size=(40, 40)) / np.sqrt(40)
        if name == "read-only":
            M.setflags(write=False)
        elif name == "strided-view":
            M = (rng.normal(size=(80, 80)) / np.sqrt(40))[::2, 1::2]
            assert not M.flags.c_contiguous
        return {"zeros": np.zeros((3, 3)), "identity": np.eye(4),
                "singular-shift": np.full((2, 2), 4.0)}.get(name, M)

    @pytest.mark.parametrize("name", ["writable", "read-only", "strided-view", "zeros",
                                      "identity", "singular-shift"])
    def test_input_unchanged_and_spectrum_as_on_a_copy(self, name):
        # eigen_spectrum shifts a writable M's diagonal in place while it runs
        M = self.contract_input(name)
        k = min(6, M.shape[0])
        before = M.tobytes()
        want = eigen_spectrum(M.copy(), k)
        got = eigen_spectrum(M, k)
        assert M.tobytes() == before
        for field in ("eigenvalues", "eigenvectors", "residuals"):
            assert getattr(got, field).tobytes() == getattr(want, field).tobytes()
        if name == "writable":
            assert np.any(got.eigenvalues.imag != 0)

    def test_exact_zero_pivot_takes_the_retry(self, monkeypatch):
        # 4 - eps rounds to 4, so the first pass for the eigenvalue 0 is singular
        solve, errors = np.linalg.solve, []

        def counting_solve(A, X):
            try:
                return solve(A, X)
            except np.linalg.LinAlgError:
                errors.append(1)
                raise
        monkeypatch.setattr(np.linalg, "solve", counting_solve)
        spec = eigen_spectrum(np.full((2, 2), 4.0), 2)
        assert errors == [1] and np.all(spec.residuals <= 1e-14)

    # a real pair solves on M itself, a complex pair on its own Q
    @pytest.mark.parametrize("M, solves_on_m", [
        (np.array([[2.0, 1.0], [0.0, 1.0]]), True),
        (np.array([[0.9, -0.6, 0.0], [0.15, 0.9, 0.0], [0.1, 0.2, 0.2]]), False)],
        ids=["real-pair", "complex-pair"])
    def test_input_restored_when_a_solve_raises(self, monkeypatch, M, solves_on_m):
        before, seen = M.tobytes(), []

        def failing_solve(A, X):
            seen.append(np.shares_memory(A, M))
            raise RuntimeError("solver failed")
        monkeypatch.setattr(np.linalg, "solve", failing_solve)
        with pytest.raises(RuntimeError, match="solver failed"):
            eigen_spectrum(M, 1)
        assert M.tobytes() == before
        assert seen == [solves_on_m]

    def test_cli_koopman_never_imports_numpy_random(self, gauss05, rng, tmp_path):
        save_rep(random_rep(rng, gauss05, 30), tmp_path / "model.json")
        code = """
import sys
from cmestream.cli import main
assert main(["koopman", "--model", "model.json", "--grid-counts", "5,5"]) == 0
print(sorted(m for m in sys.modules if m.startswith("numpy.random")))
"""
        proc = run_child(tmp_path, "-c", code)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "[]"
        assert (tmp_path / "spectrum.json").exists()


class TestEvalEigenfunction:
    def test_values_at_dictionary_points(self, gauss05, rng):
        xs = rng.uniform(-1, 1, (4, 2))
        W = rng.normal(size=(4, 4))
        rep = dynamics_rep(gauss05, xs, xs.copy(), 0.5 * (W + W.T))
        spec = koopman_spectrum(rep, 3)
        G = gram_matrix(gauss05, xs)
        for i in range(3):
            got = eval_eigenfunction(spec, i, xs)
            assert np.allclose(got, G @ spec.eigenvectors[:, i], atol=1e-10)

    def test_zero_vector_gives_zeros(self, gauss05, rng):
        xs = rng.uniform(-1, 1, (3, 2))
        spec = KoopmanSpectrum(eigenvalues=np.zeros(1, dtype=complex),
                               eigenvectors=np.zeros((3, 1), dtype=complex),
                               residuals=np.zeros(1),
                               source_dict=Dictionary(xs, xs.copy()),
                               kernel=gauss05)
        vals = eval_eigenfunction(spec, 0, rng.uniform(-1, 1, (7, 2)))
        assert np.array_equal(vals, np.zeros(7, dtype=complex))

    def test_matches_per_point_loop(self, gauss05, rng):
        xs = rng.uniform(-1, 1, (4, 2))
        W = rng.normal(size=(4, 4))
        rep = dynamics_rep(gauss05, xs, rng.uniform(-1, 1, (4, 2)), W)
        spec = koopman_spectrum(rep, 2)
        pts = rng.uniform(-2, 2, (50, 2))
        got = eval_eigenfunction(spec, 0, pts)
        v = spec.eigenvectors[:, 0]
        for n, p in enumerate(pts):
            want = sum(v[i] * eval_kernel(gauss05, xs[i], p) for i in range(4))
            assert got[n] == pytest.approx(want, abs=1e-12)

    def test_index_out_of_range(self, gauss05, rng):
        rep = random_rep(rng, gauss05, 3)
        spec = koopman_spectrum(rep, 2)
        with pytest.raises(InputError):
            eval_eigenfunction(spec, 5, [(0.0, 0.0)])

    def test_linearity_in_coefficients(self, gauss05, rng):
        xs = rng.uniform(-1, 1, (4, 2))
        rep = dynamics_rep(gauss05, xs, xs.copy(), np.eye(4))
        spec = koopman_spectrum(rep, 4)
        pts = rng.uniform(-1, 1, (6, 2))
        f0 = eval_eigenfunction(spec, 0, pts)
        f1 = eval_eigenfunction(spec, 1, pts)
        combo = spec.eigenvectors[:, 0] + spec.eigenvectors[:, 1]
        K = np.array([[eval_kernel(gauss05, xi, p) for xi in xs] for p in pts])
        assert np.allclose(K @ combo, f0 + f1, atol=1e-12)


class TestBlockedEvaluation:
    """``eval_eigenfunction`` takes the query points in bounded blocks."""

    @staticmethod
    def spectrum(kernel, rng, d, k=2):
        xs = rng.uniform(-2, 2, (d, 2))
        vecs = rng.normal(size=(d, k)) + 1j * rng.normal(size=(d, k))
        vecs[:, 1] = vecs[:, 1].real            # one real eigenvector
        return KoopmanSpectrum(eigenvalues=np.ones(k, dtype=complex),
                               eigenvectors=vecs, residuals=np.zeros(k),
                               source_dict=Dictionary(xs, xs.copy()), kernel=kernel)

    def test_traced_peak_below_quarter_of_complex_gram(self, gauss05, rng):
        spec = self.spectrum(gauss05, rng, 600)
        pts = rng.uniform(-2, 2, (1600, 2))
        tracemalloc.start()
        try:
            eval_eigenfunction(spec, 0, pts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1600 * 600 * 16 / 4

    @pytest.mark.parametrize("n", [1, 109, 110, 1600])
    def test_blocks_match_full_product(self, gauss05, rng, n):
        # d = 600 gives 109-row blocks
        spec = self.spectrum(gauss05, rng, 600)
        pts = rng.uniform(-2, 2, (n, 2))
        K = cross_gram(gauss05, pts, spec.source_dict.xs)
        for i in range(2):
            want = K @ spec.eigenvectors[:, i]
            got = eval_eigenfunction(spec, i, pts)
            assert np.linalg.norm(got - want) <= 1e-14 * np.linalg.norm(want)
        assert np.array_equal(eval_eigenfunction(spec, 1, pts).imag, np.zeros(n))

    def test_no_points_rejected(self, gauss05, rng):
        spec = self.spectrum(gauss05, rng, 5)
        with pytest.raises(InputError):
            eval_eigenfunction(spec, 0, np.zeros((0, 2)))


class TestGridEval:
    def test_two_by_two_grid_matches_pointwise(self, gauss05, rng):
        rep = random_rep(rng, gauss05, 3)
        rep = dynamics_rep(gauss05, rep.dict.xs, rep.dict.xs.copy(), rep.W)
        spec = koopman_spectrum(rep, 2)
        grid = GridSpec(mins=(-1, -1), maxs=(1, 1), counts=(2, 2))
        field = grid_eval(spec, 0, grid)
        pts = np.array([[-1, -1], [-1, 1], [1, -1], [1, 1]], dtype=float)
        assert np.allclose(field.values,
                           eval_eigenfunction(spec, 0, pts), atol=1e-14)
        assert np.array_equal(grid.points(), pts)

    def test_symmetric_fixture_parity(self, gauss05):
        # atoms mirrored under (z, zd) -> (-z, -zd); even coefficient pattern
        # gives an even field, odd pattern an odd field
        base = np.array([[0.6, 0.2], [0.1, -0.7]])
        xs = np.vstack([base, -base])
        rep = dynamics_rep(gauss05, xs, xs.copy(), np.eye(4))
        spec = koopman_spectrum(rep, 4)
        grid = GridSpec(mins=(-2, -2), maxs=(2, 2), counts=(11, 11))
        pts = grid.points()
        K = np.array([[eval_kernel(gauss05, xi, p) for xi in xs] for p in pts])
        even = K @ np.array([1.0, 1.0, 1.0, 1.0])
        odd = K @ np.array([1.0, 1.0, -1.0, -1.0])
        flip = np.array([int(np.argmin(np.linalg.norm(pts + p, axis=1))) for p in pts])
        assert np.allclose(even[flip], even, atol=1e-8)
        assert np.allclose(odd[flip], -odd, atol=1e-8)

    def test_non_2d_rejected(self):
        with pytest.raises(InputError):
            GridSpec(mins=(-1,), maxs=(1,), counts=(5,))
        with pytest.raises(InputError):
            GridSpec(mins=(-1, -1), maxs=(1, 1), counts=(1, 5))

    @pytest.mark.parametrize("kw", [
        {"mins": (np.nan, 0)}, {"maxs": (np.inf, 2)}, {"mins": (-np.inf, 0)},
        {"counts": (2.5, 2)}, {"counts": (2.0, 2)},
    ])
    def test_non_finite_bounds_and_fractional_counts_rejected(self, kw):
        with pytest.raises(InputError):
            GridSpec(**{"mins": (-1, -1), "maxs": (1, 1), "counts": (2, 2), **kw})

    @pytest.mark.parametrize("counts", [(True, 3), (3, False), (2.0, 2)])
    def test_counts_must_be_integers(self, counts):
        # a bool is no count, though numbers.Integral holds it
        with pytest.raises(InputError, match="grid counts must be integers"):
            GridSpec(mins=(-1, -1), maxs=(1, 1), counts=counts)

    def test_numpy_integer_counts_accepted(self):
        grid = GridSpec(mins=(0, 0), maxs=(1, 1), counts=(np.int64(3), np.int64(2)))
        assert grid.points().shape == (6, 2)

    def test_row_major_order(self):
        grid = GridSpec(mins=(0, 0), maxs=(1, 2), counts=(2, 3))
        pts = grid.points()
        assert np.allclose(pts[:3, 0], 0.0) and np.allclose(pts[3:, 0], 1.0)
        assert np.allclose(pts[:3, 1], [0.0, 1.0, 2.0])


class TestLeadingEigenvalueProperty:
    def test_identity_dynamics_psd_leading_real_nonneg(self, gauss05, rng):
        for _ in range(5):
            xs = rng.uniform(-1, 1, (5, 2))
            B = rng.normal(size=(5, 5))
            rep = dynamics_rep(gauss05, xs, xs.copy(), B @ B.T)
            spec = koopman_spectrum(rep, 1)
            lead = spec.eigenvalues[0]
            assert abs(lead.imag) <= 1e-10
            assert lead.real >= -1e-12


# Hostile inputs on the Duffing seed-0 stream (lambda 1.2e-3, eta 0.2):
# extreme bandwidths on a 600-pair prefix under the cubic budget, and that
# prefix with each pair followed by a near-duplicate moved by s N(0, 1).
BANDWIDTHS = (1e-4, 1e-2, 30.0, 1e3)
SHIFTS = (1e-15, 1e-12, 1e-9, 1e-6)


def hostile_fold(bandwidth, budget, xs, ys):
    """Fold, snapshot and analyse.  Returns the dictionary size, the
    snapshot, the tracked and exact HS norms and the eigen residuals."""
    kernel = Kernel.gaussian(bandwidth)
    cfg = LearnerConfig(lam=1.2e-3, step_schedule=ConstantStep(0.2),
                        budget_schedule=budget, kernel_x=kernel, kernel_y=kernel)
    state, _ = run_stream(cfg, zip(xs, ys))
    rep = state.snapshot_rep()
    spec = koopman_spectrum(rep)
    return state.dict_size, rep, (state.hs_norm, hs_norm(rep)), spec.residuals


@pytest.fixture(scope="module")
def duffing_prefix():
    xs, ys = generate_stream(DuffingTrajectories(n_traj=355, steps_per_traj=10, seed=0))
    return xs[:600], ys[:600]


@pytest.fixture(scope="module")
def bandwidth_folds(duffing_prefix):
    return {h: hostile_fold(h, CubicBudget(2.0), *duffing_prefix) for h in BANDWIDTHS}


@pytest.fixture(scope="module")
def near_duplicate_folds(duffing_prefix):
    xs, ys = duffing_prefix
    rng = np.random.default_rng(0)
    out = {}
    for s in SHIFTS:
        nx, ny = (np.repeat(a, 2, axis=0) for a in (xs, ys))
        nx[1::2] += s * rng.normal(size=xs.shape)
        ny[1::2] += s * rng.normal(size=ys.shape)
        for name, budget in (("eps", ConstantBudget(1e-3)), ("zero", ZeroBudget())):
            out[s, name] = hostile_fold(0.3, budget, nx, ny)
    return out


class TestHostileInputs:
    @pytest.mark.parametrize("bandwidth", BANDWIDTHS)
    def test_extreme_bandwidth(self, bandwidth_folds, bandwidth):
        _, _, (tracked, exact), residuals = bandwidth_folds[bandwidth]
        assert tracked == pytest.approx(exact, rel=1e-9)
        assert np.all(residuals <= RESIDUAL_RTOL)

    @pytest.mark.parametrize("s", SHIFTS)
    @pytest.mark.parametrize("budget", ["eps", "zero"])
    def test_near_duplicates(self, near_duplicate_folds, s, budget):
        d, _, (tracked, exact), residuals = near_duplicate_folds[s, budget]
        assert tracked == pytest.approx(exact, rel=1e-9)
        assert np.all(residuals <= RESIDUAL_RTOL)
        if budget == "zero":
            assert d == 1200
        else:
            # a near-duplicate is projected, not admitted
            assert d <= near_duplicate_folds[1e-6, "eps"][0]

    def test_tiny_bandwidth_spectrum_is_degenerate(self, bandwidth_folds, tmp_path):
        save_rep(bandwidth_folds[1e-4][1], tmp_path / "model.json")
        assert main(["koopman", "--model", str(tmp_path / "model.json")]) == 0
        assert json.loads((tmp_path / "spectrum.json").read_text())["degenerate"] is True
