import warnings

import numpy as np
import pytest

from cmestream import (Dictionary, FiniteSpaceModel, InputError, Kernel,
                       ModelError, OperatorRep, batch_solution,
                       conditional_expectation, distance_to_oracle,
                       exact_finite_cme, gradient_norm_gram, gram_matrix,
                       hs_distance, hs_norm, hs_norm_sq, predict_coefficients,
                       stationary_distribution)
from conftest import random_rep


def random_samples(rng, n, dim=2):
    return [(rng.uniform(-1, 1, dim), rng.uniform(-1, 1, dim)) for _ in range(n)]


class TestBatchSolution:
    def test_single_sample_closed_form(self, gauss03):
        lam = 0.3
        sol = batch_solution([([0.1, 0.1], [0.5, 0.5])], lam, gauss03, gauss03)
        assert sol.rep.W[0, 0] == pytest.approx(1.0 / (1.0 + lam), rel=1e-12)

    def test_large_lambda_shrinks_to_zero(self, gauss03, rng):
        samples = random_samples(rng, 5)
        sol = batch_solution(samples, 1e6, gauss03, gauss03)
        assert np.max(np.abs(sol.rep.W)) < 1e-6

    def test_w_symmetric(self, gauss03, rng):
        sol = batch_solution(random_samples(rng, 8), 0.1, gauss03, gauss03)
        assert np.array_equal(sol.rep.W, sol.rep.W.T)

    def test_stationarity(self, gauss05, rng):
        samples = random_samples(rng, 5)
        sol = batch_solution(samples, 0.1, gauss05, gauss05)
        assert gradient_norm_gram(sol.rep, samples, 0.1) <= 1e-8

    def test_lambda_positive_required(self, gauss03, rng):
        with pytest.raises(InputError):
            batch_solution(random_samples(rng, 3), 0.0, gauss03, gauss03)


class TestGradientNorm:
    def test_zero_operator_norm(self, gauss05, rng):
        samples = random_samples(rng, 6)
        xs = np.array([s[0] for s in samples])
        ys = np.array([s[1] for s in samples])
        rep = OperatorRep(dict=Dictionary(xs, ys), W=np.zeros((6, 6)),
                          kernel_x=gauss05, kernel_y=gauss05)
        got = gradient_norm_gram(rep, samples, 0.1)
        want = np.sqrt(np.trace(gram_matrix(gauss05, ys) @ gram_matrix(gauss05, xs))) / 6
        assert got == pytest.approx(want, rel=1e-10)

    def test_scaled_solution_has_larger_residual(self, gauss05, rng):
        samples = random_samples(rng, 5)
        sol = batch_solution(samples, 0.1, gauss05, gauss05)
        doubled = OperatorRep(dict=sol.rep.dict, W=2.0 * sol.rep.W,
                              kernel_x=gauss05, kernel_y=gauss05)
        assert (gradient_norm_gram(doubled, samples, 0.1)
                > gradient_norm_gram(sol.rep, samples, 0.1))

    def test_dictionary_mismatch(self, gauss05, rng):
        samples = random_samples(rng, 4)
        rep = random_rep(rng, gauss05, 4)
        with pytest.raises(InputError):
            gradient_norm_gram(rep, samples, 0.1)


def population_oracle(model, lam, kernel):
    """Normal-equations solve of the population regularized risk over the
    state grids, assembled by explicit sums (independent oracle)."""
    xs, ys = model.x_states, model.y_states
    mx, my = xs.shape[0], ys.shape[0]
    Gx = gram_matrix(kernel, xs)
    Gy = gram_matrix(kernel, ys)
    rhoX = model.marginal_x
    S = sum(rhoX[a] * np.outer(Gx[:, a], Gx[:, a]) for a in range(mx))
    R = sum(model.joint[a, b] * np.outer(np.eye(my)[b], Gx[:, a])
            for a in range(mx) for b in range(my))
    # minimize E|e_b - M g_a|_Gy^2 + lam Tr(M^T Gy M Gx): Gy M (S + lam Gx) = Gy R
    M = np.linalg.solve((S + lam * Gx).T, R.T).T
    return M, Gx, Gy


def grid_rep_to_pairs(model, M, kernel):
    """Represent a state-grid coefficient matrix over all support pairs."""
    ix, iy = np.nonzero(model.joint > 0)
    d = ix.size
    W = np.zeros((d, d))
    seen_x, seen_y = {}, {}
    for p in range(d):
        seen_x.setdefault(ix[p], p)
        seen_y.setdefault(iy[p], p)
    for b in range(model.y_states.shape[0]):
        for a in range(model.x_states.shape[0]):
            W[seen_y[b], seen_x[a]] += M[b, a]
    return OperatorRep(dict=Dictionary(model.x_states[ix], model.y_states[iy]),
                       W=W, kernel_x=kernel, kernel_y=kernel)


@pytest.fixture
def three_state_chain():
    pi = np.array([0.5, 0.3, 0.2])
    P = 0.5 * np.outer(np.ones(3), pi) + 0.5 * np.eye(3)
    states = np.array([[0.0], [1.0], [2.0]])
    return FiniteSpaceModel.from_chain(states, P)


@pytest.mark.parametrize("lam", [0.0, -1.0, np.inf, np.nan])
class TestLambdaRejected:
    """A lambda that is not positive and finite is rejected by name, before
    any solve can warn or fail on non-finite values."""

    def check(self, call):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InputError, match="lambda must be positive and finite"):
                call()

    def test_batch_solution(self, gauss03, rng, lam):
        self.check(lambda: batch_solution(random_samples(rng, 3), lam, gauss03, gauss03))

    def test_gradient_norm_gram(self, gauss05, rng, lam):
        samples = random_samples(rng, 3)
        rep = batch_solution(samples, 0.1, gauss05, gauss05).rep
        self.check(lambda: gradient_norm_gram(rep, samples, lam))

    def test_exact_finite_cme(self, gauss05, three_state_chain, lam):
        self.check(lambda: exact_finite_cme(three_state_chain, lam, gauss05, gauss05))


class TestExactFiniteCme:
    def test_matches_population_normal_equations(self, gauss05, three_state_chain):
        lam = 0.1
        ref = exact_finite_cme(three_state_chain, lam, gauss05, gauss05)
        M, _, _ = population_oracle(three_state_chain, lam, gauss05)
        oracle = grid_rep_to_pairs(three_state_chain, M, gauss05)
        assert hs_distance(ref, oracle) <= 1e-10

    def test_random_joint_matches_oracle(self, gauss05, rng):
        xs = rng.uniform(-1, 1, (4, 1))
        ys = rng.uniform(-1, 1, (3, 1))
        J = rng.uniform(0.05, 1.0, (4, 3))
        J /= J.sum()
        model = FiniteSpaceModel(x_states=xs, y_states=ys, joint=J)
        ref = exact_finite_cme(model, 0.2, gauss05, gauss05)
        M, _, _ = population_oracle(model, 0.2, gauss05)
        oracle = grid_rep_to_pairs(model, M, gauss05)
        assert hs_distance(ref, oracle) <= 1e-10

    def test_deterministic_map_small_lambda(self, gauss05):
        # Y = f(X) with f(s0)=s1, f(s1)=s2, f(s2)=s0; uniform marginal
        states = np.array([[0.0], [2.0], [4.0]])
        J = np.zeros((3, 3))
        J[0, 1] = J[1, 2] = J[2, 0] = 1.0 / 3.0
        model = FiniteSpaceModel(x_states=states, y_states=states, joint=J)
        ref = exact_finite_cme(model, 1e-4, gauss05, gauss05)
        f_map = {0: 1, 1: 2, 2: 0}
        for a in range(3):
            target = states[f_map[a]]
            f_vals = np.array([1.0 if np.array_equal(yv, target) else 0.0
                               for yv in ref.dict.ys])
            val = conditional_expectation(ref, f_vals, states[a])
            assert abs(val - 1.0) <= 0.05

    def test_independent_joint_constant_prediction(self, gauss05):
        xs = np.array([[0.0], [1.5]])
        ys = np.array([[0.5], [2.0]])
        J = np.outer([0.6, 0.4], [0.3, 0.7])
        model = FiniteSpaceModel(x_states=xs, y_states=ys, joint=J)
        ref = exact_finite_cme(model, 1e-10, gauss05, gauss05)
        preds = [predict_coefficients(ref, x) for x in xs]
        assert np.allclose(preds[0], preds[1], atol=1e-8)

    def test_state_limit(self, gauss05, rng):
        xs = rng.uniform(size=(101, 1))
        J = np.full((101, 1), 1.0 / 101)
        model = FiniteSpaceModel(x_states=xs, y_states=np.zeros((1, 1)), joint=J)
        with pytest.raises(InputError):
            exact_finite_cme(model, 0.1, gauss05, gauss05)


class TestDistanceToOracle:
    def test_identical(self, gauss05, three_state_chain):
        ref = exact_finite_cme(three_state_chain, 0.1, gauss05, gauss05)
        assert distance_to_oracle(ref, ref) == 0.0

    def test_zero_iterate(self, gauss05, three_state_chain):
        ref = exact_finite_cme(three_state_chain, 0.1, gauss05, gauss05)
        zero = OperatorRep(dict=ref.dict, W=np.zeros_like(ref.W),
                           kernel_x=gauss05, kernel_y=gauss05)
        assert distance_to_oracle(zero, ref) == pytest.approx(hs_norm(ref), rel=1e-12)


class TestFiniteSpaceModel:
    def test_joint_must_sum_to_one(self):
        with pytest.raises(ModelError):
            FiniteSpaceModel(x_states=np.zeros((2, 1)), y_states=np.zeros((2, 1)),
                             joint=np.full((2, 2), 0.3))

    def test_negative_joint_rejected(self):
        J = np.array([[0.6, -0.1], [0.3, 0.2]])
        with pytest.raises(ModelError):
            FiniteSpaceModel(x_states=np.zeros((2, 1)), y_states=np.zeros((2, 1)),
                             joint=J)

    def test_transition_rows_must_sum_to_one(self):
        with pytest.raises(ModelError):
            FiniteSpaceModel(x_states=np.zeros((2, 1)), y_states=np.zeros((2, 1)),
                             joint=np.full((2, 2), 0.25),
                             transition=np.array([[0.5, 0.4], [0.5, 0.5]]))

    def test_json_round_trip(self, three_state_chain, tmp_path):
        path = tmp_path / "model.json"
        three_state_chain.save(path)
        back = FiniteSpaceModel.load(path)
        assert np.array_equal(back.x_states, three_state_chain.x_states)
        assert np.array_equal(back.joint, three_state_chain.joint)
        assert np.array_equal(back.transition, three_state_chain.transition)

    def test_from_chain_joint(self, three_state_chain):
        pi = stationary_distribution(three_state_chain.transition)
        assert np.allclose(three_state_chain.joint.sum(axis=1), pi, atol=1e-12)


class TestStationaryDistribution:
    def test_simple_chain(self):
        P = np.array([[0.9, 0.1], [0.5, 0.5]])
        pi = stationary_distribution(P)
        assert np.allclose(pi @ P, pi, atol=1e-12)
        assert pi[0] == pytest.approx(5.0 / 6.0, rel=1e-10)

    def test_non_ergodic_rejected(self):
        with pytest.raises(ModelError):
            stationary_distribution(np.eye(3))

    def test_non_stochastic_rejected(self):
        with pytest.raises(ModelError):
            stationary_distribution(np.array([[0.5, 0.4], [0.5, 0.5]]))
