import os
import re
import tracemalloc
from functools import partial

import numpy as np
import pytest

from cmestream import (CapacityError, ConfigError, ConstantBudget, ConstantStep,
                       CubicBudget, Dictionary, DuffingTrajectories, FiniteChainStream,
                       FiniteSpaceModel, GramCache, InputError, Kernel, LearnerConfig,
                       NumericalError, OperatorRep, PolynomialStep, QuadraticBudget,
                       ZeroBudget, checkpoint_marks, eval_kernel,
                       generate_stream, gram_matrix, hs_distance, hs_norm,
                       inverse_with_jitter, new_state, run_stream, step)
from conftest import (compression_delta, naive_uncompressed, project_coefficients,
                      projection_oracle, sgd_expand)


def make_cfg(kernel, lam=0.1, eta=0.2, budget=None, **kw):
    return LearnerConfig(lam=lam, step_schedule=ConstantStep(eta),
                         budget_schedule=budget or ZeroBudget(),
                         kernel_x=kernel, kernel_y=kernel, **kw)


class TestConfigValidation:
    def test_constant_step_limit(self, gauss03):
        with pytest.raises(ConfigError):
            make_cfg(gauss03, lam=0.1, eta=1.5)     # eta > min(1, 1/lam) = 1
        with pytest.raises(ConfigError):
            make_cfg(gauss03, lam=4.0, eta=0.5)     # eta > 1/lam = 0.25
        make_cfg(gauss03, lam=4.0, eta=0.25)        # boundary allowed

    def test_polynomial_exponent_range(self, gauss03):
        for p in (0.5, 1.2):
            with pytest.raises(ConfigError):
                LearnerConfig(lam=0.1, step_schedule=PolynomialStep(0.2, 50, p),
                              budget_schedule=ZeroBudget(),
                              kernel_x=gauss03, kernel_y=gauss03)
        LearnerConfig(lam=0.1, step_schedule=PolynomialStep(0.2, 50, 0.75),
                      budget_schedule=ZeroBudget(), kernel_x=gauss03, kernel_y=gauss03)

    def test_polynomial_eta0_vs_lambda(self, gauss03):
        with pytest.raises(ConfigError):
            LearnerConfig(lam=10.0, step_schedule=PolynomialStep(0.2, 50, 1.0),
                          budget_schedule=ZeroBudget(),
                          kernel_x=gauss03, kernel_y=gauss03)

    def test_lambda_positive(self, gauss03):
        with pytest.raises(ConfigError):
            make_cfg(gauss03, lam=0.0)

    def test_budget_validation(self, gauss03):
        with pytest.raises(ConfigError):
            make_cfg(gauss03, budget=ConstantBudget(-0.1))
        with pytest.raises(ConfigError):
            make_cfg(gauss03, budget=QuadraticBudget(0.0))

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize("field", ["jitter_scale", "eps", "b_cmp", "t0", "p"])
    def test_non_finite_setting_rejected(self, gauss03, field, value):
        sched = PolynomialStep(0.2, value if field == "t0" else 50.0,
                               value if field == "p" else 1.0)
        budget = {"eps": ConstantBudget(value),
                  "b_cmp": CubicBudget(value)}.get(field, ZeroBudget())
        jitter = value if field == "jitter_scale" else 1e-10
        with pytest.raises(ConfigError):
            LearnerConfig(lam=0.1, step_schedule=sched, budget_schedule=budget,
                          kernel_x=gauss03, kernel_y=gauss03, jitter_scale=jitter)

    def test_schedule_values(self, gauss03):
        cfg = LearnerConfig(lam=0.1, step_schedule=PolynomialStep(0.2, 50, 1.0),
                            budget_schedule=QuadraticBudget(1.0),
                            kernel_x=gauss03, kernel_y=gauss03)
        assert cfg.eta_at(50) == pytest.approx(0.1)
        assert cfg.eps_at(50) == pytest.approx(0.01)
        cub = LearnerConfig(lam=0.1, step_schedule=ConstantStep(0.2),
                            budget_schedule=CubicBudget(2.0),
                            kernel_x=gauss03, kernel_y=gauss03)
        assert cub.eps_at(7) == pytest.approx(2 * 0.2 ** 3)

    def test_max_dictionary_is_a_whole_number(self, gauss03):
        # the schema's integer rule: a bool is not one, an integral float is
        for value in (True, np.True_, 2.5, 0, np.nan, "3"):
            with pytest.raises(ConfigError, match="max_dictionary must be positive"):
                make_cfg(gauss03, max_dictionary=value)
        for value in (1, 3.0, np.int64(3)):
            assert make_cfg(gauss03, max_dictionary=value).max_dictionary == value


class TestSgdExpand:
    def test_empty_start(self):
        out = sgd_expand(np.zeros((0, 0)), [], 0.2, 0.1)
        assert np.array_equal(out, [[0.2]])

    def test_one_atom_numeric(self):
        out = sgd_expand(np.array([[0.2]]), [0.5], 0.2, 0.1)
        assert np.allclose(out, [[0.196, -0.02], [0.0, 0.2]], atol=1e-15)

    def test_no_decay_at_lambda_zero(self, rng):
        W = rng.normal(size=(3, 3))
        out = sgd_expand(W, np.zeros(3), 0.2, 0.0)
        assert np.array_equal(out[:3, :3], W)

    def test_nan_rejected(self):
        with pytest.raises(InputError):
            sgd_expand(np.array([[np.nan]]), [0.0], 0.2, 0.1)


def expansion_inputs(kernel, xs_old, ys_old, x, y, W, eta, lam, jitter=0.0):
    """Gram blocks for the module-level compression operations."""
    d = xs_old.shape[0]
    xs_t = np.vstack([xs_old, x])
    ys_t = np.vstack([ys_old, y])
    kx = np.array([eval_kernel(kernel, xj, x) for xj in xs_old])
    Wt = sgd_expand(W, kx, eta, lam)
    Gxb = gram_matrix(kernel, xs_t)
    Gyb = gram_matrix(kernel, ys_t)
    Gxi, _ = inverse_with_jitter(Gxb[:d, :d], jitter)
    Gyi, _ = inverse_with_jitter(Gyb[:d, :d], jitter)
    return Wt, Gxb, Gyb, Gxi, Gyi, xs_t, ys_t


class TestCompressionDelta:
    def test_duplicate_sample_gives_zero(self, gauss05, rng):
        xs = rng.uniform(-1, 1, (3, 2))
        ys = rng.uniform(-1, 1, (3, 2))
        W = rng.normal(0, 0.3, (3, 3))
        Wt, Gxb, Gyb, Gxi, Gyi, *_ = expansion_inputs(
            gauss05, xs, ys, xs[1], ys[1], W, 0.2, 0.1)
        delta = compression_delta(Wt, Gxb, Gyb, Gxb[:, :3], Gyb[:, :3], Gxi, Gyi)
        assert abs(delta) <= 1e-12

    def test_empty_span_returns_full_norm(self, gauss05):
        Wt = np.array([[0.2]])
        G1 = np.array([[1.0]])
        delta = compression_delta(Wt, G1, G1, np.zeros((1, 0)), np.zeros((1, 0)),
                                  np.zeros((0, 0)), np.zeros((0, 0)))
        assert delta == pytest.approx(0.04, rel=1e-12)

    def test_matches_dense_least_squares_oracle(self, gauss05, rng):
        for _ in range(5):
            xs = rng.uniform(-1, 1, (2, 2))
            ys = rng.uniform(-1, 1, (2, 2))
            x, y = rng.uniform(-1, 1, 2), rng.uniform(-1, 1, 2)
            W = rng.normal(0, 0.4, (2, 2))
            Wt, Gxb, Gyb, Gxi, Gyi, xs_t, ys_t = expansion_inputs(
                gauss05, xs, ys, x, y, W, 0.2, 0.1)
            delta = compression_delta(Wt, Gxb, Gyb, Gxb[:, :2], Gyb[:, :2], Gxi, Gyi)
            _, oracle_res, _ = projection_oracle(gauss05, xs, ys, xs_t, ys_t, Wt)
            assert delta == pytest.approx(oracle_res, abs=1e-10)


class TestProjectCoefficients:
    def test_duplicate_sample_projects_exactly(self, gauss05, rng):
        xs = rng.uniform(-1, 1, (3, 2))
        ys = rng.uniform(-1, 1, (3, 2))
        W = rng.normal(0, 0.3, (3, 3))
        Wt, Gxb, Gyb, Gxi, Gyi, xs_t, ys_t = expansion_inputs(
            gauss05, xs, ys, xs[0], ys[0], W, 0.2, 0.1)
        Z = project_coefficients(Wt, Gyi, Gyb[:, :3], Gxb[:, :3], Gxi)
        proj = OperatorRep(dict=Dictionary(xs, ys), W=Z,
                           kernel_x=gauss05, kernel_y=gauss05)
        # the appended atom coincides with pair (0, 0): fold the expanded
        # coefficients exactly onto the old dictionary before comparing
        W_fold = Wt[:3, :3].copy()
        W_fold[:, 0] += Wt[:3, 3]
        W_fold[0, :] += Wt[3, :3]
        W_fold[0, 0] += Wt[3, 3]
        full = OperatorRep(dict=Dictionary(xs, ys), W=W_fold,
                           kernel_x=gauss05, kernel_y=gauss05)
        assert hs_distance(proj, full) <= 1e-8

    def test_scalar_closed_form(self, gauss05, rng):
        xs = rng.uniform(-1, 1, (1, 2))
        ys = rng.uniform(-1, 1, (1, 2))
        W = np.array([[0.3]])
        x, y = rng.uniform(-1, 1, 2), rng.uniform(-1, 1, 2)
        Wt, Gxb, Gyb, Gxi, Gyi, *_ = expansion_inputs(
            gauss05, xs, ys, x, y, W, 0.2, 0.1)
        Z = project_coefficients(Wt, Gyi, Gyb[:, :1], Gxb[:, :1], Gxi)
        num = Gyb[:, :1].T @ Wt @ Gxb[:, :1]
        assert Z[0, 0] == pytest.approx(num[0, 0] / (Gyb[0, 0] * Gxb[0, 0]), rel=1e-10)

    def test_local_optimality_probe(self, gauss05, rng):
        xs = rng.uniform(-1, 1, (3, 2))
        ys = rng.uniform(-1, 1, (3, 2))
        W = rng.normal(0, 0.4, (3, 3))
        x, y = rng.uniform(-1, 1, 2), rng.uniform(-1, 1, 2)
        Wt, Gxb, Gyb, Gxi, Gyi, xs_t, ys_t = expansion_inputs(
            gauss05, xs, ys, x, y, W, 0.2, 0.1)
        Z = project_coefficients(Wt, Gyi, Gyb[:, :3], Gxb[:, :3], Gxi)
        _, _, (A, b, const) = projection_oracle(gauss05, xs, ys, xs_t, ys_t, Wt)

        def objective(M):
            v = M.reshape(-1)
            return v @ A @ v - 2 * v @ b + const

        base = objective(Z)
        for _ in range(100):
            pert = rng.normal(size=(3, 3))
            pert *= 1e-3 / np.linalg.norm(pert)
            assert base <= objective(Z + pert) + 1e-15


class TestStep:
    def test_first_sample(self, gauss03):
        cfg = make_cfg(gauss03)
        state = new_state(cfg)
        step(state, cfg, ([0.1, 0.1], [0.2, 0.2]))
        assert state.dict_size == 1
        assert np.array_equal(state.coefficients, [[0.2]])
        rec = state.stats[-1]
        assert rec.accepted and rec.dict_size == 1
        # the empty span leaves the full norm eta^2 s_x s_y as the residual
        assert rec.delta == pytest.approx(0.2 ** 2, rel=1e-15)
        assert rec.hs_norm == pytest.approx(0.2, rel=1e-15)
        # a budget larger than that residual still starts the dictionary
        cfg = make_cfg(gauss03, budget=ConstantBudget(1.0))
        state = new_state(cfg)
        step(state, cfg, ([0.1, 0.1], [0.2, 0.2]))
        rec = state.stats[-1]
        assert rec.accepted and state.dict_size == 1 and np.sqrt(rec.delta) < 1.0
        # linear kernel, s_x != 1: residual and norm carry the self-similarities
        cfg = make_cfg(Kernel.linear(5.0))
        state = new_state(cfg)
        x, y = np.array([1.0, 2.0]), np.array([0.5, -1.5])
        step(state, cfg, (x, y))
        rec = state.stats[-1]
        expected = 0.2 ** 2 * (x @ x) * (y @ y)
        assert rec.accepted and rec.delta == pytest.approx(expected, rel=1e-15)
        assert rec.hs_norm == pytest.approx(np.sqrt(expected), rel=1e-15)
        assert hs_norm(state.snapshot_rep()) == pytest.approx(np.sqrt(expected), rel=1e-12)

    def test_repeated_sample_rejected(self, gauss03):
        cfg = make_cfg(gauss03, budget=ConstantBudget(0.01))
        state = new_state(cfg)
        pair = ([0.1, 0.1], [0.2, 0.2])
        step(state, cfg, pair)
        step(state, cfg, pair)
        assert state.dict_size == 1
        rec = state.stats[-1]
        assert not rec.accepted and rec.delta == 0.0

    def test_zero_budget_admits_everything(self, gauss03, rng):
        cfg = make_cfg(gauss03)
        state = new_state(cfg)
        for _ in range(20):
            step(state, cfg, (rng.uniform(-1, 1, 2), rng.uniform(-1, 1, 2)))
        assert state.dict_size == 20
        assert all(r.accepted for r in state.stats)

    def test_zero_budget_folds_exact_duplicates(self, gauss03):
        cfg = make_cfg(gauss03)
        state = new_state(cfg)
        pair = ([0.5, 0.0], [0.0, 0.5])
        for _ in range(5):
            step(state, cfg, pair)
        assert state.dict_size == 1
        assert all(r.delta == 0.0 for r in state.stats[1:])

    def test_zero_budget_folds_signed_zero_duplicate(self, gauss03):
        cfg = make_cfg(gauss03)
        state = new_state(cfg)
        step(state, cfg, ([0.0, 0.5], [0.5, 0.0]))
        step(state, cfg, ([-0.0, 0.5], [0.5, -0.0]))
        rec = state.stats[-1]
        assert rec.delta == 0.0 and not rec.accepted and state.dict_size == 1

    def test_exact_fold_is_one_column_update(self, gauss03, rng):
        # a fold onto product atom (q, p) writes column p of W directly and
        # queues nothing in the pending block; every other column decays
        cfg = make_cfg(gauss03)
        state = new_state(cfg)
        pairs = [(rng.uniform(-1, 1, 2), rng.uniform(-1, 1, 2)) for _ in range(6)]
        for pair in pairs:
            step(state, cfg, pair)
        before = state.coefficients
        p, q = 1, 3
        x, y = pairs[p][0], pairs[q][1]
        k_x = state.gram_x.kernel_vector(x)
        step(state, cfg, (x, y))
        rec = state.stats[-1]
        assert rec.delta == 0.0 and not rec.accepted and state.dict_size == 6
        assert state._m == 0
        after = state.coefficients
        a = 1.0 - 0.1 * 0.2
        others = [j for j in range(6) if j != p]
        np.testing.assert_allclose(after[:, others], a * before[:, others], rtol=1e-15, atol=0)
        fold = a * before[:, p] - 0.2 * (before @ k_x)
        fold[q] += 0.2
        np.testing.assert_allclose(after[:, p], fold, rtol=1e-13, atol=1e-16)
        assert state.hs_norm == pytest.approx(hs_norm(state.snapshot_rep()), rel=1e-12)

    def test_coefficient_buffer_zero_outside_the_dictionary(self, gauss03, rng):
        # admits write only the new atom's column, so the buffer's rows and
        # columns past the dictionary stay 0 across capacity growths
        cfg = make_cfg(gauss03)
        state = new_state(cfg)
        pairs, capacities = [], set()
        for i in range(60):
            pair = pairs[i // 2] if i % 5 == 4 else (rng.uniform(-1, 1, 2), rng.uniform(-1, 1, 2))
            pairs.append(pair)
            step(state, cfg, pair)
            d = state.dict_size
            outside = state._Wf.copy()
            outside[:d, :d] = 0.0
            assert not np.any(outside)
            capacities.add(outside.shape[0])
        assert state.dict_size == 48 and len(capacities) >= 5

    def test_budget_squared_literal_comparison(self, gauss03):
        # squared mode compares delta (not sqrt) to eps: with eps between
        # delta and sqrt(delta) the two modes disagree
        samples = [([0.1, 0.1], [0.2, 0.2]), ([0.18, 0.1], [0.28, 0.2])]
        eps = 0.01
        cfg_sq = make_cfg(gauss03, budget=ConstantBudget(eps), budget_squared=True)
        st_sq = new_state(cfg_sq)
        cfg_rt = make_cfg(gauss03, budget=ConstantBudget(eps))
        st_rt = new_state(cfg_rt)
        for pair in samples:
            step(st_sq, cfg_sq, pair)
            step(st_rt, cfg_rt, pair)
        d = st_rt.stats[-1].delta
        assert d < eps < np.sqrt(d)      # fixture chosen to split the modes
        assert st_sq.dict_size == 1       # rejected under the literal rule
        assert st_rt.dict_size == 2       # admitted under the sqrt rule

    def test_capacity_error_carries_state(self, gauss03, rng):
        cfg = make_cfg(gauss03, max_dictionary=3)
        state = new_state(cfg)
        with pytest.raises(CapacityError) as exc:
            for _ in range(10):
                step(state, cfg, (rng.uniform(-1, 1, 2), rng.uniform(-1, 1, 2)))
        assert exc.value.state is state
        assert state.dict_size == 3

    def test_sample_dim_mismatch(self, gauss03):
        cfg = make_cfg(gauss03)
        state = new_state(cfg)
        step(state, cfg, ([0.0, 0.0], [0.0, 0.0]))
        with pytest.raises(InputError):
            step(state, cfg, ([0.0], [0.0, 0.0]))

    @pytest.mark.parametrize("d, sample", [
        (0, ([np.nan, 0.0], [0.3, 0.3])), (0, ([0.3, 0.3], [0.0, np.nan])),
        (0, ([], [0.3, 0.3])), (0, ([0.3, 0.3], [])),
        (2, ([np.nan, 0.0], [0.3, 0.3])), (2, ([0.3, 0.3], [0.0, np.nan])),
        (2, ([0.0] * 3, [0.3, 0.3])), (2, ([0.3, 0.3], [0.0] * 3)),
    ], ids=["d0-nan-x", "d0-nan-y", "d0-dim-x", "d0-dim-y",
            "d2-nan-x", "d2-nan-y", "d2-dim-x", "d2-dim-y"])
    def test_bad_sample_leaves_state(self, gauss03, d, sample):
        # at d = 0 the wrong dimension is a point with no coordinate
        cfg = make_cfg(gauss03, budget=ConstantBudget(0.01))
        state = new_state(cfg)
        for i in range(d):
            step(state, cfg, ([0.5 * i, 0.0], [0.0, 0.5 * i]))
        assert state.dict_size == d

        def scalars():
            return state.t, state.dict_size, len(state.stats), state.hs_norm

        before, W = scalars(), state.coefficients
        with pytest.raises(InputError) as exc:     # a new schedule rides along
            step(state, make_cfg(gauss03, eta=0.1, budget=ConstantBudget(0.01)), sample)
        assert exc.value.state is state
        assert scalars() == before and state.cfg is cfg
        assert np.array_equal(state.coefficients, W)

    @pytest.mark.parametrize("change", [
        {"eta": 0.1}, {"lam": 0.2}, {"budget": ConstantBudget(0.02)},
        {"jitter_scale": 1e-9}, {"max_dictionary": 50},
    ], ids=["eta", "lambda", "budget", "jitter", "max_dictionary"])
    def test_other_config_rejected_before_the_state_changes(self, gauss03, rng, change):
        # a state runs under its own config; an equal copy is the same config
        base = {"budget": ConstantBudget(0.01)}
        cfg = make_cfg(gauss03, **base)
        state = new_state(cfg)
        for _ in range(5):
            step(state, cfg, (rng.uniform(-1, 1, 2), rng.uniform(-1, 1, 2)))
        step(state, make_cfg(gauss03, **base), ([0.3, 0.3], [0.1, 0.1]))
        before, W = (state.t, state.dict_size, len(state.stats), state.hs_norm), \
            state.coefficients
        with pytest.raises(ConfigError, match="mid-run") as exc:
            step(state, make_cfg(gauss03, **{**base, **change}), ([0.2, 0.4], [0.4, 0.2]))
        assert exc.value.state is state
        assert (state.t, state.dict_size, len(state.stats), state.hs_norm) == before
        assert state.cfg is cfg and np.array_equal(state.coefficients, W)


def on_state_grid(rep, states):
    """The same operator written over the dictionary of pairs (s, s): the
    coefficients of atoms that share a state are summed, which is exact."""
    ix = [np.flatnonzero((states == x).all(axis=1))[0] for x in rep.dict.xs]
    iy = [np.flatnonzero((states == y).all(axis=1))[0] for y in rep.dict.ys]
    W = np.zeros((len(states), len(states)))
    np.add.at(W, (np.array(iy)[:, None], np.array(ix)[None, :]), rep.W)
    return OperatorRep(dict=Dictionary(states, states), W=W,
                       kernel_x=rep.kernel_x, kernel_y=rep.kernel_y)


def textbook_compressed_run(kernel, lam, eta, eps, samples):
    """Independent slow implementation of the compressed learner: rebuild
    every Gram from scratch and use the Gram-form expansion, test and
    projection references of ``conftest``.  Returns the accept decisions and
    the operator."""
    xs_ref: list = []
    ys_ref: list = []
    W_ref = np.zeros((0, 0))
    decisions = []
    for (x, y) in samples:
        d = len(xs_ref)
        if d == 0:
            xs_ref.append(np.asarray(x)); ys_ref.append(np.asarray(y))
            W_ref = np.array([[eta]])
            decisions.append(True)
            continue
        xs_old = np.array(xs_ref); ys_old = np.array(ys_ref)
        kx = np.array([eval_kernel(kernel, xj, x) for xj in xs_old])
        Wt = sgd_expand(W_ref, kx, eta, lam)
        xs_t = np.vstack([xs_old, x]); ys_t = np.vstack([ys_old, y])
        Gxb = gram_matrix(kernel, xs_t); Gyb = gram_matrix(kernel, ys_t)
        Gxi = np.linalg.inv(Gxb[:d, :d])
        Gyi = np.linalg.inv(Gyb[:d, :d])
        delta = compression_delta(Wt, Gxb, Gyb, Gxb[:, :d], Gyb[:, :d], Gxi, Gyi)
        if np.sqrt(delta) <= eps:
            W_ref = project_coefficients(Wt, Gyi, Gyb[:, :d], Gxb[:, :d], Gxi)
            decisions.append(False)
        else:
            xs_ref.append(np.asarray(x)); ys_ref.append(np.asarray(y))
            W_ref = Wt
            decisions.append(True)
    ref = OperatorRep(dict=Dictionary(np.array(xs_ref), np.array(ys_ref)),
                      W=W_ref, kernel_x=kernel, kernel_y=kernel)
    return decisions, ref


class TestEquivalenceWithDirectImplementation:
    def test_uncompressed_matches_naive_recursion(self, gauss03, rng):
        cfg = make_cfg(gauss03, jitter_scale=0.0)
        samples = [(rng.uniform(-1, 1, 2), rng.uniform(-1, 1, 2)) for _ in range(100)]
        state, _ = run_stream(cfg, samples)
        ref = naive_uncompressed(samples, cfg)
        assert hs_distance(state.snapshot_rep(), ref) <= 1e-8

    def test_polynomial_schedule_matches_naive(self, gauss03, rng):
        cfg = LearnerConfig(lam=0.1, step_schedule=PolynomialStep(0.2, 20, 0.8),
                            budget_schedule=ZeroBudget(), jitter_scale=0.0,
                            kernel_x=gauss03, kernel_y=gauss03)
        samples = [(rng.uniform(-1, 1, 2), rng.uniform(-1, 1, 2)) for _ in range(60)]
        state, _ = run_stream(cfg, samples)
        ref = naive_uncompressed(samples, cfg)
        assert hs_distance(state.snapshot_rep(), ref) <= 1e-10

    def test_compressed_run_matches_textbook_loop(self, gauss05, rng):
        lam, eta, eps = 0.1, 0.2, 0.05
        cfg = make_cfg(gauss05, lam=lam, eta=eta, budget=ConstantBudget(eps),
                       jitter_scale=0.0)
        samples = [(rng.uniform(-1, 1, 2), rng.uniform(-1, 1, 2)) for _ in range(60)]
        decisions, ref = textbook_compressed_run(gauss05, lam, eta, eps, samples)
        state, _ = run_stream(cfg, samples)
        assert [r.accepted for r in state.stats] == decisions
        assert state.dict_size == len(ref)
        assert hs_distance(state.snapshot_rep(), ref) <= 1e-7

    @pytest.mark.parametrize("lam, eta, eps, snapshot_every", [
        (0.1, 0.2, 0.05, None),   # projected runs far longer than one block
        (1.0, 0.9, 0.3, None),    # decay 0.1: the scalar factor renormalizes
        (1.0, 0.9, 0.3, 37),      # ... and snapshots at odd points
        (1.0, 1.0, 0.3, None),    # total decay: the factor folds into W each step
    ])
    def test_compressed_run_matches_textbook_loop_across_flushes(
            self, gauss05, rng, lam, eta, eps, snapshot_every):
        # the learner defers projected rank-one updates into a pending block;
        # long projected runs, renormalizations of the scalar factor and
        # admissions all meet a non-empty block here
        cfg = make_cfg(gauss05, lam=lam, eta=eta, budget=ConstantBudget(eps),
                       jitter_scale=0.0)
        samples = [(rng.uniform(-1, 1, 2), rng.uniform(-1, 1, 2)) for _ in range(400)]
        decisions, ref = textbook_compressed_run(gauss05, lam, eta, eps, samples)
        state = new_state(cfg)
        for i, sample in enumerate(samples, start=1):
            step(state, cfg, sample)
            if snapshot_every and i % snapshot_every == 0:
                state.snapshot_rep()
        assert [r.accepted for r in state.stats] == decisions
        assert state.dict_size == len(ref)
        assert hs_distance(state.snapshot_rep(), ref) <= 1e-7
        assert state.hs_norm == pytest.approx(hs_norm(state.snapshot_rep()), rel=1e-9)

    @pytest.mark.parametrize("lam, eta", [(0.1, 0.1), (1.0, 1.0)])
    def test_finite_chain_exact_folds_match_naive(self, gauss05, lam, eta):
        # a 3-state chain repeats its pairs, so after the first few steps the
        # zero-budget learner folds every sample into an existing atom while
        # the literal recursion keeps one atom per sample; both are compared
        # on the state grid, where the general HS expansion's ~1e-8
        # cancellation error does not arise; lam * eta = 1 folds under
        # total decay
        states = np.array([[0.0], [1.0], [2.0]])
        P = 0.5 * np.outer(np.ones(3), [0.5, 0.3, 0.2]) + 0.5 * np.eye(3)
        model = FiniteSpaceModel.from_chain(states, P)
        cfg = make_cfg(gauss05, lam=lam, eta=eta)
        sx, sy = generate_stream(FiniteChainStream(
            model=model, n_samples=300, burn_in=0, seed=0))
        samples = list(zip(sx, sy))
        state, _ = run_stream(cfg, samples)
        folds = sum(r.delta == 0.0 for r in state.stats)
        assert folds == len(samples) - state.dict_size and folds > 250
        ref = naive_uncompressed(samples, cfg)
        assert hs_distance(on_state_grid(state.snapshot_rep(), states),
                           on_state_grid(ref, states)) <= 1e-10

    def test_total_decay_drops_pending_block(self, gauss05, rng):
        # a zero factor makes W = 0, so the pending block is not added first
        cfg = make_cfg(gauss05, budget=ConstantBudget(0.5))
        state = new_state(cfg)
        for _ in range(12):
            step(state, cfg, (rng.uniform(-1, 1, 2), rng.uniform(-1, 1, 2)))
        assert state._m > 0
        flushed = []
        flush = state._flush
        state._flush = lambda: (flushed.append(state._m), flush())
        state._decay(0.0)
        assert flushed == [0] and state._m == 0 and state._c == 1.0
        assert not np.any(state.coefficients)

    def test_total_decay_matches_naive(self, rng):
        # eta = 1/lam makes the decay factor exactly zero: the scalar factor
        # folds into W on every step; 40 samples cross the 16-atom capacity
        k = Kernel.gaussian(0.5)
        cfg = LearnerConfig(lam=1.0, step_schedule=ConstantStep(1.0),
                            budget_schedule=ZeroBudget(), jitter_scale=0.0,
                            kernel_x=k, kernel_y=k)
        samples = [(rng.uniform(-1, 1, 2), rng.uniform(-1, 1, 2)) for _ in range(40)]
        state, _ = run_stream(cfg, samples)
        ref = naive_uncompressed(samples, cfg)
        assert hs_distance(state.snapshot_rep(), ref) <= 1e-10


class TestRunStream:
    def test_empty_stream_rejected(self, gauss03):
        with pytest.raises(InputError):
            run_stream(make_cfg(gauss03), [])

    def test_checkpoints(self, gauss03, rng):
        cfg = make_cfg(gauss03)
        samples = [(rng.uniform(-1, 1, 2), rng.uniform(-1, 1, 2)) for _ in range(2)]
        state, reps = run_stream(cfg, samples, checkpoints=[1, 2])
        assert [t for t, _ in reps] == [1, 2]
        assert len(reps[0][1]) <= 1 and len(reps[1][1]) <= 2

    def test_no_checkpoints(self, gauss03, rng):
        samples = [(rng.uniform(-1, 1, 2), rng.uniform(-1, 1, 2)) for _ in range(3)]
        state, reps = run_stream(make_cfg(gauss03), samples)
        assert reps == [] and state.t == 3

    def test_constant_pair_fixed_point(self, gauss03):
        lam = 0.1
        cfg = make_cfg(gauss03, lam=lam)
        samples = [([0.3, -0.2], [0.1, 0.5])] * 400
        state, _ = run_stream(cfg, samples)
        assert state.dict_size == 1
        assert state.coefficients[0, 0] == pytest.approx(1.0 / (1.0 + lam), rel=1e-6)

    def test_snapshot_points_are_c_ordered(self, gauss03, rng):
        # the caches store points coordinate-major and hand out (n, dim) rows
        xs, ys = rng.uniform(-1, 1, (20, 3)), rng.uniform(-1, 1, (20, 2))
        state, _ = run_stream(make_cfg(gauss03), zip(xs, ys))
        rep = state.snapshot_rep()
        for got, want in ((state.gram_x.points, xs), (state.gram_y.points, ys),
                          (rep.dict.xs, xs), (rep.dict.ys, ys)):
            assert got.flags.c_contiguous
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("marks", [[0, 3], [2.5, 4], [3, -1], [float("nan")], ["3"]])
    def test_bad_checkpoint_rejected_before_the_first_step(self, gauss03, marks):
        def samples():
            raise AssertionError("the stream was read")
            yield

        with pytest.raises(InputError, match="whole number"):
            run_stream(make_cfg(gauss03), samples(), checkpoints=marks)

    def test_checkpoint_past_the_end_named(self, gauss03, rng):
        samples = [(rng.uniform(-1, 1, 2), rng.uniform(-1, 1, 2)) for _ in range(5)]
        with pytest.raises(InputError, match="checkpoint 99 is past the end of the "
                                             "5-sample stream"):
            run_stream(make_cfg(gauss03), samples, checkpoints=[3, 99])

    def test_whole_float_checkpoints(self, gauss03, rng):
        samples = [(rng.uniform(-1, 1, 2), rng.uniform(-1, 1, 2)) for _ in range(5)]
        _, reps = run_stream(make_cfg(gauss03), samples, checkpoints=[4.0, 2, 2])
        assert [t for t, _ in reps] == [2, 4]

    def test_array_checkpoints_act_like_a_list(self, gauss03, rng):
        # an array's truth value is ambiguous, so `checkpoints or ()` raised
        samples = [(rng.uniform(-1, 1, 2), rng.uniform(-1, 1, 2)) for _ in range(5)]
        _, want = run_stream(make_cfg(gauss03), samples, checkpoints=[2, 4])
        _, got = run_stream(make_cfg(gauss03), samples, checkpoints=np.array([2, 4]))
        assert [t for t, _ in got] == [t for t, _ in want] == [2, 4]
        for (_, a), (_, b) in zip(got, want):
            assert np.array_equal(a.W, b.W) and np.array_equal(a.dict.xs, b.dict.xs)
        with pytest.raises(InputError, match="past the end"):
            run_stream(make_cfg(gauss03), samples, checkpoints=np.array([2, 9]))

    def test_on_step_sees_every_step(self, gauss03, rng):
        samples = [(rng.uniform(-1, 1, 2), rng.uniform(-1, 1, 2)) for _ in range(6)]
        seen = []
        state, _ = run_stream(make_cfg(gauss03), samples,
                              on_step=lambda s: seen.append((s, s.t, s.stats[-1].t)))
        assert [(t, rec_t) for _, t, rec_t in seen] == [(t, t) for t in range(1, 7)]
        assert all(s is state for s, _, _ in seen)

    def test_past_the_end_of_an_unsized_stream(self, gauss03, rng):
        # a zip has no length, so the mark is checked once the stream ends
        xs, ys = rng.uniform(-1, 1, (4, 2)), rng.uniform(-1, 1, (4, 2))
        steps = []
        with pytest.raises(InputError, match="checkpoint 5 is past the end of the "
                                             "4-sample stream"):
            run_stream(make_cfg(gauss03), zip(xs, ys), checkpoints=[5],
                       on_step=lambda s: steps.append(s.t))
        assert steps == [1, 2, 3, 4]

    def test_checkpoint_marks(self):
        assert checkpoint_marks(None) == set() == checkpoint_marks([], 3)
        assert checkpoint_marks([4.0, 2, 2]) == {2, 4} == checkpoint_marks([4, 2], 4)
        with pytest.raises(InputError, match="checkpoint 5 is past the end of the "
                                             "4-sample stream"):
            checkpoint_marks([2, 5], 4)
        with pytest.raises(InputError, match="whole number"):
            checkpoint_marks([0], 4)
        for mark in (True, np.True_, 2.5):
            with pytest.raises(InputError, match="whole number"):
                checkpoint_marks([mark])
        assert checkpoint_marks([np.int64(3), np.float64(2.0)]) == {2, 3}

    def test_readme_quick_start_runs(self, capsys):
        with open(os.path.join(os.path.dirname(__file__), "..", "README.md")) as fh:
            block = re.search(r"## Library quick start\n\n```python\n(.*?)```",
                              fh.read(), re.S).group(1)
        ns = {}
        exec(block, ns)
        state = ns["state"]
        assert capsys.readouterr().out == f"{state.dict_size}\n"
        assert state.t == 3550 and 250 <= state.dict_size <= 350    # "~300 of 3550"
        assert [t for t, _ in ns["checkpoints"]] == [1000, 3550]
        assert len(ns["spec"]) == 5 and ns["field"].values.shape == (1600,)

    def test_snapshot_copies_w_once(self, gauss03, rng):
        xs, ys = rng.uniform(-2, 2, (600, 2)), rng.uniform(-2, 2, (600, 2))
        state, _ = run_stream(make_cfg(gauss03), zip(xs, ys))
        d = state.dict_size
        assert d >= 500
        tracemalloc.start()
        try:
            rep = state.snapshot_rep()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * d * d * 8
        assert np.array_equal(rep.W, state.coefficients)
        assert np.array_equal(rep.dict.xs, state.gram_x.points)

    def test_checkpoint_reps_are_snapshots(self, gauss03, rng):
        cfg = make_cfg(gauss03)
        samples = [(rng.uniform(-1, 1, 2), rng.uniform(-1, 1, 2)) for _ in range(10)]
        state, reps = run_stream(cfg, samples, checkpoints=[3])
        assert len(reps[0][1]) == 3        # unaffected by later growth


def same_state(a, b) -> bool:
    """Bitwise equal folds: records (NaN deltas included), coefficients,
    atoms, tracked norm and jitters."""
    return (repr(a.stats) == repr(b.stats) and a.t == b.t
            and np.array_equal(a.coefficients, b.coefficients)
            and np.array_equal(a.gram_x.points, b.gram_x.points)
            and np.array_equal(a.gram_y.points, b.gram_y.points)
            and a.hs_norm == b.hs_norm
            and (a.gram_x.jitter, a.gram_y.jitter) == (b.gram_x.jitter, b.gram_y.jitter))


def hand_loop(cfg, samples):
    """``step`` sample by sample: each one a block of one."""
    state = new_state(cfg)
    for sample in samples:
        step(state, cfg, sample)
    return state


def stream_fold(cfg, samples):
    """``run_stream``'s state, or a fresh one for no samples."""
    return run_stream(cfg, samples)[0] if len(samples) else new_state(cfg)


def pairs_with_repeats(rng, n, dim=2):
    # every fourth sample repeats an earlier pair: an exact fold
    out = []
    for i in range(n):
        out.append(out[int(rng.integers(len(out)))] if i % 4 == 3
                   else (rng.uniform(-1, 1, dim), rng.uniform(-1, 1, dim)))
    return out


def near_duplicate_pairs(rng, n):
    # the Duffing pairs, each repeated 1e-15 away, as in TestHostileInputs
    xs, ys = generate_stream(DuffingTrajectories(n_traj=n // 20, steps_per_traj=10, seed=0))
    nx, ny = (np.repeat(a, 2, axis=0) for a in (xs, ys))
    nx[1::2] += 1e-15 * rng.normal(size=xs.shape)
    ny[1::2] += 1e-15 * rng.normal(size=ys.shape)
    return list(zip(nx, ny))


def repeated_x_pairs(rng, n):
    # every fifth x repeats an earlier one under a new y: at zero jitter its
    # admission has pivot^2 0, so the X factor refactors mid-block
    xs, ys = rng.uniform(-1, 1, (n, 2)), rng.uniform(-1, 1, (n, 2))
    xs[4::5] = xs[rng.integers(0, 4, n // 5)]
    return list(zip(xs, ys))


def uniform_stream(rng, n, dim=2):
    return [(rng.uniform(-1, 1, dim), rng.uniform(-1, 1, dim)) for _ in range(n)]


BLOCK_STREAMS = {
    # name: (stream, n, config keywords, HS tolerance)
    "admits": (uniform_stream, 100, {}, 1e-10),
    "exact-folds": (pairs_with_repeats, 200, {"budget": ConstantBudget(0.05)}, 1e-7),
    "growth-16-20-25": (uniform_stream, 40, {}, 1e-10),
    "lambda-eta-1": (uniform_stream, 200, {"lam": 1.0, "eta": 1.0,
                                           "budget": ConstantBudget(0.3)}, 1e-7),
    "polynomial": (uniform_stream, 200, {"step": PolynomialStep(0.2, 20, 0.8),
                                         "budget": CubicBudget(2.0)}, 1e-7),
    "near-duplicates": (near_duplicate_pairs, 600, {"kernel": Kernel.gaussian(0.3),
                                                    "lam": 1.2e-3,
                                                    "budget": ConstantBudget(1e-3)}, 1e-7),
    "refactor": (repeated_x_pairs, 100, {"budget": ConstantBudget(1e-3),
                                         "jitter_scale": 0.0}, 1e-7),
    # chunk edges: one chunk of 31 or 32 samples; chunks of 32 + 1; 32 + 32 + 1
    "length-31": (uniform_stream, 31, {"budget": ConstantBudget(0.05)}, 1e-10),
    "length-32": (uniform_stream, 32, {"budget": ConstantBudget(0.05)}, 1e-10),
    "length-33": (uniform_stream, 33, {"budget": ConstantBudget(0.05)}, 1e-10),
    "length-65": (uniform_stream, 65, {"budget": ConstantBudget(0.05)}, 1e-10),
    "linear-kernel": (partial(uniform_stream, dim=3), 100,
                      {"kernel": Kernel.linear(3.0), "budget": ConstantBudget(0.05)}, 1e-10),
    "points-1d": (partial(uniform_stream, dim=1), 100, {"budget": ConstantBudget(0.05)}, 1e-10),
    "points-3d": (partial(uniform_stream, dim=3), 100, {"budget": ConstantBudget(0.05)}, 1e-10),
    "budget-squared": (uniform_stream, 200, {"budget": ConstantBudget(2.5e-3),
                                             "budget_squared": True}, 1e-10),
}


def block_cfg(gauss05, kernel=None, lam=0.1, eta=0.2, step=None, **kw):
    if step is None:
        return make_cfg(kernel or gauss05, lam=lam, eta=eta, **kw)
    return LearnerConfig(lam=lam, step_schedule=step, kernel_x=kernel or gauss05,
                         kernel_y=kernel or gauss05, budget_schedule=kw.pop("budget"), **kw)


class TestBlockedFold:
    """``run_stream`` hands the state blocks of ``_BLOCK`` samples whose
    first step computes the products they share; a hand loop of ``step``
    folds sample by sample.  The two agree to rounding."""

    @pytest.mark.parametrize("name", list(BLOCK_STREAMS))
    def test_blocks_match_a_hand_loop(self, gauss05, rng, name):
        stream, n, kw, tol = BLOCK_STREAMS[name]
        cfg = block_cfg(gauss05, **kw)
        samples = stream(rng, n)
        blocked, _ = run_stream(cfg, samples)
        hand = hand_loop(cfg, samples)
        assert [r.accepted for r in blocked.stats] == [r.accepted for r in hand.stats]
        assert np.array_equal(blocked.gram_x.points, hand.gram_x.points)
        assert np.array_equal(blocked.gram_y.points, hand.gram_y.points)
        assert hs_distance(blocked.snapshot_rep(), hand.snapshot_rep()) <= tol
        assert blocked.hs_norm == pytest.approx(hs_norm(blocked.snapshot_rep()), rel=1e-9)
        if name == "growth-16-20-25":
            assert blocked.dict_size == 40      # admits 17, 21 and 26 grow the buffers
        if name == "refactor":
            assert blocked.gram_x.factorizations == hand.gram_x.factorizations == 2
        if name == "exact-folds":
            assert sum(r.delta == 0.0 for r in blocked.stats) > 20

    def test_max_dictionary_matches_a_hand_loop(self, gauss05, rng):
        cfg = make_cfg(gauss05, budget=ConstantBudget(0.05), max_dictionary=25)
        samples = uniform_stream(rng, 200)
        with pytest.raises(CapacityError) as blocked:
            run_stream(cfg, samples)
        with pytest.raises(CapacityError) as hand:
            hand_loop(cfg, samples)
        a, b = blocked.value.state, hand.value.state
        assert a.t == b.t and a.t % 32      # raised mid-block, after projections
        assert [r.accepted for r in a.stats] == [r.accepted for r in b.stats]
        assert np.array_equal(a.gram_x.points, b.gram_x.points)
        assert hs_distance(a.snapshot_rep(), b.snapshot_rep()) <= 1e-7

    def test_checkpoints_change_nothing(self):
        # a snapshot reads W without adding the pending block into it
        xs, ys = generate_stream(DuffingTrajectories(n_traj=120, steps_per_traj=10, seed=0))
        kernel = Kernel.gaussian(0.3)
        cfg = LearnerConfig(lam=1.2e-3, step_schedule=ConstantStep(0.2),
                            budget_schedule=CubicBudget(2.0), kernel_x=kernel, kernel_y=kernel)
        plain, _ = run_stream(cfg, zip(xs, ys))
        marks = range(37, len(xs) + 1, 37)
        marked, reps = run_stream(cfg, zip(xs, ys), checkpoints=marks)
        assert len(reps) == len(marks)
        assert same_state(plain, marked)

    def test_coefficients_leave_the_state_as_it_was(self, gauss05, rng):
        cfg = make_cfg(gauss05, budget=ConstantBudget(0.05))
        state = hand_loop(cfg, uniform_stream(rng, 60))
        assert state._m > 0
        before = state._Wf.copy(), state._m, state._c
        W = state.coefficients
        assert np.array_equal(state._Wf, before[0]) and (state._m, state._c) == before[1:]
        state._flush()                  # the sum, added in first, rounds alike
        assert np.array_equal(W, state._c * state._Wf[: state.dict_size, : state.dict_size])

    @pytest.mark.parametrize("bad, at", [("x", 40), ("y", 33)])
    def test_a_bad_sample_raises_from_its_own_step(self, gauss05, rng, monkeypatch, bad, at):
        from cmestream import learner
        samples = uniform_stream(rng, 80)
        x, y = samples[at - 1]
        samples[at - 1] = (np.array([np.nan, 0.5]), y) if bad == "x" else (x, np.ones(3))
        cfg = make_cfg(gauss05, budget=ConstantBudget(0.05))
        ref, _ = run_stream(cfg, samples[: at - 1])
        calls, raised, inner = [], [], learner.step

        def counted(state, cfg, sample):
            calls.append(state.t + 1)
            try:
                return inner(state, cfg, sample)
            except InputError:
                raised.append(state.t + 1)
                raise

        monkeypatch.setattr(learner, "step", counted)
        seen = []
        with pytest.raises(InputError, match="non-finite" if bad == "x" else "dimension"):
            run_stream(cfg, samples, on_step=seen.append)
        state = seen[-1]
        assert calls == list(range(1, at + 1)) and raised == [at]
        assert state.t == len(state.stats) == len(seen) == at - 1
        assert same_state(state, ref)

    @pytest.mark.parametrize("bad", ["abc", object(), [1.0, [2.0]]],
                             ids=["text", "object", "ragged"])
    def test_a_sample_that_does_not_convert_raises_input_error(self, gauss05, rng, bad):
        # by hand, and at stream position 6, mid-chunk
        cfg = make_cfg(gauss05, budget=ConstantBudget(0.05))
        samples = uniform_stream(rng, 40)
        samples[5] = (bad, samples[5][1])
        state = hand_loop(cfg, samples[:5])
        with pytest.raises(InputError, match="numeric") as hand:
            step(state, cfg, samples[5])
        assert hand.value.state is state and same_state(state, hand_loop(cfg, samples[:5]))
        seen = []
        with pytest.raises(InputError, match="numeric") as blocked:
            run_stream(cfg, samples, on_step=lambda s: seen.append(s.t))
        assert seen == [1, 2, 3, 4, 5]
        assert same_state(blocked.value.state, stream_fold(cfg, samples[:5]))

    @pytest.mark.parametrize("at", [1, 2, 32, 33, 34, 64, 65])
    @pytest.mark.parametrize("bad", ["x", "y"])
    def test_a_failure_carries_the_state_before_it(self, gauss05, rng, bad, at):
        # a bad x fails the point checks, a bad y does not convert; at the
        # chunk edges the state is the fold of the chunks before and their
        # prefix of this one
        cfg = make_cfg(gauss05, budget=ConstantBudget(0.05))
        samples = uniform_stream(rng, 70)
        x, y = samples[at - 1]
        samples[at - 1] = (np.array([np.nan, 0.5]), y) if bad == "x" else (x, "abc")
        for fold in (stream_fold, hand_loop):
            with pytest.raises(InputError) as exc:
                fold(cfg, samples)
            assert same_state(exc.value.state, fold(cfg, samples[: at - 1]))

    def test_a_residual_clamp_error_carries_the_state(self, gauss05, rng, monkeypatch):
        from cmestream import learner
        cfg = make_cfg(gauss05, budget=ConstantBudget(0.05))
        samples = uniform_stream(rng, 80)
        inner, calls = learner.clamp_roundoff, []

        def failing(raw, scale, rtol, message):
            calls.append(raw)
            if len(calls) == 40:
                raise NumericalError(f"{message}: {raw}")
            return inner(raw, scale, rtol, message)

        for fold in (stream_fold, hand_loop):
            calls.clear()
            monkeypatch.setattr(learner, "clamp_roundoff", failing)
            with pytest.raises(NumericalError) as exc:
                fold(cfg, samples)
            monkeypatch.undo()
            state = exc.value.state
            assert 32 < state.t < 64       # raised mid-chunk
            assert same_state(state, fold(cfg, samples[: state.t]))

    def test_max_dictionary_mid_block_carries_the_state(self, gauss05, rng):
        cfg = make_cfg(gauss05, max_dictionary=40)
        samples = uniform_stream(rng, 80)
        with pytest.raises(CapacityError) as err:
            run_stream(cfg, samples)
        state = err.value.state
        assert state.t == state.dict_size == 40
        assert same_state(state, run_stream(cfg, samples[:40])[0])

    def test_a_stream_error_comes_after_the_samples_before_it(self, gauss05, rng):
        samples = uniform_stream(rng, 50)

        def stream():
            yield from samples[:40]
            raise RuntimeError("stream broke")

        seen = []
        with pytest.raises(RuntimeError, match="stream broke"):
            run_stream(make_cfg(gauss05), stream(), on_step=lambda s: seen.append(s.t))
        assert seen == list(range(1, 41))

    def test_a_stream_that_reuses_its_buffers_folds_its_own_samples(self, gauss05, rng):
        # run_stream reads a block ahead, so it must copy each sample as it
        # reads it: here every pair is the same two arrays, rewritten
        samples = uniform_stream(rng, 100)

        def reusing():
            x, y = np.empty(2), np.empty(2)
            for sx, sy in samples:
                x[:], y[:] = sx, sy
                yield x, y

        for budget in (ZeroBudget(), ConstantBudget(0.05)):
            cfg = make_cfg(gauss05, budget=budget)
            blocked, _ = run_stream(cfg, reusing())
            hand = hand_loop(cfg, reusing())
            assert [r.accepted for r in blocked.stats] == [r.accepted for r in hand.stats]
            assert np.array_equal(blocked.gram_x.points, hand.gram_x.points)
            assert np.array_equal(blocked.gram_y.points, hand.gram_y.points)
            assert hs_distance(blocked.snapshot_rep(), hand.snapshot_rep()) <= 1e-10
        assert hand_loop(make_cfg(gauss05), samples).dict_size == 100

    def test_list_zip_and_generator_fold_alike(self, gauss05, rng):
        cfg = make_cfg(gauss05, budget=ConstantBudget(0.05))
        samples = pairs_with_repeats(rng, 150)
        xs, ys = [x for x, _ in samples], [y for _, y in samples]
        folds = [run_stream(cfg, samples)[0], run_stream(cfg, zip(xs, ys))[0],
                 run_stream(cfg, (s for s in samples))[0]]
        assert same_state(folds[0], folds[1]) and same_state(folds[0], folds[2])


def relative_error(got, want) -> float:
    if not want.size:
        return 0.0
    return float(np.max(np.abs(got - want)) / max(np.max(np.abs(want)), 1e-300))


# relative tolerances per stream: (corrected vectors W k_x, G_Y W k_x and
# W h; the X solve's parts), each about ten times the largest difference
# measured over the stream.  The vectors carry the Y factor's inverse residual
# through g = G_Y u_y, most on the near-duplicate and refactor streams; the
# block's GEMM parts round apart from a mat-vec's by the X factor's condition
COLUMN_RTOL = {"admits": (1e-14, 1e-14), "exact-folds": (1e-13, 2e-11),
               "growth-16-20-25": (1e-14, 1e-14), "lambda-eta-1": (1e-12, 4e-11),
               "polynomial": (3e-13, 2e-6), "near-duplicates": (3e-12, 2e-8),
               "refactor": (2e-12, 2e-6), "length-31": (1e-14, 1e-14),
               "length-32": (1e-14, 1e-14), "length-33": (1e-14, 1e-14),
               "length-65": (5e-14, 7e-12), "linear-kernel": (6e-13, 4e-15),
               "points-1d": (2e-13, 4e-12), "points-3d": (3e-14, 3e-12),
               "budget-squared": (3e-13, 2e-10)}


class TestBlockColumns:
    """At every blocked step the block's corrected vectors are the mat-vecs
    a block of one computes."""

    @pytest.mark.parametrize("name", list(BLOCK_STREAMS))
    def test_block_columns_are_the_mat_vecs(self, gauss05, rng, monkeypatch, name):
        from cmestream import learner
        stream, n, kw, _ = BLOCK_STREAMS[name]
        worst = {"wk": 0.0, "pk": 0.0, "l": 0.0, "u": 0.0, "wh": 0.0}
        seen = {"steps": 0, "parts": 0, "wh": 0}
        column = learner._Block.column

        def checked(blk, state, j, tests):
            out = column(blk, state, j, tests)
            k_x, _, wk, pk, parts, wu = out
            gx = state.gram_x
            worst["wk"] = max(worst["wk"], relative_error(wk, state._apply(k_x)))
            worst["pk"] = max(worst["pk"], relative_error(pk, state.gram_y.G @ wk))
            seen["steps"] += 1
            if parts is not None:
                l, u = gx.solve_parts(k_x)
                worst["l"] = max(worst["l"], relative_error(parts[0], l))
                worst["u"] = max(worst["u"], relative_error(parts[1], u))
                seen["parts"] += 1
            if wu is not None:
                h = k_x - gx.jitter * parts[1]
                worst["wh"] = max(worst["wh"],
                                  relative_error(wk - gx.jitter * wu, state._apply(h)))
                seen["wh"] += 1
            return out

        monkeypatch.setattr(learner._Block, "column", checked)
        run_stream(block_cfg(gauss05, **kw), stream(rng, n))
        assert seen["steps"] > n // 2
        if "budget" in kw:
            assert seen["parts"]
        if "budget" in kw and n > 2 * learner._BLOCK:
            # a block takes W u_x only over a factored dictionary: not the first
            assert seen["wh"]
        vectors, solves = COLUMN_RTOL[name]
        assert max(worst["wk"], worst["pk"], worst["wh"]) <= vectors, worst
        assert max(worst["l"], worst["u"]) <= solves, worst

    def test_zero_budget_builds_no_x_factor_or_x_gram(self):
        # the block forms [k_x; u_x] rows only where the X factor exists
        kernel = Kernel.gaussian(0.3)
        xs, ys = generate_stream(DuffingTrajectories(n_traj=120, steps_per_traj=10, seed=0))
        cfg = LearnerConfig(lam=1.2e-3, step_schedule=ConstantStep(0.2),
                            budget_schedule=ZeroBudget(), kernel_x=kernel, kernel_y=kernel)
        state, _ = run_stream(cfg, zip(xs, ys))
        assert state.dict_size == 1200
        assert not state.gram_x.has_inverse and not state.gram_y.has_inverse
        assert state.gram_x._G is None


class TestLearnerInvariants:
    def test_uniform_boundedness_short(self, gauss03, rng):
        bound = 1.0 / 0.1
        for eps in (0.0, 0.01):
            cfg = make_cfg(gauss03, budget=ConstantBudget(eps) if eps else ZeroBudget())
            state = new_state(cfg)
            for _ in range(300):
                step(state, cfg, (rng.uniform(-1, 1, 2), rng.uniform(-1, 1, 2)))
            assert max(r.hs_norm for r in state.stats) <= bound + 1e-6

    def test_tracked_norm_matches_exact(self, gauss03, rng):
        cfg = make_cfg(gauss03, budget=ConstantBudget(0.05))
        state = new_state(cfg)
        for _ in range(150):
            step(state, cfg, (rng.uniform(-1, 1, 2), rng.uniform(-1, 1, 2)))
        assert state.hs_norm == pytest.approx(hs_norm(state.snapshot_rep()), rel=1e-9)

    def test_rejected_steps_respect_budget(self, gauss05, rng):
        eps = 0.05
        cfg = make_cfg(gauss05, budget=ConstantBudget(eps))
        state = new_state(cfg)
        checked = 0
        for _ in range(120):
            x, y = rng.uniform(-1, 1, 2), rng.uniform(-1, 1, 2)
            prev = state.snapshot_rep()
            step(state, cfg, (x, y))
            rec = state.stats[-1]
            if rec.accepted or len(prev) == 0:
                continue
            kx = np.array([eval_kernel(gauss05, xj, x) for xj in prev.dict.xs])
            Wt = sgd_expand(prev.W, kx, rec.eta, cfg.lam)
            full = OperatorRep(
                dict=Dictionary(np.vstack([prev.dict.xs, x]),
                                np.vstack([prev.dict.ys, y])),
                W=Wt, kernel_x=gauss05, kernel_y=gauss05)
            assert hs_distance(state.snapshot_rep(), full) <= eps + 1e-7
            checked += 1
        assert checked > 10

    def test_deltas_never_significantly_negative(self, gauss05, rng):
        cfg = make_cfg(gauss05, budget=ConstantBudget(0.02))
        state = new_state(cfg)
        for _ in range(200):
            step(state, cfg, (rng.uniform(-0.5, 0.5, 2), rng.uniform(-0.5, 0.5, 2)))
        deltas = [r.delta for r in state.stats if not np.isnan(r.delta)]
        assert min(deltas) >= 0.0

    def test_rejection_consistency_across_budgets(self, gauss05, rng):
        # with identical dictionaries at a step, a rejection under the small
        # budget implies rejection under the larger one
        samples = [(rng.uniform(-1, 1, 2), rng.uniform(-1, 1, 2)) for _ in range(80)]
        cfg1 = make_cfg(gauss05, budget=ConstantBudget(0.02))
        cfg2 = make_cfg(gauss05, budget=ConstantBudget(0.08))
        s1, s2 = new_state(cfg1), new_state(cfg2)
        for pair in samples:
            same_dict = (s1.dict_size == s2.dict_size and
                         np.array_equal(s1.gram_x.points, s2.gram_x.points))
            step(s1, cfg1, pair)
            step(s2, cfg2, pair)
            if same_dict and not s1.stats[-1].accepted:
                assert not s2.stats[-1].accepted


def duffing_state(seed, budget):
    """The README Duffing learner (bandwidth 0.3, lambda 1.2e-3, eta 0.2)."""
    kernel = Kernel.gaussian(0.3)
    xs, ys = generate_stream(DuffingTrajectories(
        n_traj=355, steps_per_traj=10, seed=seed))
    cfg = LearnerConfig(lam=1.2e-3, step_schedule=ConstantStep(0.2),
                        budget_schedule=budget, kernel_x=kernel, kernel_y=kernel)
    return run_stream(cfg, zip(xs, ys))[0]


def near_duplicate_every(rng, n):
    # every x lies 1e-9 from the previous one
    xs = np.array([0.3, -0.2]) + 1e-9 * np.arange(n)[:, None] * np.array([1.0, 0.0])
    return xs, rng.uniform(-1, 1, (n, 2))


def near_duplicate_alternate(rng, n):
    # every other x lies 1e-9 from the x before it
    xs = rng.uniform(-1, 1, (n, 2))
    xs[1::2] = xs[0::2] + 1e-9
    return xs, rng.uniform(-1, 1, (n, 2))


def uniform_pairs(rng, n):
    return rng.uniform(-1, 1, (n, 2)), rng.uniform(-1, 1, (n, 2))


class TestGramFactorHealth:
    def test_duffing_cubic_inverse_residuals(self):
        state = duffing_state(0, ConstantBudget(2 * 0.2 ** 3))
        for cache in (state.gram_x, state.gram_y):
            d = cache.size
            A = cache.G + cache.jitter * np.eye(d)
            assert np.linalg.norm(A @ cache.inverse() - np.eye(d)) / np.sqrt(d) <= 1e-8

    def test_duffing_constant_budget_keeps_base_jitter(self):
        state = duffing_state(3, ConstantBudget(1e-3))
        assert state.gram_x.jitter == pytest.approx(1e-10, rel=1e-12)
        assert state.gram_y.jitter == pytest.approx(1e-10, rel=1e-12)
        assert state.dict_size <= 600
        # G u = r - jitter u is least exact on this badly conditioned run
        assert state.hs_norm == pytest.approx(hs_norm(state.snapshot_rep()), rel=1e-9)

    @staticmethod
    def _admit_run():
        kernel = Kernel.gaussian(0.3)
        xs, ys = generate_stream(DuffingTrajectories(
            n_traj=40, steps_per_traj=10, seed=1))
        cfg = LearnerConfig(lam=1.2e-3, step_schedule=ConstantStep(0.2),
                            budget_schedule=CubicBudget(2.0),
                            kernel_x=kernel, kernel_y=kernel)
        return cfg, list(zip(xs, ys))

    @staticmethod
    def _assert_fresh_factor(cfg, state):
        # the factor must equal one grown by fresh rows over the same atoms
        # (capacity grows 16 -> 20 -> 25 -> 31 -> 38)
        assert state.dict_size > 32
        fresh = GramCache(cfg.kernel_x, cfg.jitter_scale)
        fresh.append(state.gram_x.points[0])
        fresh.inverse()                 # the learner factors at its first test
        for p in state.gram_x.points[1:]:
            fresh.append(p)
        assert fresh.jitter == state.gram_x.jitter
        assert np.array_equal(fresh._factor_view(), state.gram_x._factor_view())

    def test_admit_factor_row_matches_fresh_append(self):
        # a blocked admit solves its row afresh, not from the block's R_x K_x
        cfg, samples = self._admit_run()
        self._assert_fresh_factor(cfg, run_stream(cfg, samples)[0])

    def test_hand_admit_factor_row_matches_fresh_append(self):
        # a hand step's admit reuses the test's R k_x
        cfg, samples = self._admit_run()
        state = new_state(cfg)
        for sample in samples:
            step(state, cfg, sample)
        self._assert_fresh_factor(cfg, state)

    @pytest.mark.parametrize("eps", [1e-3, 0.05])
    @pytest.mark.parametrize("bandwidth,pairs", [
        (0.5, near_duplicate_every),
        (0.5, near_duplicate_alternate),
        (1e-3, uniform_pairs),
        (1e3, uniform_pairs),
    ])
    def test_adversarial_inputs(self, rng, eps, bandwidth, pairs):
        cfg = make_cfg(Kernel.gaussian(bandwidth), budget=ConstantBudget(eps))
        xs, ys = pairs(rng, 400)
        state, _ = run_stream(cfg, zip(xs, ys))
        assert state.hs_norm == pytest.approx(hs_norm(state.snapshot_rep()), rel=1e-9)


class TestLongRuns:
    """The tracked HS norm stays exact over long streams (1e-9 relative)."""

    def test_chain_1e5_steps(self):
        # the 3-state chain of acceptance criterion 6, zero budget
        pi = np.array([0.5, 0.3, 0.2])
        P = 0.5 * np.outer(np.ones(3), pi) + 0.5 * np.eye(3)
        model = FiniteSpaceModel.from_chain(np.array([[0.0], [1.0], [2.0]]), P)
        xs, ys = generate_stream(FiniteChainStream(
            model=model, n_samples=100_000, burn_in=0, seed=0))
        state, _ = run_stream(make_cfg(Kernel.gaussian(0.5), lam=0.1, eta=0.1),
                              zip(xs, ys))
        assert state.t == 100_000 and state.dict_size <= 5
        assert state.hs_norm == pytest.approx(hs_norm(state.snapshot_rep()), rel=1e-9)

    # at lambda*eta = 1 every step decays W to zero; at 1 - 1e-12 the scalar
    # factor falls below _MIN_FACTOR and is folded into W every few steps.
    # The first case runs about 13 s, so it is marked longrun.
    @pytest.mark.parametrize("lam_eta", [pytest.param(1.0, marks=pytest.mark.longrun),
                                         1 - 1e-12])
    def test_duffing_1e4_steps_near_total_decay(self, lam_eta):
        xs, ys = generate_stream(DuffingTrajectories(
            n_traj=1000, steps_per_traj=10, seed=0))
        cfg = make_cfg(Kernel.gaussian(0.3), lam=5.0, eta=lam_eta / 5.0,
                       budget=CubicBudget(2.0))
        state, _ = run_stream(cfg, zip(xs, ys))
        assert state.t == 10_000
        assert state.hs_norm == pytest.approx(hs_norm(state.snapshot_rep()), rel=1e-9)
