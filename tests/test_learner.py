import os
import re
import tracemalloc

import numpy as np
import pytest

from cmestream import (CapacityError, ConfigError, ConstantBudget, ConstantStep,
                       CubicBudget, Dictionary, DuffingTrajectories, FiniteChainStream,
                       FiniteSpaceModel, GramCache, InputError, Kernel, LearnerConfig,
                       OperatorRep, PolynomialStep, QuadraticBudget,
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
        with pytest.raises(InputError):     # a new schedule rides along
            step(state, make_cfg(gauss03, eta=0.1, budget=ConstantBudget(0.01)), sample)
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
        with pytest.raises(ConfigError, match="mid-run"):
            step(state, make_cfg(gauss03, **{**base, **change}), ([0.2, 0.4], [0.4, 0.2]))
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
        (1.0, 0.9, 0.3, 37),      # ... and snapshots flush at odd points
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

    def test_admit_factor_row_matches_fresh_append(self):
        # the admit reuses the test's R k_x; the factor must equal one grown
        # by fresh rows over the same atoms (capacity grows 16 -> 20 -> 25 -> 31 -> 38)
        kernel = Kernel.gaussian(0.3)
        xs, ys = generate_stream(DuffingTrajectories(
            n_traj=40, steps_per_traj=10, seed=1))
        cfg = LearnerConfig(lam=1.2e-3, step_schedule=ConstantStep(0.2),
                            budget_schedule=CubicBudget(2.0),
                            kernel_x=kernel, kernel_y=kernel)
        state = run_stream(cfg, zip(xs, ys))[0]
        assert state.dict_size > 32
        fresh = GramCache(kernel, cfg.jitter_scale)
        fresh.append(state.gram_x.points[0])
        fresh.inverse()                 # the learner factors at its first test
        for p in state.gram_x.points[1:]:
            fresh.append(p)
        assert fresh.jitter == state.gram_x.jitter
        assert np.array_equal(fresh._factor_view(), state.gram_x._factor_view())

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
