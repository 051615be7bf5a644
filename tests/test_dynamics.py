from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmestream import (DuffingParams, DuffingTrajectories, FiniteChainStream,
                       FiniteIIDStream, FiniteSpaceModel, InputError,
                       ModelError, duffing_step, duffing_trajectory,
                       generate_stream, mixing_time, tv_distance)

EQ_PARAMS = DuffingParams()     # delta=0.5, beta=-1, alpha=1


class TestDuffingStep:
    def test_positive_equilibrium_is_fixed(self):
        out = duffing_step([1.0, 0.0], EQ_PARAMS)
        assert np.linalg.norm(out - [1.0, 0.0]) <= 1e-9

    def test_negative_equilibrium_is_fixed(self):
        out = duffing_step([-1.0, 0.0], EQ_PARAMS)
        assert np.linalg.norm(out - [-1.0, 0.0]) <= 1e-9

    def test_converges_to_an_attractor(self):
        state = np.array([2.0, 0.0])
        n = int(round(60.0 / EQ_PARAMS.sample_interval))
        final = duffing_trajectory(state, n, EQ_PARAMS)[-1]
        d = min(np.linalg.norm(final - [1.0, 0.0]),
                np.linalg.norm(final - [-1.0, 0.0]))
        assert d <= 1e-3

    def test_rejects_non_finite_state(self):
        with pytest.raises(InputError):
            duffing_step([np.nan, 0.0], EQ_PARAMS)

    def test_interval_must_be_multiple_of_dt(self):
        with pytest.raises(InputError):
            DuffingParams(dt_integrator=0.03, sample_interval=0.25)

    @pytest.mark.parametrize("dt, interval", [
        (np.inf, 0.25), (0.01, np.inf), (np.nan, 0.25), (0.01, -0.25),
        # ratios that round to no substeps, or overflow to infinity
        (1e300, 0.25), (1.0, 1e-12), (1e-300, 1e300)])
    def test_step_and_interval_must_give_whole_substeps(self, dt, interval):
        # an infinite step used to give 0 substeps: a stream of (x, x) pairs
        with pytest.raises(InputError):
            DuffingParams(dt_integrator=dt, sample_interval=interval)

    def test_rk4_order(self):
        # halving dt cuts the one-interval error against a dt/8 reference by
        # >= 12x (nominal 16x for a 4th-order scheme), away from equilibria
        start = np.array([1.5, 0.8])

        def advance(dt):
            p = DuffingParams(dt_integrator=dt, sample_interval=0.25)
            return duffing_step(start, p)

        ref = advance(0.25 / 64)
        err_coarse = np.linalg.norm(advance(0.25 / 4) - ref)
        err_fine = np.linalg.norm(advance(0.25 / 8) - ref)
        assert err_coarse / err_fine >= 12.0


@pytest.fixture
def chain_model():
    pi = np.array([0.5, 0.3, 0.2])
    P = 0.5 * np.outer(np.ones(3), pi) + 0.5 * np.eye(3)
    return FiniteSpaceModel.from_chain(np.array([[0.0], [1.0], [2.0]]), P)


class TestGenerateStream:
    def test_duffing_pairs_are_chained(self):
        spec = DuffingTrajectories(n_traj=1, steps_per_traj=10, seed=5)
        xs, ys = generate_stream(spec)
        assert xs.shape == (10, 2)
        assert np.array_equal(ys[:-1], xs[1:])

    def test_paper_scale_stream_size(self):
        spec = DuffingTrajectories(n_traj=355, steps_per_traj=10, seed=1)
        xs, ys = generate_stream(spec)
        assert xs.shape == (3550, 2) and ys.shape == (3550, 2)

    def test_seed_determinism_bitwise(self):
        spec = DuffingTrajectories(n_traj=5, steps_per_traj=4, seed=11)
        a = generate_stream(spec)
        b = generate_stream(spec)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    def test_interleave_orders(self):
        src = DuffingTrajectories(n_traj=3, steps_per_traj=2, seed=2)
        seq = generate_stream(src)
        rr = generate_stream(replace(src, interleave="round_robin"))
        # same multiset of pairs, different order
        assert sorted(map(tuple, seq[0].tolist())) == sorted(map(tuple, rr[0].tolist()))
        assert np.array_equal(seq[0][0], rr[0][0])
        assert np.array_equal(seq[0][1], rr[0][3])   # traj 0 step 1 moves

    def test_init_box_respected(self):
        box = ((0.5, 0.6), (-0.1, 0.0))
        spec = DuffingTrajectories(n_traj=50, steps_per_traj=1, seed=3, init_box=box)
        xs, _ = generate_stream(spec)
        assert np.all(xs[:, 0] >= 0.5) and np.all(xs[:, 0] <= 0.6)
        assert np.all(xs[:, 1] >= -0.1) and np.all(xs[:, 1] <= 0.0)

    def test_identity_chain_is_absorbing(self):
        model = FiniteSpaceModel(
            x_states=np.array([[0.0], [1.0]]), y_states=np.array([[0.0], [1.0]]),
            joint=np.full((2, 2), 0.25), transition=np.eye(2))
        spec = FiniteChainStream(model=model, n_samples=20, burn_in=5, seed=9)
        xs, ys = generate_stream(spec)
        assert np.array_equal(xs, ys)
        assert np.all(xs == xs[0])

    def test_chain_pairs_are_chained(self, chain_model):
        spec = FiniteChainStream(model=chain_model, n_samples=50, burn_in=3, seed=4)
        xs, ys = generate_stream(spec)
        assert np.array_equal(ys[:-1], xs[1:])
        assert set(map(tuple, xs.tolist())) <= {(0.0,), (1.0,), (2.0,)}

    def test_iid_matches_joint_frequencies(self, chain_model):
        spec = FiniteIIDStream(model=chain_model, n_samples=20000, seed=8)
        xs, ys = generate_stream(spec)
        freq = np.zeros((3, 3))
        for x, y in zip(xs[:, 0], ys[:, 0]):
            freq[int(x), int(y)] += 1
        freq /= freq.sum()
        assert np.max(np.abs(freq - chain_model.joint)) < 0.015

    def test_chain_needs_transition(self, chain_model):
        model = FiniteSpaceModel(x_states=chain_model.x_states,
                                 y_states=chain_model.y_states,
                                 joint=chain_model.joint)
        with pytest.raises(InputError, match="transition matrix"):
            FiniteChainStream(model=model, n_samples=5, burn_in=0, seed=1)

    def test_chain_needs_shared_states(self, chain_model):
        model = FiniteSpaceModel(x_states=chain_model.x_states,
                                 y_states=chain_model.y_states + 1.0,
                                 joint=chain_model.joint,
                                 transition=chain_model.transition)
        with pytest.raises(InputError, match="shared x/y state lists"):
            FiniteChainStream(model=model, n_samples=5, seed=0)

    def test_unknown_interleave_rejected(self):
        with pytest.raises(InputError, match="zigzag"):
            DuffingTrajectories(n_traj=2, steps_per_traj=2, seed=0, interleave="zigzag")

    def test_finite_source_takes_no_interleave(self, chain_model):
        # a finite source draws one sequence, so it has no order to choose
        with pytest.raises(TypeError):
            FiniteChainStream(model=chain_model, n_samples=5, seed=0,
                              interleave="round_robin")
        with pytest.raises(TypeError):
            FiniteIIDStream(model=chain_model, n_samples=5, seed=0,
                            interleave="sequential")

    @pytest.mark.parametrize("keys", [
        {"n_traj": 0}, {"steps_per_traj": 0},
        {"init_box": ((-2.0, 2.0),)}, {"init_box": ((-2.0, np.inf), (-2.0, 2.0))},
        {"init_box": ((-2.0, 2.0), (np.nan, 2.0))},
        # finite bounds whose width overflows
        {"init_box": ((-1e308, 1e308), (-2.0, 2.0))}])
    def test_source_checked_when_made(self, keys):
        with pytest.raises(InputError):
            DuffingTrajectories(**{"n_traj": 2, "steps_per_traj": 2, "seed": 0, **keys})

    @pytest.mark.parametrize("seed", [-1, -3, 1.5, 2.0, "3", None, True])
    def test_seed_checked_when_made(self, chain_model, seed):
        # numpy would raise its own ValueError only when the stream is drawn
        makers = [lambda: DuffingTrajectories(n_traj=2, steps_per_traj=2, seed=seed),
                  lambda: FiniteChainStream(model=chain_model, n_samples=5, seed=seed),
                  lambda: FiniteIIDStream(model=chain_model, n_samples=5, seed=seed)]
        for make in makers:
            with pytest.raises(InputError, match=f"seed must be an integer >= 0, got {seed!r}"):
                make()

    def test_numpy_integer_seed_accepted(self, chain_model):
        ref = generate_stream(FiniteIIDStream(model=chain_model, n_samples=5, seed=4))
        got = generate_stream(FiniteIIDStream(model=chain_model, n_samples=5, seed=np.int64(4)))
        assert all(np.array_equal(a, b) for a, b in zip(ref, got))

    @pytest.mark.parametrize("make", [
        lambda m: FiniteChainStream(model=m, n_samples=0, seed=0),
        lambda m: FiniteChainStream(model=m, n_samples=5, seed=0, burn_in=-1),
        lambda m: FiniteIIDStream(model=m, n_samples=0, seed=0)],
        ids=["chain-n_samples", "chain-burn_in", "iid-n_samples"])
    def test_finite_source_checked_when_made(self, chain_model, make):
        with pytest.raises(InputError, match="need n_samples >= 1"):
            make(chain_model)


simplex3 = st.lists(st.floats(0.01, 1.0), min_size=3, max_size=3).map(
    lambda v: np.array(v) / np.sum(v))


class TestTvDistance:
    def test_identical(self):
        assert tv_distance([0.3, 0.7], [0.3, 0.7]) == 0.0

    def test_disjoint_supports(self):
        assert tv_distance([1.0, 0.0], [0.0, 1.0]) == 1.0

    def test_direct_value(self):
        assert tv_distance([0.7, 0.3], [0.5, 0.5]) == pytest.approx(0.2, rel=1e-12)

    def test_invalid_distribution(self):
        with pytest.raises(InputError):
            tv_distance([0.5, 0.4], [0.5, 0.5])

    @given(p=simplex3, q=simplex3)
    @settings(max_examples=50, deadline=None)
    def test_metric_properties(self, p, q):
        d = tv_distance(p, q)
        assert 0.0 <= d <= 1.0
        assert d == tv_distance(q, p)
        if np.array_equal(p, q):
            assert d <= 1e-15

    @given(p=simplex3, q=simplex3, r=simplex3)
    @settings(max_examples=50, deadline=None)
    def test_triangle_inequality(self, p, q, r):
        assert tv_distance(p, r) <= tv_distance(p, q) + tv_distance(q, r) + 1e-12


class TestMixingTime:
    def test_identity_chain_is_model_error(self):
        model = FiniteSpaceModel(
            x_states=np.zeros((2, 1)), y_states=np.zeros((2, 1)),
            joint=np.full((2, 2), 0.25), transition=np.eye(2))
        with pytest.raises(ModelError):
            mixing_time(model, 0.1, 10)

    def test_lazy_chain_exceeds_horizon(self):
        P = 0.999 * np.eye(2) + 0.001 * np.full((2, 2), 0.5)
        model = FiniteSpaceModel.from_chain(np.array([[0.0], [1.0]]), P)
        assert mixing_time(model, 0.01, 20) is None

    def test_rank_one_rows_mix_in_one_step(self):
        pi = np.array([0.2, 0.5, 0.3])
        P = np.tile(pi, (3, 1))
        model = FiniteSpaceModel.from_chain(np.array([[0.], [1.], [2.]]), P)
        assert mixing_time(model, 0.01, 10) == 1

    def test_matches_power_iteration_oracle(self, chain_model):
        delta = 0.01
        got = mixing_time(chain_model, delta, 100)
        # brute force: track TV distances of matrix powers directly
        P = chain_model.transition
        pi = chain_model.joint.sum(axis=1)
        M = np.eye(3)
        expected = None
        for t in range(1, 101):
            M = M @ P
            if max(0.5 * np.sum(np.abs(M[i] - pi)) for i in range(3)) <= delta:
                expected = t
                break
        assert got == expected
        # second eigenvalue 0.5: distance halves per step, so ~log2(1/delta)
        assert 4 <= got <= 12

    def test_delta_must_be_in_unit_interval(self, chain_model):
        with pytest.raises(InputError):
            mixing_time(chain_model, 1.5, 10)
