import json
import tracemalloc

import numpy as np
import pytest

from cmestream import (Dictionary, InputError, Kernel, KmeWeights, OperatorRep,
                       conditional_expectation, eval_kernel, hs_distance,
                       hs_inner, hs_norm_sq, load_rep, predict_coefficients,
                       propagate_kme, rep_from_dict, rep_to_dict, save_rep,
                       zero_rep)
from conftest import hs_inner_quadruple, random_rep


def single_atom_rep(kernel, x, y, w):
    return OperatorRep(dict=Dictionary(np.array([x]), np.array([y])),
                       W=np.array([[w]]), kernel_x=kernel, kernel_y=kernel)


class TestHsNormSq:
    def test_single_atom(self, gauss03):
        rep = single_atom_rep(gauss03, [0.1, 0.2], [0.5, -0.5], 0.2)
        assert hs_norm_sq(rep) == pytest.approx(0.04, rel=1e-12)

    def test_zero_coefficients(self, gauss03, rng):
        rep = random_rep(rng, gauss03, 4)
        rep = OperatorRep(dict=rep.dict, W=np.zeros((4, 4)),
                          kernel_x=gauss03, kernel_y=gauss03)
        assert hs_norm_sq(rep) == 0.0

    def test_matches_quadruple_sum(self, gauss05, rng):
        rep = random_rep(rng, gauss05, 3)
        assert hs_norm_sq(rep) == pytest.approx(hs_inner_quadruple(rep, rep), rel=1e-10)

    def test_nan_rejected_at_construction(self, gauss03):
        with pytest.raises(InputError):
            single_atom_rep(gauss03, [0.0, 0.0], [0.0, 0.0], float("nan"))

    def test_empty_rep(self, gauss03):
        assert hs_norm_sq(zero_rep(2, 2, gauss03, gauss03)) == 0.0


class TestHsInner:
    def test_self_inner_equals_norm(self, gauss05, rng):
        A = random_rep(rng, gauss05, 4)
        assert hs_inner(A, A) == pytest.approx(hs_norm_sq(A), rel=1e-10)

    def test_zero_partner(self, gauss05, rng):
        A = random_rep(rng, gauss05, 3)
        B = OperatorRep(dict=A.dict, W=np.zeros((3, 3)),
                        kernel_x=gauss05, kernel_y=gauss05)
        assert hs_inner(A, B) == 0.0

    def test_disjoint_dictionaries_match_oracle(self, gauss05, rng):
        A = random_rep(rng, gauss05, 2)
        B = random_rep(rng, gauss05, 2)
        assert hs_inner(A, B) == pytest.approx(hs_inner_quadruple(A, B), abs=1e-10)

    def test_symmetry(self, gauss05, rng):
        A = random_rep(rng, gauss05, 3)
        B = random_rep(rng, gauss05, 4)
        assert hs_inner(A, B) == pytest.approx(hs_inner(B, A), rel=1e-12)

    def test_bilinearity_in_scaling(self, gauss05, rng):
        A = random_rep(rng, gauss05, 3)
        B = random_rep(rng, gauss05, 3)
        base = hs_inner(A, B)
        for alpha in (-1.0, 0.5, 2.0):
            scaled = OperatorRep(dict=A.dict, W=alpha * A.W,
                                 kernel_x=gauss05, kernel_y=gauss05)
            assert hs_inner(scaled, B) == pytest.approx(alpha * base, rel=1e-10)

    def test_cauchy_schwarz(self, gauss05, rng):
        for _ in range(20):
            A = random_rep(rng, gauss05, 3)
            B = random_rep(rng, gauss05, 4)
            lhs = hs_inner(A, B) ** 2
            rhs = hs_norm_sq(A) * hs_norm_sq(B)
            assert lhs <= rhs + 1e-9 * max(1.0, rhs)

    def test_kernel_mismatch(self, gauss03, gauss05, rng):
        A = random_rep(rng, gauss03, 2)
        B = random_rep(rng, gauss05, 2)
        with pytest.raises(InputError):
            hs_inner(A, B)


class TestHsDistance:
    def test_identical_reps(self, gauss05, rng):
        A = random_rep(rng, gauss05, 3)
        assert hs_distance(A, A) == 0.0

    def test_zero_partner_gives_norm(self, gauss05, rng):
        A = random_rep(rng, gauss05, 3)
        B = OperatorRep(dict=A.dict, W=np.zeros((3, 3)),
                        kernel_x=gauss05, kernel_y=gauss05)
        assert hs_distance(A, B) == pytest.approx(np.sqrt(hs_norm_sq(A)), rel=1e-12)

    def test_merged_dictionary_oracle(self, gauss05, rng):
        A = random_rep(rng, gauss05, 2)
        B = random_rep(rng, gauss05, 3)
        xs = np.vstack([A.dict.xs, B.dict.xs])
        ys = np.vstack([A.dict.ys, B.dict.ys])
        W = np.zeros((5, 5))
        W[:2, :2] = A.W
        W[2:, 2:] = -B.W
        diff = OperatorRep(dict=Dictionary(xs, ys), W=W,
                           kernel_x=gauss05, kernel_y=gauss05)
        oracle = np.sqrt(max(0.0, hs_inner_quadruple(diff, diff)))
        assert hs_distance(A, B) == pytest.approx(oracle, abs=1e-10)

    def test_triangle_inequality(self, gauss05, rng):
        for _ in range(10):
            A = random_rep(rng, gauss05, 2)
            B = random_rep(rng, gauss05, 3)
            C = random_rep(rng, gauss05, 2)
            assert hs_distance(A, C) <= hs_distance(A, B) + hs_distance(B, C) + 1e-9


class TestPredictions:
    def test_single_atom_at_dictionary_point(self, gauss03):
        rep = single_atom_rep(gauss03, [0.3, 0.3], [0.0, 0.0], 0.7)
        c = predict_coefficients(rep, [0.3, 0.3])
        assert c == pytest.approx([0.7])

    def test_far_query_decays(self, gauss03, rng):
        rep = random_rep(rng, gauss03, 4)
        c = predict_coefficients(rep, [50.0, 50.0])
        assert np.max(np.abs(c)) < 1e-30

    def test_matches_direct_product(self, gauss05, rng):
        rep = random_rep(rng, gauss05, 4)
        x = rng.uniform(-1, 1, 2)
        k = np.array([eval_kernel(gauss05, xj, x) for xj in rep.dict.xs])
        assert predict_coefficients(rep, x) == pytest.approx(rep.W @ k, rel=1e-12)

    def test_dimension_error(self, gauss05, rng):
        rep = random_rep(rng, gauss05, 3)
        with pytest.raises(InputError):
            predict_coefficients(rep, [0.0, 0.0, 0.0])

    def test_conditional_expectation_zero_function(self, gauss05, rng):
        rep = random_rep(rng, gauss05, 3)
        assert conditional_expectation(rep, np.zeros(3), [0.1, 0.1]) == 0.0

    def test_conditional_expectation_single_atom(self, gauss03):
        rep = single_atom_rep(gauss03, [0.2, 0.1], [0.0, 1.0], 0.2)
        val = conditional_expectation(rep, [2.0], [0.2, 0.1])
        assert val == pytest.approx(0.4, rel=1e-12)

    def test_conditional_expectation_reproducing(self, gauss05, rng):
        # f = k_Y(y_1, .): <mu(x), f> equals the gram-row contraction
        rep = random_rep(rng, gauss05, 3)
        x = rng.uniform(-1, 1, 2)
        f_vals = np.array([eval_kernel(gauss05, rep.dict.ys[0], yi)
                           for yi in rep.dict.ys])
        c = predict_coefficients(rep, x)
        assert conditional_expectation(rep, f_vals, x) == pytest.approx(c @ f_vals,
                                                                        rel=1e-12)

    def test_conditional_expectation_length_error(self, gauss05, rng):
        rep = random_rep(rng, gauss05, 3)
        with pytest.raises(InputError):
            conditional_expectation(rep, [1.0, 2.0], [0.0, 0.0])


class TestPropagateKme:
    def test_zero_weights(self, gauss05, rng):
        rep = random_rep(rng, gauss05, 3)
        m = KmeWeights(anchors=rng.uniform(-1, 1, (4, 2)), weights=np.zeros(4))
        assert np.array_equal(propagate_kme(rep, m), np.zeros(3))

    def test_single_anchor_at_atom(self, gauss03):
        rep = single_atom_rep(gauss03, [0.5, 0.5], [0.0, 0.0], 0.3)
        m = KmeWeights(anchors=np.array([[0.5, 0.5]]), weights=np.array([1.0]))
        assert propagate_kme(rep, m) == pytest.approx([0.3])

    def test_uniform_weights_average_predictions(self, gauss05, rng):
        rep = random_rep(rng, gauss05, 3)
        anchors = rng.uniform(-1, 1, (10, 2))
        m = KmeWeights(anchors=anchors, weights=np.full(10, 0.1))
        avg = np.mean([predict_coefficients(rep, z) for z in anchors], axis=0)
        assert propagate_kme(rep, m) == pytest.approx(avg, rel=1e-10)

    def test_linearity_in_weights(self, gauss05, rng):
        rep = random_rep(rng, gauss05, 4)
        anchors = rng.uniform(-1, 1, (5, 2))
        w1, w2 = rng.normal(size=5), rng.normal(size=5)
        out = propagate_kme(rep, KmeWeights(anchors, w1 + w2))
        parts = (propagate_kme(rep, KmeWeights(anchors, w1))
                 + propagate_kme(rep, KmeWeights(anchors, w2)))
        assert np.allclose(out, parts, atol=1e-12)

    def test_anchor_dim_error(self, gauss05, rng):
        rep = random_rep(rng, gauss05, 3)
        with pytest.raises(InputError):
            propagate_kme(rep, KmeWeights(np.zeros((2, 3)), np.ones(2)))


def awkward_rep(kernel, signed_zeros=False):
    xs = np.array([[1e-308, 0.1 + 0.2], [3.0, -1.2345678901234567]])
    ys = np.array([[np.pi, 2.0], [1.0, 1e300]])
    W = np.array([[0.1, -2e-17], [5e5, 0.3]])
    if signed_zeros:
        ys[0, 1], ys[1, 0], W[1, 1] = -0.0, 5e-324, -0.0
    return OperatorRep(dict=Dictionary(xs, ys), W=W, kernel_x=kernel, kernel_y=kernel)


class TestSerialization:
    def test_round_trip_is_bit_faithful(self, gauss03, rng, tmp_path):
        rep = random_rep(rng, gauss03, 5)
        path = tmp_path / "model.json"
        save_rep(rep, path)
        back = load_rep(path)
        assert np.array_equal(back.W, rep.W)
        assert np.array_equal(back.dict.xs, rep.dict.xs)
        assert np.array_equal(back.dict.ys, rep.dict.ys)
        assert back.kernel_x == rep.kernel_x and back.kernel_y == rep.kernel_y

    def test_dict_round_trip_awkward_values(self, gauss03):
        rep = awkward_rep(gauss03)
        back = rep_from_dict(json.loads(json.dumps(rep_to_dict(rep))))
        assert np.array_equal(back.W, rep.W)
        assert np.array_equal(back.dict.xs, rep.dict.xs)

    def test_empty_rep_round_trip(self, gauss03):
        rep = zero_rep(2, 3, gauss03, gauss03)
        back = rep_from_dict(rep_to_dict(rep))
        assert len(back) == 0
        assert back.dict.dim_x == 2 and back.dict.dim_y == 3

    def test_custom_kernel_not_serializable(self, rng, tmp_path):
        k = Kernel.custom(lambda A, B: A @ B.T, bound=5.0)
        rep = random_rep(rng, k, 2)
        with pytest.raises(InputError):
            rep_to_dict(rep)
        with pytest.raises(InputError):
            save_rep(rep, tmp_path / "model.json")
        assert not (tmp_path / "model.json").exists()


class TestStreamingWriter:
    """``save_rep`` streams ``json.dumps(rep_to_dict(U))`` row by row."""

    @pytest.mark.parametrize("d, dim_x, dim_y", [(0, 2, 2), (1, 1, 1), (7, 1, 3),
                                                 (5, 3, 1), (40, 2, 2)])
    def test_bytes_equal_json_dumps(self, gauss03, rng, tmp_path, d, dim_x, dim_y):
        xs = rng.uniform(-2, 2, (d, dim_x))
        ys = rng.normal(size=(d, dim_y))
        W = rng.normal(size=(d, d)) * 10.0 ** rng.integers(-300, 300, (d, d))
        rep = OperatorRep(dict=Dictionary(xs, ys), W=W, kernel_x=gauss03,
                          kernel_y=Kernel.linear(2.5))
        save_rep(rep, tmp_path / "model.json")
        assert (tmp_path / "model.json").read_text() == json.dumps(rep_to_dict(rep))

    @pytest.mark.parametrize("make", [awkward_rep,
                                      lambda k: awkward_rep(k, signed_zeros=True),
                                      lambda k: zero_rep(0, 0, k, k),
                                      lambda k: zero_rep(2, 3, k, k)])
    def test_bytes_equal_json_dumps_edge_cases(self, gauss03, tmp_path, make):
        rep = make(gauss03)
        save_rep(rep, tmp_path / "model.json")
        assert (tmp_path / "model.json").read_text() == json.dumps(rep_to_dict(rep))

    def test_traced_peak_below_coefficient_bytes(self, gauss05, rng, tmp_path):
        rep = random_rep(rng, gauss05, 600)
        tracemalloc.start()
        try:
            save_rep(rep, tmp_path / "model.json")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < rep.W.nbytes


class TestValidation:
    def test_w_shape_mismatch(self, gauss03, rng):
        with pytest.raises(InputError):
            OperatorRep(dict=Dictionary(rng.uniform(size=(3, 2)), rng.uniform(size=(3, 2))),
                        W=np.zeros((2, 2)), kernel_x=gauss03, kernel_y=gauss03)

    def test_dictionary_length_mismatch(self):
        with pytest.raises(InputError):
            Dictionary(np.zeros((3, 2)), np.zeros((2, 2)))

    def test_rep_does_not_alias_a_callers_array(self, gauss03, rng):
        xs, ys, W = rng.uniform(size=(3, 2)), rng.uniform(size=(3, 2)), rng.normal(size=(3, 3))
        rep = OperatorRep(dict=Dictionary(xs, ys), W=W, kernel_x=gauss03, kernel_y=gauss03)
        kept = [a.copy() for a in (xs, ys, W)]
        for a in (xs, ys, W):
            a[0, 0] = 99.0
        for got, want in zip((rep.dict.xs, rep.dict.ys, rep.W), kept):
            assert np.array_equal(got, want)

    def test_read_only_owned_array_is_adopted(self, gauss03, rng):
        W = rng.normal(size=(3, 3))
        W.setflags(write=False)
        view = np.zeros((4, 4))[:3, :3]
        view.setflags(write=False)
        xs = rng.uniform(size=(3, 2))
        for coef, adopted in ((W, True), (view, False)):
            rep = OperatorRep(dict=Dictionary(xs, xs), W=coef, kernel_x=gauss03,
                              kernel_y=gauss03)
            assert (rep.W is coef) == adopted and not rep.W.flags.writeable

    @pytest.mark.parametrize("key", ["dim_x", "dim_y"])
    @pytest.mark.parametrize("value, d", [(2.5, 0), (True, 0), ("2", 0), (-1, 0),
                                          (2.5, 2), (True, 2), ("2", 2), (-1, 2), (3, 2)])
    def test_declared_dimension_checked(self, gauss03, rng, key, value, d):
        rep = OperatorRep(dict=Dictionary(rng.uniform(size=(d, 2)), rng.uniform(size=(d, 2))),
                          W=np.zeros((d, d)), kernel_x=gauss03, kernel_y=gauss03)
        data = rep_to_dict(rep)
        data[key] = value
        with pytest.raises(InputError, match=f"malformed key {key!r}"):
            rep_from_dict(data)

    @pytest.mark.parametrize("d", [0, 2])
    def test_integral_float_dimension_accepted(self, gauss03, rng, d):
        rep = OperatorRep(dict=Dictionary(rng.uniform(size=(d, 2)), rng.uniform(size=(d, 3))),
                          W=np.zeros((d, d)), kernel_x=gauss03, kernel_y=gauss03)
        data = rep_to_dict(rep)
        data["dim_x"], data["dim_y"] = 2.0, 3.0
        back = rep_from_dict(data)
        assert (len(back), back.dict.dim_x, back.dict.dim_y) == (d, 2, 3)

    def test_rep_is_immutable(self, gauss03, rng):
        rep = random_rep(rng, gauss03, 2)
        with pytest.raises(ValueError):
            rep.W[0, 0] = 5.0
