import numpy as np
import pytest

from psp.errors import ContractError, DataError, ParameterError
from psp.graph import LabeledSet
from psp.inference import class_mean_rows, evaluate, predict
from psp.prompt import init_edge_weights

from oracles import Tensor, cosine_sim_matrix


def test_predict_softmax_hand_case():
    anchors = np.array([[1.0, 0.0, 0.0]])
    protos = np.eye(3)  # similarities are exactly [1, 0, 0]
    probs = predict(anchors, protos, tau=1.0)
    e = np.e
    np.testing.assert_allclose(probs[0], [e / (e + 2), 1 / (e + 2), 1 / (e + 2)], atol=1e-9)
    assert evaluate(probs, [0]) == 1.0


def test_predict_identical_prototypes_uniform_tiebreak():
    anchors = np.random.default_rng(0).standard_normal((3, 4))
    row = np.random.default_rng(1).standard_normal((1, 4))
    probs = predict(anchors, np.vstack([row, row, row]), tau=0.5)
    np.testing.assert_allclose(probs, 1.0 / 3.0, atol=1e-12)
    assert evaluate(probs, [0, 0, 0]) == 1.0


def test_predict_anchor_scale_invariance():
    rng = np.random.default_rng(2)
    anchors = rng.standard_normal((4, 3))
    protos = rng.standard_normal((3, 3))
    a = predict(anchors, protos, tau=0.7)
    b = predict(4.2 * anchors, protos, tau=0.7)
    np.testing.assert_allclose(a, b, atol=1e-12)
    assert np.array_equal(np.argmax(a, axis=1), np.argmax(b, axis=1))


@pytest.mark.parametrize("s1,s2", [(1e-7, 1e-6), (1e3, 1.0), (1.0, 1e-9)])
def test_predict_is_invariant_to_positive_row_scaling(s1, s2):
    # as the losses are (test_masked_infonce_cosines_are_exact_for_any_nonzero_row)
    rng = np.random.default_rng(8)
    anchors, protos = rng.standard_normal((6, 4)), rng.standard_normal((3, 4))
    base = predict(anchors, protos, tau=0.2)
    scaled = predict(anchors * s1, protos * s2, tau=0.2)
    np.testing.assert_allclose(scaled, base, rtol=0, atol=1e-12)


def test_predict_zero_rows_score_zero():
    probs = predict(np.array([[0.0, 0.0], [1.0, 0.0]]), np.array([[2.0, 0.0], [0.0, 0.0]]), tau=1.0)
    np.testing.assert_allclose(probs[0], [0.5, 0.5], atol=1e-15)
    np.testing.assert_allclose(probs[1], [np.e / (np.e + 1), 1 / (np.e + 1)], atol=1e-12)


def test_predict_probs_softmax_consistent():
    rng = np.random.default_rng(3)
    anchors, protos = rng.standard_normal((5, 4)), rng.standard_normal((3, 4))
    tau = 0.6
    probs = predict(anchors, protos, tau)
    np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-9)
    # independent exponent-sum recomputation
    sims = cosine_sim_matrix(Tensor(anchors), Tensor(protos)).data / tau
    expected = np.exp(sims) / np.exp(sims).sum(axis=1, keepdims=True)
    np.testing.assert_allclose(probs, expected, atol=1e-12)
    assert evaluate(probs, np.argmax(expected, axis=1)) == 1.0


def test_argmax_invariant_under_increasing_transforms():
    rng = np.random.default_rng(4)
    anchors, protos = rng.standard_normal((6, 4)), rng.standard_normal((4, 4))
    sims = cosine_sim_matrix(Tensor(anchors), Tensor(protos)).data
    base = np.argmax(predict(anchors, protos, tau=1.0), axis=1)
    for a, b in [(2.0, 0.0), (0.5, 3.0), (10.0, -1.0)]:
        transformed = np.argmax(a * sims + b, axis=1)
        assert np.array_equal(base, transformed)


@pytest.mark.parametrize("tau", [0.0, -0.5, float("nan"), float("inf")])
def test_predict_rejects_bad_tau(tau):
    with pytest.raises(ParameterError, match="tau must be a positive finite number"):
        predict(np.array([[1.0, 0.0]]), np.eye(2), tau)


def test_evaluate_fractions():
    probs = np.eye(4)
    assert evaluate(probs, [0, 1, 2, 3]) == 1.0
    assert evaluate(probs, [1, 2, 3, 0]) == 0.0
    assert evaluate(probs, [0, 1, 2, 0]) == 0.75


def test_evaluate_length_mismatch():
    with pytest.raises(ContractError):
        evaluate(np.eye(2), [0])


def test_evaluate_refuses_an_empty_item_set():
    # the mean of no hits would be nan with numpy's "Mean of empty slice" warning
    with pytest.raises(ContractError, match="at least one labeled item"):
        evaluate(np.zeros((0, 3)), [])


def test_np_prototypes_singleton_copies_embeddings():
    z = np.arange(8.0).reshape(4, 2)
    got = class_mean_rows(z, LabeledSet([2, 0], [0, 1]), 2)
    np.testing.assert_array_equal(got, z[[2, 0]])


def test_np_prototypes_shared_with_weight_init():
    rng = np.random.default_rng(5)
    z = rng.standard_normal((6, 3))
    labeled = LabeledSet([0, 1, 4, 5], [0, 0, 1, 1])
    protos = class_mean_rows(z, labeled, 2)
    w = init_edge_weights(z, labeled, 2)
    # the weight init is exactly the dot products against these prototypes
    np.testing.assert_array_equal(w, z @ protos.T)


def test_np_prototypes_permutation_invariant():
    rng = np.random.default_rng(6)
    z = rng.standard_normal((5, 3))
    indices, classes = [0, 1, 3, 4], [0, 0, 1, 1]
    a = class_mean_rows(z, LabeledSet(indices, classes), 2)
    b = class_mean_rows(z, LabeledSet(indices[::-1], classes[::-1]), 2)
    np.testing.assert_array_equal(a, b)


def test_class_mean_rows_rejects_an_index_past_the_rows():
    with pytest.raises(DataError, match="labeled index 3 out of range for 3 rows"):
        class_mean_rows(np.zeros((3, 2)), LabeledSet([0, 3], [0, 1]), 2)


def test_class_mean_rows_sums_in_item_order():
    rng = np.random.default_rng(7)
    z = rng.standard_normal((40, 5)) * 10.0 ** rng.integers(-8, 8, size=(40, 1))
    indices = rng.permutation(40)[:25]
    classes = rng.integers(3, size=25)
    classes[:3] = [0, 1, 2]
    sums, counts = np.zeros((3, 5)), np.zeros(3)
    for index, cls in zip(indices, classes):
        sums[cls] += z[index]
        counts[cls] += 1
    got = class_mean_rows(z, LabeledSet(indices, classes), 3)
    assert np.array_equal(got, sums / counts[:, None])


def test_class_mean_rows_empty_class():
    with pytest.raises(DataError):
        class_mean_rows(np.zeros((3, 2)), LabeledSet([0], [1]), 2)
