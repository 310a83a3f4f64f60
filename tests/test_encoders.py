import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from psp.autodiff import Tape, Tensor, backward
from psp.encoders import (
    EncoderParams,
    freeze,
    gnn_forward,
    init_encoder_params,
    mlp_forward,
    parameters,
)
from psp.errors import DimensionError, ParameterError
from psp.graph import build_csr, gcn_normalize

from oracles import composed_gnn_forward, composed_mlp_forward, mul, params_checksum, total_sum


def make_params(n_features=4, hidden=6, seed=0):
    return init_encoder_params(n_features, hidden, seed)


def zero_params(n_features=4, hidden=6):
    p = make_params(n_features, hidden)
    for t in parameters(p):
        t.data[:] = 0.0
    return p


def test_init_is_seeded_and_reproducible():
    a, b = make_params(seed=3), make_params(seed=3)
    for x, y in zip(parameters(a), parameters(b)):
        assert np.array_equal(x.data, y.data)
    c = make_params(seed=4)
    assert not np.array_equal(parameters(a)[0].data, parameters(c)[0].data)


def test_zero_weights_give_zero_output():
    p = zero_params()
    x = np.random.default_rng(0).standard_normal((5, 4))
    np.testing.assert_array_equal(mlp_forward(x, p).data, 0.0)
    a = gcn_normalize(build_csr(5, [(0, 1), (2, 3)]))
    np.testing.assert_array_equal(gnn_forward(x, a, p).data, 0.0)


def test_identical_feature_rows_map_identically():
    p = make_params()
    x = np.vstack([np.ones((1, 4)), np.ones((1, 4)), np.zeros((1, 4))])
    out = mlp_forward(x, p)
    np.testing.assert_array_equal(out.data[0], out.data[1])


def test_mlp_ignores_adjacency_bitwise():
    p = make_params()
    x = np.random.default_rng(1).standard_normal((6, 4))
    # the attribute view takes no adjacency argument at all; perturbing any
    # graph structure cannot change it
    baseline = mlp_forward(x, p, "eval").data
    for edges in ([], [(0, 1)], [(i, j) for i in range(6) for j in range(i + 1, 6)]):
        _ = gcn_normalize(build_csr(6, edges))
        assert np.array_equal(mlp_forward(x, p, "eval").data, baseline)


def test_gnn_identity_propagation_without_edges():
    p = make_params()
    x = np.random.default_rng(2).standard_normal((4, 4))
    a = gcn_normalize(build_csr(4, []))  # normalizes to the identity
    np.testing.assert_allclose(a.toarray(), np.eye(4), atol=1e-15)
    out = gnn_forward(x, a, p)
    # isolated nodes see only themselves: same transform applied row-wise
    single = gnn_forward(x[2:3], gcn_normalize(build_csr(1, [])), p)
    np.testing.assert_allclose(out.data[2], single.data[0], atol=1e-12)


def test_gnn_isomorphic_nodes_equal_embeddings():
    p = make_params()
    # nodes 0 and 2 have the same features and the same neighborhood {1}
    feats = np.array([[1.0, 2.0, 0.0, 1.0],
                      [0.0, 1.0, 1.0, 0.0],
                      [1.0, 2.0, 0.0, 1.0]])
    a = gcn_normalize(build_csr(3, [(0, 1), (2, 1)]))
    out = gnn_forward(feats, a, p)
    np.testing.assert_allclose(out.data[0], out.data[2], atol=1e-12)


def test_gnn_two_node_path_averages_to_equal_rows():
    p = make_params()
    a = gcn_normalize(build_csr(2, [(0, 1)]))
    np.testing.assert_allclose(a.toarray(), [[0.5, 0.5], [0.5, 0.5]], atol=1e-15)
    x = np.array([[1.0, 0.0, 2.0, -1.0], [3.0, 1.0, 0.0, 5.0]])
    out = gnn_forward(x, a, p)
    np.testing.assert_allclose(out.data[0], out.data[1], atol=1e-12)


def test_gnn_permutation_equivariance():
    rng = np.random.default_rng(7)
    p = make_params()
    edges = [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (1, 3)]
    x = rng.standard_normal((5, 4))
    base = gnn_forward(x, gcn_normalize(build_csr(5, edges)), p).data
    perm = rng.permutation(5)
    relabeled = [(int(perm[i]), int(perm[j])) for i, j in edges]
    permuted = gnn_forward(x[np.argsort(perm)],
                           gcn_normalize(build_csr(5, relabeled)), p).data
    np.testing.assert_allclose(base, permuted[perm], atol=1e-12)


def test_outputs_share_dimension():
    p = make_params(hidden=6)
    x = np.random.default_rng(3).standard_normal((4, 4))
    a = gcn_normalize(build_csr(4, [(0, 1)]))
    assert mlp_forward(x, p).cols == 6
    assert gnn_forward(x, a, p).cols == 6


def test_an_encoder_training_record_takes_exactly_its_four_parameters():
    """The features are a constant: each view's record differentiates W1, b1, W2, b2 alone."""
    p = make_params()
    x = np.random.default_rng(6).standard_normal((5, 4))
    a = gcn_normalize(build_csr(5, [(0, 1), (1, 2)]))
    with Tape() as tape:
        mlp_forward(x, p, "train", 7, 0.2)
        gnn_forward(x, a, p, "train", 7, 0.2)
    assert len(tape.records) == 2
    for record, layers in zip(tape.records, (p.mlp_layers, p.gnn_layers)):
        want = [t for layer in layers for t in layer]
        assert len(record.inputs) == 4 and all(got is t for got, t in zip(record.inputs, want))


def test_frozen_params_receive_no_gradients():
    p = freeze(make_params())
    x = np.random.default_rng(4).standard_normal((4, 4))
    with Tape() as tape:
        loss = total_sum(mlp_forward(x, p, "train", seed=1, dropout_rate=0.3))
    assert not tape.records  # nothing on the tape at all
    assert backward(tape, loss) == {}


def test_checksum_tracks_content():
    p = make_params()
    before = params_checksum(p)
    assert params_checksum(p) == before
    parameters(p)[0].data[0, 0] += 1.0
    assert params_checksum(p) != before


def test_forward_rejects_bad_mode():
    p = make_params()
    with pytest.raises(ParameterError):
        mlp_forward(np.zeros((2, 4)), p, mode="test")


def test_train_mode_dropout_is_seed_deterministic():
    p = make_params()
    x = np.random.default_rng(5).standard_normal((6, 4))
    a = gcn_normalize(build_csr(6, [(0, 1), (2, 3), (4, 5)]))
    one = gnn_forward(x, a, p, "train", seed=9, dropout_rate=0.5).data
    two = gnn_forward(x, a, p, "train", seed=9, dropout_rate=0.5).data
    assert np.array_equal(one, two)


def test_encoder_params_dataclass_shape():
    p = make_params(n_features=4, hidden=6)
    assert isinstance(p, EncoderParams)
    assert len(p.mlp_layers) == 2 and len(p.gnn_layers) == 2
    assert p.mlp_layers[0][0].shape == (4, 6)
    assert p.gnn_layers[1][0].shape == (6, 6)


def test_forward_rejects_mismatched_inputs():
    p = make_params(n_features=4)
    with pytest.raises(DimensionError):
        mlp_forward(np.zeros((3, 5)), p)
    with pytest.raises(DimensionError):
        gnn_forward(np.zeros((3, 4)), gcn_normalize(build_csr(4, [])), p)


# ---------------------------------------------------------------------------
# the fused encoder op against the composed tape ops it replaced


def _output_and_grads(forward, view, x, params, needs, probe, *args):
    """Output of `forward` on the constant array x and the gradient of
    sum(out * probe) into the view's four parameters (None where a parameter
    does not require grad)."""
    leaves = [t for layer in getattr(params, f"{view}_layers") for t in layer]
    for leaf, need in zip(leaves, needs):
        leaf.requires_grad = need
    with Tape() as tape:
        out = forward(x, *args)
        loss = total_sum(mul(out, probe))
    grads = backward(tape, loss)
    return out.data, [grads.get(leaf) for leaf in leaves]


@settings(max_examples=150, derandomize=True, deadline=None)
@given(n=st.integers(2, 40), hidden=st.integers(1, 8), n_features=st.integers(1, 6),
       rate=st.sampled_from([0.0, 0.2, 0.5, 0.9]), mode=st.sampled_from(["train", "eval"]),
       needs=st.tuples(*[st.booleans()] * 4), seed=st.integers(0, 2**32 - 1))
def test_fused_encoders_match_composed_oracles_bitwise(n, hidden, n_features, rate, mode, needs,
                                                       seed):
    """Output and every gradient, to the bit, on drawn sizes, dropout, modes and
    requires_grad flags, over a graph whose last node is isolated and with
    pre-activations of exactly 0 (zero feature rows and a zero W1 column)."""
    rng = np.random.default_rng(seed)
    features = rng.standard_normal((n, n_features))
    features[rng.random(n) < 0.3] = 0.0
    a_norm = gcn_normalize(build_csr(n, rng.integers(0, n - 1, size=(rng.integers(0, 2 * n), 2))))
    probe = Tensor(rng.standard_normal((n, hidden)))
    params = make_params(n_features, hidden, seed)
    for t in parameters(params):
        t.data[:] = rng.standard_normal(t.shape)
    for w1, b1 in (params.mlp_layers[0], params.gnn_layers[0]):
        dead = rng.integers(hidden)
        w1.data[:, dead] = 0.0
        b1.data[0, dead] = 0.0
    cases = (("mlp", mlp_forward, composed_mlp_forward, ()),
             ("gnn", gnn_forward, composed_gnn_forward, (a_norm,)))
    for view, fused, composed, graph in cases:
        got, want = (_output_and_grads(forward, view, features, params, needs, probe,
                                       *graph, params, mode, seed, rate)
                     for forward in (fused, composed))
        assert got[0].tobytes() == want[0].tobytes(), view
        for name, g, w in zip(("w1", "b1", "w2", "b2"), got[1], want[1]):
            assert (g is None) == (w is None) and (g is None or g.tobytes() == w.tobytes()), \
                f"{view} d{name}"
