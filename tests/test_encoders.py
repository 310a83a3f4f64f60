import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from psp.encoders import PARAM_NAMES, EncoderParams, encoder_vjp, gnn_forward, init_encoder_params, mlp_forward
from psp.errors import DimensionError, ParameterError
from psp.graph import build_csr, gcn_normalize

from oracles import (
    Tape,
    Tensor,
    backward,
    composed_gnn_forward,
    composed_mlp_forward,
    encoder_leaves,
    mul,
    params_checksum,
    total_sum,
)


def make_params(n_features=4, hidden=6, seed=0):
    return init_encoder_params(n_features, hidden, seed)


def zero_params(n_features=4, hidden=6):
    p = make_params(n_features, hidden)
    for a in p.values():
        a[:] = 0.0
    return p


def test_init_is_seeded_and_reproducible():
    a, b = make_params(seed=3), make_params(seed=3)
    for name in PARAM_NAMES:
        assert np.array_equal(a[name], b[name])
    c = make_params(seed=4)
    assert not np.array_equal(a["mlp_w1"], c["mlp_w1"])


def test_zero_weights_give_zero_output():
    p = zero_params()
    x = np.random.default_rng(0).standard_normal((5, 4))
    np.testing.assert_array_equal(mlp_forward(x, p), 0.0)
    a = gcn_normalize(build_csr(5, [(0, 1), (2, 3)]))
    np.testing.assert_array_equal(gnn_forward(x, a, p), 0.0)


def test_identical_feature_rows_map_identically():
    p = make_params()
    x = np.vstack([np.ones((1, 4)), np.ones((1, 4)), np.zeros((1, 4))])
    out = mlp_forward(x, p)
    np.testing.assert_array_equal(out[0], out[1])


def test_mlp_ignores_adjacency_bitwise():
    p = make_params()
    x = np.random.default_rng(1).standard_normal((6, 4))
    # the attribute view takes no adjacency argument at all; perturbing any
    # graph structure cannot change it
    baseline = mlp_forward(x, p, "eval")
    for edges in ([], [(0, 1)], [(i, j) for i in range(6) for j in range(i + 1, 6)]):
        _ = gcn_normalize(build_csr(6, edges))
        assert np.array_equal(mlp_forward(x, p, "eval"), baseline)


def test_gnn_identity_propagation_without_edges():
    p = make_params()
    x = np.random.default_rng(2).standard_normal((4, 4))
    a = gcn_normalize(build_csr(4, []))  # normalizes to the identity
    np.testing.assert_allclose(a.toarray(), np.eye(4), atol=1e-15)
    out = gnn_forward(x, a, p)
    # isolated nodes see only themselves: same transform applied row-wise
    single = gnn_forward(x[2:3], gcn_normalize(build_csr(1, [])), p)
    np.testing.assert_allclose(out[2], single[0], atol=1e-12)


def test_gnn_isomorphic_nodes_equal_embeddings():
    p = make_params()
    # nodes 0 and 2 have the same features and the same neighborhood {1}
    feats = np.array([[1.0, 2.0, 0.0, 1.0],
                      [0.0, 1.0, 1.0, 0.0],
                      [1.0, 2.0, 0.0, 1.0]])
    a = gcn_normalize(build_csr(3, [(0, 1), (2, 1)]))
    out = gnn_forward(feats, a, p)
    np.testing.assert_allclose(out[0], out[2], atol=1e-12)


def test_gnn_two_node_path_averages_to_equal_rows():
    p = make_params()
    a = gcn_normalize(build_csr(2, [(0, 1)]))
    np.testing.assert_allclose(a.toarray(), [[0.5, 0.5], [0.5, 0.5]], atol=1e-15)
    x = np.array([[1.0, 0.0, 2.0, -1.0], [3.0, 1.0, 0.0, 5.0]])
    out = gnn_forward(x, a, p)
    np.testing.assert_allclose(out[0], out[1], atol=1e-12)


def test_gnn_permutation_equivariance():
    rng = np.random.default_rng(7)
    p = make_params()
    edges = [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (1, 3)]
    x = rng.standard_normal((5, 4))
    base = gnn_forward(x, gcn_normalize(build_csr(5, edges)), p)
    perm = rng.permutation(5)
    relabeled = [(int(perm[i]), int(perm[j])) for i, j in edges]
    permuted = gnn_forward(x[np.argsort(perm)],
                           gcn_normalize(build_csr(5, relabeled)), p)
    np.testing.assert_allclose(base, permuted[perm], atol=1e-12)


def test_outputs_share_dimension():
    p = make_params(hidden=6)
    x = np.random.default_rng(3).standard_normal((4, 4))
    a = gcn_normalize(build_csr(4, [(0, 1)]))
    assert mlp_forward(x, p).shape[1] == 6
    assert gnn_forward(x, a, p).shape[1] == 6


def test_an_encoder_vjp_returns_exactly_its_four_parameter_gradients():
    """The features are a constant: the VJP of the view that `a_norm` selects (None: the
    MLP, an adjacency: the GNN) differentiates that view's W1, b1, W2, b2 alone, names
    each gradient after it, shapes it like its parameter, and leaves the parameters as they were."""
    p = make_params()
    before = params_checksum(p)
    x = np.random.default_rng(6).standard_normal((5, 4))
    a = gcn_normalize(build_csr(5, [(0, 1), (1, 2)]))
    g = np.random.default_rng(7).standard_normal((5, 6))
    for view, graph in (("mlp", None), ("gnn", a)):
        grads = encoder_vjp(g, x, p, graph, 7, 0.2)
        assert list(grads) == [n for n in PARAM_NAMES if n.startswith(view)]
        assert all(grads[n].shape == p[n].shape for n in grads)
    assert params_checksum(p) == before


def test_checksum_tracks_content():
    p = make_params()
    before = params_checksum(p)
    assert params_checksum(p) == before
    p["mlp_w1"][0, 0] += 1.0
    assert params_checksum(p) != before


def test_forward_rejects_bad_mode():
    p = make_params()
    with pytest.raises(ParameterError):
        mlp_forward(np.zeros((2, 4)), p, mode="test")


def test_train_mode_dropout_is_seed_deterministic():
    p = make_params()
    x = np.random.default_rng(5).standard_normal((6, 4))
    a = gcn_normalize(build_csr(6, [(0, 1), (2, 3), (4, 5)]))
    one = gnn_forward(x, a, p, "train", seed=9, dropout_rate=0.5)
    two = gnn_forward(x, a, p, "train", seed=9, dropout_rate=0.5)
    assert np.array_equal(one, two)


def test_encoder_params_dataclass_shape():
    p = make_params(n_features=4, hidden=6)
    assert isinstance(p, EncoderParams) and tuple(p) == PARAM_NAMES and p.hidden_dim == 6
    assert p["mlp_w1"].shape == (4, 6) and p["gnn_b1"].shape == (1, 6)
    assert p["gnn_w2"].shape == (6, 6)


def test_forward_rejects_mismatched_inputs():
    p = make_params(n_features=4)
    with pytest.raises(DimensionError):
        mlp_forward(np.zeros((3, 5)), p)
    with pytest.raises(DimensionError):
        gnn_forward(np.zeros((3, 4)), gcn_normalize(build_csr(4, [])), p)


# ---------------------------------------------------------------------------
# the fused encoder op against the composed tape ops it replaced


@settings(max_examples=150, derandomize=True, deadline=None)
@given(n=st.integers(2, 40), hidden=st.integers(1, 8), n_features=st.integers(1, 6),
       rate=st.sampled_from([0.0, 0.2, 0.5, 0.9]), mode=st.sampled_from(["train", "eval"]),
       seed=st.integers(0, 2**32 - 1))
def test_fused_encoders_match_composed_oracles_bitwise(n, hidden, n_features, rate, mode, seed):
    """Output and every gradient, to the bit, on drawn sizes, dropout and modes,
    over a graph whose last node is isolated and with pre-activations of
    exactly 0 (zero feature rows and a zero W1 column). The gradients are of
    sum(out * probe): `encoder_vjp` of the probe against the tape's `backward`
    (an eval forward differentiates as a training one without dropout)."""
    rng = np.random.default_rng(seed)
    features = rng.standard_normal((n, n_features))
    features[rng.random(n) < 0.3] = 0.0
    a_norm = gcn_normalize(build_csr(n, rng.integers(0, n - 1, size=(rng.integers(0, 2 * n), 2))))
    probe = rng.standard_normal((n, hidden))
    params = make_params(n_features, hidden, seed)
    for a in params.values():
        a[:] = rng.standard_normal(a.shape)
    for view in ("mlp", "gnn"):
        dead = rng.integers(hidden)
        params[f"{view}_w1"][:, dead] = 0.0
        params[f"{view}_b1"][0, dead] = 0.0
    cases = (("mlp", mlp_forward, composed_mlp_forward, None),
             ("gnn", gnn_forward, composed_gnn_forward, a_norm))
    for view, fused, composed, graph in cases:
        inputs = (features,) if graph is None else (features, graph)
        got = fused(*inputs, params, mode, seed, rate)
        got_grads = encoder_vjp(probe, features, params, graph, seed, rate if mode == "train" else 0.0)
        leaves = encoder_leaves(params)
        with Tape() as tape:
            want = composed(*inputs, leaves, mode, seed, rate)
            want_grads = backward(tape, total_sum(mul(want, Tensor(probe))))
        assert got.tobytes() == want.data.tobytes(), view
        for name, g in got_grads.items():
            assert g.tobytes() == want_grads[leaves[name]].tobytes(), f"d{name}"
