import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from psp import autodiff, encoders, prompt
from psp.autodiff import derive_seed, masked_infonce
from psp.data import generate_sbm, sample_k_shot
from psp.encoders import PARAM_NAMES, encoder_vjp, gnn_forward, init_encoder_params, mlp_forward
from psp.errors import ContractError, DataError, DimensionError, NumericError, ParameterError
from psp.graph import (
    GraphData,
    LabeledSet,
    PromptedGraph,
    build_csr,
    gcn_normalize,
    mean_readout,
    self_looped,
)
from psp.inference import class_mean_rows, predict
from psp.prompt import (
    PromptConfig,
    accuracy,
    init_edge_weights,
    prompt_loss,
    prompt_tune,
    prompted_layer,
    prototype_embeddings,
    restrict_edge_ratio,
    task_context,
)

from oracles import (
    Tape,
    Tensor,
    backward,
    composite_infonce,
    full_graph_prototypes,
    grad_check,
    keep_all_prompted_layer,
    mul,
    params_checksum,
    prompt_loss_and_grad,
    prompted_apply,
    total_sum,
    two_forward_prompt_tune,
)


def frozen_params(n_features, hidden=8, seed=0):
    """Encoders as pre-training leaves them, which prompting never changes."""
    return init_encoder_params(n_features, hidden, seed)


def toy_graph(n=5, feat_dim=4, seed=0, edges=((0, 1), (1, 2), (2, 3), (3, 4))):
    rng = np.random.default_rng(seed)
    labels = np.array([i % 2 for i in range(n)])
    return GraphData(features=rng.standard_normal((n, feat_dim)),
                     adjacency=build_csr(n, list(edges)), labels=labels)


def multi_graph(seed=0):
    """Six tiny graphs: triangles (class 0) and 3-paths (class 1)."""
    rng = np.random.default_rng(seed)
    edges, graph_of, offset = [], [], 0
    graph_labels = []
    for i in range(6):
        if i % 2 == 0:
            edges += [(offset, offset + 1), (offset + 1, offset + 2), (offset, offset + 2)]
            graph_labels.append(0)
        else:
            edges += [(offset, offset + 1), (offset + 1, offset + 2)]
            graph_labels.append(1)
        graph_of += [i] * 3
        offset += 3
    n = offset
    feats = rng.standard_normal((n, 4)) * 0.1
    feats[:, 0] += [1.0 if gl == 0 else -1.0 for gl in np.array(graph_labels)[graph_of]]
    return GraphData(features=feats, adjacency=build_csr(n, edges), labels=None,
                     graph_of=np.array(graph_of), graph_labels=np.array(graph_labels))


# ---------------------------------------------------------------------------
# LabeledSet / PromptConfig


def test_labeled_set_rejects_duplicates():
    with pytest.raises(DataError):
        LabeledSet([0, 0], [0, 1])


@pytest.mark.parametrize("indices,classes", [([-1, 3], [0, 1]), ([0, 3], [0, -1])])
def test_labeled_set_rejects_negative_indices_and_classes(indices, classes):
    # a negative index would alias the last row in class_mean_rows and restrict_edge_ratio
    with pytest.raises(DataError, match="non-negative"):
        LabeledSet(indices, classes)


def test_labeled_set_rejects_unpaired_arrays():
    with pytest.raises(DataError, match="2 labeled indices for 1 classes"):
        LabeledSet([0, 1], [0])


def test_labeled_set_holds_int64_arrays():
    ls = LabeledSet([3, 1], [1, 0])
    assert ls.indices.dtype == ls.classes.dtype == np.int64
    np.testing.assert_array_equal(ls.indices, [3, 1])
    np.testing.assert_array_equal(ls.classes, [1, 0])


def test_labeled_set_coverage():
    ls = LabeledSet([0, 1], [0, 1])
    x = np.zeros((2, 3))
    class_mean_rows(x, ls, 2)
    with pytest.raises(DataError, match=r"\[2, 3\]"):
        class_mean_rows(x, ls, 4)


def test_prompt_config_grids():
    PromptConfig(lr=1e-3, weight_decay=1e-5)
    with pytest.raises(ParameterError):
        PromptConfig(lr=5e-3)
    with pytest.raises(ParameterError):
        PromptConfig(weight_decay=0.5)
    with pytest.raises(ParameterError):
        PromptConfig(edge_ratio=1.5)
    with pytest.raises(ParameterError):
        task_context(toy_graph(), frozen_params(4), "edge")


@pytest.mark.parametrize("field,least,refusal", [("epochs", 0, "must be non-negative"),
                                                  ("patience", 1, "must be at least 1")],
                         ids=["epochs", "patience"])
def test_prompt_config_rejects_negative_counts(field, least, refusal):
    """Epochs may be 0; patience may not, since a stale count starts at 1."""
    PromptConfig(**{field: least})
    for value in sorted({least - 1, -1}):
        with pytest.raises(ParameterError, match=f"{field} {refusal}, got {value}"):
            PromptConfig(**{field: value})


@pytest.mark.parametrize("tau", [0.0, -0.5, float("nan"), float("inf")])
def test_prompt_config_and_loss_reject_bad_tau(tau):
    with pytest.raises(ParameterError, match="tau"):
        PromptConfig(tau=tau)
    with pytest.raises(ParameterError, match="tau"):
        prompt_loss(np.eye(2, 3), np.eye(3), [0, 1], tau=tau)


# ---------------------------------------------------------------------------
# prototype attribute initialization


def test_proto_features_singleton_copies_rows():
    x = np.arange(12.0).reshape(4, 3)
    got = class_mean_rows(x, LabeledSet([1, 3], [0, 1]), 2)
    np.testing.assert_array_equal(got, x[[1, 3]])


def test_proto_features_arithmetic_mean():
    x = np.array([[0.0, 2.0], [2.0, 0.0], [5.0, 5.0]])
    got = class_mean_rows(x, LabeledSet([0, 1, 2], [0, 0, 1]), 2)
    np.testing.assert_array_equal(got[0], [1.0, 1.0])


def test_proto_features_permutation_invariant():
    x = np.random.default_rng(0).standard_normal((6, 3))
    indices, classes = [0, 2, 3, 5], [0, 0, 1, 1]
    a = class_mean_rows(x, LabeledSet(indices, classes), 2)
    b = class_mean_rows(x, LabeledSet(indices[::-1], classes[::-1]), 2)
    np.testing.assert_array_equal(a, b)


def test_proto_features_empty_class():
    x = np.zeros((3, 2))
    with pytest.raises(DataError):
        class_mean_rows(x, LabeledSet([0], [0]), 2)


# ---------------------------------------------------------------------------
# edge weight initialization


def test_edge_weights_zero_embeddings():
    z = np.zeros((4, 3))
    got = init_edge_weights(z, LabeledSet([0, 1], [0, 1]), 2)
    np.testing.assert_array_equal(got, np.zeros((4, 2)))


def test_edge_weights_unit_dot():
    z = np.array([[1.0, 0.0], [0.0, 1.0]])
    got = init_edge_weights(z, LabeledSet([0, 1], [0, 1]), 2)
    assert got[0, 0] == 1.0 and got[1, 1] == 1.0


def test_edge_weights_match_brute_force():
    rng = np.random.default_rng(1)
    z = rng.standard_normal((3, 4))
    labeled = LabeledSet([0, 2], [0, 1])
    got = init_edge_weights(z, labeled, 2)
    proto = np.stack([z[0], z[2]])
    expected = np.empty((3, 2))
    for i in range(3):
        for c in range(2):
            expected[i, c] = float(np.dot(z[i], proto[c]))
    np.testing.assert_allclose(got, expected, atol=1e-12)


# ---------------------------------------------------------------------------
# trainable-row mask


def test_edge_ratio_zero_marks_training_rows_only():
    labeled = LabeledSet([2, 5], [0, 1])
    mask = restrict_edge_ratio(8, labeled, 0.0, seed=0)
    assert mask.sum() == 2 and mask[2] and mask[5]


def test_edge_ratio_one_marks_everything():
    labeled = LabeledSet([0], [0])
    assert restrict_edge_ratio(5, labeled, 1.0, seed=0).all()


def test_edge_ratio_counts_and_determinism():
    labeled = LabeledSet([0, 1], [0, 1])
    m1 = restrict_edge_ratio(100, labeled, 0.1, seed=4)
    m2 = restrict_edge_ratio(100, labeled, 0.1, seed=4)
    assert np.array_equal(m1, m2)
    assert m1.sum() == 2 + 10  # N_t + floor(r * N)
    assert restrict_edge_ratio(10, labeled, 0.25, seed=4).sum() == 2 + 2  # floor(2.5), not ceil
    m3 = restrict_edge_ratio(100, labeled, 0.1, seed=5)
    assert not np.array_equal(m1, m3)


# ---------------------------------------------------------------------------
# prototype embeddings


def test_prototype_isolation_with_zero_weights():
    g = toy_graph()
    params = frozen_params(4)
    proto_feats = np.random.default_rng(3).standard_normal((2, 4))
    ps = PromptedGraph(task="node", proto_features=proto_feats,
                       weight_rows=np.zeros((5, 2)), trainable_row_mask=np.ones(5, dtype=bool))
    got = prototype_embeddings(task_context(g, params, "node"), ps, "eval")
    # prototypes decouple: same as running the GNN on an edgeless graph of
    # just the prototype features
    iso = GraphData(features=proto_feats, adjacency=build_csr(2, []), labels=None)
    expected = gnn_forward(iso.features, gcn_normalize(iso.adjacency), params, "eval")
    np.testing.assert_allclose(got, expected, atol=1e-12)


def test_prototype_single_node_single_class_hand_propagation():
    g = GraphData(features=[[1.0, 2.0]], adjacency=build_csr(1, []),
                  labels=np.array([0]))
    params = frozen_params(2, hidden=3, seed=5)
    ps = PromptedGraph(task="node", proto_features=np.array([[0.5, -1.0]]),
                       weight_rows=np.array([[1.0]]), trainable_row_mask=np.ones(1, bool))
    got = prototype_embeddings(task_context(g, params, "node"), ps, "eval")

    # independent dense two-layer propagation over the 2x2 augmented operator
    feats = np.vstack([g.features, ps.proto_features])
    signed = np.array([[1.0, 1.0], [1.0, 1.0]])       # [[a00+1, w], [w, 1]]
    deg = np.array([1.0 + 1.0, 1.0 + 1.0])            # |w| + implicit/self loops
    m = signed / np.sqrt(np.outer(deg, deg))
    w1, b1, w2, b2 = params.view("gnn")
    h1 = np.maximum(m @ (feats @ w1) + b1, 0.0)
    out = m @ (h1 @ w2) + b2
    np.testing.assert_allclose(got, out[1:], atol=1e-12)


def test_prompted_graph_counts_prototypes_from_weight_columns():
    ps = PromptedGraph(task="node", proto_features=np.zeros((3, 4)),
                       weight_rows=np.zeros((5, 3)), trainable_row_mask=np.ones(5, bool))
    assert ps.weight_rows.shape[1] == len(ps.proto_features) == 3
    with pytest.raises(TypeError):
        PromptedGraph(n_prototypes=2, task="node", proto_features=ps.proto_features,
                      weight_rows=ps.weight_rows, trainable_row_mask=ps.trainable_row_mask)


def test_prototype_embeddings_masked_rows_do_not_leak():
    g = toy_graph()
    params = frozen_params(4)
    rng = np.random.default_rng(8)
    w = rng.standard_normal((5, 2))
    mask = np.array([True, False, True, False, True])
    ps = PromptedGraph(task="node", proto_features=rng.standard_normal((2, 4)),
                       weight_rows=w, trainable_row_mask=mask)
    ctx = task_context(g, params, "node")
    got = prototype_embeddings(ctx, ps, "eval")
    ps_zeroed = PromptedGraph(task="node", proto_features=ps.proto_features,
                              weight_rows=w * mask[:, None],
                              trainable_row_mask=np.ones(5, bool))
    expected = prototype_embeddings(ctx, ps_zeroed, "eval")
    np.testing.assert_allclose(got, expected, atol=1e-15)


def test_weight_doubling_changes_but_bounds_prototypes():
    g = toy_graph(n=3, edges=((0, 1), (1, 2)))
    params = frozen_params(4)
    rng = np.random.default_rng(9)
    proto_feats = rng.standard_normal((1, 4))
    base_w = np.abs(rng.standard_normal((3, 1))) + 0.1
    outs = {}
    for factor in (1.0, 2.0):
        ps = PromptedGraph(task="node", proto_features=proto_feats,
                           weight_rows=base_w * factor,
                           trainable_row_mask=np.ones(3, bool))
        outs[factor] = prototype_embeddings(task_context(g, params, "node"), ps, "eval")
    assert not np.allclose(outs[1.0], outs[2.0])
    # normalization bounds every aggregation coefficient by 1 at any weight
    # scale: |w_i| <= d_i and |w_i| <= d_c give |w_i|/sqrt(d_i d_c) <= 1
    for factor in (1.0, 2.0, 100.0):
        eye = np.eye(4)
        blocks = prompted_apply(self_looped(g.adjacency), Tensor(base_w * factor),
                                Tensor(eye[:3]), Tensor(eye[3:]))
        assert max(np.abs(b.data).max() for b in blocks) <= 1.0 + 1e-12


# ---------------------------------------------------------------------------
# prompt loss


def test_prompt_loss_hand_case():
    anchors = np.array([[1.0, 0.0]])
    protos = np.array([[1.0, 0.0], [0.0, 1.0]])
    assert prompt_loss(anchors, protos, [0], tau=1.0)[0] == pytest.approx(-1.0, abs=1e-9)


def test_prompt_loss_anchor_scale_invariance():
    rng = np.random.default_rng(10)
    anchors = rng.standard_normal((4, 3))
    protos = rng.standard_normal((3, 3))
    labels = [0, 1, 2, 0]
    base = prompt_loss(anchors, protos, labels, tau=0.5)[0]
    scaled = prompt_loss(7.5 * anchors, protos, labels, tau=0.5)[0]
    assert scaled == pytest.approx(base, abs=1e-9)


def test_prompt_loss_identical_prototypes_is_zero():
    anchors = np.random.default_rng(11).standard_normal((3, 4))
    row = np.random.default_rng(12).standard_normal((1, 4))
    protos = np.vstack([row, row])
    assert prompt_loss(anchors, protos, [0, 1, 0], tau=1.0)[0] == pytest.approx(0.0, abs=1e-9)


def test_prompt_loss_needs_two_classes():
    with pytest.raises(ContractError):
        prompt_loss(np.ones((1, 1)), np.ones((1, 1)), [0], tau=1.0)


@pytest.mark.parametrize("labels", [[-1, 0], [0, 3]])
def test_prompt_loss_rejects_out_of_range_labels(labels):
    with pytest.raises(DataError):
        prompt_loss(np.eye(2, 3), np.eye(3), labels, tau=1.0)


def test_prompt_loss_differentiates_only_the_prototypes():
    """The anchors are a constant array: the loss hands back the prototypes'
    gradient alone, and the caller's anchors are left as they were."""
    anchors = np.random.default_rng(13).standard_normal((2, 3))
    before = anchors.copy()
    protos = np.random.default_rng(14).standard_normal((2, 3))
    loss, grad = prompt_loss(anchors, protos, [0, 1], tau=0.5)
    both = masked_infonce(anchors, protos, [0, 1], 0.5)
    assert loss == both[0] and np.array_equal(grad, both[2])
    assert np.array_equal(anchors, before)


def test_prompt_loss_gradient_through_augmented_propagation():
    g = toy_graph()
    params = frozen_params(4, hidden=6, seed=2)
    rng = np.random.default_rng(15)
    proto_feats = rng.standard_normal((2, 4))
    anchors = rng.standard_normal((3, 6))
    labels = [0, 1, 0]
    ps = PromptedGraph(task="node", proto_features=proto_feats, weight_rows=rng.standard_normal((5, 2)),
                       trainable_row_mask=np.ones(5, dtype=bool))
    ctx = task_context(g, params, "node")
    assert grad_check(lambda _: prompt_loss_and_grad(ctx, ps, anchors, labels, 0.5),
                      ps.weight_rows, h=1e-5) < 1e-4


# ---------------------------------------------------------------------------
# prototype-row read-out against the full-graph path


def _prompt_case(task, partial_mask, seed=21):
    rng = np.random.default_rng(seed)
    if task == "graph":
        g, n_classes = multi_graph(seed), 2
    else:
        g, n_classes = generate_sbm(60, 3, 0.8, 4.0, 5, 0.5, seed=seed), 3
    ctx = task_context(g, frozen_params(g.features.shape[1], hidden=7, seed=seed), task)
    rows = len(ctx.anchors)
    mask = rng.random(rows) < 0.6 if partial_mask else np.ones(rows, dtype=bool)
    return (ctx, rng.standard_normal((rows, n_classes)),
            rng.standard_normal((n_classes, g.features.shape[1])), mask)


def _forward_and_weight_grad(fn, ctx, w0, proto_feats, mask, seed, rate):
    """Prototypes of `prompted_layer` or of the tape oracle `full_graph_prototypes`,
    and the gradient of sum(prototypes * probe) into the weights."""
    probe = np.random.default_rng(5).standard_normal((w0.shape[1], ctx.params.hidden_dim))
    if fn is prompted_layer:
        out, _, vjp = prompted_layer(ctx, PromptedGraph(ctx.task, proto_feats, w0, mask), seed, rate)
        return out, vjp(probe)
    w = Tensor(w0, requires_grad=True)
    with Tape() as tape:
        out = fn(ctx, PromptedGraph(ctx.task, proto_feats, w, mask), seed, rate)
        loss = total_sum(mul(out, Tensor(probe)))
    return out.data, backward(tape, loss)[w]


@pytest.mark.parametrize("task", ["node", "graph"])
@pytest.mark.parametrize("mode,rate", [("eval", 0.0), ("train", 0.3)])
@pytest.mark.parametrize("partial_mask", [False, True])
def test_prototype_rows_match_full_graph_oracle(task, mode, rate, partial_mask):
    ctx, w0, proto_feats, mask = _prompt_case(task, partial_mask)
    got, got_grad = _forward_and_weight_grad(prompted_layer, ctx, w0, proto_feats, mask, 17, rate)
    want, want_grad = _forward_and_weight_grad(full_graph_prototypes, ctx, w0, proto_feats, mask,
                                               17, rate)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
    np.testing.assert_allclose(got_grad, want_grad, rtol=0, atol=1e-12)
    assert np.all(got_grad[~mask] == 0.0)
    if mode == "train":
        # dropout acted: the eval-mode read-out differs
        eval_out, _ = _forward_and_weight_grad(prompted_layer, ctx, w0, proto_feats, mask, 17, 0.0)
        assert not np.allclose(got, eval_out)


def _drawn_case(task, sizes, n_nodes, n_classes, hidden, n_features, mask_kind, zero_share,
                seed, zero_w1_column=False):
    """A drawn graph (a block-diagonal batch for the graph task), its task
    context, weights with a share of exact zeros, prototype features and a
    row mask. A zero W1 column puts that hidden unit's pre-activations at
    relu's kink: b1 starts at 0."""
    rng = np.random.default_rng(seed)
    # the graph task's batch keeps every edge inside one graph (block-diagonal)
    graph_of = np.repeat(np.arange(len(sizes)), sizes) if task == "graph" else np.zeros(n_nodes, int)
    n = graph_of.size
    pairs = rng.integers(0, n, size=(rng.integers(0, 2 * n + 1), 2))
    g = GraphData(features=rng.standard_normal((n, n_features)),
                  adjacency=build_csr(n, pairs[graph_of[pairs[:, 0]] == graph_of[pairs[:, 1]]]),
                  labels=None, graph_of=graph_of if task == "graph" else None)
    params = frozen_params(n_features, hidden=hidden, seed=seed)
    if zero_w1_column:
        params["gnn_w1"][:, 0] = 0.0
    ctx = task_context(g, params, task)
    rows = len(ctx.anchors)
    mask = {"all": np.ones(rows, bool), "none": np.zeros(rows, bool),
            "some": rng.random(rows) < 0.5}[mask_kind]
    w0 = rng.standard_normal((rows, n_classes))
    w0[rng.random(w0.shape) < zero_share] = 0.0  # |W|'s VJP takes sign(0) = 0 there
    return ctx, w0, rng.standard_normal((n_classes, n_features)), mask


_DRAWN_CASES = dict(
    task=st.sampled_from(["node", "graph"]),
    sizes=st.lists(st.integers(1, 4), min_size=1, max_size=4), n_nodes=st.integers(1, 12),
    n_classes=st.integers(1, 4), hidden=st.integers(1, 6), n_features=st.integers(1, 4),
    mask_kind=st.sampled_from(["all", "none", "some"]),
    zero_share=st.sampled_from([0.0, 0.4, 1.0]), seed=st.integers(0, 2**32 - 1))


@settings(max_examples=200, derandomize=True, deadline=None)
@given(rate=st.sampled_from([0.0, 0.3, 0.9]), **_DRAWN_CASES)
def test_prompted_layer_matches_full_graph_oracle_on_drawn_cases(
        task, sizes, n_nodes, n_classes, hidden, n_features, mask_kind, zero_share, rate, seed):
    """Fused forward and weight gradient against the tape-composed oracle on
    drawn graphs, widths, row masks, dropout and weights with exact zeros."""
    ctx, w0, proto_feats, mask = _drawn_case(task, sizes, n_nodes, n_classes, hidden, n_features,
                                             mask_kind, zero_share, seed)
    got, got_grad = _forward_and_weight_grad(prompted_layer, ctx, w0, proto_feats, mask, seed, rate)
    want, want_grad = _forward_and_weight_grad(full_graph_prototypes, ctx, w0, proto_feats, mask,
                                               seed, rate)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-10)
    np.testing.assert_allclose(got_grad, want_grad, rtol=0, atol=1e-10)
    assert np.all(got_grad[~mask] == 0.0)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(rate=st.sampled_from([0.0, 0.2, 0.5, 0.9]), zero_w1_column=st.booleans(), **_DRAWN_CASES)
def test_prompted_layer_matches_keep_all_oracle_bitwise(
        task, sizes, n_nodes, n_classes, hidden, n_features, mask_kind, zero_share, rate,
        zero_w1_column, seed):
    """The lean VJP against the one that kept every intermediate, byte for
    byte (signed zeros count): prototypes, dropout-free prototypes and dW."""
    ctx, w0, proto_feats, mask = _drawn_case(task, sizes, n_nodes, n_classes, hidden, n_features,
                                             mask_kind, zero_share, seed, zero_w1_column)
    probe = np.random.default_rng(seed).standard_normal((n_classes, hidden))
    ps = PromptedGraph(task=task, proto_features=proto_feats, weight_rows=w0, trainable_row_mask=mask)
    results = []
    for layer in (prompted_layer, keep_all_prompted_layer):
        out, clean, vjp = layer(ctx, ps, seed, rate)
        results.append([a.tobytes() for a in (out, clean, vjp(probe))])
    assert results[0] == results[1]


def _spy_on_masks(monkeypatch, module) -> list:
    """The (seed, stream) of every mask that `module` draws, in order."""
    draws, draw = [], module.dropout_mask

    def spy(shape, rate, seed, stream):
        keep = draw(shape, rate, seed, stream)
        if keep is not None:
            draws.append((seed, stream))
        return keep

    monkeypatch.setattr(module, "dropout_mask", spy)
    return draws


@pytest.mark.parametrize("task", ["node", "graph"])
def test_training_forward_draws_one_dropout_mask(task, monkeypatch):
    """One mask over the N+C rows, from stream 0, for the forward and its VJP."""
    ctx, w0, proto_feats, mask = _prompt_case(task, partial_mask=True)
    ps = PromptedGraph(task=task, proto_features=proto_feats, weight_rows=w0, trainable_row_mask=mask)
    draws = _spy_on_masks(monkeypatch, prompt)
    out, _, vjp = prompted_layer(ctx, ps, 17, 0.3)
    vjp(np.ones_like(out))
    assert draws == [(derive_seed(17, 2), 0)]


def test_each_encoder_training_forward_draws_its_dropout_ordinal(monkeypatch):
    """(seed, stream): each view draws from its own stream, and its VJP draws
    the same mask again."""
    p = init_encoder_params(4, 6, seed=0)
    x = np.random.default_rng(6).standard_normal((5, 4))
    a = gcn_normalize(build_csr(5, [(0, 1), (1, 2)]))
    draws = _spy_on_masks(monkeypatch, encoders)
    g = mlp_forward(x, p, "train", 7, 0.2) + gnn_forward(x, a, p, "train", 7, 0.2)
    encoder_vjp(g, x, p, None, 7, 0.2)
    encoder_vjp(g, x, p, a, 7, 0.2)
    assert draws == [(derive_seed(7, 1), 0), (derive_seed(7, 2), 1)] * 2


def test_dropout_masks_do_not_depend_on_the_tape_or_call_order():
    """Each training forward gives the same bits, so draws the same mask,
    alone and while a tape records, whichever forward runs first; none of
    them records on the tape."""
    p = init_encoder_params(4, 6, seed=0)
    x = np.random.default_rng(6).standard_normal((5, 4))
    a = gcn_normalize(build_csr(5, [(0, 1), (1, 2), (3, 4)]))
    ctx, w0, proto_feats, mask = _prompt_case("node", partial_mask=False)
    ps = PromptedGraph(task="node", proto_features=proto_feats, weight_rows=w0, trainable_row_mask=mask)
    forwards = {"mlp": lambda: mlp_forward(x, p, "train", 7, 0.5),
                "gnn": lambda: gnn_forward(x, a, p, "train", 7, 0.5),
                "prompted": lambda: prompted_layer(ctx, ps, 7, 0.5)[0]}
    alone = {name: forward().tobytes() for name, forward in forwards.items()}
    leaf = Tensor(np.ones((1, 1)), requires_grad=True)
    for order in itertools.permutations(forwards):
        with Tape() as tape:
            total_sum(leaf)
            taped = {name: forwards[name]().tobytes() for name in order}
        assert len(tape.records) == 1
        assert taped == alone, order


def test_encoder_eval_forward_draws_no_mask(monkeypatch):
    x = np.random.default_rng(8).standard_normal((5, 4))
    a = gcn_normalize(build_csr(5, [(0, 1), (3, 4)]))
    p = init_encoder_params(4, 6, seed=0)
    draws = _spy_on_masks(monkeypatch, encoders)
    mlp_forward(x, p, "eval", 7, 0.5)
    gnn_forward(x, a, p, "eval", 7, 0.5)
    assert draws == []


@pytest.mark.parametrize("task", ["node", "graph"])
def test_training_pass_reads_out_its_weights_without_dropout(task):
    ctx, w0, proto_feats, mask = _prompt_case(task, partial_mask=True)
    ps = PromptedGraph(task=task, proto_features=proto_feats, weight_rows=w0, trainable_row_mask=mask)
    train, clean, _ = prompted_layer(ctx, ps, 17, 0.3)
    np.testing.assert_array_equal(clean, prototype_embeddings(ctx, ps, "eval"))
    np.testing.assert_array_equal(train, prototype_embeddings(ctx, ps, "train", 17, 0.3))
    out, same, _ = prompted_layer(ctx, ps)
    assert same is out


@pytest.mark.parametrize("task", ["node", "graph"])
def test_prompt_loss_grad_check_through_prototype_rows_in_train_mode(task):
    ctx, w0, proto_feats, mask = _prompt_case(task, partial_mask=True, seed=22)
    rng = np.random.default_rng(23)
    n_classes = w0.shape[1]
    anchors = rng.standard_normal((6, ctx.params.hidden_dim))
    labels = np.arange(6) % n_classes
    ps = PromptedGraph(task=task, proto_features=proto_feats, weight_rows=w0, trainable_row_mask=mask)
    assert grad_check(lambda _: prompt_loss_and_grad(ctx, ps, anchors, labels, 0.5, 3, 0.3),
                      ps.weight_rows, h=1e-5) < 1e-4


@pytest.mark.parametrize("task", ["node", "graph"])
def test_tuning_step_gradient_matches_the_tape(task, monkeypatch):
    """The weight gradient that the first tuning epoch hands to Adam, within
    1e-12 of the oracle tape's `backward` over `full_graph_prototypes` and
    the composite InfoNCE, under dropout and a mask that pins most rows."""
    if task == "graph":
        g, labeled = multi_graph(3), LabeledSet([0, 1], [0, 1])
    else:
        g = generate_sbm(60, 3, 0.8, 4.0, 5, 0.5, seed=21)
        labeled = sample_k_shot(g.labels, 2, 21).train
    ctx = task_context(g, frozen_params(g.features.shape[1], 7, 21), task)
    cfg = PromptConfig(epochs=1, lr=1e-1, seed=4, dropout=0.3, edge_ratio=0.3)
    handed = []
    monkeypatch.setattr(autodiff, "adam_step", lambda params, grads, state: handed.append(grads))
    prompted, _ = prompt_tune(ctx, labeled, cfg)  # the spy takes no step: the weights are W_0
    w, mask = Tensor(prompted.weight_rows, requires_grad=True), prompted.trainable_row_mask
    with Tape() as tape:
        proto = full_graph_prototypes(ctx, PromptedGraph(task, prompted.proto_features, w, mask),
                                      derive_seed(cfg.seed, 0), cfg.dropout)
        loss = composite_infonce(Tensor(ctx.anchors[labeled.indices]), proto, labeled.classes, cfg.tau)
    ((name, got),) = handed[0].items()
    assert name == "prompt_weights" and not mask.all()
    np.testing.assert_allclose(got, backward(tape, loss)[w], rtol=0, atol=1e-12)


@pytest.mark.parametrize("field,value,error,message", [
    ("trainable_row_mask", np.ones(59, bool), DimensionError,
     r"trainable_row_mask has shape \(59,\) for 60 weight rows"),
    ("proto_features", np.zeros((3, 4)), ContractError,
     "prototype features have 4 columns, graph has 5"),
    ("proto_features", np.zeros((2, 5)), DimensionError,
     "prompt has 2 prototype feature rows for 3 weight columns"),
])
def test_prototype_embeddings_refuse_a_malformed_prompt(field, value, error, message):
    ctx, w0, proto_feats, mask = _prompt_case("node", partial_mask=True)
    fields = dict(task="node", proto_features=proto_feats, weight_rows=w0,
                  trainable_row_mask=mask)
    fields[field] = value
    with pytest.raises(error, match=message):
        prototype_embeddings(ctx, PromptedGraph(**fields))


def test_prototype_embeddings_reject_weight_rows_for_another_task():
    g = multi_graph()
    ctx = task_context(g, frozen_params(4), "graph")
    ps = PromptedGraph(task="node", proto_features=np.zeros((2, 4)),
                       weight_rows=np.zeros((g.n_nodes, 2)),
                       trainable_row_mask=np.ones(g.n_nodes, bool))
    with pytest.raises(DimensionError, match="18 weight rows for 6 graph rows"):
        prototype_embeddings(ctx, ps)


def test_task_context_builds_views_once_per_task():
    g = multi_graph()
    params = frozen_params(4)
    node = task_context(g, params, "node")
    np.testing.assert_array_equal(node.anchors, mlp_forward(g.features, params))
    np.testing.assert_array_equal(node.attr_base, g.features)
    np.testing.assert_array_equal(node.xw1, g.features @ params["gnn_w1"])
    np.testing.assert_array_equal(node.base_degree.ravel(), g.adjacency.sum(axis=1) + 1.0)
    graph = task_context(g, params, "graph")
    attr, struct = mean_readout(node.anchors, g.graph_of), mean_readout(node.struct, g.graph_of)
    np.testing.assert_array_equal(graph.anchors, attr)
    np.testing.assert_array_equal(graph.struct, struct)
    assert len(graph.attr_base) == g.n_graphs and graph.n_classes == 2
    with pytest.raises(ContractError):
        task_context(toy_graph(), frozen_params(4), "graph")


# ---------------------------------------------------------------------------
# graph-level views


def test_graph_views_single_node_graphs_equal_node_rows():
    rng = np.random.default_rng(16)
    g = GraphData(features=rng.standard_normal((2, 4)),
                  adjacency=build_csr(2, []), labels=None,
                  graph_of=np.array([0, 1]), graph_labels=np.array([0, 1]))
    params = frozen_params(4)
    ctx = task_context(g, params, "graph")
    attr, struct = ctx.anchors, ctx.struct
    np.testing.assert_allclose(attr, mlp_forward(g.features, params), atol=1e-12)
    np.testing.assert_allclose(
        struct,
        gnn_forward(g.features, gcn_normalize(g.adjacency), params), atol=1e-12)


def test_graph_views_duplicate_graph_rows_match():
    g = multi_graph()
    params = frozen_params(4)
    ctx = task_context(g, params, "graph")
    attr, struct = ctx.anchors, ctx.struct
    # graphs 0 and 2 are isomorphic triangles; perturb features to be equal
    g.features[6:9] = g.features[0:3]
    ctx2 = task_context(g, params, "graph")
    attr2, struct2 = ctx2.anchors, ctx2.struct
    np.testing.assert_allclose(attr2[0], attr2[2], atol=1e-12)
    np.testing.assert_allclose(struct2[0], struct2[2], atol=1e-12)


def test_graph_views_need_membership():
    g = toy_graph()
    with pytest.raises(ContractError, match="graph-level views need graph membership"):
        task_context(g, frozen_params(4), "graph")


def test_graph_task_weight_rows_per_graph():
    g = multi_graph()
    params = frozen_params(4)
    labeled = LabeledSet([0, 1], [0, 1])
    cfg = PromptConfig(epochs=2, lr=1e-3, weight_decay=1e-4, tau=0.5, seed=0, dropout=0.0)
    prompted, _ = prompt_tune(task_context(g, params, "graph"), labeled, cfg)
    assert len(prompted.weight_rows) == g.n_graphs  # one row per graph, not per node


@pytest.mark.parametrize("task", ["node", "graph"])
def test_tuned_prompt_survives_a_checkpoint_round_trip(task, tmp_path):
    from psp.data import Checkpoint, load_checkpoint, save_checkpoint

    g = multi_graph() if task == "graph" else toy_graph(n=8)
    params = frozen_params(4)
    ctx = task_context(g, params, task)
    cfg = PromptConfig(epochs=3, lr=1e-2, weight_decay=1e-4, tau=0.5, seed=1, edge_ratio=0.5)
    tuned, _ = prompt_tune(ctx, LabeledSet([0, 1], [0, 1]), cfg)
    assert tuned.task == task
    save_checkpoint(tmp_path / "bundle.ckpt", Checkpoint(tau=0.5, seed=1, params=params,
                                                         prompt=tuned))
    loaded = load_checkpoint(tmp_path / "bundle.ckpt").prompt
    assert isinstance(loaded, PromptedGraph) and loaded.task == task
    want = prototype_embeddings(ctx, tuned, "eval")
    got = prototype_embeddings(task_context(g, params, task), loaded, "eval")
    assert np.array_equal(got, want)


def test_every_value_is_a_float64_array(tmp_path):
    """The graph features from every loader and from the generator, the frozen
    views and the encoder parameters, prototype features, weights and
    prototypes, base degrees, class means, read-outs and each fused op's
    gradients are plain float64 arrays: `src` has no tape, so no Tensor."""
    from psp.data import (Checkpoint, load_checkpoint, load_node_dataset, load_tu_dataset,
                          save_checkpoint, save_node_dataset)
    from graph_batches import write_ring_chord_batch

    ctx = task_context(toy_graph(n=8), frozen_params(4), "node")
    labeled = LabeledSet([0, 1], [0, 1])
    prompted, record = prompt_tune(ctx, labeled, PromptConfig(epochs=1), val=LabeledSet([2, 3], [0, 1]))
    kept = record.best_proto
    save_checkpoint(tmp_path / "bundle.ckpt", Checkpoint(tau=0.5, seed=0, params=ctx.params,
                                                         prompt=prompted))
    values = {name: getattr(ctx, name) for name in ("anchors", "struct", "attr_base", "xw1")}
    values.update({
        "base_degree": ctx.base_degree,
        "tuned proto_features": prompted.proto_features,
        "loaded proto_features": load_checkpoint(tmp_path / "bundle.ckpt").prompt.proto_features,
        "kept prototypes": kept,
        "dropout-free read-out": prompted_layer(ctx, prompted, 0, 0.5)[1],
        "prototypes": prompted_layer(ctx, prompted)[0],
        "weight rows": prompted.weight_rows,
        "loaded weight rows": load_checkpoint(tmp_path / "bundle.ckpt").prompt.weight_rows,
        "prompt loss gradient": prompt_loss(ctx.anchors[:2], kept, [0, 1], 0.5)[1],
        "weight gradient": prompted_layer(ctx, prompted)[2](kept),
        "class_mean_rows": class_mean_rows(ctx.struct, labeled, 2),
        "mean_readout": mean_readout(ctx.anchors, np.arange(8) // 2),
        "init_edge_weights": init_edge_weights(ctx.struct, labeled, 2),
        "predict": predict(ctx.anchors, kept, 0.5),
    })
    sbm = generate_sbm(30, 3, 0.8, 4.0, 8, 0.5, seed=0)
    save_node_dataset(tmp_path / "nodes", sbm)
    write_ring_chord_batch(tmp_path / "tu", "RING", seed=0, n_graphs=6)
    values["generate_sbm features"] = sbm.features
    values["load_node_dataset features"] = load_node_dataset(tmp_path / "nodes").features
    values["load_tu_dataset features"] = load_tu_dataset(tmp_path / "tu", "RING").features
    (tmp_path / "tu" / "RING_node_attributes.txt").unlink()
    values["degree one-hot features"] = load_tu_dataset(tmp_path / "tu", "RING").features
    values.update({name: ctx.params[name] for name in PARAM_NAMES})
    values.update(encoder_vjp(ctx.anchors, ctx.graph.features, ctx.params, gcn_normalize(ctx.graph.adjacency)))
    wrapped = {name: type(v).__name__ for name, v in values.items()
               if not (isinstance(v, np.ndarray) and v.dtype == np.float64)}
    assert wrapped == {}


# ---------------------------------------------------------------------------
# prompt_tune contracts


@pytest.fixture(scope="module")
def sbm_setup():
    from psp.pretrain import PretrainConfig, pretrain

    g = generate_sbm(120, 3, 0.8, 4.0, 16, 0.5, seed=0)
    params, _ = pretrain(g, PretrainConfig(epochs=120, hidden_dim=32, seed=0))
    split = sample_k_shot(g.labels, 3, 0, val_k=3)
    return g, params, split, split.train, split.val


def test_tune_zero_epochs_keeps_masked_init(sbm_setup):
    g, params, split, labeled, _ = sbm_setup
    cfg = PromptConfig(epochs=0, lr=1e-2, weight_decay=1e-4, tau=0.5, seed=0,
                       edge_ratio=0.1)
    prompted, record = prompt_tune(task_context(g, params, "node"), labeled, cfg)
    assert record.losses == [] and record.stop == "epochs"
    struct = gnn_forward(g.features, gcn_normalize(g.adjacency), params, "eval")
    w0 = init_edge_weights(struct, labeled, 3)
    expected = w0 * prompted.trainable_row_mask[:, None]
    np.testing.assert_allclose(prompted.weight_rows, expected, atol=1e-15)


def test_tune_improves_training_accuracy(sbm_setup):
    g, params, split, labeled, val = sbm_setup
    ctx = task_context(g, params, "node")
    cfg0 = PromptConfig(epochs=0, lr=1e-3, weight_decay=1e-4, tau=0.5, seed=0)
    before, _ = prompt_tune(ctx, labeled, cfg0)
    acc_before = accuracy(ctx, prototype_embeddings(ctx, before, "eval"), labeled, 0.5)
    cfg = PromptConfig(epochs=60, lr=1e-3, weight_decay=1e-4, tau=0.5, seed=0)
    after, _ = prompt_tune(ctx, labeled, cfg)
    acc_after = accuracy(ctx, prototype_embeddings(ctx, after, "eval"), labeled, 0.5)
    assert acc_after >= acc_before


def test_tune_masked_rows_stay_zero(sbm_setup):
    g, params, split, labeled, val = sbm_setup
    cfg = PromptConfig(epochs=25, lr=1e-2, weight_decay=1e-3, tau=0.5, seed=0,
                       edge_ratio=0.05)
    prompted, _ = prompt_tune(task_context(g, params, "node"), labeled, cfg)
    frozen_rows = prompted.weight_rows[~prompted.trainable_row_mask]
    assert np.array_equal(frozen_rows, np.zeros_like(frozen_rows))


def test_tune_leaves_encoders_bitwise_unchanged(sbm_setup):
    g, params, split, labeled, val = sbm_setup
    checksum = params_checksum(params)
    cfg = PromptConfig(epochs=15, lr=1e-2, weight_decay=1e-4, tau=0.5, seed=0)
    prompt_tune(task_context(g, params, "node"), labeled, cfg, val=val)
    assert params_checksum(params) == checksum


def test_tune_refusal_of_a_non_finite_loss_names_the_last_finite_one(monkeypatch):
    ctx = task_context(toy_graph(n=8), frozen_params(4), "node")
    finite = []

    def finite_once(*args):
        loss, grad = prompt_loss(*args)
        finite.append(loss)
        return (np.nan if len(finite) > 1 else loss), grad

    monkeypatch.setattr(prompt, "prompt_loss", finite_once)
    with pytest.raises(NumericError) as refusal:
        prompt_tune(ctx, LabeledSet([0, 1], [0, 1]), PromptConfig(epochs=3))
    assert str(refusal.value) == f"prompt loss became non-finite at epoch 1, last finite loss {finite[0]}"


def test_tune_is_seed_deterministic(sbm_setup):
    g, params, split, labeled, val = sbm_setup
    cfg = dict(epochs=10, lr=1e-2, weight_decay=1e-4, tau=0.5, dropout=0.3)
    ctx = task_context(g, params, "node")
    a, _ = prompt_tune(ctx, labeled, PromptConfig(seed=7, **cfg), val=val)
    b, _ = prompt_tune(ctx, labeled, PromptConfig(seed=7, **cfg), val=val)
    assert np.array_equal(a.weight_rows, b.weight_rows)


@pytest.fixture(scope="module")
def n2000_task():
    """A node task at N=2000, hidden 128, and its context (N x h: 2 MB)."""
    g = generate_sbm(2000, 3, 0.8, 2.5, 64, 0.5, seed=0)
    return task_context(g, frozen_params(64, hidden=128), "node"), sample_k_shot(g.labels, 3, 0, val_k=3)


def test_tuning_pass_peak_stays_near_the_arrays_it_needs(n2000_task, traced_peak):
    """Three tuning epochs and the last validation pass, dropout 0.2, above a
    task context that is already built. Of the N-row arrays the prompted
    layer keeps only t1 and H_b for its VJP, scales no N x h copy, and forms
    (A+I)^T(s_b*G_b) a block of rows at a time (3.79 N x h float64 arrays at
    peak, so the bound of 4.2 fails on one more N x h array kept: 4.79). It
    peaked at 4.3 with the scales on N x h arrays; keeping s_b*XW1 through
    layer 1 and forming A^T g_b and W g_p side by side, at 5.2; keeping
    s_b*XW1, s_b*H_b, the float dropout factor and relu's gates as well, at
    8.4."""
    ctx, split = n2000_task
    _, peak = traced_peak(lambda: prompt_tune(ctx, split.train, PromptConfig(epochs=3, dropout=0.2),
                                              val=split.val), 2000, 128)
    assert peak < 4.2, f"peak {peak:.2f} N x h arrays"


def test_eval_pass_peak_stays_near_the_arrays_it_needs(n2000_task, traced_peak):
    """One eval-mode pass: layer 1 scales A+I's stored values, not a copy of
    XW1, so at most two N x h arrays are alive at once (2.15 at peak, so the
    bound of 2.6 fails on one more N x h array kept: 3.15; 3.1 with s_b*XW1
    formed, 4.1 when all four terms of layer 1 were)."""
    ctx, split = n2000_task
    prompted, _ = prompt_tune(ctx, split.train, PromptConfig(epochs=0))
    _, peak = traced_peak(lambda: prompted_layer(ctx, prompted), 2000, 128)
    assert peak < 2.6, f"peak {peak:.2f} N x h arrays"


def test_tune_requires_a_nonempty_labeled_set(sbm_setup):
    g, params, split, labeled, _ = sbm_setup
    with pytest.raises(ContractError):
        prompt_tune(task_context(g, params, "node"), LabeledSet([], []), PromptConfig())
    with pytest.raises(DataError, match=r"classes \[1, 2\] have no labeled items"):
        prompt_tune(task_context(g, params, "node"), LabeledSet([0], [0]), PromptConfig())


@pytest.mark.parametrize("task,with_val,epochs,patience", [
    ("node", True, 12, 30), ("node", True, 60, 3), ("node", False, 12, 30), ("node", True, 0, 30),
    ("graph", True, 12, 30), ("graph", True, 60, 3), ("graph", False, 12, 30),
])
def test_tune_loop_matches_the_two_forward_oracle(monkeypatch, task, with_val, epochs, patience):
    import psp.prompt

    # encoders picked so that validation accuracy moves and the best epoch is not -1
    if task == "graph":
        g, hidden, seed = multi_graph(3), 7, 21
        labeled, val = LabeledSet([0, 1], [0, 1]), LabeledSet([2, 3, 4, 5], [0, 1, 0, 1])
    else:
        g, hidden, seed = generate_sbm(60, 3, 0.8, 4.0, 5, 0.5, seed=21), 16, 22
        split = sample_k_shot(g.labels, 2, 21, val_k=5)
        labeled, val = split.train, split.val
    ctx = task_context(g, frozen_params(g.features.shape[1], hidden, seed), task)
    val = val if with_val else None
    cfg = PromptConfig(epochs=epochs, patience=patience, lr=1e-1, weight_decay=1e-3, tau=0.5,
                       seed=4, dropout=0.3, edge_ratio=0.5)
    want_w, want_losses, want_accs, want_best, want_stop = two_forward_prompt_tune(ctx, labeled, cfg, val)
    assert want_stop == ("patience" if patience == 3 else "epochs")  # both stops are covered
    accs = []

    def recorded_accuracy(*args):
        accs.append(accuracy(*args))
        return accs[-1]

    monkeypatch.setattr(psp.prompt, "accuracy", recorded_accuracy)
    prompted, record = prompt_tune(ctx, labeled, cfg, val)
    assert len(record.losses) == len(want_losses)
    np.testing.assert_allclose(record.losses, want_losses, rtol=0, atol=1e-12)
    assert accs == want_accs
    assert record.best_epoch == want_best and record.stop == want_stop
    np.testing.assert_allclose(prompted.weight_rows, want_w, rtol=0, atol=1e-12)
    if val is None:
        assert record.best_acc == -1.0 and record.best_proto is None and record.best_weights is None
    else:  # the kept weights' read-out is the one a separate eval pass forms, bit for bit
        assert record.best_acc == max(accs) == accs[record.best_epoch + 1]
        assert record.best_weights is prompted.weight_rows
        np.testing.assert_array_equal(record.best_proto, prototype_embeddings(ctx, prompted, "eval"))
    if want_stop == "patience":
        assert len(record.losses) < epochs
