"""Test-side oracles: slow, independent versions of what `src/psp` computes.

Tape ops that no `src` path runs, kept so the composite oracles and the
per-op gradient checks (criterion 1, `test_each_op_passes_grad_check`) can
build losses from them:

- `matmul`, `transpose`, `spmm`, `add`, `mul` (equal shapes, or one side a
  row or a column of the other's), `absolute`, `rsqrt` (floored at
  `DEGREE_FLOOR`), `row_sum`, `scale`, `sub`, `exp`, `log`, `total_sum`:
  products, elementwise ops and reductions on the `psp.autodiff` tape.
- `relu`, `dropout`: the activation and the inverted dropout that the
  composed encoders below are built from.
- `select_rows`: a row gather, which expands per-graph weights to member
  nodes in `full_graph_prototypes`.
- `cosine_sim_matrix`: the all-pairs cosine op; also the independent cosine
  that `psp.inference.predict` is checked against.

Parity oracles, one per fast path in `src`:

- `composite_infonce` checks `psp.autodiff.masked_infonce`: the same loss
  built from tape ops, holding every m x n intermediate.
- `composed_mlp_forward` and `composed_gnn_forward` check
  `psp.encoders.mlp_forward` and `gnn_forward`: each encoder as the 6-8
  generic tape ops it was recorded as before it became one op.
- `dense_gcn_normalize` checks `psp.graph.gcn_normalize`: D^-1/2 (A+I) D^-1/2
  as a dense array.
- `dense_prompted_normalize` checks `prompted_apply`, the prompted-graph
  operator as tape ops: the normalized (N+C) x (N+C) matrix as a dense array.
- `set_loop_build_csr` checks `psp.graph.build_csr`: the per-edge set loop
  it replaced.
- `choice_sbm_edges` checks `psp.data.generate_sbm`'s edge loop: the loop
  it replaced, which drew each edge with `Generator.choice`.
- `full_graph_prototypes` checks `psp.prompt.prompted_layer`: the GNN over
  all N+C rows of the prompted graph, both layers through `prompted_apply`,
  then its prototype rows.
- `keep_all_prompted_layer` checks `psp.prompt.prompted_layer` byte for
  byte: the same folded arithmetic (each degree scale on a C-wide operand,
  the dropout scale on layer 2's C rows), with every N-row intermediate in
  an array of its own instead of reused buffers, shared gates and a
  block-wise sparse product.
- `two_forward_prompt_tune` checks `psp.prompt.prompt_tune`'s loop: the loop
  it replaced, over `full_graph_prototypes`, with a separate eval forward
  after every step.

Test-side measurements:

- `grad_check`: the finite-difference check every op and loss is held to.
- `params_checksum`: a digest of encoder weights, to show a stage left them alone.
- `intra_class_edge_fraction`: the share of edges joining same-class nodes,
  the homophily that `psp.data.generate_sbm` targets.
"""

import hashlib

import numpy as np
import scipy.sparse as sparse

from psp.autodiff import (
    AdamState,
    Tape,
    Tensor,
    _emit,
    _row_dots,
    _row_norms,
    adam_step,
    backward,
    derive_seed,
    dropout_mask,
    seeded_rng,
)
from psp.encoders import _check_mode, parameters
from psp.errors import ContractError, DataError, DimensionError, NumericError
from psp.graph import PromptedGraph, SelfLoopedBase
from psp.inference import class_mean_rows
from psp.prompt import accuracy, init_edge_weights, prompt_loss, restrict_edge_ratio

COSINE_EPS = 1e-12
DEGREE_FLOOR = 1e-12

# ---------------------------------------------------------------------------
# tape ops


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.cols != b.rows:
        raise DimensionError(f"matmul: inner dimensions differ, {a.shape} x {b.shape}")
    a_in, b_in = a.data, b.data
    need_a, need_b = a.requires_grad, b.requires_grad
    return _emit("matmul", (a, b), a_in @ b_in,
                 lambda g: (g @ b_in.T if need_a else None, a_in.T @ g if need_b else None))


def transpose(a: Tensor) -> Tensor:
    return _emit("transpose", (a,), a.data.T.copy(), lambda g: (g.T.copy(),))


def spmm(s: sparse.csr_array, d: Tensor) -> Tensor:
    """Sparse-dense product s @ d."""
    if s.shape[1] != d.rows:
        raise DimensionError(f"spmm: inner dimensions differ, {s.shape} x {d.shape}")
    return _emit("spmm", (d,), s @ d.data, lambda g: (s.T @ g,))


def _reduce(g: np.ndarray, axis) -> np.ndarray:
    return g if axis is None else g.sum(axis=axis, keepdims=True)


def _reducers(a: Tensor, b: Tensor, op: str) -> tuple:
    """The axis each side's gradient is summed over in an elementwise op (None: kept).

    The shapes must be equal, or one side must be a row (1 x m) or a column
    (n x 1) of the other's shape, which it is broadcast over.
    """
    sa, sb = a.shape, b.shape
    if sa == sb:
        return None, None
    for small, big, small_is_a in ((sa, sb, True), (sb, sa, False)):
        axis = 0 if small == (1, big[1]) else 1 if small == (big[0], 1) else None
        if axis is not None:
            return (axis, None) if small_is_a else (None, axis)
    raise DimensionError(f"{op}: unsupported broadcast {sa} with {sb}")


def add(a: Tensor, b: Tensor) -> Tensor:
    ra, rb = _reducers(a, b, "add")
    need_a, need_b = a.requires_grad, b.requires_grad
    return _emit("add", (a, b), a.data + b.data,
                 lambda g: (_reduce(g, ra) if need_a else None,
                            _reduce(g, rb) if need_b else None))


def mul(a: Tensor, b: Tensor) -> Tensor:
    ra, rb = _reducers(a, b, "mul")
    a_in, b_in = a.data, b.data
    need_a, need_b = a.requires_grad, b.requires_grad
    return _emit("mul", (a, b), a_in * b_in,
                 lambda g: (_reduce(g * b_in, ra) if need_a else None,
                            _reduce(g * a_in, rb) if need_b else None))


def absolute(a: Tensor) -> Tensor:
    sign = np.sign(a.data)
    return _emit("abs", (a,), np.abs(a.data), lambda g: (g * sign,))


def rsqrt(a: Tensor) -> Tensor:
    """Elementwise x^(-1/2) with the argument floored at `DEGREE_FLOOR`."""
    x = np.maximum(a.data, DEGREE_FLOOR)
    out = 1.0 / np.sqrt(x)
    gate = a.data > DEGREE_FLOOR
    return _emit("rsqrt", (a,), out, lambda g: (g * (-0.5) * out / x * gate,))


def row_sum(a: Tensor) -> Tensor:
    cols = a.cols
    return _emit("row_sum", (a,), a.data.sum(axis=1, keepdims=True),
                 lambda g: (g * np.ones((1, cols)),))


def scale(a: Tensor, c: float) -> Tensor:
    c = float(c)
    return _emit("scale", (a,), a.data * c, lambda g: (g * c,))


def sub(a: Tensor, b: Tensor) -> Tensor:
    return add(a, scale(b, -1.0))


def exp(a: Tensor) -> Tensor:
    out = np.exp(a.data)
    return _emit("exp", (a,), out, lambda g: (g * out,))


def log(a: Tensor) -> Tensor:
    a_in = a.data
    return _emit("log", (a,), np.log(a_in), lambda g: (g / a_in,))


def relu(a: Tensor) -> Tensor:
    gate = a.data > 0  # subgradient 0 at the kink
    return _emit("relu", (a,), a.data * gate, lambda g: (g * gate,))


def dropout(x: Tensor, p: float, seed: int, stream: int, training: bool) -> Tensor:
    """Inverted dropout with the `dropout_mask` of (seed, stream), which is
    the same on a tape or off; identity in evaluation mode."""
    keep = dropout_mask(x.shape, p, seed, stream, training)
    if keep is None:
        return x
    factor = keep / (1.0 - p)
    return _emit("dropout", (x,), x.data * factor, lambda g: (g * factor,))


def select_rows(x: Tensor, indices) -> Tensor:
    """Rows of x at `indices` (repeats allowed); the gradient sums back per row."""
    idx = np.asarray(indices, dtype=np.int64).ravel()
    if idx.size and (idx.min() < 0 or idx.max() >= x.rows):
        raise DataError(f"select_rows: index out of range for {x.rows} rows")
    x_shape = x.shape

    def vjp(g):
        gx = np.zeros(x_shape)
        np.add.at(gx, idx, g)
        return (gx,)

    return _emit("select_rows", (x,), x.data[idx], vjp)


def total_sum(a: Tensor) -> Tensor:
    shape = a.shape
    return _emit("total_sum", (a,), a.data.sum().reshape(1, 1),
                 lambda g: (np.full(shape, g[0, 0]),))


def cosine_sim_matrix(a: Tensor, b: Tensor) -> Tensor:
    """All-pairs cosine similarity between the rows of a and the rows of b.

    The norm product is floored at `COSINE_EPS` so zero rows yield
    similarity 0 instead of NaN; such rows get subgradient 0.
    """
    if a.cols != b.cols:
        raise DimensionError(f"cosine_sim_matrix: feature dims differ, {a.shape} vs {b.shape}")
    a_in, b_in = a.data, b.data
    u, v = (np.linalg.norm(x, axis=1, keepdims=True) for x in (a_in, b_in))
    inv_u, inv_v = _row_norms(a_in), _row_norms(b_in)
    norm_prod = u @ v.T
    denom = np.maximum(norm_prod, COSINE_EPS)
    out = (a_in @ b_in.T) / denom
    gate = norm_prod > COSINE_EPS
    need_a, need_b = a.requires_grad, b.requires_grad

    def vjp(g):
        gd = g / denom * gate
        gs = gd * out
        ga = gd @ b_in - (gs @ v) * inv_u * a_in if need_a else None
        gb = gd.T @ a_in - (gs.T @ u) * inv_v * b_in if need_b else None
        return ga, gb

    return _emit("cosine_sim_matrix", (a, b), out, vjp)


# ---------------------------------------------------------------------------
# parity oracles


def composite_infonce(z1, z2, positives, tau):
    """The InfoNCE built from tape ops that `masked_infonce` replaced, with the
    positive left out of the denominator.

    It holds every m x n intermediate on the tape.
    """
    m, n = z1.rows, z2.rows
    logits = scale(cosine_sim_matrix(z1, z2), 1.0 / float(tau))
    onehot = np.zeros((m, n))
    onehot[np.arange(m), positives] = 1.0
    mask = 1.0 - onehot
    shift = np.where(mask > 0, logits.data, -np.inf).max(axis=1, keepdims=True)
    ex = mul(exp(add(logits, Tensor(-shift))), Tensor(mask))
    log_denom = add(log(row_sum(ex)), Tensor(shift))
    positive = row_sum(mul(logits, Tensor(onehot)))
    return scale(total_sum(sub(log_denom, positive)), 1.0 / m)


def composed_mlp_forward(x, params, mode="eval", seed=0, dropout_rate=0.0):
    """`mlp_forward` of the array x as generic tape ops, with the same dropout salt and stream."""
    (w1, b1), (w2, b2) = params.mlp_layers
    h = relu(add(matmul(Tensor(x), w1), b1))
    h = dropout(h, dropout_rate, derive_seed(seed, 1), 0, mode == "train")
    return add(matmul(h, w2), b2)


def composed_gnn_forward(x, a_norm, params, mode="eval", seed=0, dropout_rate=0.0):
    """`gnn_forward` of the array x as generic tape ops, with the same dropout salt and stream."""
    (w1, b1), (w2, b2) = params.gnn_layers
    h = relu(add(spmm(a_norm, matmul(Tensor(x), w1)), b1))
    h = dropout(h, dropout_rate, derive_seed(seed, 2), 1, mode == "train")
    return add(spmm(a_norm, matmul(h, w2)), b2)


def dense_gcn_normalize(adj_dense: np.ndarray) -> np.ndarray:
    """D^-1/2 (A+I) D^-1/2 computed densely."""
    hat = adj_dense + np.eye(adj_dense.shape[0])
    deg = hat.sum(axis=1)
    inv = 1.0 / np.sqrt(deg)
    return inv[:, None] * hat * inv[None, :]


def dense_prompted_normalize(adj_dense: np.ndarray, w: np.ndarray) -> np.ndarray:
    """The augmented operator's normalization computed densely.

    Degrees are absolute row sums of [[A, W], [W^T, I]] plus the implicit
    self-loop on original nodes; the operator itself carries the self-looped
    original block and signed weights.
    """
    n, c = w.shape
    signed = np.zeros((n + c, n + c))
    signed[:n, :n] = adj_dense + np.eye(n)
    signed[:n, n:] = w
    signed[n:, :n] = w.T
    signed[n:, n:] = np.eye(c)
    mags = np.zeros_like(signed)
    mags[:n, :n] = np.abs(adj_dense)
    mags[:n, n:] = np.abs(w)
    mags[n:, :n] = np.abs(w.T)
    mags[n:, n:] = np.eye(c)
    deg = mags.sum(axis=1) + np.concatenate([np.ones(n), np.zeros(c)])
    inv = 1.0 / np.sqrt(deg)
    return inv[:, None] * signed * inv[None, :]


def set_loop_build_csr(n, edges):
    """The per-edge set loop that build_csr replaced: (row offsets, columns)."""
    pairs = set()
    for src, dst in edges:
        src, dst = int(src), int(dst)
        if not (0 <= src < n and 0 <= dst < n):
            raise DataError(f"edge ({src}, {dst}) out of range for {n} nodes")
        if src == dst:
            continue
        pairs.add((min(src, dst), max(src, dst)))
    if not pairs:
        return np.zeros(n + 1, dtype=np.int64), np.zeros(0, dtype=np.int64)
    arr = np.array(sorted(pairs), dtype=np.int64)
    src = np.concatenate([arr[:, 0], arr[:, 1]])
    dst = np.concatenate([arr[:, 1], arr[:, 0]])
    order = np.lexsort((dst, src))
    src, dst = src[order], dst[order]
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.add.at(offsets, src + 1, 1)
    return np.cumsum(offsets), dst


def choice_sbm_edges(n, n_classes, homophily, avg_deg, seed):
    """`generate_sbm`'s edges as drawn by `Generator.choice`, and the generator
    as that loop leaves it, for the features drawn next."""
    rng = seeded_rng(seed, 0x5B3)
    sizes = np.full(n_classes, n // n_classes, dtype=np.int64)
    sizes[: n % n_classes] += 1
    labels = np.repeat(np.arange(n_classes), sizes)
    members = [np.flatnonzero(labels == c) for c in range(n_classes)]
    edges = []
    for _ in range(int(round(n * avg_deg / 2.0))):
        if rng.random() < homophily:
            cls = int(rng.integers(n_classes))
            while members[cls].size < 2:
                cls = int(rng.integers(n_classes))
            pair = rng.choice(members[cls], size=2, replace=False)
            edges.append((int(pair[0]), int(pair[1])))
        else:
            c1, c2 = rng.choice(n_classes, size=2, replace=False)
            edges.append((int(rng.choice(members[c1])), int(rng.choice(members[c2]))))
    return edges, rng


def prompted_apply(base: SelfLoopedBase, w: Tensor, h_base: Tensor, h_proto: Tensor):
    """The prompted graph [[A+I, W], [W^T, I]], scaled by d^-1/2 on both sides,
    times the matrix whose base rows are `h_base` and prototype rows `h_proto`;
    returns the product as the same two row blocks. d holds the absolute row
    sums, plus 1 on base rows; gradients reach W through d too."""
    abs_w = absolute(w)
    s_b = rsqrt(add(row_sum(abs_w), Tensor(base.degree)))
    s_p = rsqrt(add(row_sum(transpose(abs_w)), Tensor(np.ones((w.cols, 1)))))
    sb, sp = mul(h_base, s_b), mul(h_proto, s_p)
    top = add(spmm(base.a_hat, sb), matmul(w, sp))
    bottom = add(matmul(transpose(w), sb), sp)
    return mul(top, s_b), mul(bottom, s_p)


def full_graph_prototypes(ctx, ps, mode="eval", seed=0, dropout_rate=0.0):
    """The two-layer GNN over all N+C rows of the prompted graph, both layers
    through `prompted_apply` and the first with one (N+C)-row dropout mask,
    then its prototype rows."""
    g = ctx.graph
    w = mul(ps.weight_rows, Tensor(ps.trainable_row_mask.astype(np.float64).reshape(-1, 1)))
    if ctx.task == "graph":
        w = select_rows(w, g.graph_of)
    base = SelfLoopedBase.of(g.adjacency)
    (w1, b1), (w2, b2) = ctx.params.gnn_layers
    blocks = prompted_apply(base, w, matmul(Tensor(g.features), w1),
                            matmul(Tensor(ps.proto_features), w1))
    h_base, h_proto = (relu(add(h, b1)) for h in blocks)
    keep = dropout_mask((w.rows + w.cols, ctx.params.hidden_dim), dropout_rate,
                        derive_seed(seed, 2), 0, mode == "train")
    if keep is not None:
        factor = keep / (1.0 - dropout_rate)
        h_base = mul(h_base, Tensor(factor[:g.n_nodes]))
        h_proto = mul(h_proto, Tensor(factor[g.n_nodes:]))
    _, proto = prompted_apply(base, w, matmul(h_base, w2), matmul(h_proto, w2))
    return add(proto, b2)


def keep_all_prompted_layer(ctx, ps, mode="eval", seed=0, dropout_rate=0.0):
    """`psp.prompt.prompted_layer`'s arithmetic, step for step, with a VJP that
    keeps every N-row intermediate it reads in an array of its own: the
    column-scaled A+I, t1, the pre-activation, relu's output and gate, the
    dropped-out rows and the keep-mask, and each stage of the base-row
    gradient, including (A+I)^T(s_b*G_b) whole. Returns the prototypes and the
    dropout-free prototypes."""
    training = _check_mode(mode)
    weights, mask, feats = ps.weight_rows, ps.trainable_row_mask, ps.proto_features
    (w1, b1), (w2, b2) = ctx.params.gnn_layers
    a_hat, graph_of = ctx.base.a_hat, ctx.graph.graph_of
    w = weights.data * mask[:, None]
    if ctx.task == "graph":
        w = w[graph_of]
    wt, n = np.ascontiguousarray(w.T), w.shape[0]
    deg_b = np.abs(w).sum(axis=1, keepdims=True) + ctx.base.degree
    deg_p = np.abs(wt).sum(axis=1, keepdims=True) + 1.0
    s_b, s_p = 1.0 / np.sqrt(deg_b), 1.0 / np.sqrt(deg_p)
    wst = wt * s_b.T
    a_sb = sparse.csr_array((a_hat.data * s_b.ravel()[a_hat.indices], a_hat.indices, a_hat.indptr),
                            shape=a_hat.shape)
    xw, pw = ctx.xw1, feats @ w1.data
    sp1 = pw * s_p
    u1 = wst @ xw + sp1
    t1 = a_sb @ xw + w @ sp1
    pre_b, pre_p = t1 * s_b + b1.data, u1 * s_p + b1.data
    relu_b, relu_p = np.maximum(pre_b, 0.0), np.maximum(pre_p, 0.0)
    gate_b, gate_p = relu_b > 0, relu_p > 0

    def layer2(hb, hp, scale):
        u2 = wst @ hb + hp * s_p
        if scale is not None:
            u2 = u2 * scale
        return u2, (u2 * s_p) @ w2.data + b2.data

    keep = dropout_mask((n + w.shape[1], b1.cols), dropout_rate, derive_seed(seed, 2), 0, training)
    keep_b, keep_p = (None, None) if keep is None else (keep[:n], keep[n:])
    clean, scale, h_b, h_p = None, None, relu_b, relu_p
    if keep is not None:
        clean = layer2(relu_b, relu_p, None)[1]
        scale = 1.0 / (1.0 - dropout_rate)
        h_b, h_p = relu_b * keep_b, relu_p * keep_p
    u2, out = layer2(h_b, h_p, scale)

    def vjp(g):
        gz = g @ w2.data.T
        gs_p = _row_dots(gz, u2)
        gz = gz * s_p
        if scale is not None:
            gz = gz * scale
        gs_p += _row_dots(gz, h_p)
        g_h = wst.T @ gz
        g_pre = g_h * gate_b if keep_b is None else g_h * gate_b * keep_b
        g_x = a_sb @ g_pre
        gs_b = _row_dots(g_pre, t1) + _row_dots(g_x, xw)
        g_p = gz * s_p * gate_p if keep_p is None else gz * s_p * gate_p * keep_p
        gs_p += _row_dots(g_p, u1)
        g_p = g_p * s_p
        g_ws = h_b @ gz.T + xw @ g_p.T
        gs_b += _row_dots(w, g_ws)
        g_ws = g_ws + g_pre @ sp1.T
        gs_p += _row_dots(wst @ g_pre + g_p, pw)
        gw = g_ws * s_b + np.sign(w) * ((-0.5) * gs_b * s_b / deg_b + ((-0.5) * gs_p * s_p / deg_p).T)
        if ctx.task == "graph":
            gw, per_node = np.zeros(weights.shape), gw
            np.add.at(gw, graph_of, per_node)
        return (gw * mask[:, None],)

    out = _emit("prompted_layer", (weights,), out, vjp)
    return out, out.data if clean is None else clean


def two_forward_prompt_tune(ctx, labeled, cfg, val=None):
    """`prompt_tune`'s loop as it was: per epoch one training forward, a step,
    then a separate eval forward of the new weights, all through
    `full_graph_prototypes`. Returns the final weights (the best ones with a
    validation set), the losses, the validation accuracies in the order they
    were taken, and the best epoch (-1: the initialization)."""
    n_classes = ctx.n_classes
    w0 = init_edge_weights(ctx.struct, labeled, n_classes)
    mask = restrict_edge_ratio(len(ctx.anchors), labeled, cfg.edge_ratio, cfg.seed)
    weights = Tensor(w0 * mask[:, None], requires_grad=True)
    ps = PromptedGraph(task=ctx.task, proto_features=class_mean_rows(ctx.attr_base, labeled, n_classes),
                       weight_rows=weights, trainable_row_mask=mask)
    anchors = ctx.anchors[labeled.indices]
    opt = AdamState(lr=cfg.lr, weight_decay=cfg.weight_decay)
    losses, val_accs = [], []
    best_acc, best_w, best_epoch = -1.0, weights.data.copy(), -1
    if val is not None:
        val_accs.append(accuracy(ctx, full_graph_prototypes(ctx, ps).data, val, cfg.tau))
        best_acc = val_accs[-1]
    for epoch in range(cfg.epochs):
        with Tape() as tape:
            proto = full_graph_prototypes(ctx, ps, "train", derive_seed(cfg.seed, epoch), cfg.dropout)
            loss = prompt_loss(anchors, proto, labeled.classes, cfg.tau)
        adam_step([weights], backward(tape, loss), opt)
        losses.append(loss.item())
        if val is not None:
            val_accs.append(accuracy(ctx, full_graph_prototypes(ctx, ps).data, val, cfg.tau))
            if val_accs[-1] > best_acc:
                best_acc, best_w, best_epoch = val_accs[-1], weights.data.copy(), epoch
            elif epoch - best_epoch >= cfg.patience:
                break
    if val is not None:
        weights.data = best_w
    return weights.data, losses, val_accs, best_epoch


# ---------------------------------------------------------------------------
# measurements


def grad_check(f, x: Tensor, h: float = 1e-5) -> float:
    """Max relative error between analytic and central-difference gradients.

    `f` must map a tensor to a 1x1 tensor and be deterministic; seeded
    randomized ops qualify because fresh tapes replay their masks.
    """
    prev_rg = x.requires_grad
    x.requires_grad = True
    with Tape() as tape:
        y = f(x)
    if y.shape != (1, 1):
        raise ContractError(f"grad_check: f must return a 1x1 tensor, got {y.shape}")
    analytic = backward(tape, y).get(x)
    analytic = np.zeros_like(x.data) if analytic is None else analytic.copy()
    x.requires_grad = prev_rg

    numeric = np.zeros_like(x.data)
    base = x.data
    for idx in np.ndindex(*base.shape):
        orig = base[idx]
        base[idx] = orig + h
        with Tape():
            fp = f(x).item()
        base[idx] = orig - h
        with Tape():
            fm = f(x).item()
        base[idx] = orig
        numeric[idx] = (fp - fm) / (2.0 * h)
    if not (np.isfinite(analytic).all() and np.isfinite(numeric).all()):
        raise NumericError("grad_check encountered non-finite values")
    if numeric.size == 0:
        return 0.0
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-8)
    return float(np.max(np.abs(analytic - numeric) / denom))


def params_checksum(params) -> str:
    digest = hashlib.sha256()
    for p in parameters(params):
        digest.update(p.data.tobytes())
    return digest.hexdigest()


def intra_class_edge_fraction(g) -> float:
    """Fraction of stored (undirected) edges joining same-class endpoints."""
    upper = sparse.triu(g.adjacency, k=1, format="coo")
    if not upper.nnz:
        return 0.0
    return float(np.mean(g.labels[upper.row] == g.labels[upper.col]))
