"""Test-side oracles: slow, independent versions of what `src/psp` computes.

The reverse-mode tape lives here: `Tensor`, `Tape`, `_emit` and `backward`.
`src` has three fused ops, each with a hand-derived gradient (the InfoNCE's
single sweep, `encoder_vjp`, and the VJP `prompted_layer` returns), and each
training step chains them by hand, so `src` needs no tape. The tape stays as
the gradient contract: the generic ops below record on it, and the composed
oracles built from them are what the hand-chained steps are checked against
(the gradient-contract tests in `test_pretrain.py` and `test_prompt.py`). An op records onto the innermost active tape
only while one of its inputs requires grad.

Tape ops that no `src` path runs, kept so the composite oracles and the
per-op gradient checks (criterion 1, `test_each_op_passes_grad_check`) can
build losses from them:

- `matmul`, `transpose`, `spmm`, `add`, `mul` (equal shapes, or one side a
  row or a column of the other's), `absolute`, `rsqrt` (floored at
  `DEGREE_FLOOR`), `row_sum`, `scale`, `sub`, `exp`, `log`, `total_sum`:
  products, elementwise ops and reductions.
- `relu`, `dropout(x, p, seed, stream)`: the activation and the inverted
  dropout (the identity when p is 0) that the composed encoders below are
  built from.
- `select_rows`: a row gather, which expands per-graph weights to member
  nodes in `full_graph_prototypes`.
- `cosine_sim_matrix`: the all-pairs cosine op; also the independent cosine
  that `psp.inference.predict` is checked against.

Parity oracles, one per fast path in `src`:

- `composite_infonce` checks `psp.autodiff.masked_infonce`: the same loss
  built from tape ops, holding every m x n intermediate.
- `composed_mlp_forward` and `composed_gnn_forward` check
  `psp.encoders.mlp_forward`, `gnn_forward` and `encoder_vjp`: each encoder
  as the 6-8 generic tape ops it was recorded as before it became one op.
  Like the two forwards, they take a `mode`, which `check_mode` turns into
  the dropout rate.
- `dense_gcn_normalize` checks `psp.graph.gcn_normalize`: D^-1/2 (A+I) D^-1/2
  as a dense array.
- `dense_prompted_normalize` checks `prompted_apply`, the prompted-graph
  operator as tape ops: the normalized (N+C) x (N+C) matrix as a dense array.
  `prompted_apply` takes its base as `psp.graph.self_looped` returns it: A+I
  and its degrees; `keep_all_prompted_layer` reads the two from the task
  context.
- `set_loop_build_csr` checks `psp.graph.build_csr`: the per-edge set loop
  it replaced.
- `choice_sbm_edges` checks `psp.data.generate_sbm`'s edge loop: the loop
  it replaced, which drew each edge with `Generator.choice`.
- `full_graph_prototypes(ctx, ps, seed, dropout_rate)` checks
  `psp.prompt.prompted_layer`: the GNN over all N+C rows of the prompted
  graph, both layers through `prompted_apply`, then its prototype rows. Like
  `prompted_layer`, it and `keep_all_prompted_layer` take a rate, not a mode.
- `keep_all_prompted_layer(ctx, ps, seed, dropout_rate)` checks
  `psp.prompt.prompted_layer` byte for byte: the same folded arithmetic
  (each degree scale on a C-wide operand, the dropout scale on layer 2's C
  rows), with every N-row intermediate in an array of its own instead of
  reused buffers, shared gates and a block-wise sparse product.
- `two_forward_prompt_tune` checks `psp.prompt.prompt_tune`'s loop: the loop
  it replaced, over `full_graph_prototypes`, with a separate eval forward
  after every step.

Test-side measurements:

- `grad_check`: the finite-difference check every op, loss and hand-chained
  step is held to; `op_grad_cases` holds its cases for the tape ops and the
  fused encoders, and `prompt_loss_and_grad` chains a tuning step's loss and
  weight gradient by hand for it.
- `params_checksum`: a digest of encoder weights, to show a stage left them alone.
- `intra_class_edge_fraction`: the share of edges joining same-class nodes,
  the homophily that `psp.data.generate_sbm` targets.
"""

import hashlib
from collections import namedtuple
from typing import Optional, Sequence

import numpy as np
import scipy.sparse as sparse

from psp.autodiff import AdamState, adam_step, derive_seed, dropout_mask, row_dots, row_norms, seeded_rng
from psp.encoders import PARAM_NAMES, check_mode, encoder_vjp, gnn_forward, mlp_forward
from psp.errors import ContractError, DataError, DimensionError, NumericError
from psp.encoders import init_encoder_params
from psp.graph import PromptedGraph, build_csr, gcn_normalize, self_looped
from psp.inference import class_mean_rows
from psp.prompt import accuracy, init_edge_weights, prompt_loss, prompted_layer, restrict_edge_ratio

COSINE_EPS = 1e-12
DEGREE_FLOOR = 1e-12

# ---------------------------------------------------------------------------
# the tape

_TAPE_STACK: list["Tape"] = []


class Tensor:
    """Dense float64 matrix participating in reverse-mode differentiation."""

    __slots__ = ("data", "requires_grad", "name")

    def __init__(self, data, requires_grad: bool = False, name: Optional[str] = None):
        arr = np.array(data, dtype=np.float64)
        if arr.ndim == 0:
            arr = arr.reshape(1, 1)
        elif arr.ndim == 1:
            arr = arr.reshape(1, -1)
        if arr.ndim != 2:
            raise DimensionError(f"tensors are 2-D, got array of shape {arr.shape}")
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.name = name

    @property
    def rows(self) -> int:
        return self.data.shape[0]

    @property
    def cols(self) -> int:
        return self.data.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self.data.shape

    def item(self) -> float:
        if self.shape != (1, 1):
            raise ContractError(f"item() needs a 1x1 tensor, got {self.shape}")
        return float(self.data[0, 0])

    def __repr__(self) -> str:
        tag = f", name={self.name!r}" if self.name else ""
        return f"Tensor({self.rows}x{self.cols}, requires_grad={self.requires_grad}{tag})"


TapeRecord = namedtuple("TapeRecord", "op inputs out vjp")


class Tape:
    """Ordered log of differentiable operations; append order is topological."""

    def __init__(self):
        self.records: list[TapeRecord] = []

    def __enter__(self) -> "Tape":
        _TAPE_STACK.append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        popped = _TAPE_STACK.pop()
        if popped is not self:
            raise ContractError("tape stack corrupted: exited a tape that was not innermost")


def _emit(op: str, inputs: Sequence[Tensor], out_data: np.ndarray, vjp) -> Tensor:
    """Wrap an op's output and record it on the innermost active tape while
    any of `inputs` requires grad.

    `out_data` must be a freshly computed 2-D float64 array: the output
    tensor adopts it without a copy. A VJP returns None for every input that
    did not require grad when the op ran.
    """
    tape = _TAPE_STACK[-1] if _TAPE_STACK and any(t.requires_grad for t in inputs) else None
    out = Tensor.__new__(Tensor)  # adopts out_data without a copy
    out.data, out.requires_grad, out.name = out_data, tape is not None, None
    if tape is not None:
        tape.records.append(TapeRecord(op, tuple(inputs), out, vjp))
    return out


def backward(tape: Tape, loss: Tensor) -> dict[Tensor, np.ndarray]:
    """d(loss)/d(leaf) for every leaf on the tape that the sweep reaches.

    Leaves are the requires_grad tensors no record produced (the loss too, if
    none did). A produced tensor's gradient is freed once its VJP has run.
    The tape is left as it was, so a second call returns equal gradients.
    """
    if loss.shape != (1, 1):
        raise ContractError(f"backward needs a scalar (1x1) loss, got {loss.shape}")
    # keyed by the tensors themselves: the tape keeps each one alive, so no two share an id
    flows: dict[Tensor, np.ndarray] = {loss: np.ones((1, 1))}
    for rec in reversed(tape.records):
        flow = flows.pop(rec.out, None)
        if flow is None:
            continue
        for t, g in zip(rec.inputs, rec.vjp(flow)):
            if g is not None:
                flows[t] = g if t not in flows else flows[t] + g
    grads: dict[Tensor, np.ndarray] = {}
    for t, g in flows.items():
        if t.requires_grad:  # a VJP may hand one array to two inputs (add); each leaf owns its gradient
            grads[t] = g.copy() if any(np.may_share_memory(g, h) for h in grads.values()) else g
    return grads


def encoder_leaves(params) -> dict[str, Tensor]:
    """Each encoder array of `params` as a trainable tape leaf of the same name (a copy)."""
    return {name: Tensor(params[name], requires_grad=True, name=name) for name in PARAM_NAMES}


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


def dropout(x: Tensor, p: float, seed: int, stream: int) -> Tensor:
    """Inverted dropout with the `dropout_mask` of (seed, stream), which is
    the same on a tape or off; the identity when p is 0."""
    keep = dropout_mask(x.shape, p, seed, stream)
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
    inv_u, inv_v = row_norms(a_in), row_norms(b_in)
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


def composed_mlp_forward(x, leaves, mode="eval", seed=0, dropout_rate=0.0):
    """`mlp_forward` of the array x as generic tape ops of `leaves` (`encoder_leaves`),
    with the same dropout salt and stream."""
    w1, b1, w2, b2 = (leaves[f"mlp_{p}"] for p in ("w1", "b1", "w2", "b2"))
    h = relu(add(matmul(Tensor(x), w1), b1))
    h = dropout(h, check_mode(mode, dropout_rate), derive_seed(seed, 1), 0)
    return add(matmul(h, w2), b2)


def composed_gnn_forward(x, a_norm, leaves, mode="eval", seed=0, dropout_rate=0.0):
    """`gnn_forward` of the array x as generic tape ops of `leaves` (`encoder_leaves`),
    with the same dropout salt and stream."""
    w1, b1, w2, b2 = (leaves[f"gnn_{p}"] for p in ("w1", "b1", "w2", "b2"))
    h = relu(add(spmm(a_norm, matmul(Tensor(x), w1)), b1))
    h = dropout(h, check_mode(mode, dropout_rate), derive_seed(seed, 2), 1)
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


def prompted_apply(base: tuple[sparse.csr_array, np.ndarray], w: Tensor, h_base: Tensor, h_proto: Tensor):
    """The prompted graph [[A+I, W], [W^T, I]], scaled by d^-1/2 on both sides,
    times the matrix whose base rows are `h_base` and prototype rows `h_proto`;
    returns the product as the same two row blocks. `base` is A+I and its row
    sums, as `self_looped` returns them. d holds the absolute row sums, plus 1
    on base rows; gradients reach W through d too."""
    a_hat, degree = base
    abs_w = absolute(w)
    s_b = rsqrt(add(row_sum(abs_w), Tensor(degree)))
    s_p = rsqrt(add(row_sum(transpose(abs_w)), Tensor(np.ones((w.cols, 1)))))
    sb, sp = mul(h_base, s_b), mul(h_proto, s_p)
    top = add(spmm(a_hat, sb), matmul(w, sp))
    bottom = add(matmul(transpose(w), sb), sp)
    return mul(top, s_b), mul(bottom, s_p)


def full_graph_prototypes(ctx, ps, seed=0, dropout_rate=0.0):
    """The two-layer GNN over all N+C rows of the prompted graph, both layers
    through `prompted_apply` and the first with one (N+C)-row dropout mask,
    then its prototype rows. `ps.weight_rows` is the tape leaf, a Tensor."""
    g = ctx.graph
    w = mul(ps.weight_rows, Tensor(ps.trainable_row_mask.astype(np.float64).reshape(-1, 1)))
    if ctx.task == "graph":
        w = select_rows(w, g.graph_of)
    base = self_looped(g.adjacency)
    w1, b1, w2, b2 = (Tensor(a) for a in ctx.params.view("gnn"))
    blocks = prompted_apply(base, w, matmul(Tensor(g.features), w1),
                            matmul(Tensor(ps.proto_features), w1))
    h_base, h_proto = (relu(add(h, b1)) for h in blocks)
    keep = dropout_mask((w.rows + w.cols, ctx.params.hidden_dim), dropout_rate, derive_seed(seed, 2), 0)
    if keep is not None:
        factor = keep / (1.0 - dropout_rate)
        h_base = mul(h_base, Tensor(factor[:g.n_nodes]))
        h_proto = mul(h_proto, Tensor(factor[g.n_nodes:]))
    _, proto = prompted_apply(base, w, matmul(h_base, w2), matmul(h_proto, w2))
    return add(proto, b2)


def keep_all_prompted_layer(ctx, ps, seed=0, dropout_rate=0.0):
    """`psp.prompt.prompted_layer`'s arithmetic, step for step, with a VJP that
    keeps every N-row intermediate it reads in an array of its own: the
    column-scaled A+I, t1, the pre-activation, relu's output and gate, the
    dropped-out rows and the keep-mask, and each stage of the base-row
    gradient, including (A+I)^T(s_b*G_b) whole. Returns what `prompted_layer`
    returns: the prototypes, the dropout-free prototypes and the VJP."""
    weights, mask, feats = ps.weight_rows, ps.trainable_row_mask, ps.proto_features
    w1, b1, w2, b2 = ctx.params.view("gnn")
    a_hat, graph_of = ctx.a_hat, ctx.graph.graph_of
    w = weights * mask[:, None]
    if ctx.task == "graph":
        w = w[graph_of]
    wt, n = np.ascontiguousarray(w.T), w.shape[0]
    deg_b = np.abs(w).sum(axis=1, keepdims=True) + ctx.base_degree
    deg_p = np.abs(wt).sum(axis=1, keepdims=True) + 1.0
    s_b, s_p = 1.0 / np.sqrt(deg_b), 1.0 / np.sqrt(deg_p)
    wst = wt * s_b.T
    a_sb = sparse.csr_array((a_hat.data * s_b.ravel()[a_hat.indices], a_hat.indices, a_hat.indptr),
                            shape=a_hat.shape)
    xw, pw = ctx.xw1, feats @ w1
    sp1 = pw * s_p
    u1 = wst @ xw + sp1
    t1 = a_sb @ xw + w @ sp1
    pre_b, pre_p = t1 * s_b + b1, u1 * s_p + b1
    relu_b, relu_p = np.maximum(pre_b, 0.0), np.maximum(pre_p, 0.0)
    gate_b, gate_p = relu_b > 0, relu_p > 0

    def layer2(hb, hp, scale):
        u2 = wst @ hb + hp * s_p
        if scale is not None:
            u2 = u2 * scale
        return u2, (u2 * s_p) @ w2 + b2

    keep = dropout_mask((n + w.shape[1], b1.shape[1]), dropout_rate, derive_seed(seed, 2), 0)
    keep_b, keep_p = (None, None) if keep is None else (keep[:n], keep[n:])
    clean, scale, h_b, h_p = None, None, relu_b, relu_p
    if keep is not None:
        clean = layer2(relu_b, relu_p, None)[1]
        scale = 1.0 / (1.0 - dropout_rate)
        h_b, h_p = relu_b * keep_b, relu_p * keep_p
    u2, out = layer2(h_b, h_p, scale)

    def vjp(g):
        gz = g @ w2.T
        gs_p = row_dots(gz, u2)
        gz = gz * s_p
        if scale is not None:
            gz = gz * scale
        gs_p += row_dots(gz, h_p)
        g_h = wst.T @ gz
        g_pre = g_h * gate_b if keep_b is None else g_h * gate_b * keep_b
        g_x = a_sb @ g_pre
        gs_b = row_dots(g_pre, t1) + row_dots(g_x, xw)
        g_p = gz * s_p * gate_p if keep_p is None else gz * s_p * gate_p * keep_p
        gs_p += row_dots(g_p, u1)
        g_p = g_p * s_p
        g_ws = h_b @ gz.T + xw @ g_p.T
        gs_b += row_dots(w, g_ws)
        g_ws = g_ws + g_pre @ sp1.T
        gs_p += row_dots(wst @ g_pre + g_p, pw)
        gw = g_ws * s_b + np.sign(w) * ((-0.5) * gs_b * s_b / deg_b + ((-0.5) * gs_p * s_p / deg_p).T)
        if ctx.task == "graph":
            gw, per_node = np.zeros(weights.shape), gw
            np.add.at(gw, graph_of, per_node)
        return gw * mask[:, None]

    return out, out if clean is None else clean, vjp


def two_forward_prompt_tune(ctx, labeled, cfg, val=None):
    """`prompt_tune`'s loop as it was: per epoch one training forward, a step,
    then a separate eval forward of the new weights, all through
    `full_graph_prototypes`. Returns the final weights (the best ones with a
    validation set), the losses, the validation accuracies in the order they
    were taken, the best epoch (-1: the initialization) and the stop reason:
    "patience" when a training epoch was skipped, else "epochs"."""
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
            proto = full_graph_prototypes(ctx, ps, derive_seed(cfg.seed, epoch), cfg.dropout)
            loss, g_proto = prompt_loss(anchors, proto.data, labeled.classes, cfg.tau)
            seeded = total_sum(mul(proto, Tensor(g_proto)))  # its flow into proto is g_proto
        adam_step({"prompt_weights": weights.data}, {"prompt_weights": backward(tape, seeded)[weights]}, opt)
        losses.append(loss)
        if val is not None:
            val_accs.append(accuracy(ctx, full_graph_prototypes(ctx, ps).data, val, cfg.tau))
            if val_accs[-1] > best_acc:
                best_acc, best_w, best_epoch = val_accs[-1], weights.data.copy(), epoch
            elif epoch - best_epoch >= cfg.patience:
                break
    stop = "patience" if len(losses) < cfg.epochs else "epochs"
    return best_w if val is not None else weights.data, losses, val_accs, best_epoch, stop


# ---------------------------------------------------------------------------
# measurements


def grad_check(f, x, h: float = 1e-5) -> float:
    """Max relative error between analytic and central-difference gradients.

    Either `x` is a Tensor and `f` maps it to a 1x1 tensor on the tape, or `x`
    is an array and `f` maps it to (value, analytic gradient), as a chain of
    `src`'s fused ops and their VJPs does. `x` is perturbed in place, so `f`
    must be deterministic in it; seeded randomized ops qualify because their
    masks depend on (seed, stream) alone.
    """
    if isinstance(x, Tensor):
        f, x = _value_and_grad(f, x), x.data
    analytic = np.array(f(x)[1], dtype=np.float64)
    numeric = np.zeros_like(x)
    for idx in np.ndindex(*x.shape):
        orig = x[idx]
        x[idx] = orig + h
        fp = f(x)[0]
        x[idx] = orig - h
        fm = f(x)[0]
        x[idx] = orig
        numeric[idx] = (fp - fm) / (2.0 * h)
    if not (np.isfinite(analytic).all() and np.isfinite(numeric).all()):
        raise NumericError("grad_check encountered non-finite values")
    if numeric.size == 0:
        return 0.0
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-8)
    return float(np.max(np.abs(analytic - numeric) / denom))


def _value_and_grad(f, leaf: Tensor):
    """`f` of the tensor `leaf` as a function of leaf's data that returns
    (value, gradient), the gradient from `backward` (zero where none flows)."""
    def value_and_grad(_):
        prev, leaf.requires_grad = leaf.requires_grad, True
        try:
            with Tape() as tape:
                y = f(leaf)
            if y.shape != (1, 1):
                raise ContractError(f"grad_check: f must return a 1x1 tensor, got {y.shape}")
            g = backward(tape, y).get(leaf)
        finally:
            leaf.requires_grad = prev
        return y.item(), np.zeros_like(leaf.data) if g is None else g

    return value_and_grad


def _encoder_grad_case(x, params, a_norm, probe, name, seed=11, dropout_rate=0.3):
    """(f, array) for `grad_check`: sum(probe * z) for z the view's training
    forward (`a_norm` None for the MLP), as a function of the parameter `name`,
    which the check perturbs in place, with its gradient from `encoder_vjp`."""
    def f(_):
        z = (mlp_forward(x, params, "train", seed, dropout_rate) if a_norm is None
             else gnn_forward(x, a_norm, params, "train", seed, dropout_rate))
        return float((z * probe).sum()), encoder_vjp(probe, x, params, a_norm, seed, dropout_rate)[name]

    return f, params[name]


def prompt_loss_and_grad(ctx, ps, anchors, labels, tau, seed=0, dropout_rate=0.0):
    """`prompt_loss` of `prompted_layer`'s prototypes and its gradient into
    `ps.weight_rows`, chained by hand as a tuning step chains them; a function
    of the weights for `grad_check`, which perturbs `ps.weight_rows` in place."""
    proto, _, vjp = prompted_layer(ctx, ps, seed, dropout_rate)
    loss, g_proto = prompt_loss(anchors, proto, labels, tau)
    return loss, vjp(g_proto)


def op_grad_cases() -> dict:
    """name: (f, x) for `grad_check`, one or more per tape op, and one per
    parameter of each fused encoder op in train mode, through `encoder_vjp`."""
    rng = np.random.default_rng(7)
    m33 = Tensor(rng.standard_normal((3, 3)))
    m34 = Tensor(rng.standard_normal((3, 4)))
    m43 = Tensor(rng.standard_normal((4, 3)))
    positive = Tensor(np.abs(rng.standard_normal((4, 3))) + 0.5)
    probe43 = Tensor(rng.standard_normal((4, 3)))
    probe63 = Tensor(rng.standard_normal((6, 3)))
    probe44 = Tensor(rng.standard_normal((4, 4)))
    col = Tensor(rng.standard_normal((4, 1)))
    csr = build_csr(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    cases = {
        "matmul_left": (lambda t: total_sum(matmul(t, m34)), m43),
        "matmul_right": (lambda t: total_sum(matmul(m43, t)), m34),
        "transpose": (lambda t: total_sum(mul(transpose(t), m34)), m43),
        "spmm_dense": (lambda t: total_sum(mul(spmm(csr, t), probe43)), m43),
        "select_rows": (lambda t: total_sum(mul(select_rows(t, [0, 2, 1, 2, 0, 1]), probe63)), m43),
        "select_rows_range": (lambda t: total_sum(mul(select_rows(t, [1, 2, 3]), m33)), m43),
        "add": (lambda t: total_sum(mul(add(t, probe43), probe43)), m43),
        "add_row_bcast": (lambda t: total_sum(mul(add(m43, t), probe43)), Tensor(rng.standard_normal((1, 3)))),
        "add_col_bcast": (lambda t: total_sum(mul(add(m43, t), probe43)), col),
        "mul": (lambda t: total_sum(mul(mul(t, probe43), probe43)), m43),
        "mul_col_bcast": (lambda t: total_sum(mul(mul(m43, t), probe43)), col),
        "scale": (lambda t: total_sum(scale(t, -2.5)), m43),
        "sub": (lambda t: total_sum(mul(sub(t, probe43), probe43)), m43),
        "relu": (lambda t: total_sum(relu(t)), m43),
        "absolute": (lambda t: total_sum(absolute(t)), Tensor(rng.standard_normal((4, 3)) + 0.2)),
        "exp": (lambda t: total_sum(exp(t)), m33),
        "log": (lambda t: total_sum(log(t)), positive),
        "rsqrt": (lambda t: total_sum(rsqrt(t)), positive),
        "row_sum": (lambda t: total_sum(mul(row_sum(t), col)), m43),
        "total_sum": (lambda t: scale(total_sum(t), 3.0), m43),
        "dropout": (lambda t: total_sum(dropout(t, 0.3, 11, 0)), m43),
        "cosine": (lambda t: total_sum(mul(cosine_sim_matrix(t, m33), probe43)), m43),
    }
    # each fused encoder op in train mode, through each parameter (perturbed in place)
    enc, a_norm = init_encoder_params(3, 4, seed=5), gcn_normalize(csr)
    for view, graph in (("mlp", None), ("gnn", a_norm)):
        for p in ("w1", "b1", "w2", "b2"):
            cases[f"two_layer_{view}_{p}"] = _encoder_grad_case(probe43.data, enc, graph, probe44.data,
                                                               f"{view}_{p}")
    return cases


def params_checksum(params) -> str:
    digest = hashlib.sha256()
    for name in PARAM_NAMES:
        digest.update(params[name].tobytes())
    return digest.hexdigest()


def intra_class_edge_fraction(g) -> float:
    """Fraction of stored (undirected) edges joining same-class endpoints."""
    upper = sparse.triu(g.adjacency, k=1, format="coo")
    if not upper.nnz:
        return 0.0
    return float(np.mean(g.labels[upper.row] == g.labels[upper.col]))
