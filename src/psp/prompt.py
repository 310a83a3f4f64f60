"""Structure prompt tuning.

Class prototypes become virtual nodes wired to the graph through a learnable
weight matrix. Only that matrix trains: encoder parameters stay frozen and
the views they produce are computed once per task (`TaskContext`), so
gradients reach the weights exclusively through the prototype rows of the
augmented propagation, and only those rows are computed in its last layer.

The GNN over the prompted graph is one fused op (`prompted_layer`) that returns
its own VJP; its gradient into the weights runs through the message weights
and the degrees they set, and a tuning step hands it the loss's gradient.
Tuning runs layer 1 once per weight state: the pass that trains an epoch also
reads out the validation prototypes of the weights it starts from.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy import sparse

from .autodiff import (
    AdamState,
    FitRecord,
    check_fraction,
    check_seed,
    check_tau,
    derive_seed,
    dropout_mask,
    masked_infonce,
    row_dots,
    seeded_rng,
)
from .encoders import EncoderParams, check_mode, gnn_forward, mlp_forward
from .errors import ContractError, DimensionError, ParameterError
from .graph import (
    GraphData,
    LabeledSet,
    PromptedGraph,
    class_count,
    gcn_normalize,
    mean_readout,
    self_looped,
)
from .inference import class_mean_rows, evaluate, predict

LR_GRID = (1e-4, 1e-3, 1e-2, 1e-1)
WEIGHT_DECAY_GRID = (1e-5, 1e-4, 1e-3, 1e-2)
# rows of (A+I)^T(s_b*G_b) per block in prompted_layer's VJP: a whole N x h
# product there is a fourth N-row array, which fragments the CLI's heap
_VJP_BLOCK_ROWS = 1024


def _in_grid(value: float, grid) -> bool:
    return any(np.isclose(value, g, rtol=1e-9, atol=0.0) for g in grid)


@dataclass
class PromptConfig:
    epochs: int = 200
    lr: float = 1e-2
    weight_decay: float = 1e-4
    tau: float = 0.5
    edge_ratio: float = 1.0
    seed: int = 0
    dropout: float = 0.0
    patience: int = 30

    def __post_init__(self):
        if not _in_grid(self.lr, LR_GRID):
            raise ParameterError(f"lr must come from {LR_GRID}, got {self.lr}")
        if not _in_grid(self.weight_decay, WEIGHT_DECAY_GRID):
            raise ParameterError(f"weight_decay must come from {WEIGHT_DECAY_GRID}, got {self.weight_decay}")
        check_fraction("edge ratio", self.edge_ratio, open_top=False)
        check_tau(self.tau)
        check_seed(self.seed)
        check_fraction("dropout", self.dropout, open_top=True)
        if self.epochs < 0:
            raise ParameterError(f"epochs must be non-negative, got {self.epochs}")
        if self.patience < 1:  # 0 would stop where 1 does: a stale count starts at 1
            raise ParameterError(f"patience must be at least 1, got {self.patience}")


def init_edge_weights(z2: np.ndarray, labeled: LabeledSet, n_classes: int) -> np.ndarray:
    """Initial weights: dot products between embeddings and labeled-mean prototypes."""
    return z2 @ class_mean_rows(z2, labeled, n_classes).T


def restrict_edge_ratio(n: int, labeled: LabeledSet, r: float, seed: int) -> np.ndarray:
    """Trainable-row mask: all labeled rows plus floor(r*n) sampled others.

    The sample is capped by the number of rows outside the labeled set, so
    r=1 marks every row trainable.
    """
    check_fraction("edge ratio", r, open_top=False)
    mask = np.zeros(n, dtype=bool)
    mask[labeled.indices] = True
    pool = np.flatnonzero(~mask)
    take = min(int(np.floor(r * n)), pool.size)
    if take:
        mask[seeded_rng(seed, 0x51EC).choice(pool, size=take, replace=False)] = True
    return mask


@dataclass(frozen=True)
class TaskContext:
    """The frozen inputs of prompting one task on one graph with one checkpoint.

    Built once by `task_context` and shared by every fit on the same data and
    encoders. Rows of `anchors`, `struct` and `attr_base` are nodes for the
    node task and graphs for the graph task; `a_hat`, `base_degree` and `xw1`
    cover the N base nodes either way: the prompted graph propagates over them.
    """

    graph: GraphData
    params: EncoderParams
    task: str
    anchors: np.ndarray      # attribute (MLP) view: the anchor side of the loss
    struct: np.ndarray       # structural (GNN) view: the edge-weight initializer
    attr_base: np.ndarray    # features: the prototype-feature initializer
    a_hat: sparse.csr_array  # A+I: the prompted graph's constant base block
    base_degree: np.ndarray  # row sums of A+I as an N x 1 column
    xw1: np.ndarray          # X·W1 of the GNN's first layer over the base nodes

    @property
    def n_classes(self) -> int:
        return class_count(self.graph.task_labels(self.task))


def task_context(g: GraphData, params: EncoderParams, task: str) -> TaskContext:
    """Run the frozen encoders once and keep everything prompting reuses."""
    if task not in ("node", "graph"):
        raise ParameterError(f"task must be 'node' or 'graph', got {task!r}")
    if task == "graph" and g.graph_of is None:
        raise ContractError("graph-level views need graph membership")
    anchors = mlp_forward(g.features, params, "eval")
    struct = gnn_forward(g.features, gcn_normalize(g.adjacency), params, "eval")
    attr_base = g.features
    if task == "graph":
        anchors, struct, attr_base = (mean_readout(v, g.graph_of) for v in (anchors, struct, attr_base))
    a_hat, base_degree = self_looped(g.adjacency)
    return TaskContext(graph=g, params=params, task=task, anchors=anchors, struct=struct,
                       attr_base=attr_base, a_hat=a_hat, base_degree=base_degree,
                       xw1=g.features @ params["gnn_w1"])


def prompted_layer(ctx: TaskContext, ps: PromptedGraph, seed: int = 0,
                   dropout_rate: float = 0.0) -> tuple[np.ndarray, np.ndarray, Callable]:
    """Prototype rows of the frozen GNN over the prompted graph, as one fused op.

    W is the masked weight block, expanded to member nodes for the graph task;
    the degrees are d_b = deg(A+I) + rowsum|W| and d_p = colsum|W| + 1, and
    s = d^-1/2. Layer 1 covers both row blocks, from the cached X·W1 and P·W1:
    H_b = s_b*t1 with t1 = (A+I)(s_b*XW1) + W(s_p*PW1), and
    H_p = s_p*((s_b*W)^T XW1 + s_p*PW1); then b1, relu and one (N+C)-row dropout
    keep-mask, stream 0 of `derive_seed(seed, 2)`. Layer 2 forms only the C
    prototype rows, s_p*u2 with u2 = ((s_b*W)^T H_b + s_p*H_p)/(1-p), then W2 and b2.

    The scales ride on the narrow operands: s_b scales W's C columns, the stored
    values of A+I by column (A+I is symmetric, so that matrix is also the
    transpose the VJP needs), and the N x C products that form dW, after their
    GEMM; 1/(1-p) scales u2's C rows. H_b = s_b*t1 is the one N x h pass that
    only scales: a training step (forward, dropout and VJP) makes 20 passes over
    N x h arrays, an eval pass 8. The VJP forms the weight rows' gradient in
    numpy, through the degrees too. Of the N-row arrays it keeps only t1 and H_b
    after relu and the keep-mask, whose gates are both H_b > 0 as in the
    encoders, and it forms (A+I)^T(s_b*G_b) a block of rows at a time.

    Returns the prototypes; their dropout-free read-out (the prototypes
    themselves when no dropout acted), for layer 1 is shared, so a training
    pass also yields its weights' validation read-out; and the VJP, which maps
    d/d(prototypes) to d/d(weight_rows), zero on the rows the mask pins.
    """
    weights, mask, feats = ps.weight_rows, ps.trainable_row_mask, ps.proto_features
    if len(weights) != len(ctx.anchors):
        raise DimensionError(f"prompt has {len(weights)} weight rows for {len(ctx.anchors)} {ctx.task} rows")
    if mask.shape != (len(weights),):
        raise DimensionError(f"trainable_row_mask has shape {mask.shape} for {len(weights)} weight rows")
    if feats.shape[1] != ctx.graph.features.shape[1]:
        raise ContractError(f"prototype features have {feats.shape[1]} columns, "
                            f"graph has {ctx.graph.features.shape[1]}")
    if len(feats) != weights.shape[1]:
        raise DimensionError(f"prompt has {len(feats)} prototype feature rows for {weights.shape[1]} weight columns")
    w1, b1, w2, b2 = ctx.params.view("gnn")
    a_hat, graph_of = ctx.a_hat, ctx.graph.graph_of
    w = weights * mask[:, None]
    if ctx.task == "graph":
        w = w[graph_of]
    wt, n = np.ascontiguousarray(w.T), w.shape[0]
    # d >= 1 (self-loops), so the scales need no floor
    deg_b = np.abs(w).sum(axis=1, keepdims=True) + ctx.base_degree
    deg_p = np.abs(wt).sum(axis=1, keepdims=True) + 1.0
    s_b, s_p = 1.0 / np.sqrt(deg_b), 1.0 / np.sqrt(deg_p)
    wst = wt * s_b.T  # (s_b*W)^T
    # (A+I)(s_b*Y) for any Y, and (A+I)^T(s_b*Y) as well: A+I is symmetric
    sb_cols = np.take(s_b.ravel(), a_hat.indices)
    sb_cols *= a_hat.data
    a_sb = sparse.csr_array((sb_cols, a_hat.indices, a_hat.indptr), shape=a_hat.shape)
    xw, pw = ctx.xw1, feats @ w1
    sp1 = pw * s_p
    u1 = wst @ xw
    u1 += sp1
    t1 = a_sb @ xw
    t1 += w @ sp1
    h_b = t1 * s_b
    h_b += b1
    np.maximum(h_b, 0.0, out=h_b)  # relu's subgradient is 0 at the kink
    h_p = u1 * s_p
    h_p += b1
    np.maximum(h_p, 0.0, out=h_p)

    def layer2(hb, hp, scale):
        u2 = wst @ hb
        u2 += hp * s_p
        if scale is not None:
            u2 *= scale
        return u2, (u2 * s_p) @ w2 + b2

    keep = dropout_mask((n + w.shape[1], b1.shape[1]), dropout_rate, derive_seed(seed, 2), 0)
    clean, scale = None, None
    if keep is not None:
        clean = layer2(h_b, h_p, None)[1]
        scale = 1.0 / (1.0 - dropout_rate)
        h_b *= keep[:n]
        h_p *= keep[n:]
    u2, out = layer2(h_b, h_p, scale)

    def vjp(g):
        gz = g @ w2.T
        gs_p = row_dots(gz, u2)
        gz *= s_p  # d/du2
        if scale is not None:
            gz *= scale  # d/d((s_b*W)^T H_b + s_p*H_p)
        gs_p += row_dots(gz, h_p)
        g_b = wst.T @ gz  # d/dH_b
        # relu's gate and the keep-mask are both H > 0 after dropout
        g_b *= h_b > 0  # d/d(s_b*t1)
        gs_b = row_dots(g_b, t1)
        for lo in range(0, n, _VJP_BLOCK_ROWS):  # (A+I)^T(s_b*g_b): d/d(s_b*XW1) through t1
            rows = slice(lo, lo + _VJP_BLOCK_ROWS)
            gs_b[rows] += row_dots(a_sb[rows] @ g_b, xw[rows])
        g_p = gz * s_p  # d/dH_p
        g_p *= h_p > 0
        gs_p += row_dots(g_p, u1)
        g_p *= s_p  # d/du1
        g_ws = h_b @ gz.T  # d/d(s_b*W), N x C
        g_ws += xw @ g_p.T
        gs_b += row_dots(w, g_ws)
        g_ws += g_b @ sp1.T  # s_b*(this) is d/dW through t1's W(s_p*PW1)
        gs_p += row_dots(wst @ g_b + g_p, pw)  # d/d(s_p*PW1)
        # through the degrees: ds/dd = -s/(2d), and d|W|/dW = sign W
        gw = g_ws * s_b + np.sign(w) * ((-0.5) * gs_b * s_b / deg_b + ((-0.5) * gs_p * s_p / deg_p).T)
        if ctx.task == "graph":  # member nodes' entries sum into their graph's row
            gw, per_node = np.zeros(weights.shape), gw
            np.add.at(gw, graph_of, per_node)
        return gw * mask[:, None]

    return out, out if clean is None else clean, vjp


def prototype_embeddings(ctx: TaskContext, ps: PromptedGraph, mode: str = "eval",
                         seed: int = 0, dropout_rate: float = 0.0) -> np.ndarray:
    """Prototype rows of the GNN run over the prompted graph: `prompted_layer`'s first result."""
    return prompted_layer(ctx, ps, seed, check_mode(mode, dropout_rate))[0]


def accuracy(ctx: TaskContext, prototypes: np.ndarray, labeled: LabeledSet, tau: float) -> float:
    """Accuracy of `prototypes` on the context's anchor rows of the labeled items."""
    return evaluate(predict(ctx.anchors[labeled.indices], prototypes, tau), labeled.classes)


def prompt_loss(anchors: np.ndarray, prototypes: np.ndarray, labels, tau: float
                ) -> tuple[float, np.ndarray]:
    """Contrastive loss pulling each anchor toward its class prototype, and its
    gradient into the prototypes.

    The denominator runs over the other classes only. Anchors are a constant
    array: the loss forms their gradient too, and it is dropped.
    """
    if len(prototypes) < 2:
        raise ContractError("prompt loss needs at least 2 classes")
    labels = np.asarray(labels, dtype=np.int64).ravel()
    if labels.size != len(anchors):
        raise ContractError(f"{len(anchors)} anchors vs {labels.size} labels")
    loss, _, grad = masked_infonce(anchors, prototypes, labels, tau)
    return loss, grad


def prompt_tune(ctx: TaskContext, labeled: LabeledSet, cfg: PromptConfig,
                val: LabeledSet | None = None) -> tuple[PromptedGraph, FitRecord]:
    """Optimize the prompt weights alone under the similarity loss.

    Anchors come from the context's frozen attribute view. With a validation
    set, tuning keeps the weights from the best validation accuracy and stops
    early after `cfg.patience` stale epochs; the record names the kept epoch,
    with its accuracy and its weights' dropout-free prototypes.
    """
    if not labeled.indices.size:
        raise ContractError("prompt tuning needs a non-empty labeled set")
    n_classes = ctx.n_classes
    proto_features = class_mean_rows(ctx.attr_base, labeled, n_classes)
    w0 = init_edge_weights(ctx.struct, labeled, n_classes)
    mask = restrict_edge_ratio(len(ctx.anchors), labeled, cfg.edge_ratio, cfg.seed)
    weights = w0 * mask[:, None]
    prompted = PromptedGraph(task=ctx.task, proto_features=proto_features, weight_rows=weights,
                             trainable_row_mask=mask)

    opt = AdamState(lr=cfg.lr, weight_decay=cfg.weight_decay)
    record = FitRecord("prompt")
    # pass e runs at the weights W_e: it validates what epoch e - 1 left (the
    # untouched initialization competes as epoch -1) and trains epoch e; with
    # a validation set, one last pass only validates the final weights
    for epoch in range(cfg.epochs + (val is not None)):
        training = epoch < cfg.epochs
        proto, val_proto, vjp = prompted_layer(ctx, prompted, derive_seed(cfg.seed, epoch),
                                               cfg.dropout if training else 0.0)
        if training:
            value, g_proto = prompt_loss(ctx.anchors[labeled.indices], proto, labeled.classes, cfg.tau)
        if val is not None:
            acc = accuracy(ctx, val_proto, val, cfg.tau)
            if acc > record.best_acc:
                record.best_epoch, record.best_acc = epoch - 1, acc
                record.best_weights, record.best_proto = weights.copy(), val_proto
            elif training and epoch - 1 - record.best_epoch >= cfg.patience:
                record.stop = "patience"
                break
        if not training:
            break
        with record.step(epoch, value, {"prompt_weights": weights}, opt) as grads:
            grads["prompt_weights"] = vjp(g_proto)
        del vjp, grads  # their N-row arrays go before the next pass forms its own
    if val is not None:
        prompted.weight_rows = record.best_weights
    return prompted, record
