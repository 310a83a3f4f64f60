"""Structure prompt tuning.

Class prototypes become virtual nodes wired to the graph through a learnable
weight matrix. Only that matrix trains: encoder parameters stay frozen and
the views they produce are computed once per task (`TaskContext`), so
gradients reach the weights exclusively through the prototype rows of the
augmented propagation, and only those rows are computed in its last layer.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .autodiff import (
    AdamState,
    Tape,
    Tensor,
    adam_step,
    add,
    backward,
    check_tau,
    derive_seed,
    masked_infonce,
    matmul,
    mul,
    select_rows,
)
from .encoders import EncoderParams, gnn_forward, gnn_hidden, mlp_forward
from .errors import ContractError, DimensionError, NumericError, ParameterError
from .graph import (
    GraphData,
    LabeledSet,
    NormalizedPromptOperator,
    PromptedGraph,
    SelfLoopedBase,
    class_count,
    gcn_normalize,
    mean_readout,
)
from .inference import class_mean_rows, evaluate, predict

LR_GRID = (1e-4, 1e-3, 1e-2, 1e-1)
WEIGHT_DECAY_GRID = (1e-5, 1e-4, 1e-3, 1e-2)


def _in_grid(value: float, grid) -> bool:
    return any(np.isclose(value, g, rtol=1e-9) for g in grid)


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
        if not 0.0 <= self.edge_ratio <= 1.0:
            raise ParameterError(f"edge_ratio must lie in [0, 1], got {self.edge_ratio}")
        check_tau(self.tau)
        if not 0.0 <= self.dropout < 1.0:
            raise ParameterError(f"dropout must lie in [0, 1), got {self.dropout}")
        for name in ("epochs", "patience"):
            if getattr(self, name) < 0:
                raise ParameterError(f"{name} must be non-negative, got {getattr(self, name)}")


def init_edge_weights(z2: Tensor, labeled: LabeledSet, n_classes: int) -> Tensor:
    """Initial weights: dot products between embeddings and labeled-mean prototypes."""
    proto = class_mean_rows(z2, labeled, n_classes)
    return Tensor(z2.data @ proto.data.T)


def restrict_edge_ratio(n: int, labeled: LabeledSet, r: float, seed: int) -> np.ndarray:
    """Trainable-row mask: all labeled rows plus floor(r*n) sampled others.

    The sample is capped by the number of rows outside the labeled set, so
    r=1 marks every row trainable.
    """
    if not 0.0 <= r <= 1.0:
        raise ParameterError(f"edge ratio must lie in [0, 1], got {r}")
    mask = np.zeros(n, dtype=bool)
    mask[labeled.indices] = True
    pool = np.flatnonzero(~mask)
    take = min(int(np.floor(r * n)), pool.size)
    if take:
        rng = np.random.default_rng([int(seed) & 0xFFFFFFFFFFFFFFFF, 0x51EC])
        mask[rng.choice(pool, size=take, replace=False)] = True
    return mask


@dataclass(frozen=True)
class TaskContext:
    """The frozen inputs of prompting one task on one graph with one checkpoint.

    Built once by `task_context` and shared by every fit on the same data and
    encoders. Rows of `anchors`, `struct` and `attr_base` are nodes for the
    node task and graphs for the graph task; `base` and `xw1` always cover
    the N base nodes, which the prompted graph propagates over either way.
    """

    graph: GraphData
    params: EncoderParams
    task: str
    anchors: Tensor          # attribute (MLP) view: the anchor side of the loss
    attr_base: Tensor        # features: the prototype-feature initializer
    base: SelfLoopedBase     # the prompted graph's constant base block
    xw1: Tensor              # X·W1 of the GNN's first layer over the base nodes

    @property
    def n_classes(self) -> int:
        return class_count(self.graph.task_labels(self.task))

    @cached_property
    def struct(self) -> Tensor:
        """Structural (GNN) view, the edge-weight initializer; built on first use."""
        g = self.graph
        struct = gnn_forward(g.features, gcn_normalize(g.adjacency), self.params, "eval")
        return mean_readout(struct, g.graph_of) if self.task == "graph" else struct


def task_context(g: GraphData, params: EncoderParams, task: str) -> TaskContext:
    """Run the frozen encoders once and keep everything prompting reuses."""
    if task not in ("node", "graph"):
        raise ParameterError(f"task must be 'node' or 'graph', got {task!r}")
    if not params.frozen:
        raise ContractError("prompting requires frozen encoders")
    if task == "graph" and g.graph_of is None:
        raise ContractError("graph-level views need graph membership")
    anchors = mlp_forward(g.features, params, "eval")
    attr_base = g.features
    if task == "graph":
        anchors, attr_base = (mean_readout(v, g.graph_of) for v in (anchors, attr_base))
    (w1, _), _ = params.gnn_layers
    return TaskContext(graph=g, params=params, task=task, anchors=anchors,
                       attr_base=attr_base, base=SelfLoopedBase.of(g.adjacency),
                       xw1=matmul(g.features, w1))


def prototype_embeddings(ctx: TaskContext, ps: PromptedGraph, mode: str = "eval",
                         seed: int = 0, dropout_rate: float = 0.0) -> Tensor:
    """Prototype rows of the GNN run over the prompted graph.

    The weight block is masked every forward pass, which pins untrainable
    rows to zero and zeroes their gradients. For graph-level prompting the
    per-graph weights are expanded to all member nodes; their gradient
    contributions sum back into the shared entry.

    Layer 1 runs over all N+C rows as two row blocks: the cached X·W1 of the
    base nodes and the prototypes' P·W1. The loss reads only the C prototype
    rows of layer 2, so only those are computed: s_p*(W^T (s_b*H1_b) + s_p*H1_p),
    then W2, b2.
    """
    if ps.weight_rows.rows != ctx.anchors.rows:
        raise DimensionError(f"prompt has {ps.weight_rows.rows} weight rows for "
                             f"{ctx.anchors.rows} {ctx.task} rows")
    if ps.proto_features.cols != ctx.graph.features.cols:
        raise ContractError(f"prototype features have {ps.proto_features.cols} columns, "
                            f"graph has {ctx.graph.features.cols}")
    mask = Tensor(ps.trainable_row_mask.astype(np.float64).reshape(-1, 1))
    w = mul(ps.weight_rows, mask)
    if ctx.task == "graph":
        w = select_rows(w, ctx.graph.graph_of)
    operator = NormalizedPromptOperator(ctx.base, w)
    (w1, _), (w2, b2) = ctx.params.gnn_layers
    blocks = operator.apply(ctx.xw1, matmul(ps.proto_features, w1))
    h_base, h_proto = gnn_hidden(blocks, ctx.params, mode, seed, dropout_rate)
    return add(matmul(operator.apply_prototype_rows(h_base, h_proto), w2), b2)


def accuracy(ctx: TaskContext, prototypes: Tensor, labeled: LabeledSet, tau: float) -> float:
    """Accuracy of `prototypes` on the context's anchor rows of the labeled items."""
    return evaluate(predict(Tensor(ctx.anchors.data[labeled.indices]), prototypes, tau),
                    labeled.classes)


def prompt_loss(anchors: Tensor, prototypes: Tensor, labels, tau: float) -> Tensor:
    """Contrastive loss pulling each anchor toward its class prototype.

    The denominator runs over the other classes only. Anchors are treated as
    constants: gradients flow solely into the prototype side.
    """
    n_classes = prototypes.rows
    if n_classes < 2:
        raise ContractError("prompt loss needs at least 2 classes")
    labels = np.asarray(labels, dtype=np.int64).ravel()
    if labels.size != anchors.rows:
        raise ContractError(f"{anchors.rows} anchors vs {labels.size} labels")
    if anchors.requires_grad:
        anchors = anchors.detach()
    return masked_infonce(anchors, prototypes, labels, tau, exclude_positive=True)


def prompt_tune(ctx: TaskContext, labeled: LabeledSet, cfg: PromptConfig,
                val: LabeledSet | None = None) -> tuple[PromptedGraph, list[float]]:
    """Optimize the prompt weights alone under the similarity loss.

    Anchors come from the context's frozen attribute view. With a validation
    set, tuning keeps the weights from the best validation accuracy and
    stops early after `cfg.patience` stale epochs.
    """
    if not labeled.indices.size:
        raise ContractError("prompt tuning needs a non-empty labeled set")
    n_classes = ctx.n_classes
    proto_features = class_mean_rows(ctx.attr_base, labeled, n_classes)
    w0 = init_edge_weights(ctx.struct, labeled, n_classes)
    mask = restrict_edge_ratio(ctx.anchors.rows, labeled, cfg.edge_ratio, cfg.seed)
    weights = Tensor(w0.data * mask[:, None], requires_grad=True, name="prompt_weights")
    prompted = PromptedGraph(task=ctx.task, proto_features=proto_features, weight_rows=weights,
                             trainable_row_mask=mask)

    train_anchors = Tensor(ctx.anchors.data[labeled.indices])

    opt = AdamState(lr=cfg.lr, weight_decay=cfg.weight_decay)
    losses: list[float] = []
    best_acc, best_w, best_epoch = -1.0, weights.data.copy(), -1
    if val is not None and cfg.epochs > 0:
        # the untouched initialization competes as the first candidate
        best_acc = accuracy(ctx, prototype_embeddings(ctx, prompted, "eval"), val, cfg.tau)
    for epoch in range(cfg.epochs):
        epoch_seed = derive_seed(cfg.seed, epoch)
        with Tape() as tape:
            proto = prototype_embeddings(ctx, prompted, "train", epoch_seed, cfg.dropout)
            loss = prompt_loss(train_anchors, proto, labeled.classes, cfg.tau)
        value = loss.item()
        if not np.isfinite(value):
            raise NumericError(f"prompt loss became non-finite at epoch {epoch}")
        backward(tape, loss)
        adam_step([weights], opt)
        losses.append(value)
        if val is not None:
            acc = accuracy(ctx, prototype_embeddings(ctx, prompted, "eval"), val, cfg.tau)
            if acc > best_acc:
                best_acc, best_w, best_epoch = acc, weights.data.copy(), epoch
            elif epoch - best_epoch >= cfg.patience:
                break
    if val is not None:
        weights.data = best_w
    return prompted, losses
