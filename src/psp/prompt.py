"""Structure prompt tuning.

Class prototypes become virtual nodes wired to the graph through a learnable
weight matrix. Only that matrix trains: encoder parameters stay frozen and
anchor representations are cached constants, so gradients reach the weights
exclusively through the prototype rows of the augmented propagation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import (
    AdamState,
    Tape,
    Tensor,
    adam_step,
    backward,
    derive_seed,
    masked_infonce,
    mul,
    select_rows,
)
from .encoders import EncoderParams, gnn_forward, mlp_forward
from .errors import ContractError, DataError, NumericError, ParameterError
from .graph import GraphData, NormalizedPromptOperator, PromptedGraph, gcn_normalize, mean_readout
from .inference import class_mean_rows, evaluate, predict

LR_GRID = (1e-4, 1e-3, 1e-2, 1e-1)
WEIGHT_DECAY_GRID = (1e-5, 1e-4, 1e-3, 1e-2)


@dataclass
class LabeledSet:
    """Few-shot supervision: (index, class) pairs with k shots per class."""

    items: list[tuple[int, int]]
    k: int

    def __post_init__(self):
        indices = [i for i, _ in self.items]
        if len(set(indices)) != len(indices):
            raise DataError("labeled indices must be unique")

    def indices(self) -> np.ndarray:
        return np.array([i for i, _ in self.items], dtype=np.int64)

    def classes(self) -> np.ndarray:
        return np.array([c for _, c in self.items], dtype=np.int64)

    def require_coverage(self, n_classes: int) -> None:
        present = set(self.classes().tolist())
        missing = sorted(set(range(n_classes)) - present)
        if missing:
            raise DataError(f"classes {missing} have no labeled items")


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
    task: str = "node"
    dropout: float = 0.0
    patience: int = 30

    def __post_init__(self):
        if not _in_grid(self.lr, LR_GRID):
            raise ParameterError(f"lr must come from {LR_GRID}, got {self.lr}")
        if not _in_grid(self.weight_decay, WEIGHT_DECAY_GRID):
            raise ParameterError(f"weight_decay must come from {WEIGHT_DECAY_GRID}, got {self.weight_decay}")
        if not 0.0 <= self.edge_ratio <= 1.0:
            raise ParameterError(f"edge_ratio must lie in [0, 1], got {self.edge_ratio}")
        if self.tau <= 0:
            raise ParameterError(f"tau must be positive, got {self.tau}")
        if not 0.0 <= self.dropout < 1.0:
            raise ParameterError(f"dropout must lie in [0, 1), got {self.dropout}")
        if self.task not in ("node", "graph"):
            raise ParameterError(f"task must be 'node' or 'graph', got {self.task!r}")


def init_prototype_features(x: Tensor, labeled: LabeledSet, n_classes: int) -> Tensor:
    """Prototype attributes: per-class mean of the labeled feature rows."""
    labeled.require_coverage(n_classes)
    return class_mean_rows(x, labeled, n_classes)


def init_edge_weights(z2: Tensor, labeled: LabeledSet, n_classes: int) -> Tensor:
    """Initial weights: dot products between embeddings and labeled-mean prototypes."""
    labeled.require_coverage(n_classes)
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
    mask[labeled.indices()] = True
    pool = np.flatnonzero(~mask)
    take = min(int(np.floor(r * n)), pool.size)
    if take:
        rng = np.random.default_rng([int(seed) & 0xFFFFFFFFFFFFFFFF, 0x51EC])
        mask[rng.choice(pool, size=take, replace=False)] = True
    return mask


def _is_graph_level(g: GraphData, weight_rows: Tensor) -> bool:
    return g.graph_of is not None and weight_rows.rows == g.n_graphs


def prototype_embeddings(g: GraphData, ps: PromptedGraph, params: EncoderParams,
                         mode: str = "eval", seed: int = 0,
                         dropout_rate: float = 0.0) -> Tensor:
    """Prototype rows of the GNN run over the prompted graph.

    The weight block is masked every forward pass, which pins untrainable
    rows to zero and zeroes their gradients. For graph-level prompting the
    per-graph weights are expanded to all member nodes; their gradient
    contributions sum back into the shared entry.
    """
    if not params.frozen:
        raise ContractError("prototype embeddings require frozen encoders")
    mask = Tensor(ps.trainable_row_mask.astype(np.float64).reshape(-1, 1))
    w = mul(ps.weight_rows, mask)
    if _is_graph_level(g, ps.weight_rows):
        w = select_rows(w, g.graph_of)
    operator = NormalizedPromptOperator(g.adjacency, w)
    feats = concat_features(g.features, ps.proto_features)
    out = gnn_forward(feats, operator, params, mode, seed, dropout_rate)
    return select_rows(out, np.arange(g.n_nodes, operator.rows))


def concat_features(x: Tensor, proto_features: Tensor) -> Tensor:
    if x.cols != proto_features.cols:
        raise ContractError(
            f"prototype features have {proto_features.cols} columns, graph has {x.cols}")
    return Tensor(np.vstack([x.data, proto_features.data]))


def prompt_loss(anchors: Tensor, prototypes: Tensor, labels, tau: float) -> Tensor:
    """Contrastive loss pulling each anchor toward its class prototype.

    The denominator runs over the other classes only. Anchors are treated as
    constants: gradients flow solely into the prototype side.
    """
    n_classes = prototypes.rows
    if n_classes < 2:
        raise ContractError("prompt loss needs at least 2 classes")
    if tau <= 0:
        raise ParameterError(f"tau must be positive, got {tau}")
    labels = np.asarray(labels, dtype=np.int64).ravel()
    if labels.size != anchors.rows:
        raise ContractError(f"{anchors.rows} anchors vs {labels.size} labels")
    if anchors.requires_grad:
        anchors = anchors.detach()
    return masked_infonce(anchors, prototypes, labels, tau, exclude_positive=True)


def graph_task_views(g: GraphData, params: EncoderParams) -> tuple[Tensor, Tensor]:
    """Graph-level representations: mean readout of each view's node rows."""
    if g.graph_of is None:
        raise ContractError("graph-level views need graph membership")
    attr_view = mlp_forward(g.features, params, "eval")
    struct_view = gnn_forward(g.features, gcn_normalize(g.adjacency), params, "eval")
    return mean_readout(attr_view, g.graph_of), mean_readout(struct_view, g.graph_of)


def _task_inputs(g: GraphData, params: EncoderParams, task: str):
    """Anchor matrix, structural embeddings, attribute base, and row count."""
    if task == "graph":
        if g.graph_of is None:
            raise ContractError("graph task needs graph membership")
        anchors, struct = graph_task_views(g, params)
        attr_base = mean_readout(g.features, g.graph_of)
        return anchors, struct, attr_base, g.n_graphs
    anchors = mlp_forward(g.features, params, "eval")
    struct = gnn_forward(g.features, gcn_normalize(g.adjacency), params, "eval")
    return anchors, struct, g.features, g.n_nodes


def prompt_tune(g: GraphData, labeled: LabeledSet, params: EncoderParams,
                cfg: PromptConfig, val: LabeledSet | None = None,
                ) -> tuple[PromptedGraph, list[float]]:
    """Optimize the prompt weights alone under the similarity loss.

    Anchors come from the frozen attribute view, computed once in evaluation
    mode. With a validation set, tuning keeps the weights from the best
    validation accuracy and stops early after `cfg.patience` stale epochs.
    """
    if not params.frozen:
        raise ContractError("prompt tuning requires frozen encoders")
    if not labeled.items:
        raise ContractError("prompt tuning needs a non-empty labeled set")
    n_classes = g.n_graph_classes if cfg.task == "graph" else g.n_classes
    labeled.require_coverage(n_classes)

    anchors_all, struct, attr_base, n_rows = _task_inputs(g, params, cfg.task)
    proto_features = init_prototype_features(attr_base, labeled, n_classes)
    w0 = init_edge_weights(struct, labeled, n_classes)
    mask = restrict_edge_ratio(n_rows, labeled, cfg.edge_ratio, cfg.seed)
    weights = Tensor(w0.data * mask[:, None], requires_grad=True, name="prompt_weights")
    prompted = PromptedGraph(proto_features=proto_features, weight_rows=weights,
                             trainable_row_mask=mask)

    train_anchors = Tensor(anchors_all.data[labeled.indices()])
    train_labels = labeled.classes()
    val_anchors = Tensor(anchors_all.data[val.indices()]) if val is not None else None

    opt = AdamState(lr=cfg.lr, weight_decay=cfg.weight_decay)
    losses: list[float] = []
    best_acc, best_w, best_epoch = -1.0, weights.data.copy(), -1
    if val is not None and cfg.epochs > 0:
        # the untouched initialization competes as the first candidate
        proto_init = prototype_embeddings(g, prompted, params, "eval")
        best_acc = evaluate(predict(val_anchors, proto_init, cfg.tau), val.classes())
    for epoch in range(cfg.epochs):
        epoch_seed = derive_seed(cfg.seed, epoch)
        with Tape() as tape:
            proto = prototype_embeddings(g, prompted, params, "train", epoch_seed, cfg.dropout)
            loss = prompt_loss(train_anchors, proto, train_labels, cfg.tau)
        value = loss.item()
        if not np.isfinite(value):
            raise NumericError(f"prompt loss became non-finite at epoch {epoch}")
        backward(tape, loss)
        adam_step([weights], opt)
        losses.append(value)
        if val is not None:
            proto_eval = prototype_embeddings(g, prompted, params, "eval")
            acc = evaluate(predict(val_anchors, proto_eval, cfg.tau), val.classes())
            if acc > best_acc:
                best_acc, best_w, best_epoch = acc, weights.data.copy(), epoch
            elif epoch - best_epoch >= cfg.patience:
                break
    if val is not None:
        weights.data = best_w
    return prompted, losses
