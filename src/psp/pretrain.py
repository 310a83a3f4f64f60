"""Dual-view contrastive pre-training.

The attribute-only MLP view is the anchor side; the structure-aware GNN view
supplies the positive (same node) and the negatives (all other nodes). As
written, the denominator of the per-anchor term excludes the positive pair,
so the loss can go below zero.

The loss is one fused, row-blocked op (`autodiff.masked_infonce`): it never
forms the N x N similarity matrix, so a pre-training epoch holds O(N*B)
floats for a fixed block of B rows instead of O(N^2). It normalizes each
view's rows once and forms both views' gradients in the same single pass
over the blocks as the loss, so the backward sweep only hands them over.
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
    check_finite,
    check_tau,
    derive_seed,
    masked_infonce,
)
from .encoders import EncoderParams, freeze, gnn_forward, init_encoder_params, mlp_forward, parameters
from .errors import ContractError, NumericError, ParameterError
from .graph import GraphData, gcn_normalize


@dataclass
class PretrainConfig:
    epochs: int = 200
    lr: float = 1e-4
    weight_decay: float = 1e-4
    tau: float = 0.5
    dropout: float = 0.2
    hidden_dim: int = 128
    seed: int = 0

    def __post_init__(self):
        check_tau(self.tau)
        check_finite("lr", self.lr, positive=True)
        check_finite("weight_decay", self.weight_decay)
        if not 0.0 <= self.dropout < 1.0:
            raise ParameterError(f"dropout must lie in [0, 1), got {self.dropout}")
        if self.epochs < 0:
            raise ParameterError("epochs must be non-negative")
        if self.hidden_dim < 1:
            raise ParameterError(f"hidden_dim must be at least 1, got {self.hidden_dim}")


def ntxent_pretrain_loss(z1: Tensor, z2: Tensor, tau: float) -> Tensor:
    """Temperature-scaled contrastive loss anchored on the first view.

    For each row i the positive is row i of the second view; negatives are
    the other rows of the second view. The positive is excluded from the
    denominator.
    """
    if z1.shape != z2.shape:
        raise ContractError(f"views must have equal shape, got {z1.shape} vs {z2.shape}")
    n = z1.rows
    if n < 2:
        raise ContractError("contrastive loss needs at least 2 rows (the denominator is empty otherwise)")
    return masked_infonce(z1, z2, np.arange(n), tau, exclude_positive=True)


def pretrain(g: GraphData, cfg: PretrainConfig) -> tuple[EncoderParams, list[float]]:
    """Full-batch contrastive training; returns frozen encoders + loss history."""
    if g.n_nodes < 2:
        raise ContractError("pre-training needs at least 2 nodes")
    params = init_encoder_params(g.features.cols, cfg.hidden_dim, cfg.seed)
    a_norm = gcn_normalize(g.adjacency)
    opt = AdamState(lr=cfg.lr, weight_decay=cfg.weight_decay)
    losses: list[float] = []
    for epoch in range(cfg.epochs):
        epoch_seed = derive_seed(cfg.seed, epoch)
        with Tape() as tape:
            z1 = mlp_forward(g.features, params, "train", epoch_seed, cfg.dropout)
            z2 = gnn_forward(g.features, a_norm, params, "train", epoch_seed, cfg.dropout)
            loss = ntxent_pretrain_loss(z1, z2, cfg.tau)
        value = loss.item()
        if not np.isfinite(value):
            raise NumericError(f"pre-training loss became non-finite at epoch {epoch}")
        backward(tape, loss)
        adam_step(parameters(params), opt)
        losses.append(value)
    return freeze(params), losses


def write_loss_log(path, losses) -> None:
    """Tab-separated epoch/loss pairs, one line per epoch."""
    with open(path, "w", encoding="utf-8") as fh:
        for epoch, value in enumerate(losses):
            fh.write(f"{epoch}\t{value!r}\n")
