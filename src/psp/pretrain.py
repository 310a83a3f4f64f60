"""Dual-view contrastive pre-training.

The attribute-only MLP view is the anchor side; the structure-aware GNN view
supplies the positive (same node) and the negatives (all other nodes). As
written, the denominator of the per-anchor term excludes the positive pair,
so the loss can go below zero.

The loss is one fused, row-blocked op (`autodiff.masked_infonce`): it never
forms the N x N similarity matrix, so a pre-training epoch holds O(N*B)
floats for a fixed block of B rows instead of O(N^2). It normalizes each
view's rows once, in place, and forms both views' gradients in the same single pass
over the blocks as the loss. Each epoch hands those two gradients to the
encoders' VJPs and the eight it gets back to Adam: there is no tape.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import (
    AdamState,
    FitRecord,
    check_finite,
    check_fraction,
    check_seed,
    check_tau,
    derive_seed,
    masked_infonce,
)
from .data import write_table
from .encoders import EncoderParams, encoder_vjp, gnn_forward, init_encoder_params, mlp_forward
from .errors import ContractError, ParameterError
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
        check_seed(self.seed)
        check_finite("lr", self.lr, positive=True)
        check_finite("weight_decay", self.weight_decay)
        check_fraction("dropout", self.dropout, open_top=True)
        if self.epochs < 0:
            raise ParameterError(f"epochs must be non-negative, got {self.epochs}")
        if self.hidden_dim < 1:
            raise ParameterError(f"hidden_dim must be at least 1, got {self.hidden_dim}")


def ntxent_pretrain_loss(z1: np.ndarray, z2: np.ndarray, tau: float, overwrite_inputs: bool = False
                         ) -> tuple[float, np.ndarray, np.ndarray]:
    """Temperature-scaled contrastive loss anchored on the first view, and its
    gradients into both views.

    For each row i the positive is row i of the second view; negatives are
    the other rows of the second view. The positive is excluded from the
    denominator. `overwrite_inputs` is passed to `masked_infonce`: the loss
    then normalizes the views in place, and neither may be read again.
    """
    if z1.shape != z2.shape:
        raise ContractError(f"views must have equal shape, got {z1.shape} vs {z2.shape}")
    n = len(z1)
    if n < 2:
        raise ContractError("contrastive loss needs at least 2 rows (the denominator is empty otherwise)")
    return masked_infonce(z1, z2, np.arange(n), tau, overwrite_inputs)


def pretrain(g: GraphData, cfg: PretrainConfig) -> tuple[EncoderParams, FitRecord]:
    """Full-batch contrastive training; returns the encoders and the run's record."""
    if g.n_nodes < 2:
        raise ContractError("pre-training needs at least 2 nodes")
    params = init_encoder_params(g.features.shape[1], cfg.hidden_dim, cfg.seed)
    a_norm = gcn_normalize(g.adjacency)
    opt = AdamState(lr=cfg.lr, weight_decay=cfg.weight_decay)
    record = FitRecord("pre-training")
    for epoch in range(cfg.epochs):
        epoch_seed = derive_seed(cfg.seed, epoch)
        z1 = mlp_forward(g.features, params, "train", epoch_seed, cfg.dropout)
        z2 = gnn_forward(g.features, a_norm, params, "train", epoch_seed, cfg.dropout)
        # the encoders' VJPs never read their outputs, so the loss may
        # normalize the views in place; g1 is then z1's own memory
        value, g1, g2 = ntxent_pretrain_loss(z1, z2, cfg.tau, overwrite_inputs=True)
        del z1, z2  # z2 holds its unit rows, which nothing reads again
        with record.step(epoch, value, params, opt) as grads:
            grads |= (encoder_vjp(g2, g.features, params, a_norm, epoch_seed, cfg.dropout)
                      | encoder_vjp(g1, g.features, params, None, epoch_seed, cfg.dropout))
            del g1, g2
        del grads  # no array of this epoch is alive while the next one runs
    return params, record


def write_loss_log(path, losses) -> None:
    """Tab-separated epoch/loss pairs, one line per epoch."""
    write_table(path, list(enumerate(losses)))
