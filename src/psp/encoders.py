"""The two encoder views: an attribute-only MLP and a structure-aware GNN.

Both are two layers deep, end at the same output dimension, and are frozen
after pre-training. The GNN propagates over a normalized CSR adjacency.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import (
    CsrMatrix,
    Tensor,
    add,
    derive_seed,
    dropout,
    matmul,
    relu,
    spmm,
)
from .errors import ParameterError


@dataclass
class EncoderParams:
    mlp_layers: list[tuple[Tensor, Tensor]]
    gnn_layers: list[tuple[Tensor, Tensor]]
    frozen: bool = False

    @property
    def hidden_dim(self) -> int:
        return self.mlp_layers[0][0].cols


def _glorot(rng, fan_in: int, fan_out: int) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))


def init_encoder_params(n_features: int, hidden_dim: int, seed: int) -> EncoderParams:
    """Glorot-uniform weights, zero biases, seeded and reproducible."""
    rng = np.random.default_rng([int(seed) & 0xFFFFFFFFFFFFFFFF, 0x9E37])
    layers = []
    for tag in ("mlp", "gnn"):
        w1 = Tensor(_glorot(rng, n_features, hidden_dim), requires_grad=True, name=f"{tag}_w1")
        b1 = Tensor(np.zeros((1, hidden_dim)), requires_grad=True, name=f"{tag}_b1")
        w2 = Tensor(_glorot(rng, hidden_dim, hidden_dim), requires_grad=True, name=f"{tag}_w2")
        b2 = Tensor(np.zeros((1, hidden_dim)), requires_grad=True, name=f"{tag}_b2")
        layers.append([(w1, b1), (w2, b2)])
    return EncoderParams(mlp_layers=layers[0], gnn_layers=layers[1])


def parameters(params: EncoderParams) -> list[Tensor]:
    out = []
    for w, b in params.mlp_layers + params.gnn_layers:
        out.extend([w, b])
    return out


def freeze(params: EncoderParams) -> EncoderParams:
    params.frozen = True
    for p in parameters(params):
        p.requires_grad = False
        p.grad = None
    return params


def _check_mode(mode: str) -> bool:
    if mode not in ("train", "eval"):
        raise ParameterError(f"mode must be 'train' or 'eval', got {mode!r}")
    return mode == "train"


def mlp_forward(x: Tensor, params: EncoderParams, mode: str = "eval",
                seed: int = 0, dropout_rate: float = 0.0) -> Tensor:
    """Attribute-only view; never reads any adjacency."""
    training = _check_mode(mode)
    (w1, b1), (w2, b2) = params.mlp_layers
    h = relu(add(matmul(x, w1), b1))
    h = dropout(h, dropout_rate, derive_seed(seed, 1), training)
    return add(matmul(h, w2), b2)


def gnn_forward(x: Tensor, a_norm: CsrMatrix, params: EncoderParams, mode: str = "eval",
                seed: int = 0, dropout_rate: float = 0.0) -> Tensor:
    """Two propagation layers over a normalized CSR adjacency."""
    training = _check_mode(mode)
    (w1, b1), (w2, b2) = params.gnn_layers
    h = relu(add(spmm(a_norm, matmul(x, w1)), b1))
    h = dropout(h, dropout_rate, derive_seed(seed, 2), training)
    return add(spmm(a_norm, matmul(h, w2)), b2)
