"""The two encoder views: an attribute-only MLP and a structure-aware GNN.

Both are two layers deep, end at the same output dimension, and are frozen
after pre-training. The GNN propagates over a normalized CSR adjacency.
Each view is one recorded op (`_two_layer`) of its four parameters over a
constant feature array, and rebuilds its hidden layer in the backward sweep.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sparse

from .autodiff import Tensor, _emit, derive_seed, dropout_mask, seeded_rng
from .errors import DimensionError, ParameterError


@dataclass
class EncoderParams:
    mlp_layers: list[tuple[Tensor, Tensor]]
    gnn_layers: list[tuple[Tensor, Tensor]]

    @property
    def frozen(self) -> bool:  # set by `freeze`: no parameter requires grad
        return not any(p.requires_grad for p in parameters(self))

    @property
    def hidden_dim(self) -> int:
        return self.mlp_layers[0][0].cols


def _glorot(rng, fan_in: int, fan_out: int) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))


def init_encoder_params(n_features: int, hidden_dim: int, seed: int) -> EncoderParams:
    """Glorot-uniform weights, zero biases, seeded and reproducible."""
    rng = seeded_rng(seed, 0x9E37)
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
    for p in parameters(params):
        p.requires_grad = False
    return params


def _check_mode(mode: str) -> bool:
    if mode not in ("train", "eval"):
        raise ParameterError(f"mode must be 'train' or 'eval', got {mode!r}")
    return mode == "train"


def _two_layer(x: np.ndarray, layers, a_norm: sparse.csr_array | None, training: bool,
               seed: int, stream: int, dropout_rate: float) -> Tensor:
    """prop(dropout(relu(prop(x@W1) + b1)) @ W2) + b2, as one recorded op of W1, b1, W2, b2.

    prop is the product with `a_norm`, or the identity when it is None; x is a
    constant array. The VJP keeps no array of its own: it rebuilds the hidden
    layer h after dropout from x, W1, b1 and the (seed, stream) mask, which
    nothing changes between the forward and the backward sweep, so the rebuilt
    h has the forward's bits. Relu's gate (0 at the kink) and dropout's
    keep-mask are both h > 0, and every kept entry carries the one scale 1/(1-p).
    """
    (w1, b1), (w2, b2) = layers
    if x.shape[1] != w1.rows or (a_norm is not None and a_norm.shape[1] != len(x)):
        raise DimensionError(f"encoder: input {x.shape} does not fit W1 {w1.shape}"
                             + ("" if a_norm is None else f" and adjacency {a_norm.shape}"))
    prop = (lambda m: m) if a_norm is None else (lambda m: a_norm @ m)
    back = (lambda g: g) if a_norm is None else (lambda g: a_norm.T @ g)
    w1_in, b1_in, w2_in = w1.data, b1.data, w2.data

    def hidden():  # h and the scale of its kept entries (None without dropout)
        h = prop(x @ w1_in)
        h += b1_in
        h *= h > 0
        keep = dropout_mask(h.shape, dropout_rate, seed, stream, training)
        if keep is None:
            return h, None
        scale = 1.0 / (1.0 - dropout_rate)
        h *= keep
        h *= scale
        return h, scale

    z = prop(hidden()[0] @ w2_in)
    z += b2.data
    need_w1, need_b1, need_w2, need_b2 = (t.requires_grad for t in (w1, b1, w2, b2))

    def vjp(g):
        gb2 = g.sum(axis=0, keepdims=True) if need_b2 else None
        g = back(g)
        h, scale = hidden()
        gh = g @ w2_in.T
        gw2 = h.T @ g if need_w2 else None
        del g  # neither N-row array outlives its last read
        if scale is not None:
            gh *= scale
        gh *= h > 0
        del h
        gb1 = gh.sum(axis=0, keepdims=True) if need_b1 else None
        return (x.T @ back(gh) if need_w1 else None), gb1, gw2, gb2

    return _emit("two_layer", (w1, b1, w2, b2), z, vjp)


def mlp_forward(x: np.ndarray, params: EncoderParams, mode: str = "eval",
                seed: int = 0, dropout_rate: float = 0.0) -> Tensor:
    """Attribute-only view; never reads any adjacency."""
    return _two_layer(x, params.mlp_layers, None, _check_mode(mode),
                      derive_seed(seed, 1), 0, dropout_rate)


def gnn_forward(x: np.ndarray, a_norm: sparse.csr_array, params: EncoderParams, mode: str = "eval",
                seed: int = 0, dropout_rate: float = 0.0) -> Tensor:
    """Two propagation layers over a normalized CSR adjacency."""
    return _two_layer(x, params.gnn_layers, a_norm, _check_mode(mode),
                      derive_seed(seed, 2), 1, dropout_rate)
