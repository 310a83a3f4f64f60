"""The two encoder views: an attribute-only MLP and a structure-aware GNN.

Both are two layers deep, end at the same output dimension, and are frozen
after pre-training. The GNN propagates over a normalized CSR adjacency.
Each view's training gradient is one VJP (`encoder_vjp`) into its four
parameters, over a constant feature array; it rebuilds the hidden layer
instead of keeping it from the forward.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sparse

from .autodiff import check_fraction, derive_seed, dropout_mask, seeded_rng
from .errors import DimensionError, ParameterError

# the eight encoder parameters, in checkpoint order: each view's W1, b1, W2, b2
PARAM_NAMES = tuple(f"{view}_{p}" for view in ("mlp", "gnn") for p in ("w1", "b1", "w2", "b2"))
# each view's dropout: the salt of its seed and its stream
_DROPOUT = {"mlp": (1, 0), "gnn": (2, 1)}


class EncoderParams(dict):
    """Both views' parameters: float64 arrays keyed by `PARAM_NAMES`."""

    @property
    def hidden_dim(self) -> int:
        return self["mlp_w1"].shape[1]

    def view(self, tag: str) -> tuple[np.ndarray, ...]:
        """The view's W1, b1, W2 and b2."""
        return tuple(self[f"{tag}_{p}"] for p in ("w1", "b1", "w2", "b2"))


def _glorot(rng, fan_in: int, fan_out: int) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))


def init_encoder_params(n_features: int, hidden_dim: int, seed: int) -> EncoderParams:
    """Glorot-uniform weights, zero biases, seeded and reproducible."""
    rng = seeded_rng(seed, 0x9E37)
    fan_in = {"w1": n_features, "w2": hidden_dim}
    return EncoderParams({name: _glorot(rng, fan_in[name[-2:]], hidden_dim) if name[-2] == "w"
                          else np.zeros((1, hidden_dim)) for name in PARAM_NAMES})


def check_mode(mode: str, dropout_rate: float) -> float:
    """The dropout rate `mode` applies: `dropout_rate` in train, 0 in eval; a bad rate is refused."""
    if mode not in ("train", "eval"):
        raise ParameterError(f"mode must be 'train' or 'eval', got {mode!r}")
    rate = check_fraction("dropout", dropout_rate, open_top=True)
    return rate if mode == "train" else 0.0


def _hidden(x: np.ndarray, params: EncoderParams, a_norm: sparse.csr_array | None, seed: int,
            dropout_rate: float):
    """The hidden layer h = dropout(relu(prop(x@W1) + b1)), the scale of its
    kept entries (None without dropout), prop and the view's name, for the view
    that `a_norm` selects: the GNN, whose prop is the product with `a_norm`, or
    the MLP, whose prop is the identity, when it is None. The mask depends
    only on (seed, stream), so a second call gives h's bits again.
    """
    view = "mlp" if a_norm is None else "gnn"
    w1, b1, _, _ = params.view(view)
    if x.shape[1] != len(w1) or (a_norm is not None and a_norm.shape[1] != len(x)):
        raise DimensionError(f"encoder: input {x.shape} does not fit W1 {w1.shape}"
                             + ("" if a_norm is None else f" and adjacency {a_norm.shape}"))
    prop = (lambda m: m) if a_norm is None else (lambda m: a_norm @ m)
    h = prop(x @ w1)
    h += b1
    h *= h > 0
    salt, stream = _DROPOUT[view]
    keep = dropout_mask(h.shape, dropout_rate, derive_seed(seed, salt), stream)
    if keep is None:
        return h, None, prop, view
    scale = 1.0 / (1.0 - dropout_rate)
    h *= keep
    h *= scale
    return h, scale, prop, view


def _two_layer(x: np.ndarray, params: EncoderParams, a_norm: sparse.csr_array | None,
               seed: int, dropout_rate: float) -> np.ndarray:
    """prop(h @ W2) + b2 for the hidden layer h of the view `a_norm` selects (`_hidden`)."""
    h, _, prop, view = _hidden(x, params, a_norm, seed, dropout_rate)
    z = prop(h @ params[f"{view}_w2"])
    z += params[f"{view}_b2"]
    return z


def mlp_forward(x: np.ndarray, params: EncoderParams, mode: str = "eval",
                seed: int = 0, dropout_rate: float = 0.0) -> np.ndarray:
    """Attribute-only view; never reads any adjacency."""
    return _two_layer(x, params, None, seed, check_mode(mode, dropout_rate))


def gnn_forward(x: np.ndarray, a_norm: sparse.csr_array, params: EncoderParams, mode: str = "eval",
                seed: int = 0, dropout_rate: float = 0.0) -> np.ndarray:
    """Two propagation layers over a normalized CSR adjacency."""
    return _two_layer(x, params, a_norm, seed, check_mode(mode, dropout_rate))


def encoder_vjp(g: np.ndarray, x: np.ndarray, params: EncoderParams,
                a_norm: sparse.csr_array | None = None, seed: int = 0,
                dropout_rate: float = 0.0) -> dict[str, np.ndarray]:
    """The gradients of sum(g * z) into W1, b1, W2 and b2 of the view that
    `a_norm` selects (None: the MLP, an adjacency: the GNN), by name, for z
    that view's training forward with the same seed and rate.

    Keeps no array of its own: it rebuilds h from x, W1, b1 and the
    (seed, stream) mask, which nothing changes between the forward and the
    step, so the rebuilt h has the forward's bits. Relu's gate (0 at the kink)
    and dropout's keep-mask are both h > 0, and every kept entry carries the
    one scale 1/(1-p).
    """
    gb2 = g.sum(axis=0, keepdims=True)
    back = (lambda m: m) if a_norm is None else (lambda m: a_norm.T @ m)
    g = back(g)
    h, scale, _, view = _hidden(x, params, a_norm, seed, dropout_rate)
    gh = g @ params[f"{view}_w2"].T
    gw2 = h.T @ g
    del g  # neither N-row array outlives its last read
    if scale is not None:
        gh *= scale
    gh *= h > 0
    del h
    gb1 = gh.sum(axis=0, keepdims=True)
    grads = (x.T @ back(gh), gb1, gw2, gb2)
    return {f"{view}_{p}": grad for p, grad in zip(("w1", "b1", "w2", "b2"), grads)}
