"""Seeded dropout masks, parameter checks, the fused contrastive loss, an
Adam optimizer and the record that both training stages step it through.

All values are float64 arrays; vectors are stored as Nx1 or 1xN. Each fused op
forms its own gradients (`masked_infonce` in its one sweep,
`psp.encoders.encoder_vjp`, the VJP that `psp.prompt.prompted_layer` returns),
and each training step chains them by hand into `FitRecord.step`.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Mapping, Optional

import numpy as np

from .errors import ContractError, DataError, DimensionError, NumericError, ParameterError

def derive_seed(seed: int, salt: int) -> int:
    """Stable per-call seed derivation for seeded randomized ops."""
    return (int(seed) * 1_000_003 + int(salt)) & 0x7FFFFFFFFFFFFFFF


def seeded_rng(seed: int, salt: int) -> np.random.Generator:
    """The generator of one seeded draw site: `salt` names the site, so no two
    sites share a stream for the same seed."""
    return np.random.default_rng([int(seed) & 0xFFFFFFFFFFFFFFFF, salt])


# ---------------------------------------------------------------------------
# operations


# uniform values per buffered draw in dropout_mask (512 KiB of float64)
_DROPOUT_DRAW = 1 << 16


def dropout_mask(shape: tuple[int, int], p: float, seed: int, stream: int) -> Optional[np.ndarray]:
    """The bool keep-mask of inverted dropout for `shape`, or None when `p` is 0.

    Callers multiply by the mask, then scale the kept entries by 1/(1-p).
    The mask depends only on (seed, stream): each call site names its own
    stream, so a mask does not depend on what ran before it: a VJP that draws
    it again gets the forward's mask.
    It is `seeded_rng(seed, stream).random(shape) >= p`, drawn `_DROPOUT_DRAW`
    values at a time, so no float array of `shape` is formed.
    """
    p = check_fraction("dropout", p, open_top=True)
    if p == 0.0:
        return None
    rng = seeded_rng(seed, stream)
    keep = np.empty(shape, dtype=bool)
    flat, buf = keep.reshape(-1), np.empty(min(keep.size, _DROPOUT_DRAW))
    for lo in range(0, flat.size, _DROPOUT_DRAW):  # the stream's values in C order
        draw = buf[:flat.size - lo]
        rng.random(out=draw)
        np.greater_equal(draw, p, out=flat[lo:lo + draw.size])
    return keep


def row_norms(x: np.ndarray) -> np.ndarray:
    """Inverse row norms as a column, with 0 in place of 1/0 (zero rows stay zero)."""
    norm = np.linalg.norm(x, axis=1, keepdims=True)
    return np.where(norm > 0.0, 1.0 / np.maximum(norm, 1e-300), 0.0)


def row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise dot products of two equal-shape arrays, as a column."""
    return np.einsum("ij,ij->i", a, b)[:, None]


def check_finite(name: str, value, positive: bool = False) -> float:
    """`value` as a float; anything but a finite number >= 0 (> 0 when
    `positive`) raises a ParameterError naming `name`."""
    value = float(value)
    if not (np.isfinite(value) and (value > 0 if positive else value >= 0)):
        kind = "positive" if positive else "non-negative"
        raise ParameterError(f"{name} must be a {kind} finite number, got {value}")
    return value


def check_fraction(name: str, value, open_top: bool) -> float:
    """`value` as a float; anything outside [0, 1], or [0, 1) when `open_top`,
    NaN included, raises a ParameterError naming `name`."""
    value = float(value)
    if not (0.0 <= value and (value < 1.0 if open_top else value <= 1.0)):
        raise ParameterError(f"{name} must lie in [0, 1{')' if open_top else ']'}, got {value}")
    return value


def check_tau(tau) -> float:
    """A softmax temperature as a float; anything but a positive finite number
    whose reciprocal is finite raises."""
    tau = check_finite("tau", tau, positive=True)
    if not np.isfinite(1.0 / tau):
        raise ParameterError(f"tau must be a positive finite number with a finite "
                             f"reciprocal, got {tau}")
    return tau


def check_seed(seed) -> None:
    """Refuse a seed that a checkpoint's signed 64-bit field cannot store, and
    that `seeded_rng` would read as another seed."""
    if not -(1 << 63) <= seed < 1 << 63:
        raise ParameterError(f"seed must lie in [-2^63, 2^63), got {seed}")


def _through_row_norms(g: np.ndarray, unit: np.ndarray, inv: np.ndarray, c: float) -> None:
    """g := c * d(x/|x|)^T g in place: inv|x| * (g - (g.x^) x^) * c, row by row."""
    g -= row_dots(g, unit) * unit
    g *= inv * c


# rows of z1 per block in masked_infonce; its loss holds O(block * len(z2)) floats
_INFONCE_BLOCK_ROWS = 256
# rows of z2 per product that masked_infonce adds into z2's gradient
_INFONCE_GB_ROWS = 1024


def masked_infonce(z1: np.ndarray, z2: np.ndarray, positives, tau: float,
                   overwrite_inputs: bool = False) -> tuple[float, np.ndarray, np.ndarray]:
    """Mean InfoNCE of the rows of z1 against the rows of z2, as one fused op:
    the loss, and its gradients into z1 and z2.

    Logits are cosine similarities over tau. Row i scores
    logsumexp_{j != positives[i]}(logit_ij) - logit_{i,positives[i]}: the
    positive is left out of the log-sum-exp. Both sides' rows are scaled
    to unit norm once, so cosines are exact for any nonzero row, and a zero
    row gives logit 0 and gradient 0. The op walks z1 in blocks of
    `_INFONCE_BLOCK_ROWS` rows: each block of logits is one GEMM, and only
    each row's max-shift and sum of exponentials are kept, so no
    len(z1) x len(z2) array ever exists. The same sweep turns each exp block
    into softmax - one-hot and accumulates it. Each block finishes its anchor
    rows' gradient and stores it over those rows of z1's unit array, which no
    later block reads, so the z1 side needs no array of its own; the z2 side
    is added up through one buffer of about `_INFONCE_GB_ROWS` rows and
    finished once the sweep is done.

    With `overwrite_inputs`, the unit arrays are z1 and z2 themselves, scaled
    in place: afterwards z2 holds its unit rows, and z1 its gradient. It saves
    two N x h arrays. Only a caller that never reads either input again may
    set it, and the inputs must share no memory.
    """
    if z1.shape[1] != z2.shape[1]:
        raise DimensionError(f"masked_infonce: feature dims differ, {z1.shape} vs {z2.shape}")
    m, n = len(z1), len(z2)
    pos = np.asarray(positives, dtype=np.int64).ravel()
    if pos.size != m:
        raise ContractError(f"masked_infonce: {m} anchor rows vs {pos.size} positives")
    if m == 0 or n < 2:
        raise ContractError(f"masked_infonce: empty denominator for {m}x{n} logits")
    if pos.min() < 0 or pos.max() >= n:
        raise DataError(f"masked_infonce: positive index out of range for {n} rows")
    inv_tau = 1.0 / check_tau(tau)
    if overwrite_inputs and np.may_share_memory(z1, z2):
        raise ContractError("masked_infonce: overwrite_inputs needs inputs that share no memory")
    inv_u, inv_v = row_norms(z1), row_norms(z2)
    a_unit = np.multiply(z1, inv_u, out=z1 if overwrite_inputs else None)
    b_unit = np.multiply(z2, inv_v, out=z2 if overwrite_inputs else None)
    # each block overwrites its own anchor rows with their gradient, once it has read them
    ga, gb = a_unit, np.zeros_like(b_unit)
    # gb grows chunk by chunk through one buffer. numpy forms a product with
    # one row or one column as a gemv, whose last bits differ from the whole
    # product's: so no chunk has one row, and a one-column gb is one chunk.
    starts = list(range(0, n, _INFONCE_GB_ROWS if z2.shape[1] > 1 else n))
    if n - starts[-1] == 1:
        starts.pop()
    gb_chunks = [slice(lo, hi) for lo, hi in zip(starts, starts[1:] + [n])]
    gb_part = np.empty((max(c.stop - c.start for c in gb_chunks), z2.shape[1]))
    shift = np.empty((m, 1))
    sum_exp = np.empty((m, 1))
    positive = np.empty((m, 1))
    for lo in range(0, m, _INFONCE_BLOCK_ROWS):
        hi = min(lo + _INFONCE_BLOCK_ROWS, m)
        logits = (a_unit[lo:hi] * inv_tau) @ b_unit.T
        at_pos = (np.arange(hi - lo), pos[lo:hi])
        positive[lo:hi, 0] = logits[at_pos]
        logits[at_pos] = -np.inf
        shift[lo:hi] = logits.max(axis=1, keepdims=True)
        logits -= shift[lo:hi]
        sum_exp[lo:hi] = np.exp(logits, out=logits).sum(axis=1, keepdims=True)
        logits /= sum_exp[lo:hi]  # the exp block becomes softmax - one-hot in place
        logits[at_pos] -= 1.0
        for c in gb_chunks:  # gb += logits.T @ a_unit[lo:hi]
            part = gb_part[:c.stop - c.start]
            np.matmul(logits[:, c].T, a_unit[lo:hi], out=part)
            gb[c] += part
        g_rows = logits @ b_unit
        _through_row_norms(g_rows, a_unit[lo:hi], inv_u[lo:hi], inv_tau / m)
        ga[lo:hi] = g_rows
        del logits  # free the block before the next one is built
    loss = (np.log(sum_exp) + shift - positive).sum() * (1.0 / m)
    _through_row_norms(gb, b_unit, inv_v, inv_tau / m)
    return float(loss), ga, gb


# ---------------------------------------------------------------------------
# optimizer

ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


@dataclass
class AdamState:
    """Adam with decoupled weight decay; moments are keyed by parameter name and allocated lazily."""

    lr: float = 1e-4
    weight_decay: float = 0.0
    t: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)


def adam_step(params: Mapping[str, np.ndarray], grads: Mapping[str, np.ndarray],
              state: AdamState) -> None:
    """One bias-corrected update of the named arrays in place, each moved by
    its entry of `grads`.

    Moments are found by name; a step naming other parameters than the state
    tracks is refused. All or nothing: every new moment is formed aside and
    checked before any is stored, so a refusal leaves the parameters, the
    moments and `state.t` as they were.
    """
    old_m = state.m or {name: np.zeros_like(p) for name, p in params.items()}
    old_v = state.v or {name: np.zeros_like(p) for name, p in params.items()}
    if old_m.keys() != params.keys():
        raise ContractError(f"optimizer state tracks parameters {sorted(old_m)}, got {sorted(params)}")
    new_m, new_v = {}, {}
    for name, p in params.items():
        if name not in grads:
            raise ContractError(f"adam_step: parameter {name} has no gradient")
        g, m, v = grads[name], old_m[name], old_v[name]
        if g.shape != p.shape:
            raise ContractError(f"adam_step: gradient shape mismatch on parameter {name}")
        with np.errstate(over="ignore", invalid="ignore"):
            m = m * ADAM_BETA1
            m += (1.0 - ADAM_BETA1) * g
            v = v * ADAM_BETA2
            v += (1.0 - ADAM_BETA2) * g * g
        if not (np.isfinite(m).all() and np.isfinite(v).all()):  # m / sqrt(inf) is a finite 0
            raise NumericError(f"adam_step: a moment of parameter {name} is non-finite, "
                               f"gradient max-abs {float(np.abs(g).max())}")
        new_m[name], new_v[name] = m, v
    state.m, state.v = new_m, new_v
    state.t += 1
    bc1 = 1.0 - ADAM_BETA1 ** state.t
    bc2 = 1.0 - ADAM_BETA2 ** state.t
    for name, p in params.items():
        update = state.lr * (new_m[name] / bc1) / (np.sqrt(new_v[name] / bc2) + ADAM_EPS)
        if state.weight_decay:
            update = update + state.lr * state.weight_decay * p
        p -= update


@dataclass
class FitRecord:
    """A training run's loss per stepped epoch and why it stopped: `epochs`, or
    `patience` when it skipped a training epoch. With validation, also the kept
    epoch (-1: the initialization), its accuracy, weights and dropout-free prototypes."""

    stage: str  # names the loss in the non-finite-loss refusal
    losses: list = field(default_factory=list)
    stop: str = "epochs"
    best_epoch: int = -1
    best_acc: float = -1.0
    best_weights: Optional[np.ndarray] = None
    best_proto: Optional[np.ndarray] = None

    @contextmanager
    def step(self, epoch: int, loss: float, params: Mapping[str, np.ndarray], opt: AdamState):
        """Adam's step at `epoch` with the gradients that the block puts in the dict
        it is given. A non-finite `loss` is refused before the block runs."""
        if not np.isfinite(loss):
            raise NumericError(f"{self.stage} loss became non-finite at epoch {epoch}, last finite loss "
                               f"{self.losses[-1] if self.losses else 'none'}")
        grads = {}
        yield grads
        try:
            adam_step(params, grads, opt)
        except NumericError as err:  # the same refusal, with the epoch and the loss
            raise NumericError(f"{err} at epoch {epoch}, loss {loss}") from err
        self.losses.append(loss)
