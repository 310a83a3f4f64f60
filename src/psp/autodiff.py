"""Dense/sparse linear algebra with a reverse-mode tape and an Adam optimizer.

All values are float64 matrices; vectors are stored as Nx1 or 1xN. Operations
record onto the innermost active ``Tape`` only while at least one input
requires gradients, so forward passes through frozen models run tape-free.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np
import scipy.sparse as sparse

from .errors import ContractError, DataError, DimensionError, NumericError, ParameterError

DEGREE_FLOOR = 1e-12

_node_ids = itertools.count()
_TAPE_STACK: list["Tape"] = []


class Tensor:
    """Dense float64 matrix participating in reverse-mode differentiation."""

    __slots__ = ("data", "grad", "requires_grad", "name", "node_id")

    def __init__(self, data, requires_grad: bool = False, name: Optional[str] = None):
        arr = np.array(data, dtype=np.float64)
        if arr.ndim == 0:
            arr = arr.reshape(1, 1)
        elif arr.ndim == 1:
            arr = arr.reshape(1, -1)
        if arr.ndim != 2:
            raise DimensionError(f"tensors are 2-D, got array of shape {arr.shape}")
        self.data = arr
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = bool(requires_grad)
        self.name = name
        self.node_id = next(_node_ids)

    @classmethod
    def _adopt(cls, arr: np.ndarray, requires_grad: bool) -> "Tensor":
        """Wrap a fresh 2-D float64 array that nothing else holds, without a copy."""
        out = cls.__new__(cls)
        out.data = arr
        out.grad = None
        out.requires_grad = requires_grad
        out.name = None
        out.node_id = next(_node_ids)
        return out

    @property
    def rows(self) -> int:
        return self.data.shape[0]

    @property
    def cols(self) -> int:
        return self.data.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self.data.shape

    def detach(self) -> "Tensor":
        """Copy of the value, cut off from any tape."""
        return Tensor(self.data.copy(), requires_grad=False, name=self.name)

    def item(self) -> float:
        if self.shape != (1, 1):
            raise ContractError(f"item() needs a 1x1 tensor, got {self.shape}")
        return float(self.data[0, 0])

    def __repr__(self) -> str:
        tag = f", name={self.name!r}" if self.name else ""
        return f"Tensor({self.rows}x{self.cols}, requires_grad={self.requires_grad}{tag})"


class CsrMatrix:
    """A float64 `scipy.sparse.csr_array` (`.csr`) checked at construction.

    Takes what `csr_array` takes, e.g. `CsrMatrix((values, indices, offsets),
    shape=(r, c))`. scipy's full format check applies, and the column indices
    must be canonical: strictly increasing within each row. Malformed input
    raises a DataError.
    """

    __slots__ = ("csr",)

    def __init__(self, arg, shape=None):
        try:
            # scipy silently drops entries past the last offset, so check the raw arrays first
            if isinstance(arg, tuple) and len(arg) == 3:
                offsets = np.ravel(arg[2])
                if offsets.size and offsets[-1] != np.size(arg[1]):
                    raise ValueError("row offsets must end at the entry count")
            self.csr = sparse.csr_array(arg, shape=shape, dtype=np.float64)
            self.csr.check_format(full_check=True)
        except (TypeError, ValueError) as err:
            raise DataError(f"malformed CSR matrix: {err}") from None
        if not self.csr.has_canonical_format:
            raise DataError("column indices must be strictly increasing within a row")

    rows = property(lambda self: self.csr.shape[0])
    cols = property(lambda self: self.csr.shape[1])
    nnz = property(lambda self: self.csr.nnz)

    def to_dense(self) -> np.ndarray:
        return self.csr.toarray()

    def __repr__(self) -> str:
        return f"CsrMatrix({self.rows}x{self.cols}, nnz={self.nnz})"


@dataclass
class TapeRecord:
    op: str
    inputs: tuple
    out: Tensor
    vjp: Callable[[np.ndarray], tuple]


class Tape:
    """Ordered log of differentiable operations; append order is topological."""

    def __init__(self):
        self.records: list[TapeRecord] = []
        self.dropout_calls = 0

    def __enter__(self) -> "Tape":
        _TAPE_STACK.append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        popped = _TAPE_STACK.pop()
        if popped is not self:
            raise ContractError("tape stack corrupted: exited a tape that was not innermost")


def active_tape() -> Optional[Tape]:
    return _TAPE_STACK[-1] if _TAPE_STACK else None


def _recording_tape(inputs: Sequence[Tensor]) -> Optional[Tape]:
    """The innermost active tape while any of `inputs` requires grad, else None."""
    tape = active_tape()
    return tape if tape is not None and any(t.requires_grad for t in inputs) else None


def _emit(op: str, inputs: Sequence[Tensor], out_data: np.ndarray, vjp) -> Tensor:
    """Wrap an op's output and record it on `_recording_tape(inputs)`, if any.

    `out_data` must be a freshly computed 2-D float64 array: the output
    tensor adopts it without a copy. A VJP returns None for every input that
    did not require grad when the op ran.
    """
    tape = _recording_tape(inputs)
    out = Tensor._adopt(out_data, tape is not None)
    if tape is not None:
        tape.records.append(TapeRecord(op, tuple(inputs), out, vjp))
    return out


def derive_seed(seed: int, salt: int) -> int:
    """Stable per-call seed derivation for seeded randomized ops."""
    return (int(seed) * 1_000_003 + int(salt)) & 0x7FFFFFFFFFFFFFFF


# ---------------------------------------------------------------------------
# operations


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.cols != b.rows:
        raise DimensionError(f"matmul: inner dimensions differ, {a.shape} x {b.shape}")
    a_in, b_in = a.data, b.data
    need_a, need_b = a.requires_grad, b.requires_grad

    def vjp(g):
        return (g @ b_in.T if need_a else None), (a_in.T @ g if need_b else None)

    return _emit("matmul", (a, b), a_in @ b_in, vjp)


def transpose(a: Tensor) -> Tensor:
    return _emit("transpose", (a,), a.data.T.copy(), lambda g: (g.T.copy(),))


def spmm(s: CsrMatrix, d: Tensor) -> Tensor:
    """Sparse-dense product s @ d."""
    if s.cols != d.rows:
        raise DimensionError(f"spmm: inner dimensions differ, {s.rows}x{s.cols} x {d.shape}")
    return _emit("spmm", (d,), s.csr @ d.data, lambda g: (s.csr.T @ g,))


def select_rows(x: Tensor, indices) -> Tensor:
    idx = np.asarray(indices, dtype=np.int64).ravel()
    if idx.size and (idx.min() < 0 or idx.max() >= x.rows):
        raise DataError(f"select_rows: index out of range for {x.rows} rows")
    x_shape = x.shape

    def vjp(g):
        gx = np.zeros(x_shape)
        np.add.at(gx, idx, g)
        return (gx,)

    return _emit("select_rows", (x,), x.data[idx], vjp)


def _reduce(g: np.ndarray, axis: Optional[int]) -> np.ndarray:
    return g if axis is None else g.sum(axis=axis, keepdims=True)


def _reducers(a: Tensor, b: Tensor, op: str) -> tuple[Optional[int], Optional[int]]:
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


def relu(a: Tensor) -> Tensor:
    gate = a.data > 0  # subgradient 0 at the kink
    return _emit("relu", (a,), a.data * gate, lambda g: (g * gate,))


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


def dropout_mask(shape: tuple[int, int], p: float, seed: int,
                 training: bool) -> Optional[np.ndarray]:
    """The inverted-dropout factor array for `shape`, or None when dropout is off.

    The mask depends only on (seed, call ordinal), where the ordinal counts
    masks drawn under the innermost active tape. Fresh tapes therefore
    replay identical masks for identical seeds.
    """
    p = float(p)
    if not 0.0 <= p < 1.0:
        raise ParameterError(f"dropout probability must lie in [0, 1), got {p}")
    if not training or p == 0.0:
        return None
    tape = active_tape()
    ordinal = 0
    if tape is not None:
        ordinal = tape.dropout_calls
        tape.dropout_calls += 1
    rng = np.random.default_rng([int(seed) & 0xFFFFFFFFFFFFFFFF, ordinal])
    return (rng.random(shape) >= p) / (1.0 - p)


def apply_mask(x: Tensor, factor: np.ndarray) -> Tensor:
    """x times a constant factor array of its shape, recorded as a dropout op."""
    return _emit("dropout", (x,), x.data * factor, lambda g: (g * factor,))


def dropout(x: Tensor, p: float, seed: int, training: bool) -> Tensor:
    """Inverted dropout with a `dropout_mask`; identity in evaluation mode."""
    factor = dropout_mask(x.shape, p, seed, training)
    return x if factor is None else apply_mask(x, factor)


def _row_norms(x: np.ndarray) -> np.ndarray:
    """Inverse row norms as a column, with 0 in place of 1/0 (zero rows stay zero)."""
    norm = np.linalg.norm(x, axis=1, keepdims=True)
    return np.where(norm > 0.0, 1.0 / np.maximum(norm, 1e-300), 0.0)


def check_finite(name: str, value, positive: bool = False) -> float:
    """`value` as a float; anything but a finite number >= 0 (> 0 when
    `positive`) raises a ParameterError naming `name`."""
    value = float(value)
    if not (np.isfinite(value) and (value > 0 if positive else value >= 0)):
        kind = "positive" if positive else "non-negative"
        raise ParameterError(f"{name} must be a {kind} finite number, got {value}")
    return value


def check_tau(tau) -> float:
    """A softmax temperature as a float; anything but a positive finite number
    whose reciprocal is finite raises."""
    tau = check_finite("tau", tau, positive=True)
    if not np.isfinite(1.0 / tau):
        raise ParameterError(f"tau must be a positive finite number with a finite "
                             f"reciprocal, got {tau}")
    return tau


# rows of z1 per block in masked_infonce; its loss holds O(block * z2.rows) floats
_INFONCE_BLOCK_ROWS = 256


def masked_infonce(z1: Tensor, z2: Tensor, positives, tau: float,
                   exclude_positive: bool) -> Tensor:
    """Mean InfoNCE of the rows of z1 against all rows of z2, as one fused op.

    Logits are cosine similarities over tau. Row i scores
    logsumexp_j(logit_ij) - logit_{i,positives[i]}; with `exclude_positive`
    the positive is left out of the log-sum-exp. Both sides' rows are scaled
    to unit norm once, so cosines are exact for any nonzero row, and a zero
    row gives logit 0 and gradient 0. The op walks z1 in blocks of
    `_INFONCE_BLOCK_ROWS` rows: each block of logits is one GEMM, and only
    each row's max-shift and sum of exponentials are kept, so no
    z1.rows x z2.rows array ever exists. When the op is recorded, the same
    sweep turns each exp block into softmax - one-hot and accumulates both
    inputs' gradients for a unit seed; the VJP only scales them.
    """
    if z1.cols != z2.cols:
        raise DimensionError(f"masked_infonce: feature dims differ, {z1.shape} vs {z2.shape}")
    m, n = z1.rows, z2.rows
    pos = np.asarray(positives, dtype=np.int64).ravel()
    if pos.size != m:
        raise ContractError(f"masked_infonce: {m} anchor rows vs {pos.size} positives")
    if m == 0 or n < (2 if exclude_positive else 1):
        raise ContractError(f"masked_infonce: empty denominator for {m}x{n} logits")
    if pos.min() < 0 or pos.max() >= n:
        raise DataError(f"masked_infonce: positive index out of range for {n} rows")
    inv_tau = 1.0 / check_tau(tau)
    inv_u, inv_v = _row_norms(z1.data), _row_norms(z2.data)
    a_unit, b_unit = z1.data * inv_u, z2.data * inv_v
    recorded = _recording_tape((z1, z2)) is not None
    ga = np.empty_like(a_unit) if recorded and z1.requires_grad else None
    gb = np.zeros_like(b_unit) if recorded and z2.requires_grad else None
    shift = np.empty((m, 1))
    sum_exp = np.empty((m, 1))
    positive = np.empty((m, 1))
    for lo in range(0, m, _INFONCE_BLOCK_ROWS):
        hi = min(lo + _INFONCE_BLOCK_ROWS, m)
        logits = (a_unit[lo:hi] * inv_tau) @ b_unit.T
        at_pos = (np.arange(hi - lo), pos[lo:hi])
        positive[lo:hi, 0] = logits[at_pos]
        if exclude_positive:
            logits[at_pos] = -np.inf
        shift[lo:hi] = logits.max(axis=1, keepdims=True)
        logits -= shift[lo:hi]
        sum_exp[lo:hi] = np.exp(logits, out=logits).sum(axis=1, keepdims=True)
        if recorded:
            probs = logits  # the exp block becomes softmax - one-hot in place
            probs /= sum_exp[lo:hi]
            probs[at_pos] -= 1.0
            if ga is not None:
                ga[lo:hi] = probs @ b_unit
            if gb is not None:
                gb += probs.T @ a_unit[lo:hi]
        del logits  # free the block before the next one is built
    loss = (np.log(sum_exp) + shift - positive).sum() * (1.0 / m)
    # through the row normalization: d(x/|x|) maps g to inv|x| * (g - (g.x^) x^)
    for g, unit, inv in ((ga, a_unit, inv_u), (gb, b_unit, inv_v)):
        if g is not None:
            g -= np.einsum("ij,ij->i", g, unit)[:, None] * unit
            g *= inv * (inv_tau / m)
            g.flags.writeable = False  # handed over as is for a unit seed

    def vjp(g):
        s = g[0, 0]
        if s == 1.0:
            return ga, gb
        return (None if ga is None else ga * s), (None if gb is None else gb * s)

    return _emit("masked_infonce", (z1, z2), np.array([[loss]]), vjp)


# ---------------------------------------------------------------------------
# backward sweep


def backward(tape: Tape, loss: Tensor) -> None:
    """Reverse sweep adding d(loss)/d(leaf) to .grad of every leaf on the tape.

    Leaves are the requires_grad tensors no record produced (the loss too, if
    none did). A produced tensor's gradient is freed once its VJP has run.
    Calling twice without clearing grads adds one more full sweep seeded at 1.
    """
    if loss.shape != (1, 1):
        raise ContractError(f"backward needs a scalar (1x1) loss, got {loss.shape}")
    flows: dict[int, tuple[Tensor, np.ndarray]] = {loss.node_id: (loss, np.ones((1, 1)))}
    for rec in reversed(tape.records):
        flow = flows.pop(rec.out.node_id, None)
        if flow is None:
            continue
        for t, g in zip(rec.inputs, rec.vjp(flow[1])):
            if g is None:
                continue
            acc = flows.get(t.node_id)
            flows[t.node_id] = (t, g if acc is None else acc[1] + g)
    leaf_grads: list[np.ndarray] = []
    for t, g in flows.values():
        if not t.requires_grad:
            continue
        # a VJP may hand one array to two inputs (add); each leaf owns its grad
        if any(np.may_share_memory(g, h) for h in leaf_grads):
            g = g.copy()
        leaf_grads.append(g)
        t.grad = g if t.grad is None else t.grad + g


# ---------------------------------------------------------------------------
# optimizer


@dataclass
class AdamState:
    """Adam with decoupled weight decay; moments are allocated lazily."""

    lr: float = 1e-4
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    weight_decay: float = 0.0
    t: int = 0
    m: list = field(default_factory=list)
    v: list = field(default_factory=list)


def adam_step(params: Sequence[Tensor], state: AdamState) -> None:
    """One bias-corrected update in place; gradients are cleared afterward."""
    if not state.m:
        state.m = [np.zeros_like(p.data) for p in params]
        state.v = [np.zeros_like(p.data) for p in params]
    if len(state.m) != len(params):
        raise ContractError(f"optimizer state tracks {len(state.m)} parameters, got {len(params)}")
    for i, p in enumerate(params):
        if p.grad is None:
            raise ContractError(f"adam_step: parameter {p.name or i} has no gradient")
        if p.grad.shape != p.data.shape:
            raise ContractError(f"adam_step: gradient shape mismatch on parameter {p.name or i}")
    state.t += 1
    bc1 = 1.0 - state.beta1 ** state.t
    bc2 = 1.0 - state.beta2 ** state.t
    for i, (p, m, v) in enumerate(zip(params, state.m, state.v)):
        g = p.grad
        with np.errstate(over="ignore", invalid="ignore"):
            m *= state.beta1
            m += (1.0 - state.beta1) * g
            v *= state.beta2
            v += (1.0 - state.beta2) * g * g
        if not (np.isfinite(m).all() and np.isfinite(v).all()):  # m / sqrt(inf) is a finite 0
            raise NumericError(f"adam_step: a moment of parameter {p.name or i} is non-finite")
        update = state.lr * (m / bc1) / (np.sqrt(v / bc2) + state.eps)
        if state.weight_decay:
            update = update + state.lr * state.weight_decay * p.data
        p.data -= update
        p.grad = None
