"""Graph data model, adjacency normalization, the self-looped base of the
prompted graph, and graph-level readout.

The prompted graph attaches one virtual node per class to the base graph via
a dense learnable weight block. Its one operator is the fused
`psp.prompt.prompted_layer`, which recomputes the symmetric degree
normalization on every forward pass because the weights move during tuning;
A+I and its degrees (`self_looped`) are built once, into the task context.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.sparse as sparse

from .errors import ContractError, DataError, DimensionError
from .inference import class_mean_rows


def class_count(ids: Optional[np.ndarray]) -> int:
    """Ids 0..max in an array of classes or graph ids: max + 1, or 0 when absent or empty."""
    return int(ids.max()) + 1 if ids is not None and ids.size else 0


@dataclass
class GraphData:
    """Immutable node features, sparse symmetric adjacency, and labels.

    The features are the graph's own finite float64 N x F array, copied from
    what the caller passed. The adjacency is held as `check_csr` returns it: a
    checked, canonical float64 `csr_array`, whoever built the graph. `graph_of`
    maps nodes to graph ids for batched multi-graph datasets, whose adjacency
    is block-diagonal. Graph-level labels, when present, live in
    `graph_labels`. Node, class and graph counts come from the arrays.
    """

    features: np.ndarray
    adjacency: sparse.csr_array
    labels: Optional[np.ndarray]
    graph_of: Optional[np.ndarray] = None
    graph_labels: Optional[np.ndarray] = None

    def __post_init__(self):
        try:
            x = self.features = np.array(self.features, dtype=np.float64)
        except (TypeError, ValueError):
            raise DataError(f"features must be numeric, got {type(self.features).__name__}") from None
        if x.ndim != 2:
            raise DataError(f"features must be a 2-D nodes x features array, got shape {x.shape}")
        if not np.isfinite(x).all():  # argmin: the first row that is not all finite
            raise DataError(f"features row {np.isfinite(x).all(axis=1).argmin()} holds a non-finite value")
        m = self.adjacency = check_csr(self.adjacency)
        if m.shape != (self.n_nodes, self.n_nodes):
            raise DataError("adjacency must be n_nodes x n_nodes")
        asym = abs(m - m.T)
        if asym.nnz and asym.max() > 0:
            raise DataError("adjacency must be symmetric")
        if self.labels is not None:
            self.labels = np.asarray(self.labels, dtype=np.int64)
            if self.labels.size != self.n_nodes:
                raise DataError("labels must have one entry per node")
            if self.labels.size and self.labels.min() < 0:
                raise DataError(f"labels must lie in [0, {self.n_classes})")
        if self.graph_of is not None:
            self.graph_of = np.asarray(self.graph_of, dtype=np.int64)
            if self.graph_of.size != self.n_nodes:
                raise DataError("graph_of must have one entry per node")
            # a surjective map has no more graphs than nodes, which also bounds bincount's counters
            if self.graph_of.size and (self.graph_of.min() != 0 or self.graph_of.max() >= self.graph_of.size
                                       or not np.bincount(self.graph_of).all()):
                raise DataError("graph_of must be surjective onto 0..n_graphs-1")
        if self.graph_labels is not None:
            self.graph_labels = np.asarray(self.graph_labels, dtype=np.int64)
            if self.graph_labels.size != self.n_graphs or (self.graph_labels.size and self.graph_labels.min() < 0):
                raise DataError("graph_labels must hold one non-negative class per graph")

    @property
    def n_nodes(self) -> int:
        return len(self.features)

    @property
    def n_classes(self) -> int:
        return class_count(self.labels)

    @property
    def n_graphs(self) -> int:
        return class_count(self.graph_of)

    def task_labels(self, task: str) -> Optional[np.ndarray]:
        """The labels a task predicts: one per graph for "graph", one per node for "node"."""
        return self.graph_labels if task == "graph" else self.labels


@dataclass
class LabeledSet:
    """Labeled items: item `indices[j]` (a node or a graph) has class
    `classes[j]`. Both are int64 arrays in item order."""

    indices: np.ndarray
    classes: np.ndarray

    def __post_init__(self):
        self.indices = np.asarray(self.indices, dtype=np.int64).ravel()
        self.classes = np.asarray(self.classes, dtype=np.int64).ravel()
        if self.indices.size != self.classes.size:
            raise DataError(f"{self.indices.size} labeled indices for {self.classes.size} classes")
        ordered = np.sort(self.indices)
        if (ordered[1:] == ordered[:-1]).any():
            raise DataError("labeled indices must be unique")
        if self.indices.size and min(self.indices.min(), self.classes.min()) < 0:
            raise DataError("labeled indices and classes must be non-negative")

    def subset(self, keep: np.ndarray) -> LabeledSet:
        """The items at the True entries of the boolean mask `keep`, in the same order."""
        return LabeledSet(self.indices[keep], self.classes[keep])


@dataclass
class PromptedGraph:
    """Per-class virtual nodes and their learnable edge weights to a base graph.

    `weight_rows` has one row per base node for the "node" task, or one per
    graph for the "graph" task. Rows whose mask entry is False are pinned to
    zero and never receive gradient updates.
    """

    task: str
    proto_features: np.ndarray
    weight_rows: np.ndarray
    trainable_row_mask: np.ndarray


def check_csr(arg, shape=None) -> sparse.csr_array:
    """`arg` as a float64 `scipy.sparse.csr_array`, checked.

    Takes what `csr_array` takes, e.g. `check_csr((values, indices, offsets),
    shape=(r, c))` or a sparse array, whose arrays the result shares. scipy's
    full format check applies, and the column indices must be canonical:
    strictly increasing within each row. Malformed input raises a DataError.
    """
    try:
        # scipy silently drops entries past the last offset, so check the raw arrays first
        if isinstance(arg, tuple) and len(arg) == 3:
            offsets = np.ravel(arg[2])
            if offsets.size and offsets[-1] != np.size(arg[1]):
                raise ValueError("row offsets must end at the entry count")
        csr = sparse.csr_array(arg, shape=shape, dtype=np.float64)
        csr.check_format(full_check=True)
    except (TypeError, ValueError) as err:
        raise DataError(f"malformed CSR matrix: {err}") from None
    if not csr.has_canonical_format:
        raise DataError("column indices must be strictly increasing within a row")
    return csr


def build_csr(n: int, edges) -> sparse.csr_array:
    """Symmetrized, deduplicated, self-loop-free unit-weight CSR, canonical by construction."""
    pairs = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    bad = np.flatnonzero(((pairs < 0) | (pairs >= n)).any(axis=1))
    if bad.size:
        src, dst = pairs[bad[0]]
        raise DataError(f"edge ({src}, {dst}) out of range for {n} nodes")
    pairs = pairs[pairs[:, 0] != pairs[:, 1]]
    pairs = np.concatenate([pairs, pairs[:, ::-1]])
    # tocsr sorts each row's columns and sums repeats into one entry
    a = sparse.coo_array((np.ones(len(pairs)), pairs.T), shape=(n, n)).tocsr()
    a.data[:] = 1.0
    return a


def self_looped(a: sparse.csr_array) -> tuple[sparse.csr_array, np.ndarray]:
    """A+I for a square adjacency A, and its row sums (the base degrees) as an N x 1 column."""
    n, cols = a.shape
    if n != cols:
        raise DimensionError(f"self-loops need a square matrix, got {n}x{cols}")
    a_hat = a + sparse.eye_array(n, format="csr")
    return a_hat, a_hat.sum(axis=1).reshape(-1, 1)


def gcn_normalize(a: sparse.csr_array) -> sparse.csr_array:
    """Symmetric renormalization with implicit self-loops.

    Degrees are taken from the self-looped matrix, so a regular graph's
    normalized rows sum to 1.
    """
    a_hat, degree = self_looped(a)
    inv_sqrt = 1.0 / np.sqrt(np.maximum(degree.ravel(), 1e-12))
    # D^-1/2 (A+I) D^-1/2 on the stored values, the row's factor first and then the column's:
    # the rounding of the diagonal-matrix products in tests/oracles.py, bit for bit
    a_hat.data *= np.repeat(inv_sqrt, np.diff(a_hat.indptr))
    a_hat.data *= inv_sqrt[a_hat.indices]
    return a_hat


def mean_readout(z: np.ndarray, graph_of) -> np.ndarray:
    """Per-graph mean of node rows; group g of the output is graph g's mean."""
    membership = np.asarray(graph_of, dtype=np.int64).ravel()
    if membership.size != len(z):
        raise ContractError(f"membership covers {membership.size} rows, embedding has {len(z)}")
    members = LabeledSet(np.arange(len(z)), membership)
    return class_mean_rows(z, members, class_count(membership))
