"""Dataset formats, synthetic graph generation, few-shot splits, and
checkpoint persistence.

Node datasets are a TSV triple (edges.tsv / features.tsv / labels.tsv);
multi-graph datasets use the TU text layout batched into one block-diagonal
graph. Checkpoints are little-endian binary with exact round-trips.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from .autodiff import Tensor
from .encoders import EncoderParams, freeze
from .errors import DataError, FormatError, ParameterError
from .graph import GraphData, build_csr

CHECKPOINT_MAGIC = b"PSPCKPT1"
CHECKPOINT_VERSION = 1


@dataclass
class SplitSpec:
    train: list[int]
    val: list[int]
    test: list[int]
    k: int
    seed: int


@dataclass
class TunedPrompt:
    """Prompt state persisted alongside the encoders."""

    task: str
    proto_features: np.ndarray
    weights: np.ndarray
    mask: np.ndarray


@dataclass
class Checkpoint:
    hidden_dim: int
    tau: float
    seed: int
    params: EncoderParams
    prompt: Optional[TunedPrompt] = None


# ---------------------------------------------------------------------------
# node dataset TSV triple


def _read_lines(path: Path) -> list[str]:
    if not path.is_file():
        raise DataError(f"missing dataset file {path}")
    return path.read_text(encoding="utf-8").splitlines()


def _require_finite(rows: np.ndarray, path: Path) -> None:
    """Reject non-finite values, naming the line of the first offending row."""
    bad = np.flatnonzero(~np.isfinite(rows).all(axis=1))
    if bad.size:
        lineno = [i for i, line in enumerate(_read_lines(path), start=1) if line.strip()][bad[0]]
        raise DataError(f"{path.name} line {lineno}: non-finite value")


def load_node_dataset(directory) -> GraphData:
    """Load edges.tsv / features.tsv / labels.tsv into a GraphData."""
    directory = Path(directory)
    feat_rows = []
    width = None
    for lineno, line in enumerate(_read_lines(directory / "features.tsv"), start=1):
        if not line.strip():
            continue
        try:
            row = [float(tok) for tok in line.split("\t")]
        except ValueError:
            raise DataError(f"features.tsv line {lineno}: non-numeric value") from None
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise DataError(f"features.tsv line {lineno}: expected {width} columns, got {len(row)}")
        feat_rows.append(row)
    if not feat_rows:
        raise DataError(f"features.tsv in {directory} is empty")
    features = np.array(feat_rows)
    _require_finite(features, directory / "features.tsv")
    n = features.shape[0]

    labels = []
    for lineno, line in enumerate(_read_lines(directory / "labels.tsv"), start=1):
        if not line.strip():
            continue
        try:
            labels.append(int(line.strip()))
        except ValueError:
            raise DataError(f"labels.tsv line {lineno}: non-integer label") from None
    if len(labels) != n:
        raise DataError(f"labels.tsv has {len(labels)} rows but features.tsv has {n}")
    labels = np.array(labels, dtype=np.int64)
    if labels.min() < 0:
        raise DataError("labels.tsv contains a negative class index")

    edges = []
    for lineno, line in enumerate(_read_lines(directory / "edges.tsv"), start=1):
        if not line.strip():
            continue
        parts = line.split("\t")
        if len(parts) != 2:
            raise DataError(f"edges.tsv line {lineno}: expected 'src<TAB>dst'")
        try:
            src, dst = int(parts[0]), int(parts[1])
        except ValueError:
            raise DataError(f"edges.tsv line {lineno}: non-integer endpoint") from None
        if not (0 <= src < n and 0 <= dst < n):
            raise DataError(f"edges.tsv line {lineno}: endpoint out of range for {n} nodes")
        edges.append((src, dst))

    return GraphData(n_nodes=n, features=Tensor(features), adjacency=build_csr(n, edges),
                     labels=labels, n_classes=int(labels.max()) + 1)


def save_node_dataset(directory, g: GraphData) -> None:
    """Write the TSV triple; feature values keep full precision."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    with open(directory / "edges.tsv", "w", encoding="utf-8") as fh:
        a = g.adjacency
        rows = a.row_expansion()
        for src, dst in zip(rows, a.col_indices):
            if src < dst:
                fh.write(f"{src}\t{dst}\n")
    with open(directory / "features.tsv", "w", encoding="utf-8") as fh:
        for row in g.features.data:
            fh.write("\t".join(repr(float(v)) for v in row) + "\n")
    with open(directory / "labels.tsv", "w", encoding="utf-8") as fh:
        for label in g.labels:
            fh.write(f"{label}\n")


# ---------------------------------------------------------------------------
# TU text layout


def _tu_ints(path: Path, what: str) -> list[int]:
    out = []
    for lineno, line in enumerate(_read_lines(path), start=1):
        if not line.strip():
            continue
        try:
            out.append(int(line.strip()))
        except ValueError:
            raise DataError(f"{path.name} line {lineno}: non-integer {what}") from None
    return out


def _remap_labels(raw: list[int]) -> np.ndarray:
    mapping = {v: i for i, v in enumerate(sorted(set(raw)))}
    return np.array([mapping[v] for v in raw], dtype=np.int64)


def load_tu_dataset(directory, name: str, degree_onehot_width: int = 64) -> GraphData:
    """Batch a TU-layout dataset into one block-diagonal GraphData.

    Node attributes fall back to degree one-hots (overflow in the last
    bucket) when the attributes file is absent. Graph and node labels are
    remapped to contiguous 0-based classes.
    """
    directory = Path(directory)
    indicator = _tu_ints(directory / f"{name}_graph_indicator.txt", "graph id")
    n = len(indicator)
    graph_of = np.array(indicator, dtype=np.int64) - 1
    if n == 0:
        raise DataError(f"{name}_graph_indicator.txt is empty")
    if graph_of.min() < 0:
        raise DataError(f"{name}_graph_indicator.txt: graph ids are 1-based")

    graph_labels = _remap_labels(_tu_ints(directory / f"{name}_graph_labels.txt", "graph label"))
    if graph_labels.size != graph_of.max() + 1:
        raise DataError(
            f"{name}_graph_labels.txt has {graph_labels.size} rows for {graph_of.max() + 1} graphs")

    edges = []
    for lineno, line in enumerate(_read_lines(directory / f"{name}_A.txt"), start=1):
        if not line.strip():
            continue
        parts = [p.strip() for p in line.replace(",", " ").split()]
        if len(parts) != 2:
            raise DataError(f"{name}_A.txt line {lineno}: expected 'i, j'")
        try:
            src, dst = int(parts[0]) - 1, int(parts[1]) - 1
        except ValueError:
            raise DataError(f"{name}_A.txt line {lineno}: non-integer endpoint") from None
        if not (0 <= src < n and 0 <= dst < n):
            raise DataError(f"{name}_A.txt line {lineno}: endpoint out of range for {n} nodes")
        if graph_of[src] != graph_of[dst]:
            raise DataError(f"{name}_A.txt line {lineno}: edge crosses graph boundaries")
        edges.append((src, dst))
    adjacency = build_csr(n, edges)

    attr_path = directory / f"{name}_node_attributes.txt"
    if attr_path.is_file():
        rows = []
        width = None
        for lineno, line in enumerate(_read_lines(attr_path), start=1):
            if not line.strip():
                continue
            try:
                row = [float(tok) for tok in line.replace(",", " ").split()]
            except ValueError:
                raise DataError(f"{attr_path.name} line {lineno}: non-numeric attribute") from None
            if width is None:
                width = len(row)
            elif len(row) != width:
                raise DataError(f"{attr_path.name} line {lineno}: ragged attribute row")
            rows.append(row)
        if len(rows) != n:
            raise DataError(f"{attr_path.name} has {len(rows)} rows for {n} nodes")
        features = np.array(rows)
        _require_finite(features, attr_path)
    else:
        degrees = np.diff(adjacency.row_offsets)
        features = np.zeros((n, degree_onehot_width))
        features[np.arange(n), np.minimum(degrees, degree_onehot_width - 1)] = 1.0

    labels = None
    n_classes = 0
    node_label_path = directory / f"{name}_node_labels.txt"
    if node_label_path.is_file():
        raw = _tu_ints(node_label_path, "node label")
        if len(raw) != n:
            raise DataError(f"{node_label_path.name} has {len(raw)} rows for {n} nodes")
        labels = _remap_labels(raw)
        n_classes = int(labels.max()) + 1

    return GraphData(n_nodes=n, features=Tensor(features), adjacency=adjacency,
                     labels=labels, n_classes=n_classes, graph_of=graph_of,
                     graph_labels=graph_labels,
                     n_graph_classes=int(graph_labels.max()) + 1)


# ---------------------------------------------------------------------------
# split sampling


def sample_k_shot(labels, k: int, seed: int, val_k: int = 0) -> SplitSpec:
    """Per class: k train + val_k validation drawn uniformly, the rest test."""
    labels = np.asarray(labels, dtype=np.int64).ravel()
    rng = np.random.default_rng([int(seed) & 0xFFFFFFFFFFFFFFFF, 0x5B17])
    train, val, test = [], [], []
    for cls in range(int(labels.max()) + 1):
        pool = np.flatnonzero(labels == cls)
        if pool.size < k + val_k:
            raise DataError(f"class {cls} has {pool.size} items, needs {k + val_k}")
        picked = rng.permutation(pool)
        train.extend(picked[:k].tolist())
        val.extend(picked[k:k + val_k].tolist())
        test.extend(picked[k + val_k:].tolist())
    return SplitSpec(train=sorted(train), val=sorted(val), test=sorted(test), k=k, seed=seed)


def mask_training_labels(split: SplitSpec, ratio: float, seed: int, labels=None) -> SplitSpec:
    """Keep a uniform (1-ratio) fraction of train items, at least one per class.

    Without a label array the train list is treated as one class. Validation
    and test sets are untouched.
    """
    if not 0.0 <= ratio <= 1.0:
        raise ParameterError(f"mask ratio must lie in [0, 1], got {ratio}")
    if ratio == 0.0 or not split.train:
        return split
    labels = np.zeros(max(split.train) + 1, dtype=np.int64) if labels is None \
        else np.asarray(labels, dtype=np.int64).ravel()
    rng = np.random.default_rng([int(seed) & 0xFFFFFFFFFFFFFFFF, 0x3A5C])
    kept = []
    train = np.array(split.train, dtype=np.int64)
    for cls in np.unique(labels[train]):
        members = train[labels[train] == cls]
        n_keep = max(1, int(round(members.size * (1.0 - ratio))))
        kept.extend(rng.choice(members, size=n_keep, replace=False).tolist())
    return SplitSpec(train=sorted(kept), val=split.val, test=split.test,
                     k=split.k, seed=split.seed)


def labeled_from_split(indices, labels) -> list[tuple[int, int]]:
    labels = np.asarray(labels, dtype=np.int64)
    return [(int(i), int(labels[i])) for i in indices]


# ---------------------------------------------------------------------------
# synthetic benchmark


def generate_sbm(n: int, n_classes: int, homophily: float, avg_deg: float,
                 feat_dim: int, noise: float, seed: int) -> GraphData:
    """Equal-size-class block-model graph with orthogonal class mean features.

    Each of the ~n*avg_deg/2 edges is intra-class with probability
    `homophily`, so the expected intra-class edge fraction equals it.
    Features are the class mean (a unit basis vector) plus Gaussian noise.
    """
    if n < n_classes:
        raise ParameterError(f"need at least one node per class, got n={n}, classes={n_classes}")
    if n_classes < 1:
        raise ParameterError("n_classes must be positive")
    if not 0.0 <= homophily <= 1.0:
        raise ParameterError(f"homophily must lie in [0, 1], got {homophily}")
    if feat_dim < n_classes:
        raise ParameterError(f"feat_dim {feat_dim} cannot hold {n_classes} orthogonal class means")
    rng = np.random.default_rng([int(seed) & 0xFFFFFFFFFFFFFFFF, 0x5B3])

    sizes = np.full(n_classes, n // n_classes, dtype=np.int64)
    sizes[: n % n_classes] += 1
    labels = np.repeat(np.arange(n_classes), sizes)
    members = [np.flatnonzero(labels == c) for c in range(n_classes)]

    n_edges = int(round(n * avg_deg / 2.0))
    edges = []
    for _ in range(n_edges):
        if rng.random() < homophily:
            cls = int(rng.integers(n_classes))
            while members[cls].size < 2:
                cls = int(rng.integers(n_classes))
            pair = rng.choice(members[cls], size=2, replace=False)
            edges.append((int(pair[0]), int(pair[1])))
        else:
            c1, c2 = rng.choice(n_classes, size=2, replace=False)
            edges.append((int(rng.choice(members[c1])), int(rng.choice(members[c2]))))

    means = np.eye(n_classes, feat_dim)
    features = means[labels] + noise * rng.standard_normal((n, feat_dim))
    return GraphData(n_nodes=n, features=Tensor(features), adjacency=build_csr(n, edges),
                     labels=labels, n_classes=n_classes)


def intra_class_edge_fraction(g: GraphData) -> float:
    """Fraction of stored (undirected) edges joining same-class endpoints."""
    a = g.adjacency
    rows = a.row_expansion()
    cols = a.col_indices
    upper = rows < cols
    if not upper.any():
        return 0.0
    return float(np.mean(g.labels[rows[upper]] == g.labels[cols[upper]]))


# ---------------------------------------------------------------------------
# binary checkpoint


def _pack_block(arr: np.ndarray) -> bytes:
    arr = np.ascontiguousarray(arr, dtype=np.float64)
    return struct.pack("<II", arr.shape[0], arr.shape[1]) + arr.tobytes()


class _Reader:
    def __init__(self, blob: bytes):
        self.blob = blob
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.blob):
            raise FormatError("checkpoint truncated")
        out = self.blob[self.pos:self.pos + n]
        self.pos += n
        return out

    def unpack(self, fmt: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))

    def block(self) -> np.ndarray:
        rows, cols = self.unpack("<II")
        data = np.frombuffer(self.take(rows * cols * 8), dtype="<f8")
        return data.reshape(rows, cols).copy()


def save_checkpoint(path, ckpt: Checkpoint) -> None:
    """Little-endian binary layout with length-prefixed shape+data blocks."""
    parts = [CHECKPOINT_MAGIC, struct.pack("<I", CHECKPOINT_VERSION),
             struct.pack("<Iqd", ckpt.hidden_dim, ckpt.seed, ckpt.tau)]
    blocks = []
    for w, b in ckpt.params.mlp_layers + ckpt.params.gnn_layers:
        blocks.extend([w.data, b.data])
    parts.append(struct.pack("<I", len(blocks)))
    parts.extend(_pack_block(b) for b in blocks)
    if ckpt.prompt is None:
        parts.append(struct.pack("<B", 0))
    else:
        p = ckpt.prompt
        parts.append(struct.pack("<BB", 1, 1 if p.task == "graph" else 0))
        parts.append(_pack_block(p.proto_features))
        parts.append(_pack_block(p.weights))
        mask = np.asarray(p.mask, dtype=np.uint8)
        parts.append(struct.pack("<I", mask.size) + mask.tobytes())
    Path(path).write_bytes(b"".join(parts))


def load_checkpoint(path) -> Checkpoint:
    reader = _Reader(Path(path).read_bytes())
    magic = reader.take(len(CHECKPOINT_MAGIC))
    if magic != CHECKPOINT_MAGIC:
        raise FormatError(f"bad checkpoint magic {magic!r}, expected {CHECKPOINT_MAGIC!r}")
    (version,) = reader.unpack("<I")
    if version != CHECKPOINT_VERSION:
        raise FormatError(f"checkpoint version {version}, this build reads {CHECKPOINT_VERSION}")
    hidden_dim, seed, tau = reader.unpack("<Iqd")
    (n_blocks,) = reader.unpack("<I")
    if n_blocks != 8:
        raise FormatError(f"expected 8 encoder blocks, found {n_blocks}")
    blocks = [reader.block() for _ in range(n_blocks)]
    params = EncoderParams(
        mlp_layers=[(Tensor(blocks[0]), Tensor(blocks[1])), (Tensor(blocks[2]), Tensor(blocks[3]))],
        gnn_layers=[(Tensor(blocks[4]), Tensor(blocks[5])), (Tensor(blocks[6]), Tensor(blocks[7]))],
        hidden_dim=hidden_dim)
    freeze(params)
    (has_prompt,) = reader.unpack("<B")
    prompt = None
    if has_prompt:
        (task_code,) = reader.unpack("<B")
        proto_features = reader.block()
        weights = reader.block()
        (mask_len,) = reader.unpack("<I")
        if mask_len != weights.shape[0]:
            raise FormatError(f"prompt mask has {mask_len} entries for {len(weights)} weight rows")
        mask = np.frombuffer(reader.take(mask_len), dtype=np.uint8).astype(bool)
        prompt = TunedPrompt(task="graph" if task_code else "node",
                             proto_features=proto_features, weights=weights, mask=mask)
    if reader.pos != len(reader.blob):
        raise FormatError(f"checkpoint has {len(reader.blob) - reader.pos} trailing bytes")
    return Checkpoint(hidden_dim=hidden_dim, tau=tau, seed=seed, params=params, prompt=prompt)


# ---------------------------------------------------------------------------
# weight matrix export


def export_weight_matrix(w: Tensor, labels, path) -> None:
    """Tab-separated dump of the learned node-to-prototype weights.

    Columns: node index, label (-1 when labels are absent), then one
    full-precision weight per prototype.
    """
    n, c = w.shape
    lab = np.full(n, -1, dtype=np.int64) if labels is None \
        else np.asarray(labels, dtype=np.int64).ravel()
    if lab.size != n:
        raise DataError(f"{lab.size} labels for {n} weight rows")
    header = "node\tlabel\t" + "\t".join(f"w_{j}" for j in range(c))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        for i in range(n):
            row = "\t".join(repr(float(v)) for v in w.data[i])
            fh.write(f"{i}\t{lab[i]}\t{row}\n")


def load_weight_matrix(path) -> tuple[np.ndarray, np.ndarray]:
    lines = _read_lines(Path(path))
    if not lines or not lines[0].startswith("node\tlabel"):
        raise FormatError(f"{path} does not look like a weight export")
    labels, rows = [], []
    for line in lines[1:]:
        if not line.strip():
            continue
        parts = line.split("\t")
        labels.append(int(parts[1]))
        rows.append([float(v) for v in parts[2:]])
    return np.array(rows), np.array(labels, dtype=np.int64)
