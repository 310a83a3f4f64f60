"""Dataset formats, synthetic graph generation, few-shot splits, and
checkpoint persistence.

Node datasets are a TSV triple (edges.tsv / features.tsv / labels.tsv);
multi-graph datasets use the TU text layout batched into one block-diagonal
graph. Checkpoints are little-endian binary with exact round-trips.
"""

from __future__ import annotations

import io
import itertools
import struct
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

import numpy as np
import scipy.sparse as sparse

from .autodiff import check_finite, check_fraction, check_tau, seeded_rng
from .encoders import PARAM_NAMES, EncoderParams
from .errors import DataError, FormatError, ParameterError
from .graph import GraphData, LabeledSet, PromptedGraph, build_csr, class_count
from .parallel import fork_map

CHECKPOINT_MAGIC = b"PSPCKPT1"
CHECKPOINT_VERSION = 1
# columns of the degree one-hot features `load_tu_dataset` falls back to
DEGREE_ONEHOT_WIDTH = 64
# the bytes on which numpy's tokenizer and str.splitlines agree where lines break
_PLAIN_BYTES = bytes(range(32, 127)) + b"\t\n"
# most bytes of text per task `_read_table` and `write_table` hand `fork_map`.
# Parsing features text, two forked halves break even with one in-process parse at
# ~2 MiB (2 cores: 53 vs 55 ms at 2 MiB, 82 vs 67 ms at 3 MiB), so every range, at
# least 4 MiB once there are two, pays for the ~20 ms the workers cost, and every
# desk-scale and N=3000 input is one range
_RANGE_BYTES = 8 << 20


@dataclass
class SplitSpec:
    """A few-shot split: three disjoint labeled sets, each in ascending item order."""

    train: LabeledSet
    val: LabeledSet
    test: LabeledSet


@dataclass
class Checkpoint:
    tau: float
    seed: int
    params: EncoderParams
    prompt: Optional[PromptedGraph] = None


# ---------------------------------------------------------------------------
# text tables


def _read_table(path: Path, kind, sep: Optional[str],
                width: Optional[int] = None) -> tuple[np.ndarray, Sequence[int]]:
    """Parse the non-blank lines of a text table into a 2-D int64 or float64 array.

    `kind` (`int` or `float`) parses each token. `sep` is "\t" for tabs,
    None for runs of whitespace, or "," for commas or whitespace. Every row
    has `width` columns, or the first row's count when `width` is None.
    Returns the rows and each row's 1-based line in the file. A malformed
    line raises a DataError naming the file and the line.

    The file is cut into ceil(size / `_RANGE_BYTES`) line-aligned byte
    ranges of about even size, and `fork_map` parses them on every allowed
    core (a one-range file, in this process). Each range is read and,
    if plain (printable ASCII, tabs, newlines), parsed by numpy's C
    tokenizer, a one-range file from its path; it is kept if it is finite,
    `width` wide and has a row per line. This process holds the parts and
    their concatenation, or one range while it parses one itself. If any
    range is not kept, the whole file, every error included, goes through
    the line loop `_read_lines`, which accepts the same syntax.
    """
    if not path.is_file():
        raise DataError(f"missing dataset file {path}")
    parts = list(fork_map(_parse_range, [(path, lo, hi, kind, sep) for lo, hi in _line_ranges(path)]))
    if any(part is None for part in parts) or len({part.shape[1] for part in parts}) != 1 \
            or width not in (None, parts[0].shape[1]):
        return _read_lines(path, kind, sep, width)
    table = parts[0] if len(parts) == 1 else np.concatenate(parts)
    return table, range(1, table.shape[0] + 1)


def _line_ranges(path: Path) -> list[tuple[int, int]]:
    """Byte ranges that cover the file: ceil(size / `_RANGE_BYTES`) of them,
    each about size / that many bytes, every cut moved on to the end of a line."""
    size, bounds = path.stat().st_size, [0]
    count = -(-size // _RANGE_BYTES)
    with open(path, "rb") as fh:
        for i in range(1, count):
            if bounds[-1] >= i * size // count:  # a long line ran up to or past this cut
                continue
            fh.seek(i * size // count - 1)
            while (block := fh.read(1 << 16)) and b"\n" not in block:
                pass
            bounds.append(fh.tell() - len(block) + block.find(b"\n") + 1 if block else size)
    if bounds[-1] < size:
        bounds.append(size)
    return list(zip(bounds, bounds[1:]))


def _parse_range(task) -> Optional[np.ndarray]:
    """One range of `_read_table`'s file as a table, or None where the line
    loop must decide: a byte that is not plain, a numpy error or warning, a
    non-finite float or a line that gave no row."""
    path, lo, hi, kind, sep = task
    with open(path, "rb") as fh:
        fh.seek(lo)
        text = fh.read(hi - lo)
        whole = lo == 0 and not fh.read(1)
    # 64 KiB at a time: translate allocates its whole input's length
    if any(text[i:i + (1 << 16)].translate(None, _PLAIN_BYTES) for i in range(0, len(text), 1 << 16)):
        return None
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            # numpy's path reader reads the whole file, but steps through lines in C,
            # where over a BytesIO it takes ~100 ns more a line in Python
            table = np.loadtxt(path if whole else io.BytesIO(text), np.int64 if kind is int else np.float64,
                               comments=None, delimiter=sep, ndmin=2)
    except (ValueError, Warning):
        return None
    lines = text.count(b"\n") + (not text.endswith(b"\n"))
    if table.shape[0] != lines or not (kind is int or np.isfinite(table).all()):
        return None
    return table


def _read_lines(path: Path, kind, sep: Optional[str],
                width: Optional[int] = None) -> tuple[np.ndarray, list[int]]:
    """`_read_table`'s line loop: parses and checks one line at a time."""
    # bytes that are not UTF-8 become U+FFFD, which no token parses, so they are
    # reported on their line; only the iterator holds the lines, freeing them after the loop
    numbered = enumerate(path.read_text(encoding="utf-8", errors="replace").splitlines(), start=1)
    rows, linenos = [], []
    for lineno, line in numbered:
        if not line.strip():
            continue
        parts = line.replace(",", " ").split() if sep == "," else line.split(sep)
        if not parts:
            raise DataError(f"{path.name} line {lineno}: no columns")
        if width is None:
            width = len(parts)
        if len(parts) != width:
            raise DataError(f"{path.name} line {lineno}: expected {width} columns, got {len(parts)}")
        try:
            rows.append(list(map(kind, parts)))
        except ValueError:
            what = "integer" if kind is int else "numeric"
            raise DataError(f"{path.name} line {lineno}: non-{what} value") from None
        linenos.append(lineno)
    try:
        table = np.array(rows, dtype=np.int64 if kind is int else np.float64)
        table = table.reshape(len(rows), width or 0)
    except OverflowError:
        i = next(i for i, row in enumerate(rows) if not all(-2**63 <= v < 2**63 for v in row))
        raise DataError(f"{path.name} line {linenos[i]}: integer out of int64 range") from None
    if kind is float:
        bad = np.flatnonzero(~np.isfinite(table).all(axis=1))
        if bad.size:
            raise DataError(f"{path.name} line {linenos[bad[0]]}: non-finite value")
    return table, linenos


def write_table(path, rows) -> None:
    """One tab-separated line per row of a 2-D array or a list of rows of
    Python scalars; str of a float is its shortest round-tripping repr, so
    values keep full precision. `fork_map` formats the rows in the fewest
    chunks of even row counts that hold at most `_RANGE_BYTES` of float64 or
    int64 text each (a value and its tab take at most 25 bytes), and the
    chunks are written in order."""
    n = len(rows)
    most = max(1, _RANGE_BYTES // (25 * max(len(rows[0]) if n else 1, 1)))  # rows a chunk may hold
    count = max(1, -(-n // most))
    bounds = [i * n // count for i in range(count + 1)]
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(fork_map(_format_rows, [rows[lo:hi] for lo, hi in zip(bounds, bounds[1:])]))


def _format_rows(rows) -> str:
    if isinstance(rows, np.ndarray):
        rows = map(np.ndarray.tolist, rows)
    return "".join("\t".join(map(str, row)) + "\n" for row in rows)


def _check_endpoints(edges: np.ndarray, linenos: Sequence[int], n: int, name: str) -> None:
    bad = np.flatnonzero(((edges < 0) | (edges >= n)).any(axis=1))
    if bad.size:
        raise DataError(f"{name} line {linenos[bad[0]]}: endpoint out of range for {n} nodes")


# ---------------------------------------------------------------------------
# node dataset TSV triple


def load_node_dataset(directory) -> GraphData:
    """Load edges.tsv / features.tsv / labels.tsv into a GraphData."""
    directory = Path(directory)
    features, _ = _read_table(directory / "features.tsv", float, "\t")
    n = features.shape[0]
    if n == 0:
        raise DataError(f"features.tsv in {directory} is empty")

    labels = _read_table(directory / "labels.tsv", int, None, 1)[0][:, 0]
    if labels.size != n:
        raise DataError(f"labels.tsv has {labels.size} rows but features.tsv has {n}")
    if labels.min() < 0:
        raise DataError("labels.tsv contains a negative class index")

    edges, linenos = _read_table(directory / "edges.tsv", int, "\t", 2)
    _check_endpoints(edges, linenos, n, "edges.tsv")
    return GraphData(features=features, adjacency=build_csr(n, edges), labels=labels)


def save_node_dataset(directory, g: GraphData) -> None:
    """Write the TSV triple; feature values keep full precision."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    upper = sparse.triu(g.adjacency, k=1, format="coo")
    write_table(directory / "edges.tsv", np.column_stack((upper.row, upper.col)))
    write_table(directory / "features.tsv", g.features)
    write_table(directory / "labels.tsv", g.labels.reshape(-1, 1))


# ---------------------------------------------------------------------------
# TU text layout


def load_tu_dataset(directory, name: str) -> GraphData:
    """Batch a TU-layout dataset into one block-diagonal GraphData.

    Node attributes fall back to degree one-hots (overflow in the last
    bucket) when the attributes file is absent. Graph and node labels are
    remapped to contiguous 0-based classes. One-column files hold one integer
    per line; `_A` and attribute rows separate values by commas or whitespace.
    """
    directory = Path(directory)
    graph_of = _read_table(directory / f"{name}_graph_indicator.txt", int, None, 1)[0][:, 0] - 1
    n = graph_of.size
    if n == 0:
        raise DataError(f"{name}_graph_indicator.txt is empty")
    if graph_of.min() < 0:
        raise DataError(f"{name}_graph_indicator.txt: graph ids are 1-based")

    raw = _read_table(directory / f"{name}_graph_labels.txt", int, None, 1)[0][:, 0]
    graph_labels = np.unique(raw, return_inverse=True)[1]
    if graph_labels.size != graph_of.max() + 1:
        raise DataError(
            f"{name}_graph_labels.txt has {graph_labels.size} rows for {graph_of.max() + 1} graphs")

    edges, linenos = _read_table(directory / f"{name}_A.txt", int, ",", 2)
    edges -= 1
    _check_endpoints(edges, linenos, n, f"{name}_A.txt")
    crossing = np.flatnonzero(graph_of[edges[:, 0]] != graph_of[edges[:, 1]])
    if crossing.size:
        raise DataError(f"{name}_A.txt line {linenos[crossing[0]]}: edge crosses graph boundaries")
    adjacency = build_csr(n, edges)

    attr_path = directory / f"{name}_node_attributes.txt"
    if attr_path.is_file():
        features, _ = _read_table(attr_path, float, ",")
        if features.shape[0] != n:
            raise DataError(f"{attr_path.name} has {features.shape[0]} rows for {n} nodes")
    else:
        degrees = np.diff(adjacency.indptr)
        features = np.zeros((n, DEGREE_ONEHOT_WIDTH))
        features[np.arange(n), np.minimum(degrees, DEGREE_ONEHOT_WIDTH - 1)] = 1.0

    labels = None
    node_label_path = directory / f"{name}_node_labels.txt"
    if node_label_path.is_file():
        raw = _read_table(node_label_path, int, None, 1)[0][:, 0]
        if raw.size != n:
            raise DataError(f"{node_label_path.name} has {raw.size} rows for {n} nodes")
        labels = np.unique(raw, return_inverse=True)[1]

    return GraphData(features=features, adjacency=adjacency, labels=labels,
                     graph_of=graph_of, graph_labels=graph_labels)


# ---------------------------------------------------------------------------
# split sampling


def sample_k_shot(labels, k: int, seed: int, val_k: int = 0) -> SplitSpec:
    """Per class: k train + val_k validation drawn uniformly, the rest test."""
    if k < 1 or val_k < 0:
        raise ParameterError(f"need k >= 1 and val_k >= 0 items per class, got k={k}, val_k={val_k}")
    items = LabeledSet(np.arange(np.size(labels)), labels)
    if not items.indices.size:
        raise DataError("cannot sample a split from an empty label array")
    rng = seeded_rng(seed, 0x5B17)
    part = np.full(items.indices.size, 2)  # 0 train, 1 validation, 2 test
    for cls in range(class_count(items.classes)):
        pool = np.flatnonzero(items.classes == cls)
        if pool.size < k + val_k:
            raise DataError(f"class {cls} has {pool.size} items, needs {k + val_k}")
        picked = rng.permutation(pool)
        part[picked[:k]] = 0
        part[picked[k:k + val_k]] = 1
    return SplitSpec(*(items.subset(part == p) for p in range(3)))


def mask_training_labels(split: SplitSpec, ratio: float, seed: int) -> SplitSpec:
    """Keep a uniform (1-ratio) fraction of each class's train items, at least
    one per class. Validation and test sets are untouched."""
    check_fraction("mask ratio", ratio, open_top=False)
    train = split.train
    if ratio == 0.0 or not train.indices.size:
        return split
    rng = seeded_rng(seed, 0x3A5C)
    keep = np.zeros(train.indices.size, dtype=bool)
    for cls in np.unique(train.classes):
        members = np.flatnonzero(train.classes == cls)
        n_keep = max(1, int(round(members.size * (1.0 - ratio))))
        keep[rng.choice(members, size=n_keep, replace=False)] = True
    return SplitSpec(train.subset(keep), split.val, split.test)


# ---------------------------------------------------------------------------
# synthetic benchmark


class _RawDraws:
    """`rng.random()` and `rng.integers(k)` (1 <= k < 2**32) for a PCG64
    `rng`, read from its words fetched in bulk, not one call each. A copy of
    the generator fetches the words; `hand_back` moves `rng` past what was read.

    `double` is numpy's `(word >> 11) * 2**-53`. `below` is its 32-bit Lemire
    bounded draw, rejections included, over the half-words of `next_uint32`:
    a word's low half first, its high half kept for the next half-word."""

    def __init__(self, rng: np.random.Generator):
        self.rng, bits = rng, np.random.PCG64()
        bits.state = state = rng.bit_generator.state
        self.has_half, self.half, self.used = state["has_uint32"], state["uinteger"], 0
        # chunks of 64, 128, ... words, then 64k at a time, so a small graph fetches few
        chunks = (bits.random_raw(min(64 << i, 1 << 16)).tolist() for i in itertools.count())
        self._word = itertools.chain.from_iterable(chunks).__next__

    def double(self) -> float:
        self.used += 1
        return (self._word() >> 11) * 2.0 ** -53

    def below(self, k: int) -> int:
        if k == 1:
            return 0  # numpy draws nothing for a one-value range
        m = self._uint32() * k
        if m & 0xFFFFFFFF < k:
            threshold = (1 << 32) % k  # numpy's (2**32 - 1 - (k - 1)) % k
            while m & 0xFFFFFFFF < threshold:
                m = self._uint32() * k
        return m >> 32

    def _uint32(self) -> int:
        if self.has_half:
            self.has_half = 0
            return self.half
        self.used += 1
        word = self._word()
        self.has_half, self.half = 1, word >> 32
        return word & 0xFFFFFFFF

    def hand_back(self) -> None:
        bits = self.rng.bit_generator
        bits.advance(self.used)  # which empties the half-word buffer
        state = bits.state
        state["has_uint32"], state["uinteger"] = self.has_half, self.half
        bits.state = state


def generate_sbm(n: int, n_classes: int, homophily: float, avg_deg: float,
                 feat_dim: int, noise: float, seed: int) -> GraphData:
    """Equal-size-class block-model graph with orthogonal class mean features.

    round(n*avg_deg/2) edges are drawn with replacement, each intra-class
    with probability `homophily`, so the expected intra-class edge fraction
    equals it. Repeats are dropped, so the realized mean degree
    (`adjacency.nnz / n`) falls below `avg_deg` as it nears the block sizes.
    Features are the class mean (a unit basis vector) plus Gaussian noise.
    """
    if n < n_classes:
        raise ParameterError(f"need at least one node per class, got n={n}, classes={n_classes}")
    if n_classes < 1:
        raise ParameterError("n_classes must be positive")
    check_fraction("homophily", homophily, open_top=False)
    check_finite("avg_deg", avg_deg)
    check_finite("noise", noise)
    if avg_deg > n - 1:
        raise ParameterError(f"avg_deg must be at most n - 1 = {n - 1}, got {avg_deg}")
    if feat_dim < n_classes:
        raise ParameterError(f"feat_dim {feat_dim} cannot hold {n_classes} orthogonal class means")
    n_edges = int(round(n * avg_deg / 2.0))
    if n_edges and homophily > 0 and n == n_classes:
        raise ParameterError(f"homophily {homophily} draws intra-class edges, but each of the "
                             f"{n_classes} classes has a single node")
    if n_edges and homophily < 1 and n_classes == 1:
        raise ParameterError(f"homophily {homophily} draws inter-class edges, but there is "
                             "only one class")
    rng = seeded_rng(seed, 0x5B3)

    sizes = np.full(n_classes, n // n_classes, dtype=np.int64)
    sizes[: n % n_classes] += 1
    labels = np.repeat(np.arange(n_classes), sizes)
    starts, sizes = (np.cumsum(sizes) - sizes).tolist(), sizes.tolist()  # classes are runs of ids
    draws = _RawDraws(rng)
    double, below = draws.double, draws.below

    def pair(pop: int) -> tuple[int, int]:
        """`rng.choice(pop, 2, replace=False)` from the same draws: Floyd's algorithm, then a one-swap shuffle."""
        a, b = below(pop - 1), below(pop)
        b = pop - 1 if b == a else b
        return (b, a) if below(2) == 0 else (a, b)

    edges = []
    for _ in range(n_edges):
        if double() < homophily:
            cls = below(n_classes)
            while sizes[cls] < 2:
                cls = below(n_classes)
            a, b = pair(sizes[cls])
            edges.append((starts[cls] + a, starts[cls] + b))
        else:
            c1, c2 = pair(n_classes)
            edges.append((starts[c1] + below(sizes[c1]), starts[c2] + below(sizes[c2])))
    draws.hand_back()

    with np.errstate(over="ignore"):
        features = np.eye(n_classes, feat_dim)[labels] + noise * rng.standard_normal((n, feat_dim))
    if not np.isfinite(features).all():
        raise ParameterError(f"noise must keep the features finite, got {noise}")
    return GraphData(features=features, adjacency=build_csr(n, edges), labels=labels)


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

    def flags(self, n: int, name: str) -> np.ndarray:
        """`n` bytes that must each be 0 or 1, as bools."""
        raw = np.frombuffer(self.take(n), dtype=np.uint8)
        if (raw > 1).any():
            raise FormatError(f"checkpoint {name} byte is {raw.max()}, expected 0 or 1")
        return raw.astype(bool)

    def block(self) -> np.ndarray:
        rows, cols = self.unpack("<II")
        data = np.frombuffer(self.take(rows * cols * 8), dtype="<f8")
        if not np.isfinite(data).all():
            raise FormatError(f"checkpoint block {rows}x{cols} holds a non-finite value")
        return data.reshape(rows, cols).copy()


def save_checkpoint(path, ckpt: Checkpoint) -> None:
    """Little-endian binary layout with length-prefixed shape+data blocks."""
    parts = [CHECKPOINT_MAGIC, struct.pack("<I", CHECKPOINT_VERSION),
             struct.pack("<Iqd", ckpt.params.hidden_dim, ckpt.seed, ckpt.tau)]
    blocks = [ckpt.params[name] for name in PARAM_NAMES]
    parts.append(struct.pack("<I", len(blocks)))
    parts.extend(_pack_block(b) for b in blocks)
    if ckpt.prompt is None:
        parts.append(struct.pack("<B", 0))
    else:
        p = ckpt.prompt
        parts.append(struct.pack("<BB", 1, 1 if p.task == "graph" else 0))
        parts.append(_pack_block(p.proto_features))
        parts.append(_pack_block(p.weight_rows))
        mask = np.asarray(p.trainable_row_mask, dtype=np.uint8)
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
    if hidden_dim < 1:
        raise FormatError(f"checkpoint header gives hidden_dim {hidden_dim}, expected at least 1")
    try:
        check_tau(tau)
    except ParameterError as err:
        raise FormatError(f"checkpoint header: {err}") from None
    (n_blocks,) = reader.unpack("<I")
    if n_blocks != 8:
        raise FormatError(f"expected 8 encoder blocks, found {n_blocks}")
    blocks = [reader.block() for _ in range(n_blocks)]
    widths = sorted({b.shape[1] for b in blocks})
    if widths != [hidden_dim]:
        raise FormatError(f"checkpoint header gives hidden_dim {hidden_dim}, but its encoder "
                          f"blocks are {'/'.join(map(str, widths))} columns wide")
    # W1 is F x h with one F for both views, W2 is h x h and each bias 1 x h
    for name, block, rows in zip(PARAM_NAMES, blocks, [blocks[0].shape[0], 1, hidden_dim, 1] * 2):
        if block.shape[0] != rows:
            raise FormatError(f"checkpoint encoder block {name} is {block.shape[0]}x{hidden_dim}, "
                              f"expected {rows}x{hidden_dim}")
    params = EncoderParams(zip(PARAM_NAMES, blocks))
    prompt = None
    if reader.flags(1, "has-prompt")[0]:
        graph_task = reader.flags(1, "task")[0]
        proto_features, weights = reader.block(), reader.block()
        (mask_len,) = reader.unpack("<I")
        if mask_len != len(weights):
            raise FormatError(f"prompt mask has {mask_len} entries for {len(weights)} weight rows")
        # one prototype row per weight column, as wide as the features W1 takes
        if proto_features.shape != (weights.shape[1], blocks[0].shape[0]):
            raise FormatError("prompt prototype features are {}x{} for {}x{} weights and a {}x{} "
                              "encoder W1".format(*proto_features.shape, *weights.shape, *blocks[0].shape))
        mask = reader.flags(mask_len, "trainable-mask")
        prompt = PromptedGraph(task="graph" if graph_task else "node", proto_features=proto_features,
                               weight_rows=weights, trainable_row_mask=mask)
    if reader.pos != len(reader.blob):
        raise FormatError(f"checkpoint has {len(reader.blob) - reader.pos} trailing bytes")
    return Checkpoint(tau=tau, seed=seed, params=params, prompt=prompt)


# ---------------------------------------------------------------------------
# weight matrix export


def export_weight_matrix(w: np.ndarray, labels, path) -> None:
    """Tab-separated dump of the learned node-to-prototype weights.

    Columns: node index, label (-1 when labels are absent), then one
    full-precision weight per prototype.
    """
    n, c = w.shape
    lab = np.full(n, -1, dtype=np.int64) if labels is None \
        else np.asarray(labels, dtype=np.int64).ravel()
    if lab.size != n:
        raise DataError(f"{lab.size} labels for {n} weight rows")
    header = ["node", "label"] + [f"w_{j}" for j in range(c)]
    write_table(path, [header] + [[i, label, *row] for i, (label, row)
                                  in enumerate(zip(lab.tolist(), w.tolist()))])

