"""Seeded input generators for the benchmark.

Everything the program reads is written here from a seed: node datasets in
the TSV triple that `psp synth` writes, and graph batches in the TU text
layout, which `psp` reads but cannot write. Floats are written with `repr`,
so every value reads back bit for bit.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np


def sbm_graph(n: int, n_classes: int, homophily: float, avg_deg: float,
              feat_dim: int, noise: float, rng: np.random.Generator):
    """Block-model graph with equal-size classes laid out in contiguous runs.

    Returns (labels, edges, features); `edges` holds unique undirected pairs
    with src < dst. Each sampled edge is intra-class with probability
    `homophily`, and features are the class's unit basis vector plus noise.
    """
    sizes = np.full(n_classes, n // n_classes, dtype=np.int64)
    sizes[: n % n_classes] += 1
    offsets = np.concatenate([[0], np.cumsum(sizes)])
    labels = np.repeat(np.arange(n_classes), sizes)

    m = int(round(n * avg_deg / 2.0))
    src = rng.integers(n, size=m)
    cls = labels[src]
    size = sizes[cls]
    intra = rng.random(m) < homophily
    # intra: a different member of the same class; inter: any member of another class
    step = 1 + rng.integers(np.maximum(size - 1, 1))
    intra_dst = offsets[cls] + (src - offsets[cls] + step) % size
    other = (cls + 1 + rng.integers(max(n_classes - 1, 1), size=m)) % n_classes
    inter_dst = offsets[other] + rng.integers(sizes[other])
    dst = np.where(intra, intra_dst, inter_dst)
    pairs = np.stack([np.minimum(src, dst), np.maximum(src, dst)], axis=1)
    edges = np.unique(pairs[pairs[:, 0] != pairs[:, 1]], axis=0)

    features = np.eye(n_classes, feat_dim)[labels] + noise * rng.standard_normal((n, feat_dim))
    return labels, edges, features


def _float_rows(rows: np.ndarray, sep: str) -> str:
    return "".join(sep.join(map(repr, row)) + "\n" for row in rows.tolist())


def write_node_dataset(directory, labels, edges, features) -> None:
    """The TSV triple: edges.tsv (0-based src<TAB>dst), features.tsv, labels.tsv."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    (directory / "edges.tsv").write_text(
        "".join(f"{s}\t{d}\n" for s, d in edges.tolist()), encoding="utf-8")
    (directory / "features.tsv").write_text(_float_rows(features, "\t"), encoding="utf-8")
    (directory / "labels.tsv").write_text(
        "".join(f"{c}\n" for c in labels.tolist()), encoding="utf-8")


def write_sbm_dataset(directory, n: int, seed: int, n_classes: int = 3, homophily: float = 0.8,
                      avg_deg: float = 2.5, feat_dim: int = 64, noise: float = 0.5) -> None:
    """A node dataset with the `psp synth` defaults, drawn from `seed`."""
    rng = np.random.default_rng([seed, n])
    write_node_dataset(directory, *sbm_graph(n, n_classes, homophily, avg_deg,
                                             feat_dim, noise, rng))


def _write_tu_edges(path: Path, edges) -> None:
    """`NAME_A.txt`: both directions of every 0-based undirected pair, 1-based."""
    edges = np.asarray(edges, dtype=np.int64) + 1
    both = np.concatenate([edges, edges[:, ::-1]])
    both = both[np.lexsort((both[:, 1], both[:, 0]))]
    path.write_text("".join(f"{s}, {d}\n" for s, d in both.tolist()), encoding="utf-8")


def write_tu_dataset(directory, name: str, graph_of, graph_labels, edges, features) -> None:
    """Write the TU text layout; `graph_of` maps each node to a 0-based graph id."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    _write_tu_edges(directory / f"{name}_A.txt", edges)
    (directory / f"{name}_graph_indicator.txt").write_text(
        "".join(f"{g + 1}\n" for g in np.asarray(graph_of).tolist()), encoding="utf-8")
    (directory / f"{name}_graph_labels.txt").write_text(
        "".join(f"{c + 1}\n" for c in np.asarray(graph_labels).tolist()), encoding="utf-8")
    (directory / f"{name}_node_attributes.txt").write_text(
        _float_rows(np.asarray(features), ", "), encoding="utf-8")


def write_tu_batch(directory, name: str, seed: int, n_graphs: int = 60, nodes_per_graph: int = 5,
                   n_classes: int = 3, feat_dim: int = 64, noise: float = 0.5) -> None:
    """A batch of small graphs for the graph task.

    Each graph is a ring plus one random edge; its class sets the mean of
    its node attributes. Classes are balanced and shuffled over graph ids.
    """
    rng = np.random.default_rng([seed, n_graphs, nodes_per_graph])
    graph_labels = rng.permutation(np.arange(n_graphs) % n_classes)
    graph_of = np.repeat(np.arange(n_graphs), nodes_per_graph)
    local = np.arange(nodes_per_graph)
    ring = np.stack([local, (local + 1) % nodes_per_graph], axis=1)
    edges = []
    for g in range(n_graphs):
        a, b = rng.choice(nodes_per_graph, size=2, replace=False)
        chord = np.array([[a, b]])
        pairs = np.concatenate([ring, chord]) + g * nodes_per_graph
        edges.append(np.stack([pairs.min(axis=1), pairs.max(axis=1)], axis=1))
    edges = np.unique(np.concatenate(edges), axis=0)
    means = np.eye(n_classes, feat_dim)[graph_labels[graph_of]]
    features = means + noise * rng.standard_normal((graph_of.size, feat_dim))
    write_tu_dataset(directory, name, graph_of, graph_labels, edges, features)


def node_dataset_to_tu(node_dir, tu_dir, name: str) -> None:
    """Re-write a node dataset as a one-graph TU dataset of the same graph.

    Feature tokens are copied as text, so both layouts hold identical values.
    """
    node_dir = Path(node_dir)
    edges = np.loadtxt(node_dir / "edges.tsv", dtype=np.int64, delimiter="\t", ndmin=2)
    labels = (node_dir / "labels.tsv").read_text(encoding="utf-8")
    n = labels.count("\n")
    tu_dir = Path(tu_dir)
    tu_dir.mkdir(parents=True, exist_ok=True)
    _write_tu_edges(tu_dir / f"{name}_A.txt", edges)
    (tu_dir / f"{name}_graph_indicator.txt").write_text("1\n" * n, encoding="utf-8")
    (tu_dir / f"{name}_graph_labels.txt").write_text("1\n", encoding="utf-8")
    (tu_dir / f"{name}_node_labels.txt").write_text(labels, encoding="utf-8")
    features = (node_dir / "features.tsv").read_text(encoding="utf-8")
    (tu_dir / f"{name}_node_attributes.txt").write_text(
        features.replace("\t", ", "), encoding="utf-8")
