"""A seeded batch of small graphs for the graph task, in the TU text layout.

    write_ring_chord_batch(directory, name, seed)

Every graph is a ring of `nodes_per_graph` nodes plus `chords_per_class * c`
random chords for its class c, so the classes differ in density. Each node's
attributes are its graph's class mean (one-hot of the class) plus Gaussian
noise. Classes are balanced and shuffled over graph ids.
"""

from pathlib import Path

import numpy as np


def write_ring_chord_batch(directory, name: str, seed: int, n_graphs: int = 120,
                           nodes_per_graph: int = 8, n_classes: int = 3, chords_per_class: int = 3,
                           feat_dim: int = 64, noise: float = 1.0) -> None:
    rng = np.random.default_rng([seed, 0x7B47])
    graph_labels = rng.permutation(np.arange(n_graphs) % n_classes)
    graph_of = np.repeat(np.arange(n_graphs), nodes_per_graph)
    local = np.arange(nodes_per_graph)
    ring = np.stack([local, (local + 1) % nodes_per_graph], axis=1)
    pairs = []
    for g, c in enumerate(graph_labels.tolist()):
        chords = rng.integers(0, nodes_per_graph, size=(chords_per_class * c, 2))
        pairs.append(np.concatenate([ring, chords]) + g * nodes_per_graph)
    pairs = np.concatenate(pairs)
    pairs = pairs[pairs[:, 0] != pairs[:, 1]]
    features = np.eye(n_classes, feat_dim)[graph_labels[graph_of]]
    features += noise * rng.standard_normal(features.shape)
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    edges = np.concatenate([pairs, pairs[:, ::-1]]) + 1  # both directions, 1-based
    (directory / f"{name}_A.txt").write_text("".join(f"{s}, {d}\n" for s, d in edges.tolist()))
    (directory / f"{name}_graph_indicator.txt").write_text("".join(f"{g + 1}\n" for g in graph_of.tolist()))
    (directory / f"{name}_graph_labels.txt").write_text("".join(f"{c + 1}\n" for c in graph_labels.tolist()))
    (directory / f"{name}_node_attributes.txt").write_text(
        "".join(", ".join(map(repr, row)) + "\n" for row in features.tolist()))
