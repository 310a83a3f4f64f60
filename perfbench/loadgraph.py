"""Load stage of the ingest workload, run as its own process with `src` on
PYTHONPATH.

    python perfbench/loadgraph.py load NODE_DIR TU_DIR TU_NAME
    python perfbench/loadgraph.py reference N SEED

`load` reads a node TSV dataset and a TU dataset of the same graph through
psp's loaders, timing each, and prints the times and a digest of each graph
as one JSON line. `reference` prints the digest of the graph `psp synth`
generates with its default flags for N and SEED, which the loaded graphs must
match.
"""

from __future__ import annotations

import hashlib
import json
import sys
import time

import numpy as np


def digest(g) -> dict:
    """Node count, stored adjacency entries and a hash of the feature bytes."""
    features = np.ascontiguousarray(getattr(g.features, "data", g.features), dtype=np.float64)
    return {"n_nodes": int(g.n_nodes), "nnz": int(g.adjacency.nnz),
            "features_sha256": hashlib.sha256(features.tobytes()).hexdigest()}


def load_both(node_dir, tu_dir, tu_name) -> dict:
    from psp import data  # looked up at call time, so traced bindings apply

    start = time.perf_counter()
    node = data.load_node_dataset(node_dir)
    node_s = time.perf_counter() - start
    start = time.perf_counter()
    tu = data.load_tu_dataset(tu_dir, tu_name)
    tu_s = time.perf_counter() - start
    return {"node_s": node_s, "tu_s": tu_s, "node": digest(node), "tu": digest(tu)}


def reference(n: int, seed: int) -> dict:
    from psp import data
    from psp.cli import build_parser

    flags = build_parser().parse_args(["synth", "--n", str(n), "--seed", str(seed), "--out", "-"])
    g = data.generate_sbm(flags.n, flags.classes, flags.homophily, flags.avg_deg,
                          flags.feat_dim, flags.noise, flags.seed)
    return digest(g)


def main(argv) -> int:
    if len(argv) == 4 and argv[0] == "load":
        print(json.dumps(load_both(*argv[1:])))
    elif len(argv) == 3 and argv[0] == "reference":
        print(json.dumps(reference(int(argv[1]), int(argv[2]))))
    else:
        print(__doc__, file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
