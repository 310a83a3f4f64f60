"""Golden outputs of a fixed desk-scale chain of `psp` runs.

The chain runs in process through `psp.cli.run`: three block-model node
datasets (N=300 at homophily 0.8 and 0.2, N=3000 at 0.8) and a 60-graph batch
in the TU layout each go through pretrain, tune, eval (both variants) and
export-w; then a 4-fit node sweep and a 4-fit graph sweep run. The N=3000
dataset pretrains 2 epochs and tunes 20 with dropout 0.2. `GOLDEN.json`
holds the sha256 of every file the chain writes, plus the numbers behind
them: loss logs, accuracies and sweep selections.

The digests hold only on a machine whose fingerprint (CPU model, numpy's
BLAS build, BLAS thread count) matches the file's, because BLAS may round
differently elsewhere. `differences` therefore compares digests on a
matching machine, and elsewhere the losses within 1e-12 and the accuracies
and selections exactly; `comparison` says which of the two ran, and the
script prints it before its verdict.

    python tests/golden.py            # rerun the chain and report differences
    python tests/golden.py --update   # rewrite tests/golden/GOLDEN.json

Before it rewrites the file, `--update` prints what it replaces
(`update_summary`): the comparison, each difference and the largest loss
difference, so a change of bits shows at a glance whether only digests moved.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from psp.cli import run  # noqa: E402
from psp.parallel import blas_threads  # noqa: E402

GOLDEN = Path(__file__).resolve().parent / "golden" / "GOLDEN.json"
LOSS_TOLERANCE = 1e-12
TU_NAME = "DESK"
SWEEP_FLAGS = ["--lr-grid", "0.001,0.01", "--weight-decay-grid", "0.0001", "--dropout-grid", "0.2",
               "--seeds", "0,1", "--epochs", "10"]


def fingerprint() -> dict:
    """What the digests depend on besides the code: CPU model, BLAS build and thread count."""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        cpu = platform.processor() or platform.machine()
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"cpu": cpu, "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
            "blas_threads": blas_threads()}


def write_tu_batch(directory: Path) -> None:
    """60 graphs of 5-10 nodes under the prefix DESK, no node attributes: a path
    through every graph, plus each other pair joined with probability 0.05
    (class -1) or 0.9 (class 1)."""
    rng = np.random.default_rng(60)
    directory.mkdir()
    edges, indicator, labels = [], [], []
    for gid in range(60):
        size, dense = int(rng.integers(5, 11)), gid % 2
        first = len(indicator)
        indicator += [gid + 1] * size
        labels.append(1 if dense else -1)
        for a in range(size):
            for b in range(a + 1, size):
                if b == a + 1 or rng.random() < (0.9 if dense else 0.05):
                    edges += [(first + a + 1, first + b + 1), (first + b + 1, first + a + 1)]
    (directory / f"{TU_NAME}_A.txt").write_text("".join(f"{a}, {b}\n" for a, b in edges))
    (directory / f"{TU_NAME}_graph_indicator.txt").write_text("".join(f"{g}\n" for g in indicator))
    (directory / f"{TU_NAME}_graph_labels.txt").write_text("".join(f"{v}\n" for v in labels))


def _psp(*argv) -> str:
    """Run one `psp` command in process; returns its stdout, fails on a non-zero exit."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run([str(a) for a in argv])
    if code != 0:
        raise RuntimeError(f"psp {' '.join(map(str, argv))} exited {code}:\n{err.getvalue()}")
    return out.getvalue()


def _losses(path: Path) -> list[float]:
    return [float(line.split("\t")[1]) for line in path.read_text().splitlines()]


def _digests(root: Path) -> dict:
    return {path.relative_to(root).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(root.rglob("*")) if path.is_file()}


def _stages(root: Path, name: str, data: list, losses: dict, accuracies: dict,
            pretrain: list, tune: list) -> None:
    """pretrain, tune, eval in both variants and export-w on one dataset."""
    ckpt, bundle = root / f"{name}.ckpt", root / f"{name}.tuned.ckpt"
    _psp("pretrain", *data, "--out", ckpt, *pretrain)
    _psp("tune", *data, "--ckpt", ckpt, "--out", bundle, *tune)
    losses[f"{name}.pretrain"] = _losses(Path(f"{ckpt}.loss.tsv"))
    losses[f"{name}.tune"] = _losses(Path(f"{bundle}.loss.tsv"))
    for variant in ("psp", "psp-np"):
        line = _psp("eval", *data, "--ckpt", bundle, "--variant", variant)
        accuracies[f"{name}.eval.{variant}"] = float(line.split("\t")[4])
    _psp("export-w", *data[:4], "--ckpt", bundle, "--out", root / f"{name}.w.tsv")


def run_chain(root: Path) -> dict:
    """Run the chain under `root` (an empty directory) and return its record."""
    root = Path(root)
    _psp("synth", "--n", 300, "--h", 0.8, "--seed", 0, "--out", root / "nodes-h0.8")
    _psp("synth", "--n", 300, "--h", 0.2, "--seed", 0, "--out", root / "nodes-h0.2")
    _psp("synth", "--n", 3000, "--seed", 0, "--out", root / "nodes-n3000")
    write_tu_batch(root / "tu")
    datasets = {"nodes-h0.8": ["--data", root / "nodes-h0.8"],
                "nodes-h0.2": ["--data", root / "nodes-h0.2"],
                "tu": ["--data", root / "tu", "--tu-name", TU_NAME, "--task", "graph"],
                "nodes-n3000": ["--data", root / "nodes-n3000"]}
    stage_flags = {"nodes-n3000": (["--epochs", 2], ["--epochs", 20, "--dropout", 0.2])}
    losses, accuracies, selections = {}, {}, {}
    for name, data in datasets.items():
        _stages(root, name, data, losses, accuracies,
                *stage_flags.get(name, (["--epochs", 10], ["--epochs", 20])))
    for name, ckpt in (("nodes-h0.2", "nodes-h0.2.ckpt"), ("tu", "tu.ckpt")):
        lines = _psp("sweep", *datasets[name], "--ckpt", root / ckpt, *SWEEP_FLAGS).splitlines()
        selections[f"{name}.sweep"] = lines[0]
        accuracies[f"{name}.sweep.test"] = [float(line.split("\t")[4]) for line in lines[1:-1]]
    return {"fingerprint": fingerprint(), "digests": _digests(root), "losses": losses,
            "accuracies": accuracies, "selections": selections}


def fingerprint_differences(got: dict, want: dict) -> list[str]:
    """The fingerprint fields in which the rerun `got` departs from the record
    `want`, each with both values (empty: digests are comparable)."""
    mine, theirs = got["fingerprint"], want["fingerprint"]
    return [f"{k} ({mine.get(k)!r} here, {theirs.get(k)!r} recorded)"
            for k in sorted(mine.keys() | theirs.keys()) if mine.get(k) != theirs.get(k)]


def comparison(got: dict, want: dict) -> str:
    """Which check `differences` makes of `got` against `want`, in one line."""
    fields = fingerprint_differences(got, want)
    if not fields:
        return "compared every digest: the machine fingerprint matches the record"
    return (f"compared values within {LOSS_TOLERANCE:g} and exact accuracies and selections, "
            f"not digests: the fingerprint differs in {'; '.join(fields)}")


def differences(got: dict, want: dict) -> list[str]:
    """Where the rerun `got` departs from the golden record `want` (empty: none)."""
    found = []
    if not fingerprint_differences(got, want):
        found += [f"digest of {k}: {got['digests'].get(k)} != {v}"
                  for k, v in want["digests"].items() if got["digests"].get(k) != v]
        found += [f"unrecorded file {k}" for k in got["digests"].keys() - want["digests"].keys()]
    for key, values in want["losses"].items():
        mine = got["losses"].get(key, [])
        if len(mine) != len(values) or not all(
                math.isclose(a, b, rel_tol=LOSS_TOLERANCE, abs_tol=LOSS_TOLERANCE)
                for a, b in zip(mine, values)):
            found.append(f"losses {key}: {mine} != {values}")
    for section in ("accuracies", "selections"):
        found += [f"{section} {k}: {got[section].get(k)!r} != {v!r}"
                  for k, v in want[section].items() if got[section].get(k) != v]
    return found


def update_summary(got: dict, want: dict) -> list[str]:
    """What rewriting the record `want` with `got` replaces: the comparison
    made, each difference, and the largest loss difference with its log."""
    gaps = [(abs(a - b), key) for key, values in want["losses"].items()
            for a, b in zip(got["losses"].get(key, []), values)]
    gap, key = max(gaps, default=(0.0, None))
    return [comparison(got, want), *(differences(got, want) or ["golden outputs match"]),
            f"largest loss difference: {gap:.3g}" + (f" ({key})" if gap else "")]


def main(argv) -> int:
    with tempfile.TemporaryDirectory() as root:
        got = run_chain(Path(root))
    if "--update" in argv:
        if GOLDEN.exists():
            print("\n".join(update_summary(got, json.loads(GOLDEN.read_text()))))
        GOLDEN.parent.mkdir(exist_ok=True)
        GOLDEN.write_text(json.dumps(got, indent=1, sort_keys=True) + "\n")
        print(f"wrote {GOLDEN}")
        return 0
    want = json.loads(GOLDEN.read_text())
    found = differences(got, want)
    print(comparison(got, want))
    print("\n".join(found) or "golden outputs match")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
