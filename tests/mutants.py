"""The mutant table: which tier-1 test kills each one-line mutant of `src/psp`.

    python tests/mutants.py            # every mutant; rewrites tests/golden/MUTANTS.json
    python tests/mutants.py NAME ...   # the named mutants; prints, writes nothing

Each mutant replaces one fragment of one line of a file in a copy of `src/`,
`tests/`, `perfbench/` and `pyproject.toml` in a temporary directory, and runs
tier-1 there with `-x`, the end-to-end golden and acceptance modules last, so
that the first failure names the narrowest test. A mutant that no test fails
is recorded as SURVIVED: it needs a test that kills it, or a reason why it is
equivalent. All twenty-three take about 3.5 minutes on two cores.
"""

import json
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TABLE = ROOT / "tests" / "golden" / "MUTANTS.json"

# name: (file in src/psp, fragment, replacement); the fragment occurs once in its file
MUTANTS = {
    "infonce-positive-in-denominator": ("autodiff.py", "logits[at_pos] = -np.inf", "logits[at_pos] += 0.0"),
    "no-symmetry-check": ("graph.py", "if asym.nnz and asym.max() > 0:", "if False:"),
    "prototype-self-loop-2": ("prompt.py", "keepdims=True) + 1.0", "keepdims=True) + 2.0"),
    "edge-init-through-abs": ("prompt.py", "return z2 @ class_mean_rows", "return np.abs(z2) @ class_mean_rows"),
    "adam-no-first-moment-bias-correction": ("autodiff.py", "state.lr * (new_m[name] / bc1)",
                                             "state.lr * new_m[name]"),
    "prompted-dropout-unscaled": ("prompt.py", "scale = 1.0 / (1.0 - dropout_rate)", "scale = 1.0"),
    "gcn-degree-floor-1.5": ("graph.py", "degree.ravel(), 1e-12", "degree.ravel(), 1.5"),
    "prompted-leaky-relu": ("prompt.py", "np.maximum(h_b, 0.0, out=h_b)", "np.maximum(h_b, 0.01 * h_b, out=h_b)"),
    "sweep-keeps-last-tie": ("cli.py", "mean_val > best[0]", "mean_val >= best[0]"),
    "pretrain-swaps-views-b1-grads": ("pretrain.py", "del g1, g2",
                                      'grads["mlp_b1"], grads["gnn_b1"] = grads["gnn_b1"], grads["mlp_b1"]'),
    "prompt-grad-ignores-row-mask": ("prompt.py", "return gw * mask[:, None]", "return gw"),
    "step-takes-a-non-finite-loss": ("autodiff.py", "if not np.isfinite(loss):", "if False:"),
    "patience-one-epoch-late": ("prompt.py", ">= cfg.patience", "> cfg.patience"),
    "adam-refusal-without-epoch-and-loss": ("autodiff.py", 'f"{err} at epoch {epoch}, loss {loss}"', 'f"{err}"'),
    "encoder-vjp-drops-dropout-scale": ("encoders.py", "gh *= scale", "gh *= 1.0"),
    "infonce-gradient-without-one-hot": ("autodiff.py", "logits[at_pos] -= 1.0", "logits[at_pos] -= 0.0"),
    "prompted-vjp-degree-term-without-deg-b": ("prompt.py", "gs_b * s_b / deg_b", "gs_b * s_b"),
    "patience-zero-accepted": ("prompt.py", "if self.patience < 1:", "if self.patience < 0:"),
    "adam-moments-by-position": ("autodiff.py", "old_m[name], old_v[name]",
                                 "*(list(o.values())[list(params).index(name)] for o in (old_m, old_v))"),
    "seed-unbounded": ("autodiff.py", "if not -(1 << 63) <= seed < 1 << 63:", "if False:"),
    "run-skips-the-seed-check": ("cli.py", "check_seed(args.seed)", "pass"),
    "numpy-testing-and-f2py-not-deferred": ("__init__.py", '_DEFERRED = ("numpy.testing", "numpy.f2py")',
                                            "_DEFERRED = ()"),
    "deferral-replaces-a-loaded-module": ("__init__.py", "if _name not in sys.modules:", "if True:"),
}


def run(name: str, tmp: Path) -> dict:
    """Apply mutant `name` to a fresh copy of the repository under `tmp` and
    run tier-1 on it: the mutant's row of the table."""
    file, fragment, replacement = MUTANTS[name]
    work = tmp / name
    for part in ("src", "tests", "perfbench"):
        shutil.copytree(ROOT / part, work / part, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "pyproject.toml", work)
    path = work / "src" / "psp" / file
    text = path.read_text(encoding="utf-8")
    if text.count(fragment) != 1:
        raise SystemExit(f"{name}: {fragment!r} occurs {text.count(fragment)} times in {file}")
    path.write_text(text.replace(fragment, replacement), encoding="utf-8")
    end_to_end = ("test_golden.py", "test_acceptance.py")
    tests = sorted((work / "tests").glob("test_*.py"), key=lambda p: (p.name in end_to_end, p.name))
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "pytest", "-x", "-q", "-rfE", "-p", "no:cacheprovider",
                           *(str(p.relative_to(work)) for p in tests)],
                          cwd=work, capture_output=True, text=True)
    failed = [line.split()[1] for line in proc.stdout.splitlines() if line.startswith(("FAILED ", "ERROR "))]
    row = {"file": f"src/psp/{file}", "from": fragment, "to": replacement,
           "killed_by": failed[0] if failed else "SURVIVED"}
    print(f"{name}: {row['killed_by']} ({time.perf_counter() - start:.1f} s)", flush=True)
    return row


def main(names: list[str]) -> int:
    unknown = sorted(set(names) - set(MUTANTS))
    if unknown:
        raise SystemExit(f"unknown mutants {unknown}; known: {sorted(MUTANTS)}")
    with tempfile.TemporaryDirectory() as tmp:
        table = {name: run(name, Path(tmp)) for name in names or MUTANTS}
    if not names:
        TABLE.write_text(json.dumps(table, indent=1) + "\n", encoding="utf-8")
    return sum(row["killed_by"] == "SURVIVED" for row in table.values())


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
