"""The benchmark's traced mode wraps psp functions by name (`perfbench/probes.py`
`PROBES`); a probe whose name no longer resolves is skipped and its metric
silently reads 0. These tests read the probe table without importing the
benchmark and check every name against the package."""

import ast
import importlib
import inspect
from pathlib import Path

PROBES_PY = Path(__file__).resolve().parent.parent / "perfbench" / "probes.py"

# probes of functions that were deleted or renamed; NormalizedPromptOperator
# moved to the test oracles as `prompted_apply`, and no CLI path ran it; the
# tape's `backward` moved there too, as each training step chains its VJPs by hand
STALE = {("psp.graph", "augment_prompted"), ("psp.graph", "normalize_prompted"),
         ("psp.prompt", "graph_task_views"), ("psp.inference", "np_prototypes"),
         ("psp.graph", "NormalizedPromptOperator.apply"), ("psp.autodiff", "backward")}


def _probes() -> list[tuple]:
    tree = ast.parse(PROBES_PY.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "PROBES"
                                                for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no PROBES table in {PROBES_PY}")


def _resolve(module_name: str, path: str):
    target = importlib.import_module(module_name)
    for part in path.split("."):
        target = getattr(target, part)
    return target


def test_every_probed_function_resolves():
    probes = _probes()
    assert probes
    unresolved = set()
    for module_name, path, *_ in probes:
        try:
            _resolve(module_name, path)
        except AttributeError:
            unresolved.add((module_name, path))
    assert unresolved <= STALE, f"probes name missing functions: {sorted(unresolved - STALE)}"


def test_by_mode_probes_keep_a_mode_parameter():
    by_mode = [(m, p) for m, p, _, split, _ in _probes() if split]
    assert by_mode
    for module_name, path in by_mode:
        fn = _resolve(module_name, path)
        assert "mode" in inspect.signature(fn).parameters, f"{module_name}.{path} lost `mode`"
