"""`src/psp` holds no unreachable code: every module-level function, class and
assignment is reached from what `psp/__init__` imports, or from `psp.cli.main`,
by following names through module bodies and the package's relative imports.
Code that only tests use belongs in `tests/oracles.py`. A helper that another
module imports has a public name: no `from .x import _y`."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "psp"


def unreached_names() -> list[str]:
    defs, links, stack = {}, {}, [("cli", "main")]
    for path in SRC.glob("*.py"):
        module = path.stem
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                links.update({(module, a.asname or a.name): (node.module, a.name) for a in node.names})
            elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs[(module, node.name)] = node
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defs.update({(module, n.id): node for t in targets for n in ast.walk(t)
                             if isinstance(n, ast.Name)})
            elif not isinstance(node, ast.Import):  # runs at import and defines nothing
                stack += [(module, n.id) for n in ast.walk(node) if isinstance(n, ast.Name)]
    stack += [key for key in {**defs, **links} if key[0] == "__init__"]
    seen = set()
    while stack:
        key = stack.pop()
        if key not in seen:
            seen.add(key)
            if key in links:
                stack.append(links[key])
            elif key in defs:
                stack += [(key[0], n.id) for n in ast.walk(defs[key]) if isinstance(n, ast.Name)]
    return sorted(f"{module}.{name}" for module, name in defs.keys() - seen)


def test_every_module_level_name_in_src_is_reached():
    unreached = unreached_names()
    assert not unreached, f"nothing in psp reaches {unreached}"


def test_no_module_imports_a_private_name_of_another():
    private = [f"{path.stem}: from .{node.module} import {a.name}" for path in SRC.glob("*.py")
               for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
               if isinstance(node, ast.ImportFrom) and node.level == 1
               for a in node.names if a.name.startswith("_")]
    assert not private, f"helpers used across modules need public names: {private}"
