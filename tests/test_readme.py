"""README.md names only what the code has.

Each check reads the README's code spans, and `foreign_flags` its fenced code
blocks too, and returns what it could not match in the code:

- `unresolved_names`: a `psp.<module>[.<name>...]` that import plus getattr
  does not reach;
- `undefined_calls`: a `name(` that is no `def` or `class` in `src/psp`;
- `foreign_flags`: a `--flag` that the tool it is documented for does not
  accept. A span that starts with a tool (`psp sweep`, `tune`,
  `python tests/golden.py`, `pip`) sets the tool for itself and for the
  rest of its paragraph, bullet or table row; a flag before any tool must
  belong to some `psp` command. A script's flags are its `add_argument`
  calls and the flags it compares argv against, read with `ast`;
- `wrong_defaults`: a row of the flags table that does not give each
  command's flag and default as `build_parser()` has them.
"""

import argparse
import ast
import functools
import importlib
import re
from pathlib import Path

import pytest

from psp.cli import build_parser

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"
SRC = ROOT / "src" / "psp"
# flags of tools outside the repository that the README may name
EXTERNAL_FLAGS = {"pip": {"--no-build-isolation"}, "pytest": set()}
FLAG = re.compile(r"(?<![\w-])--[a-z][a-z0-9-]*")
FENCE = re.compile(r"^```[^\n]*\n(.*?)^```", re.S | re.M)
SPAN = re.compile(r"`([^`]+)`")


@functools.cache
def _commands() -> dict[str, argparse.ArgumentParser]:
    action = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return dict(action.choices)


def _options(parser: argparse.ArgumentParser) -> dict[str, argparse.Action]:
    return {s: a for a in parser._actions for s in a.option_strings if s not in ("-h", "--help")}


@functools.cache
def _script_flags(path: Path) -> set[str]:
    flags = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "add_argument":
            args = node.args
        elif isinstance(node, ast.Compare):  # `"--update" in argv`
            args = [node.left]
        else:
            continue
        flags |= {a.value for a in args if isinstance(a, ast.Constant) and FLAG.fullmatch(str(a.value))}
    return flags


def _blocks(text: str) -> list[list[str]]:
    """The code spans of each paragraph, bullet and table row, and each
    command of a fenced block as a span of its own block."""
    blocks = [[" ".join(cmd.split())] for body in FENCE.findall(text)
              for cmd in body.replace("\\\n", " ").splitlines() if cmd.strip() and not cmd.startswith("#")]
    chunks, current = [], []
    for line in FENCE.sub("", text).splitlines():
        if not line.strip() or line.startswith(("- ", "|", "#")):
            chunks.append("\n".join(current))
            current = []
        current.append(line)
    chunks.append("\n".join(current))
    return blocks + [[" ".join(s.split()) for s in SPAN.findall(chunk)] for chunk in chunks]


def _spans(text: str) -> list[str]:
    """The code spans outside the fenced blocks, whose fences would pair up as spans."""
    return SPAN.findall(FENCE.sub("", text))


def _tool(span: str, commands) -> tuple[str, set[str]] | None:
    """The tool a span starts with and the flags it accepts, or None."""
    words = span.split()
    if words[0] in ("python", "python3"):  # `python -m pytest` is pytest, `python x.py` is x.py
        words = words[2:] if words[1:3] == ["-m", "pytest"] else words[1:]
    if words[:1] == ["psp"]:
        words = words[1:]
    if not words:
        return None
    if words[0] in commands:
        return words[0], set(_options(commands[words[0]]))
    if words[0] in EXTERNAL_FLAGS:
        return words[0], EXTERNAL_FLAGS[words[0]]
    if words[0].endswith(".py") and (ROOT / words[0]).is_file():
        return words[0], _script_flags(ROOT / words[0])
    return None


def unresolved_names(text: str) -> list[str]:
    missing = []
    for span in _spans(text):
        for dotted in re.findall(r"(?<![\w.])psp(?:\.[A-Za-z_]\w*)+", span):
            parts = dotted.split(".")
            for i in range(len(parts), 0, -1):
                try:
                    obj = importlib.import_module(".".join(parts[:i]))
                    break
                except ModuleNotFoundError:
                    continue
            try:
                for name in parts[i:]:
                    obj = getattr(obj, name)
            except AttributeError:
                missing.append(dotted)
    return missing


@functools.cache
def _defined() -> set[str]:
    return {node.name for path in SRC.glob("*.py") for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))}


def undefined_calls(text: str) -> list[str]:
    return [name for span in _spans(text) for name in re.findall(r"([A-Za-z_]\w*)\(", span)
            if name not in _defined()]


def foreign_flags(text: str) -> list[str]:
    commands = _commands()
    any_command = set().union(*(_options(p) for p in commands.values()))
    wrong = [f"{flag} outside a code span" for flag in FLAG.findall(SPAN.sub("", FENCE.sub("", text)))]
    for spans in _blocks(text):
        tool, accepted = "psp", any_command
        for span in spans:
            tool, accepted = _tool(span, commands) or (tool, accepted)
            wrong += [f"{tool} {flag}" for flag in FLAG.findall(span) if flag not in accepted]
    return wrong


def wrong_defaults(text: str) -> list[str]:
    """Cells: a backticked default, `required`, — where the command has no such
    flag, or words for a default the parser leaves as None."""
    rows = [[c.strip() for c in line.strip().strip("|").split("|")]
            for line in text.splitlines() if line.startswith("| ")]
    header = next(i for i, row in enumerate(rows) if row[0] == "flag")
    names, table = rows[header][1:], rows[header + 2:]
    table = table[:next((i for i, row in enumerate(table) if len(row) != len(names) + 1), len(table))]
    wrong = []
    for col, (name, parser) in enumerate(_commands().items()):
        if names[col] != name:
            return [f"column {col + 1} is {names[col]}, not {name}"]
        options, listed = _options(parser), set()
        for row in table:
            flag, cell = row[0].strip("`"), row[col + 1]
            action = options.get(flag)
            if cell == "—":
                ok = action is None
            elif action is None:
                ok = False
            elif cell == "required":
                ok = action.required
            elif cell.startswith("`"):
                value = cell.strip("`")
                ok = not action.required and (action.type or str)(value) == action.default
            else:
                ok = not action.required and action.default is None
            if cell != "—":
                listed.add(flag)
            if not ok:
                wrong.append(f"{name} {flag}: {cell}")
        wrong += [f"{name} {flag}: not in the table" for flag in sorted(set(options) - listed)]
    return wrong


CHECKS = (unresolved_names, undefined_calls, foreign_flags, wrong_defaults)


@pytest.mark.parametrize("check", CHECKS, ids=lambda c: c.__name__)
def test_readme_names_only_what_the_code_has(check):
    assert check(README.read_text(encoding="utf-8")) == []


# each edit makes exactly one check fail
STALE = {
    unresolved_names: ("`psp.cli.keep_freed_memory`", "`psp.graph.SelfLoopedBase`"),
    undefined_calls: ("`derive_seed(seed, 1)`", "`SelfLoopedBase(a)`"),
    foreign_flags: ("`taskset -c 0 psp ...`", "`psp sweep --jobs 2`"),
    wrong_defaults: ("| `--patience` | — | — | `60` |", "| `--patience` | — | — | `30` |"),
}


@pytest.mark.parametrize("check", CHECKS, ids=lambda c: c.__name__)
def test_each_check_catches_a_stale_statement(check):
    old, new = STALE[check]
    text = README.read_text(encoding="utf-8")
    assert text.count(old) == 1
    stale = text.replace(old, new)
    assert [bool(c(stale)) for c in CHECKS] == [c is check for c in CHECKS]
