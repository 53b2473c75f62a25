"""Guard: no check on the replay path formats its message inside a loop.

``require(condition, f"...")`` formats its message on every call, even
when the check passes, so inside a loop or comprehension of the replay
path it pays one string format per edge, window, boundary or update.
Such checks are written ``if not (condition): fail(f"...")``, which
formats only on failure (see :func:`repro.util.validation.require`).

This test parses the replay-path modules and fails on any ``require``
or ``require_*`` call that receives an f-string argument inside a
``for``/``while`` loop or a comprehension.  It cannot see per-call
sites that are hot only because their caller loops (for example
``RoutingPolicy.update``, called once per boundary): a profile finds
those, not this guard.
"""

from __future__ import annotations

import ast
from pathlib import Path

import repro

ROOT = Path(repro.__file__).resolve().parent
#: The modules a replay runs through, per window or per update.
REPLAY_PATH = (
    "simulation",
    "routing",
    "exec",
    "core/dgraph.py",
    "core/graph.py",
    "netmodel/conditions.py",
)
CHECKS = {"require", "require_probability", "require_positive", "require_non_negative"}
LOOPS = (
    ast.For,
    ast.AsyncFor,
    ast.While,
    ast.ListComp,
    ast.SetComp,
    ast.DictComp,
    ast.GeneratorExp,
)
SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)


def _replay_path_files() -> list[Path]:
    files: list[Path] = []
    for entry in REPLAY_PATH:
        path = ROOT / entry
        files.extend(sorted(path.rglob("*.py")) if path.is_dir() else [path])
    return files


def _call_name(call: ast.Call) -> str | None:
    if isinstance(call.func, ast.Name):
        return call.func.id
    if isinstance(call.func, ast.Attribute):
        return call.func.attr
    return None


def formatted_checks_in_loops(tree: ast.AST) -> list[int]:
    """Line numbers of checks given an f-string inside a loop."""
    found: list[int] = []

    def visit(node: ast.AST, in_loop: bool) -> None:
        if isinstance(node, SCOPES):
            in_loop = False  # a body defined in a loop runs when called
        if (
            in_loop
            and isinstance(node, ast.Call)
            and _call_name(node) in CHECKS
            and any(
                isinstance(part, ast.JoinedStr)
                for argument in [*node.args, *(k.value for k in node.keywords)]
                for part in ast.walk(argument)
            )
        ):
            found.append(node.lineno)
        inner = in_loop or isinstance(node, LOOPS)
        for child in ast.iter_child_nodes(node):
            visit(child, inner)

    visit(tree, False)
    return found


def test_guard_flags_a_formatted_check_in_a_loop():
    source = (
        "def f(edges):\n"
        "    require(bool(edges), f'no edges {edges}')\n"  # once per call: fine
        "    for edge in edges:\n"
        "        require(edge[0] != edge[1], f'self-loop {edge!r}')\n"
        "    return [require_positive(e[2], f'{e}') for e in edges]\n"
    )
    assert formatted_checks_in_loops(ast.parse(source)) == [4, 5]


def test_replay_path_formats_no_check_message_in_a_loop():
    offenders = [
        f"{path.relative_to(ROOT)}:{line}"
        for path in _replay_path_files()
        for line in formatted_checks_in_loops(ast.parse(path.read_text()))
    ]
    assert offenders == [], (
        "write these checks as `if not (condition): fail(f\"...\")`: "
        + ", ".join(offenders)
    )
