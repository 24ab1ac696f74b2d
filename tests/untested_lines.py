"""List the statements of ``src/ontofield`` that the test suite never runs.

``coverage`` is not a dependency, so this script traces the suite itself.
It runs pytest in this process under ``sys.settrace``, records the line
events of code in ``src/ontofield``, and prints every executable statement
that never ran as ``path:line: source``.  A statement ran if any line of it
(of its header, for ``if``, ``for``, ``while`` and ``with``) had an event.
Docstrings, ``def`` and ``class`` statements, imports and the declarations
``global`` and ``nonlocal`` are not listed: they emit no line event, or
run only when a module is imported.  Code that a test runs in a subprocess
is not traced.

Run it from anywhere; with no arguments it runs the Tier-1 suite, and any
arguments go to pytest instead:

    python tests/untested_lines.py
    python tests/untested_lines.py tests/test_kernels.py -x

Its name does not match ``test_*.py``, so pytest does not collect it.  It
exits with pytest's status.
"""

from __future__ import annotations

import ast
import os
import sys
import threading
from collections import defaultdict
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "ontofield"

# Statements that emit no line event when their code runs, or run only at import.
_SKIPPED = (
    ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Import, ast.ImportFrom,
    ast.Global, ast.Nonlocal, ast.Try,
)


def _is_docstring(node: ast.stmt) -> bool:
    return isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant) and isinstance(node.value.value, str)


def statement_lines(source: str) -> dict[int, range]:
    """``{first line: the lines whose event shows the statement ran}`` for each executable statement of ``source``."""
    found = {}
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.stmt) or isinstance(node, _SKIPPED) or _is_docstring(node):
            continue
        inner = [child.lineno for child in ast.iter_child_nodes(node) if isinstance(child, ast.stmt)]
        last = min(inner) - 1 if inner else node.end_lineno
        found[node.lineno] = range(node.lineno, max(last, node.lineno) + 1)
    return found


def trace_suite(args: list[str]) -> tuple[int, dict[str, set[int]]]:
    """Run pytest on ``args`` from the repository root; its status and the lines run per file of the package."""
    prefix = str(PACKAGE) + os.sep
    hits: dict[str, set[int]] = defaultdict(set)

    def on_call(frame, event, arg):
        if not frame.f_code.co_filename.startswith(prefix):
            return None
        lines = hits[frame.f_code.co_filename]

        def on_line(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return on_line

        return on_line

    cwd = os.getcwd()
    os.chdir(ROOT)
    threading.settrace(on_call)
    sys.settrace(on_call)
    try:
        status = pytest.main(["-q", *args])
    finally:
        sys.settrace(None)
        threading.settrace(None)
        os.chdir(cwd)
    return int(status), hits


def main(argv: list[str]) -> int:
    status, hits = trace_suite(argv or ["--continue-on-collection-errors"])
    untested = []
    for path in sorted(PACKAGE.rglob("*.py")):
        source = path.read_text()
        ran = hits.get(str(path), set())
        lines = source.splitlines()
        for first, span in sorted(statement_lines(source).items()):
            if ran.isdisjoint(span):
                untested.append(f"{path.relative_to(ROOT)}:{first}: {lines[first - 1].strip()}")
    print("\n".join(untested))
    print(f"{len(untested)} statements never ran")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
