"""List the statements of src/h1flow that a pytest run never executes.

    PYTHONPATH=src python3 tools/uncovered.py [pytest args]

Runs pytest in this process under a sys.settrace line tracer that follows
only frames whose code lies in src/h1flow, then prints `module:line: source`
for each statement no traced frame reached, in file and line order. A
statement is reached when a line event fires on its first line. Function and
class definitions, imports and docstrings are not listed: they run at import
or are no code; nor is the body of an `if __name__ == "__main__":`, which
runs only in a script. Uses the standard library only, so it runs where the
`coverage` package is not installed; tracing slows the run several-fold.
Lines that the run executes in a subprocess are not seen. The exit code is
pytest's.
"""

from __future__ import annotations

import ast
import importlib.util
import os
import pathlib
import sys

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "h1flow"

# tools/loc.py, beside this file, says which lines are docstrings
_SPEC = importlib.util.spec_from_file_location("loc", pathlib.Path(__file__).with_name("loc.py"))
loc = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(loc)

# statements that are no code of their own, or that run at import
_SKIPPED = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Import,
            ast.ImportFrom, ast.Global, ast.Nonlocal)


def _script_only(node) -> bool:
    """True for an `if __name__ == "__main__":` test, whose body runs only
    when the module runs as a script."""
    return isinstance(node, ast.If) and ast.unparse(node.test) == "__name__ == '__main__'"


def statements(text: str) -> list:
    """The first lines of a module's statements that a run can miss, sorted:
    every statement but a definition, an import, a docstring or one in the
    body of a top-level `if __name__ == "__main__":`."""
    tree = ast.parse(text)
    docstrings = loc.docstring_lines(tree)
    script = {id(inner) for node in tree.body if _script_only(node)
              for stmt in node.body for inner in ast.walk(stmt)}
    return sorted({node.lineno for node in ast.walk(tree)
                   if isinstance(node, ast.stmt) and not isinstance(node, _SKIPPED)
                   and node.lineno not in docstrings and id(node) not in script})


def traced(root: pathlib.Path, fn, *args):
    """fn(*args) under a line tracer of the frames whose file lies under
    root: (its result, the set of (real path, line) pairs that ran)."""
    prefix = os.path.realpath(root) + os.sep
    inside = {}
    hits = set()

    def local(frame, event, arg):
        if event == "line":
            hits.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def call(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in inside:
            inside[name] = os.path.realpath(name).startswith(prefix)
        return local if inside[name] else None

    previous = sys.gettrace()
    sys.settrace(call)
    try:
        result = fn(*args)
    finally:
        sys.settrace(previous)
    return result, {(os.path.realpath(f), line) for f, line in hits}


def uncovered(root: pathlib.Path, hits: set) -> list:
    """(path, line, source) of each statement of the modules under root
    whose first line is not among hits."""
    out = []
    for path in sorted(pathlib.Path(root).rglob("*.py")):
        text = path.read_text()
        lines = text.splitlines()
        real = os.path.realpath(path)
        out += [(path, line, lines[line - 1].strip()) for line in statements(text)
                if (real, line) not in hits]
    return out


def main() -> int:
    code, hits = traced(SRC, pytest.main, sys.argv[1:])
    for path, line, source in uncovered(SRC, hits):
        print(f"{path.relative_to(SRC)}:{line}: {source}")
    return int(code)


if __name__ == "__main__":
    sys.exit(main())
