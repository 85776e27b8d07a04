"""The counts of tools/loc.py: what is a code line, and how many names
h1flow exports; and that the package defines nothing it neither exports
nor uses."""
import ast
import importlib.util
from pathlib import Path

import h1flow

_SPEC = importlib.util.spec_from_file_location(
    "loc", Path(__file__).resolve().parents[1] / "tools" / "loc.py")
loc = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(loc)

SAMPLE = '''"""Module
docstring."""
# a comment

import math  # a trailing comment


class A:
    """Class docstring."""

    def f(self):
        """Function
        docstring."""
        text = """a string
        that is code"""
        return text
'''


def test_code_lines_skip_blanks_comments_and_docstrings():
    # code: import, class, def, the two lines of the string, return
    assert loc.count(SAMPLE) == (16, 6)


def test_every_module_is_counted(capsys):
    loc.main()
    rows = capsys.readouterr().out.splitlines()[:-1]
    names = sorted(p.name for p in loc.SRC.glob("*.py"))
    assert [row.split()[0] for row in rows] == names + ["total"]
    lines, code = zip(*(map(int, row.split()[1:]) for row in rows[:-1]))
    assert rows[-1].split()[1:] == [str(sum(lines)), str(sum(code))]


def test_export_count_is_the_length_of_all(capsys):
    loc.main()
    assert capsys.readouterr().out.splitlines()[-1].split() == [
        "exports", str(len(h1flow.__all__))]


def test_exports_count_public_names_of_from_imports():
    text = ("from types import ModuleType as _M\nimport os\n"
            "from .a import (b, c as d, _e)\nfrom .f import g, b\n"
            "def h():\n    from .i import j\n")
    # b, d and g: b once, not _e, and not j, bound inside a function
    assert loc.exports(text) == 3


def test_every_unexported_definition_is_named_by_library_code():
    # a top-level function or class that h1flow does not export must be
    # used by code of the package; a docstring that mentions it is no use
    named = set()
    defined = []
    for path in sorted(loc.SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
        defined += [(path.stem, node.name) for node in tree.body
                    if isinstance(node, (ast.FunctionDef, ast.ClassDef))]
    unused = [f"{mod}.{name}" for mod, name in defined
              if name not in h1flow.__all__ and name not in named]
    assert unused == []
