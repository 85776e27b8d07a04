"""The counts of tools/loc.py: what is a code line, and how many names
h1flow exports."""
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
