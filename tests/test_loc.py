"""The line counts of tools/loc.py: what is a code line."""
import importlib.util
from pathlib import Path

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
    rows = capsys.readouterr().out.splitlines()
    names = sorted(p.name for p in loc.SRC.glob("*.py"))
    assert [row.split()[0] for row in rows] == names + ["total"]
    lines, code = zip(*(map(int, row.split()[1:]) for row in rows[:-1]))
    assert rows[-1].split()[1:] == [str(sum(lines)), str(sum(code))]
