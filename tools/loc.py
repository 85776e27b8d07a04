"""Count the lines of each module of src/h1flow.

    python3 tools/loc.py

Prints, per module and in total, the `wc -l` count and the code-line count.
A code line is one that is not blank, not comment-only, and not part of a
module, class or function docstring. A line that holds code and a comment
counts, and so does each line of a string that is not a docstring.
The last line is the number of names h1flow.__all__ exports: the public
names that the `from ... import` statements of __init__.py bind, read from
its source without importing it.
"""

from __future__ import annotations

import ast
import io
import pathlib
import tokenize

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "h1flow"

# tokens that make no line a code line on their own
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree: ast.Module) -> set:
    """The lines of every module, class and function docstring of a tree."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(text: str) -> tuple:
    """(wc -l count, code-line count) of one module's source text."""
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in _LAYOUT:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return text.count("\n"), len(code - docstring_lines(ast.parse(text)))


def exports(text: str) -> int:
    """The number of public names the top-level `from ... import` statements
    of a package's __init__.py source bind: its __all__, which lists them."""
    return len({alias.asname or alias.name for node in ast.parse(text).body
                if isinstance(node, ast.ImportFrom) for alias in node.names
                if not (alias.asname or alias.name).startswith("_")})


def main() -> None:
    total_lines = total_code = 0
    for path in sorted(SRC.glob("*.py")):
        lines, code = count(path.read_text())
        total_lines += lines
        total_code += code
        print(f"{path.name:16s} {lines:5d} {code:5d}")
    print(f"{'total':16s} {total_lines:5d} {total_code:5d}")
    print(f"{'exports':16s} {exports((SRC / '__init__.py').read_text()):5d}")


if __name__ == "__main__":
    main()
