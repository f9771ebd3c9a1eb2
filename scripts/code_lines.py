#!/usr/bin/env python3
"""Print the code lines of each module of src/meanscape, and their total.

A line is a code line when it holds a token other than a comment, NL, NEWLINE,
INDENT or DEDENT, and is not part of a docstring (the string that opens a
module, class or function body). A string token holds every line it spans.
Blank lines, comment lines and docstrings do not count.

    python scripts/code_lines.py [ROOT]

ROOT is the checkout to count, by default the one that holds this script.
"""

import ast
import io
import pathlib
import sys
import tokenize

# ENDMARKER sits on the line past the last one
_SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENDMARKER}
_BODIES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(source: str) -> set[int]:
    """The line numbers that a docstring of ``source`` spans."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, _BODIES) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines of ``source``."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _SKIPPED:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(source))


def main(root: pathlib.Path) -> None:
    total = 0
    for path in sorted((root / "src" / "meanscape").glob("*.py")):
        n = code_lines(path.read_text())
        total += n
        print(f"{path.name:16} {n:5}")
    print(f"{'total':16} {total:5}")


if __name__ == "__main__":
    main(pathlib.Path(sys.argv[1]) if len(sys.argv) > 1 else
         pathlib.Path(__file__).resolve().parent.parent)
