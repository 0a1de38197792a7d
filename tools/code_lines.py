"""Count the code lines of Python modules: lines holding a token that is not
a comment, a blank or part of a docstring.

    python tools/code_lines.py [PATH ...]    (default: src/semisimple)

A path may be a file or a directory (its *.py files, not recursing).  Prints
one line per module, largest first, then the total of each directory.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}


def _docstring_lines(tree: ast.Module) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of lines of `source` that hold code."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(source)))


def main(argv: list[str]) -> None:
    for arg in argv or ["src/semisimple"]:
        root = Path(arg)
        files = sorted(root.glob("*.py")) if root.is_dir() else [root]
        counts = {path.stem: code_lines(path.read_text()) for path in files}
        for name, n in sorted(counts.items(), key=lambda item: (-item[1], item[0])):
            print(f"{n:6d}  {name}")
        print(f"{sum(counts.values()):6d}  {arg}")


if __name__ == "__main__":
    main(sys.argv[1:])
