"""Line counts of the package source, the size a simplicity change reports.

    python3 tests/code_lines.py [DIR]

prints, for every ``.py`` file under ``DIR`` (default ``src/modroute`` of the
checkout it sits in), its path, its line count as ``wc -l`` gives it and its
code lines: the lines left without docstrings, comments and blank lines. A
last line ``total`` sums both. Run it in two checkouts and compare the totals.
"""

from __future__ import annotations

import argparse
import ast
import io
import os
import sys
import tokenize

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.AST) -> set[int]:
    """The lines of every module, class and function docstring."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) \
                    and isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(text: str) -> tuple[int, int]:
    """(``wc -l`` lines, code lines) of Python source ``text``."""
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in _NOT_CODE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return text.count("\n"), len(code - _docstring_lines(ast.parse(text)))


def main(argv=None) -> int:
    default = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                           "src", "modroute")
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("dir", nargs="?", default=default)
    args = ap.parse_args(argv)
    paths = sorted(os.path.join(root, name) for root, _, names in os.walk(args.dir)
                   for name in names if name.endswith(".py"))
    total_lines = total_code = 0
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            lines, code = count(fh.read())
        total_lines += lines
        total_code += code
        print(f"{os.path.relpath(path, args.dir)} {lines} {code}")
    print(f"total {total_lines} {total_code}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
