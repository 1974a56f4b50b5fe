"""Line counts of the package source, the size a simplicity change reports.

    python3 tests/code_lines.py [DIR]
    python3 tests/code_lines.py OLD_DIR NEW_DIR

prints, for every ``.py`` file under ``DIR`` (default ``src/modroute`` of the
checkout it sits in), its path, its line count as ``wc -l`` gives it and its
code lines: the lines left without docstrings, comments and blank lines. A
last line ``total`` sums both; a ``DIR`` that holds ``src/modroute`` (a
checkout's root) counts that package. Given two directories (two checkouts
or their packages), it prints each file's and the total's counts before and
after: ``path lines code -> lines code``, a file that only one has counting
``0 0`` in the other.
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


def counts(directory: str) -> dict[str, tuple[int, int]]:
    """(lines, code lines) of every ``.py`` file under ``directory``, or
    under its ``src/modroute`` if it has one, by its path relative to it,
    sorted, then ``total``."""
    package = os.path.join(directory, "src", "modroute")
    if os.path.isdir(package):
        directory = package
    paths = sorted(os.path.join(root, name) for root, _, names in os.walk(directory)
                   for name in names if name.endswith(".py"))
    table = {}
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            table[os.path.relpath(path, directory)] = count(fh.read())
    table["total"] = (sum(lines for lines, _ in table.values()),
                      sum(code for _, code in table.values()))
    return table


def main(argv=None) -> int:
    default = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))  # the checkout
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("dir", nargs="?", default=default)
    ap.add_argument("new_dir", nargs="?",
                    help="a second checkout or package: print DIR's counts -> its")
    args = ap.parse_args(argv)
    before = counts(args.dir)
    if args.new_dir is None:
        for path, (lines, code) in before.items():
            print(f"{path} {lines} {code}")
        return 0
    after = counts(args.new_dir)
    # a file only one side has counts 0 0 on the other
    for path in sorted((before.keys() | after.keys()) - {"total"}) + ["total"]:
        (l0, c0), (l1, c1) = before.get(path, (0, 0)), after.get(path, (0, 0))
        print(f"{path} {l0} {c0} -> {l1} {c1}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
