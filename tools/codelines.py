"""Count the code lines of each ``src/densemble`` module.

    python tools/codelines.py ROOT

ROOT is a checkout. A code line is a line inside a statement that is not
blank, not a ``#`` comment and not part of a docstring (the string that
opens a module, class or function body). Prints one ``<count> <module>``
line per ``ROOT/src/densemble/*.py`` module, in name order, then the total.
"""

from __future__ import annotations

import ast
import glob
import os
import sys


def code_lines(source: str) -> int:
    """The number of code lines in ``source`` (module docstring)."""
    tree = ast.parse(source)
    lines = source.splitlines()
    counted = set()
    for stmt in tree.body:
        first = min([stmt.lineno] + [d.lineno for d in getattr(stmt, "decorator_list", [])])
        counted.update(range(first, stmt.end_lineno + 1))
    scopes = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
    for node in ast.walk(tree):
        if isinstance(node, scopes) and ast.get_docstring(node, clean=False) is not None:
            counted.difference_update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    return sum(1 for i in counted if lines[i - 1].strip() and lines[i - 1].strip()[0] != "#")


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__.strip().splitlines()[0], file=sys.stderr)
        print("usage: python tools/codelines.py ROOT", file=sys.stderr)
        return 2
    total = 0
    for path in sorted(glob.glob(os.path.join(argv[0], "src", "densemble", "*.py"))):
        with open(path) as fh:
            count = code_lines(fh.read())
        total += count
        print(f"{count:5d} {os.path.basename(path)}")
    print(f"{total:5d} total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
