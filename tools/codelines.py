"""Count the code lines of each ``src/densemble`` module.

    python tools/codelines.py ROOT
    python tools/codelines.py PARENT CHANGE

ROOT, PARENT and CHANGE are checkouts. A code line is a line inside a
statement that is not blank, not a ``#`` comment and not part of a docstring
(the string that opens a module, class or function body). With one root,
prints one ``<count> <module>`` line per ``ROOT/src/densemble/*.py`` module,
in name order, then the total. With two, each line holds the module's count
in PARENT, its count in CHANGE and the change's signed delta, a module
missing from one side counting 0 there, then the totals alike.
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


def module_counts(root: str) -> dict[str, int]:
    """The code lines of each ``root/src/densemble/*.py`` module, by name."""
    counts = {}
    for path in glob.glob(os.path.join(root, "src", "densemble", "*.py")):
        with open(path) as fh:
            counts[os.path.basename(path)] = code_lines(fh.read())
    return counts


def row(counts: list[int], label: str) -> str:
    """One output line: each side's count, the delta when there are two,
    then ``label``."""
    cells = [f"{c:5d}" for c in counts]
    if len(counts) == 2:
        cells.append(f"{counts[1] - counts[0]:+6d}")
    return " ".join(cells + [label])


def main(argv: list[str]) -> int:
    if len(argv) not in (1, 2):
        print(__doc__.strip().splitlines()[0], file=sys.stderr)
        print("usage: python tools/codelines.py ROOT | PARENT CHANGE", file=sys.stderr)
        return 2
    sides = [module_counts(root) for root in argv]
    for name in sorted(set().union(*sides)):
        print(row([side.get(name, 0) for side in sides], name))
    print(row([sum(side.values()) for side in sides], "total"))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
