"""tools/codelines.py on small checkouts made in a temporary directory."""

import os
import subprocess
import sys

TOOL = os.path.join(os.path.dirname(__file__), os.pardir, "tools", "codelines.py")


def checkout(root, modules: dict[str, str]) -> str:
    pkg = root / "src" / "densemble"
    pkg.mkdir(parents=True)
    for name, text in modules.items():
        (pkg / name).write_text(text)
    return str(root)


def codelines(*roots: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, TOOL, *roots], capture_output=True, text=True)


def test_codelines_counts_one_root_and_compares_two(tmp_path):
    parent = checkout(
        tmp_path / "parent",
        {
            # docstrings, comments and blank lines do not count
            "a.py": (
                '"""Doc."""\n\nimport os\n# note\n\n'
                'def f():\n    """Doc."""\n    return os.sep\n'
            ),
            "b.py": "x = 1\n",
        },
    )
    change = checkout(tmp_path / "change", {"a.py": "import os\n", "c.py": "y = [\n    1,\n]\n"})
    one = codelines(parent)
    assert (one.returncode, one.stdout) == (0, "    3 a.py\n    1 b.py\n    4 total\n")
    two = codelines(parent, change)
    assert two.returncode == 0
    assert two.stdout == (
        "    3     1     -2 a.py\n"
        "    1     0     -1 b.py\n"
        "    0     3     +3 c.py\n"
        "    4     4     +0 total\n"
    )
    assert codelines().returncode == codelines(parent, change, parent).returncode == 2
