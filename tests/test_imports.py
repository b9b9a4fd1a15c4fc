"""Every name a ztt module imports is used there, re-exported, or marked."""

import ast
import re
from pathlib import Path

import pytest

import ztt

MODULES = sorted(Path(ztt.__file__).parent.glob("*.py"))
# a kept import names the rule and says why, e.g. "# noqa: F401  the tracer patches it"
_MARKED = re.compile(r"#\s*noqa:\s*F401\b\s*\S")


def _exported(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            return set(ast.literal_eval(node.value))
    return set()


def unused_imports(source: str) -> list[str]:
    """'line: name' for each imported name that the module neither reads,
    lists in __all__, nor marks with '# noqa: F401' and a reason."""
    tree = ast.parse(source)
    lines = source.splitlines()
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = _exported(tree)
    unused = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name in used or name in exported or _MARKED.search(lines[alias.lineno - 1]):
                continue
            unused.append(f"{alias.lineno}: {name}")
    return unused


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_module_has_no_unused_import(path):
    assert unused_imports(path.read_text()) == [], path.name


def test_unused_import_detector():
    source = (
        "from __future__ import annotations\n"
        "import math\n"
        "import os.path\n"
        "from fractions import Fraction\n"
        "from json import (\n"
        "    dumps,  # noqa: F401  kept for a patching test\n"
        "    loads,  # noqa: F401\n"
        ")\n"
        "from array import array as arr\n"
        "__all__ = ['Fraction']\n"
        "x = math.pi + os.path.sep\n"
    )
    assert unused_imports(source) == ["7: loads", "9: arr"]
