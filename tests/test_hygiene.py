"""Source hygiene checks on `src/ncspec`, using only the standard library."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "ncspec"


def unused_imports(source: str) -> list:
    """Names bound by an import that the module never reads or exports."""
    tree = ast.parse(source)
    bound = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in bound.items() if name not in used)


def test_unused_import_detector():
    src = "import os\nfrom a import b, c as d\nimport x.y\n__all__ = ['c']\nd(os)\n"
    assert unused_imports(src) == [(2, "b"), (3, "x")]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
