"""No module under src/, scripts/ or tests/ imports a name it never uses: a
linter's unused-import rule in ``ast`` alone. ``__init__.py`` re-exports."""

import ast
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
MODULES = sorted(
    p for d in ("src", "scripts", "tests") for p in (REPO / d).rglob("*.py")
    if p.name != "__init__.py"
)


def unused_imports(source: str) -> list[str]:
    imported, used = {}, set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def test_checker_flags_only_the_unused_name():
    source = "from __future__ import annotations\nimport os\nfrom a import b, c as d\nb(d)\n"
    assert unused_imports(source) == ["line 2: os"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(REPO)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
