"""No module under src/, scripts/ or tests/ imports a name it never uses: a
linter's unused-import rule in ``ast`` alone. ``__init__.py`` re-exports.
And no private function, method or class under src/ is left without a
reference there, as when its last caller was inlined."""

import ast
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
SRC = sorted((REPO / "src").rglob("*.py"))
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


def unreferenced_private_defs(sources: dict[str, str]) -> list[str]:
    """Each function, method or class named ``_name`` (dunders excepted) in
    ``sources`` whose name no ``Name``, attribute or import in them uses."""
    defined, used = [], set()
    for path, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = node.name
                dunder = name.startswith("__") and name.endswith("__")
                if name.startswith("_") and not dunder:
                    defined.append(f"{path}:{node.lineno}: {name}")
            elif isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                used.update(alias.name for alias in node.names)
    return [d for d in defined if d.rsplit(" ", 1)[1] not in used]


def test_private_checker_flags_only_the_unreferenced_name():
    sources = {
        "a.py": "def _called(): pass\ndef _dead(): pass\ndef __dunder__(): pass\n"
        "class _Kept:\n    def _method(self): return _called()\n",
        "b.py": "from a import _Kept\n_Kept()._method()\n",
    }
    assert unreferenced_private_defs(sources) == ["a.py:2: _dead"]


def test_no_unreferenced_private_defs_in_src():
    sources = {str(p.relative_to(REPO)): p.read_text() for p in SRC}
    assert unreferenced_private_defs(sources) == []


def test_pqueue_imports_no_higher_layer():
    """The queue stands on ``dag``, ``errors`` and ``reorder`` alone: it
    builds its default order itself, so no family, bound, sort or CLI code
    comes with it."""
    tree = ast.parse((REPO / "src" / "dagsort" / "pqueue.py").read_text())
    imported = set()  # modules and names, so ``from . import x`` counts too
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported.update(alias.name for alias in node.names)
            imported.add(getattr(node, "module", None) or "")
    layers = {part for name in imported for part in name.split(".")}
    assert not layers & {"topologies", "analysis", "sorting", "cli"}, imported
