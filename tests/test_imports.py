"""Every import in the package is used, and every top-level function and
class is referenced: a name left behind when its last user goes is dead
weight.  ``__init__.py`` only re-exports, so it is skipped."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "meroforms"


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_no_unused_imports():
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        assert _unused_imports(path.read_text()) == [], path.name


def test_unused_import_is_reported():
    source = "from math import comb, factorial\nimport mpmath.libmp\nfactorial(3)\n"
    assert _unused_imports(source) == ["comb (line 1)", "mpmath (line 2)"]


def _dead_definitions(sources: dict, corpus: str) -> list[str]:
    """Top-level functions and classes of each source whose name occurs as
    a word in the corpus no more than once, i.e. only where defined."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    return [
        f"{filename}: {node.name}"
        for filename, source in sources.items()
        for node in ast.parse(source).body
        if isinstance(node, kinds) and len(re.findall(rf"\b{node.name}\b", corpus)) < 2
    ]


def test_no_dead_definitions():
    corpus = "\n".join(
        path.read_text() for top in ("src", "tests", "bench") for path in sorted((ROOT / top).rglob("*.py"))
    )
    sources = {path.name: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    assert _dead_definitions(sources, corpus) == []


def test_dead_definition_is_reported():
    source = "def used():\n    pass\ndef dead():\n    pass\nclass Box:\n    def method(self):\n        pass\n"
    assert _dead_definitions({"m.py": source}, source + "used()\nBox()\n") == ["m.py: dead"]
