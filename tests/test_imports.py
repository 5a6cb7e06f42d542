"""Every import in the package is used: a name left behind when its last
user goes is dead weight.  ``__init__.py`` only re-exports, so it is
skipped."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "meroforms"


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
