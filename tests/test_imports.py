"""Every import in the package is used, and every top-level function and
class, every method but the dunders, and every field or attribute a class
sets, is referenced: a name left behind when its last user goes is dead
weight.  A test does not count as a user, except for the listed reference
definitions.  ``__init__.py`` is checked for unused imports and dead
definitions like every module; a top-level dunder, such as its module
``__getattr__`` or ``__dir__`` (PEP 562), is called by Python rather than
by name, so like a dunder method it is not checked.  The check for
definitions only tests read skips ``__init__.py``, whose table of
re-exported names would count as a read of each of them."""

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
        assert _unused_imports(path.read_text()) == [], path.name


def test_unused_import_is_reported():
    source = "from math import comb, factorial\nimport mpmath.libmp\nfactorial(3)\n"
    assert _unused_imports(source) == ["comb (line 1)", "mpmath (line 2)"]


def _dead_definitions(sources: dict, corpus: str) -> list[str]:
    """Top-level functions and classes of each source whose name occurs as
    a word in the corpus no more than once, i.e. only where defined.  A
    dunder such as a module ``__getattr__`` is called by Python, not by
    name, so it is not checked."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    return [
        f"{filename}: {node.name}"
        for filename, source in sources.items()
        for node in ast.parse(source).body
        if isinstance(node, kinds)
        and not node.name.startswith("__")
        and len(re.findall(rf"\b{node.name}\b", corpus)) < 2
    ]


def test_no_dead_definitions():
    corpus = "\n".join(
        path.read_text() for top in ("src", "tests", "bench") for path in sorted((ROOT / top).rglob("*.py"))
    )
    sources = {path.name: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    assert _dead_definitions(sources, corpus) == []


def test_dead_definition_is_reported():
    source = (
        "def used():\n    pass\ndef dead():\n    pass\nclass Box:\n    def method(self):\n        pass\n"
        "def __getattr__(name):\n    raise AttributeError(name)\n"
    )
    assert _dead_definitions({"m.py": source}, source + "used()\nBox()\n") == ["m.py: dead"]


# Top-level definitions and methods that no module in src/ or bench/ reads.
# Each is a reference or a test input the suites depend on; a definition not
# listed here that loses its last non-test reader fails the check below.
REFERENCE_DEFINITIONS = (
    "generic_point",  # builds the non-elliptic poles that the pair-sum tests sum at
    "raising_expansion_stepped",  # the recurrence that criterion 10 checks the closed form against
    "principal_part",  # the acceptance suite and the solver tests build principal parts with it
    "congruence_defect",  # the expansion tests check principal parts for inadmissible orders with it
    "norm_form",  # the reference norm that the enumeration tests check ideals against
    "unit_orbit",  # the reference unit orbits behind the one-per-ideal enumeration tests
    "c_kernel",  # the per-ideal kernel: criterion 9 checks its invariances, the engine tests the sums against it
    "twice_real",  # 2 Re of a ring element in the reference ideal sum and in the kernel and mirror tests
)


def _references(node: ast.AST) -> set[str]:
    """Names a statement reads: identifiers, attributes, imported names and
    dotted-name strings (the benchmark names its entry points in strings)."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.alias):
            names.add(sub.name.rpartition(".")[2])
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            parts = sub.value.split(".")
            if all(part.isidentifier() for part in parts):
                names.update(parts)
    return names


def _unread_definitions(package: dict, readers: dict) -> list[str]:
    """Top-level functions and classes of ``package``, and the non-dunder
    functions of its class bodies (as ``Class.name``), that no other
    statement of ``package`` or ``readers`` (filename -> source) reads: a
    top-level definition is read by another top-level statement, a method
    also by another statement of its class body."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    trees = {filename: ast.parse(source) for filename, source in {**readers, **package}.items()}
    refs = [(node, _references(node)) for tree in trees.values() for node in tree.body]

    def read(name, skip, siblings=()):
        return any(name in names for other, names in refs if other is not skip) or any(
            name in _references(other) for other in siblings
        )

    unread = []
    for filename in package:
        for node in trees[filename].body:
            if not isinstance(node, kinds):
                continue
            if not read(node.name, node):
                unread.append(f"{filename}: {node.name}")
            if isinstance(node, ast.ClassDef):
                for method in node.body:
                    if isinstance(method, kinds[:2]) and not method.name.startswith("__"):
                        siblings = [other for other in node.body if other is not method]
                        if not read(method.name, node, siblings):
                            unread.append(f"{filename}: {node.name}.{method.name}")
    return unread


def test_no_definitions_read_only_by_tests():
    package = {path.name: path.read_text() for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"}
    readers = {str(path): path.read_text() for path in sorted((ROOT / "bench").rglob("*.py"))}
    unread = [entry.partition(": ")[2] for entry in _unread_definitions(package, readers)]
    assert sorted(unread) == sorted(REFERENCE_DEFINITIONS)


def test_definition_read_only_by_tests_is_reported():
    source = (
        "def used():\n    pass\n"
        "def helper():\n    pass\n"
        "def named():\n    pass\n"
        "def recursive(n):\n    return recursive(n - 1)\n"
        "class Box:\n    def method(self):\n        return Box()\n"
        "class Tray:\n"
        "    def __init__(self):\n        self.fill()\n"
        "    def fill(self):\n        pass\n"
        "    def tested(self):\n        return self.tested()\n"
        "    def served(self):\n        pass\n"
        "NAMES = ('m.named',)\n"
        "used()\n"
    )
    # the definition's own body does not count as a reader; a method is read
    # by its class's other methods, dunders are not checked
    reader = "from m import helper\nhelper()\nTray().served()\n"
    assert _unread_definitions({"m.py": source}, {"run.py": reader}) == [
        "m.py: recursive",
        "m.py: Box",
        "m.py: Box.method",
        "m.py: Tray.tested",
    ]


# Fields and instance attributes that no module in src/ or bench/ reads, each
# kept for the reason given; any other fails the check below.
KEPT_ATTRIBUTES = (
    "PrincipalPart.flagged_zero_orders",  # the acceptance suite builds PrincipalPart positionally, with this field
    "PrimitiveIdeal.field",  # the acceptance suite builds PrimitiveIdeal positionally, with this field
    "TruncatedSum.norm_bound",  # part of the public result: the B each value was summed to
)


def _is_record(node: ast.ClassDef) -> bool:
    decorators = [d.func if isinstance(d, ast.Call) else d for d in node.decorator_list]
    return any(isinstance(d, ast.Name) and d.id == "dataclass" for d in decorators) or any(
        isinstance(base, ast.Name) and base.id == "NamedTuple" for base in node.bases
    )


def _unread_attributes(package: dict, readers: dict) -> list[str]:
    """``Class.name`` of each dataclass or NamedTuple field and each
    ``self.name = ...`` assignment in the classes of ``package`` whose name
    no statement of ``package`` or ``readers`` (filename -> source) reads as
    an attribute or in a dotted-name string.  A string without a dot (a JSON
    key) and an attribute of the argparse namespace ``args`` are not reads.
    Names are matched alone, not with their class, so a field is missed
    when another class's attribute of the same name is read."""
    package_trees = [ast.parse(source) for source in package.values()]
    read = set()
    for tree in package_trees + [ast.parse(source) for source in readers.values()]:
        for sub in ast.walk(tree):
            if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
                if not (isinstance(sub.value, ast.Name) and sub.value.id == "args"):
                    read.add(sub.attr)
            elif isinstance(sub, ast.Constant) and isinstance(sub.value, str) and "." in sub.value:
                parts = sub.value.split(".")
                if all(part.isidentifier() for part in parts):
                    read.update(parts)
    attributes = set()
    for tree in package_trees:
        for node in (node for node in ast.walk(tree) if isinstance(node, ast.ClassDef)):
            if _is_record(node):
                fields = (s.target for s in node.body if isinstance(s, ast.AnnAssign))
                attributes.update((node.name, t.id) for t in fields if isinstance(t, ast.Name))
            for sub in ast.walk(node):
                if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Store):
                    if isinstance(sub.value, ast.Name) and sub.value.id == "self":
                        attributes.add((node.name, sub.attr))
    return sorted(f"{cls}.{name}" for cls, name in attributes if name not in read)


def test_no_attributes_read_only_by_tests():
    package = {path.name: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    readers = {str(path): path.read_text() for path in sorted((ROOT / "bench").rglob("*.py"))}
    assert _unread_attributes(package, readers) == sorted(KEPT_ATTRIBUTES)


def test_unread_attribute_is_reported():
    source = (
        "from dataclasses import dataclass\n"
        "from typing import NamedTuple\n"
        "@dataclass(frozen=True)\nclass Box:\n    size: int\n    label: str\n"
        "@dataclass\nclass Bag:\n    weight: int\n"
        "class Pair(NamedTuple):\n    left: int\n    right: int\n"
        "class Plain:\n    note: str\n"
        "class Fault(ValueError):\n"
        "    def __init__(self, message, data):\n"
        "        super().__init__(message)\n        self.data = data\n        self.hint = message\n"
        "def show(box, pair, fault):\n    return box.size, pair.left, fault.hint\n"
        "@dataclass\nclass Run:\n    depth: int\n    bound: int\n    seed: int\n"
    )
    # a dotted string reads its parts; an annotation outside a record is not
    # a field, and an assignment to self.name is not a read; neither a JSON
    # key nor a read off the argparse namespace args reads a field
    reader = "NAMES = ('m.Box.label',)\nrow = {'bound': 1}\nprint(args.depth, opts.seed)\n"
    assert _unread_attributes({"m.py": source}, {"run.py": reader}) == [
        "Bag.weight",
        "Fault.data",
        "Pair.right",
        "Run.bound",
        "Run.depth",
    ]
