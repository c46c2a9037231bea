"""Every imported name in the package and its tests is used, and every
function, class and method of the package has a caller outside the tests."""

import ast
import re
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "adalab").glob("*.py"))
FILES = PACKAGE + sorted((ROOT / "tests").glob("*.py"))
# users of the package besides its own modules
OUTSIDE = [ROOT / "README.md"] + sorted((ROOT / "perfbench").glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names bound by import statements that the module never reads.

    A dotted ``import a.b`` binds ``a``. Names listed in ``__all__`` are
    re-exports and count as used.
    """
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used | exported(tree)]


def exported(tree: ast.Module) -> set[str]:
    """The names a module lists in ``__all__``."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            names |= set(ast.literal_eval(node.value))
    return names


def _reads(node: ast.AST) -> tuple[Counter, Counter]:
    """Names read and attribute names read anywhere under ``node``."""
    names, attrs = Counter(), Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            names[sub.id] += 1
        elif isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
            attrs[sub.attr] += 1
    return names, attrs


def uncalled_defs(sources: dict[str, str], outside: str) -> list[str]:
    """Module-level functions and classes, and non-dunder methods, of the
    ``sources`` modules that nothing references outside their own def.

    A function or class is referenced by a read of its name or of an
    attribute with its name; a method, which only an attribute can reach,
    by the latter alone. Any word of ``outside`` counts as a reference, and
    names listed in an ``__all__`` are exempt. Reads inside uncalled code
    count for nothing, so a chain of defs that only call each other is
    found whole, as are the methods of an uncalled class.
    """
    trees = {module: ast.parse(text) for module, text in sources.items()}
    words = set(re.findall(r"\w+", outside))
    public = set().union(*(exported(tree) for tree in trees.values()))
    defs = []  # (qualified name, node, qualified name of its class or None)
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                qualified = f"{module}.{node.name}"
                defs.append((qualified, node, None))
                if isinstance(node, ast.ClassDef):
                    defs += [
                        (f"{qualified}.{method.name}", method, qualified)
                        for method in node.body
                        if isinstance(method, ast.FunctionDef) and not re.fullmatch(r"__\w+__", method.name)
                    ]
    reads = {qualified: _reads(node) for qualified, node, _ in defs}
    all_names, all_attrs = Counter(), Counter()
    for tree in trees.values():
        tree_names, tree_attrs = _reads(tree)
        all_names.update(tree_names)
        all_attrs.update(tree_attrs)
    dead: set[str] = set()
    while True:
        names, attrs = all_names.copy(), all_attrs.copy()
        for qualified, _, owner in defs:
            if qualified in dead and owner not in dead:
                names.subtract(reads[qualified][0])
                attrs.subtract(reads[qualified][1])
        found = set()
        for qualified, node, owner in defs:
            if qualified in dead:
                continue
            own_names, own_attrs = reads[qualified]
            name = node.name
            if owner is None:
                called = names[name] - own_names[name] + attrs[name] - own_attrs[name] > 0
                called = called or name in words or name in public
            else:
                called = owner not in dead and (attrs[name] > own_attrs[name] or name in words)
            if not called:
                found.add(qualified)
        if not found:
            return [qualified for qualified, _, _ in defs if qualified in dead]
        dead |= found


@pytest.mark.parametrize("path", FILES, ids=lambda path: f"{path.parent.name}/{path.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_detects_an_unused_import():
    source = "import os\nimport numpy as np\nfrom typing import Iterable, Mapping\n__all__ = ['Mapping']\nnp.zeros(1)\n"
    assert unused_imports(source) == ["os", "Iterable"]


def test_every_def_has_a_caller_outside_the_tests():
    sources = {path.stem: path.read_text(encoding="utf-8") for path in PACKAGE}
    outside = "\n".join(path.read_text(encoding="utf-8") for path in OUTSIDE)
    assert uncalled_defs(sources, outside) == []


def test_detects_a_def_without_a_caller():
    sources = {
        "a": (
            "def recursive(n):\n    return recursive(n - 1)\n"
            "def only_for_dead_code():\n    return 0\n"
            "def dead():\n    return only_for_dead_code()\n"
            "def called():\n    return 1\n"
            "def documented():\n    return 2\n"
            "class Shape:\n"
            "    def __len__(self):\n        return 0\n"
            "    def area(self):\n        return self.area()\n"
            "    def side(self):\n        return 1\n"
            "    def width(self):\n        return 1\n"
            "class Unused:\n"
            "    def go(self):\n        return 1\n"
        ),
        "b": "from a import called\n__all__ = ['Shape']\nwidth = 2\nprint(called(), width, x.side(), x.go())\n",
    }
    assert uncalled_defs(sources, "see `documented`") == [
        "a.recursive", "a.only_for_dead_code", "a.dead", "a.Shape.area", "a.Shape.width",
        "a.Unused", "a.Unused.go",
    ]
