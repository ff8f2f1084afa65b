"""Guard: every module-level function and class in src/rwfn has a caller
outside its own definition, in src/rwfn (its __init__ included) or in the
benchmark's non-test modules, perfbench/*.py. A helper that only tests call
belongs in tests/. So has every method and property of a src/rwfn class,
dunder methods aside: its name must appear outside the def statements of
that name.

A name counts as used where it appears as an identifier, an attribute, an
imported name, or a string literal (perfbench patches attributes by name).
An attribute name cannot be tied to one class without type information, so
the guard misses a method that nothing calls when another class's method,
or any other attribute, has the same name and is used.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _modules() -> list:
    return sorted((ROOT / "src" / "rwfn").glob("*.py"))


def _callers() -> list:
    return _modules() + sorted(p for p in (ROOT / "perfbench").glob("*.py") if not p.name.startswith("test_"))


def _names(node: ast.AST) -> Counter:
    """How often each name is mentioned in node's subtree."""
    out = Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            out[n.id] += 1
        elif isinstance(n, ast.Attribute):
            out[n.attr] += 1
        elif isinstance(n, ast.alias):
            out.update(filter(None, (n.name, n.asname)))
        elif isinstance(n, ast.Constant) and isinstance(n.value, str) and n.value.isidentifier():
            out[n.value] += 1
    return out


def unused_names() -> list:
    """(module, name) of each module-level function or class of src/rwfn
    that no caller names outside the definition itself."""
    trees = {path: ast.parse(path.read_text(), str(path)) for path in _callers()}
    mentions = sum((_names(tree) for tree in trees.values()), Counter())
    return [(path.stem, node.name) for path in _modules() for node in trees[path].body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and mentions[node.name] == _names(node)[node.name]]


def _methods(tree: ast.AST) -> list:
    """(class, method) of each non-dunder method or property of the classes
    in tree."""
    return [(cls.name, node.name) for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
            for node in cls.body if isinstance(node, ast.FunctionDef)
            and not (node.name.startswith("__") and node.name.endswith("__"))]


def _unused_methods(trees: dict, modules: list) -> list:
    """(module, class, method) of each method of the classes of modules
    whose name trees mention only inside def statements of that name."""
    mentions = sum((_names(tree) for tree in trees.values()), Counter())
    in_defs = Counter()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef):
                in_defs[node.name] += _names(node)[node.name]
    return [(path.stem, cls, name) for path in modules for cls, name in _methods(trees[path])
            if mentions[name] == in_defs[name]]


def unused_methods() -> list:
    return _unused_methods({path: ast.parse(path.read_text(), str(path)) for path in _callers()}, _modules())


def test_every_module_level_name_in_src_has_a_caller():
    assert unused_names() == []


def test_guard_sees_an_unused_definition():
    tree = ast.parse("def used():\n    return 1\n\n\ndef unused():\n    return used()\n\n\nX = used()\n")
    used, unused = tree.body[:2]
    assert _names(tree)["unused"] == _names(unused)["unused"] == 0
    assert _names(tree)["used"] > _names(used)["used"]
    # a recursive call is part of the definition
    rec = ast.parse("def f(n):\n    return f(n - 1)\n").body[0]
    assert _names(rec)["f"] == 1


def test_every_method_in_src_has_a_caller():
    assert unused_methods() == []


def test_guard_sees_an_unused_method():
    src = ("class A:\n"
           "    def __init__(self):\n        self.x = 1\n\n"
           "    def used(self):\n        return self.helper()\n\n"
           "    def helper(self):\n        return self.x\n\n"
           "    @property\n    def unused(self):\n        return self.unused\n\n"
           "    def recursive(self, n):\n        return self.recursive(n - 1)\n\n\n"
           "A().used()\n")
    path = Path("m.py")
    assert _unused_methods({path: ast.parse(src)}, [path]) == [("m", "A", "unused"), ("m", "A", "recursive")]
