"""Guard: every module-level function and class in src/rwfn has a caller
outside its own definition, in src/rwfn (its __init__ included) or in the
benchmark's non-test modules, perfbench/*.py. A helper that only tests call
belongs in tests/.

A name counts as used where it appears as an identifier, an attribute, an
imported name, or a string literal (perfbench patches attributes by name).
Methods are out of the guard's reach: a method that nothing calls passes,
because an attribute name cannot be tied to one class without type
information.
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
