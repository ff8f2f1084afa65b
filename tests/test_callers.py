"""Guard: every module-level function and class in src/rwfn, and every
method and property of a src/rwfn class, is reachable from a root. A helper
that only tests call belongs in tests/. The roots are the console entry
point rwfn.cli:main, the benchmark's non-test modules (perfbench/*.py), and
the module-level statements of the src/rwfn modules other than __init__,
definitions and imports aside: a re-export alone keeps nothing alive. A
definition is live when the closure of the names mentioned from the roots
reaches it: a root or a live definition mentions its name, and a method's
class is live. A live definition's mentions join the closure; a class's are
its decorators, bases and body apart from its methods, and its dunder
methods are live with it.

A name counts as mentioned where it appears as an identifier, an attribute,
an imported name, or a string literal (perfbench patches attributes by
name). An attribute name cannot be tied to one class without type
information, so the guard misses a method that nothing reaches when another
live class's method, or any other attribute, has the same name and is used.

Every defaulted parameter of a module-level function or a method in src/rwfn
is also passed by some call in those same modules: by keyword, by a
positional argument that reaches it, or by * or ** unpacking. A default that
no call overrides is a knob nobody turns. Calls of a method are matched by
name (a class's __init__ by the class name), so a call to another method of
the same name counts too. A module-level function's calls are the bare-name
calls of its name and the calls through a name bound to its own module
(perfbench's data.split), so neither np.split nor str.split is a call of
data.split. The package's exports (rwfn/__init__.py) and the console entry
point rwfn.cli:main are exempt: callers outside the repository may pass
their defaults.

The opposite waste is checked too: a default that every call overrides,
which no call uses, so the parameter might as well be required. Here a
call counts only when it surely passes the parameter, by keyword or by a
positional argument before any * unpacking, and a def needs at least one
call (the check above catches one with none). A def that is also called
through a reference, such as a callback or perfbench's wrappers, is
judged by its direct calls alone; the wrappers forward every argument.
The same exemptions hold.

Every field of a src/rwfn dataclass or NamedTuple is read: loaded as an
attribute somewhere in those modules. Its own methods count, since a field
they compute with is used, but not its __post_init__: a field that only its
own validation reads is stored for nothing. Like method names, a field name
cannot be tied to its class, so a load of any attribute of that name counts.

Only predicates.py tells model families apart by class: no other module of
src/rwfn makes an isinstance test against RwfnPredicate, NtnPredicate or
LabelPredicate. The others go through the predicate interface (lift,
forward_batch, gradient_batch, stack_key, learnable_params, symbolic).
"""

import ast
from collections import Counter, defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _modules() -> list:
    return sorted((ROOT / "src" / "rwfn").glob("*.py"))


def _callers() -> list:
    return _modules() + sorted(p for p in (ROOT / "perfbench").glob("*.py") if not p.name.startswith("test_"))


def _source_trees() -> dict:
    return {path: ast.parse(path.read_text(), str(path)) for path in _callers()}


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


def _definitions(src: dict) -> list:
    """(key, name, class, mentions) of each module-level function and class
    of src's modules and each method of their classes. key is (module, name) or
    (module, class, method), class the key of a method's class (else None),
    and name None for a dunder method, which its class alone keeps live."""
    out = []
    for path, tree in src.items():
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                out.append(((path.stem, node.name), node.name, None, _names(node)))
            elif isinstance(node, ast.ClassDef):
                cls = (path.stem, node.name)
                methods = [m for m in node.body if isinstance(m, ast.FunctionDef)]
                own = [n for n in node.decorator_list + node.bases + node.keywords + node.body if n not in methods]
                out.append((cls, node.name, None, sum(map(_names, own), Counter())))
                for m in methods:
                    dunder = m.name.startswith("__") and m.name.endswith("__")
                    out.append(((*cls, m.name), None if dunder else m.name, cls, _names(m)))
    return out


def _root_names(src: dict, bench: dict) -> set:
    """The names the roots other than the entry point mention: bench's
    modules whole, and the module-level statements of src's modules but
    __init__, definitions and imports aside."""
    statements = [n for path, tree in src.items() if path.name != "__init__.py" for n in tree.body
                  if not isinstance(n, (ast.FunctionDef, ast.ClassDef, ast.Import, ast.ImportFrom))]
    return set().union(*map(_names, statements), *map(_names, bench.values()))


def _unreachable(src: dict, bench: dict, entry: tuple) -> list:
    """The key (see _definitions) of each definition of src's modules that
    the closure from entry, a (module, function) key, and the other roots
    does not reach."""
    defs = _definitions(src)
    reached, live = _root_names(src, bench), set()
    grew = True
    while grew:
        grew = False
        for key, name, cls, mentions in defs:
            if key not in live and (key == entry or name is None or name in reached) and (cls is None or cls in live):
                live.add(key)
                reached.update(mentions)
                grew = True
    return [key for key, *_ in defs if key not in live]


def unreachable() -> list:
    trees = _source_trees()
    src = {path: trees[path] for path in _modules()}
    return _unreachable(src, {path: tree for path, tree in trees.items() if path not in src}, ("cli", "main"))


def test_every_module_level_name_in_src_has_a_caller():
    assert [key for key in unreachable() if len(key) == 2] == []


def test_guard_sees_an_unused_definition():
    m = ("def main():\n    return used()\n\n\n"
         "def used():\n    return 1\n\n\n"
         "def unused():\n    return used()\n\n\n"
         "def bench_only():\n    return 2\n\n\n"
         "def f(n):\n    return f(n - 1)\n\n\n"
         "def g():\n    return 3\n\n\n"
         "TABLE = {'g': g}\n")
    src = {Path("pkg/m.py"): ast.parse(m)}
    bench = {Path("bench.py"): ast.parse("from pkg.m import bench_only\n\nbench_only()\n")}
    # f names only itself; a module-level statement keeps g, the benchmark bench_only
    assert _unreachable(src, bench, ("m", "main")) == [("m", "unused"), ("m", "f")]


def test_guard_sees_a_chain_named_only_by_a_re_export():
    m = ("def main():\n    return 1\n\n\n"
         "def head():\n    return tail()\n\n\n"
         "def tail():\n    return 2\n")
    src = {Path("pkg/__init__.py"): ast.parse("from .m import head, main\n\n__all__ = ['head', 'main']\n"),
           Path("pkg/m.py"): ast.parse("from . import head\n\n\n" + m)}
    # neither the re-export nor the module's own import keeps head alive
    assert _unreachable(src, {}, ("m", "main")) == [("m", "head"), ("m", "tail")]


def test_every_method_in_src_has_a_caller():
    assert [key for key in unreachable() if len(key) == 3] == []


def test_guard_sees_an_unused_method():
    src = ("class A:\n"
           "    def __init__(self):\n        self.x = 1\n\n"
           "    def used(self):\n        return self.helper()\n\n"
           "    def helper(self):\n        return self.x\n\n"
           "    @property\n    def unused(self):\n        return self.unused\n\n"
           "    def recursive(self, n):\n        return self.recursive(n - 1)\n\n\n"
           "class Dead:\n"
           "    def __len__(self):\n        return 0\n\n"
           "    def used(self):\n        return 1\n\n\n"
           "A().used()\n")
    path = Path("m.py")
    # a dead class's methods die with it, a used name and a dunder included
    assert _unreachable({path: ast.parse(src)}, {}, ("m", "main")) == [
        ("m", "A", "unused"), ("m", "A", "recursive"), ("m", "Dead"), ("m", "Dead", "__len__"), ("m", "Dead", "used")]


def _attribute_loads(node: ast.AST) -> Counter:
    """How often each attribute name is loaded in node's subtree."""
    return Counter(n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load))


def _is_record(cls: ast.ClassDef) -> bool:
    """Whether cls is a dataclass (decorated @dataclass or @dataclass(...))
    or a NamedTuple."""
    decorators = [d.func if isinstance(d, ast.Call) else d for d in cls.decorator_list]
    return any(isinstance(n, ast.Name) and n.id in ("dataclass", "NamedTuple") for n in decorators + cls.bases)


def _unread_fields(trees: dict, modules: list) -> list:
    """(module, class, field) of each field of the dataclasses and
    NamedTuples of modules that trees load as an attribute only in the
    class's own __post_init__, if anywhere."""
    loads = sum((_attribute_loads(tree) for tree in trees.values()), Counter())
    out = []
    for path in modules:
        for cls in ast.walk(trees[path]):
            if isinstance(cls, ast.ClassDef) and _is_record(cls):
                own = sum((_attribute_loads(m) for m in cls.body
                           if isinstance(m, ast.FunctionDef) and m.name == "__post_init__"), Counter())
                out += [(path.stem, cls.name, f.target.id) for f in cls.body
                        if isinstance(f, ast.AnnAssign) and isinstance(f.target, ast.Name)
                        and loads[f.target.id] == own[f.target.id]]
    return out


def unread_fields() -> list:
    return _unread_fields(_source_trees(), _modules())


def test_every_field_in_src_is_read():
    assert unread_fields() == []


def test_guard_sees_an_unread_field():
    src = ("from dataclasses import dataclass\nfrom typing import NamedTuple\n\n\n"
           "@dataclass(frozen=True)\nclass A:\n    read: int\n    checked: int\n    unread: int = 0\n\n"
           "    def __post_init__(self):\n        if self.checked < 0:\n            raise ValueError\n\n\n"
           "@dataclass\nclass B:\n    own: int\n\n    def twice(self):\n        return 2 * self.own\n\n\n"
           "class C(NamedTuple):\n    x: int\n    y: int\n\n\n"
           "class Plain:\n    z: int\n\n\n"
           "a = A(read=1, checked=2, unread=3)\na.unread = 4\nprint(a.read, B(1).twice(), C(1, y=2).x)\n")
    path = Path("m.py")
    # a keyword, a store and the validation are no reads; Plain is no record
    assert _unread_fields({path: ast.parse(src)}, [path]) == [("m", "A", "checked"), ("m", "A", "unread"),
                                                              ("m", "C", "y")]


def _defs(tree: ast.AST) -> list:
    """(name, def, callee, offset) of each module-level function and method
    in tree: name is "f" or "Class.method" (only a module-level function's
    has no dot), callee the name its calls use, and offset the positional
    slots a call fills before its own arguments (self or cls)."""
    out = []
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            out.append((node.name, node, node.name, 0))
        elif isinstance(node, ast.ClassDef):
            for m in node.body:
                if isinstance(m, ast.FunctionDef):
                    static = any(isinstance(d, ast.Name) and d.id == "staticmethod" for d in m.decorator_list)
                    callee = node.name if m.name == "__init__" else m.name
                    out.append((f"{node.name}.{m.name}", m, callee, 0 if static else 1))
    return out


def _defaulted(fn: ast.FunctionDef) -> list:
    """(parameter, position) of each parameter of fn with a default;
    position is None for a keyword-only one."""
    a = fn.args
    positional = a.posonlyargs + a.args
    first = len(positional) - len(a.defaults)
    return ([(arg.arg, i) for i, arg in enumerate(positional) if i >= first]
            + [(arg.arg, None) for arg, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None])


def _passes(call: ast.Call, param: str, position, surely: bool = False) -> bool:
    """Whether call may pass param, position being its slot among the
    positional arguments (None for a keyword-only one); * and ** unpacking
    may pass anything. With surely, whether it does pass it: by keyword, or
    by a positional argument before any * unpacking."""
    if any(k.arg == param or (k.arg is None and not surely) for k in call.keywords):
        return True
    if position is None:
        return False
    plain = next((i for i, x in enumerate(call.args) if isinstance(x, ast.Starred)), len(call.args))
    return position < plain or (not surely and plain < len(call.args))


def _module_names(tree: ast.AST) -> dict:
    """The names tree binds by "from rwfn import m" or "from . import m",
    each to the module (or other name) it imports."""
    return {a.asname or a.name: a.name for n in ast.walk(tree) if isinstance(n, ast.ImportFrom)
            and (n.module, n.level) in (("rwfn", 0), (None, 1)) for a in n.names}


def _defaulted_params(trees: dict, modules: list, exempt: set):
    """(module, def, parameter, calls, position) of each defaulted parameter
    of the defs of modules, with every call in trees of the def (see the
    module docstring) and the parameter's slot among a call's positional
    arguments; exempt holds (module, name) pairs and exported names, whose
    defs (a class's methods included) are skipped."""
    calls = defaultdict(list)  # callee -> (call, its module: None when bare, "" when unresolved)
    for tree in trees.values():
        bound = _module_names(tree)
        for n in ast.walk(tree):
            if not isinstance(n, ast.Call):
                continue
            if isinstance(n.func, ast.Name):
                calls[n.func.id].append((n, None))
            elif isinstance(n.func, ast.Attribute):
                owner = n.func.value
                calls[n.func.attr].append((n, bound.get(owner.id, "") if isinstance(owner, ast.Name) else ""))
    for path in modules:
        for name, fn, callee, offset in _defs(trees[path]):
            if exempt & {name.split(".")[0], (path.stem, name)}:
                continue
            mine = [c for c, module in calls[callee] if "." in name or module in (None, path.stem)]
            for param, pos in _defaulted(fn):
                yield path.stem, name, param, mine, None if pos is None else pos - offset


def _unturned_defaults(trees: dict, modules: list, exempt: set) -> list:
    """(module, def, parameter) of each defaulted parameter that no call
    passes."""
    return [(module, name, param) for module, name, param, calls, pos in _defaulted_params(trees, modules, exempt)
            if not any(_passes(c, param, pos) for c in calls)]


def _overridden_defaults(trees: dict, modules: list, exempt: set) -> list:
    """(module, def, parameter) of each defaulted parameter that every call,
    of one or more, surely passes."""
    return [(module, name, param) for module, name, param, calls, pos in _defaulted_params(trees, modules, exempt)
            if calls and all(_passes(c, param, pos, surely=True) for c in calls)]


def _exports() -> set:
    init = ast.parse((ROOT / "src" / "rwfn" / "__init__.py").read_text())
    return {a.asname or a.name for n in init.body if isinstance(n, ast.ImportFrom) for a in n.names}


def _exempt() -> set:
    return _exports() | {("cli", "main")}


def unturned_defaults() -> list:
    return _unturned_defaults(_source_trees(), _modules(), _exempt())


def overridden_defaults() -> list:
    return _overridden_defaults(_source_trees(), _modules(), _exempt())


def test_every_default_in_src_is_passed_by_a_caller():
    assert unturned_defaults() == []


def test_guard_sees_an_unturned_default():
    src = ("def f(a, b=1, c=2, *, d=3, e=4):\n    return a\n\n\n"
           "def g(a, b=1):\n    return a\n\n\n"
           "def h(a=1):\n    return a\n\n\n"
           "class A:\n"
           "    def __init__(self, x=0):\n        self.x = x\n\n"
           "    def m(self, y=0):\n        return y\n\n"
           "    @staticmethod\n    def s(z=0):\n        return z\n\n\n"
           "f(0, 1, d=2)\ng(*[0, 1])\nh(**{})\nA(1).m()\nA.s(1)\nexported(0)\n\n\n"
           "def exported(a, b=1):\n    return a\n")
    path = Path("m.py")
    assert _unturned_defaults({path: ast.parse(src)}, [path], {"exported"}) == [
        ("m", "f", "c"), ("m", "f", "e"), ("m", "A.m", "y")]


def test_every_default_in_src_is_used_by_a_caller():
    assert overridden_defaults() == []


def test_guard_sees_a_default_every_call_overrides():
    src = ("def f(a, b=1, c=2, *, d=3):\n    return a\n\n\n"
           "def g(a=1, b=2):\n    return a\n\n\n"
           "def h(a=1):\n    return a\n\n\n"
           "def never(a=1):\n    return a\n\n\n"
           "class A:\n"
           "    def __init__(self, x=0):\n        self.x = x\n\n"
           "    def m(self, y=0, z=0):\n        return y\n\n"
           "    @staticmethod\n    def s(w=0):\n        return w\n\n\n"
           "f(0, 1, d=2)\nf(0, b=1, d=3)\n"
           "g(1, *[2])\ng(*[1])\n"
           "h(**{'a': 1})\n"
           "A(1).m(1)\nA(x=2).m(y=2, z=1)\n"
           "A.s(1)\n"
           "exported(0, 1)\n\n\n"
           "def exported(a, b=1):\n    return a\n")
    path = Path("m.py")
    trees = {path: ast.parse(src)}
    # not flagged: f's c (f(0, 1, d=2) skips it), g's a (g(*[1]) may not
    # reach it), h's a (** may not hold it), never's a (no call) and the
    # exported def; a def with no call is the unturned guard's
    assert _overridden_defaults(trees, [path], {"exported"}) == [
        ("m", "f", "b"), ("m", "f", "d"), ("m", "A.__init__", "x"), ("m", "A.m", "y"), ("m", "A.s", "w")]
    assert _unturned_defaults(trees, [path], {"exported"}) == [("m", "f", "c"), ("m", "never", "a")]


def test_guard_resolves_calls_of_module_level_functions():
    m = ("def split(ds, ratio=0.8):\n    return ds\n\n\n"
         "class A:\n    def go(self, y=0):\n        return y\n")
    caller = ("import numpy as np\nfrom rwfn import m, n\n\n\n"
              "np.split(x, 2)\ntext.split(',')\nn.split(ds)\nm.split(ds, 0.5)\nsplit(ds, ratio=0.7)\nthing.go(1)\n")
    path = Path("m.py")
    trees = {path: ast.parse(m), Path("caller.py"): ast.parse(caller)}
    # np.split, str.split and the other module's n.split would each leave
    # ratio at its default; a method's calls are still matched by name
    assert _overridden_defaults(trees, [path], set()) == [("m", "split", "ratio"), ("m", "A.go", "y")]
    del trees[path.with_name("caller.py")].body[-3:-1]
    assert _unturned_defaults(trees, [path], set()) == [("m", "split", "ratio")]


MODEL_CLASSES = {"RwfnPredicate", "NtnPredicate", "LabelPredicate"}


def _model_family_checks(trees: dict) -> list:
    """(module, line) of each isinstance call in trees whose class argument
    names a model class, plainly, through a module or in a tuple."""
    return [(path.stem, n.lineno) for path, tree in trees.items() for n in ast.walk(tree)
            if isinstance(n, ast.Call) and isinstance(n.func, ast.Name) and n.func.id == "isinstance"
            and len(n.args) == 2 and MODEL_CLASSES & set(_names(n.args[1]))]


def test_only_predicates_tells_model_families_apart():
    trees = {path: ast.parse(path.read_text(), str(path)) for path in _modules() if path.name != "predicates.py"}
    assert _model_family_checks(trees) == []


def test_guard_sees_a_model_family_check():
    src = ("from rwfn import predicates\nfrom rwfn.predicates import RwfnPredicate\n\n\n"
           "def f(m):\n"
           "    if isinstance(m, RwfnPredicate):\n        return 1\n"
           "    if isinstance(m, (int, predicates.NtnPredicate)):\n        return 2\n"
           "    return isinstance(m, dict) or m.symbolic\n")
    assert _model_family_checks({Path("m.py"): ast.parse(src)}) == [("m", 6), ("m", 8)]
