"""Every name a module imports is used in that module, so an import left
behind when its last user is deleted is seen.  The package ``__init__`` is
exempt: its imports are the public API.  Every private module-level name is
read somewhere in the package, so a helper stranded by its last caller is
seen too, and every private module-level function is reached from code
outside such functions, so a helper that only itself or other dead helpers
call is seen as well.  Every public function and every method of every
module is reached from ``cli.main`` or from the benchmark's entry points, so
code that only the tests call is seen.  No function mutates a module-level
list, dict or set, so every process cache is an ``lru_cache`` that the cache
tests can see and empty.  A class that defines ``__getitem__`` also defines
``__iter__`` (or sets it to None), so Python's legacy sequence protocol
never iterates it by index without end.
Names are read from the source, parsed once.  Importing the package loads no
heavy standard-library module."""

import ast
import os
import subprocess
import sys
from functools import cache
from pathlib import Path

from test_tracer_contract import TRACER, _load

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "quantred"


@cache
def _package():
    """{file name: syntax tree} of every module of the package."""
    return {path.name: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(PACKAGE.glob("*.py"))}


def _unused_imports(tree):
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_every_imported_name_is_used():
    modules = {name: tree for name, tree in _package().items() if name != "__init__.py"}
    assert modules
    unused = {}
    for name, tree in modules.items():
        if found := _unused_imports(tree):
            unused[name] = found
    assert not unused, unused


def test_an_unused_import_is_reported():
    tree = ast.parse("from math import gcd, lcm\nimport os.path\nlcm(2, 3)\n")
    assert _unused_imports(tree) == [(1, "gcd"), (2, "os")]


def _private_names(tree):
    """Module-level names with one leading underscore (dunders excluded)
    bound by a def, a class, an assignment or an import alias."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names |= {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names |= {alias.asname for alias in node.names if alias.asname}
    return {name for name in names if name.startswith("_") and not name.startswith("__")}


def _unreferenced_private_names(trees):
    """(module, name) for each private module-level name that is read
    nowhere: not as a name in its own module, and not as an attribute or a
    name imported from it elsewhere."""
    shared = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                shared.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                shared |= {alias.name for alias in node.names}
    unread = []
    for module, tree in trees.items():
        read = shared | {node.id for node in ast.walk(tree)
                         if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        unread += [(module, name) for name in _private_names(tree) if name not in read]
    return sorted(unread)


def test_every_private_name_is_used_in_the_package():
    # a helper whose last caller in the package is gone fails here, even if
    # a test still imports it
    trees = _package()
    assert trees
    assert not _unreferenced_private_names(trees)


def test_a_stranded_private_name_is_reported():
    trees = {name: ast.parse(source) for name, source in {
        "a.py": "from math import gcd as _gcd\n_CACHE = {}\ndef _used(): pass\n"
                "def _stranded(): _used()\nclass _Kept: pass\ndef __dunder__(): pass\n",
        "b.py": "from .a import _Kept\nimport a\na._CACHE.clear()\n"
                "def _stranded(): pass\n_stranded()\n",
    }.items()}
    # b's own _stranded, which b calls, does not keep a's alive
    assert _unreferenced_private_names(trees) == [("a.py", "_gcd"), ("a.py", "_stranded")]


def _reads(node, module):
    """The names a node reads: (module, name) for a plain name, (None, name)
    for an attribute, and (x.py, name) for a name imported ``from .x``."""
    out = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            out.add((module, n.id))
        elif isinstance(n, ast.Attribute):
            out.add((None, n.attr))
        elif isinstance(n, ast.ImportFrom) and n.level == 1:
            out |= {(f"{n.module}.py", alias.name) for alias in n.names}
    return out


def _dead_private_functions(trees):
    """(module, name) for each module-level function with one leading
    underscore that no live code reaches.  Code outside such functions is
    live, and so is a private function that live code names."""
    helpers, frontier = {}, set()
    for module, tree in trees.items():
        for node in tree.body:
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and node.name.startswith("_") and not node.name.startswith("__")):
                helpers[(module, node.name)] = _reads(node, module)
            else:
                frontier |= _reads(node, module)
    live = set()
    while new := {key for key in helpers.keys() - live
                  if key in frontier or (None, key[1]) in frontier}:
        live |= new
        frontier = set().union(*(helpers[key] for key in new))
    return sorted(helpers.keys() - live)


def test_every_private_function_is_reached():
    trees = _package()
    assert trees
    assert not _dead_private_functions(trees)


def test_a_dead_private_function_is_reported():
    trees = {name: ast.parse(source) for name, source in {
        "a.py": "def _loop(n): return _loop(n - 1)\n"
                "def _ping(): _pong()\ndef _pong(): _ping()\n"
                "def _leaf(): pass\ndef _inner(): _leaf()\ndef public(): _inner()\n"
                "def _imported(): pass\ndef _attribute(): pass\n",
        "b.py": "from .a import _imported\nimport a\na._attribute()\ndef _leaf(): _ping()\n",
    }.items()}
    # b's dead _leaf reaches neither a's _ping nor, by name, a's _leaf
    assert _dead_private_functions(trees) == [
        ("a.py", "_loop"), ("a.py", "_ping"), ("a.py", "_pong"), ("b.py", "_leaf")]


def _unreached_public_functions(trees, roots):
    """(module, name) for each public module-level function, and each
    method, property and classmethod as (module, "Class.name"), that the
    reads ``roots`` do not reach.  A module-level function, class or
    assignment (a table of functions, say) reads the names in its body or
    value, as :func:`_dead_private_functions` reads them; a class reads its
    bases and class-level statements and its dunders, which run implicitly,
    and every other method reads its own body.  A plain name is its own
    module's definition or, through a ``from .x import``, the one in x.py;
    a qualified name ("x.py", "Class.name") is that method; an attribute,
    (None, name), is every method of that name and no module-level
    function."""
    defs, imports, checked, methods = {}, {}, set(), {}
    for module, tree in trees.items():
        imports[module] = {alias.asname or alias.name: (f"{node.module}.py", alias.name)
                           for node in tree.body
                           if isinstance(node, ast.ImportFrom) and node.level == 1
                           for alias in node.names}
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                defs[(module, node.name)] = _reads(node, module)
                if not node.name.startswith("_"):
                    checked.add((module, node.name))
            elif isinstance(node, ast.ClassDef):
                own = [*node.bases, *node.keywords, *node.decorator_list]
                for item in node.body:
                    if (isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                            and not (item.name.startswith("__") and item.name.endswith("__"))):
                        key = (module, f"{node.name}.{item.name}")
                        defs[key] = _reads(item, module)
                        checked.add(key)
                        methods.setdefault(item.name, set()).add(key)
                    else:
                        own.append(item)
                defs[(module, node.name)] = set().union(*(_reads(n, module) for n in own))
            elif isinstance(node, (ast.Assign, ast.AnnAssign)) and node.value is not None:
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for target in targets:
                    for n in ast.walk(target):
                        if isinstance(n, ast.Name):
                            defs[(module, n.id)] = _reads(node.value, module)

    def named(read):
        module, name = read
        if module is None:
            return methods.get(name, set())
        return {imports.get(module, {}).get(name, read)} & defs.keys()

    live, frontier = set(), set().union(*map(named, roots))
    while frontier:
        live |= frontier
        frontier = set().union(*(named(read) for key in frontier for read in defs[key])) - live
    return sorted(checked - live)


def _benchmark_roots(trees):
    """The reads by which the benchmark reaches the package: every method
    that ``perfbench/tracer.py::HOT_METHODS`` patches by name, and every
    attribute that ``perfbench/*.py`` reads, as a method or as a function of
    any module (the benchmark calls through the module objects)."""
    tracer = _load("perfbench_tracer", TRACER)
    roots = {(f"{layer}.py", f"{cls}.{name}")
             for cls, (layer, _label, names) in tracer.HOT_METHODS.items() for name in names}
    attributes = {node.attr for path in TRACER.parent.glob("*.py")
                  for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                  if isinstance(node, ast.Attribute)}
    return roots | {(module, name) for name in attributes for module in [None, *trees]}


# off every verification path, but HOT_METHODS names the methods of RingSeries,
# a series in a Chart, so the benchmark's tracer keeps both as they are
_EXEMPT_CLASSES = {("laurent.py", "Chart"), ("laurent.py", "RingSeries")}


def test_every_public_engine_function_is_reached_from_the_command_line():
    # a function or method that only the tests call is a second route to
    # numbers the command line computes one way, or a helper for nothing it
    # prints; the benchmark's own entry points count as reached, and dunders
    # are not checked
    trees = _package()
    assert {"exactnum.py", "cohomology.py", "catalog.py", "cli.py"} <= trees.keys()
    unreached = _unreached_public_functions(
        trees, {("cli.py", "main")} | _benchmark_roots(trees))
    assert [key for key in unreached
            if (key[0], key[1].partition(".")[0]) not in _EXEMPT_CLASSES] == []
    # an exemption goes with its class
    assert _EXEMPT_CLASSES <= {(module, node.name) for module, tree in trees.items()
                               for node in tree.body if isinstance(node, ast.ClassDef)}


def test_an_unreached_public_function_is_reported():
    trees = {name: ast.parse(source) for name, source in {
        "cli.py": "from .a import used as run, Kept\nimport b\n"
                  "def main(): run(); Kept().go(); b.by_attribute(); _TABLE['x']()\n"
                  "def _helper(): pass\n"
                  "_TABLE = {'x': tabled}\ndef tabled(): pass\n",
        "a.py": "from .b import imported\ndef used(): imported()\ndef dead(): used()\n"
                "class Kept:\n    def __init__(self): in_init()\n"
                "    def go(self): return in_method()\n    def idle(self): pass\n"
                "    @property\n    def size(self): return 0\n"
                "def in_init(): pass\ndef in_method(): pass\nclass Unreached:\n"
                "    def by_attribute(self): pass\n",
        "b.py": "def imported(): pass\ndef by_attribute(): pass\ndef used(): pass\n"
                "def only_a_test_calls_me(): pass\n_UNREAD = {'y': in_a_table}\n"
                "def in_a_table(): pass\n",
    }.items()}
    # a's used reaches b's imported, not b's used; b.by_attribute() reaches
    # the method of that name, not b's function; a table that main reads
    # reaches its entries, and one that nothing reads does not; the
    # constructor runs with its class, but idle and size are read nowhere;
    # the private helper and the classes themselves are not reported
    assert _unreached_public_functions(trees, {("cli.py", "main")}) == [
        ("a.py", "Kept.idle"), ("a.py", "Kept.size"), ("a.py", "dead"),
        ("b.py", "by_attribute"), ("b.py", "in_a_table"), ("b.py", "only_a_test_calls_me"),
        ("b.py", "used")]


_MUTATORS = {"append", "extend", "insert", "pop", "popitem", "remove", "clear", "update",
             "setdefault", "add", "discard", "sort", "reverse", "difference_update",
             "intersection_update", "symmetric_difference_update"}
_DISPLAYS = (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)


def _module_containers(tree):
    """Module-level names bound to a list, dict or set: a display, a
    comprehension, or a call of list, dict, set or defaultdict."""
    names = set()
    for node in tree.body:
        if not isinstance(node, (ast.Assign, ast.AnnAssign)) or node.value is None:
            continue
        value = node.value
        if isinstance(value, _DISPLAYS) or (
                isinstance(value, ast.Call) and isinstance(value.func, ast.Name)
                and value.func.id in {"list", "dict", "set", "defaultdict"}):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names |= {t.id for t in targets if isinstance(t, ast.Name)}
    return names


def _mutated_module_containers(tree):
    """(line, name) for each place a function changes a module-level
    container it does not shadow: a mutating method call, a subscript store
    or delete (augmented ones included), or a ``global`` statement."""
    containers = _module_containers(tree)
    found = set()
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        declared = {name for node in ast.walk(func) if isinstance(node, ast.Global)
                    for name in node.names}
        local = {node.arg for node in ast.walk(func.args) if isinstance(node, ast.arg)}
        local |= {node.id for node in ast.walk(func)
                  if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)}
        shared = containers - (local - declared)
        for node in ast.walk(func):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                targets = [node.func.value] if node.func.attr in _MUTATORS else []
            elif isinstance(node, ast.Subscript) and isinstance(node.ctx, (ast.Store, ast.Del)):
                targets = [node.value]
            elif isinstance(node, ast.Global):
                targets = [ast.Name(name) for name in node.names]
            else:
                continue
            found |= {(node.lineno, t.id) for t in targets
                      if isinstance(t, ast.Name) and t.id in shared}
    return sorted(found)


def test_no_function_mutates_a_module_level_container():
    # a process cache kept in a module-level list or dict is invisible to
    # tests/test_caches.py and to the cold_caches fixture; keep it in an
    # lru_cache instead
    mutated = {}
    for name, tree in _package().items():
        if found := _mutated_module_containers(tree):
            mutated[name] = found
    assert not mutated, mutated


def test_a_mutated_module_container_is_reported():
    tree = ast.parse(
        "_TABLE = [1]\n_SEEN: dict = {}\n_NAMES = set()\nLIMIT = 3\n"
        "def extend(n):\n    while len(_TABLE) <= n:\n        _TABLE.append(n)\n"
        "    return _TABLE[:n]\n"
        "def remember(k, v):\n    _SEEN[k] += v\n"
        "def forget():\n    global _NAMES\n    _NAMES = set()\n"
        "def shadowed(_TABLE):\n    _TABLE.append(1)\n    _SEEN = {}\n    _SEEN[1] = 2\n"
        "def reads():\n    return sorted(_NAMES), LIMIT + 1\n")
    assert _mutated_module_containers(tree) == [(7, "_TABLE"), (10, "_SEEN"), (12, "_NAMES")]


def _indexed_without_iter(tree):
    """(line, class name) for each class whose body defines ``__getitem__``
    but not ``__iter__``: iter() would then call ``__getitem__`` with 0, 1,
    2, ... until it raises IndexError, and a lookup that reads a missing key
    as a default never does."""
    found = []
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        names = set()
        for node in cls.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                names.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names |= {t.id for t in targets if isinstance(t, ast.Name)}
        if "__getitem__" in names and "__iter__" not in names:
            found.append((cls.lineno, cls.name))
    return found


def test_every_indexed_class_defines_its_iteration():
    found = {}
    for name, tree in _package().items():
        if classes := _indexed_without_iter(tree):
            found[name] = classes
    assert not found, found


def test_an_indexed_class_without_iteration_is_reported():
    tree = ast.parse(
        "class Endless:\n    def __getitem__(self, k):\n        return 0\n"
        "class Refused:\n    def __getitem__(self, k):\n        return 0\n"
        "    __iter__ = None\n"
        "class Iterated:\n    def __getitem__(self, k):\n        return 0\n"
        "    def __iter__(self):\n        return iter(())\n"
        "class Plain:\n    def __iter__(self):\n        return iter(())\n"
        "def outer():\n    class Inner:\n        __getitem__ = dict.get\n")
    assert _indexed_without_iter(tree) == [(1, "Endless"), (17, "Inner")]


def test_import_leaves_out_heavy_stdlib_modules():
    # dataclasses (which imports inspect) and argparse cost every fresh
    # process about 0.8 MB and 15 ms; only the command line needs argparse
    code = ("import sys; before = set(sys.modules); import quantred; "
            "print(sorted({'argparse', 'dataclasses', 'inspect'} & (set(sys.modules) - before)))")
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True)
    assert out.stdout.strip() == "[]"


# what `quantred verify --json` runs on a document, after its imports
_VERIFY_DOCUMENTS = """
import json, sys
import quantred, quantred.cli
before = set(sys.modules)
from quantred import catalog, instance_from_dict, instance_to_dict, validate
from quantred.reduction import verify_quantization
for name in ("cp1-triple", "cp2-line", "so3-s2xs2", "su2-excluded", "cp2-line"):
    p = instance_from_dict(json.loads(json.dumps(instance_to_dict(catalog(name)))), name)
    validate(p)
    json.dumps(quantred.cli.report_to_json(verify_quantization(p)), indent=2)
print(sorted(set(sys.modules) - before))
"""


def test_a_verification_imports_no_module():
    # a module first imported by a parse, a validation or a report, on a
    # cache miss say, is paid by every one-shot run in its cold pass
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    out = subprocess.run([sys.executable, "-c", _VERIFY_DOCUMENTS], capture_output=True,
                         text=True, env=env, check=True)
    assert out.stdout.strip() == "[]"


def test_class_ring_does_not_import_the_cyclotomic_fields():
    # the class ring is rational: its scalars are ints over one denominator
    tree = _package()["cohomology.py"]
    imported = {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    imported |= {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                 for alias in node.names}
    assert not {name for name in imported if name and name.split(".")[-1] == "exactnum"}
