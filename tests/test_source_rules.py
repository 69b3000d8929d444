"""Static rules over the package source, read with ``ast``.

* No floating point in any decision: no float literal and no ``float(``
  call, except in the two writers of lossy viewer files.
* No unused import: every name a module imports is read in it, or listed
  in its ``__all__``.
* No unread private name: every module-level function, class or
  assignment whose name starts with a single underscore is read somewhere
  in the package, as a name, an attribute or an import.
* No dead function or class: every module-level function and class is
  read by its own module or another one, or exported from ``__init__``.
* No ``sys.argv`` outside ``cli.main``, where it is the default ``argv``:
  everything else reads the arguments ``main`` was given.
* ``functools.cache`` and ``lru_cache`` only decorate functions with no
  parameters.  A cache keyed on arguments outlives the call that filled
  it, so a later call in the same process (as in a benchmark that repeats
  one artifact) is faster than any single command run alone; work per
  call is shared through a memo that the call itself makes.
* ``json.dumps`` and ``json.loads`` are called only in ``serialize.py``, so
  every payload byte goes through its one writer and its one loader.
* The package makes no ``ContextVar``: no call carries hidden state, and
  a load's parse memo is an argument that ``load_artifact`` passes down.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "spongeknots"
MODULES = sorted(SRC.glob("*.py"))

# (module, function) pairs allowed to hold floats: they write OBJ/PLY text
FLOAT_WRITERS = {("serialize.py", "polyline_obj"), ("serialize.py", "points_ply")}


def _tree(path):
    return ast.parse(path.read_text(), filename=str(path))


def _floats(tree, module):
    """(line, what) of every float literal and float( call outside FLOAT_WRITERS."""
    found = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if (module, function) not in FLOAT_WRITERS:
            if isinstance(node, ast.Constant) and isinstance(node.value, float):
                found.append((node.lineno, repr(node.value)))
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "float":
                found.append((node.lineno, "float("))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, None)
    return found


# (module, function) pairs allowed to read sys.argv
ARGV_READERS = {("cli.py", "main")}


def _argv_reads(tree, module):
    """Line of every ``sys.argv`` outside ARGV_READERS."""
    found = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if ((module, function) not in ARGV_READERS and isinstance(node, ast.Attribute) and node.attr == "argv"
                and isinstance(node.value, ast.Name) and node.value.id == "sys"):
            found.append(node.lineno)
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, None)
    return found


_CACHES = {"cache", "lru_cache"}


def _cache_uses(tree):
    """Line of every ``cache`` or ``lru_cache`` (by name, or as an attribute
    of ``functools``) that is not part of the decorators of a function with
    no parameters."""
    allowed = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            a = node.args
            if not (a.posonlyargs or a.args or a.vararg or a.kwonlyargs or a.kwarg):
                allowed |= {id(n) for dec in node.decorator_list for n in ast.walk(dec)}
    return sorted(
        node.lineno for node in ast.walk(tree)
        if id(node) not in allowed and (
            isinstance(node, ast.Name) and node.id in _CACHES
            or isinstance(node, ast.Attribute) and node.attr in _CACHES
            and isinstance(node.value, ast.Name) and node.value.id == "functools"
        )
    )


# modules allowed to call json.dumps and json.loads
JSON_CALLERS = {"serialize.py"}
_JSON_CALLS = {"dumps", "loads"}


def _json_calls(tree, module):
    """Line of every call of ``json.dumps`` or ``json.loads`` (as an attribute
    of the module, under any name it is imported as, or imported by name)
    outside JSON_CALLERS."""
    if module in JSON_CALLERS:
        return []
    modules, functions = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules |= {alias.asname or alias.name for alias in node.names if alias.name == "json"}
        elif isinstance(node, ast.ImportFrom) and node.module == "json":
            functions |= {alias.asname or alias.name for alias in node.names if alias.name in _JSON_CALLS}
    return sorted(
        node.lineno for node in ast.walk(tree)
        if isinstance(node, ast.Call) and (
            isinstance(node.func, ast.Name) and node.func.id in functions
            or isinstance(node.func, ast.Attribute) and node.func.attr in _JSON_CALLS
            and isinstance(node.func.value, ast.Name) and node.func.value.id in modules
        )
    )


# (module, name) of the only module-level ContextVar assignments allowed: none
CONTEXT_VARS = set()


def _context_vars(tree, module):
    """Line of every ``ContextVar(`` call (under any name it is imported as,
    or as an attribute) that is not the value of a module-level assignment
    to one name in CONTEXT_VARS."""
    names = {"ContextVar"}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "contextvars":
            names |= {alias.asname or alias.name for alias in node.names if alias.name == "ContextVar"}
    allowed = {
        id(node.value) for node in tree.body
        if isinstance(node, ast.Assign) and len(node.targets) == 1 and isinstance(node.targets[0], ast.Name)
        and (module, node.targets[0].id) in CONTEXT_VARS
    }
    return sorted(
        node.lineno for node in ast.walk(tree)
        if isinstance(node, ast.Call) and id(node) not in allowed and (
            isinstance(node.func, ast.Name) and node.func.id in names
            or isinstance(node.func, ast.Attribute) and node.func.attr == "ContextVar"
        )
    )


def _unused_imports(tree):
    """Names a module imports but never reads or lists in ``__all__``."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            read |= {elt.value for elt in node.value.elts}
    return sorted((line, name) for name, line in imported.items() if name not in read)


def _private_definitions(tree):
    """(line, name) of every module-level function, class or assignment
    whose name starts with a single underscore."""
    found = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found.append((node.lineno, node.name))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            found += [(t.lineno, t.id) for target in targets for t in ast.walk(target) if isinstance(t, ast.Name)]
    return [(line, name) for line, name in found if name.startswith("_") and not name.startswith("__")]


def _reads(tree):
    """Every name a module reads, as a name, an attribute or an import."""
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read |= {alias.name for alias in node.names}
    return read


def _functions_and_classes(tree):
    """(line, name) of every module-level function and class."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    return [(node.lineno, node.name) for node in tree.body if isinstance(node, kinds)]


def _unread(trees, definitions):
    """(module, line, name) of the ``definitions(tree)`` that no module
    reads, as a name, an attribute or an import (``__init__`` imports what
    the package exports)."""
    read = set().union(*map(_reads, trees.values()))
    return sorted(
        (module, line, name)
        for module, tree in trees.items() for line, name in definitions(tree) if name not in read
    )


def _unread_privates(trees):
    """(module, line, name) of the private module-level names no module reads."""
    return _unread(trees, _private_definitions)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_floating_point_outside_viewer_writers(path):
    assert _floats(_tree(path), path.name) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_import(path):
    assert _unused_imports(_tree(path)) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_sys_argv_outside_main(path):
    assert _argv_reads(_tree(path), path.name) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_caches_only_on_functions_with_no_parameters(path):
    assert _cache_uses(_tree(path)) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_json_is_written_and_read_only_in_serialize(path):
    assert _json_calls(_tree(path), path.name) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_the_only_context_var_is_the_load_memo(path):
    assert _context_vars(_tree(path), path.name) == []


def test_no_unread_private_name():
    assert _unread_privates({path.name: _tree(path) for path in MODULES}) == []


def test_every_function_and_class_is_referenced_or_exported():
    assert _unread({path.name: _tree(path) for path in MODULES}, _functions_and_classes) == []


def test_rules_see_what_they_forbid():
    source = "import os\nfrom math import gcd, lcm\n\ndef f(x):\n    return float(x) + 0.5 + lcm(x)\n"
    tree = ast.parse(source)
    assert _floats(tree, "serialize.py") == [(5, "float("), (5, "0.5")]
    assert _unused_imports(tree) == [(1, "os"), (2, "gcd")]
    writer = ast.parse("def points_ply(p):\n    return float(p)\n")
    assert _floats(writer, "serialize.py") == []
    assert _floats(writer, "geometry.py") == [(2, "float(")]
    dead = ast.parse("_LIMIT = 3\n\ndef _dead(x):\n    return x\n\ndef _used(x):\n    return x + _LIMIT\n")
    user = ast.parse("from a import _used\n__all__ = []\n")
    assert _unread_privates({"a.py": dead, "b.py": user}) == [("a.py", 3, "_dead")]
    public = ast.parse("def kept(u):\n    return u\n\ndef left(u):\n    return u\n\nclass Shown:\n    pass\n")
    init = ast.parse("from .a import kept\n")
    caller = ast.parse("def f(a):\n    return a.Shown()\n")
    assert _unread({"a.py": public, "__init__.py": init, "b.py": caller}, _functions_and_classes) == [
        ("a.py", 4, "left"), ("b.py", 1, "f"),
    ]
    argv = ast.parse("import sys\n\ndef main(argv=None):\n    return argv or sys.argv[1:]\n\nLOG = sys.argv\n")
    assert _argv_reads(argv, "cli.py") == [6]
    assert _argv_reads(argv, "serialize.py") == [4, 6]
    caches = ast.parse(
        "import functools\nfrom functools import cache, lru_cache\n\n"
        "@cache\ndef table():\n    return []\n\n"
        "@functools.lru_cache(maxsize=None)\ndef row(i):\n    return i\n\n"
        "@functools.cache\ndef col(*, j):\n    return j\n\n"
        "square = lru_cache(lambda i: i * i)\n"
    )
    assert _cache_uses(caches) == [8, 12, 16]
    payload = ast.parse(
        "import json\nimport json as j\nfrom json import loads as parse\n\n"
        "def f(x):\n    return json.dumps(x) + parse(x)\n\n"
        "text = j.loads('1')\nkind = json.JSONDecodeError\n"
    )
    assert _json_calls(payload, "cli.py") == [6, 6, 8]
    assert _json_calls(payload, "serialize.py") == []
    state = ast.parse(
        "import contextvars\nfrom contextvars import ContextVar as CV\n\n"
        "_PARSED = CV('parsed')\n_WRITTEN = contextvars.ContextVar('written')\n\n"
        "def f():\n    return CV('inner')\n"
    )
    assert _context_vars(state, "serialize.py") == [4, 5, 8]
    assert _context_vars(state, "cli.py") == [4, 5, 8]
