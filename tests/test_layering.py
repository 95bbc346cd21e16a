"""Static checks on the package source, with the standard library's ast.

No linter ships with the project, so eight rules are checked here: every
imported name is used, only core reads the storage of a Complex (the
attributes named in Complex.__slots__), only core makes a Simplex without
its checks, no code run at import keeps a
reference to a function that perfbench's traced mode wraps, every private
function, method or class is read somewhere in the package, only a
function without parameters has an unbounded cache, every import sits
at module top level or in a top-level ``if TYPE_CHECKING:`` block, and no
module or class body defines a function or class name twice.  The first
and the last rule also cover the tests and perfbench.
"""

from __future__ import annotations

import ast
import importlib.util
from pathlib import Path

import pytest

from combisphere import Complex

CHECKOUT = Path(__file__).resolve().parents[1]
PACKAGE = CHECKOUT / "src" / "combisphere"
MODULES = sorted(PACKAGE.glob("*.py"), key=lambda p: p.name)
# the files of the tests and of the benchmark, linted like the package
SCRIPTS = sorted((CHECKOUT / "tests").glob("*.py")) + sorted(
    (CHECKOUT / "perfbench").glob("*.py")
)


def _traced_names() -> set[str]:
    """Bare names of the functions in perfbench/tracing.py's LAYERS."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", CHECKOUT / "perfbench" / "tracing.py"
    )
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return {fn.rsplit(".", 1)[-1] for fns in tracing.LAYERS.values() for fn in fns}


TRACED = _traced_names()


def _annotation_names(tree: ast.AST) -> set[str]:
    """Names read in annotations, quoted ones like "Verdict" included."""
    names: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            a = node.args
            args = [*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg]
            exprs = [arg.annotation for arg in args if arg is not None]
            exprs.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            exprs = [node.annotation]
        else:
            continue
        for expr in filter(None, exprs):
            for sub in ast.walk(expr):
                if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                    sub = ast.parse(sub.value, mode="eval")
                names |= {n.id for n in ast.walk(sub) if isinstance(n, ast.Name)}
    return names


def unused_imports(tree: ast.Module) -> list[str]:
    """Names bound by an import that the module never reads."""
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used |= _annotation_names(tree)
    for node in tree.body:  # names re-exported through __all__
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= {elt.value for elt in node.value.elts}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def storage_reads(tree: ast.Module) -> list[str]:
    """Reads of an attribute named in Complex.__slots__."""
    slots = set(Complex.__slots__)
    return [
        f".{node.attr} (line {node.lineno})"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr in slots
    ]


def unchecked_simplices(tree: ast.Module) -> list[str]:
    """Ways round Simplex's checks: a read of any ``__new__``, such as
    ``tuple.__new__``, or of an attribute of ``Simplex``.  Only core may
    make a Simplex without validating it, from facets it has checked."""
    found = [
        node for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and (
            node.attr == "__new__"
            or isinstance(node.value, ast.Name) and node.value.id == "Simplex"
        )
    ]
    return [f"{ast.unparse(node)} (line {node.lineno})"
            for node in sorted(found, key=lambda node: (node.lineno, node.col_offset))]


def import_time_references(tree: ast.Module, traced: set[str]) -> list[str]:
    """Loads of a traced name, other than as a callee, in code run at import.

    The tracer replaces each function in every module that holds it once the
    package is imported.  A reference taken at import (a table value, a
    default argument, a decorator) keeps the original, and calls through it
    escape a traced run.  Function and lambda bodies run later and are skipped.
    """
    callees: set[int] = set()
    found: list[str] = []

    def visit(node: ast.AST) -> None:
        if isinstance(node, ast.Call):
            callees.add(id(node.func))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            a = node.args
            children = [*getattr(node, "decorator_list", ()), *a.defaults,
                        *filter(None, a.kw_defaults)]
        else:
            children = list(ast.iter_child_nodes(node))
            name = getattr(node, "id", getattr(node, "attr", None))
            if (name in traced and isinstance(getattr(node, "ctx", None), ast.Load)
                    and id(node) not in callees):
                found.append(f"{name} (line {node.lineno})")
        for child in children:
            visit(child)

    visit(tree)
    return found


def unread_private_definitions(trees: dict[str, ast.Module]) -> list[str]:
    """Private definitions that no module of trees reads.

    A function, method or class is private when its name starts with an
    underscore, or when it is a member of a private class; dunders are
    exempt, since Python calls them.  A read is any load of the name, as a
    bare name, an attribute or in an annotation, in any of the modules.
    """
    read: set[str] = set()
    for tree in trees.values():
        read |= _annotation_names(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    found: list[str] = []

    def visit(node: ast.AST, prefix: str, private_scope: bool) -> None:
        for child in ast.iter_child_nodes(node):
            if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, prefix, private_scope)
                continue
            name = child.name
            dunder = name.startswith("__") and name.endswith("__")
            private = not dunder and (name.startswith("_") or private_scope)
            if private and name not in read:
                found.append(f"{prefix}{name} (line {child.lineno})")
            # only a private class makes its members private
            member_scope = isinstance(child, ast.ClassDef) and private
            visit(child, f"{prefix}{name}.", member_scope)

    for module, tree in trees.items():
        visit(tree, f"{module}: ", False)
    return found


def _is_unbounded_cache(decorator: ast.expr) -> bool:
    """Whether decorator is functools.cache or lru_cache(maxsize=None)."""
    def name(node: ast.expr) -> str | None:
        return getattr(node, "id", getattr(node, "attr", None))

    if not isinstance(decorator, ast.Call):
        return name(decorator) == "cache"  # a bare lru_cache keeps 128
    if name(decorator.func) != "lru_cache":
        return False
    sizes = [*decorator.args[:1], *(k.value for k in decorator.keywords
                                    if k.arg == "maxsize")]
    return any(isinstance(s, ast.Constant) and s.value is None for s in sizes)


def unbounded_caches(tree: ast.Module) -> list[str]:
    """Functions with parameters under an unbounded cache.

    Such a cache keeps every argument list it is called with, and each
    result with all it refers to, for the life of the process; on a method
    it keeps every instance alive.  Without parameters there is one entry.
    """
    found: list[str] = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        a = node.args
        if not (a.posonlyargs or a.args or a.kwonlyargs or a.vararg or a.kwarg):
            continue
        if any(map(_is_unbounded_cache, node.decorator_list)):
            found.append(f"{node.name} (line {node.lineno})")
    return found


def nested_imports(tree: ast.Module) -> list[str]:
    """Imports that are neither at module top level nor directly in the body
    of a top-level ``if TYPE_CHECKING:``."""
    allowed: set[int] = set()
    for node in tree.body:
        if isinstance(node, ast.If) and getattr(node.test, "id", None) == "TYPE_CHECKING":
            allowed |= {id(child) for child in node.body}
        allowed.add(id(node))
    found = [
        node for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom)) and id(node) not in allowed
    ]
    return [f"{ast.unparse(node)} (line {node.lineno})"
            for node in sorted(found, key=lambda node: node.lineno)]


def redefinitions(tree: ast.Module) -> list[str]:
    """Function and class names that a module or class body defines again,
    so that the later definition hides the earlier one."""
    found: list[str] = []

    def visit(body: list[ast.stmt], prefix: str) -> None:
        names: set[str] = set()
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if node.name in names:
                    found.append(f"{prefix}{node.name} (line {node.lineno})")
                names.add(node.name)
                if isinstance(node, ast.ClassDef):
                    visit(node.body, f"{prefix}{node.name}.")

    visit(tree.body, "")
    return found


def test_the_checks_see_what_they_look_for():
    tree = ast.parse(
        "import os\n"
        "from typing import Any, Sequence\n"
        "from .core import Simplex, _ridge_map\n"
        "def f(x: 'Sequence[int]') -> Any:\n"
        "    return _ridge_map(x)._facets\n"
    )
    assert unused_imports(tree) == ["os (line 1)", "Simplex (line 3)"]
    assert storage_reads(tree) == ["._facets (line 5)"]


def test_the_simplex_check_sees_unchecked_construction():
    tree = ast.parse(
        "from itertools import repeat\n"
        "from .core import Simplex\n"
        "def f(rows):\n"
        "    a = Simplex._raw(rows[0])\n"
        "    b = tuple.__new__(Simplex, rows[1])\n"
        "    return a, b, list(map(tuple.__new__, repeat(Simplex), rows))\n"
        "def g(rows):\n"
        "    return Simplex(rows[0]), Simplex.__name__\n"
    )
    assert unchecked_simplices(tree) == [
        "Simplex._raw (line 4)", "tuple.__new__ (line 5)", "tuple.__new__ (line 6)",
        "Simplex.__name__ (line 8)",
    ]


def test_the_import_check_sees_nested_imports():
    tree = ast.parse(
        "import os\n"
        "from typing import TYPE_CHECKING\n"
        "if TYPE_CHECKING:\n"
        "    from .polytopal import PointConfiguration\n"
        "    if os.name:\n"
        "        import sys\n"
        "else:\n"
        "    import json\n"
        "try:\n"
        "    import gzip\n"
        "except ImportError:\n"
        "    pass\n"
        "def f():\n"
        "    from .constructions import _suspend_and_finish\n"
        "class C:\n"
        "    import math\n"
    )
    assert nested_imports(tree) == [
        "import sys (line 6)", "import json (line 8)", "import gzip (line 10)",
        "from .constructions import _suspend_and_finish (line 14)",
        "import math (line 16)",
    ]


def test_the_cache_check_sees_unbounded_caches():
    tree = ast.parse(
        "import functools\n"
        "from functools import cache, lru_cache\n"
        "@functools.cache\n"
        "def parser():\n"
        "    pass\n"
        "@cache\n"
        "def a(x):\n"
        "    pass\n"
        "@functools.lru_cache(maxsize=None)\n"
        "def b(*args):\n"
        "    pass\n"
        "@lru_cache(None)\n"
        "def c(*, x=1):\n"
        "    pass\n"
        "@lru_cache(maxsize=32)\n"
        "def bounded(x):\n"
        "    pass\n"
        "@lru_cache\n"
        "def default(x):\n"
        "    pass\n"
        "class K:\n"
        "    @functools.cache\n"
        "    def method(self):\n"
        "        pass\n"
    )
    assert unbounded_caches(tree) == [
        "a (line 7)", "b (line 10)", "c (line 13)", "method (line 23)",
    ]


def test_the_private_check_sees_unread_definitions():
    walk = ast.parse(
        "def _used():\n"
        "    def _local():\n"
        "        pass\n"
        "class _Index:\n"
        "    def __init__(self):\n"
        "        self.flip()\n"
        "    def flip(self):\n"
        "        return _used()\n"
        "    def screen(self):\n"
        "        pass\n"
        "class Public:\n"
        "    def method(self):\n"
        "        pass\n"
        "    def _helper(self):\n"
        "        pass\n"
        "    def _called(self):\n"
        "        pass\n"
    )
    # read in another module, as an annotation and an attribute
    reader = ast.parse("def f(x: '_Index') -> None:\n    x.of._called()\n")
    assert unread_private_definitions({"walk": walk, "reader": reader}) == [
        "walk: _used._local (line 2)",
        "walk: _Index.screen (line 9)",
        "walk: Public._helper (line 14)",
    ]
    assert unread_private_definitions({"walk": walk}) == [
        "walk: _used._local (line 2)",
        "walk: _Index (line 4)",
        "walk: _Index.screen (line 9)",
        "walk: Public._helper (line 14)",
        "walk: Public._called (line 16)",
    ]


def test_the_tracer_check_sees_stored_references():
    tree = ast.parse(
        "from . import core\n"
        "from .core import from_facets, join\n"
        "ROWS = {'a': (from_facets, 1), 'b': (lambda: join(x, y), 2)}\n"
        "X = from_facets([(1, 2)])\n"
        "@memo(core.link)\n"
        "def f(build=join, *, cut=core.one_point_suspension):\n"
        "    return from_facets(build)\n"
        "class C:\n"
        "    merge = join\n"
        "if __name__ == '__main__':\n"
        "    main()\n"
    )
    assert import_time_references(tree, TRACED) == [
        "from_facets (line 3)", "link (line 5)", "join (line 6)",
        "one_point_suspension (line 6)", "join (line 9)",
    ]


def test_the_redefinition_check_sees_hidden_definitions():
    tree = ast.parse(
        "def _outcome(call):\n"
        "    def inner():\n"
        "        pass\n"
        "    def inner():\n"
        "        pass\n"
        "class T:\n"
        "    def test_a(self):\n"
        "        pass\n"
        "    def test_a(self):\n"
        "        pass\n"
        "    class Inner:\n"
        "        pass\n"
        "    class Inner:\n"
        "        pass\n"
        "def _outcome(call):\n"
        "    pass\n"
        "_outcome = None\n"
    )
    # a function's own body is not checked, and an assignment is no definition
    assert redefinitions(tree) == [
        "T.test_a (line 9)", "T.Inner (line 13)", "_outcome (line 15)",
    ]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(ast.parse(path.read_text(encoding="utf-8"))) == []


@pytest.mark.parametrize(
    "path", SCRIPTS, ids=lambda p: f"{p.parent.name}/{p.name}"
)
def test_no_unused_imports_in_tests_or_perfbench(path):
    assert unused_imports(ast.parse(path.read_text(encoding="utf-8"))) == []


@pytest.mark.parametrize(
    "path", MODULES + SCRIPTS, ids=lambda p: f"{p.parent.name}/{p.name}"
)
def test_no_definition_is_hidden_by_another(path):
    assert redefinitions(ast.parse(path.read_text(encoding="utf-8"))) == []


@pytest.mark.parametrize(
    "path", [p for p in MODULES if p.name != "core.py"], ids=lambda p: p.name
)
def test_only_core_reads_complex_storage(path):
    assert storage_reads(ast.parse(path.read_text(encoding="utf-8"))) == []


@pytest.mark.parametrize(
    "path", [p for p in MODULES if p.name != "core.py"], ids=lambda p: p.name
)
def test_only_core_makes_unchecked_simplices(path):
    assert unchecked_simplices(ast.parse(path.read_text(encoding="utf-8"))) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_traced_function_is_stored_at_import(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    assert import_time_references(tree, TRACED) == []


def test_every_private_definition_is_read():
    trees = {p.name: ast.parse(p.read_text(encoding="utf-8")) for p in MODULES}
    assert unread_private_definitions(trees) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_at_top_level(path):
    assert nested_imports(ast.parse(path.read_text(encoding="utf-8"))) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unbounded_cache_takes_arguments(path):
    assert unbounded_caches(ast.parse(path.read_text(encoding="utf-8"))) == []
