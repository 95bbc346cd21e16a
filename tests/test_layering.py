"""Static checks on the package source, with the standard library's ast.

No linter ships with the project, so two rules that keep the modules apart
are checked here: every imported name is used, and only core reads the
storage of a Complex (the attributes named in Complex.__slots__).
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

from combisphere import Complex

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "combisphere"
MODULES = sorted(PACKAGE.glob("*.py"), key=lambda p: p.name)


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


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(ast.parse(path.read_text(encoding="utf-8"))) == []


@pytest.mark.parametrize(
    "path", [p for p in MODULES if p.name != "core.py"], ids=lambda p: p.name
)
def test_only_core_reads_complex_storage(path):
    assert storage_reads(ast.parse(path.read_text(encoding="utf-8"))) == []
