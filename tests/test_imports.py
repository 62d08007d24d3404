"""Every module of the package reads each name it imports.

A name counts as read when a later expression (a quoted annotation
included) names it. ``__future__`` imports, ``__init__.py`` (whose imports
are the package's re-exports) and an import statement whose first line is
marked ``# noqa: F401`` are exempt, as flake8 exempts them.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "leanrag"
MODULES = sorted(path.name for path in SRC.glob("*.py")
                 if path.name != "__init__.py")
NOQA = "# noqa: F401"


def read_names(tree: ast.AST) -> set[str]:
    """Every name an expression of ``tree`` reads, with the names inside
    string annotations."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        annotations = []
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        for annotation in annotations:
            for part in ast.walk(annotation) if annotation else ():
                if isinstance(part, ast.Constant) and \
                        isinstance(part.value, str):
                    names |= read_names(ast.parse(part.value, mode="eval"))
    return names


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)) or \
                getattr(node, "module", None) == "__future__" or \
                NOQA in lines[node.lineno - 1]:
            continue
        imported += [alias.asname or alias.name.split(".")[0]
                     for alias in node.names]
    used = read_names(tree)
    return [name for name in imported if name not in used]


@pytest.mark.parametrize("module", MODULES)
def test_module_reads_every_import(module):
    assert unused_imports((SRC / module).read_text(encoding="utf-8")) == []


def test_the_check_finds_an_unused_import():
    source = ("from __future__ import annotations\n"
              "import os, sys\n"
              "from typing import Sequence\n"
              "from json import dumps  # noqa: F401\n"
              "def f(x: 'Sequence[int]') -> None:\n"
              "    return sys.argv\n")
    assert unused_imports(source) == ["os"]
