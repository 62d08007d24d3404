"""Every module of the package reads each name it imports, and the
library or the benchmark reads every function, class and constant the
package defines at module level.

A name counts as read when a later expression (a quoted annotation
included) names it. ``__future__`` imports, ``__init__.py`` (whose imports
are the package's re-exports) and an import statement whose first line is
marked ``# noqa: F401`` are exempt, as flake8 exempts them.

A module-level definition (a function, a class or a name an assignment
binds, such as a constant; dunder names like ``__version__`` left out)
counts as used when a module of the package other than ``__init__.py``, or
a ``benchmarks/*.py`` file, reads its name: as a name, an attribute, an
imported name or a string constant (the benchmark patches some by their
names), docstrings and assignment targets left out. One that only
tests read is a second copy of what the library runs, so the tests would
check code that nothing runs. The same rule holds for each method of a
module-level class (properties, class and static methods included), by its
name. Special methods (``__len__``, ``__getitem__``, ...) are left out:
Python calls them by syntax, not by name, so no name check can see who
reads them.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "leanrag"
MODULES = sorted(path.name for path in SRC.glob("*.py")
                 if path.name != "__init__.py")
NOQA = "# noqa: F401"
# definitions only tests read, each kept as the reference a test compares
# the library's own code against
TEST_ONLY = {
    # the token list whose length count_tokens returns without building it
    "default_tokenizer",
    # one question's recall@k, which evaluate's recall must average
    "recall_at_k",
}


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


def used_names(source: str) -> set[str]:
    """Every name ``source`` reads as a name (not one it assigns), an
    attribute, an imported name or a string constant other than a
    docstring."""
    tree = ast.parse(source)
    docstrings = {id(node.value) for node in ast.walk(tree)
                  if isinstance(node, ast.Expr)
                  and isinstance(node.value, ast.Constant)}
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            if not isinstance(node.ctx, ast.Store):
                names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rsplit(".", 1)[-1])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and id(node) not in docstrings:
            names.add(node.value)
    return names


def unread_definitions(definitions: dict[str, str],
                       readers: dict[str, str]) -> list[str]:
    """The module-level functions, classes and assigned names of the
    ``definitions`` sources that none of the ``readers`` sources reads, by
    name, dunder names left out."""
    read = set().union(*map(used_names, readers.values()))
    defined = set()
    for source in definitions.values():
        for node in ast.parse(source).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
                defined |= {name.id for target in targets
                            for name in ast.walk(target)
                            if isinstance(name, ast.Name)
                            and isinstance(name.ctx, ast.Store)}
    return sorted(name for name in defined - read
                  if not (name.startswith("__") and name.endswith("__")))


def unread_methods(definitions: dict[str, str],
                   readers: dict[str, str]) -> list[str]:
    """``Class.method`` of each method of a module-level class of the
    ``definitions`` sources, special methods left out, whose name none of
    the ``readers`` sources reads."""
    read = set().union(*map(used_names, readers.values()))
    return sorted(
        f"{node.name}.{item.name}" for source in definitions.values()
        for node in ast.parse(source).body if isinstance(node, ast.ClassDef)
        for item in node.body
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not (item.name.startswith("__") and item.name.endswith("__"))
        and item.name not in read)


def library_and_benchmark():
    """(sources of the package's modules, sources that count as readers:
    those but ``__init__.py``, and every ``benchmarks/*.py``)."""
    sources = {path.name: path.read_text(encoding="utf-8")
               for path in SRC.glob("*.py")}
    readers = {name: source for name, source in sources.items()
               if name != "__init__.py"}
    for path in (ROOT / "benchmarks").glob("*.py"):
        readers[f"benchmarks/{path.name}"] = path.read_text(encoding="utf-8")
    return sources, readers


def test_library_or_benchmark_reads_every_method():
    assert unread_methods(*library_and_benchmark()) == []


def test_the_check_finds_a_test_only_method():
    library = ("class Kept:\n"
               "    def __len__(self):\n"
               "        return 0\n"
               "    def run(self):\n"
               "        return self._private() + self.value\n"
               "    def _private(self):\n"
               "        return 1\n"
               "    @property\n"
               "    def value(self):\n"
               "        return 2\n"
               "    @classmethod\n"
               "    def load(cls, path):\n"
               "        return cls()\n"
               "    def helper(self):\n"
               "        return 3\n")
    benchmark = "Kept.load('path').run()\n"
    assert unread_methods({"library.py": library},
                          {"library.py": library,
                           "benchmarks/run.py": benchmark}) == \
        ["Kept.helper"]


def test_library_or_benchmark_reads_every_definition():
    assert unread_definitions(*library_and_benchmark()) == sorted(TEST_ONLY)


def test_the_check_finds_a_test_only_definition():
    library = ('"""A docstring that names helper() and Kept."""\n'
               "def run():\n"
               '    """helper() is not a read."""\n'
               "    return _private() + patched.count\n"
               "def _private():\n"
               "    return 1\n"
               "def helper():\n"
               "    return 2\n"
               "class Kept:\n"
               "    pass\n"
               "def count():\n"
               "    return 3\n"
               "def by_name():\n"
               "    return 4\n")
    benchmark = ("from library import run, Kept\n"
                 "setattr(library, 'by_name', None)\n")
    assert unread_definitions({"library.py": library},
                              {"library.py": library,
                               "benchmarks/run.py": benchmark}) == ["helper"]


def test_the_check_finds_a_test_only_constant():
    library = ("__version__ = '1'\n"
               "LIMIT = 10\n"
               "USED: int = 2\n"
               "FIRST, SECOND = 1, 2\n"
               "TABLE: dict = {}\n"
               "TABLE['key'] = USED\n"
               "def run():\n"
               "    return USED + SECOND\n")
    benchmark = "from library import run\nlibrary.TABLE.clear()\n"
    assert unread_definitions({"library.py": library},
                              {"library.py": library,
                               "benchmarks/run.py": benchmark}) == \
        ["FIRST", "LIMIT"]
