"""Every name a library module imports is used in that module, every
exception class in `errors.py` is raised somewhere in the library, and
every function and class the library defines is called or named
somewhere.

The package re-exports names in `__init__.py`, which the import and
exception checks leave out.
"""

import ast
import re
from pathlib import Path

import pytest

import wallcube

MODULES = sorted(p for p in Path(wallcube.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")


def unused_imports(source):
    """(line, name) of each imported name that no expression reads."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.append((node.lineno, name))
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [(line, name) for line, name in imported if name not in read]


def test_detects_unused_import():
    assert unused_imports("import os\nfrom a import b as c, d\nd()\n") == \
        [(1, "os"), (2, "c")]
    # a name only rebound or deleted is not read
    assert unused_imports("import x, y\nx = 1\ndel y\n") == \
        [(1, "x"), (1, "y")]
    # an import inside a function body counts like one at the top
    assert unused_imports("def f():\n    import json\n    from a import b\n"
                          "    return b\n") == [(2, "json")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def raised_names(source):
    """Names of the exceptions that a module's raise statements raise."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name):
                out.add(exc.id)
    return out


def test_detects_raised_names():
    assert raised_names("raise A\nraise B('x') from None\ntry:\n    f()\n"
                        "except C:\n    raise\n") == {"A", "B"}


def test_every_exception_class_is_raised():
    errors = Path(wallcube.__file__).parent / "errors.py"
    classes = [node.name for node in ast.walk(ast.parse(errors.read_text()))
               if isinstance(node, ast.ClassDef)]
    raised = set().union(*(raised_names(p.read_text()) for p in MODULES))
    assert [c for c in classes if c not in raised] == []


ROOT = Path(__file__).resolve().parents[1]


def unreferenced_functions(modules, others):
    """(module name, line, name) of each function, method or class of the
    `modules` texts, dunders aside, whose name appears nowhere outside its
    own definition: not in the rest of its module, nor in another module
    or in the `others` texts."""
    out = []
    for name, source in modules.items():
        lines = source.splitlines()
        texts = [t for n, t in modules.items() if n != name] + others
        for node in ast.walk(ast.parse(source)):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.ClassDef)) \
                    or node.name.startswith("__"):
                continue
            start = min(d.lineno for d in [node, *node.decorator_list])
            rest = "\n".join(lines[:start - 1] + lines[node.end_lineno:])
            # another definition of the name is no reference to it
            word = re.compile(rf"(?<!def )(?<!class )\b{node.name}\b")
            if not any(map(word.search, [rest, *texts])):
                out.append((name, node.lineno, node.name))
    return out


def test_detects_unreferenced_functions():
    source = ("def f():\n    return f()\n\n\nclass A:\n    def g(self):\n"
              "        pass\n\n    def __len__(self):\n        return 0\n")
    assert unreferenced_functions({"m": source}, []) == \
        [("m", 1, "f"), ("m", 5, "A"), ("m", 6, "g")]
    assert unreferenced_functions({"m": source}, ["A().g(); f"]) == []
    assert unreferenced_functions({"m": source, "n": "from m import f"},
                                  ["A().g()"]) == []
    assert unreferenced_functions({"m": source}, ["def f(): pass; A().g()"]) \
        == [("m", 1, "f")]
    # a class no text names, its methods aside
    source += "\n\nclass B(A):\n    def h(self):\n        pass\n"
    assert unreferenced_functions({"m": source}, ["f(); A().g(); x.h()",
                                                  "class B: pass"]) == \
        [("m", 13, "B")]


def test_every_function_is_referenced():
    modules = {p.name: p.read_text() for p in MODULES}
    others = [p.read_text() for pattern in ("tests/*.py", "perfbench/*.py")
              for p in sorted(ROOT.glob(pattern))]
    others.append((Path(wallcube.__file__).parent / "__init__.py").read_text())
    assert unreferenced_functions(modules, others) == []
