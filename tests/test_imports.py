"""Every name a library or test module imports is used in that module,
every exception class in `errors.py` is raised somewhere in the library, and
every function and class the library defines is read by production code:
the library's own modules or the benchmark.  A test is no caller, and
neither is the package's `__init__.py`, whose re-export of a name runs
nothing.  A method is read only as an attribute (`x.name`): a bare name
elsewhere that happens to equal it reads some other value.  A method, not
a property, whose name production code also assigns as an attribute
(`x.name = ...`) or defines as a property is read only by a call
(`x.name(...)`): reading the attribute may read that data or property.

The package re-exports names in `__init__.py`, which the import and
exception checks leave out.
"""

import ast
from collections import Counter
from pathlib import Path

import pytest

import wallcube

MODULES = sorted(p for p in Path(wallcube.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")
TESTS = sorted(Path(__file__).parent.glob("*.py"))


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


@pytest.mark.parametrize("path", MODULES + TESTS, ids=lambda p: p.name)
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


def references(tree):
    """How often a tree reads each name, as Counters of the names it reads
    bare (a loaded name, or a name an import statement imports, under an
    alias too), of the names it reads as a loaded attribute, of those it
    calls as an attribute (`x.name(...)`) and of those it assigns as an
    attribute (`x.name = ...`).  Strings, docstrings among them, and
    comments read nothing."""
    bare, attributes, called, assigned = (Counter() for _ in range(4))
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            bare[node.id] += 1
        elif isinstance(node, ast.Attribute):
            if isinstance(node.ctx, ast.Load):
                attributes[node.attr] += 1
            elif isinstance(node.ctx, ast.Store):
                assigned[node.attr] += 1
        elif isinstance(node, ast.alias):
            bare.update(node.name.split("."))
        elif isinstance(node, ast.Call) and \
                isinstance(node.func, ast.Attribute):
            called[node.func.attr] += 1
    return bare, attributes, called, assigned


DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
PROPERTIES = ("property", "cached_property")


def is_property(node):
    """Is the definition decorated as a property?"""
    return any(getattr(d, "id", None) in PROPERTIES
               for d in node.decorator_list)


def unreferenced_functions(modules, others):
    """(module name, line, name) of each function, method or class of the
    `modules` sources, dunders aside, that nothing reads outside its own
    definition: not the rest of its module, another module, or one of the
    `others` sources.  A method counts as read only as an attribute, and
    only by a call when it is no property and some source assigns its
    name as an attribute or defines a property of that name."""
    trees = {name: ast.parse(source) for name, source in modules.items()}
    every = [*trees.values(), *map(ast.parse, others)]
    total = [Counter() for _ in range(4)]
    for tree in every:
        for count, found in zip(total, references(tree)):
            count.update(found)
    bare, attributes, called, assigned = total
    properties = {node.name for tree in every for node in ast.walk(tree)
                  if isinstance(node, DEFINITIONS) and is_property(node)}
    out = []
    for name, tree in trees.items():
        methods = {id(node) for cls in ast.walk(tree)
                   if isinstance(cls, ast.ClassDef) for node in cls.body}
        for node in ast.walk(tree):
            if not isinstance(node, DEFINITIONS) or \
                    node.name.startswith("__"):
                continue
            own_bare, own_attributes, own_called, _ = references(node)
            reads = attributes[node.name] - own_attributes[node.name]
            if id(node) not in methods:
                reads += bare[node.name] - own_bare[node.name]
            elif (node.name in assigned or node.name in properties) and \
                    not is_property(node):
                reads = called[node.name] - own_called[node.name]
            if not reads:
                out.append((name, node.lineno, node.name))
    return out


def production_sources(root):
    """(modules, others) of the checkout at `root`: the library modules by
    file name, and the sources that may call into them besides, which are
    the benchmark's `perfbench/*.py`.  The tests are no callers, and
    neither is the package's `__init__.py`: a re-export runs nothing."""
    package = root / "src" / "wallcube"
    modules = {p.name: p.read_text() for p in sorted(package.glob("*.py"))
               if p.name != "__init__.py"}
    others = [p.read_text() for p in sorted(root.glob("perfbench/*.py"))]
    return modules, others


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
    # a class no source reads, its methods aside
    source += "\n\nclass B(A):\n    def h(self):\n        pass\n"
    assert unreferenced_functions({"m": source}, ["f(); A().g(); x.h()",
                                                  "class B: pass"]) == \
        [("m", 13, "B")]


def test_detects_names_by_their_syntax():
    define = "def name():\n    pass\n"
    # a docstring or a comment that mentions the name reads nothing
    assert unreferenced_functions(
        {"m": define, "n": '"""Calls name()."""\n# name()\n'}, []) == \
        [("m", 1, "name")]
    # an attribute read is a reference, an attribute assignment is not
    assert unreferenced_functions({"m": define}, ["x.name"]) == []
    assert unreferenced_functions({"m": define}, ["x.name = 1"]) == \
        [("m", 1, "name")]
    # an import under an alias refers to the name it imports
    assert unreferenced_functions(
        {"m": define}, ["from m import name as alias\nalias()\n"]) == []


def test_tests_are_no_callers(tmp_path):
    def flagged(files):
        for path, text in files.items():
            (tmp_path / path).parent.mkdir(parents=True, exist_ok=True)
            (tmp_path / path).write_text(text)
        return unreferenced_functions(*production_sources(tmp_path))

    # a definition that only a test calls is flagged
    assert flagged({"src/wallcube/m.py": "def name():\n    pass\n",
                    "src/wallcube/__init__.py": "",
                    "perfbench/run.py": "import wallcube\n",
                    "tests/test_m.py": "from wallcube.m import name\n"
                                       "name()\n"}) == [("m.py", 1, "name")]
    assert flagged({"perfbench/run.py": "from wallcube.m import name\n"}) \
        == []
    # so is one that only the package's __init__ re-exports
    assert flagged({"src/wallcube/__init__.py": "from .m import name\n",
                    "perfbench/run.py": "import wallcube\n"}) == \
        [("m.py", 1, "name")]
    # and a method whose name only a bare name elsewhere reads
    method = "class A:\n    def name(self):\n        pass\n"
    assert flagged({"src/wallcube/m.py": method,
                    "perfbench/run.py": "from wallcube.m import A\n"
                                        "name = A()\nprint(name)\n"}) == \
        [("m.py", 2, "name")]
    assert flagged({"perfbench/run.py": "from wallcube.m import A\n"
                                        "A().name()\n"}) == []
    # and a method read only as an attribute that production code also
    # assigns as data, unless it is a property
    data = "class B:\n    def __init__(self):\n        self.name = 1\n"
    assert flagged({"src/wallcube/m.py": method + "\n\n" + data,
                    "perfbench/run.py": "from wallcube.m import A, B\n"
                                        "print(A, B().name)\n"}) == \
        [("m.py", 2, "name")]
    assert flagged({"perfbench/run.py": "from wallcube.m import A, B\n"
                                        "print(B().name, A().name())\n"}) \
        == []
    prop = method.replace("    def", "    @property\n    def")
    assert flagged({"src/wallcube/m.py": prop + "\n\n" + data,
                    "perfbench/run.py": "from wallcube.m import A, B\n"
                                        "print(A().name, B().name)\n"}) \
        == []
    # and a method read only as an attribute whose name is a property of
    # another class, which the attribute may read instead
    other = prop.replace("class A", "class C")
    assert flagged({"src/wallcube/m.py": method + "\n\n" + other,
                    "perfbench/run.py": "from wallcube.m import A, C\n"
                                        "print(A, C().name)\n"}) == \
        [("m.py", 2, "name")]
    assert flagged({"perfbench/run.py": "from wallcube.m import A, C\n"
                                        "print(C().name, A().name())\n"}) \
        == []


def test_every_function_is_referenced():
    assert unreferenced_functions(*production_sources(ROOT)) == []
