"""Every name that a src/localperiods module imports is used in it, and
every parameter of a function defined there is read in its body.

No linter is a dependency, so these are stdlib `ast` checks.  The first is
pyflakes' F401: an import statement marked `# noqa: F401` on any of its
lines is exempt, and only the imports in PINS may carry that mark: they
keep a name in a namespace for a reader outside the module, such as a
bench/ probe.  A new mark cannot hide an unused import.  The second finds
a choice that no input makes, a parameter whose value nothing reads: it
exempts a method's self or cls, a name that starts with `_`, and the cfg
and rng that every function in suites.SUITES takes whether it reads them
or not.
"""

from __future__ import annotations

import ast
from pathlib import Path

from localperiods.suites import SUITES

SRC = Path(__file__).resolve().parents[1] / "src" / "localperiods"

#: the names that each module imports under `# noqa: F401`: cli keeps six
#: for bench/, and bench/tests probe essential_value in periods
PINS = {
    "cli.py": ["RunConfig", "SUITES", "macdonald_closed", "macdonald_sum", "run_lambda",
               "run_macdonald"],
    "periods.py": ["essential_value"],
}


def imports(source: str) -> list[tuple[str, int, bool]]:
    """(name, line, marked) for each name that the module's imports bind;
    marked is whether its import statement carries `# noqa: F401`."""
    tree = ast.parse(source)
    lines = source.splitlines()
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        marked = any("# noqa: F401" in line for line in lines[node.lineno - 1 : node.end_lineno])
        for alias in node.names:
            found.append(((alias.asname or alias.name).split(".")[0], node.lineno, marked))
    return found


def unused_imports(source: str) -> list[str]:
    """The names that the module's imports bind and that nothing in it
    reads, outside the imports marked `# noqa: F401`."""
    used = {node.id for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Name)}
    unused = {name: line for name, line, marked in imports(source) if not marked}
    return [f"line {line}: {name}" for name, line in unused.items() if name not in used]


def test_unused_imports_are_found():
    source = "import os\nimport sys\nfrom json import dumps, loads  # noqa: F401\nsys.exit()\n"
    assert unused_imports(source) == ["line 1: os"]


def test_src_modules_use_every_import():
    found = {
        path.name: unused
        for path in sorted(SRC.glob("*.py"))
        if (unused := unused_imports(path.read_text()))
    }
    assert found == {}


def test_only_the_pins_are_marked():
    marked = {
        path.name: names
        for path in sorted(SRC.glob("*.py"))
        if (names := sorted(name for name, _, mark in imports(path.read_text()) if mark))
    }
    assert marked == PINS


def unread_parameters(source: str) -> list[tuple[str, str]]:
    """(function, parameter) for each parameter of a function defined in
    source, methods and closures included, that its body never reads;
    self, cls and names that start with `_` are exempt."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        args = node.args
        params = [*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg]
        read = {name.id for stmt in node.body for name in ast.walk(stmt)
                if isinstance(name, ast.Name) and isinstance(name.ctx, ast.Load)}
        found += [(node.name, param.arg) for param in params
                  if param and param.arg not in read | {"self", "cls"}
                  and not param.arg.startswith("_")]
    return found


def test_unread_parameters_are_found():
    source = ("class A:\n    def f(self, a, b, _c, *rest):\n        return a\n"
              "def g(x, **kw):\n    def h(y):\n        return x\n    return h\n")
    assert unread_parameters(source) == [("g", "kw"), ("f", "b"), ("f", "rest"), ("h", "y")]


def test_src_functions_read_every_parameter():
    suites = {(fn.__name__, param) for fn in SUITES.values() for param in ("cfg", "rng")}
    found = {
        path.name: unread
        for path in sorted(SRC.glob("*.py"))
        if (unread := [key for key in unread_parameters(path.read_text())
                       if path.name != "suites.py" or key not in suites])
    }
    assert found == {}
