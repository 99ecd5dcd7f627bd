"""Every name that a src/localperiods module imports is used in it.

No linter is a dependency, so this is a stdlib `ast` check of the one rule
it would enforce here (pyflakes' F401).  An import statement marked
`# noqa: F401` on any of its lines is exempt, and only the imports in PINS
may carry that mark: they keep a name in a namespace for a reader outside
the module, such as a bench/ probe.  A new mark cannot hide an unused
import.
"""

from __future__ import annotations

import ast
from pathlib import Path

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
