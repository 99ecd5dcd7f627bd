"""Every name that a src/localperiods module imports is used in it.

No linter is a dependency, so this is a stdlib `ast` check of the one rule
it would enforce here (pyflakes' F401).  An import statement marked
`# noqa: F401` on any of its lines is exempt: those keep a name in a
namespace for a reader outside the module, such as a bench/ probe.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "localperiods"


def unused_imports(source: str) -> list[str]:
    """The names that the module's imports bind and that nothing in it
    reads, outside the imports marked `# noqa: F401`."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("# noqa: F401" in line for line in lines[node.lineno - 1 : node.end_lineno]):
            continue
        for alias in node.names:
            imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


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
