"""Import hygiene: every name a `pairml` module imports is referenced in it.

`__init__.py` is exempt, since its imports are the package's re-exports.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "pairml"


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used)


def test_scan_finds_an_unused_import():
    assert unused_imports("import os\nimport sys\nsys.exit\n") == ["os (line 1)"]


def test_no_unused_imports():
    modules = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
    assert modules
    unused = {p.name: unused_imports(p.read_text()) for p in modules}
    assert {name: names for name, names in unused.items() if names} == {}
