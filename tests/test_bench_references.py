"""The benchmark under `perfbench/` calls the library by name, and a change to
the library cannot edit it: every `pairml` name it imports, and every
attribute chain it reads off one, must resolve, so that a rename fails here
and not in a benchmark run."""

import ast
import importlib
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _references(path: Path) -> set[tuple[str, ...]]:
    """Each pairml reference in a file as a dotted path: the names it imports
    from pairml, and the attribute chains it reads off them."""
    tree = ast.parse(path.read_text())
    bound: dict[str, tuple[str, ...]] = {}  # local name -> the path it names
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):  # the benchmark uses from-imports only
            assert not any(a.name.split(".")[0] == "pairml" for a in node.names)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("pairml"):
            for alias in node.names:
                bound[alias.asname or alias.name] = (*node.module.split("."),
                                                     alias.name)
    refs = set(bound.values())
    for node in ast.walk(tree):
        chain = []
        while isinstance(node, ast.Attribute):
            chain.append(node.attr)
            node = node.value
        if chain and isinstance(node, ast.Name) and node.id in bound:
            refs.add(bound[node.id] + tuple(reversed(chain)))
    return refs


def _resolves(ref: tuple[str, ...]) -> bool:
    obj = importlib.import_module(ref[0])
    for i, name in enumerate(ref[1:], 2):
        if hasattr(obj, name):
            obj = getattr(obj, name)
            continue
        try:  # a submodule that nothing imported yet
            obj = importlib.import_module(".".join(ref[:i]))
        except ImportError:
            return False
    return True


def test_every_library_name_the_benchmark_uses_resolves():
    refs = {(path.name, *ref) for path in sorted(BENCH.glob("*.py"))
            for ref in _references(path)}
    assert len(refs) > 100  # 104 when this test was written
    assert [f"{ref[0]}: {'.'.join(ref[1:])}" for ref in sorted(refs)
            if not _resolves(ref[1:])] == []
