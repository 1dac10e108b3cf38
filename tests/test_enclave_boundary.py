"""The code an enclave runs: the closure of the enclave entry points over the
`pairml` sources, and the host code it must never reach.

Counting rule.  A node is a top-level definition of a `pairml` module: a
function, a class or an assignment.  A class counts whole, every method
included.  From a node, follow each name its code loads, annotations
included, that resolves to a node: a top-level name of its own module, a
name imported from another `pairml` module, or `m.name` for a `pairml`
module `m`.  A call on an object (`x.send(...)`) is not followed by its
method name; the object's class is in the closure when the code builds it,
calls it or names it in an annotation.  The entry points are the classes
`SingleTee`, `TeeTriple` and `TeeParty` and the gadget recipes.  The count
is the source lines of the nodes reached, docstrings and comments included.

Each mode runs its own enclave, counted on its own: a single-TEE enclave
from `SingleTee` and the recipes, each multi-TEE enclave from `TeeTriple`,
`TeeParty` and the recipes.  Both modes together are the whole closure.

An enclave's inputs are the prime p, its seed bundle and its channels.  It
takes no `ProtocolParams`: the parameter set, with its prime search and text
form, is host code.

No count may grow past its bound, `MODE_BOUNDS` per mode and
`CLOSURE_BOUND` for both: a change that adds enclave code raises the bound
in the same change and says why.  Run `python tests/test_enclave_boundary.py`
to print each mode's count by module.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "pairml"

RECIPES = [("gadgets", "recipe"), ("gadgets", "_wire"), ("gadgets", "_max2"),
           ("gadgets", "_maxpool"), ("gadgets", "_argmax")]
MODES = {"single-TEE": [("tee", "SingleTee"), *RECIPES],
         "multi-TEE": [("tee", "TeeTriple"), ("tee", "TeeParty"), *RECIPES]}
ENTRY = [e for entry in MODES.values() for e in entry]  # both modes

# host code: the servers' protocol, the parameter set, HSS and its ring,
# fixed point, the models, the online gadget sessions and the FSS tree walker
HOST_MODULES = {"engine", "sim", "params", "hss", "lpr", "ring", "fixedpoint",
                "models"}
HOST_NODES = {("fss", "_walk")}

# source lines; the paper's enclave has about 1,300.  Multi-TEE key
# generation takes node sizes from `prg.layout` and seed areas from
# `prg.children`, so its count holds no `prg.Tree`
MODE_BOUNDS = {"single-TEE": 700, "multi-TEE": 1206}
CLOSURE_BOUND = 1369


class _Module:
    """One source module: its top-level nodes and the names it imports."""

    def __init__(self, path: Path):
        tree = ast.parse(path.read_text())
        self.nodes: dict[str, ast.stmt] = {}
        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                self.nodes[stmt.name] = stmt
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                for name in ast.walk(stmt):
                    if isinstance(name, ast.Name) and isinstance(name.ctx, ast.Store):
                        self.nodes[name.id] = stmt
        self.modules: dict[str, str] = {}  # local name -> pairml module
        self.imported: dict[str, tuple[str, str]] = {}  # -> (module, name)
        for node in ast.walk(tree):  # function-local imports count too
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    local = alias.asname or alias.name
                    if node.module is None:
                        self.modules[local] = alias.name
                    else:
                        self.imported[local] = (node.module, alias.name)

    def references(self, stmt: ast.stmt):
        """Every (module, name) that the node's code loads."""
        for node in ast.walk(stmt):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                    and node.value.id in self.modules:
                yield self.modules[node.value.id], node.attr
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                if node.id in self.imported:
                    yield self.imported[node.id]
                elif node.id in self.nodes:
                    yield None, node.id


def _lines(stmt: ast.stmt) -> int:
    decorators = getattr(stmt, "decorator_list", [])
    return stmt.end_lineno - min([stmt.lineno] + [d.lineno for d in decorators]) + 1


def enclave_closure(src: Path = SRC, entry=ENTRY) -> dict[tuple[str, str], int]:
    """Each node the entry points reach, with its line count."""
    modules = {path.stem: _Module(path) for path in src.glob("*.py")}
    reached: dict[tuple[str, str], int] = {}
    seen: set[int] = set()  # an assignment of several names counts once
    todo = list(entry)
    while todo:
        mod, name = todo.pop()
        stmt = modules[mod].nodes.get(name)
        if stmt is None or (mod, name) in reached:
            continue  # a module name, a builtin, or one already counted
        reached[(mod, name)] = 0 if id(stmt) in seen else _lines(stmt)
        seen.add(id(stmt))
        for ref_mod, ref in modules[mod].references(stmt):
            todo.append((ref_mod or mod, ref))
    return reached


def test_the_enclave_reaches_no_host_code():
    reached = enclave_closure()
    host = sorted(f"{mod}.{name}" for mod, name in reached
                  if mod in HOST_MODULES or (mod, name) in HOST_NODES
                  or name.endswith("Session"))
    assert host == []
    # both modes' key generation is inside
    assert {("fss", "_tree_gen"), ("tee", "_Batch"), ("shares3", "Bool3Engine"),
            ("shares3", "Arith3Engine"), ("shares3", "TriadNet")} <= set(reached)


def test_the_enclave_closure_does_not_grow():
    for mode, entry in MODES.items():
        lines = sum(enclave_closure(entry=entry).values())
        print(f"{mode} enclave: {lines} lines")
        assert lines <= MODE_BOUNDS[mode], mode
    lines = sum(enclave_closure().values())
    print(f"both modes: {lines} lines")
    assert lines <= CLOSURE_BOUND


def test_multi_tee_key_generation_reads_no_tree_object():
    # the 3PC needs only node sizes and seed areas, so the walker's layout
    # object, its leaf conversion and its packing stay out of that enclave
    reached = enclave_closure(entry=MODES["multi-TEE"])
    assert {("prg", "layout"), ("prg", "children")} <= set(reached)
    assert not {("prg", "tree"), ("prg", "Tree"), ("prg", "_mask")} & set(reached)


def test_a_call_into_host_code_is_caught(tmp_path):
    # a key source that walked its keys would reach the tree walker
    for path in SRC.glob("*.py"):
        text = path.read_text()
        if path.stem == "gadgets":
            assert "gen = dcf_gen if" in text
            text = text.replace("gen = dcf_gen if", "gen = dcf_eval_many if")
        (tmp_path / path.name).write_text(text)
    assert ("fss", "_walk") in enclave_closure(tmp_path)


if __name__ == "__main__":
    for mode, entry in [*MODES.items(), ("both modes", ENTRY)]:
        counts: dict[str, int] = {}
        for (mod, _), lines in enclave_closure(entry=entry).items():
            counts[mod] = counts.get(mod, 0) + lines
        print(mode)
        for mod, lines in sorted(counts.items(), key=lambda kv: -kv[1]):
            print(f"  {mod:<10} {lines:>5}")
        print(f"  {'total':<10} {sum(counts.values()):>5}")
