"""Guard against code in src/ that only tests call.

Every public module-level function and class of the library must be used
by name in the library's own code, outside its definition, or by the
benchmark harness in perfbench/. Test-only helpers belong in
tests/oracles.py.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "peduncle"

# called from outside the library: the console script and the fixed-seed
# C6 benchmark procedure
ENTRY_POINTS = {"cli.main", "workflows.run_benchmark"}


def used_names(tree: ast.AST, skip: ast.AST | None = None) -> set[str]:
    """Identifiers a tree uses as names, attributes or imports, leaving out
    the subtree `skip`."""
    names = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
        stack.extend(ast.iter_child_nodes(node))
    return names


def test_every_public_definition_is_used_outside_tests():
    trees = {path.stem: ast.parse(path.read_text(), str(path)) for path in sorted(SRC.glob("*.py"))}
    bench = set()
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        bench |= used_names(ast.parse(path.read_text(), str(path)))
    names = {module: used_names(tree) for module, tree in trees.items()}
    unused = []
    for module, tree in trees.items():
        other_modules = set().union(*(n for m, n in names.items() if m != module))
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            if f"{module}.{node.name}" in ENTRY_POINTS or node.name in bench | other_modules:
                continue
            if node.name not in used_names(tree, skip=node):
                unused.append(f"{module}.{node.name}")
    assert unused == []
