"""The solver modules keep no public function that only tests call.

Block-by-block compositions that tests need as oracles live in
``tests/support.py``, built on the solvers' private kernels.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "mvclust"


def _referenced_names(tree, skip):
    # every name, attribute and imported name in the tree, outside ``skip``
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


def test_every_public_solver_function_is_used_in_src():
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in SRC.glob("*.py")}
    unused = []
    for module in ("amvfcm", "aamvfcm"):
        for node in trees[module].body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                used = set().union(*(_referenced_names(t, node) for t in trees.values()))
                if node.name not in used:
                    unused.append(f"{module}.{node.name}")
    assert unused == []
