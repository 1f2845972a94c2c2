"""The solver modules keep no public function that only tests call, and no
setting that changes a run comes from the environment.

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


ENVIRONMENT = ("environ", "environb", "getenv", "getenvb")


def _environment_reads(tree):
    # what each read of the process environment in the tree reads: the key of
    # os.environ[key], os.environ.get(key) or os.getenv(key), as a literal or
    # as source text, and "?" for any other use, such as a whole-mapping copy
    parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
    reads = []
    for node in ast.walk(tree):
        if isinstance(node, ast.alias) and node.name in ENVIRONMENT:
            reads.append("?")
        if not (isinstance(node, ast.Attribute) and node.attr in ENVIRONMENT):
            continue
        up, key = parents[node], None
        if isinstance(up, ast.Subscript) and up.value is node:
            key = up.slice
        elif isinstance(up, ast.Attribute) and up.attr == "get":
            node, up = up, parents[up]
        if isinstance(up, ast.Call) and up.func is node and up.args:
            key = up.args[0]
        reads.append("?" if key is None
                     else key.value if isinstance(key, ast.Constant) else ast.unparse(key))
    return reads


def test_only_the_cache_location_is_read_from_the_environment():
    # XDG_CACHE_HOME places the parse cache and changes no result
    reads = {f"{path.stem}:{key}" for path in SRC.glob("*.py")
             for key in _environment_reads(ast.parse(path.read_text(encoding="utf-8")))}
    assert reads == {"data:XDG_CACHE_HOME"}
