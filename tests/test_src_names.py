"""Every top-level name of ``src/bulkgrow`` has a use in ``src/bulkgrow``.

A top-level function, class or module constant counts as used when package
code loads it outside its own definition: by its bare name in its own
module, or by the name a ``from .module import name`` binds.  An import
alone is no use.  Dunder names (``__version__``) are read by tools and are
not checked.  A name that only tests or the benchmark read is API kept for
them: it belongs in the tests, or in the allowlist below with its reason.
"""

import ast
from pathlib import Path

import bulkgrow

PACKAGE = Path(bulkgrow.__file__).parent

# (module, name) -> why no package code reads it.
ALLOWED = {
    ("oracle", "sphere_oracle_mesh"):
        "the converge2d benchmark probe times it; it moves into the tests "
        "with the next change to the benchmark",
}


def defined_names(stmt):
    """Names a top-level statement defines: a function, a class, or the
    targets of an assignment."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return {stmt.name}
    targets = stmt.targets if isinstance(stmt, ast.Assign) else \
        [stmt.target] if isinstance(stmt, ast.AnnAssign) else []
    return {node.id for target in targets for node in ast.walk(target)
            if isinstance(node, ast.Name)}


def unused_names():
    """{(module, name)} of the package's top-level names that no package
    code loads outside their own definitions."""
    trees = {path.stem: ast.parse(path.read_text()) for path in PACKAGE.glob("*.py")}
    defined = {(module, name) for module, tree in trees.items() for stmt in tree.body
               for name in defined_names(stmt) if not name.startswith("__")}
    used = set()
    for module, tree in trees.items():
        imported = {alias.asname or alias.name: (node.module, alias.name)
                    for node in ast.walk(tree)
                    if isinstance(node, ast.ImportFrom) and node.level == 1
                    for alias in node.names}
        for stmt in tree.body:
            own = defined_names(stmt)
            for node in ast.walk(stmt):
                if (isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
                        and node.id not in own):
                    used.add(imported.get(node.id, (module, node.id)))
    return defined - used


def test_every_src_name_has_a_src_use():
    assert unused_names() == set(ALLOWED)
