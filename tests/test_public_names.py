"""Every public name of `src/frislink` is read somewhere in `src/`.

A name in a module's `__all__` counts as used when some module of the
package loads it, as a name or as an attribute, outside the top-level
statement that defines it: a name that only the tests call is not part of
the program, so it belongs in the tests.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "frislink"

# public names no command reads yet, each kept for a stated reason
ALLOWED_UNUSED = {
    # perfbench's tracer wraps it until the benchmark reads the engine's
    # own run report instead: ROADMAP item 1
    "run_trials",
}


def _public_names(tree: ast.Module) -> list:
    """The names of a module's literal `__all__`, or none."""
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in stmt.targets
        ):
            try:
                return list(ast.literal_eval(stmt.value))
            except ValueError:  # computed, as the package's re-export is
                return []
    return []


def _defined_names(stmt: ast.stmt) -> set:
    """The names a top-level statement binds."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return {stmt.name}
    targets = []
    if isinstance(stmt, ast.Assign):
        targets = stmt.targets
    elif isinstance(stmt, ast.AnnAssign):
        targets = [stmt.target]
    return {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}


def _loads(stmt: ast.stmt) -> set:
    """The names a statement reads, as loaded names or as attributes."""
    out = set()
    for node in ast.walk(stmt):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
    return out


def unused_public_names(src: Path) -> list:
    """(module, name) for each public name that no module of `src` reads
    outside the top-level statement of its own module that defines it."""
    trees = {path.stem: ast.parse(path.read_text(), str(path)) for path in sorted(src.glob("*.py"))}
    unused = []
    for module, tree in trees.items():
        for name in _public_names(tree):
            read = any(
                name in _loads(stmt)
                and not (other == module and name in _defined_names(stmt))
                for other, other_tree in trees.items()
                for stmt in other_tree.body
            )
            if not read:
                unused.append((module, name))
    return unused


def test_every_public_name_is_read_in_src():
    unused = unused_public_names(SRC)
    assert [(module, name) for module, name in unused if name not in ALLOWED_UNUSED] == []
    # an exception that a later change reads, or removes, leaves the list
    assert {name for _, name in unused} == ALLOWED_UNUSED


def test_an_unused_public_function_is_found(tmp_path):
    (tmp_path / "used.py").write_text(
        '__all__ = ["helper", "orphan", "LIMIT"]\n'
        "LIMIT = 3\n\n\n"
        "def helper(x):\n    return min(x, LIMIT)\n\n\n"
        "def orphan(n):\n    return orphan(n - 1) if n else helper(0)\n"
    )
    (tmp_path / "caller.py").write_text("from . import used\n\nVALUE = used.helper(1)\n")
    # orphan reads only itself; helper is read as an attribute elsewhere,
    # LIMIT inside another statement of its own module
    assert unused_public_names(tmp_path) == [("used", "orphan")]

