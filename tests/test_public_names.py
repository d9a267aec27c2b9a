"""Every name a `regsent` module exports is used somewhere else in the package."""

from __future__ import annotations

import ast
from pathlib import Path

import regsent

PACKAGE = Path(regsent.__file__).resolve().parent

# Exported names with no caller in the package, each kept for a stated reason.
UNCALLED_ON_PURPOSE = {
    "stage_import_predictions": "run_stage dispatches by name",
    "shift_regression": "the paper's period-dummy OLS; ROADMAP item 7 wires it into shift-test",
}


def _references(node: ast.AST) -> set[str]:
    """Names read, attributes read and names imported anywhere under `node`."""
    names: set[str] = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
            names.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            names.update(alias.name for alias in sub.names)
    return names


def _defines(statement: ast.stmt, name: str) -> bool:
    if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return statement.name == name
    targets = statement.targets if isinstance(statement, ast.Assign) else [getattr(statement, "target", None)]
    return any(isinstance(target, ast.Name) and target.id == name for target in targets)


def _exported(tree: ast.Module) -> list[str]:
    for statement in tree.body:
        if isinstance(statement, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in statement.targets
        ):
            return list(ast.literal_eval(statement.value))
    return []


def _uncalled() -> set[str]:
    """Exported names that no top-level statement of the package reads, other than their own definition."""
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(PACKAGE.glob("*.py"))}
    statements = [(module, statement) for module, tree in trees.items() for statement in tree.body]
    return {
        name
        for module, tree in trees.items()
        for name in _exported(tree)
        if not any(
            name in _references(statement)
            for owner, statement in statements
            if not (owner == module and _defines(statement, name))
        )
    }


def test_every_exported_name_has_a_caller():
    uncalled = _uncalled()
    assert uncalled - set(UNCALLED_ON_PURPOSE) == set()
    # an entry goes once its name gains a caller or leaves __all__
    assert set(UNCALLED_ON_PURPOSE) <= uncalled
