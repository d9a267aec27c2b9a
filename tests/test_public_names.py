"""Every name a `regsent` module exports, imports or defines as private is read in the package, and each
module imports from the package only what its layer allows."""

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


# Each module -> what it may import from the package, function-local and TYPE_CHECKING imports included:
# a module name, or a name the package itself defines, such as its version.
ALLOWED_IMPORTS = {
    "errors": set(),
    **dict.fromkeys(("corpus", "preprocess", "stats", "fixtures"), {"errors"}),
    "regional": {"errors", "stats"},
    "sentiment": {"errors", "regional"},
    "pipeline": {"errors", "corpus", "preprocess", "sentiment", "regional", "stats"},
    "cli": {"errors", "fixtures", "pipeline", "__version__"},
    "__init__": set(),
    "__main__": {"cli"},
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


def _bound(statement: ast.stmt) -> list[str]:
    """The names a top-level definition or assignment binds."""
    if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [statement.name]
    targets = statement.targets if isinstance(statement, ast.Assign) else [getattr(statement, "target", None)]
    return [target.id for target in targets if isinstance(target, ast.Name)]


def _exported(tree: ast.Module) -> list[str]:
    for statement in tree.body:
        if isinstance(statement, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in statement.targets
        ):
            return list(ast.literal_eval(statement.value))
    return []


def _trees() -> dict[str, ast.Module]:
    return {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(PACKAGE.glob("*.py"))}


def _unread(trees: dict[str, ast.Module], defined: set[tuple[str, str]]) -> set[tuple[str, str]]:
    """The (module, name) pairs that no top-level statement of the package reads, other than the name's definition."""
    statements = [(module, statement) for module, tree in trees.items() for statement in tree.body]
    return {
        (module, name)
        for module, name in defined
        if not any(
            name in _references(statement)
            for owner, statement in statements
            if not (owner == module and name in _bound(statement))
        )
    }


def _uncalled() -> set[str]:
    """Exported names that no top-level statement of the package reads, other than their own definition."""
    trees = _trees()
    return {name for _, name in _unread(trees, {(module, name) for module, tree in trees.items()
                                                for name in _exported(tree)})}


def test_every_exported_name_has_a_caller():
    uncalled = _uncalled()
    assert uncalled - set(UNCALLED_ON_PURPOSE) == set()
    # an entry goes once its name gains a caller or leaves __all__
    assert set(UNCALLED_ON_PURPOSE) <= uncalled


def test_every_imported_name_is_read_in_its_module():
    unread = set()
    for module, tree in _trees().items():
        read = set(_exported(tree)) | {
            node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
                unread |= {(module, name) for alias in node.names
                           if (name := (alias.asname or alias.name).split(".")[0]) not in read}
    assert unread == set()


def _package_imports(tree: ast.Module) -> set[str]:
    """The package modules `tree` imports anywhere, and the names it imports from the package itself."""
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {alias.name.split(".")[1] for alias in node.names if alias.name.startswith("regsent.")}
        elif isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").split(".")[0] == "regsent"):
            module = (node.module or "") if node.level else node.module.removeprefix("regsent").lstrip(".")
            if module:
                imported.add(module.split(".")[0])
            else:  # `from . import x`: a module, or a name of the package's `__init__`
                imported |= {alias.name for alias in node.names}
    return imported


def test_each_module_imports_only_from_the_layers_beneath_it():
    trees = _trees()
    modules = {Path(name).stem for name in trees}
    assert set(ALLOWED_IMPORTS) == modules
    imports = {Path(name).stem: _package_imports(tree) for name, tree in trees.items()}
    disallowed = {module: names - ALLOWED_IMPORTS[module] for module, names in imports.items()}
    assert disallowed == dict.fromkeys(modules, set())


def test_every_private_module_name_is_read_in_the_package():
    trees = _trees()
    private = {
        (module, name)
        for module, tree in trees.items()
        for statement in tree.body
        for name in _bound(statement)
        if name.startswith("_") and not name.startswith("__")
    }
    assert _unread(trees, private) == set()
