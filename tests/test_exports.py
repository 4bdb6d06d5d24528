"""The package's export list, and the packages its modules import."""

import ast
import sys
import types
from pathlib import Path

import qguess

RUNTIME_PACKAGES = {"numpy", "click", "qguess"}


def test_all_lists_every_public_name_sorted():
    public = {
        name
        for name, value in vars(qguess).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert qguess.__all__ == sorted(qguess.__all__)
    assert set(qguess.__all__) == public
    assert len(qguess.__all__) == len(public)


def test_modules_import_only_the_stdlib_and_the_runtime_dependencies():
    # every import statement, at module level or inside a function; relative
    # imports stay within the package
    imported = set()
    for path in sorted(Path(qguess.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                imported.update((path.name, alias.name.partition(".")[0]) for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add((path.name, node.module.partition(".")[0]))
    assert imported
    foreign = sorted((name, package) for name, package in imported
                     if package not in sys.stdlib_module_names and package not in RUNTIME_PACKAGES)
    assert foreign == []
