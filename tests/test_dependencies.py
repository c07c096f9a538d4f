"""The package's runtime dependencies: the standard library, numpy and
click, and nothing else (ROADMAP aim 2)."""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "copa"
ALLOWED = sys.stdlib_module_names | {"numpy", "click", "copa"}


def imported_packages(tree: ast.Module) -> set[str]:
    """The top-level names of every absolute import in ``tree``; relative
    imports stay inside the package."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_the_package_imports_only_the_stdlib_numpy_and_click():
    paths = sorted(PACKAGE.glob("*.py"))
    assert paths
    outside = {}
    for path in paths:
        extra = imported_packages(ast.parse(path.read_text(encoding="utf-8"))) - ALLOWED
        if extra:
            outside[path.name] = sorted(extra)
    assert outside == {}


def unused_imports(tree: ast.Module) -> set[str]:
    """The names that ``tree``'s imports bind and that no expression of it
    reads, annotations written as strings included."""
    imported, used, annotations = set(), set(), []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, (ast.arg, ast.AnnAssign)) and node.annotation:
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            annotations.append(node.returns)
    for annotation in annotations:
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                parsed = ast.walk(ast.parse(node.value, mode="eval"))
                used.update(n.id for n in parsed if isinstance(n, ast.Name))
    return imported - used - {"annotations"}  # from __future__ import annotations


def test_no_module_imports_a_name_it_never_uses():
    outside = {}
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name != "__init__.py":  # which imports to export
            unused = unused_imports(ast.parse(path.read_text(encoding="utf-8")))
            if unused:
                outside[path.name] = sorted(unused)
    assert outside == {}
