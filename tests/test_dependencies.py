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
