"""Source hygiene checks that need no linter: every module-level import is used."""
import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "screwfn").glob("*.py"))


def _unused_imports(tree: ast.Module) -> list[str]:
    exported: set[str] = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported = set(ast.literal_eval(node.value))
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    unused = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in used and name not in exported:
                    unused.append(name)
    return unused


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    assert _unused_imports(ast.parse(path.read_text())) == []


def test_guard_flags_an_unused_import():
    tree = ast.parse("import cmath\nimport math\nfrom .x import y\n__all__ = ['y']\nmath.pi\n")
    assert _unused_imports(tree) == ["cmath"]
