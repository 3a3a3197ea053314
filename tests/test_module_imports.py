"""No module of the package imports a private name from another: a name
with a leading underscore is its own module's detail, so a checker or helper
that another module calls is public where it is defined."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "blockdensity"
MODULES = sorted(PACKAGE.glob("*.py"))


@pytest.mark.parametrize("path", MODULES, ids=[path.name for path in MODULES])
def test_no_module_imports_a_private_name(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    private = [
        (node.lineno, "." * node.level + (node.module or ""), alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and (node.level or (node.module or "").split(".")[0] == PACKAGE.name)
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert private == []
