"""The package is exact: no floating-point or complex value anywhere."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "preproj"


def _inexact(node) -> bool:
    if isinstance(node, ast.Call):
        return isinstance(node.func, ast.Name) and node.func.id in ("float", "complex")
    if isinstance(node, ast.Import):
        return any(alias.name == "cmath" for alias in node.names)
    if isinstance(node, ast.ImportFrom):
        return node.module == "cmath"
    if isinstance(node, ast.Constant):
        return isinstance(node.value, (float, complex))
    return False


def test_no_float_in_package():
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += ["%s:%d" % (path.name, node.lineno)
                  for node in ast.walk(tree) if _inexact(node)]
    assert list(SRC.glob("*.py"))
    assert found == []
