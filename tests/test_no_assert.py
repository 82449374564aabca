"""The package certifies with explicit checks: ``python -O`` strips asserts."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "preproj"


def test_no_assert_in_package():
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += ["%s:%d" % (path.name, node.lineno)
                  for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert list(SRC.glob("*.py"))
    assert found == []
