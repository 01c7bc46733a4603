"""Static checks over the library sources."""

import ast
from pathlib import Path

import krlib

SRC = Path(krlib.__file__).resolve().parent


def test_library_has_no_assert_statements():
    # every check raises an error of its own: `python -O` strips asserts
    sources = sorted(SRC.glob("*.py"))
    assert sources
    found = [
        f"{path.name}:{node.lineno}"
        for path in sources
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
