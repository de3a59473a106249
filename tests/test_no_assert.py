"""No `assert` statement in the package: `python -O` strips them, and a check must never pass for that reason."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "taftdouble"


def test_package_has_no_assert_statements():
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    found = [
        f"{path.relative_to(PACKAGE.parent)}:{lineno}"
        for path in modules
        for lineno in sorted(
            node.lineno for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
            if isinstance(node, ast.Assert)
        )
    ]
    assert not found, "assert statements (raise CheckFailure or call verify._require instead): " + ", ".join(found)
