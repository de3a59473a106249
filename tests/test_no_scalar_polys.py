"""The package keeps no scalar polynomial arithmetic.

Polynomials in `src` are integer tables and coefficient arrays (the
`chebyshev` tables, the ring's fold and conversions, the stacked block
polynomials).  The dense `RingPoly`, the dict-keyed `BivariatePoly` and the
ring's dict reduction table `_xred` live on only as test references, so
naming any of them anywhere in `src` is a regression to the scalar route.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "taftdouble"
RETIRED = {"RingPoly", "BivariatePoly", "_xred"}


def _names(node):
    """The identifiers a node defines or refers to."""
    if isinstance(node, ast.Name):
        return [node.id]
    if isinstance(node, ast.Attribute):
        return [node.attr]
    if isinstance(node, ast.alias):
        return [node.asname or node.name, node.name]
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, ast.arg):
        return [node.arg]
    return []


def retired_names(package: Path) -> list[str]:
    """file:line and name of every use of a retired name in the package."""
    found = set()
    for path in package.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            found.update((path.name, node.lineno, x) for x in _names(node) if x in RETIRED)
    return [f"{name}:{line} {x}" for name, line, x in sorted(found)]


def test_no_scalar_polynomial_class_is_named_in_src():
    assert list(PACKAGE.glob("chebyshev.py"))
    found = retired_names(PACKAGE)
    assert not found, "use the integer tables and arrays: " + ", ".join(found)


def test_the_guard_sees_every_kind_of_use(tmp_path):
    (tmp_path / "chebyshev.py").write_text(
        "class BivariatePoly:\n    pass\n"
        "def f(RingPoly):\n    return RingPoly\n"
    )
    (tmp_path / "grring.py").write_text(
        "from .polymat import RingPoly as P\n"
        "class Ring:\n    def g(self):\n        return self._xred[3]\n"
    )
    assert retired_names(tmp_path) == [
        "chebyshev.py:1 BivariatePoly",
        "chebyshev.py:3 RingPoly",
        "chebyshev.py:4 RingPoly",
        "grring.py:1 RingPoly",
        "grring.py:4 _xred",
    ]
