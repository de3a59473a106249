"""`RingMatrix` is built only at its named sites.

Matrices over Q(q) are `CycArray`s, and `polymat.array_rank` certifies
their ranks on those arrays.  The dense matrix of element objects serves
only the named cross-checks and exact fallbacks below, so a new
`RingMatrix(...)` (or `RingMatrix.zeros`/`identity`) anywhere else in `src`
is a regression to the per-entry route.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "taftdouble"

# file -> enclosing definitions (dotted) that may build a RingMatrix
SITES = {
    "polymat.py": {"array_rank", "RingMatrix"},  # the exact rank fallback; the class's own members
    "grring.py": {"GrothRing.cartan_rank"},  # its exact rank fallback
    "dnrep.py": {"WeightedShift.to_matrix"},  # the dense action, a test reference
}


def _builds_ring_matrix(node) -> bool:
    func = node.func
    return (
        isinstance(func, ast.Name) and func.id == "RingMatrix"
        or isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name) and func.value.id == "RingMatrix"
    )


def construction_sites(package: Path) -> list[str]:
    """file:line and enclosing definition of every RingMatrix construction outside the named sites."""
    found = []

    def visit(path, node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = scope + [child.name]
            if isinstance(child, ast.Call) and _builds_ring_matrix(child):
                allowed = SITES.get(path.name, set())
                if not any(".".join(scope[:k]) in allowed for k in range(1, len(scope) + 1)):
                    found.append(f"{path.name}:{child.lineno} in {'.'.join(scope) or '<module>'}")
            visit(path, child, inner)

    for path in sorted(package.glob("*.py")):
        visit(path, ast.parse(path.read_text(), filename=str(path)), [])
    return found


def test_ring_matrix_is_built_only_at_the_named_sites():
    assert list(PACKAGE.glob("polymat.py"))
    found = construction_sites(PACKAGE)
    assert not found, "hold the matrix as a CycArray and use polymat.array_rank: " + ", ".join(found)


def test_the_guard_sees_every_construction(tmp_path):
    (tmp_path / "spectral.py").write_text(
        "def block_matrix(n):\n    return RingMatrix.zeros(n, n)\n"
        "def other(rows):\n    return RingMatrix(rows)\n"
    )
    (tmp_path / "verify.py").write_text(
        "from .polymat import RingMatrix\n"
        "class Check:\n    def run(self, rows):\n        return RingMatrix.identity(3), RingMatrix(rows).rank_over_field()\n"
        "m = RingMatrix([[1]])\n"
    )
    assert construction_sites(tmp_path) == [
        "spectral.py:2 in block_matrix",
        "spectral.py:4 in other",
        "verify.py:4 in Check.run",
        "verify.py:4 in Check.run",
        "verify.py:5 in <module>",
    ]
