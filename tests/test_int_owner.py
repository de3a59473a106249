"""One owner for the choice of integer width (float64, int64 or Python ints).

`cyclotomic.py` is the only module that chooses an integer dtype: its
kernels bound their own operands.  Every other module calls them, so none
may reference `_width`, `int_array`, `INT64_LIMIT` or `FLOAT64_LIMIT`, ask
for an object dtype, or carry a look-ahead bound such as `fold_norm`
(checked in every module).
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "taftdouble"
OWNER = "cyclotomic.py"
BOUND_NAMES = {"_width", "int_array", "INT64_LIMIT", "FLOAT64_LIMIT"}


def _is_object_dtype(node) -> bool:
    """`object`, `np.object_` or the strings "O" / "object"."""
    return (
        isinstance(node, ast.Name) and node.id == "object"
        or isinstance(node, ast.Attribute) and node.attr == "object_"
        or isinstance(node, ast.Constant) and node.value in ("O", "object")
    )


def _names(node):
    """The identifiers a node introduces or refers to."""
    if isinstance(node, ast.Name):
        return [node.id]
    if isinstance(node, ast.Attribute):
        return [node.attr]
    if isinstance(node, ast.alias):
        return [node.asname or node.name, node.name]
    if isinstance(node, ast.arg):
        return [node.arg]
    if isinstance(node, ast.keyword) and node.arg:
        return [node.arg]
    return []


def owner_violations(package: Path) -> list[str]:
    """file:line and reason of every dtype choice or overflow bound outside the owner module."""
    found = []
    for path in sorted(package.glob("*.py")):
        outside = path.name != OWNER
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in sorted((x for x in ast.walk(tree) if hasattr(x, "lineno")), key=lambda x: x.lineno):
            names = _names(node)
            reasons = [f"names {x}" for x in dict.fromkeys(names) if "fold_norm" in x]
            if outside:
                reasons += [f"names {x}" for x in dict.fromkeys(names) if x in BOUND_NAMES]
                if isinstance(node, ast.keyword) and node.arg == "dtype" and _is_object_dtype(node.value):
                    reasons.append("object dtype")
                if (
                    isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "astype" and node.args and _is_object_dtype(node.args[0])
                ):
                    reasons.append("object dtype")
            found += [f"{path.name}:{node.lineno} {why}" for why in reasons]
    return list(dict.fromkeys(found))


def test_only_cyclotomic_chooses_an_integer_dtype():
    assert list(PACKAGE.glob(OWNER))
    found = owner_violations(PACKAGE)
    assert not found, "call a cyclotomic kernel instead: " + ", ".join(found)


def test_the_guard_sees_each_kind_of_violation(tmp_path):
    (tmp_path / "cyclotomic.py").write_text("def kernel(a, fold_norm=1):\n    return int_array(a, INT64_LIMIT)\n")
    (tmp_path / "other.py").write_text(
        "import numpy as np\n"
        "from .cyclotomic import int_array\n"
        "x = np.zeros(3, dtype=object)\n"
        "y = x.astype(np.object_)\n"
        "z = kernel(x, self._fold_norm)\n"
    )
    assert owner_violations(tmp_path) == [
        "cyclotomic.py:1 names fold_norm",
        "other.py:2 names int_array",
        "other.py:3 object dtype",
        "other.py:4 object dtype",
        "other.py:5 names _fold_norm",
    ]
