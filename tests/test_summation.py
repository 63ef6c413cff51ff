"""The package adds floats in an order that does not depend on the interpreter.

From Python 3.12 on, the builtin `sum` of floats is compensated, so a
report that added its terms with it would read differently on 3.11 and
on 3.12.  Sums of floats in `src/mapenergy` run left to right onto 0.0,
or through numpy; the scan below fails when a module calls the builtin
`sum`.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src/mapenergy").glob("*.py"))


def _builtin_sum_calls(source):
    """Lines of `source` that call the bare name `sum`."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "sum"]


def test_the_scan_flags_builtin_sum_and_spares_numpy_sums():
    module = (
        "import numpy as np\n"
        "a = sum(w * x for x in xs)\n"
        "b = np.sum(xs) + xs.sum()\n"
        "c = max(sum([1.0, 2.0]), 0.0)\n"
    )
    assert _builtin_sum_calls(module) == [2, 4]


def test_the_package_calls_no_builtin_sum():
    calls = [f"{path.relative_to(ROOT)}:{line}"
             for path in PACKAGE for line in _builtin_sum_calls(path.read_text())]
    assert calls == []
