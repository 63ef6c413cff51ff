"""No module imports a name it never uses.

Every file of the package, the tests and the demos is parsed; a name an
import binds must be read somewhere in that file or listed in its
`__all__`.  A deleted function then cannot leave its import behind.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
FILES = sorted(p for d in ("src/mapenergy", "tests", "demos") for p in (ROOT / d).glob("*.py"))


def _imported(tree):
    """(line, bound name) for every import in a module, `__future__` aside."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield node.lineno, alias.asname or alias.name


def _used(tree):
    """Names the module reads, and the strings of its `__all__`."""
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used |= {e.value for e in node.value.elts if isinstance(e, ast.Constant)}
    return used


def _unused_imports(source):
    tree = ast.parse(source)
    used = _used(tree)
    return [(line, name) for line, name in _imported(tree) if name not in used]


def test_the_scan_covers_package_tests_and_demos():
    assert {p.parent.name for p in FILES} == {"mapenergy", "tests", "demos"}


def test_the_scan_flags_an_unused_import_and_spares_used_and_exported_ones():
    source = (
        "from __future__ import annotations\n"
        "import numpy as np\n"
        "import os.path\n"
        "from math import pi, tau\n"
        "from json import dumps\n"
        "__all__ = ['dumps']\n"
        "x = np.zeros(1) * pi\n"
    )
    assert _unused_imports(source) == [(3, "os"), (4, "tau")]


def test_no_file_imports_a_name_it_never_uses():
    unused = [f"{p.relative_to(ROOT)}:{line} {name}"
              for p in FILES for line, name in _unused_imports(p.read_text())]
    assert unused == []
