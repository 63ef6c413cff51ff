"""The demo scripts import only names that mapenergy defines.

The test run never executes `demos/`, so each script is parsed instead:
a deleted or renamed public name then fails here, not in a reader's shell.
"""

import ast
import importlib
from pathlib import Path

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def _mapenergy_imports(path):
    """(module, name) for every `from mapenergy... import name` in a script."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "mapenergy":
            for alias in node.names:
                yield node.module, alias.name


def test_every_name_a_demo_imports_from_mapenergy_exists():
    assert len(DEMOS) >= 7
    missing = []
    for path in DEMOS:
        found = list(_mapenergy_imports(path))
        assert found, f"{path.name} imports nothing from mapenergy"
        for module, name in found:
            try:
                loaded = importlib.import_module(module)
            except ImportError:
                missing.append(f"{path.name}: {module}")
                continue
            if not hasattr(loaded, name):
                missing.append(f"{path.name}: {module}.{name}")
    assert missing == []
