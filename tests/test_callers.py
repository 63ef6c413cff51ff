"""Every definition in the package has a caller outside the tests.

Every module-level function and class of `src/mapenergy`, and every
method of those classes that is not a dunder, must be named in the
package, the demos or the benchmark harness somewhere besides its own
definition: read as a name, read or written as an attribute (not of a
module from outside the package, such as `math`), or given as a string
(the harness looks functions up by name).  A function that
only its tests call then cannot stay in the package unnoticed.
"""

import ast
from pathlib import Path

from support import is_experiment_run

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src/mapenergy").glob("*.py"))
CALLERS = PACKAGE + sorted(p for d in ("demos", "perfbench") for p in (ROOT / d).glob("*.py"))

# names kept without a caller, with the reason
ALLOWED = {
    # the reference the Hopf-chart tests check `cp1_from_sphere` against
    "cp1_to_sphere",
}


def _definitions(tree):
    """(line, name) of the module-level functions and classes, and the
    non-dunder methods of those classes; experiment runs aside."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not is_experiment_run(node):
            yield node.lineno, node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("__"):
                    yield item.lineno, item.name


def _foreign_modules(tree):
    """Names that `import X` (or `import X as Y`) binds to a module outside mapenergy."""
    return {alias.asname or alias.name.split(".")[0]
            for node in ast.walk(tree) if isinstance(node, ast.Import)
            for alias in node.names if alias.name.split(".")[0] != "mapenergy"}


def _root(node):
    """The expression an attribute chain such as `np.linalg.norm` starts from."""
    while isinstance(node, ast.Attribute):
        node = node.value
    return node


def _named(tree):
    """Names read, attributes touched and identifier strings in a module.

    Attributes read off a module from outside the package, such as
    `math.log` or `np.linalg.norm`, name nothing of the package.
    """
    named, foreign = set(), _foreign_modules(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            named.add(node.id)
        elif isinstance(node, ast.Attribute):
            root = _root(node)
            if not (isinstance(root, ast.Name) and root.id in foreign):
                named.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value.isidentifier():
            named.add(node.value)
    return named


def _uncalled(package, callers):
    """`file:line name` of each definition in `package` that no caller names.

    Both arguments map a label to module source.
    """
    named = set().union(*(_named(ast.parse(source)) for source in callers.values()))
    return [f"{label}:{line} {name}"
            for label, source in package.items()
            for line, name in _definitions(ast.parse(source))
            if name not in named and name not in ALLOWED]


def test_the_scan_flags_an_uncalled_definition_and_spares_called_ones():
    module = (
        "import math\n"
        "import mapenergy.maps as maps\n"
        "@_experiment('x', 'nodes', 10, 0.1)\n"
        "def _run_x(seed, nodes):\n"
        "    return helper(seed) + maps.spared(seed) + math.log(seed), 0.0\n"
        "def helper(seed):\n"
        "    return Box().size\n"
        "def spared(seed):\n"
        "    return 0\n"
        "def orphan():\n"
        "    return 0\n"
        "class Box:\n"
        "    def __init__(self):\n"
        "        self.looked_up = getattr(self, 'lookup')\n"
        "    @property\n"
        "    def size(self):\n"
        "        return 1\n"
        "    def lookup(self):\n"
        "        return 2\n"
        "    def unused(self):\n"
        "        return 3\n"
        "    def log(self):\n"
        "        return 4\n"
    )
    # `math.log` reads an attribute of the standard library, not `Box.log`
    assert _uncalled({"m": module}, {"m": module}) == ["m:10 orphan", "m:20 unused", "m:22 log"]


def test_every_definition_has_a_caller_outside_the_tests():
    package = {str(p.relative_to(ROOT)): p.read_text() for p in PACKAGE}
    callers = {str(p.relative_to(ROOT)): p.read_text() for p in CALLERS}
    assert _uncalled(package, callers) == []
