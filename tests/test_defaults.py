"""Every defaulted parameter in the package is set by a caller outside the tests.

A parameter with a default that no call in the package, the demos or the
benchmark harness sets is a knob nobody turns: the program only ever runs
its default.  A call sets parameter p of a function f when it calls the
name f, bare or as an attribute, and passes p by keyword, passes enough
positional arguments to reach p, or unpacks `*args` or `**kwargs`, which
may hold p.  Functions are matched by name alone, so a call of any
function of that name counts.  A call of a class counts for its
`__init__`, and a method's `self` takes no argument of the call.
"""

import ast
import math
from pathlib import Path

from support import is_experiment_run

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src/mapenergy").glob("*.py"))
CALLERS = PACKAGE + sorted(p for d in ("demos", "perfbench") for p in (ROOT / d).glob("*.py"))

# `function.parameter` kept with no caller that sets it, with the reason
ALLOWED = {
    "line_energy_spread.K": "perfbench wraps line_energy_spread by name, with this signature",
    "line_energy_spread.line_resolution": "perfbench wraps line_energy_spread by name, with this signature",
    "line_energy_spread.seed": "perfbench wraps line_energy_spread by name, with this signature",
    "main.argv": "the command line passes none; the tests pass their own arguments",
}


def _functions(tree):
    """(name, node, bound) of every function in a module, nested ones too.

    A method is `bound` unless it is a static method, a class's
    `__init__` is named by the class, and an experiment run, registered
    by `@_experiment(...)`, is named `run`, the attribute its registry
    entry is called by.
    """
    methods = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    methods[item] = node.name
    for node in ast.walk(tree):
        if not isinstance(node, ast.FunctionDef):
            continue
        if node not in methods:
            yield ("run" if is_experiment_run(node) else node.name), node, False
            continue
        static = any(isinstance(d, ast.Name) and d.id == "staticmethod" for d in node.decorator_list)
        yield (methods[node] if node.name == "__init__" else node.name), node, not static


def _defaulted(tree):
    """(line, function, parameter, position) of each defaulted parameter;
    the position counts the call's positional arguments, None when the
    parameter is keyword-only."""
    for name, node, bound in _functions(tree):
        args = node.args
        positional = args.posonlyargs + args.args
        offset = 1 if bound else 0
        for i, arg in enumerate(positional[len(positional) - len(args.defaults):],
                                start=len(positional) - len(args.defaults)):
            yield arg.lineno, name, arg.arg, i - offset
        for arg, default in zip(args.kwonlyargs, args.kw_defaults):
            if default is not None:
                yield arg.lineno, name, arg.arg, None


def _settings(tree):
    """For each called name: the most positional arguments of a call (inf
    with `*args` or `**kwargs`), and the keywords passed by name."""
    out = {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if name is None:
            continue
        unpacked = (any(isinstance(a, ast.Starred) for a in node.args)
                    or any(k.arg is None for k in node.keywords))
        most, keywords = out.setdefault(name, (0, set()))
        count = math.inf if unpacked else len(node.args)
        out[name] = (max(most, count), keywords | {k.arg for k in node.keywords if k.arg})
    return out


def _unset(package, callers):
    """`file:line function.parameter` of each defaulted parameter in
    `package` that no call in `callers` sets.

    Both arguments map a label to module source.
    """
    settings = {}
    for source in callers.values():
        for name, (most, keywords) in _settings(ast.parse(source)).items():
            before, seen = settings.get(name, (0, set()))
            settings[name] = (max(before, most), seen | keywords)
    unset = []
    for label, source in package.items():
        for line, name, param, position in _defaulted(ast.parse(source)):
            most, keywords = settings.get(name, (0, set()))
            is_set = param in keywords or (position is not None and most > position)
            if not is_set and f"{name}.{param}" not in ALLOWED:
                unset.append(f"{label}:{line} {name}.{param}")
    return unset


def test_the_scan_flags_an_unset_default_and_spares_set_ones():
    module = (
        "def f(a, b=1, c=2, *, d=3, e=4):\n"
        "    return g(a) + h(a, 1) + Box(a).size(1) + f(a, 1, e=5) + RUNS['x'].run(a, 1, p=2)\n"
        "def g(a, b=1):\n"
        "    return a\n"
        "def h(*args, **kw):\n"
        "    return k(*args) + m(**kw)\n"
        "def k(a=0, b=0):\n"
        "    return a\n"
        "def m(a=0):\n"
        "    return a\n"
        "class Box:\n"
        "    def __init__(self, a, b=1):\n"
        "        self.a = a\n"
        "    def size(self, n, scale=1.0):\n"
        "        def inner(z=0):\n"
        "            return z\n"
        "        return n * scale + inner()\n"
        "@_experiment('x', 'nodes', 10, 0.1)\n"
        "def _run_x(seed, nodes, p=None):\n"
        "    return seed\n"
        "@_experiment('y', 'nodes', 10, 0.1)\n"
        "def _run_y(seed, nodes, q=None):\n"
        "    return _run_y(seed, nodes, 1)\n"
    )
    # an experiment run is called as `run` through its registry entry, not by its own name
    assert _unset({"m": module}, {"m": module}) == [
        "m:1 f.c", "m:1 f.d", "m:3 g.b", "m:22 run.q", "m:12 Box.b", "m:14 size.scale",
        "m:15 inner.z"]


def test_every_default_is_set_by_a_caller_outside_the_tests():
    package = {str(p.relative_to(ROOT)): p.read_text() for p in PACKAGE}
    callers = {str(p.relative_to(ROOT)): p.read_text() for p in CALLERS}
    assert _unset(package, callers) == []
