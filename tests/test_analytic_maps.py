"""Every map the package builds carries one analytic rule, and three
builders write it.

First-order calculus has one path, the analytic one: a `MapObject` is
not built without a callable fused rule (x, v) -> (F(x), dF_x v).  The scan
below fails when a `MapObject(...)` call in `src/mapenergy` sits outside
the three builders `identity_map`, `compose` and `normalized_map`, or
passes no fused rule, as the fourth positional argument or the `fused`
keyword, or passes None; so a derivative written outside the builders,
or a second derivative path, cannot grow back unnoticed.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src/mapenergy").glob("*.py"))

# the top-level functions that may build a MapObject
BUILDERS = ("identity_map", "compose", "normalized_map")


def _is_none(node):
    return isinstance(node, ast.Constant) and node.value is None


def _is_map_call(node):
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    return (func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)) == "MapObject"


def _passes_a_fused_rule(call):
    given = [kw.value for kw in call.keywords if kw.arg == "fused"]
    if len(call.args) >= 4:
        given.append(call.args[3])
    return bool(given) and not any(_is_none(rule) for rule in given)


def _stray_maps(source):
    """Lines of `source` with a `MapObject(...)` call outside the top-level
    builders, or one that passes no fused rule."""
    lines = []
    for top in ast.parse(source).body:
        owner = top.name if isinstance(top, ast.FunctionDef) else None
        for node in ast.walk(top):
            if _is_map_call(node) and (owner not in BUILDERS or not _passes_a_fused_rule(node)):
                lines.append(node.lineno)
    return sorted(lines)


def test_the_scan_flags_maps_outside_the_builders_or_without_a_fused_rule():
    module = (
        "from .maps import MapObject\n"
        "def identity_map(M):\n"
        "    return MapObject(M, M, ev, lambda x, v: (x, v), 'identity')\n"
        "def compose(outer, inner):\n"
        "    def inner_rule(x, v):\n"
        "        return maps.MapObject(M, M, ev, fused=rule)\n"
        "    return MapObject(M, M, ev, name='bare')\n"
        "def normalized_map(dom, cod, P, dP, name):\n"
        "    a = MapObject(dom, cod, ev, None, name)\n"
        "    return MapObject(dom, cod, ev, fused=None)\n"
        "def perturbed_identity(M):\n"
        "    return MapObject(M, M, ev, rule, 'perturbed')\n"
        "class Wrapper:\n"
        "    def compose(self):\n"
        "        return MapObject(M, M, ev, rule)\n"
        "a = MapObject(M, M, ev, fused=rule)\n"
    )
    assert _stray_maps(module) == [7, 9, 10, 12, 15, 16]


def test_only_the_builders_build_maps_and_each_passes_a_fused_rule():
    calls = [f"{path.relative_to(ROOT)}:{line}"
             for path in PACKAGE for line in _stray_maps(path.read_text())]
    assert calls == []
