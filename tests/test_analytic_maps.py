"""Every map the package builds carries an analytic differential.

First-order calculus has one path, the analytic one: `differential_columns`
refuses a map without a differential.  The scan below fails when a
`MapObject(...)` call in `src/mapenergy` passes no differential, as the
fourth positional argument or the `differential` keyword, or passes None,
so that a second derivative path cannot grow back unnoticed.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src/mapenergy").glob("*.py"))


def _is_none(node):
    return isinstance(node, ast.Constant) and node.value is None


def _maps_without_differential(source):
    """Lines of `source` with a `MapObject(...)` call that passes no differential."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if name != "MapObject":
            continue
        given = [kw.value for kw in node.keywords if kw.arg == "differential"]
        if len(node.args) >= 4:
            given.append(node.args[3])
        if not given or any(_is_none(d) for d in given):
            lines.append(node.lineno)
    return lines


def test_the_scan_flags_maps_without_a_differential():
    module = (
        "from .maps import MapObject\n"
        "a = MapObject(M, M, ev)\n"
        "b = MapObject(M, M, ev, diff, 'named')\n"
        "c = maps.MapObject(M, M, ev, name='bare')\n"
        "d = MapObject(M, M, ev, differential=lambda x, v: v)\n"
        "e = MapObject(M, M, ev, None)\n"
        "f = MapObject(M, M, ev, differential=None)\n"
    )
    assert _maps_without_differential(module) == [2, 4, 6, 7]


def test_the_package_builds_no_map_without_a_differential():
    calls = [f"{path.relative_to(ROOT)}:{line}"
             for path in PACKAGE for line in _maps_without_differential(path.read_text())]
    assert calls == []
