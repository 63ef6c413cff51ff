"""The demo scripts use only names and keywords that mapenergy defines.

Each script is parsed: a deleted or renamed public name, or a deleted
keyword parameter, then fails here, not in a reader's shell.
`holomorphic_curves.py`, which prints the second-order residuals of
`harmonic`, and `dilation_families.py`, which prints the energies of the
two dilation families, are also run end to end in a subprocess (about
0.3 s and 0.5 s).
"""

import ast
import importlib
import inspect
import math
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def _mapenergy_imports(tree):
    """(module, name, bound name) for every `from mapenergy... import name` in a script."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "mapenergy":
            for alias in node.names:
                yield node.module, alias.name, alias.asname or alias.name


def _parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def test_every_name_a_demo_imports_from_mapenergy_exists():
    assert len(DEMOS) >= 7
    missing = []
    for path in DEMOS:
        found = list(_mapenergy_imports(_parse(path)))
        assert found, f"{path.name} imports nothing from mapenergy"
        for module, name, _ in found:
            try:
                loaded = importlib.import_module(module)
            except ImportError:
                missing.append(f"{path.name}: {module}")
                continue
            if not hasattr(loaded, name):
                missing.append(f"{path.name}: {module}.{name}")
    assert missing == []


def _unknown_keywords(path):
    """`file:line name(keyword=)` for each keyword that a call to a mapenergy
    name passes and its signature lacks; callees taking **kwargs are skipped."""
    tree = _parse(path)
    callees = {}
    for module, name, bound in _mapenergy_imports(tree):
        obj = getattr(importlib.import_module(module), name, None)
        if callable(obj):
            callees[bound] = obj
    unknown = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id in callees):
            continue
        params = inspect.signature(callees[node.func.id]).parameters
        if any(p.kind is inspect.Parameter.VAR_KEYWORD for p in params.values()):
            continue
        for kw in node.keywords:
            if kw.arg is not None and kw.arg not in params:
                unknown.append(f"{path.name}:{node.lineno} {node.func.id}({kw.arg}=)")
    return unknown


def test_every_keyword_a_demo_passes_to_mapenergy_is_a_parameter():
    unknown = [entry for path in DEMOS for entry in _unknown_keywords(path)]
    assert unknown == []


def test_the_keyword_check_flags_a_deleted_keyword(tmp_path):
    script = tmp_path / "stale.py"
    script.write_text("from mapenergy.maps import build_grid as grid\n"
                      "grid(None, 4, scheme='mesh', order=3)\n")
    assert _unknown_keywords(script) == ["stale.py:2 grid(order=)"]


def _run_demo(name, cwd):
    """Standard output of demos/`name` run in a subprocess from `cwd`; it must exit 0."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src")] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    run = subprocess.run([sys.executable, str(ROOT / "demos" / name)],
                         cwd=cwd, env=env, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    return run.stdout


def test_the_holomorphic_curves_demo_runs_and_prints_its_four_curves(tmp_path):
    out = _run_demo("holomorphic_curves.py", tmp_path)
    rows = [line.split() for line in out.splitlines() if "(d=" in line]
    assert [" ".join(r[:-6]) for r in rows] == [
        "line (d=1)", "conic (d=2)", "veronese (d=2)", "random cubic (d=3)"]
    for r in rows:
        energy, area, d_pi, tension, plh, herm = map(float, r[-6:])
        assert abs(energy - d_pi) < 1e-3 and abs(area - d_pi) < 1e-3
        assert max(tension, plh) < 1e-6 and herm < 1e-14
    # the summed second variation over the symmetry directions, against the energy scale
    traces = [line.split() for line in out.splitlines() if line.startswith("symmetry directions:")]
    assert len(traces) == 1
    trace, scale = float(traces[0][2]), float(traces[0][5].rstrip(")"))
    assert abs(trace) < 1e-3 * scale


def test_the_dilation_families_demo_runs_and_prints_both_families(tmp_path):
    out = _run_demo("dilation_families.py", tmp_path)
    rows = [r for r in map(str.split, out.splitlines()) if r and r[0].isdigit()]
    # five conformal dilations (t, measured, closed form), then three capped ones (t, measured)
    assert [(int(r[0]), len(r)) for r in rows] == [
        (1, 3), (2, 3), (4, 3), (8, 3), (16, 3), (4, 2), (8, 2), (16, 2)]
    # t = 1 is the identity of the 3-sphere, whose energy 3 pi^2 every grid integrates exactly
    assert rows[0][1] == "29.608813" == f"{3 * math.pi**2:.6f}"
