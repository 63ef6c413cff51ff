"""Byte pins of experiment reports.

`bounds-identity`, `squeeze` and `theta` run at 20,000 nodes and seeds 0
and 1, and each report, apart from its wall time, must equal its record
in golden/large_grids.json field for field.  The experiments that pass
frames and differential columns between modules run at their default
resolution (`line-formula` at 200 lines) and seeds 0 and 1, pinned in
golden/caller_frames.json the same way.  A change that moves a number on
purpose regenerates both files with

    PYTHONPATH=src python tests/test_golden_reports.py

and names each moved field, with its old and new value, in CHANGES.md.
"""

import json
import math
import pathlib

import pytest

from mapenergy.report import run_experiment

GOLDEN = pathlib.Path(__file__).with_name("golden") / "large_grids.json"
CALLER_GOLDEN = GOLDEN.with_name("caller_frames.json")
NODES = 20000
RUNS = [f"{name}@{seed}" for seed in (0, 1) for name in ("bounds-identity", "squeeze", "theta")]
CALLER_RUNS = [f"{name}@{seed}" for seed in (0, 1) for name in (
    "croke", "holomorphic-corpus", "harmonic-diagnostics", "jacobi", "trace-II",
    "rp2-family", "e1-geodesic", "flow", "capped-theta", "line-formula")]
# resolution of each pinned experiment, where it is not the declared default
RESOLUTIONS = {"bounds-identity": NODES, "squeeze": NODES, "theta": NODES, "line-formula": 200}


def _report(run):
    """The JSON record of one run, without its wall time."""
    name, seed = run.split("@")
    config = {"name": name, "seed": int(seed)}
    if name in RESOLUTIONS:
        config["resolution"] = RESOLUTIONS[name]
    record = run_experiment(config).to_dict()
    del record["wall_time"]
    # through JSON, so that the record compares as the file stores it
    return json.loads(json.dumps(record))


def _leaves(value, path=""):
    """{path: leaf} of a JSON value, with dict keys and list indices in the path."""
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return {path: value}
    return {k: v for key, item in items for k, v in _leaves(item, f"{path}.{key}").items()}


def _moves(old, new):
    """One line per field that differs: its path, old and new value, and relative move."""
    was, now = _leaves(old), _leaves(new)
    lines = []
    for path in sorted(set(was) | set(now)):
        a, b = was.get(path, "<absent>"), now.get(path, "<absent>")
        if a == b:
            continue
        line = f"{path}: {a!r} -> {b!r}"
        if all(isinstance(v, float) and math.isfinite(v) for v in (a, b)) and a != 0.0:
            line += f" (relative move {(b - a) / abs(a):.3e})"
        lines.append(line)
    return lines


@pytest.mark.parametrize("run", RUNS)
def test_a_large_grid_report_matches_its_golden_record(run):
    want = json.loads(GOLDEN.read_text())[run]
    got = _report(run)
    moves = _moves(want, got)
    assert not moves, f"{run} moved:\n" + "\n".join(moves)


@pytest.mark.parametrize("run", CALLER_RUNS)
def test_a_caller_frame_report_matches_its_golden_record(run):
    want = json.loads(CALLER_GOLDEN.read_text())[run]
    moves = _moves(want, _report(run))
    assert not moves, f"{run} moved:\n" + "\n".join(moves)


def test_moves_name_each_changed_field_with_both_values():
    old = {"estimate": 1.0, "inputs": {"energies": [2.0, 3.0], "checked": ["a"]}, "passed": True}
    new = {"estimate": 1.0, "inputs": {"energies": [2.0, 3.5], "checked": ["a", "b"]}, "passed": False}
    assert _moves(old, new) == [
        ".inputs.checked.1: '<absent>' -> 'b'",
        ".inputs.energies.1: 3.0 -> 3.5 (relative move 1.667e-01)",
        ".passed: True -> False",
    ]
    assert _moves(old, old) == []


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    for path, runs in ((GOLDEN, RUNS), (CALLER_GOLDEN, CALLER_RUNS)):
        path.write_text(json.dumps({run: _report(run) for run in runs}, indent=2, sort_keys=True) + "\n")
        print(f"wrote {path}")
