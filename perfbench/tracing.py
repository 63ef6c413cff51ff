"""In-memory spans and counts around the calls into each mapenergy layer.

`Tracer.install` replaces each traced function in every mapenergy module
namespace that binds it, so a name imported with ``from .x import f``
is wrapped where it is looked up, not only where it is defined.
`uninstall` puts the originals back.  Spans (id, parent, name, start,
end, operation) and counts stay in memory until the caller asks for a
summary or writes them out.
"""

import functools
import importlib
import sys
import time
from collections import Counter

# (module, attribute, span name).  Span names are "<layer>.<function>".
TARGETS = [
    ("mapenergy.meshes", "icosphere", "meshes.icosphere"),
    ("mapenergy.meshes", "cotangent_weights", "meshes.cotangent_weights"),
    ("mapenergy.meshes", "vertex_areas", "meshes.vertex_areas"),
    ("mapenergy.meshes", "antipodal_permutation", "meshes.antipodal_permutation"),
    ("mapenergy.flow", "sample_map", "flow.sample_map"),
    ("mapenergy.flow", "flow_minimize", "flow.flow_minimize"),
    ("mapenergy.flow", "discrete_energy", "flow.discrete_energy"),
    ("mapenergy.flow", "discrete_tension", "flow.discrete_tension"),
    ("mapenergy.flow", "conformality_defect", "flow.conformality_defect"),
    ("mapenergy.maps", "build_grid", "maps.build_grid"),
    ("mapenergy.maps", "grid_frames", "maps.grid_frames"),
    ("mapenergy.maps", "differential_columns", "maps.differential_columns"),
    ("mapenergy.energy", "p_energy", "energy.p_energy"),
    ("mapenergy.energy", "curve_length", "energy.curve_length"),
    ("mapenergy.intgeo", "sample_lines", "intgeo.sample_lines"),
    ("mapenergy.intgeo", "sample_geodesics", "intgeo.sample_geodesics"),
    ("mapenergy.intgeo", "sample_rp2_planes", "intgeo.sample_rp2_planes"),
    ("mapenergy.intgeo", "line_energy_average", "intgeo.line_energy_average"),
    ("mapenergy.intgeo", "line_energy_spread", "intgeo.line_energy_spread"),
    ("mapenergy.intgeo", "rp2_family_average", "intgeo.rp2_family_average"),
    ("mapenergy.intgeo", "e1_geodesic_bound", "intgeo.e1_geodesic_bound"),
    ("mapenergy.harmonic", "tension", "harmonic.tension"),
    ("mapenergy.harmonic", "second_variation", "harmonic.second_variation"),
    ("mapenergy.harmonic", "jacobi_identity_check", "harmonic.jacobi_identity_check"),
    ("mapenergy.report", "run_experiment", "report.run_experiment"),
    ("mapenergy.report", "systole_rp2", "report.systole_rp2"),
    ("mapenergy.report", "conformal_area_rp2", "report.conformal_area_rp2"),
    # scipy's dijkstra, as bound in the report namespace
    ("mapenergy.report", "dijkstra", "report.dijkstra"),
]

# MeshMap validation runs in __post_init__ on every construction,
# including each trial step of the flow.
MESHMAP_SPAN = "flow.MeshMap"

# Spans under which a p_energy call is one restricted energy of a family.
FAMILY_SPANS = ("intgeo.line_energy_average", "intgeo.line_energy_spread",
                "intgeo.rp2_family_average")

def _nodes(x):
    n = 1
    for d in x.shape[:-1]:
        n *= int(d)
    return n


def _arg(args, kwargs, index, name, default=None):
    """Argument `name` at position `index` of a call."""
    return args[index] if len(args) > index else kwargs.get(name, default)


def _count_p_energy(tracer, args, kwargs):
    tracer.counts["energy.p_energy.nodes"] += len(_arg(args, kwargs, 1, "grid"))
    if any(name in FAMILY_SPANS for name in tracer.names):
        tracer.counts["intgeo.restricted_energies"] += 1


def _count_grid_frames(tracer, args, kwargs):
    tracer.counts["maps.grid_frames.nodes"] += _nodes(_arg(args, kwargs, 0, "grid").nodes)


def _count_differential_columns(tracer, args, kwargs):
    kind = "fd" if _arg(args, kwargs, 0, "F").differential is None else "analytic"
    tracer.counts[f"maps.differential_columns.{kind}_calls"] += 1
    tracer.counts[f"maps.differential_columns.{kind}_nodes"] += _nodes(_arg(args, kwargs, 1, "x"))


def _count_dijkstra(tracer, args, kwargs):
    indices = _arg(args, kwargs, 2, "indices")
    if indices is None:
        tracer.counts["report.dijkstra.sources"] += _arg(args, kwargs, 0, "csgraph").shape[0]
    else:
        tracer.counts["report.dijkstra.sources"] += len(indices)


def _count_meshmap(tracer, args, kwargs):
    if "flow.flow_minimize" in tracer.names:
        tracer.counts["flow.trial_steps"] += 1


ARGUMENT_COUNTS = {
    "energy.p_energy": _count_p_energy,
    "maps.grid_frames": _count_grid_frames,
    "maps.differential_columns": _count_differential_columns,
    "report.dijkstra": _count_dijkstra,
    MESHMAP_SPAN: _count_meshmap,
}


def _count_flow_result(tracer, result):
    _, history = result
    tracer.counts["flow.iterations"] += len(history) - 1


RESULT_COUNTS = {"flow.flow_minimize": _count_flow_result}


class Tracer:
    """Spans and counts of one process, kept in memory."""

    def __init__(self):
        self.spans = []      # (id, parent, name, start, end, operation)
        self.counts = Counter()
        self.ids = []        # open span ids, innermost last
        self.names = []      # their names
        self.operation = None
        self._next_id = 0
        self._patches = []

    def span(self, name):
        """Context manager recording one span."""
        return _Span(self, name)

    def _open(self, name):
        sid = self._next_id
        self._next_id += 1
        parent = self.ids[-1] if self.ids else None
        self.ids.append(sid)
        self.names.append(name)
        self.counts[name + ".calls"] += 1
        return sid, parent, time.perf_counter()

    def _close(self, sid, parent, name, start):
        end = time.perf_counter()
        self.ids.pop()
        self.names.pop()
        self.spans.append((sid, parent, name, start, end, self.operation))

    def wrap(self, name, fn):
        """`fn` recording a span named `name` and its counts per call."""
        count_args = ARGUMENT_COUNTS.get(name)
        count_result = RESULT_COUNTS.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid, parent, start = tracer._open(name)
            try:
                if count_args is not None:
                    count_args(tracer, args, kwargs)
                result = fn(*args, **kwargs)
            finally:
                tracer._close(sid, parent, name, start)
            if count_result is not None:
                count_result(tracer, result)
            return result

        return traced

    def install(self):
        """Wrap every target in every mapenergy namespace that binds it."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for key, m in sorted(sys.modules.items())
                   if m is not None and (key == "mapenergy" or key.startswith("mapenergy."))]
        for module_name, attribute, name in TARGETS:
            original = getattr(importlib.import_module(module_name), attribute)
            wrapper = self.wrap(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, key, original))
                        setattr(module, key, wrapper)
        meshmap = importlib.import_module("mapenergy.flow").MeshMap
        original = meshmap.__dict__["__post_init__"]
        self._patches.append((meshmap, "__post_init__", original))
        meshmap.__post_init__ = self.wrap(MESHMAP_SPAN, original)

    def uninstall(self):
        while self._patches:
            owner, key, original = self._patches.pop()
            setattr(owner, key, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def self_times(self):
        """Per span name: (total seconds, self seconds).

        Self time is a span's duration minus the durations of its
        direct children.
        """
        child = Counter()
        for _, parent, _, start, end, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        total, own = Counter(), Counter()
        for sid, _, name, start, end, _ in self.spans:
            total[name] += end - start
            own[name] += end - start - child[sid]
        return {name: (total[name], own[name]) for name in total}

    def records(self):
        return [
            {"id": sid, "parent": parent, "name": name, "start": start,
             "end": end, "operation": op}
            for sid, parent, name, start, end, op in self.spans
        ]


class _Span:
    def __init__(self, tracer, name):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        self.sid, self.parent, self.start = self.tracer._open(self.name)
        return self

    def __exit__(self, *exc):
        self.tracer._close(self.sid, self.parent, self.name, self.start)
        return False
