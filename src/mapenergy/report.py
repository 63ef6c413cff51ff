"""Named verification experiments with closed-form reference values.

Three layers live here.  `BoundSpec` / `eval_bound` turn a handful of
closed-form lower bounds for p-energies into callable arithmetic, with
the geometric inputs (target areas, geodesic lengths, systoles)
supplied by the caller rather than computed.  `systole_rp2`
estimates the shortest noncontractible loop of a conformal metric on the
projective plane from a weighted graph geodesic search.  The experiment
registry maps stable string names to end-to-end numerical checks, each
declared with its default resolution, reference and tolerance, and each
yielding an `ExperimentReport` whose pass flag is a pure function of
(estimate, reference, tolerance); reports serialize to a JSON array with
a CSV twin and are bit-identical across runs with equal seeds, apart
from the recorded wall time.
"""

from __future__ import annotations

import inspect
import json
import math
import time
from collections import namedtuple
from dataclasses import dataclass, fields

import numpy as np
import scipy.sparse as sparse
from scipy.sparse.csgraph import dijkstra

from . import tables
from .constructions import (
    conic_curve,
    line_curve,
    make_capped_theta,
    make_projective_dilation,
    make_theta,
    perturbed_identity,
    random_curve,
    squeeze_limit,
    standard_maps,
    veronese_curve,
)
from .energy import croke_density, p_energies, p_energy, surface_area
from .flow import conformality_defect, flow_minimize, sample_map
from .harmonic import (
    hermitian_residual,
    index_trace_over_symmetries,
    jacobi_identity_check,
    pluriharmonic_residual,
    tension,
)
from .intgeo import (
    e1_geodesic_bound,
    line_energy_average,
    line_space_mass,
    rp2_family_average,
    rp2_family_mass,
)
from .manifolds import (
    GeometryError,
    complex_projective,
    is_finite_real,
    is_integer,
    real_projective,
    sphere,
    sphere_volume,
    su_basis,
)
from .maps import (
    build_grid,
    checked_resolution,
    differential_columns,
    energy_density,
    homothety_map,
    identity_map,
    normalized_linear_map,
    tangent_frames,
)
from .meshes import antipodal_permutation, icosphere, kept, vertex_areas
from .rand import spawn


class UsageError(ValueError):
    """A malformed request: unknown experiment name or parameter key."""


# ---------------------------------------------------------------------------
# closed-form lower bounds


def _cpn_p(N, p, area):
    N = int(N)
    coeff = np.pi**N / (2.0 * math.factorial(N))
    return float(coeff * ((2.0 * N / np.pi) * area) ** (p / 2.0))


def _rpn_p(n, p, length):
    base = math.sqrt(int(n)) * length / np.pi
    return float(sphere_volume(int(n)) / 4.0 * base**p)


# tag -> formula; each formula's parameter names are the bound's parameters
_BOUNDS = {
    "CPN_P": _cpn_p,
    "RPN_P": _rpn_p,
    "INFIMUM": lambda N, area: float(np.pi ** (int(N) - 1) / math.factorial(int(N) - 1) * area),
    "PU": lambda area, systole: float(area - (2.0 / np.pi) * systole**2),
}


@dataclass(frozen=True)
class BoundSpec:
    """A tagged lower bound with caller-supplied geometric inputs.

    Tags and their parameters:

    ``CPN_P``        N, p >= 2, area      p-energy bound for maps of CP^N
                                          whose image class has the given
                                          area (a degree-d class has area
                                          d*pi).
    ``RPN_P``        n, p >= 1, length    p-energy bound for maps of RP^n
                                          whose noncontractible geodesic
                                          images have at least the given
                                          length (pi for the identity
                                          class).
    ``INFIMUM``      N, area              sharp 2-energy infimum for maps
                                          of CP^N with image-class area
                                          as given.
    ``PU``           area, systole        slack of the round-metric
                                          systolic inequality on RP^2.

    The numbers `area`, `length`, `systole` are inputs with
    documented provenance, never computed here: this module evaluates
    bounds, it does not establish them.
    """

    tag: str
    params: dict

    def __post_init__(self):
        if self.tag not in _BOUNDS:
            raise GeometryError(
                f"unknown bound tag {self.tag!r}; expected one of "
                f"{sorted(_BOUNDS)}"
            )
        expected = tuple(inspect.signature(_BOUNDS[self.tag]).parameters)
        if set(self.params) != set(expected):
            raise GeometryError(
                f"bound {self.tag} needs parameters {expected}, "
                f"got {tuple(sorted(self.params))}"
            )
        for key in ("N", "n"):
            if key in self.params and not (is_integer(self.params[key]) and self.params[key] >= 1):
                raise GeometryError(f"{key} must be an integer >= 1, got {self.params[key]!r}")
        for key in ("area", "length", "systole"):
            if key in self.params and not (is_finite_real(self.params[key]) and self.params[key] > 0):
                raise GeometryError(f"{key} must be a finite real > 0, got {self.params[key]!r}")
        if "p" in self.params:
            p, least = self.params["p"], {"CPN_P": 2, "RPN_P": 1}[self.tag]
            if not (is_finite_real(p) and p >= least):
                raise GeometryError(f"the {self.tag} bound needs a finite real p >= {least}, got {p!r}")


def eval_bound(spec):
    """Numeric value of a `BoundSpec`."""
    return _BOUNDS[spec.tag](**spec.params)


# ---------------------------------------------------------------------------
# systole of a conformal metric on RP^2


# hops spanned by the chords of the systole graph
_CHORD_RINGS = 3


def _chord_graph(mesh):
    """Vertex pairs within `_CHORD_RINGS` mesh hops and their geodesic lengths.

    Augmenting the edge graph with 2- and 3-hop chords shrinks the
    direction-quantization bias of graph shortest paths from a few
    percent to a fraction of a percent.
    """
    v = mesh.vertices
    n = len(v)
    e = mesh.edges
    ones = np.ones(len(e))
    adj = sparse.coo_matrix(
        (np.concatenate([ones, ones]), (np.concatenate([e[:, 0], e[:, 1]]),
                                        np.concatenate([e[:, 1], e[:, 0]]))),
        shape=(n, n),
    ).tocsr()
    adj.data[:] = 1.0
    reach = adj.copy()
    hop = adj
    for _ in range(_CHORD_RINGS - 1):
        hop = hop @ adj
        reach = reach + hop
    reach = sparse.triu(reach, k=1).tocoo()
    i, j = reach.row, reach.col
    dots = np.clip(np.sum(v[i] * v[j], axis=1), -1.0, 1.0)
    return np.stack([i, j], axis=1), np.arccos(dots)


def _conformal_weight(weight, mesh, perm):
    """A finite positive conformal weight, callable or constant, at the mesh
    vertices; it must be antipodally even under the mesh's antipodal
    permutation `perm`, so that it is a metric on RP^2."""
    n = len(mesh.vertices)
    mu = (np.asarray(weight(mesh.vertices), dtype=float) if callable(weight)
          else np.full(n, float(weight)))
    if mu.shape != (n,):
        raise GeometryError("weight must produce one value per vertex")
    if not np.all(np.isfinite(mu) & (mu > 0)):
        raise GeometryError("the conformal weight must be finite and positive")
    if np.max(np.abs(mu - mu[perm])) > 1e-10 * np.max(mu):
        raise GeometryError("the conformal weight must be antipodally even")
    return mu


# source rows per batched Dijkstra of the systole search: each batch's
# dense distance block is rows x V x 8 bytes, 0.66 MB for the 2,562
# vertices of level 4, and `best` tightens after every batch
_SOURCE_BATCH = 32


def _systole_graph(weight, level):
    """The chord graph of the metric weight * round on the icosphere of
    level `level`, as a symmetric CSR matrix, and the antipodal
    permutation of its vertices.

    Edge costs come from the even part of the weight, so the antipodal
    map is an exact automorphism of the graph.  The chord pairs and
    their lengths depend only on the mesh, so they are kept on it and
    shared by every call at that level; only the costs are per weight.
    """
    mesh = icosphere(checked_resolution("mesh", level))
    perm = antipodal_permutation(mesh)
    mu = _conformal_weight(weight, mesh, perm)
    pairs, lengths = kept(mesh.derived, "chord_graph", lambda: _chord_graph(mesh))
    root = np.sqrt(0.5 * (mu + mu[perm]))
    costs = lengths * 0.5 * (root[pairs[:, 0]] + root[pairs[:, 1]])
    n = len(mesh.vertices)
    graph = sparse.csr_matrix((costs, (pairs[:, 0], pairs[:, 1])), shape=(n, n))
    return graph + graph.T, perm


def systole_rp2(weight, level=4):
    """Shortest noncontractible loop of the metric weight * round on RP^2.

    `weight` is a finite positive conformal factor, given as a callable
    on unit ambient vectors (vectorized over the leading axis) or as a
    constant; it must be antipodally even so the metric descends to the
    projective plane.  Loops are searched on an icosahedral mesh of the
    double cover at subdivision level `level`, an integer >= 0: every
    chord between vertices at most three hops apart becomes a graph edge
    weighted by its geodesic length times the mean of sqrt(weight) at
    its endpoints, and the systole is the least graph distance d(v, -v)
    from a vertex to its antipode, over one vertex v of each antipodal
    pair.  Rerun with `level + 1` to gauge convergence; for the round
    metric the result is pi to well within one percent.

    Each search from v stops at reach R = (best + c) / 2, with `best`
    the least loop found so far and c the longest edge cost, and its
    candidates are d(v, u) + d(v, -u), once per antipodal pair {u, -u}
    within reach.  This is exact.  The antipodal map is a graph
    automorphism, so d(v, -u) = d(u, -v).  Take D = d(v, -v) <= best.
    Along a shortest path from v to -v the prefix lengths l rise from 0
    to D in steps of at most c, and each path vertex u has
    d(v, u) + d(v, -u) = l + (D - l) = D.  The window [D - R, R] has
    width 2R - D >= c, so some l lands in it, and both distances lie
    within R.  By the triangle inequality no candidate is below D.  So
    the least candidate is d(v, -v) whenever d(v, -v) <= best, and
    never below it otherwise.
    """
    graph, perm = _systole_graph(weight, level)
    sources = np.flatnonzero(np.arange(len(perm)) < perm)
    longest = float(np.max(graph.data))
    best = float(dijkstra(graph, indices=sources[:1])[0, perm[sources[0]]])
    for start in range(1, len(sources), _SOURCE_BATCH):
        idx = sources[start : start + _SOURCE_BATCH]
        # padded so that rounding cannot push a witness past the limit
        reach = 0.5 * (best + longest) * (1.0 + 1e-12)
        dist = dijkstra(graph, indices=idx, limit=reach)
        best = min(best, float(np.min(dist[:, sources] + dist[:, perm[sources]])))
    if not np.isfinite(best):
        raise GeometryError("the mesh graph is disconnected")
    return best


def conformal_area_rp2(weight, level=5):
    """Area of the metric weight * round on RP^2 by quadrature on the
    icosphere of level `level`, an integer >= 0; `weight` is as for
    `systole_rp2`, antipodally even."""
    mesh = icosphere(checked_resolution("mesh", level))
    mu = _conformal_weight(weight, mesh, antipodal_permutation(mesh))
    return float(0.5 * np.sum(vertex_areas(mesh) * mu))


# ---------------------------------------------------------------------------
# experiment reports


@dataclass
class ExperimentReport:
    """Outcome of one named experiment.

    The pass flag is a pure function of the numbers: |estimate -
    reference| <= tolerance for absolute kind, or <= tolerance *
    |reference| for relative kind, and False whenever the estimate is
    not finite.  Inputs record the parameters the run actually used.
    """

    name: str
    inputs: dict
    estimate: float
    reference: float
    tolerance: float
    tolerance_kind: str
    abs_error: float
    rel_error: float
    passed: bool
    wall_time: float

    @staticmethod
    def build(name, inputs, estimate, reference, tolerance, kind, wall_time):
        if kind not in ("absolute", "relative"):
            raise GeometryError("tolerance kind must be absolute or relative")
        estimate = float(estimate)
        reference = float(reference)
        abs_error = abs(estimate - reference)
        if reference != 0.0:
            rel_error = abs_error / abs(reference)
        else:
            rel_error = 0.0 if abs_error == 0.0 else float("inf")
        limit = tolerance if kind == "absolute" else tolerance * abs(reference)
        passed = bool(np.isfinite(estimate) and abs_error <= limit)
        return ExperimentReport(
            name=name,
            inputs=inputs,
            estimate=estimate,
            reference=reference,
            tolerance=float(tolerance),
            tolerance_kind=kind,
            abs_error=float(abs_error),
            rel_error=float(rel_error),
            passed=passed,
            wall_time=float(wall_time),
        )

    def to_dict(self):
        """Fields by name, with non-finite floats as None (JSON null)."""
        record = {f.name: getattr(self, f.name) for f in fields(self)}
        return {k: None if isinstance(v, float) and not np.isfinite(v) else v
                for k, v in record.items()}


def write_reports(reports, path):
    """Write reports as a JSON array to `path`, which ends in .json, plus
    a CSV twin of the same stem."""
    path = str(path)
    if not path.endswith(".json"):
        raise UsageError(f"a report file name ends in .json, got {path!r}")
    payload = [r.to_dict() for r in reports]
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    stem = path[: -len(".json")]
    columns = ["name", "passed", "estimate", "reference", "abs_error", "rel_error",
               "tolerance", "tolerance_kind", "wall_time", "inputs"]
    rows = [[rec[c] if c != "inputs" else json.dumps(rec[c], sort_keys=True)
             for c in columns] for rec in payload]
    tables.write_table(stem + ".csv", columns, rows)


# ---------------------------------------------------------------------------
# the experiment registry

EXPERIMENTS = {}
Experiment = namedtuple("Experiment", "run unit resolution tolerance kind reference")


def _experiment(name, unit, resolution, tolerance, kind="absolute", reference=0.0):
    """Register `run(seed, <unit>[, p])`, which returns (inputs, estimate).

    The declaration is the report contract: `unit` names the resolution
    input and `resolution` is its default; `reference` is a number or a
    function of the run's inputs.  The experiment reads `p` exactly when
    `run` has a parameter of that name.
    """

    def register(run):
        EXPERIMENTS[name] = Experiment(run, unit, resolution, tolerance, kind, reference)
        return run

    return register


# tolerance of the experiments exact up to rounding (worst error 5e-15 on seeds 0-59)
EXACT = 1e-12


def _relerr(value, reference):
    return abs(value - reference) / abs(reference)


@_experiment("croke", "pairs", 1000, EXACT)
def _run_croke(seed, pairs):
    """Spherical mean of |dF(u)|^2 against the trace of the pullback Gram."""
    maps = (
        identity_map(sphere(2)),
        homothety_map(sphere(2), sphere(2, 1.7)),
        normalized_linear_map(sphere(2), sphere(2), np.diag([1.0, 1.3, 0.8]), name="stretch"),
        identity_map(real_projective(3)),
        homothety_map(real_projective(3), real_projective(3, 2.0)),
        normalized_linear_map(real_projective(3), real_projective(3),
                              np.diag([1.0, 1.2, 0.9, 1.1]), name="stretch"),
        identity_map(complex_projective(2)),
        make_projective_dilation(2, 2.0),
        standard_maps("conjugation", N=2),
    )
    counts = np.full(len(maps), pairs // len(maps))
    counts[: pairs - int(np.sum(counts))] += 1
    worst = 0.0
    for index, (F, k) in enumerate(zip(maps, counts)):
        if k == 0:
            continue
        x = F.domain.random_point(spawn(seed, index), size=(int(k),))
        density = croke_density(F, x)
        trace = differential_columns(F, x, tangent_frames(F.domain, x), reduce=energy_density)
        worst = max(worst, float(np.max(np.abs(density - trace) / np.abs(trace))))
    return {"order": 3}, worst


@_experiment("bounds-identity", "nodes", 100000, EXACT)
def _run_bounds_identity(seed, nodes, p=None):
    """Identity maps saturate the closed-form p-energy bounds."""
    if p is None:
        p_complex, p_real = (2.0, 3.0, 4.0), (1.0, 2.0, 4.0)
    else:  # the CP^N bound holds for p >= 2, the RP^n bound for p >= 1
        p_complex, p_real = (p,) if p >= 2.0 else (), (p,)
    # (label, space, grid seed, bound tag, bound inputs, exponents)
    cases = [
        ("cp1", complex_projective(1), seed + 1, "CPN_P", {"N": 1, "area": np.pi}, p_complex),
        ("cp2", complex_projective(2), seed + 2, "CPN_P", {"N": 2, "area": np.pi}, p_complex),
        ("rp2", real_projective(2), seed + 10, "RPN_P", {"n": 2, "length": np.pi}, p_real),
        ("rp3", real_projective(3), seed + 11, "RPN_P", {"n": 3, "length": np.pi}, p_real),
    ]
    worst, checked, energies = 0.0, [], {}
    for label, M, grid_seed, tag, inputs, exponents in cases:
        if not exponents:
            continue
        bounds = [eval_bound(BoundSpec(tag, {**inputs, "p": q})) for q in exponents]
        grid = build_grid(M, nodes, "monte_carlo", seed=grid_seed)
        # every exponent from one density pass over the grid
        values = p_energies(identity_map(M), grid, exponents)
        for q, bound, value in zip(exponents, bounds, values):
            worst = max(worst, _relerr(value.value, bound))
            checked.append(f"{label}-p{q:g}")
            energies[checked[-1]] = value.value
        # free this grid and its kept frames before the next case builds its own
        del grid
    return {"checked": checked, "energies": energies}, worst


@_experiment("line-formula", "lines", 2000, 0.01)
def _run_line_formula(seed, lines):
    """Line averages of restricted energies recover the 2-energy."""
    target = np.pi**2
    maps = {
        "identity": identity_map(complex_projective(2)),
        "dilation-4": make_projective_dilation(2, 4.0),
    }
    worst = _relerr(line_space_mass(2), np.pi**2 / 2.0)
    averages = {}
    for index, (label, F) in enumerate(maps.items()):
        avg = line_energy_average(F, K=lines, line_resolution=3,
                                  seed=seed + index)
        averages[label] = float(avg)
        worst = max(worst, _relerr(avg, target))
    return {"averages": averages, "mass": line_space_mass(2)}, worst


@_experiment("rp2-family", "planes", 64, EXACT)
def _run_rp2_family(seed, planes):
    """Plane averages of restricted energies recover the 2-energy on RP^3."""
    avg = rp2_family_average(identity_map(real_projective(3)), K=planes, seed=seed)
    worst = max(_relerr(avg, 1.5 * np.pi**2),
                _relerr(rp2_family_mass(3), 0.75 * np.pi))
    return {"average": float(avg), "mass": rp2_family_mass(3)}, worst


@_experiment("squeeze", "nodes", 100000, 0.02, "relative",
             reference=lambda inputs: np.pi * inputs["restricted_energy"])
def _run_squeeze(seed, nodes):
    """Dilation squeeze of a perturbed identity map of CP^2.

    Composing with stronger and stronger dilations drives the 2-energy
    down to pi times the energy of the restriction to the fixed line;
    the run checks the terminal value against that target and insists
    the sequence decreases within three combined standard errors.  The
    perturbation vanishes on the line, so the restriction is the line's
    identity, whose energy must be pi up to rounding.
    """
    F = perturbed_identity(complex_projective(2), magnitude=0.2,
                           flavor="squeeze", seed=seed)
    grid = build_grid(complex_projective(2), nodes, "monte_carlo",
                      seed=seed + 3)
    lambdas = (1.0, 2.0, 4.0, 8.0, 16.0)
    energies, restricted = squeeze_limit(F, grid, lambdas)
    if not _relerr(restricted, np.pi) <= EXACT:
        raise GeometryError(f"the restricted energy {restricted!r} is not the line's pi")
    values = [ev.value for ev in energies]
    errors = [ev.stderr or 0.0 for ev in energies]
    for k in range(len(values) - 1):
        slack = 3.0 * (errors[k] + errors[k + 1])
        if values[k + 1] > values[k] + slack:
            raise GeometryError(
                "squeeze sequence fails to decrease within sampling error"
            )
    inputs = {"magnitude": 0.2,
              "lambdas": list(lambdas), "energies": [float(v) for v in values],
              "stderrs": [float(e) for e in errors],
              "restricted_energy": restricted}
    return inputs, values[-1]


@_experiment("theta", "nodes", 30000, EXACT, "relative", reference=3.0 * np.pi**2)
def _run_theta(seed, nodes):
    """Conformal dilations of the 3-sphere lower the projective energy."""
    grid = build_grid(sphere(3), nodes, "monte_carlo", seed=seed + 5)
    values = [p_energy(make_theta(t), grid, p=2.0).value for t in (1, 2, 4, 8)]
    if not all(b < a for a, b in zip(values, values[1:])):
        raise GeometryError("dilation energies fail to decrease strictly")
    return {"parameters": [1, 2, 4, 8], "energies": [float(v) for v in values]}, values[0]


@_experiment("capped-theta", "nodes", 30000, 0.02, "relative", reference=2.0 * np.pi**2)
def _run_capped_theta(seed, nodes):
    """Extrapolated limit of the capped dilation family on RP^3.

    The capped family's energies approach twice pi squared like c / t,
    so the Richardson combination 2 E(16) - E(8) cancels the leading
    tail and lands on the limit.
    """
    grid = build_grid(real_projective(3), nodes, "monte_carlo", seed=seed + 7)
    e8 = p_energy(make_capped_theta(8.0), grid, p=2.0).value
    e16 = p_energy(make_capped_theta(16.0), grid, p=2.0).value
    return {"energies": {"8": float(e8), "16": float(e16)}}, 2.0 * e16 - e8


@_experiment("holomorphic-corpus", "level", 4, 1.0)
def _run_holomorphic_corpus(seed, level):
    """Degree-d rational curves: energy = area = d * pi, residuals vanish.

    The estimate is the worst constituent deviation divided by its own
    tolerance (0.5% relative for energy and area, 1e-3 absolute for the
    pluriharmonic, metric-compatibility, and tension residuals), so a
    value below one means every check passed.
    """
    grid = build_grid(complex_projective(1), level, "mesh")
    curves = {"line": (line_curve(2), 1),
              "conic": (conic_curve(), 2),
              "cubic": (random_curve(2, 3, seed=seed + 1), 3)}
    probes = complex_projective(1).random_point(spawn(seed, 2), size=(100,))
    worst = 0.0
    breakdown = {}
    for label, (F, degree) in curves.items():
        energy = p_energy(F, grid, p=2.0).value
        area = surface_area(F, grid)
        plh = float(np.max(pluriharmonic_residual(F, probes)))
        herm = float(np.max(hermitian_residual(F, probes)))
        tau = float(np.max(np.linalg.norm(tension(F, probes), axis=-1)))
        breakdown[label] = {"energy": float(energy), "area": float(area),
                            "pluriharmonic": plh, "hermitian": herm,
                            "tension": tau}
        worst = max(worst,
                    _relerr(energy, degree * np.pi) / 5e-3,
                    _relerr(area, degree * np.pi) / 5e-3,
                    plh / 1e-3, herm / 1e-3, tau / 1e-3)
    return {"probes": 100, "curves": breakdown}, worst


@_experiment("harmonic-diagnostics", "probes", 100, 1.0)
def _run_harmonic_diagnostics(seed, probes):
    """Tension and holomorphy residuals separate harmonic maps from others.

    Every member of the harmonic corpus must keep its residuals under
    1e-3 (the estimate is the worst residual in units of that budget),
    while a perturbed identity must exceed the same budget by an order
    of magnitude or the run fails.
    """
    corpus = {
        "identity-cp1": identity_map(complex_projective(1)),
        "identity-rp2": identity_map(real_projective(2)),
        "line-inclusion": standard_maps("inclusion_cp", k=1, N=2),
        "double-cover": standard_maps("double_cover"),
        "conic": conic_curve(),
        "veronese": veronese_curve(),
    }
    worst = 0.0
    breakdown = {}
    for index, (label, F) in enumerate(corpus.items()):
        x = F.domain.random_point(spawn(seed, index), size=(probes,))
        tau = float(np.max(np.linalg.norm(tension(F, x), axis=-1)))
        breakdown[label] = {"tension": tau}
        worst = max(worst, tau / 1e-3)
    cp1 = complex_projective(1)
    x = cp1.random_point(spawn(seed, 17), size=(probes,))
    bent = perturbed_identity(cp1, magnitude=0.2, seed=seed)
    bent_tau = float(np.max(np.linalg.norm(tension(bent, x), axis=-1)))
    if bent_tau < 1e-2:
        raise GeometryError("a perturbed identity failed to register tension")
    return {"corpus": breakdown, "perturbed_tension": bent_tau}, worst


@_experiment("jacobi", "level", 4, 0.05)
def _run_jacobi(seed, level):
    """Second variations match the index-form shortcut on a degree-2 curve."""
    F = veronese_curve()
    grid = build_grid(complex_projective(1), level, "mesh")
    scale = p_energy(F, grid, p=2.0).value
    worst = 0.0
    sides = {}
    for index, a in enumerate(su_basis(2)[:2]):
        lhs, rhs = jacobi_identity_check(F, a, grid)
        worst = max(worst,
                    abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-3 * scale))
        sides[f"generator-{index}"] = {"stencil": float(lhs),
                                       "index_form": float(rhs)}
    return {"generators": 2, "sides": sides}, worst


@_experiment("trace-II", "level", 4, 1e-3)
def _run_trace_ii(seed, level):
    """Symmetry directions are energy-neutral for the identity of CP^1."""
    M = complex_projective(1)
    F = identity_map(M)
    grid = build_grid(M, level, "mesh")
    scale = p_energy(F, grid, p=2.0).value
    trace, variations = index_trace_over_symmetries(F, grid, su_basis(2))
    worst = max(max(abs(v) for v in variations), abs(trace)) / scale
    inputs = {"variations": [float(v) for v in variations],
              "trace": float(trace), "energy": float(scale)}
    return inputs, worst


@_experiment("pu", "level", 4, 1.0)
def _run_pu(seed, level):
    """Systolic slack on RP^2: zero for the round metric, positive off it.

    The round metric must sit within two percent of equality (graph
    bias), and the weight 1 + x0^2 / 2 must show slack at least three
    times the refinement uncertainty |slack(level+1) - slack(level)|.
    """
    sys_round = systole_rp2(1.0, level=level)
    round_slack = eval_bound(BoundSpec("PU", {"area": 2.0 * np.pi,
                                              "systole": sys_round}))
    round_dev = abs(round_slack) / (2.0 * np.pi)

    def bump(x):
        return 1.0 + 0.5 * x[..., 0] ** 2

    area = conformal_area_rp2(bump, level=level + 1)
    sys_coarse = systole_rp2(bump, level=level)
    sys_fine = systole_rp2(bump, level=level + 1)
    slack = eval_bound(BoundSpec("PU", {"area": area, "systole": sys_fine}))
    slack_coarse = eval_bound(BoundSpec("PU", {"area": area,
                                               "systole": sys_coarse}))
    uncertainty = abs(slack - slack_coarse)
    if not slack > 0:
        raise GeometryError("the bumped metric shows no systolic slack")
    worst = max(round_dev / 0.02, 3.0 * uncertainty / slack)
    inputs = {"round_systole": float(sys_round),
              "bump_area": float(area), "bump_systole": float(sys_fine),
              "slack": float(slack), "uncertainty": float(uncertainty)}
    return inputs, worst


@_experiment("flow", "level", 4, 0.01, "relative", reference=4.0 * np.pi)
def _run_flow(seed, level):
    """Discrete energy descent returns a bent sphere map to the identity.

    The flow must descend monotonically to the round-sphere energy, and
    the conformality defect of the final map must be at least ten times
    smaller than that of the bent start.
    """
    bent = perturbed_identity(sphere(2), magnitude=0.2, seed=seed)
    start = sample_map(bent, level)
    defect_before = conformality_defect(start)
    final, history = flow_minimize(start, step=0.25, iters=4000, grad_tol=2e-4)
    energies = [h["energy"] for h in history]
    if any(b > a for a, b in zip(energies, energies[1:])):
        raise GeometryError("the flow energy failed to decrease monotonically")
    defect_after = conformality_defect(final)
    if not defect_before / max(defect_after, 1e-300) >= 10.0:
        raise GeometryError("the conformality defect did not shrink tenfold")
    inputs = {"iterations": len(history) - 1,
              "defect_before": float(defect_before),
              "defect_after": float(defect_after),
              "final_grad_norm": float(history[-1]["grad_norm"])}
    return inputs, energies[-1]


@_experiment("e1-geodesic", "loops", 400, EXACT, "relative",
             reference=eval_bound(BoundSpec("RPN_P", {"n": 3, "p": 1.0, "length": np.pi})))
def _run_e1_geodesic(seed, loops):
    """Geodesic image lengths bound the 1-energy, sharply for the identity."""
    value = e1_geodesic_bound(identity_map(real_projective(3)), K=loops, seed=seed)
    return {}, value


# ---------------------------------------------------------------------------
# running experiments


def _checked_integer(key, value, least):
    """The integer parameter `key` of a record, checked to be at least `least`."""
    if not is_integer(value) or value < least:
        raise UsageError(f"{key} must be an integer >= {least}, got {value!r}")
    return int(value)


def _parsed(config):
    """(name, seed, resolution, p) of a parameter record, checked."""
    cfg = dict(config)
    name = cfg.pop("name", None)
    if name not in EXPERIMENTS:
        raise UsageError(
            f"unknown experiment {name!r}; known names: "
            + ", ".join(sorted(EXPERIMENTS))
        )
    experiment = EXPERIMENTS[name]
    seed = _checked_integer("seed", cfg.pop("seed", 0), 0)
    resolution = cfg.pop("resolution", None)
    resolution = _checked_integer(
        "resolution", experiment.resolution if resolution is None else resolution, 1)
    p = cfg.pop("p", None)
    if p is not None:
        if "p" not in inspect.signature(experiment.run).parameters:
            raise UsageError(f"{name} does not read p")
        if not is_finite_real(p):
            raise UsageError(f"p must be a finite real number, got {p!r}")
        p = float(p)
    if cfg:
        raise UsageError(f"unknown parameters for {name}: {sorted(cfg)}")
    return name, seed, resolution, p


def run_experiment(config):
    """Run one named experiment from a parameter record.

    `config` maps "name" to one of the registered experiment names and
    may add "seed" (an integer >= 0), "resolution" (an integer >= 1,
    the registered default when absent), and "p" (a finite real, for
    the experiments that read it).  Unknown names or keys and malformed
    values raise `UsageError`.  Geometric and numerical failures inside
    the experiment produce a failed report (estimate NaN, error message
    recorded in the inputs) rather than a crash; programming errors
    propagate.
    """
    name, seed, resolution, p = _parsed(config)
    experiment = EXPERIMENTS[name]
    started = time.perf_counter()
    try:
        inputs, estimate = experiment.run(seed, resolution, **({} if p is None else {"p": p}))
    except (GeometryError, ArithmeticError, np.linalg.LinAlgError) as exc:
        inputs, estimate = {"error": f"{type(exc).__name__}: {exc}"}, float("nan")
        contract = (0.0, 0.0, "absolute")
    else:
        reference = experiment.reference
        reference = reference(inputs) if callable(reference) else reference
        contract = (reference, experiment.tolerance, experiment.kind)
    wall = time.perf_counter() - started
    inputs = {experiment.unit: resolution, "seed": seed, **inputs}
    return ExperimentReport.build(name, inputs, estimate, *contract, wall)


def run_suite(configs):
    """Run a list of experiment records, checking every record before the
    first one runs."""
    for record in configs:
        _parsed(record)
    return [run_experiment(record) for record in configs]
