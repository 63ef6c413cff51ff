"""Named verification experiments with closed-form reference values.

Three layers live here.  `BoundSpec` / `eval_bound` turn a handful of
closed-form lower bounds for p-energies into callable arithmetic, with
the geometric inputs (target areas, geodesic lengths, per-plane
energies) supplied by the caller rather than computed.  `systole_rp2`
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
import numbers
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
    make_rational_curve,
    make_projective_dilation,
    make_theta,
    perturbed_identity,
    random_curve,
    reference_line,
    standard_maps,
    veronese_curve,
)
from .energy import croke_density, elementary_bound, p_energy, surface_area
from .flow import conformality_defect, flow_minimize, sample_map
from .harmonic import (
    hermitian_residual,
    jacobi_identity_check,
    pluriharmonic_residual,
    second_variation,
    symmetry_variation,
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
    real_projective,
    sphere,
    sphere_volume,
    su_basis,
)
from .maps import (
    build_grid,
    compose,
    frame_at,
    homothety_map,
    identity_map,
    normalized_linear_map,
    pullback_gram,
)
from .meshes import antipodal_permutation, icosphere, vertex_areas
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
    "RP3_INTERVAL": lambda plane_energy: (float(0.75 * np.pi * plane_energy),
                                          float(np.pi * plane_energy)),
    "PU": lambda area, systole: float(area - (2.0 / np.pi) * systole**2),
    "ELEMENTARY": lambda p, n, vol, pvol: elementary_bound(p, n, vol, pvol),
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
    ``RP3_INTERVAL`` plane_energy         two-sided bracket for the
                                          2-energy of maps of RP^3 whose
                                          restrictions to projective
                                          planes have average energy at
                                          least plane_energy.
    ``PU``           area, systole        slack of the round-metric
                                          systolic inequality on RP^2.
    ``ELEMENTARY``   p >= n, vol, pvol    Hoelder bound from the pullback
                                          volume alone.

    The numbers `area`, `length`, `plane_energy` are inputs with
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
            if key in self.params:
                value = self.params[key]
                if int(value) != value or int(value) < 1:
                    raise GeometryError(f"{key} must be a positive integer")
        for key in ("area", "length", "plane_energy", "systole", "vol"):
            if key in self.params and not self.params[key] > 0:
                raise GeometryError(f"{key} must be positive")
        if "pvol" in self.params and self.params["pvol"] < 0:
            raise GeometryError("pvol must be nonnegative")
        p = self.params.get("p")
        if self.tag == "CPN_P" and p is not None and p < 2:
            raise GeometryError("the CPN_P bound needs p >= 2")
        if self.tag == "RPN_P" and p is not None and p < 1:
            raise GeometryError("the RPN_P bound needs p >= 1")
        if self.tag == "ELEMENTARY" and p < self.params["n"]:
            raise GeometryError("the ELEMENTARY bound needs p >= n")

    @property
    def strict(self):
        """True when no map can attain the bound (p > 2 complex case)."""
        return self.tag == "CPN_P" and self.params["p"] > 2


def eval_bound(spec):
    """Numeric value of a `BoundSpec` (a pair for RP3_INTERVAL)."""
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


def _conformal_weight(weight, mesh):
    """A positive conformal weight, callable or constant, at the mesh vertices."""
    n = len(mesh.vertices)
    mu = (np.asarray(weight(mesh.vertices), dtype=float) if callable(weight)
          else np.full(n, float(weight)))
    if mu.shape != (n,):
        raise GeometryError("weight must produce one value per vertex")
    if not np.all(mu > 0):
        raise GeometryError("the conformal weight must be positive")
    return mu


def systole_rp2(weight, level=4):
    """Shortest noncontractible loop of the metric weight * round on RP^2.

    `weight` is a positive conformal factor, given as a callable on unit
    ambient vectors (vectorized over the leading axis) or as a positive
    constant; it must be antipodally even so the metric descends to the
    projective plane.  Loops are searched on an icosahedral mesh of the
    double cover at the given subdivision level: every chord between
    vertices at most three hops apart becomes a graph edge weighted by
    its geodesic length times the mean of sqrt(weight) at its endpoints,
    and the systole is the least graph distance from a vertex to its
    antipode.  Rerun with `level + 1` to gauge convergence; for the
    round metric the result is pi to well within one percent.
    """
    mesh = icosphere(level)
    perm = antipodal_permutation(mesh)
    mu = _conformal_weight(weight, mesh)
    if np.max(np.abs(mu - mu[perm])) > 1e-10 * np.max(mu):
        raise GeometryError("the conformal weight must be antipodally even")
    pairs, lengths = _chord_graph(mesh)
    root = np.sqrt(mu)
    costs = lengths * 0.5 * (root[pairs[:, 0]] + root[pairs[:, 1]])
    n = len(mesh.vertices)
    graph = sparse.csr_matrix((costs, (pairs[:, 0], pairs[:, 1])), shape=(n, n))
    sources = np.flatnonzero(np.arange(n) < perm)
    best = np.inf
    for start in range(0, len(sources), 512):
        idx = sources[start : start + 512]
        dist = dijkstra(graph, directed=False, indices=idx)
        best = min(best, float(np.min(dist[np.arange(len(idx)), perm[idx]])))
    if not np.isfinite(best):
        raise GeometryError("the mesh graph is disconnected")
    return best


def conformal_area_rp2(weight, level=5):
    """Area of the metric weight * round on RP^2 by mesh quadrature."""
    mesh = icosphere(level)
    return float(0.5 * np.sum(vertex_areas(mesh) * _conformal_weight(weight, mesh)))


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


def _from_dict(record):
    return ExperimentReport(**{k: float("nan") if v is None else v for k, v in record.items()})


def write_reports(reports, path):
    """Write reports as a JSON array plus a CSV twin (same stem)."""
    path = str(path)
    payload = [r.to_dict() for r in reports]
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    stem = path[: -len(".json")] if path.endswith(".json") else path
    columns = ["name", "passed", "estimate", "reference", "abs_error", "rel_error",
               "tolerance", "tolerance_kind", "wall_time", "inputs"]
    rows = [[rec[c] if c != "inputs" else json.dumps(rec[c], sort_keys=True)
             for c in columns] for rec in payload]
    tables.write_table(stem + ".csv", [(columns, rows)])


def read_reports(path):
    """Read back a JSON report array written by `write_reports`."""
    with open(path) as fh:
        return [_from_dict(rec) for rec in json.load(fh)]


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


def _relerr(value, reference):
    return abs(value - reference) / abs(reference)


@_experiment("croke", "pairs", 1000, 1e-6)
def _run_croke(seed, pairs):
    """Spherical mean of |dF(u)|^2 against the trace of the pullback Gram."""
    pools = [
        (sphere(2), [
            identity_map(sphere(2)),
            homothety_map(sphere(2), sphere(2, 1.7)),
            normalized_linear_map(sphere(2), sphere(2), np.diag([1.0, 1.3, 0.8]),
                                  name="stretch"),
        ]),
        (real_projective(3), [
            identity_map(real_projective(3)),
            homothety_map(real_projective(3), real_projective(3, 2.0)),
            normalized_linear_map(real_projective(3), real_projective(3),
                                  np.diag([1.0, 1.2, 0.9, 1.1]), name="stretch"),
        ]),
        (complex_projective(2), [
            identity_map(complex_projective(2)),
            make_projective_dilation(2, 2.0),
            standard_maps("conjugation", N=2),
        ]),
    ]
    flat = [(M, F) for M, maps in pools for F in maps]
    counts = np.full(len(flat), pairs // len(flat))
    counts[: pairs - int(np.sum(counts))] += 1
    worst = 0.0
    for index, ((M, F), k) in enumerate(zip(flat, counts)):
        if k == 0:
            continue
        x = M.random_point(spawn(seed, index), size=(int(k),))
        density = croke_density(F, x, order=3)
        gram, ok = pullback_gram(F, x, frame_at(M, x))
        if not np.all(ok):
            raise GeometryError("a probe point fell in the unreliable band")
        trace = np.real(np.trace(gram, axis1=-2, axis2=-1))
        worst = max(worst, float(np.max(np.abs(density - trace) / np.abs(trace))))
    return {"order": 3}, worst


@_experiment("bounds-identity", "nodes", 100000, 5e-3)
def _run_bounds_identity(seed, nodes, p=None):
    """Identity maps saturate the closed-form p-energy bounds."""
    if p is None:
        p_complex, p_real = (2.0, 3.0, 4.0), (1.0, 2.0, 4.0)
    else:  # the CP^N bound holds for p >= 2, the RP^n bound for p >= 1
        p_complex, p_real = (p,) if p >= 2.0 else (), (p,)
    worst = 0.0
    checked = []
    for N in (1, 2) if p_complex else ():
        M = complex_projective(N)
        grid = build_grid(M, nodes, "monte_carlo", seed=seed + N)
        for q in p_complex:
            bound = eval_bound(BoundSpec("CPN_P", {"N": N, "p": q, "area": np.pi}))
            value = p_energy(identity_map(M), grid, p=q).value
            worst = max(worst, _relerr(value, bound))
            checked.append(f"cp{N}-p{q:g}")
    for n in (2, 3):
        M = real_projective(n)
        grid = build_grid(M, nodes, "monte_carlo", seed=seed + 8 + n)
        for q in p_real:
            bound = eval_bound(BoundSpec("RPN_P", {"n": n, "p": q, "length": np.pi}))
            value = p_energy(identity_map(M), grid, p=q).value
            worst = max(worst, _relerr(value, bound))
            checked.append(f"rp{n}-p{q:g}")
    return {"checked": checked}, worst


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


@_experiment("rp2-family", "planes", 64, 0.01)
def _run_rp2_family(seed, planes):
    """Plane averages of restricted energies recover the 2-energy on RP^3."""
    avg = rp2_family_average(identity_map(real_projective(3)), K=planes,
                             seed=seed, resolution=4)
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
    the sequence decreases within three combined standard errors.
    """
    F = perturbed_identity(complex_projective(2), magnitude=0.2,
                           flavor="squeeze", seed=seed)
    grid = build_grid(complex_projective(2), nodes, "monte_carlo",
                      seed=seed + 3)
    lambdas = (1.0, 2.0, 4.0, 8.0, 16.0)
    values, errors = [], []
    for lam in lambdas:
        ev = p_energy(compose(F, make_projective_dilation(2, lam)), grid, p=2.0)
        values.append(ev.value)
        errors.append(ev.stderr or 0.0)
    for k in range(len(values) - 1):
        slack = 3.0 * (errors[k] + errors[k + 1])
        if values[k + 1] > values[k] + slack:
            raise GeometryError(
                "squeeze sequence fails to decrease within sampling error"
            )
    line_grid = build_grid(complex_projective(1), 4, "mesh")
    restricted = p_energy(compose(F, reference_line(2).embedding), line_grid,
                          p=2.0).value
    inputs = {"magnitude": 0.2,
              "lambdas": list(lambdas), "energies": [float(v) for v in values],
              "stderrs": [float(e) for e in errors],
              "restricted_energy": float(restricted)}
    return inputs, values[-1]


@_experiment("theta", "nodes", 30000, 5e-3, "relative", reference=3.0 * np.pi**2)
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
    curves = {"line": (make_rational_curve(line_curve(2)), 1),
              "conic": (make_rational_curve(conic_curve()), 2),
              "cubic": (make_rational_curve(random_curve(2, 3, seed=seed + 1)), 3)}
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
        "conic": make_rational_curve(conic_curve()),
        "veronese": make_rational_curve(veronese_curve()),
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
    F = make_rational_curve(veronese_curve())
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
    basis = su_basis(2)
    variations = [second_variation(F, symmetry_variation(F, a), grid) for a in basis]
    # index_trace_over_symmetries(F, grid, basis), without recomputing its terms
    trace = sum(variations)
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


@_experiment("e1-geodesic", "loops", 400, 0.01, "relative",
             reference=eval_bound(BoundSpec("RPN_P", {"n": 3, "p": 1.0, "length": np.pi})))
def _run_e1_geodesic(seed, loops):
    """Geodesic image lengths bound the 1-energy, sharply for the identity."""
    value = e1_geodesic_bound(identity_map(real_projective(3)), K=loops,
                              seed=seed, steps=256)
    return {}, value


# ---------------------------------------------------------------------------
# running experiments


def _checked_integer(key, value, least):
    """The integer parameter `key` of a record, checked to be at least `least`."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
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
        if isinstance(p, bool) or not isinstance(p, numbers.Real) or not math.isfinite(p):
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
    """Run several experiments: a list of records or a name -> record map.

    Every record is checked before the first one runs.
    """
    if isinstance(configs, dict):
        configs = [{"name": name, **(record or {})}
                   for name, record in configs.items()]
    configs = list(configs)
    for record in configs:
        _parsed(record)
    return [run_experiment(record) for record in configs]


def all_passed(reports):
    return all(r.passed for r in reports)
