"""The benchmark's four workloads: the inputs each hands to mapenergy,
the operations one round runs, and how each output is checked.

Thirteen of the 14 named experiments run in exactly one workload each,
as `run_experiment` records.  capped-theta is left out: at its default
30,000 nodes it fails on 8 of seeds 0-13 (the Richardson combination
2 E(16) - E(8) lands up to 4% from 2 pi^2), and an operation that fails
on some seeds only would make the failed share differ between runs; its
check stays in checks.py for when the experiment is mended.  Three
operations call public functions directly: the bounds-identity reference
values, the antipodal-quotient flow descent and the rotated-bump
systole.  Each workload exercises some layers heavily and others hardly
at all, so that a change to one layer shows on one workload and leaves
another unmoved (see README.md).

Functions are looked up on their modules at call time, so a tracer that
replaces them in the module namespaces sees every call.
"""

import json
from dataclasses import dataclass
from typing import Callable

import mapenergy.constructions as constructions
import mapenergy.flow as flow
import mapenergy.manifolds as manifolds
import mapenergy.maps as maps
import mapenergy.meshes as meshes
import mapenergy.rand as rand
import mapenergy.report as report

import checks

# The flow experiment's perturbation seed sets its iteration count
# (192 to 245 at level 3 over seeds 0-13), which would swamp run-to-run
# timing differences; the workload pins it and takes its seeded variety
# from the rotation of the quotient descent, whose count does not move.
FLOW_EXPERIMENT_SEED = 0

# holomorphic-corpus fails on 39 of seeds 0-59 at its default level: the
# random cubic's finite-difference pluriharmonic residual exceeds the 1e-3
# budget.  So that the failed share is the same in every run, the workload
# runs it on a fixed seed where it fails every time (residual 0.019, the
# benchmark's one failing operation) and counts that failure.
HOLOMORPHIC_SEED = 2

# Flow settings of the `flow` experiment, reused for the quotient descent.
FLOW_SETTINGS = {"step": 0.25, "iters": 4000, "grad_tol": 2e-4}


@dataclass
class Operation:
    """One call into mapenergy and the checks on its output."""

    label: str
    call: Callable[[], object]
    check: Callable[[object], list]
    # message when the program itself reports failure, else None
    program_failure: Callable[[object], object]
    # value that must repeat exactly in every round of a run
    fingerprint: Callable[[object], object]


@dataclass
class Workload:
    name: str
    mesh_levels: tuple
    build: Callable[[int, dict], list]
    # resolutions of the benchmark, and smaller ones for fast tests
    full: dict
    tiny: dict


def experiment_seed(seed):
    """Nonnegative experiment seed for a benchmark seed."""
    return int(seed) % 2**31


def _report_failure(rep):
    if rep.passed:
        return None
    return f"report failed: {rep.inputs.get('error', 'estimate outside tolerance')}"


def _report_fingerprint(rep):
    return repr(rep.estimate) + json.dumps(rep.inputs, sort_keys=True)


def experiment(name, seed, resolution=None):
    config = {"name": name, "seed": seed}
    if resolution is not None:
        config["resolution"] = resolution
    return Operation(
        label=name,
        call=lambda: report.run_experiment(config),
        check=checks.EXPERIMENT_CHECKS[name],
        program_failure=_report_failure,
        fingerprint=_report_fingerprint,
    )


def _bounds_identity(seed, nodes):
    config = {"name": "bounds-identity", "seed": seed, "resolution": nodes}

    def call():
        rep = report.run_experiment(config)
        bounds = {}
        for N, p in checks.CP_IDENTITY_CASES:
            spec = report.BoundSpec("CPN_P", {"N": N, "p": p, "area": checks.PI})
            bounds[f"cp{N}-p{p:g}"] = report.eval_bound(spec)
        for n, p in checks.RP_IDENTITY_CASES:
            spec = report.BoundSpec("RPN_P", {"n": n, "p": p, "length": checks.PI})
            bounds[f"rp{n}-p{p:g}"] = report.eval_bound(spec)
        return rep, bounds

    return Operation(
        label="bounds-identity",
        call=call,
        check=checks.check_bounds_identity,
        program_failure=lambda out: _report_failure(out[0]),
        fingerprint=lambda out: _report_fingerprint(out[0]),
    )


def _no_failure(_output):
    return None


def quotient_descent(seed, level):
    """Flow descent of a rotated bent map of RP^2 on the antipodal quotient.

    The start map is R o P o R^T for the perturbed identity P of RP^2
    and a seeded rotation R; it is sampled on the icosphere here, in set-up.
    """
    M = manifolds.real_projective(2)
    rotation = M.random_isometry(rand.make_rng(seed))
    bent = constructions.perturbed_identity(M, 0.2, seed=0)
    rotated = maps.compose(
        maps.normalized_linear_map(M, M, rotation),
        maps.compose(bent, maps.normalized_linear_map(M, M, rotation.T)),
    )
    start = flow.sample_map(rotated, level, antipodal_quotient=True)
    defect_before = flow.conformality_defect(start)

    def call():
        final, history = flow.flow_minimize(start, **FLOW_SETTINGS)
        return {"energies": [h["energy"] for h in history],
                "defect_before": defect_before,
                "defect_after": flow.conformality_defect(final)}

    return Operation(
        label="quotient-descent",
        call=call,
        check=checks.check_quotient_flow,
        program_failure=_no_failure,
        fingerprint=lambda out: (repr(out["energies"][-1]), len(out["energies"]),
                                 repr(out["defect_after"])),
    )


def rotated_bump_systole(seed, level):
    """Systole of the conformal metric (1 + (Rx)_0^2 / 2) * round on RP^2."""
    rotation = manifolds.sphere(2).random_isometry(rand.make_rng(seed))

    def weight(x):
        y = x @ rotation.T
        return 1.0 + 0.5 * y[..., 0] ** 2

    return Operation(
        label="rotated-bump-systole",
        call=lambda: report.systole_rp2(weight, level=level),
        check=checks.check_rotated_systole,
        program_failure=_no_failure,
        fingerprint=repr,
    )


def _restricted_families(seed, r):
    s = experiment_seed(seed)
    return [
        experiment("line-formula", s, r["lines"]),
        experiment("rp2-family", s, r["planes"]),
        experiment("e1-geodesic", s, r["loops"]),
        experiment("croke", s, r["pairs"]),
        experiment("holomorphic-corpus", HOLOMORPHIC_SEED, r["level"]),
        experiment("harmonic-diagnostics", s, r["probes"]),
        experiment("jacobi", s, r["level"]),
        experiment("trace-II", s, r["level"]),
    ]


def _large_grids(seed, r):
    s = experiment_seed(seed)
    return [
        _bounds_identity(s, r["identity_nodes"]),
        experiment("squeeze", s, r["squeeze_nodes"]),
        experiment("theta", s, r["theta_nodes"]),
    ]


def _mesh_flow(seed, r):
    s = experiment_seed(seed)
    return [
        experiment("flow", FLOW_EXPERIMENT_SEED, r["level"]),
        quotient_descent(s, r["level"]),
    ]


def _systole_graph(seed, r):
    s = experiment_seed(seed)
    return [
        experiment("pu", s, r["pu_level"]),
        rotated_bump_systole(s, r["systole_level"]),
    ]


WORKLOADS = {
    w.name: w
    for w in [
        Workload(
            "restricted-families",
            (3, 4), _restricted_families,
            full={"lines": 500, "planes": 64, "loops": 400, "pairs": 1000,
                  "level": 4, "probes": 100},
            tiny={"lines": 10, "planes": 8, "loops": 40, "pairs": 30,
                  "level": 4, "probes": 10},
        ),
        Workload(
            "large-grids",
            (4,), _large_grids,
            full={"identity_nodes": 100000, "squeeze_nodes": 100000, "theta_nodes": 30000},
            tiny={"identity_nodes": 2000, "squeeze_nodes": 20000, "theta_nodes": 30000},
        ),
        Workload(
            "mesh-flow",
            (3,), _mesh_flow,
            full={"level": 3},
            tiny={"level": 3},
        ),
        Workload(
            "systole-graph",
            (3, 4), _systole_graph,
            full={"pu_level": 3, "systole_level": 4},
            tiny={"pu_level": 2, "systole_level": 3},
        ),
    ]
}


def setup(workload, seed, tiny=False):
    """Build the inputs of one workload: icosphere meshes, start maps,
    weights and experiment records.  Returns the operations of a round."""
    for level in workload.mesh_levels:
        meshes.icosphere(level)
    return workload.build(seed, workload.tiny if tiny else workload.full)
