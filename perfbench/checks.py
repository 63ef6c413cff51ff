"""Closed forms and properties that every benchmark output must satisfy.

The references are computed here from the paper's formulas with the
standard library alone, never through mapenergy, so a wrong reference
inside the package fails a check instead of agreeing with itself.  Each
check takes one operation's output and returns a list of problems; an
empty list means the output is correct.

Outputs of named experiments are `ExperimentReport`s (any object with
the same attributes will do); the three direct calls return the small
records documented on their checks.
"""

import math

PI = math.pi


def sphere_volume(n):
    """Volume of the unit n-sphere."""
    return 2.0 * PI ** ((n + 1) / 2.0) / math.gamma((n + 1) / 2.0)


def cp_identity_energy(N, p):
    """p-energy of the identity of CP^N: pi^N / (2 N!) * (2N)^(p/2)."""
    return PI**N / (2.0 * math.factorial(N)) * (2.0 * N) ** (p / 2.0)


def rp_identity_energy(n, p):
    """p-energy of the identity of RP^n: vol(S^n) / 4 * n^(p/2)."""
    return sphere_volume(n) / 4.0 * n ** (p / 2.0)


# Closed-form values.  Tests replace entries to show that a wrong
# reference makes a correct output fail.
REFERENCES = {
    "line_average": PI**2,               # 2-energy of maps of CP^2 in the degree-1 class
    "line_space_mass": PI**2 / 2.0,      # mass of the space of lines of CP^2
    "plane_average": 1.5 * PI**2,        # 2-energy of the identity of RP^3
    "plane_family_mass": 0.75 * PI,      # mass of the planes of RP^3
    "e1_geodesic": PI**2 / 2.0 * math.sqrt(3.0),
    "theta_start": 3.0 * PI**2,          # E(1) of the conformal dilation family
    "capped_theta_limit": 2.0 * PI**2,
    "squeeze_infimum": PI**2,            # pi^(N-1)/(N-1)! * area for N = 2, area pi
    "flow_sphere": 4.0 * PI,             # energy of the identity of S^2
    "flow_quotient": 2.0 * PI,           # energy of the identity of RP^2
    "round_systole": PI,
    "rotated_bump_systole": PI,
    "bump_area": 2.0 * PI + PI / 3.0,    # area of (1 + x0^2 / 2) * round on RP^2
    "cp1_identity_energy": PI,
    "veronese_energy": 2.0 * PI,         # degree-2 curve: energy = area = 2 pi
}

# (N, p) and (n, p) pairs of the bounds-identity experiment.
CP_IDENTITY_CASES = [(N, p) for N in (1, 2) for p in (2.0, 3.0, 4.0)]
RP_IDENTITY_CASES = [(n, p) for n in (2, 3) for p in (1.0, 2.0, 4.0)]


def identity_labels():
    return ([f"cp{N}-p{p:g}" for N, p in CP_IDENTITY_CASES]
            + [f"rp{n}-p{p:g}" for n, p in RP_IDENTITY_CASES])


def _finite(x):
    return isinstance(x, (int, float)) and math.isfinite(x)


def _close(problems, label, value, key, rel):
    """Append a problem unless |value - REFERENCES[key]| <= rel * |ref|."""
    ref = REFERENCES[key]
    if not _finite(value) or abs(value - ref) > rel * abs(ref):
        problems.append(f"{label} = {value!r}, expected {ref!r} within {rel:g} relative")


def _at_most(problems, label, value, limit):
    if not _finite(value) or value > limit:
        problems.append(f"{label} = {value!r}, expected at most {limit:g}")


def _at_least(problems, label, value, limit):
    if not _finite(value) or value < limit:
        problems.append(f"{label} = {value!r}, expected at least {limit:g}")


def _reference(problems, report, key):
    """The report's own reference must be the closed form."""
    _close(problems, "report reference", report.reference, key, 1e-12)


# ---------------------------------------------------------------------------
# named experiments


def check_line_formula(report):
    problems = []
    averages = report.inputs.get("averages", {})
    if sorted(averages) != ["dilation-4", "identity"]:
        problems.append(f"line averages for {sorted(averages)}")
    for label, value in averages.items():
        _close(problems, f"line average of {label}", value, "line_average", 0.01)
    _close(problems, "line space mass", report.inputs.get("mass"), "line_space_mass", 1e-12)
    _at_most(problems, "worst relative error", report.estimate, 0.01)
    return problems


def check_rp2_family(report):
    problems = []
    _close(problems, "RP^3 plane average", report.inputs.get("average"), "plane_average", 0.01)
    _close(problems, "plane family mass", report.inputs.get("mass"), "plane_family_mass", 1e-12)
    _at_most(problems, "worst relative error", report.estimate, 0.01)
    return problems


def check_e1_geodesic(report):
    problems = []
    _close(problems, "e1 geodesic bound", report.estimate, "e1_geodesic", 0.01)
    _reference(problems, report, "e1_geodesic")
    return problems


def check_croke(report):
    problems = []
    _at_most(problems, "worst density/trace deviation", report.estimate, 1e-6)
    return problems


_CURVE_DEGREES = {"line": 1, "conic": 2, "cubic": 3}


def check_holomorphic_corpus(report):
    problems = []
    curves = report.inputs.get("curves", {})
    if sorted(curves) != sorted(_CURVE_DEGREES):
        problems.append(f"holomorphic corpus has curves {sorted(curves)}")
    for label, record in curves.items():
        degree = _CURVE_DEGREES.get(label, 0)
        target = degree * PI
        for key in ("energy", "area"):
            value = record.get(key)
            if not _finite(value) or abs(value - target) > 5e-3 * target:
                problems.append(f"{label} {key} = {value!r}, expected {target!r} within 0.5%")
        for key in ("pluriharmonic", "hermitian", "tension"):
            _at_most(problems, f"{label} {key} residual", record.get(key), 1e-3)
    _at_most(problems, "worst residual in budget units", report.estimate, 1.0)
    return problems


def check_harmonic_diagnostics(report):
    problems = []
    corpus = report.inputs.get("corpus", {})
    if len(corpus) != 6:
        problems.append(f"harmonic corpus has {len(corpus)} maps, expected 6")
    for label, record in corpus.items():
        _at_most(problems, f"{label} tension", record.get("tension"), 1e-3)
    _at_least(problems, "perturbed identity tension", report.inputs.get("perturbed_tension"), 1e-2)
    return problems


def check_jacobi(report):
    problems = []
    sides = report.inputs.get("sides", {})
    if len(sides) != 2:
        problems.append(f"jacobi checked {len(sides)} generators, expected 2")
    floor = 1e-3 * REFERENCES["veronese_energy"]
    for label, pair in sides.items():
        lhs, rhs = pair.get("stencil"), pair.get("index_form")
        if not (_finite(lhs) and _finite(rhs)):
            problems.append(f"{label}: non-finite sides {lhs!r}, {rhs!r}")
            continue
        gap = abs(lhs - rhs) / max(abs(lhs), abs(rhs), floor)
        _at_most(problems, f"{label} stencil/index-form gap", gap, 0.05)
    _at_most(problems, "worst gap", report.estimate, 0.05)
    return problems


def check_trace_ii(report):
    problems = []
    energy = report.inputs.get("energy")
    _close(problems, "identity energy of CP^1", energy, "cp1_identity_energy", 5e-3)
    values = list(report.inputs.get("variations", [])) + [report.inputs.get("trace")]
    if len(values) != 4 or not all(_finite(v) for v in values):
        problems.append(f"trace-II variations {values!r}")
    else:
        worst = max(abs(v) for v in values) / REFERENCES["cp1_identity_energy"]
        _at_most(problems, "symmetry second variation / energy", worst, 1e-3)
    return problems


def check_bounds_identity(output):
    """`output` is (report, bounds): bounds maps each case label to the
    value the package's own `eval_bound` gives for it."""
    report, bounds = output
    problems = []
    labels = identity_labels()
    if report.inputs.get("checked") != labels:
        problems.append(f"bounds-identity checked {report.inputs.get('checked')!r}")
    cases = ([(f"cp{N}-p{p:g}", cp_identity_energy(N, p)) for N, p in CP_IDENTITY_CASES]
             + [(f"rp{n}-p{p:g}", rp_identity_energy(n, p)) for n, p in RP_IDENTITY_CASES])
    for label, closed in cases:
        value = bounds.get(label)
        if not _finite(value) or abs(value - closed) > 1e-12 * closed:
            problems.append(f"bound {label} = {value!r}, closed form {closed!r}")
    _at_most(problems, "worst identity-energy relative error", report.estimate, 5e-3)
    return problems


def check_squeeze(report):
    problems = []
    energies = report.inputs.get("energies", [])
    stderrs = report.inputs.get("stderrs", [])
    if len(energies) != 5 or len(stderrs) != 5:
        problems.append(f"squeeze gave {len(energies)} energies and {len(stderrs)} errors")
    floor = REFERENCES["squeeze_infimum"]
    for lam, value, err in zip(report.inputs.get("lambdas", []), energies, stderrs):
        _at_least(problems, f"squeeze energy at lambda {lam:g}", value, floor - 3.0 * err)
    restricted = report.inputs.get("restricted_energy")
    if not _finite(restricted) or not energies:
        problems.append(f"squeeze restricted energy {restricted!r}")
    else:
        target = PI * restricted
        if abs(energies[-1] - target) > 0.02 * target:
            problems.append(f"terminal squeeze energy {energies[-1]!r}, line limit {target!r}")
    return problems


def check_theta(report):
    problems = []
    energies = report.inputs.get("energies", [])
    if len(energies) != 4:
        problems.append(f"theta gave {len(energies)} energies, expected 4")
        return problems
    _close(problems, "theta E(1)", energies[0], "theta_start", 5e-3)
    if not all(b < a for a, b in zip(energies, energies[1:])):
        problems.append(f"theta energies {energies!r} do not decrease strictly")
    _reference(problems, report, "theta_start")
    return problems


def check_capped_theta(report):
    problems = []
    energies = report.inputs.get("energies", {})
    e8, e16 = energies.get("8"), energies.get("16")
    if not (_finite(e8) and _finite(e16)):
        problems.append(f"capped-theta energies {energies!r}")
        return problems
    _close(problems, "Richardson limit 2 E(16) - E(8)", 2.0 * e16 - e8, "capped_theta_limit", 0.02)
    _reference(problems, report, "capped_theta_limit")
    return problems


def check_flow(report):
    problems = []
    _close(problems, "final flow energy", report.estimate, "flow_sphere", 0.01)
    _reference(problems, report, "flow_sphere")
    before = report.inputs.get("defect_before")
    after = report.inputs.get("defect_after")
    if not (_finite(before) and _finite(after)) or not before >= 10.0 * after:
        problems.append(f"conformality defect {before!r} -> {after!r} shrank less than tenfold")
    return problems


def check_pu(report):
    problems = []
    round_systole = report.inputs.get("round_systole")
    if not _finite(round_systole) or not PI * (1.0 - 1e-12) <= round_systole <= 1.02 * PI:
        problems.append(f"round systole {round_systole!r} outside [pi(1 - 1e-12), 1.02 pi]")
    _close(problems, "bump area", report.inputs.get("bump_area"), "bump_area", 5e-3)
    return problems


# ---------------------------------------------------------------------------
# direct calls


def check_quotient_flow(result):
    """`result` has the flow history's energies and the conformality
    defects of the start and final maps of the antipodal-quotient descent."""
    problems = []
    energies = result["energies"]
    _close(problems, "final quotient energy", energies[-1], "flow_quotient", 0.01)
    if any(b > a for a, b in zip(energies, energies[1:])):
        problems.append("the quotient flow history increases")
    before, after = result["defect_before"], result["defect_after"]
    if not (_finite(before) and _finite(after)) or not before >= 10.0 * after:
        problems.append(f"conformality defect {before!r} -> {after!r} shrank less than tenfold")
    return problems


def check_rotated_systole(value):
    problems = []
    _close(problems, "rotated-bump systole", value, "rotated_bump_systole", 0.01)
    return problems


EXPERIMENT_CHECKS = {
    "line-formula": check_line_formula,
    "rp2-family": check_rp2_family,
    "e1-geodesic": check_e1_geodesic,
    "croke": check_croke,
    "holomorphic-corpus": check_holomorphic_corpus,
    "harmonic-diagnostics": check_harmonic_diagnostics,
    "jacobi": check_jacobi,
    "trace-II": check_trace_ii,
    "bounds-identity": check_bounds_identity,
    "squeeze": check_squeeze,
    "theta": check_theta,
    "capped-theta": check_capped_theta,
    "pu": check_pu,
    "flow": check_flow,
}
