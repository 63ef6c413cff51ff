"""Every check passes on correct outputs and fails on a wrong estimate or
a wrong reference."""

import copy
import math
from types import SimpleNamespace

import pytest

import checks
import workloads

PI = math.pi


def report(estimate=0.0, reference=0.0, **inputs):
    return SimpleNamespace(estimate=estimate, reference=reference, inputs=inputs, passed=True)


def good_outputs():
    """Correct outputs of every check, built from the closed forms."""
    curves = {label: {"energy": d * PI, "area": d * PI, "pluriharmonic": 1e-6,
                      "hermitian": 0.0, "tension": 1e-6}
              for label, d in (("line", 1), ("conic", 2), ("cubic", 3))}
    bounds = {f"cp{N}-p{p:g}": checks.cp_identity_energy(N, p)
              for N, p in checks.CP_IDENTITY_CASES}
    bounds.update({f"rp{n}-p{p:g}": checks.rp_identity_energy(n, p)
                   for n, p in checks.RP_IDENTITY_CASES})
    return {
        "line-formula": report(1e-5, averages={"identity": PI**2, "dilation-4": PI**2 * 1.001},
                               mass=PI**2 / 2),
        "rp2-family": report(1e-15, average=1.5 * PI**2, mass=0.75 * PI),
        "e1-geodesic": report(PI**2 / 2 * math.sqrt(3), PI**2 / 2 * math.sqrt(3)),
        "croke": report(1e-15),
        "holomorphic-corpus": report(0.1, curves=curves),
        "harmonic-diagnostics": report(
            1e-5, corpus={f"map{k}": {"tension": 1e-9} for k in range(6)},
            perturbed_tension=0.18),
        "jacobi": report(2.5e-5, sides={f"generator-{k}": {"stencil": -1.6e-7, "index_form": 0.0}
                                        for k in range(2)}),
        "trace-II": report(1e-7, energy=PI, variations=[-1e-7] * 3, trace=-3e-7),
        "bounds-identity": (report(1e-15, checked=checks.identity_labels()), bounds),
        "squeeze": report(9.8886, PI**2, lambdas=[1.0, 2.0, 4.0, 8.0, 16.0],
                          energies=[9.902, 9.887, 9.882, 9.885, 9.889],
                          stderrs=[0.002, 0.014, 0.025, 0.035, 0.043],
                          restricted_energy=PI),
        "theta": report(3 * PI**2, 3 * PI**2, energies=[3 * PI**2, 26.4, 19.0, 11.7]),
        "capped-theta": report(19.71, 2 * PI**2, energies={"8": 19.18, "16": 19.445}),
        "pu": report(3e-13, round_systole=PI * (1 + 1e-15), bump_area=2 * PI + PI / 3),
        "flow": report(4 * PI * 0.997, 4 * PI, defect_before=0.05, defect_after=3e-4),
        "quotient": {"energies": [6.5, 6.4, 2 * PI * 0.997], "defect_before": 0.05,
                     "defect_after": 2e-4},
        "systole": PI * 1.003,
    }


CHECKS = dict(checks.EXPERIMENT_CHECKS, quotient=checks.check_quotient_flow,
              systole=checks.check_rotated_systole)


def _set(path, value):
    """Mutation replacing the entry at `path` of an output."""
    def mutate(out):
        target = out
        for key in path[:-1]:
            target = target[key] if isinstance(target, (dict, list, tuple)) else getattr(target, key)
        if isinstance(target, (dict, list)):
            target[path[-1]] = value
        else:
            setattr(target, path[-1], value)
    return mutate


# (check, mutation giving a wrong estimate)
WRONG_ESTIMATES = [
    ("line-formula", _set(("inputs", "averages", "dilation-4"), PI**2 * 1.02)),
    ("line-formula", _set(("estimate",), 0.02)),
    ("rp2-family", _set(("inputs", "average"), 1.5 * PI**2 * 0.98)),
    ("e1-geodesic", _set(("estimate",), PI**2 / 2 * math.sqrt(3) * 1.02)),
    ("croke", _set(("estimate",), 1e-5)),
    ("croke", _set(("estimate",), float("nan"))),
    ("holomorphic-corpus", _set(("inputs", "curves", "conic", "area"), 2 * PI * 1.01)),
    ("holomorphic-corpus", _set(("inputs", "curves", "cubic", "tension"), 2e-3)),
    ("harmonic-diagnostics", _set(("inputs", "corpus", "map3", "tension"), 2e-3)),
    ("harmonic-diagnostics", _set(("inputs", "perturbed_tension"), 1e-3)),
    ("jacobi", _set(("inputs", "sides", "generator-1", "index_form"), -5e-4)),
    ("trace-II", _set(("inputs", "energy"), PI * 1.01)),
    ("trace-II", _set(("inputs", "trace"), -4e-3)),
    ("bounds-identity", _set((0, "estimate"), 6e-3)),
    ("squeeze", _set(("inputs", "energies", 2), PI**2 - 0.1)),
    ("squeeze", _set(("inputs", "energies", 4), 9.5)),
    ("theta", _set(("inputs", "energies", 0), 3 * PI**2 * 1.01)),
    ("theta", _set(("inputs", "energies", 3), 27.0)),
    ("capped-theta", _set(("inputs", "energies", "16"), 19.0)),
    ("pu", _set(("inputs", "round_systole"), PI * (1 - 1e-9))),
    ("pu", _set(("inputs", "round_systole"), 1.03 * PI)),
    ("pu", _set(("inputs", "bump_area"), (2 * PI + PI / 3) * 1.01)),
    ("flow", _set(("estimate",), 4 * PI * 1.02)),
    ("flow", _set(("inputs", "defect_after"), 0.01)),
    ("quotient", _set(("energies", 2), 2 * PI * 0.98)),
    ("quotient", _set(("energies", 1), 6.6)),
    ("quotient", _set(("defect_after",), 0.01)),
]


# (check, mutation giving a wrong reference inside the program's output)
WRONG_PROGRAM_REFERENCES = [
    ("e1-geodesic", _set(("reference",), PI**2)),
    ("bounds-identity", _set((1, "cp2-p3"), checks.cp_identity_energy(2, 3) * 1.001)),
    ("bounds-identity", _set((1, "rp3-p1"), checks.rp_identity_energy(3, 2))),
    ("theta", _set(("reference",), 2 * PI**2)),
    ("capped-theta", _set(("reference",), 3 * PI**2)),
    ("flow", _set(("reference",), 2 * PI)),
    ("line-formula", _set(("inputs", "mass"), PI**2)),
    ("rp2-family", _set(("inputs", "mass"), PI)),
]

# (check, REFERENCES key the check depends on)
BENCHMARK_REFERENCES = [
    ("line-formula", "line_average"),
    ("rp2-family", "plane_average"),
    ("e1-geodesic", "e1_geodesic"),
    ("trace-II", "cp1_identity_energy"),
    ("squeeze", "squeeze_infimum"),
    ("theta", "theta_start"),
    ("capped-theta", "capped_theta_limit"),
    ("pu", "bump_area"),
    ("flow", "flow_sphere"),
    ("quotient", "flow_quotient"),
    ("systole", "rotated_bump_systole"),
]


@pytest.mark.parametrize("name", sorted(CHECKS))
def test_correct_outputs_pass(name):
    assert CHECKS[name](good_outputs()[name]) == []


@pytest.mark.parametrize("name, mutate", WRONG_ESTIMATES + WRONG_PROGRAM_REFERENCES)
def test_wrong_output_fails(name, mutate):
    out = copy.deepcopy(good_outputs()[name])
    mutate(out)
    assert CHECKS[name](out)


def test_wrong_systole_fails():
    assert checks.check_rotated_systole(PI * 1.02)
    assert checks.check_rotated_systole(float("inf"))


@pytest.mark.parametrize("name, key", BENCHMARK_REFERENCES)
def test_wrong_benchmark_reference_fails(name, key, monkeypatch):
    if key == "squeeze_infimum":
        shifted = checks.REFERENCES[key] + 0.2
    else:
        shifted = checks.REFERENCES[key] * 1.03
    monkeypatch.setitem(checks.REFERENCES, key, shifted)
    assert CHECKS[name](good_outputs()[name])


def test_every_experiment_has_a_check_and_at_most_one_workload():
    seen = []
    for workload in workloads.WORKLOADS.values():
        seen += [op.label for op in workload.build(0, workload.tiny)]
    named = [label for label in seen if label in checks.EXPERIMENT_CHECKS]
    assert sorted(named + ["capped-theta"]) == sorted(checks.EXPERIMENT_CHECKS)
    assert len(checks.EXPERIMENT_CHECKS) == 14


def test_closed_forms():
    assert checks.sphere_volume(2) == pytest.approx(4 * PI, rel=1e-15)
    assert checks.sphere_volume(3) == pytest.approx(2 * PI**2, rel=1e-15)
    assert checks.cp_identity_energy(2, 2.0) == pytest.approx(PI**2, rel=1e-15)
    assert checks.rp_identity_energy(3, 2.0) == pytest.approx(1.5 * PI**2, rel=1e-15)
    assert checks.rp_identity_energy(3, 1.0) == pytest.approx(checks.REFERENCES["e1_geodesic"],
                                                             rel=1e-15)
