import json

import numpy as np
import pytest

from mapenergy import harmonic, report as report_module
from mapenergy.energy import elementary_bound, p_energy
from mapenergy.manifolds import GeometryError, complex_projective, real_projective
from mapenergy.maps import build_grid
from mapenergy.constructions import (
    conic_curve,
    line_curve,
    make_capped_theta,
    make_projective_dilation,
    make_rational_curve,
)
from mapenergy.report import (
    EXPERIMENTS,
    BoundSpec,
    ExperimentReport,
    UsageError,
    all_passed,
    conformal_area_rp2,
    eval_bound,
    read_reports,
    run_experiment,
    run_suite,
    systole_rp2,
    write_reports,
)


# ---------------------------------------------------------------------------
# closed-form bounds


def test_bound_values_match_closed_forms():
    assert eval_bound(BoundSpec("CPN_P", {"N": 2, "p": 2.0, "area": np.pi})) == pytest.approx(np.pi**2, rel=1e-15)
    assert eval_bound(BoundSpec("CPN_P", {"N": 1, "p": 2.0, "area": np.pi})) == pytest.approx(np.pi, rel=1e-15)
    assert eval_bound(BoundSpec("CPN_P", {"N": 2, "p": 4.0, "area": np.pi})) == pytest.approx(4 * np.pi**2, rel=1e-15)
    assert eval_bound(BoundSpec("RPN_P", {"n": 3, "p": 2.0, "length": np.pi})) == pytest.approx(1.5 * np.pi**2, rel=1e-15)
    assert eval_bound(BoundSpec("RPN_P", {"n": 2, "p": 1.0, "length": np.pi})) == pytest.approx(np.sqrt(2) * np.pi, rel=1e-14)
    lo, hi = eval_bound(BoundSpec("RP3_INTERVAL", {"plane_energy": 2 * np.pi}))
    assert lo == pytest.approx(1.5 * np.pi**2, rel=1e-15)
    assert hi == pytest.approx(2 * np.pi**2, rel=1e-15)


def test_round_metric_sits_on_the_systolic_equality():
    assert eval_bound(BoundSpec("PU", {"area": 2 * np.pi, "systole": np.pi})) == pytest.approx(0.0, abs=1e-14)


def test_elementary_tag_delegates():
    spec = BoundSpec("ELEMENTARY", {"p": 3.0, "n": 2, "vol": 4 * np.pi, "pvol": 2.0})
    assert eval_bound(spec) == elementary_bound(3.0, 2, 4 * np.pi, 2.0)


def test_quadratic_exponent_agrees_with_the_sharp_infimum():
    for N in (1, 2, 3):
        for area in (0.37, np.pi, 12.0):
            a = eval_bound(BoundSpec("CPN_P", {"N": N, "p": 2.0, "area": area}))
            b = eval_bound(BoundSpec("INFIMUM", {"N": N, "area": area}))
            assert abs(a - b) <= 1e-12 * b


def test_bound_validation_rejects_bad_input():
    with pytest.raises(GeometryError):
        BoundSpec("NO_SUCH_TAG", {})
    with pytest.raises(GeometryError):
        BoundSpec("CPN_P", {"N": 2, "p": 2.0})  # missing area
    with pytest.raises(GeometryError):
        BoundSpec("CPN_P", {"N": 2, "p": 2.0, "area": np.pi, "extra": 1.0})
    with pytest.raises(GeometryError):
        BoundSpec("CPN_P", {"N": 2, "p": 1.5, "area": np.pi})
    with pytest.raises(GeometryError):
        BoundSpec("RPN_P", {"n": 3, "p": 0.5, "length": np.pi})
    with pytest.raises(GeometryError):
        BoundSpec("RPN_P", {"n": 3, "p": 2.0, "length": -1.0})
    with pytest.raises(GeometryError):
        BoundSpec("INFIMUM", {"N": 2.5, "area": np.pi})
    with pytest.raises(GeometryError):
        BoundSpec("ELEMENTARY", {"p": 1.0, "n": 2, "vol": 1.0, "pvol": 1.0})


def test_strictness_flag_marks_the_unattainable_range():
    assert not BoundSpec("CPN_P", {"N": 2, "p": 2.0, "area": np.pi}).strict
    assert BoundSpec("CPN_P", {"N": 2, "p": 3.0, "area": np.pi}).strict
    assert not BoundSpec("RPN_P", {"n": 3, "p": 4.0, "length": np.pi}).strict


def test_corpus_energies_respect_their_bounds():
    cp1_grid = build_grid(complex_projective(1), 4, "mesh")
    for builder, degree in ((line_curve, 1), (conic_curve, 2)):
        F = make_rational_curve(builder())
        energy = p_energy(F, cp1_grid, p=2.0).value
        bound = eval_bound(BoundSpec("CPN_P", {"N": 1, "p": 2.0, "area": degree * np.pi}))
        assert energy >= bound - 1e-2 * bound
    grid = build_grid(complex_projective(2), 20000, "monte_carlo", seed=2)
    for lam in (1.0, 4.0):
        energy = p_energy(make_projective_dilation(2, lam), grid, p=2.0).value
        bound = eval_bound(BoundSpec("CPN_P", {"N": 2, "p": 2.0, "area": np.pi}))
        assert energy >= bound - 3e-2 * bound
    rp3_grid = build_grid(real_projective(3), 20000, "monte_carlo", seed=3)
    lower = eval_bound(BoundSpec("RPN_P", {"n": 3, "p": 2.0, "length": np.pi}))
    for t in (2.0, 8.0):
        energy = p_energy(make_capped_theta(t), rp3_grid, p=2.0).value
        assert energy >= lower - 1e-2 * lower


# ---------------------------------------------------------------------------
# systole of conformal metrics on RP^2


def test_round_systole_is_half_a_great_circle():
    value = systole_rp2(1.0, level=3)
    assert abs(value - np.pi) / np.pi < 0.02
    refined = systole_rp2(1.0, level=4)
    assert abs(refined - np.pi) / np.pi < 0.02
    assert abs(refined - value) < 0.02 * np.pi


def test_systole_scales_like_the_metric():
    base = systole_rp2(1.0, level=3)
    scaled = systole_rp2(4.0, level=3)
    assert scaled == pytest.approx(2.0 * base, rel=1e-12)
    assert abs(scaled - 2 * np.pi) / (2 * np.pi) < 0.02


def test_systole_rejects_bad_weights():
    with pytest.raises(GeometryError):
        systole_rp2(lambda x: x[..., 0], level=2)  # signed weight
    with pytest.raises(GeometryError):
        systole_rp2(lambda x: 1.0 + 0.5 * x[..., 0], level=2)  # odd part
    with pytest.raises(GeometryError):
        systole_rp2(lambda x: np.ones(3), level=2)  # wrong shape


def test_bumped_metric_has_positive_systolic_slack():
    def bump(x):
        return 1.0 + 0.5 * x[..., 0] ** 2

    area = conformal_area_rp2(bump, level=4)
    assert area == pytest.approx(2 * np.pi + np.pi / 3, rel=1e-4)
    coarse = systole_rp2(bump, level=3)
    fine = systole_rp2(bump, level=4)
    slack = eval_bound(BoundSpec("PU", {"area": area, "systole": fine}))
    drift = abs(fine - coarse)
    assert slack == pytest.approx(np.pi / 3, rel=0.05)
    assert slack > 3 * drift


def test_conformal_area_matches_the_round_hemisphere():
    assert conformal_area_rp2(1.0, level=3) == pytest.approx(2 * np.pi, rel=1e-6)


# ---------------------------------------------------------------------------
# report records


def test_report_pass_flag_follows_the_declared_tolerance():
    r = ExperimentReport.build("demo", {}, 1.01, 1.0, 0.02, "relative", 0.0)
    assert r.passed and r.rel_error == pytest.approx(0.01)
    r = ExperimentReport.build("demo", {}, 1.03, 1.0, 0.02, "relative", 0.0)
    assert not r.passed
    r = ExperimentReport.build("demo", {}, 0.5, 0.0, 0.6, "absolute", 0.0)
    assert r.passed and np.isinf(r.rel_error)
    r = ExperimentReport.build("demo", {}, float("nan"), 1.0, 10.0, "absolute", 0.0)
    assert not r.passed
    with pytest.raises(GeometryError):
        ExperimentReport.build("demo", {}, 1.0, 1.0, 0.1, "sideways", 0.0)


def test_unknown_experiment_and_parameters_are_usage_errors():
    with pytest.raises(UsageError):
        run_experiment({"name": "does-not-exist"})
    with pytest.raises(UsageError):
        run_experiment({})
    with pytest.raises(UsageError):
        run_experiment({"name": "croke", "limbs": 4})
    for bad in ({"seed": -1}, {"seed": 1.7}, {"seed": None}, {"seed": True},
                {"resolution": 0}, {"resolution": -5}, {"resolution": 2.5}):
        with pytest.raises(UsageError):
            run_experiment({"name": "croke", **bad})
    # p is accepted only by experiments that read it, and only as a finite real
    for bad in ({"name": "croke", "p": 3}, {"name": "theta", "p": -3},
                {"name": "bounds-identity", "p": "x"}, {"name": "bounds-identity", "p": True},
                {"name": "bounds-identity", "p": float("nan")},
                {"name": "bounds-identity", "p": float("inf")}):
        with pytest.raises(UsageError):
            run_experiment(bad)


def test_constituent_failure_yields_a_failed_report():
    # p = 0.5 is outside the real bound's validity range, so the
    # pipeline fails internally; that must surface as a failed report.
    report = run_experiment({"name": "bounds-identity", "resolution": 500, "p": 0.5})
    assert not report.passed
    assert np.isnan(report.estimate)
    assert "error" in report.inputs
    assert report.inputs["nodes"] == 500 and report.inputs["seed"] == 0


def test_bounds_identity_checks_the_bounds_that_hold_for_a_given_p():
    # the RP^n bounds hold for p >= 1, the CP^N bounds only for p >= 2
    low = run_experiment({"name": "bounds-identity", "resolution": 2000, "p": 1.5})
    assert low.passed and low.inputs["checked"] == ["rp2-p1.5", "rp3-p1.5"]
    high = run_experiment({"name": "bounds-identity", "resolution": 2000, "p": 2.5})
    assert high.passed
    assert high.inputs["checked"] == ["cp1-p2.5", "cp2-p2.5", "rp2-p2.5", "rp3-p2.5"]


def test_trace_ii_computes_each_symmetry_variation_once(monkeypatch):
    calls = []
    for module in (report_module, harmonic):
        original = module.second_variation

        def counted(*args, original=original, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(module, "second_variation", counted)
    rep = run_experiment({"name": "trace-II", "resolution": 3})
    assert rep.passed and len(calls) == 3
    assert rep.inputs["trace"] == sum(rep.inputs["variations"])


def test_programming_errors_propagate(monkeypatch):
    def broken(seed, pairs):
        raise TypeError("a bug, not a failed check")

    monkeypatch.setitem(EXPERIMENTS, "croke", EXPERIMENTS["croke"]._replace(run=broken))
    with pytest.raises(TypeError):
        run_experiment({"name": "croke"})


def test_reports_are_deterministic_given_the_seed():
    config = {"name": "theta", "resolution": 2000, "seed": 11}
    first = run_experiment(config).to_dict()
    second = run_experiment(config).to_dict()
    first.pop("wall_time")
    second.pop("wall_time")
    assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)


def test_registry_covers_the_published_names():
    assert set(EXPERIMENTS) == {
        "croke", "line-formula", "rp2-family", "bounds-identity", "squeeze",
        "theta", "capped-theta", "holomorphic-corpus", "harmonic-diagnostics",
        "jacobi", "trace-II", "pu", "flow", "e1-geodesic",
    }


def test_cheap_experiments_pass_at_reduced_resolution():
    reports = run_suite([
        {"name": "croke", "resolution": 200},
        {"name": "e1-geodesic", "resolution": 64},
        {"name": "rp2-family", "resolution": 16},
        {"name": "theta", "resolution": 4000},
    ])
    for report in reports:
        assert report.passed, (report.name, report.inputs.get("error"))
    assert all_passed(reports)


def test_suite_accepts_name_to_record_maps():
    reports = run_suite({"croke": {"resolution": 120}, "e1-geodesic": None})
    assert [r.name for r in reports] == ["croke", "e1-geodesic"]
    assert all_passed(reports)


def test_report_files_roundtrip_with_a_csv_twin(tmp_path):
    reports = run_suite([
        {"name": "croke", "resolution": 150},
        {"name": "bounds-identity", "resolution": 400, "p": 0.5},
    ])
    target = tmp_path / "reports.json"
    write_reports(reports, target)
    back = read_reports(target)
    assert len(back) == 2
    for a, b in zip(reports, back):
        assert a.name == b.name
        assert a.passed == b.passed
        assert a.inputs == b.inputs
        if np.isnan(a.estimate):
            assert np.isnan(b.estimate)
        else:
            assert a.estimate == b.estimate
    twin = tmp_path / "reports.csv"
    lines = twin.read_text().strip().splitlines()
    assert lines[0].startswith("name,passed,estimate")
    assert len(lines) == 3
    assert lines[1].startswith("croke,True")
    assert lines[2].startswith("bounds-identity,False")
