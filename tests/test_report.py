import json
import weakref

import numpy as np
import pytest
import scipy.sparse as sparse
from scipy.sparse.csgraph import dijkstra

from mapenergy import harmonic, report as report_module
from mapenergy.energy import EnergyValue, p_energy
from mapenergy.manifolds import GeometryError, complex_projective, real_projective, sphere
from mapenergy.maps import build_grid
from mapenergy.meshes import antipodal_permutation, icosphere
from mapenergy.rand import make_rng
from mapenergy.constructions import (
    conic_curve,
    line_curve,
    make_capped_theta,
    make_projective_dilation,
)
from mapenergy.report import (
    EXPERIMENTS,
    BoundSpec,
    ExperimentReport,
    UsageError,
    conformal_area_rp2,
    eval_bound,
    run_experiment,
    run_suite,
    systole_rp2,
    write_reports,
)

from traced import traced_peak


# ---------------------------------------------------------------------------
# closed-form bounds


def test_bound_values_match_closed_forms():
    assert eval_bound(BoundSpec("CPN_P", {"N": 2, "p": 2.0, "area": np.pi})) == pytest.approx(np.pi**2, rel=1e-15)
    assert eval_bound(BoundSpec("CPN_P", {"N": 1, "p": 2.0, "area": np.pi})) == pytest.approx(np.pi, rel=1e-15)
    assert eval_bound(BoundSpec("CPN_P", {"N": 2, "p": 4.0, "area": np.pi})) == pytest.approx(4 * np.pi**2, rel=1e-15)
    assert eval_bound(BoundSpec("RPN_P", {"n": 3, "p": 2.0, "length": np.pi})) == pytest.approx(1.5 * np.pi**2, rel=1e-15)
    assert eval_bound(BoundSpec("RPN_P", {"n": 2, "p": 1.0, "length": np.pi})) == pytest.approx(np.sqrt(2) * np.pi, rel=1e-14)


def test_round_metric_sits_on_the_systolic_equality():
    assert eval_bound(BoundSpec("PU", {"area": 2 * np.pi, "systole": np.pi})) == pytest.approx(0.0, abs=1e-14)


def test_quadratic_exponent_agrees_with_the_sharp_infimum():
    for N in (1, 2, 3):
        for area in (0.37, np.pi, 12.0):
            a = eval_bound(BoundSpec("CPN_P", {"N": N, "p": 2.0, "area": area}))
            b = eval_bound(BoundSpec("INFIMUM", {"N": N, "area": area}))
            assert abs(a - b) <= 1e-12 * b


def test_bound_validation_rejects_bad_input():
    for tag, params in (("NO_SUCH_TAG", {}),
                        ("RP3_INTERVAL", {"plane_energy": 2 * np.pi}),
                        ("ELEMENTARY", {"p": 3.0, "n": 2, "vol": 4 * np.pi, "pvol": 2.0})):
        with pytest.raises(GeometryError, match="unknown bound tag"):
            BoundSpec(tag, params)
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
    for N in (None, True, 2.0, 2.5, 0, -1, "2"):
        with pytest.raises(GeometryError, match="integer >= 1"):
            BoundSpec("INFIMUM", {"N": N, "area": np.pi})
        with pytest.raises(GeometryError, match="integer >= 1"):
            BoundSpec("RPN_P", {"n": N, "p": 2.0, "length": np.pi})
    for value in (None, "x", True, float("inf"), float("nan"), 0.0, -1.0):
        with pytest.raises(GeometryError, match="area must be a finite real"):
            BoundSpec("INFIMUM", {"N": 2, "area": value})
        with pytest.raises(GeometryError, match="length must be a finite real"):
            BoundSpec("RPN_P", {"n": 3, "p": 2.0, "length": value})
        with pytest.raises(GeometryError, match="systole must be a finite real"):
            BoundSpec("PU", {"area": np.pi, "systole": value})
    # numpy integers and reals are accepted as their Python values
    assert eval_bound(BoundSpec("INFIMUM", {"N": np.int64(2), "area": np.float64(2.0)})) == \
        eval_bound(BoundSpec("INFIMUM", {"N": 2, "area": 2.0}))
    for p in (float("nan"), float("inf"), None, "3", True):
        with pytest.raises(GeometryError, match="finite real"):
            BoundSpec("CPN_P", {"N": 2, "p": p, "area": np.pi})
        with pytest.raises(GeometryError, match="finite real"):
            BoundSpec("RPN_P", {"n": 3, "p": p, "length": np.pi})


def test_corpus_energies_respect_their_bounds():
    cp1_grid = build_grid(complex_projective(1), 4, "mesh")
    for builder, degree in ((line_curve, 1), (conic_curve, 2)):
        F = builder()
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
        systole_rp2(lambda x: np.ones(3), level=2)  # wrong shape


@pytest.mark.parametrize("estimate", [systole_rp2, conformal_area_rp2])
def test_systole_and_area_reject_weights_with_an_odd_part(estimate):
    # such a weight is no metric on RP^2
    with pytest.raises(GeometryError, match="must be antipodally even"):
        estimate(lambda x: 1.0 + 0.5 * x[..., 0], level=2)


@pytest.mark.parametrize("estimate", [systole_rp2, conformal_area_rp2])
@pytest.mark.parametrize("weight", [
    np.inf,
    float("inf"),
    np.nan,
    lambda x: np.where(np.abs(x[..., 0]) > 0.99, np.inf, 1.0),  # infinite near the poles
])
def test_systole_and_area_reject_weights_that_are_not_finite(estimate, weight):
    with pytest.raises(GeometryError, match="finite and positive"):
        estimate(weight, level=2)


@pytest.mark.parametrize("level", range(6))
def test_systole_graph_is_exactly_antipodally_symmetric(level):
    def nearly_even(x):
        # odd part 1e-12, inside the evenness check's 1e-10
        return 1.0 + 0.5 * x[..., 0] ** 2 + 1e-12 * x[..., 1]

    for weight in (1.0, nearly_even):
        graph, perm = report_module._systole_graph(weight, level)
        permuted = graph[perm][:, perm]
        assert permuted.nnz == graph.nnz
        assert (permuted != graph).nnz == 0


def _full_search_systole(weight, level):
    """The least d(v, -v), by a full-radius search from one vertex of
    every antipodal pair, on the chord graph built here from scratch."""
    mesh = icosphere(level)
    perm = antipodal_permutation(mesh)
    mu = weight(mesh.vertices) if callable(weight) else np.full(len(perm), float(weight))
    pairs, lengths = report_module._chord_graph(mesh)
    root = np.sqrt(mu)
    costs = lengths * 0.5 * (root[pairs[:, 0]] + root[pairs[:, 1]])
    graph = sparse.csr_matrix((costs, (pairs[:, 0], pairs[:, 1])), shape=(len(perm), len(perm)))
    sources = np.flatnonzero(np.arange(len(perm)) < perm)
    dist = dijkstra(graph, directed=False, indices=sources)
    return float(np.min(dist[np.arange(len(sources)), perm[sources]]))


def _bump(x):
    return 1.0 + 0.5 * x[..., 0] ** 2


def test_systole_calls_at_one_level_share_one_kept_chord_graph(monkeypatch):
    mesh = icosphere(2)
    first = systole_rp2(1.0, level=2)
    kept = mesh.derived["chord_graph"]

    def rebuilt(mesh):
        raise AssertionError("the chord graph was built again")

    monkeypatch.setattr(report_module, "_chord_graph", rebuilt)
    assert systole_rp2(1.0, level=2) == first and systole_rp2(_bump, level=2) > first
    assert mesh.derived["chord_graph"] is kept


def _rotated_bump(seed):
    rotation = sphere(2).random_isometry(make_rng(seed))
    return lambda x: 1.0 + 0.5 * (x @ rotation.T)[..., 0] ** 2


@pytest.mark.parametrize("level", range(5))
def test_half_radius_systole_matches_the_full_search(level):
    weights = {
        "round": 1.0,
        "constant 4": 4.0,
        "bump": _bump,
        "quartic": lambda x: 1.0 + x[..., 0] ** 4 + 0.3 * x[..., 1] ** 2,
        **{f"rotated bump {seed}": _rotated_bump(seed) for seed in (0, 1, 2)},
    }
    if level == 4:
        # the default level; each full search there takes about 0.6 s
        weights = {label: weights[label] for label in ("bump", "rotated bump 0")}
    for label, weight in weights.items():
        expected = _full_search_systole(weight, level)
        assert abs(systole_rp2(weight, level=level) - expected) <= 4 * np.spacing(expected), label


def test_systole_search_reaches_half_of_the_best_loop_plus_the_longest_chord(monkeypatch):
    original, calls = report_module.dijkstra, []

    def recorded(graph, indices, limit=np.inf):
        dist = original(graph, indices=indices, limit=limit)
        calls.append((graph, indices, limit, dist))
        return dist

    monkeypatch.setattr(report_module, "dijkstra", recorded)
    perm = antipodal_permutation(icosphere(3))
    systole_rp2(_bump, level=3)
    graph, indices, limit, dist = calls[0]
    longest = np.max(graph.data)
    best = dist[0, perm[indices[0]]]
    assert len(indices) == 1 and limit == np.inf
    for graph, indices, limit, dist in calls[1:]:
        assert limit <= 0.5 * (best + longest) * (1.0 + 1e-12)
        assert len(indices) <= report_module._SOURCE_BATCH
        best = min(best, np.min(dist + dist[:, perm]))
    assert sum(len(indices) for _, indices, _, _ in calls) == len(perm) // 2


def test_warm_systole_search_holds_a_few_source_rows_at_a_time():
    # the chord graph is kept on the mesh after the first call
    systole_rp2(_bump, level=4)
    assert traced_peak(systole_rp2, _bump, level=4) < 4 * 2**20


def test_systole_and_area_take_an_integer_level_of_at_least_zero():
    cached = icosphere.cache_info().currsize
    for level in (-1, 1.5, True, "2", None):
        for estimate in (systole_rp2, conformal_area_rp2):
            with pytest.raises(GeometryError, match="integer resolution >= 0"):
                estimate(1.0, level=level)
    assert icosphere.cache_info().currsize == cached
    assert systole_rp2(1.0, level=np.int64(2)) == systole_rp2(1.0, level=2)
    assert conformal_area_rp2(1.0, level=np.int64(2)) == conformal_area_rp2(1.0, level=2)


def test_bumped_metric_has_positive_systolic_slack():
    area = conformal_area_rp2(_bump, level=4)
    assert area == pytest.approx(2 * np.pi + np.pi / 3, rel=1e-4)
    coarse = systole_rp2(_bump, level=3)
    fine = systole_rp2(_bump, level=4)
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


@pytest.mark.parametrize("p", [None, 1.5], ids=["all-exponents", "p1.5"])
def test_bounds_identity_holds_one_grid_at_a_time(monkeypatch, p):
    original, grids, alive = report_module.build_grid, [], []

    def watched(*args, **kwargs):
        # the earlier grids still alive as the next one is built
        alive.append(sum(ref() is not None for ref in grids))
        grid = original(*args, **kwargs)
        grids.append(weakref.ref(grid))
        return grid

    monkeypatch.setattr(report_module, "build_grid", watched)
    config = {"name": "bounds-identity", "resolution": 20000}
    if p is not None:
        config["p"] = p
    report = run_experiment(config)
    assert report.passed
    assert alive == [0] * (4 if p is None else 2)


def test_trace_ii_computes_each_symmetry_variation_once(monkeypatch):
    calls, original = [], harmonic.second_variation

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(harmonic, "second_variation", counted)
    rep = run_experiment({"name": "trace-II", "resolution": 3})
    assert rep.passed and len(calls) == 3
    # the trace adds its terms left to right onto 0.0, as the code does
    # (the builtin sum is compensated from Python 3.12 on)
    trace = 0.0
    for v in rep.inputs["variations"]:
        trace += v
    assert rep.inputs["trace"] == trace


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
    assert all(r.passed for r in reports)


def _mutate(patch, name, factor):
    """Scale one factor of the named experiment's estimate by `factor`."""
    if name == "bounds-identity":
        cpn = report_module._BOUNDS["CPN_P"]
        patch.setitem(report_module._BOUNDS, "CPN_P", lambda N, p, area: factor * cpn(N, p, area))
    elif name == "theta":
        energy = report_module.p_energy
        patch.setattr(report_module, "p_energy",
                      lambda *args, **kw: EnergyValue(factor * energy(*args, **kw).value))
    else:
        target = {"croke": "croke_density", "rp2-family": "rp2_family_average",
                  "e1-geodesic": "e1_geodesic_bound"}[name]
        original = getattr(report_module, target)
        patch.setattr(report_module, target, lambda *args, **kw: factor * original(*args, **kw))


@pytest.mark.parametrize("name, resolution", [
    ("bounds-identity", 200), ("croke", 90), ("rp2-family", 16), ("e1-geodesic", 64),
    ("theta", 4000),
])
def test_exact_experiments_fail_under_a_small_mutation(monkeypatch, name, resolution):
    # these five are exact up to rounding, so their tolerance is 1e-12 and
    # a relative mutation of 1e-3 or of 1e-9 must fail the report
    record = {"name": name, "resolution": resolution}
    assert run_experiment(record).passed
    for factor in (1.001, 1.0 + 1e-9):
        with monkeypatch.context() as patch:
            _mutate(patch, name, factor)
            report = run_experiment(record)
        assert "error" not in report.inputs, report.inputs["error"]
        assert not report.passed, (name, factor, report.estimate)


def test_squeeze_fails_when_the_restricted_energy_leaves_pi(monkeypatch):
    # the restriction to the reference line is that line's identity, energy pi
    record = {"name": "squeeze", "resolution": 20000}
    assert run_experiment(record).passed
    squeeze_limit = report_module.squeeze_limit

    def mutated(*args, **kw):
        energies, restricted = squeeze_limit(*args, **kw)
        return energies, restricted * (1.0 + 1e-9)

    monkeypatch.setattr(report_module, "squeeze_limit", mutated)
    report = run_experiment(record)
    assert not report.passed
    assert "restricted energy" in report.inputs["error"]


def test_holomorphic_corpus_passes_on_seeds_0_to_59():
    failed = [seed for seed in range(60)
              if not run_experiment({"name": "holomorphic-corpus", "seed": seed}).passed]
    assert failed == []


# the fast experiments that read tangent frames.  capped-theta reads them too
# but is left out: its Monte Carlo estimate of 2 pi^2 misses the 2% tolerance
# on seeds 1, 3, 6, 7 and 9 whatever the frames (a zonal rule is to mend it)
FRAME_EXPERIMENTS = ["bounds-identity", "croke", "theta", "jacobi", "trace-II",
                     "harmonic-diagnostics", "holomorphic-corpus", "rp2-family", "e1-geodesic"]


@pytest.mark.parametrize("name", FRAME_EXPERIMENTS)
def test_frame_experiments_pass_on_seeds_0_to_9(name):
    failed = {seed: report.estimate for seed in range(10)
              if not (report := run_experiment({"name": name, "seed": seed})).passed}
    assert failed == {}


def test_report_files_roundtrip_with_a_csv_twin(tmp_path):
    reports = run_suite([
        {"name": "croke", "resolution": 150},
        {"name": "bounds-identity", "resolution": 400, "p": 0.5},
    ])
    target = tmp_path / "reports.json"
    write_reports(reports, target)
    assert json.loads(target.read_text()) == [r.to_dict() for r in reports]
    twin = tmp_path / "reports.csv"
    lines = twin.read_text().strip().splitlines()
    assert lines[0].startswith("name,passed,estimate")
    assert len(lines) == 3
    assert lines[1].startswith("croke,True")
    assert lines[2].startswith("bounds-identity,False")
    with pytest.raises(UsageError):
        write_reports(reports, tmp_path / "other.csv")
    assert sorted(f.name for f in tmp_path.iterdir()) == ["reports.csv", "reports.json"]
