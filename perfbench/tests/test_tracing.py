"""Traced counts are exact, and the tracer leaves mapenergy as it found it."""

import sys

import pytest

import mapenergy.energy as energy
import mapenergy.flow as flow
import mapenergy.intgeo as intgeo
import mapenergy.meshes as meshes
import mapenergy.report as report
from mapenergy.constructions import perturbed_identity
from mapenergy.manifolds import sphere

import layers
import run
import tracing
import workloads


def _mapenergy_bindings():
    return {(key, attr): value
            for key, module in sys.modules.items()
            if key.startswith("mapenergy") and module is not None
            for attr, value in vars(module).items() if callable(value)}


def test_names_are_wrapped_where_they_are_looked_up_and_restored():
    before = _mapenergy_bindings()
    post_init = flow.MeshMap.__dict__["__post_init__"]
    with tracing.Tracer():
        for module in (energy, intgeo, report):
            assert module.p_energy.__wrapped__ is before[(module.__name__, "p_energy")]
        assert report.dijkstra.__wrapped__ is before[("mapenergy.report", "dijkstra")]
        assert flow.vertex_areas is meshes.vertex_areas
        assert flow.MeshMap.__post_init__.__wrapped__ is post_init
    assert _mapenergy_bindings() == before
    assert flow.MeshMap.__dict__["__post_init__"] is post_init


def test_self_time_subtracts_direct_children():
    tracer = tracing.Tracer()
    tracer.spans = [(0, None, "a", 0.0, 10.0, None), (1, 0, "b", 1.0, 4.0, None),
                    (2, 1, "c", 2.0, 3.0, None), (3, 0, "b", 5.0, 6.0, None)]
    times = tracer.self_times()
    assert times["a"] == pytest.approx((10.0, 6.0))
    assert times["b"] == pytest.approx((4.0, 3.0))
    assert times["c"] == pytest.approx((1.0, 1.0))


def test_restricted_energies_are_twice_the_lines_of_line_formula():
    lines = 7
    with tracing.Tracer() as tracer:
        rep = report.run_experiment({"name": "line-formula", "seed": 3, "resolution": lines})
    assert rep.passed
    assert tracer.counts["intgeo.restricted_energies"] == 2 * lines
    assert tracer.counts["energy.p_energy.calls"] == 2 * lines
    assert tracer.counts["intgeo.line_energy_average.calls"] == 2
    assert tracer.counts["intgeo.sample_lines.calls"] == 2


def test_dijkstra_sources_are_half_the_vertices_per_systole():
    with tracing.Tracer() as tracer:
        report.systole_rp2(1.0, level=2)
    assert tracer.counts["report.systole_rp2.calls"] == 1
    assert tracer.counts["report.dijkstra.sources"] == len(meshes.icosphere(2).vertices) // 2

    with tracing.Tracer() as tracer:
        rep = report.run_experiment({"name": "pu", "seed": 0, "resolution": 2})
    assert rep.passed
    # pu runs the systole at its level twice and at the next level once
    half = [len(meshes.icosphere(level).vertices) // 2 for level in (2, 2, 3)]
    assert tracer.counts["report.systole_rp2.calls"] == 3
    assert tracer.counts["report.dijkstra.sources"] == sum(half)


def test_flow_counts_iterations_and_trial_steps():
    start = flow.sample_map(perturbed_identity(sphere(2), 0.2, seed=1), 2)
    with tracing.Tracer() as tracer:
        _, history = flow.flow_minimize(start, iters=12)
    counts = tracer.counts
    assert counts["flow.iterations"] == len(history) - 1 == 12
    # one energy of the start, then one per trial step
    assert counts["flow.trial_steps"] == counts["flow.discrete_energy.calls"] - 1
    assert counts["flow.trial_steps"] == counts["flow.MeshMap.calls"]
    assert counts["flow.trial_steps"] >= counts["flow.iterations"]
    assert counts["meshes.cotangent_weights.calls"] == counts["flow.MeshMap.calls"]


def _traced_counts(name):
    ops = workloads.setup(workloads.WORKLOADS[name], 5, tiny=True)
    tally = run.Tally()
    with tracing.Tracer() as tracer:
        tally.run_round(ops, tracer)
    assert tally.correct
    return dict(tracer.counts), tracer


@pytest.mark.parametrize("name", ["restricted-families", "systole-graph"])
def test_two_traced_rounds_give_identical_counts(name):
    first, tracer = _traced_counts(name)
    second, _ = _traced_counts(name)
    assert first == second
    assert first["bench.operation.calls"] == len(workloads.WORKLOADS[name].build(5, workloads.WORKLOADS[name].tiny))
    metrics, _ = layers.per_layer_metrics(tracer, tracer, first, [1.0], [1.0], [10], 2)
    assert set(metrics) == set(layers.metric_units())
