"""Per-layer metrics of a traced run, named "<layer>.<function>.<what>".

Counts are per round and repeat exactly between runs with the same
inputs.  Times are reported as a function's self time in percent of the
traced rounds' wall time: the most a round can gain from making that
function free, and a number that exists on every workload, including
those that never call the function (0 %).  Seconds per call, per node
or per iteration go to the trace file as derived figures.
"""

import statistics

LAYERS = ("meshes", "flow", "maps", "energy", "intgeo", "harmonic", "report")

COUNTS = [
    "meshes.cotangent_weights.calls",
    "meshes.vertex_areas.calls",
    "meshes.antipodal_permutation.calls",
    "flow.MeshMap.calls",
    "flow.trial_steps",
    "flow.iterations",
    "maps.grid_frames.calls",
    "maps.grid_frames.nodes",
    "maps.differential_columns.analytic_calls",
    "maps.differential_columns.fd_calls",
    "maps.differential_columns.analytic_nodes",
    "maps.differential_columns.fd_nodes",
    "maps.build_grid.calls",
    "energy.p_energy.calls",
    "energy.p_energy.nodes",
    "energy.curve_length.calls",
    "intgeo.restricted_energies",
    "harmonic.tension.calls",
    "harmonic.second_variation.calls",
    "harmonic.jacobi_identity_check.calls",
    "report.run_experiment.calls",
    "report.systole_rp2.calls",
    "report.dijkstra.calls",
    "report.dijkstra.sources",
]

# self time in percent of the traced rounds; each entry sums these spans
SHARES = {
    "meshes.cotangent_weights.self_pct": ("meshes.cotangent_weights",),
    "meshes.vertex_areas.self_pct": ("meshes.vertex_areas",),
    "meshes.antipodal_permutation.self_pct": ("meshes.antipodal_permutation",),
    "flow.MeshMap.self_pct": ("flow.MeshMap",),
    "flow.discrete_energy.self_pct": ("flow.discrete_energy",),
    "flow.discrete_tension.self_pct": ("flow.discrete_tension",),
    "flow.conformality_defect.self_pct": ("flow.conformality_defect",),
    "maps.grid_frames.self_pct": ("maps.grid_frames",),
    "maps.differential_columns.self_pct": ("maps.differential_columns",),
    "maps.build_grid.self_pct": ("maps.build_grid",),
    "energy.p_energy.self_pct": ("energy.p_energy",),
    "energy.curve_length.self_pct": ("energy.curve_length",),
    "intgeo.samplers.self_pct": ("intgeo.sample_lines", "intgeo.sample_geodesics",
                                 "intgeo.sample_rp2_planes"),
    "harmonic.tension.self_pct": ("harmonic.tension",),
    "harmonic.second_variation.self_pct": ("harmonic.second_variation",),
    "harmonic.jacobi_identity_check.self_pct": ("harmonic.jacobi_identity_check",),
    "report.systole_rp2.self_pct": ("report.systole_rp2",),
    "report.dijkstra.self_pct": ("report.dijkstra",),
    "report.run_experiment.self_pct": ("report.run_experiment",),
}


def metric_units():
    """Every per-layer metric name with its unit, in report order."""
    units = {name: "count" for name in COUNTS}
    units["flow.accepted_per_trial"] = "ratio"
    units.update({name: "%" for name in SHARES})
    units.update({f"layer.{layer}.self_pct": "%" for layer in LAYERS})
    units.update({
        "meshes.icosphere.builds": "count",
        "meshes.icosphere.build_s": "s",
        "process.minor_faults": "faults",
        "trace.round_s": "s",
        "trace.untraced_round_s": "s",
        "trace.overhead_pct": "%",
    })
    return units


def self_time_table(tracer, rounds):
    """Per span name: calls per round, total and self seconds per round."""
    calls = {}
    for _, _, name, _, _, _ in tracer.spans:
        calls[name] = calls.get(name, 0) + 1
    return {
        name: {"calls": calls[name] / rounds, "total_s": total / rounds,
               "self_s": own / rounds}
        for name, (total, own) in sorted(tracer.self_times().items())
    }


def per_layer_metrics(setup_tracer, tracer, counts, traced, untraced, faults,
                      icosphere_builds):
    """Per-layer metrics and derived per-unit figures of a traced run.

    `counts` are one traced round's counts, `traced` and `untraced` the
    wall seconds of the traced and untraced rounds, `faults` the minor
    page faults of each untraced round.
    """
    times = tracer.self_times()
    wall = sum(traced)

    def own(*names):
        return sum(times.get(name, (0.0, 0.0))[1] for name in names)

    def total(*names):
        return sum(times.get(name, (0.0, 0.0))[0] for name in names)

    values = {name: counts.get(name, 0) for name in COUNTS}
    trials = counts.get("flow.trial_steps", 0)
    values["flow.accepted_per_trial"] = counts.get("flow.iterations", 0) / trials if trials else 0.0
    for metric, names in SHARES.items():
        values[metric] = 100.0 * own(*names) / wall
    for layer in LAYERS:
        names = [name for name in times if name.startswith(layer + ".")]
        values[f"layer.{layer}.self_pct"] = 100.0 * own(*names) / wall
    values["meshes.icosphere.builds"] = icosphere_builds
    values["meshes.icosphere.build_s"] = setup_tracer.self_times().get(
        "meshes.icosphere", (0.0, 0.0))[0]
    values["process.minor_faults"] = statistics.median(faults)
    values["trace.round_s"] = statistics.median(traced)
    values["trace.untraced_round_s"] = statistics.median(untraced)
    values["trace.overhead_pct"] = 100.0 * (values["trace.round_s"]
                                            / values["trace.untraced_round_s"] - 1.0)
    units = metric_units()
    metrics = {name: (values[name], unit) for name, unit in units.items()}

    rounds = len(traced)
    derived = {}
    nodes = counts.get("energy.p_energy.nodes", 0)
    if nodes:
        derived["energy.p_energy.ns_per_node"] = 1e9 * total("energy.p_energy") / rounds / nodes
    restricted = counts.get("intgeo.restricted_energies", 0)
    if restricted:
        families = ("intgeo.line_energy_average", "intgeo.line_energy_spread",
                    "intgeo.rp2_family_average")
        derived["intgeo.ms_per_restricted_energy"] = 1e3 * total(*families) / rounds / restricted
    iterations = counts.get("flow.iterations", 0)
    if iterations:
        derived["flow.ms_per_iteration"] = 1e3 * total("flow.flow_minimize") / rounds / iterations
    for name, (span_total, span_own) in sorted(times.items()):
        derived[f"{name}.self_ms_per_round"] = 1e3 * span_own / rounds
    return metrics, derived
