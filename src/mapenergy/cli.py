"""Command-line front end: verification runs, catalog listing, flows.

Subcommands:

``verify <experiment>``  run one named experiment (or ``all``) and print
                         the report; ``--out X.json`` also writes the
                         JSON array there and its CSV twin to ``X.csv``.
                         Exit status is zero exactly when every report
                         passed.
``corpus list``          print the catalog of map keys, curve builders,
                         and experiment names.
``flow``                 run the discrete energy descent demo on a bent
                         sphere map and write its iteration log.
"""

from __future__ import annotations

import argparse
import json
import sys

from .constructions import MAP_CATALOG, perturbed_identity
from .flow import conformality_defect, flow_minimize, sample_map, write_flow_log
from .manifolds import GeometryError, sphere
from .report import EXPERIMENTS, UsageError, run_suite, write_reports

_CURVES = ("line", "conic", "veronese", "random")


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="mapenergy",
        description="energy checks for maps between spheres and projective spaces",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser("verify", help="run a named experiment")
    verify.add_argument("experiment",
                        help="experiment name, or 'all' for the full suite")
    verify.add_argument("--seed", type=int, default=None)
    verify.add_argument("--resolution", type=int, default=None)
    verify.add_argument("--p", type=float, default=None, help="exponent (bounds-identity only)")
    verify.add_argument("--out", default=None,
                        help="write the JSON report array to this .json file "
                             "and its CSV twin beside it")
    verify.add_argument("--config", default=None,
                        help="JSON file mapping experiment names to records")

    corpus = sub.add_parser("corpus", help="inspect the built-in catalog")
    corpus.add_argument("action", choices=["list"])

    flow = sub.add_parser("flow", help="discrete energy descent demo")
    flow.add_argument("--mesh-level", type=int, default=4)
    flow.add_argument("--steps", type=int, default=2000)
    flow.add_argument("--seed", type=int, default=0)
    flow.add_argument("--out", default="flow_log.csv")
    return parser


def _load_config(path):
    if path is None:
        return {}
    with open(path) as fh:
        table = json.load(fh)
    if not isinstance(table, dict):
        raise UsageError("the config file must map experiment names to records")
    for name, record in table.items():
        if name not in EXPERIMENTS:
            raise UsageError(f"the config file names unknown experiment {name!r}; known names: "
                             + ", ".join(sorted(EXPERIMENTS)))
        if not isinstance(record, dict):
            raise UsageError(f"the config record of {name!r} must be a JSON object, got {record!r}")
        if "name" in record:
            raise UsageError(f"the config record of {name!r} may not set 'name'; "
                             "its key names the experiment")
    return table


def _verify(args):
    if args.out is not None and not args.out.endswith(".json"):
        raise UsageError(f"--out must name a .json file, got {args.out!r}")
    table = _load_config(args.config)
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.resolution is not None:
        overrides["resolution"] = args.resolution
    if args.p is not None:
        overrides["p"] = args.p
    if args.experiment == "all":
        names = sorted(EXPERIMENTS)
    else:
        names = [args.experiment]
    configs = [{"name": n, **table.get(n, {}), **overrides} for n in names]
    reports = run_suite(configs)
    for report in reports:
        state = "pass" if report.passed else "FAIL"
        print(f"{report.name}: {state}  estimate={report.estimate:.9g}  "
              f"reference={report.reference:.9g}  "
              f"tolerance={report.tolerance:g} ({report.tolerance_kind})  "
              f"[{report.wall_time:.2f}s]")
        if "error" in report.inputs:
            print(f"  error: {report.inputs['error']}")
    if args.out:
        write_reports(reports, args.out)
        print(f"wrote {args.out}")
    return 0 if all(r.passed for r in reports) else 1


def _corpus_list(_args):
    for title, keys in (("maps", MAP_CATALOG), ("curves", _CURVES),
                        ("experiments", sorted(EXPERIMENTS))):
        print(f"{title}:")
        for key in keys:
            print(f"  {key}")
    return 0


def _flow(args):
    if args.steps < 1:
        raise UsageError(f"--steps must be an integer >= 1, got {args.steps}")
    if args.seed < 0:
        raise UsageError(f"--seed must be an integer >= 0, got {args.seed}")
    bent = perturbed_identity(sphere(2), magnitude=0.2, seed=args.seed)
    try:
        start = sample_map(bent, args.mesh_level)
    except GeometryError as exc:
        raise UsageError(f"--mesh-level: {exc}") from None
    before = conformality_defect(start)
    final, history = flow_minimize(start, step=0.25, iters=args.steps,
                                   grad_tol=2e-4)
    after = conformality_defect(final)
    write_flow_log(history, args.out)
    print(f"iterations: {len(history) - 1}")
    print(f"energy: {history[0]['energy']:.6f} -> {history[-1]['energy']:.6f}")
    print(f"conformality defect: {before:.6f} -> {after:.6f}")
    print(f"wrote {args.out}")
    return 0


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "verify":
            return _verify(args)
        if args.command == "corpus":
            return _corpus_list(args)
        return _flow(args)
    except UsageError as exc:
        parser.error(str(exc))


if __name__ == "__main__":
    sys.exit(main())
