"""Benchmark of mapenergy: checked experiment runs, timed from outside.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of restricted-families, large-grids, mesh-flow,
systole-graph, or "all" to run every workload in turn in this process.
One caller runs one operation after another (a closed loop) in whole
rounds until S seconds have passed, and checks every output against
closed forms and properties (checks.py).

--trace 0 prints the end-to-end metrics: run_s, the median wall time of
a round; setup_s, the median over fresh processes of the time to import
mapenergy and build the workload's inputs (each process is forked with
numpy and scipy already imported, so their import time stays out);
peak_rss_mb, this process's peak resident set.
--trace 1 alternates untraced and traced rounds, prints the per-layer
metrics and writes the spans to perfbench/out/.

Every metric is printed as "<workload> <metric> <value> <unit>", and the
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  BLAS runs on one thread.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

WORKLOAD_NAMES = ("restricted-families", "large-grids", "mesh-flow", "systole-graph")

# Fresh processes timed per run for setup_s; the median is reported.
SETUP_PROBES = 15

# Third-party modules mapenergy imports, loaded before the set-up clock.
THIRD_PARTY = ("numpy", "scipy", "scipy.special", "scipy.sparse",
               "scipy.sparse.csgraph", "scipy.spatial")


def _fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


# ---------------------------------------------------------------------------
# set-up time in fresh processes


def _add_paths():
    """Put this checkout's src/ and the benchmark first on sys.path."""
    if not (SRC / "mapenergy" / "__init__.py").is_file():
        _fail(f"no mapenergy sources under {SRC}; run from a checkout of the repository")
    sys.path[:0] = [str(SRC), str(BENCH)]


def _import_workloads():
    """Import the benchmark's workloads against this checkout's src/."""
    import mapenergy
    if Path(mapenergy.__file__).resolve().parent != SRC / "mapenergy":
        _fail(f"imported mapenergy from {mapenergy.__file__}, not from {SRC}")
    import workloads
    return workloads


def _probe_child(name, seed, fd):
    start = time.perf_counter()
    workloads = _import_workloads()
    workloads.setup(workloads.WORKLOADS[name], seed)
    os.write(fd, repr(time.perf_counter() - start).encode())


def measure_setup(name, seed):
    """Median set-up seconds over SETUP_PROBES forked processes.

    Each child starts with numpy and scipy imported and mapenergy not
    imported, times the import of mapenergy and the building of the
    workload's inputs, and exits.  Must run before this process imports
    mapenergy.
    """
    if "mapenergy" in sys.modules:
        raise RuntimeError("set-up probes must run before mapenergy is imported")
    for module in THIRD_PARTY:
        importlib.import_module(module)
    samples = []
    for _ in range(SETUP_PROBES):
        read_fd, write_fd = os.pipe()
        pid = os.fork()
        if pid == 0:
            code = 1
            try:
                os.close(read_fd)
                _probe_child(name, seed, write_fd)
                code = 0
            except BaseException:  # noqa: BLE001 - report and leave the child
                traceback.print_exc()
            finally:
                os._exit(code)
        os.close(write_fd)
        with os.fdopen(read_fd, "rb") as fh:
            data = fh.read()
        _, status = os.waitpid(pid, 0)
        if os.waitstatus_to_exitcode(status) != 0 or not data:
            _fail("a set-up probe failed", code=3)
        samples.append(float(data))
    return statistics.median(samples)


# ---------------------------------------------------------------------------
# rounds of operations


class Tally:
    """Operations attempted, failed, and outputs that checked wrong."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.fingerprints = {}

    def run_round(self, operations, tracer=None):
        """Run every operation once; returns the round's wall seconds."""
        start = time.perf_counter()
        for index, op in enumerate(operations):
            self.attempted += 1
            if tracer is not None:
                tracer.operation = f"{index}:{op.label}"
                with tracer.span("bench.operation"):
                    ok = self._run_one(index, op)
            else:
                ok = self._run_one(index, op)
            if not ok:
                self.failed += 1
        return time.perf_counter() - start

    def _run_one(self, index, op):
        try:
            output = op.call()
        except Exception:  # noqa: BLE001 - a failing call is a failed operation
            print(f"operation {op.label} raised:\n{traceback.format_exc()}", file=sys.stderr)
            return False
        failure = op.program_failure(output)
        if failure is not None:
            print(f"operation {op.label} failed: {failure}", file=sys.stderr)
            return False
        problems = op.check(output)
        fingerprint = op.fingerprint(output)
        first = self.fingerprints.setdefault(index, fingerprint)
        if first != fingerprint:
            problems.append("output differs from the first round's with the same inputs")
        if problems:
            self.correct = False
            print(f"operation {op.label} returned a wrong result: {problems}", file=sys.stderr)
            return False
        return True


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _minor_faults():
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def run_untraced(workloads, name, seed, seconds, setup_s):
    operations = workloads.setup(workloads.WORKLOADS[name], seed)
    tally = Tally()
    rounds = []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        rounds.append(tally.run_round(operations))
    metrics = {
        "run_s": (statistics.median(rounds), "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (_peak_rss_mb(), "MiB"),
    }
    print(f"{name}: {len(rounds)} rounds of {len(operations)} operations, seconds "
          + " ".join(f"{t:.4f}" for t in rounds), file=sys.stderr)
    return tally, metrics


def run_traced(workloads, name, seed, seconds):
    import layers
    import tracing
    import mapenergy.meshes as meshes

    # set-up, traced from empty mesh caches
    meshes.icosphere.cache_clear()
    setup_tracer = tracing.Tracer()
    with setup_tracer:
        operations = workloads.setup(workloads.WORKLOADS[name], seed)
    icosphere_builds = meshes.icosphere.cache_info().misses

    tally = Tally()
    tracer = tracing.Tracer()
    untraced, traced, faults, round_counts = [], [], [], []
    first_spans = None
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        before = _minor_faults()
        untraced.append(tally.run_round(operations))
        faults.append(_minor_faults() - before)
        with tracer:
            traced.append(tally.run_round(operations, tracer))
        round_counts.append(dict(tracer.counts))
        tracer.counts.clear()
        if first_spans is None:
            first_spans = tracer.records()
    if any(counts != round_counts[0] for counts in round_counts):
        tally.correct = False
        print("traced rounds with the same inputs gave different counts", file=sys.stderr)

    metrics, derived = layers.per_layer_metrics(
        setup_tracer, tracer, round_counts[0], traced, untraced, faults, icosphere_builds)
    OUT.mkdir(exist_ok=True)
    path = OUT / f"trace-{name}-seed{seed}.json"
    with open(path, "w") as fh:
        json.dump({"workload": name, "seed": seed, "traced_rounds": len(traced),
                   "counts_per_round": round_counts[0], "derived": derived,
                   "self_times": layers.self_time_table(tracer, len(traced)),
                   "setup_spans": setup_tracer.records(),
                   "first_round_spans": first_spans}, fh, indent=1)
    for key, value in sorted(derived.items()):
        print(f"{name} {key} {value:.6g}", file=sys.stderr)
    print(f"{name}: {len(traced)} traced rounds, spans in {path}", file=sys.stderr)
    return tally, metrics


def main(argv=None):
    args = _parse(argv)
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    _add_paths()
    setup_s = {} if args.trace else {name: measure_setup(name, args.seed) for name in names}
    workloads = _import_workloads()
    attempted = failed = 0
    correct = True
    result = {}
    for name in names:
        if args.trace:
            tally, metrics = run_traced(workloads, name, args.seed, args.seconds)
        else:
            tally, metrics = run_untraced(workloads, name, args.seed, args.seconds, setup_s[name])
        attempted += tally.attempted
        failed += tally.failed
        correct = correct and tally.correct
        for metric, (value, unit) in metrics.items():
            print(f"{name} {metric} {value!r} {unit}")
            key = metric if len(names) == 1 else f"{name}.{metric}"
            result[key] = {"value": value, "unit": unit}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
