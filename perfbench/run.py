"""Paper-schedule benchmark of the distributed RWBC simulator.

Run from the repository root (no install needed, the program is imported
from ``src/``)::

    python3 perfbench/run.py --workload paper-er --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with telemetry off;
``--trace 1`` runs the same inputs again, untraced and traced in pairs, and
reports the per-layer metrics.  The last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``; failed checks and
raised runs are listed on standard error.  Workloads and metrics are
described in ``perfbench/LAYERS.md``.
"""

from time import perf_counter

_PROCESS_START = perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Set-up is timed in this process and in this many fresh processes more;
#: ``setup_s`` is the median, since a cold import can be timed only once
#: per process.
SETUP_PROBES = 2


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-only", action="store_true",
        help="time the set-up only and print it (used for the set-up probes)",
    )
    return parser.parse_args(argv)


def set_up(workload: str, seed: int):
    """Import the program and generate the inputs; returns the module, the
    workload spec, its instances and the benchmark's set-up spans."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"error: the program's sources are missing ({SRC / 'repro'})")
    sys.path.insert(0, str(SRC))
    start = perf_counter()
    import bench

    spans = {"import_s": perf_counter() - start}
    spec = bench.WORKLOADS.get(workload)
    if spec is None:
        sys.exit(f"error: unknown workload {workload!r}; choose from {sorted(bench.WORKLOADS)}")
    start = perf_counter()
    instances = bench.build_instances(spec, seed)
    spans["graphs.build_s"] = perf_counter() - start
    spans["setup_s"] = perf_counter() - _PROCESS_START
    return bench, spec, instances, spans


def probe_setup(workload: str, seed: int) -> float:
    """Set-up time of a fresh process (cold import)."""
    completed = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-only",
         "--workload", workload, "--seed", str(seed)],
        capture_output=True, text=True, timeout=120, check=True, cwd=ROOT,
    )
    return float(completed.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    args = parse_args(argv)
    bench, spec, instances, spans = set_up(args.workload, args.seed)
    if args.setup_only:
        print(repr(spans["setup_s"]))
        return 0

    if args.trace == 0:
        setups = [spans["setup_s"]]
        setups += [probe_setup(args.workload, args.seed) for _ in range(SETUP_PROBES)]
        run = bench.measure(spec, instances, args.seconds)
        metrics = dict(run["metrics"])
        metrics["setup_s"] = statistics.median(setups)
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        units = bench.END_TO_END
    else:
        run = bench.measure_layers(spec, instances, args.seconds)
        metrics = dict(run["metrics"])
        metrics["import_s"] = spans["import_s"]
        metrics["graphs.build_s"] = spans["graphs.build_s"]
        metrics["fail_rate"] = run["tally"].failed / run["tally"].attempted
        units = bench.PER_LAYER
    tally = run["tally"]

    for failure in tally.failures:
        print("failure:", json.dumps(failure), file=sys.stderr)
    print(f"workload {args.workload}: {spec.family} n={spec.n} x {spec.instances} "
          f"instances, faults={spec.faults}, seed={args.seed}, passes={run['passes']}")
    values = {}
    for name, unit in units.items():
        value = metrics.get(name)
        if value is not None and not math.isfinite(value):
            value = None
        values[name] = {"value": value, "unit": unit}
        print(f"  {name:<36} {value!r:>24} {unit}")
    complete = all(entry["value"] is not None for entry in values.values())
    print(json.dumps({
        "correct": tally.failed == 0 and complete,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": values,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
