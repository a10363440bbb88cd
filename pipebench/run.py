"""Benchmark of the RobustScaler pipeline, one workload per invocation.

    python3 pipebench/run.py --workload crs-lowrate --seed 1 --seconds 50 --trace 0

Runs from the repository root and imports the package from ``src/``.  With
``--trace 0`` it reports the end-to-end metrics of an untraced run; with
``--trace 1`` it reports per-layer counts and time sums from a traced pass.
Each workload does a fixed amount of work (see ``workloads.py``); the seed
only changes the drawn arrivals, and ``--seconds`` does not change the
work.  Output checks run outside the timed regions; a failed check, fit or
replay makes ``correct`` false and the exit code 1.  The last line of
standard output is the JSON result; the line before it, ``pipebench-detail``,
holds sample counts and the environment fingerprint.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
from pathlib import Path

from fingerprint import PINNED_ENVIRONMENT, fingerprint

SRC = Path(__file__).resolve().parent.parent / "src"


def parse_args(argv, workload_names):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workload_names))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument(
        "--seconds",
        type=int,
        default=50,
        help="accepted and ignored: the work per run is fixed",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.seconds < 1:
        parser.error("--seconds must be positive")
    return args


def main(argv=None, workloads=None) -> int:
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no package source at {SRC}", file=sys.stderr)
        return 2
    # One single-threaded process; set before numpy loads.
    os.environ.update(PINNED_ENVIRONMENT)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from measure import Run
    from workloads import WORKLOADS

    workloads = WORKLOADS if workloads is None else workloads
    args = parse_args(argv, workloads)
    run = Run(workloads[args.workload], args.seed, SRC)
    if args.trace:
        run.traced()
    else:
        run.untraced()
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        run.metric("peak_rss_mb", peak_kib / 1024.0, "MB")

    correct = not run.problems and not run.ops.failed
    print(f"pipebench {args.workload} seed={args.seed} trace={args.trace}")
    for name, (value, unit, samples) in run.metrics.items():
        print(f"  {name:<34} {value:>16.6f} {unit:<6} n={samples}")
    for problem in run.problems + run.ops.errors:
        print(f"  FAILED: {problem}")
    detail = dict(run.detail, fingerprint=fingerprint(SRC), errors=run.ops.errors)
    detail["samples"] = {name: samples for name, (_, _, samples) in run.metrics.items()}
    print("pipebench-detail " + json.dumps(detail, sort_keys=True))
    result = {
        "correct": correct,
        "attempted": run.ops.attempted,
        "failed": run.ops.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit, _) in run.metrics.items()
        },
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
