"""Spread of the end-to-end metrics over seeds or over repeats of one seed.

    python3 pipebench/steadiness.py --workload crs-lowrate --seeds 1-10
    python3 pipebench/steadiness.py --workload crs-lowrate --seeds 3 --repeat 5

Runs ``run.py --trace 0`` once per seed (``--repeat`` times each), one run at
a time, and prints per metric the median, the quartiles of
``statistics.quantiles(values, n=4)`` and their distance as a share of the
median.  Runs whose environment fingerprints differ are never pooled: the
tool stops instead.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds += range(int(low), int(high or low) + 1)
    return seeds


def run_once(workload: str, seed: int) -> tuple[dict, dict]:
    command = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed)]
    command += ["--seconds", "50", "--trace", "0"]
    completed = subprocess.run(command, capture_output=True, text=True, timeout=900)
    lines = completed.stdout.strip().splitlines()
    if completed.returncode != 0 or not lines:
        raise SystemExit(f"seed {seed} failed:\n{completed.stdout}\n{completed.stderr}")
    detail = next(
        json.loads(line.split(" ", 1)[1])
        for line in lines
        if line.startswith("pipebench-detail ")
    )
    return json.loads(lines[-1]), detail


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """``(median, q1, q3, (q3 - q1) / median)``."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median if median else float("inf")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 1,4,7")
    parser.add_argument("--repeat", type=int, default=1, help="runs per seed")
    args = parser.parse_args(argv)

    values: dict[str, list[float]] = {}
    units: dict[str, str] = {}
    digest = None
    for seed in parse_seeds(args.seeds):
        for _ in range(args.repeat):
            result, detail = run_once(args.workload, seed)
            if digest not in (None, detail["fingerprint"]["digest"]):
                raise SystemExit("fingerprints differ between runs; not pooling them")
            digest = detail["fingerprint"]["digest"]
            if not result["correct"]:
                raise SystemExit(f"seed {seed}: incorrect output")
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
                units[name] = metric["unit"]
            shown = {k: round(v["value"], 4) for k, v in result["metrics"].items()}
            replayed = detail.get("replayed_queries")
            print(f"seed {seed} period_bins={detail['period_bins']} replayed={replayed} "
                  f"{json.dumps(shown)}")
            sys.stdout.flush()

    print(f"{args.workload} fingerprint {digest}")
    print(f"  {'metric':<34} {'median':>12} {'q1':>12} {'q3':>12} {'iqr/median':>10}")
    for name, series in values.items():
        if len(series) < 2:
            continue
        median, q1, q3, share = spread(series)
        print(f"  {name:<34} {median:>12.6g} {q1:>12.6g} {q3:>12.6g} {share:>10.3f} {units[name]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
