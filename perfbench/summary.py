"""Run the benchmark over several seeds and print every end-to-end metric of
each workload by name, with unit, median, quartiles, spread and run count.

Usage, from the root of a modinv checkout:

    python3 perfbench/summary.py [--workload NAME ...] [--seeds 1-10] [--trace 0|1]

Workloads, run length and bounds come from BENCHMARK.json. The spread is the
distance between the first and third quartile as a share of the median; it
should stay below a third of the metric's bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def parse_seeds(spec: str) -> list[int]:
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """(median, q1, q3, (q3 - q1) / median)."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def main() -> int:
    config = json.loads(Path("BENCHMARK.json").read_text())
    names = [w["name"] for w in config["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append", choices=names)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    metrics = config["per_layer"] if args.trace else config["end_to_end"]
    for workload in args.workload or names:
        runs = []
        for seed in parse_seeds(args.seeds):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed",
                   str(seed), "--seconds", str(config["run_seconds"]), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, check=True)
            result = json.loads(proc.stdout.splitlines()[-1])
            print(f"  {workload} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()
            ), file=sys.stderr, flush=True)
            runs.append(result)
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        print(f"{workload} ({len(runs)} runs)")
        for m in metrics:
            values = [r["metrics"][m["name"]]["value"] for r in runs if m["name"] in r["metrics"]]
            if not values:
                print(f"  {m['name']}: no value")
                continue
            med, q1, q3, s = spread(values)
            bound = f" (bound {m['bound']})" if "bound" in m else ""
            print(f"  {m['name']}: median {med:.6g} {m['unit']}, q1 {q1:.6g}, q3 {q3:.6g}, "
                  f"spread {s:.4f}{bound}, n={len(values)}")
        print(f"  op_fail_ratio: {failed}/{attempted} = {failed / attempted:.6g} "
              f"(base: operations attempted over {len(runs)} runs)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
