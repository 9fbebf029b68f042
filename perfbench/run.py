"""modinv benchmark: time to a complete, exactly verified classification.

Usage, from the root of a modinv checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

A closed loop with one client: the operations of the workload run one after
another in a fresh worker interpreter per pass (cold caches, own memory), and
passes repeat until S seconds have been measured. Every output is checked
against the reference results before it counts.

--trace 0 reports the end-to-end metrics: solve_s (median pass time),
setup_s (median time for a fresh interpreter to import modinv.cli), both in
reference seconds (see speed.py), peak_rss_mb (median worker peak RSS) and
op_success_ratio. --trace 1 runs one untraced and one traced pass and
reports the per-layer metrics of tracer.PER_LAYER. The last line of stdout
is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
from pathlib import Path
from time import perf_counter

TIME_LIMIT_S = 170  # every run must end within 180 s


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = perf_counter() + TIME_LIMIT_S

    root = Path.cwd().resolve()
    if not (root / "src" / "modinv" / "__init__.py").is_file():
        print("perfbench: src/modinv not found; run from the root of a modinv checkout",
              file=sys.stderr)
        return 2
    # The program is imported from this checkout's source tree, never from an
    # installed copy; the worker checks the same.
    sys.path.insert(0, str(root / "src"))
    from bench import Bench, timed_run, traced_run
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        ap.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    workdir = root / ".perfbench_work"
    workdir.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=workdir))
    try:
        bench = Bench(root, WORKLOADS[args.workload], args.seed, tmp)
        if args.trace:
            metrics, lines, passes = traced_run(bench, deadline)
        else:
            metrics, lines, passes = timed_run(bench, args.seconds, deadline)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            workdir.rmdir()
        except OSError:
            pass  # another run still uses it
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    for p in passes:
        for reason in p["reasons"]:
            print(f"FAILED {reason}", file=sys.stderr)
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    for line in lines:
        print(line)
    print(json.dumps({
        "correct": failed == 0 and bool(metrics),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
