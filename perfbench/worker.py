"""One benchmark pass in a fresh interpreter.

Usage: python perfbench/worker.py PLAN.json

The plan lists the operations to run one after another: `check` and
`classify` go through `modinv.cli.main` in this process with stdout
captured; `library` runs the README sequence load_ring ->
compute_modular_data -> commutant_basis -> enumerate_invariants ->
classify_all. Each operation's output is written to the file the plan names
and checked by the parent, so the checking costs this process neither time
nor memory. A speed.Sampler runs throughout, so the result carries the
machine's relative speed over the pass. With tracing on, the per-layer trace
and the cyclotomic micro-benchmarks are added to the result.
"""

from __future__ import annotations

import io
import json
import resource
import statistics
import sys
import traceback
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

import modinv
import modinv.cli
import modinv.cyclo
import modinv.ringfile

from speed import Sampler, relative_speed
from tracer import Tracer


def _cli(command: str, ring: str, flags: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            rc = modinv.cli.main([command, ring, *flags])
        except SystemExit as exc:  # argparse usage errors
            rc = exc.code if isinstance(exc.code, int) else 2
    return rc, out.getvalue(), err.getvalue()


def _library(ring_path: str):
    # Attribute lookups at call time, so the tracer's wrappers are seen.
    ring = modinv.ringfile.load_ring(ring_path)
    md = modinv.compute_modular_data(ring)
    basis = modinv.commutant_basis(md, modinv.twist_sparsity(ring))
    pool = modinv.enumerate_invariants(md, basis)
    return pool, modinv.classify_all(md, pool)


def run_op(op: dict, tracer, sampler: Sampler) -> dict:
    command = op["command"]
    region = tracer.span(f"cli.{command}") if tracer and command != "library" else nullcontext()
    rc, text, err = None, "", ""
    sampling = sampler.spent
    t0 = perf_counter()
    try:
        with region:
            if command == "library":
                pool, classes = _library(op["ring"])
            else:
                rc, text, err = _cli(command, op["ring"], op["flags"])
    except Exception:
        err = traceback.format_exc()
    seconds = perf_counter() - t0 - (sampler.spent - sampling)
    if command == "library" and not err:
        rc = 0
        text = json.dumps(
            {
                "pool_size": len(pool),
                "classifications": [{"matrix": c.Z.Z, "kind": c.kind} for c in classes],
            }
        )
    Path(op["out"]).write_text(text)
    return {"seconds": seconds, "rc": rc, "stderr": err[-2000:]}


def _per_op_us(fn, args: list[tuple], seconds: float) -> float:
    """Median over three repeats of the mean time per call, in µs."""
    samples = []
    for _ in range(3):
        count = 0
        t0 = perf_counter()
        while True:
            for a in args:
                fn(*a)
            count += len(args)
            elapsed = perf_counter() - t0
            if elapsed >= seconds:
                break
        samples.append(elapsed / count * 1e6)
    return statistics.median(samples)


def microbench(ring_path: str, seconds: float = 0.1) -> dict[str, float]:
    """Time *, +, conjugate and divide on entries of the ring's own Y
    matrix. Operands are the first distinct nonzero entries in the order of
    their serialization, which does not depend on the labelling."""
    md = modinv.compute_modular_data(modinv.ringfile.load_ring(ring_path))
    entries = {json.dumps(v.to_json()): v for row in md.Y for v in row if not v.is_zero()}
    operands = [entries[k] for k in sorted(entries)][:8]
    divisors = [v for v in operands if v.rational_value() is None] or operands
    pairs = list(zip(operands, operands[1:] + operands[:1]))
    by_divisor = [(a, divisors[i % len(divisors)]) for i, a in enumerate(operands)]
    return {
        "cyclo.mul_us": _per_op_us(lambda a, b: a * b, pairs, seconds),
        "cyclo.add_us": _per_op_us(lambda a, b: a + b, pairs, seconds),
        "cyclo.conjugate_us": _per_op_us(lambda a: a.conjugate(), [(a,) for a in operands], seconds),
        "cyclo.divide_us": _per_op_us(modinv.cyclo.divide, by_divisor, seconds),
    }


def main(plan_path: str) -> int:
    plan = json.loads(Path(plan_path).read_text())
    if not Path(modinv.__file__).resolve().is_relative_to(Path(plan["src"]).resolve()):
        print(f"modinv imported from {modinv.__file__}, not {plan['src']}", file=sys.stderr)
        return 2
    tracer = Tracer() if plan["trace"] else None
    with Sampler() as sampler, tracer.installed() if tracer else nullcontext():
        ops = [run_op(op, tracer, sampler) for op in plan["ops"]]
    result = {
        "ops": ops,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "speed": relative_speed(sampler.samples),
    }
    if tracer:
        result["layers"] = tracer.layer_metrics()
        result["layers"].update(microbench(plan["micro_ring"]))
    Path(plan["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
