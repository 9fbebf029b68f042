"""Benchmark passes: input generation, worker processes, output checks and
the statistics reported by run.py."""

from __future__ import annotations

import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

from oracle import check_output, load_reference
from speed import SETUP_BASELINE, SETUP_BASELINE_S
from tracer import PER_LAYER
from workloads import op_id, operations, write_inputs

HERE = Path(__file__).resolve().parent
SETUP_LAUNCHES = 5


def describe(name: str, values: list[float], unit: str) -> str:
    if len(values) > 1:
        q1, med, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = med = q3 = values[0]
    return f"{name}: median {med:.6g} {unit} (q1 {q1:.6g}, q3 {q3:.6g}, n={len(values)})"


def _launch(cmd: list[str], env: dict, timeout: float = 60) -> float:
    """Wall seconds until cmd exits. A blocking wait, with a timer thread to
    kill a hung child: Popen.wait(timeout) polls in steps of up to 50 ms."""
    t0 = perf_counter()
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.DEVNULL)
    killer = threading.Timer(timeout, proc.kill)
    killer.start()
    try:
        rc = proc.wait()
    finally:
        killer.cancel()
    wall = perf_counter() - t0
    if rc != 0:
        raise subprocess.CalledProcessError(rc, cmd)
    return wall


class WorkerFailed(RuntimeError):
    """A worker pass that crashed or ran out of time."""


class Bench:
    """One benchmark run: generated inputs, worker passes and their checks."""

    def __init__(self, root: Path, workload, seed: int, tmp: Path):
        self.tmp = tmp
        self.src = root / "src"
        self.ops = operations(workload)
        self.rings = write_inputs(workload, seed, tmp)
        self.micro_ring = max(self.rings, key=lambda k: self.rings[k]["conductor"])
        self.env = dict(os.environ)
        self.env.pop("MODINV_NODE_BUDGET", None)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(self.src), os.environ.get("PYTHONPATH")) if p
        )
        self.passes = 0

    def measure_setup(self) -> tuple[list[float], list[float]]:
        """Reference and wall seconds for a fresh interpreter to import
        modinv.cli, one pair per launch; each launch follows one of the
        speed.SETUP_BASELINE interpreter."""
        cmd = [sys.executable, "-c", "import modinv.cli"]
        baseline = [sys.executable, "-c", SETUP_BASELINE]
        _launch(cmd, self.env)  # writes bytecode caches
        _launch(baseline, self.env)
        reference, wall = [], []
        for _ in range(SETUP_LAUNCHES):
            base = _launch(baseline, self.env)
            wall.append(_launch(cmd, self.env))
            reference.append(wall[-1] / base * SETUP_BASELINE_S)
        return reference, wall

    def spawn(self, trace: bool, timeout: float) -> tuple[Path, dict]:
        """Run one pass in a fresh worker; returns its output directory and
        result, or raises WorkerFailed."""
        self.passes += 1
        pdir = self.tmp / f"pass{self.passes}"
        pdir.mkdir()
        plan = {
            "src": str(self.src),
            "trace": trace,
            "micro_ring": str(self.tmp / f"{self.micro_ring}.json"),
            "result": str(pdir / "result.json"),
            "ops": [
                {
                    "command": command,
                    "ring": str(self.tmp / f"{key}.json"),
                    "flags": list(flags),
                    "out": str(pdir / f"{i}.out"),
                }
                for i, (command, key, flags) in enumerate(self.ops)
            ],
        }
        (pdir / "plan.json").write_text(json.dumps(plan))
        cmd = [sys.executable, str(HERE / "worker.py"), str(pdir / "plan.json")]
        try:
            proc = subprocess.run(
                cmd, env=self.env, capture_output=True, text=True, timeout=max(timeout, 1)
            )
        except subprocess.TimeoutExpired:
            raise WorkerFailed(f"worker killed after {timeout:.0f} s")
        if proc.returncode:
            raise WorkerFailed(f"worker exit status {proc.returncode}: {proc.stderr[-2000:]}")
        return pdir, json.loads((pdir / "result.json").read_text())

    def run_pass(self, trace: bool, timeout: float) -> dict:
        """One checked pass: every operation whose exit status or output is
        wrong counts as failed."""
        out = {"attempted": len(self.ops), "failed": 0, "reasons": []}
        try:
            pdir, result = self.spawn(trace, timeout)
        except WorkerFailed as exc:
            out["failed"] = len(self.ops)
            out["reasons"].append(str(exc))
            return out
        reference = load_reference()
        for i, (op, res) in enumerate(zip(self.ops, result["ops"])):
            if res["rc"] != 0:
                reason = f"exit status {res['rc']}: {res['stderr']}"
            else:
                text = (pdir / f"{i}.out").read_text()
                perm = self.rings[op[1]]["perm"]
                reason = check_output(op[0], text, perm, reference.get(op_id(op)))
            if reason is not None:
                out["failed"] += 1
                out["reasons"].append(f"{op_id(op)}: {reason}")
        out["wall_s"] = sum(res["seconds"] for res in result["ops"])
        out["speed"] = result["speed"]
        out["solve_s"] = out["wall_s"] * out["speed"]
        out["peak_rss_mb"] = result["peak_rss_mb"]
        out["layers"] = result.get("layers")
        shutil.rmtree(pdir)
        return out


def timed_run(bench: Bench, seconds: float, deadline: float) -> tuple[dict, list[str], list[dict]]:
    setup, setup_wall = bench.measure_setup()
    passes: list[dict] = []
    t0 = perf_counter()
    while True:
        start = perf_counter()
        passes.append(bench.run_pass(False, deadline - start))
        last = perf_counter() - start
        if perf_counter() - t0 >= seconds or perf_counter() + 1.5 * last > deadline:
            break
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    metrics = {
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
        "op_success_ratio": {"value": (attempted - failed) / attempted, "unit": "ratio"},
    }
    lines = [describe("setup_s", setup, "reference s"), describe("  wall time", setup_wall, "s")]
    ok = [p for p in passes if "solve_s" in p]
    if ok:  # no timing at all when every pass failed
        solve = [p["solve_s"] for p in ok]
        rss = [p["peak_rss_mb"] for p in ok]
        metrics["solve_s"] = {"value": statistics.median(solve), "unit": "s"}
        metrics["peak_rss_mb"] = {"value": statistics.median(rss), "unit": "MB"}
        lines += [
            describe("solve_s", solve, "reference s"),
            describe("  wall time", [p["wall_s"] for p in ok], "s"),
            describe("  relative speed", [p["speed"] for p in ok], ""),
            describe("peak_rss_mb", rss, "MB"),
        ]
    lines.append(
        f"op_fail_ratio: {failed}/{attempted} = {failed / attempted:.6g} "
        f"(base: {len(bench.ops)} operations x {len(passes)} passes)"
    )
    return metrics, lines, passes


def traced_run(bench: Bench, deadline: float) -> tuple[dict, list[str], list[dict]]:
    plain = bench.run_pass(False, deadline - perf_counter())
    traced = bench.run_pass(True, deadline - perf_counter())
    passes = [plain, traced]
    if traced.get("layers") is None or "solve_s" not in plain:
        return {}, ["traced run did not complete"], passes
    layers = dict(traced["layers"])
    layers["bench.trace_overhead_ratio"] = traced["solve_s"] / plain["solve_s"]
    layers["bench.wall_solve_s"] = plain["wall_s"]
    layers["bench.relative_speed"] = plain["speed"]
    metrics = {name: {"value": layers[name], "unit": unit} for name, unit in PER_LAYER}
    lines = [f"{name}: {m['value']:.6g} {m['unit']}" if isinstance(m["value"], float)
             else f"{name}: {m['value']} {m['unit']}" for name, m in metrics.items()]
    lines.append(
        f"(untraced solve_s {plain['solve_s']:.6g} reference s, traced {traced['solve_s']:.6g}; "
        f"micro-benchmarks at conductor {bench.rings[bench.micro_ring]['conductor']}, "
        f"ring {bench.micro_ring})"
    )
    return metrics, lines, passes
