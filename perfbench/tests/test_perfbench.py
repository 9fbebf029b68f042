"""Tests of the benchmark itself: input generator, oracle, tracer and speed
sampler.

Run from the repository root: python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
PERFBENCH = ROOT / "perfbench"
sys.path[:0] = [str(PERFBENCH), str(ROOT / "src")]

import modinv.cli  # noqa: E402
import modinv.fusion  # noqa: E402
import pytest  # noqa: E402
import speed  # noqa: E402
import tracer  # noqa: E402
from bench import Bench  # noqa: E402
from modinv.ringfile import ring_from_json, ring_to_json  # noqa: E402
from oracle import check_output, load_reference  # noqa: E402
from tracer import Tracer  # noqa: E402
from worker import _cli  # noqa: E402
from workloads import (  # noqa: E402
    IDENTITY_SEED,
    WORKLOADS,
    Workload,
    label_permutation,
    relabel,
)

SPECS = {s.key: s for w in WORKLOADS.values() for s in w.rings}


def shuffled_seed(key: str, n: int) -> int:
    return next(s for s in range(1, 100) if label_permutation(s, key, n) != list(range(n)))


@pytest.mark.parametrize("key", ["so16_level1", "su2_level6", "cyclic4_zero"])
def test_relabel_round_trip_reproduces_reference(key, tmp_path):
    ring = SPECS[key].build()
    data = ring_to_json(ring)
    reference = load_reference()[f"classify {key}"]
    for seed in (IDENTITY_SEED, shuffled_seed(key, ring.size)):
        perm = label_permutation(seed, key, ring.size)
        moved = relabel(data, perm)
        assert modinv.fusion.validate(ring_from_json(moved)) == []
        inverse = sorted(range(len(perm)), key=perm.__getitem__)
        assert relabel(moved, inverse) == {**data, "fusion": sorted(data["fusion"])}
        path = tmp_path / f"{key}-{seed}.json"
        path.write_text(json.dumps(moved, indent=2, sort_keys=True))
        rc, out, _err = _cli("classify", str(path), [])
        assert rc == 0
        assert check_output("classify", out, perm, reference) is None
        # A wrong permutation must be caught.
        if seed != IDENTITY_SEED:
            assert check_output("classify", out, list(range(len(perm))), reference) is not None


def test_tracing_leaves_classify_output_unchanged(tmp_path):
    path = tmp_path / "ring.json"
    path.write_text(json.dumps(ring_to_json(SPECS["so16_level1"].build())))
    plain = _cli("classify", str(path), [])
    validate = modinv.cli.validate
    t = Tracer()
    with t.installed():
        assert modinv.cli.validate is not validate
        with t.span("cli.classify"):
            traced = _cli("classify", str(path), [])
    assert modinv.cli.validate is validate
    assert traced == plain
    assert t.calls["fusion.validate"] == 1  # through ringfile.load_ring
    assert t.calls["classify.factorize_type_one"] > 0
    assert t.calls["cyclo.mul"] > 0


def test_self_time_excludes_enclosed_spans(monkeypatch):
    clock = iter([0.0, 1.0, 2.0, 4.0, 6.0, 7.0, 8.0, 10.0])
    monkeypatch.setattr(tracer, "perf_counter", lambda: next(clock))
    t = Tracer()
    with t.span("outer"):  # 0 .. 10
        with t.span("mid"):  # 1 .. 6
            with t.span("leaf"):  # 2 .. 4
                pass
        with t.span("leaf"):  # 7 .. 8
            pass
    assert t.total == {"outer": 10.0, "mid": 5.0, "leaf": 3.0}
    assert t.self_time == {"outer": 4.0, "mid": 3.0, "leaf": 3.0}
    assert t.calls == {"outer": 1, "mid": 1, "leaf": 2}


def test_sampler_samples_during_work_and_accounts_for_its_time():
    with speed.Sampler() as sampler:
        t0 = speed.perf_counter()
        while speed.perf_counter() - t0 < 0.3:
            pass
    assert len(sampler.samples) >= 5  # entry, exit and the timer in between
    assert sampler.spent == pytest.approx(sum(sampler.samples))
    assert speed.relative_speed([speed.REFERENCE_S, speed.REFERENCE_S / 2]) == 1.5


def test_deterministic_counts_repeat(tmp_path):
    workload = Workload("test", "cli", (SPECS["su2_level6"], SPECS["cyclic4_zero"]))
    layers = []
    for i in range(2):
        tmp = tmp_path / str(i)
        tmp.mkdir()
        bench = Bench(ROOT, workload, 3, tmp)
        _pdir, result = bench.spawn(trace=True, timeout=120)
        layers.append(result["layers"])
    counts = [
        name
        for name, unit in tracer.PER_LAYER
        if unit in ("count", "bytes") or name == "classify.factorize_unique_ratio"
    ]
    assert {n: layers[0][n] for n in counts} == {n: layers[1][n] for n in counts}
    assert layers[0]["commutant.invariants_found"] == 2 + 70
    assert layers[0]["fusion.validate_calls"] == 4  # one per check, one per classify


def test_run_fails_without_a_checkout(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(PERFBENCH / "run.py"), "--workload", "su2-large", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_benchmark_json_lists_the_reported_metrics():
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in config["per_layer"]] == tracer.PER_LAYER
    assert [w["name"] for w in config["workloads"]] == list(WORKLOADS)
