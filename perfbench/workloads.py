"""Benchmark workloads and the seeded input generator.

Each workload is a list of rings plus the operations run on them. The seed
draws one permutation of the non-vacuum labels per ring; the ring is written
relabelled, so the program only ever sees the generated files. Seed 0 keeps
the builtin labelling, which is where the byte-exact report digests apply.
Why each workload was chosen is recorded in BENCHMARK.json.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

from modinv.fusion import FusionRing, builtin_cyclic, builtin_so_level1, builtin_su2
from modinv.ringfile import ring_to_json

IDENTITY_SEED = 0


def quadratic_twists(n: int) -> list[Fraction]:
    """h_a = a^2 / (2n) for even n, a^2 / n for odd n."""
    den = 2 * n if n % 2 == 0 else n
    return [Fraction(a * a, den) % 1 for a in range(n)]


@dataclass(frozen=True)
class RingSpec:
    key: str
    build: Callable[[], FusionRing]
    # One classify per entry; each entry is a tuple of extra CLI flags.
    flag_sets: tuple[tuple[str, ...], ...] = ((),)


@dataclass(frozen=True)
class Workload:
    name: str
    mode: str  # "cli": check + classify per ring; "library": README sequence
    rings: tuple[RingSpec, ...]


def _su2(k: int) -> RingSpec:
    return RingSpec(f"su2_level{k}", lambda: builtin_su2(k))


def _so(n: int) -> RingSpec:
    return RingSpec(f"so{n}_level1", lambda: builtin_so_level1(n))


def _cyclic(key: str, n: int, twists: list[Fraction], flag_sets=((),)) -> RingSpec:
    return RingSpec(key, lambda: builtin_cyclic(n, twists), flag_sets)


WORKLOADS = {
    w.name: w
    for w in (
        # Large n and conductor: validation, axioms, kernel, exact classification.
        Workload("su2-large", "cli", (_su2(20), _su2(24))),
        # Many small rings and conductors: fixed per-call and per-conductor costs.
        Workload(
            "small-sweep",
            "cli",
            tuple(_su2(k) for k in range(1, 13))
            + (_so(16), _so(32))
            + tuple(_cyclic(f"cyclic{n}_quadratic", n, quadratic_twists(n)) for n in range(2, 13)),
        ),
        # 34-100 invariants at conductor <= 8: the report's rational-span analysis.
        Workload(
            "degenerate-span",
            "cli",
            (
                _cyclic("cyclic3_zero", 3, [Fraction(0)] * 3,
                        (("--bound-scale", "2"), ("--bound-scale", "3"))),
                _cyclic("cyclic4_zero", 4, [Fraction(0)] * 4),
                _cyclic("cyclic6_a2over4", 6, [Fraction(a * a, 4) for a in range(6)]),
                _cyclic("cyclic8_a2over8", 8, [Fraction(a * a, 8) for a in range(8)]),
            ),
        ),
        # 2161 invariants: the search and classification's O(pool^2) parent
        # scan. `modinv classify` would not finish its span analysis here.
        Workload("degenerate-z5", "library", (_cyclic("cyclic5_zero", 5, [Fraction(0)] * 5),)),
    )
}


def label_permutation(seed: int, key: str, n: int) -> list[int]:
    """perm[j] = builtin label placed at position j; the vacuum stays at 0."""
    rest = list(range(1, n))
    if seed != IDENTITY_SEED:
        random.Random(f"{seed}:{key}").shuffle(rest)
    return [0] + rest


def relabel(data: dict, perm: list[int]) -> dict:
    """The ring-file dict with label perm[j] moved to position j."""
    inv = [0] * len(perm)
    for j, p in enumerate(perm):
        inv[p] = j
    out = dict(data)
    out["labels"] = [data["labels"][p] for p in perm]
    out["fusion"] = sorted([inv[l], inv[m], inv[nu], mult] for l, m, nu, mult in data["fusion"])
    out["dual"] = [inv[data["dual"][p]] for p in perm]
    out["twists"] = [data["twists"][p] for p in perm]
    if data["dims"] != "auto":
        out["dims"] = [data["dims"][p] for p in perm]
    return out


def unpermute(matrix: list[list[int]], perm: list[int]) -> list[list[int]]:
    """A matrix reported in the relabelled ring, back in builtin labels."""
    n = len(perm)
    out = [[0] * n for _ in range(n)]
    for j in range(n):
        for k in range(n):
            out[perm[j]][perm[k]] = matrix[j][k]
    return out


def write_inputs(workload: Workload, seed: int, directory: Path) -> dict[str, dict]:
    """Write one relabelled ring file per ring, in dump_ring's format;
    returns each ring's permutation and conductor by key."""
    rings = {}
    for spec in workload.rings:
        ring = spec.build()
        data = ring_to_json(ring)
        perm = label_permutation(seed, spec.key, ring.size)
        (directory / f"{spec.key}.json").write_text(
            json.dumps(relabel(data, perm), indent=2, sort_keys=True)
        )
        rings[spec.key] = {"perm": perm, "conductor": ring.conductor}
    return rings


def operations(workload: Workload) -> list[tuple[str, str, tuple[str, ...]]]:
    """(command, ring key, flags) in run order; the command is check,
    classify or library."""
    ops = []
    for spec in workload.rings:
        if workload.mode == "library":
            ops.append(("library", spec.key, ()))
            continue
        ops.append(("check", spec.key, ()))
        ops.extend(("classify", spec.key, flags) for flags in spec.flag_sets)
    return ops


def op_id(op: tuple[str, str, tuple[str, ...]]) -> str:
    return " ".join((op[0], op[1]) + op[2])
