"""Output oracle: compares each operation's output with reference results
recorded from the builtin labelling (see make_reference.py).

A `check` must print only PASS lines. A classification (CLI report or
library result) is mapped back to builtin labels through the inverse
permutation; its set of (matrix, kind) pairs and its pool size must match
the reference. In the builtin labelling the CLI report must also match
byte for byte.
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter
from pathlib import Path
from typing import Optional

from workloads import unpermute

REFERENCE_PATH = Path(__file__).with_name("reference.json")


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text())


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def summarize(command: str, text: str, perm: list[int]) -> dict:
    """Labelling-independent summary of a classify or library output."""
    data = json.loads(text)
    if command == "classify":
        pool_size = len(data["invariants"])
    else:
        pool_size = data["pool_size"]
    pairs = sorted([unpermute(c["matrix"], perm), c["kind"]] for c in data["classifications"])
    return {
        "pool_size": pool_size,
        "kinds": dict(sorted(Counter(kind for _m, kind in pairs).items())),
        "pairs_sha256": sha256(json.dumps(pairs)),
    }


def check_output(command: str, text: str, perm: list[int], ref: Optional[dict]) -> Optional[str]:
    """None when the output is right, else the reason it is not."""
    if command == "check":
        lines = text.splitlines()
        bad = [line for line in lines if not line.startswith("PASS")]
        if not lines or bad:
            return f"check printed {bad[:1] or 'nothing'}"
        return None
    if ref is None:
        return "no reference result recorded"
    if command == "classify" and perm == sorted(perm) and sha256(text) != ref["report_sha256"]:
        return "report differs from the reference in the builtin labelling"
    try:
        got = summarize(command, text, perm)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return f"unreadable output: {exc!r}"
    for key in ("pool_size", "kinds", "pairs_sha256"):
        if got[key] != ref[key]:
            return f"{key} is {got[key]}, reference {ref[key]}"
    return None
