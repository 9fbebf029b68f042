"""Record the output oracle's reference results.

Usage, from the root of a modinv checkout whose outputs are trusted:

    python3 perfbench/make_reference.py

Runs every workload once in the builtin labelling and writes
perfbench/reference.json: per classify or library operation, the pool size,
the count of each kind, the digest of the sorted (matrix, kind) pairs and,
for CLI reports, the digest of the report itself.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path


def main() -> int:
    root = Path.cwd().resolve()
    sys.path.insert(0, str(root / "src"))
    from bench import Bench
    from oracle import REFERENCE_PATH, sha256, summarize
    from workloads import IDENTITY_SEED, WORKLOADS, op_id

    reference = {}
    workdir = root / ".perfbench_work"
    workdir.mkdir(exist_ok=True)
    for workload in WORKLOADS.values():
        tmp = Path(tempfile.mkdtemp(dir=workdir))
        try:
            bench = Bench(root, workload, IDENTITY_SEED, tmp)
            pdir, result = bench.spawn(trace=False, timeout=900)
            for i, (op, res) in enumerate(zip(bench.ops, result["ops"])):
                if op[0] == "check":
                    continue
                if res["rc"] != 0:
                    raise SystemExit(f"{op_id(op)} failed: {res['stderr']}")
                text = (pdir / f"{i}.out").read_text()
                entry = summarize(op[0], text, bench.rings[op[1]]["perm"])
                if op[0] == "classify":
                    entry["report_sha256"] = sha256(text)
                reference[op_id(op)] = entry
                print(op_id(op), entry["pool_size"], entry["kinds"], flush=True)
        finally:
            shutil.rmtree(tmp)
    REFERENCE_PATH.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
