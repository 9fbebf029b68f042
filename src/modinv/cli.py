"""Command-line front end.

Subcommands: builtin, check, modular, invariants, classify.
Exit statuses: 0 success, 1 validation/verification failure, 2 usage or
parse error, 3 node-budget exhaustion (partial results are still printed).
"""

from __future__ import annotations

import argparse
import sys
from functools import lru_cache
from typing import Optional

from .classify import classify_all
from .commutant import (
    DEFAULT_NODE_BUDGET,
    InvariantRejected,
    Pool,
    SearchBudgetExceeded,
    commutant_basis,
    enumerate_invariants,
    twist_sparsity,
    verify_invariant,
)
from .cyclo import int_array
from .fusion import (
    DimsReconstructionError,
    builtin_cyclic,
    builtin_so_level1,
    builtin_su2,
    global_conductor,
    validate,
)
from .modular import (
    DataIntegrityError,
    compute_modular_data,
    verify_statistics_axioms,
    verlinde_check,
)
from .report import build_report, modular_summary, render_json, render_markdown, ring_summary
from .ringfile import RingFileError, _parse_fraction, check_limits, dump_ring, load_ring, read_json

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except RingFileError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except InvariantRejected as exc:
        print(f"rejected: {exc}", file=sys.stderr)
        return EXIT_FAIL
    except (DataIntegrityError, DimsReconstructionError) as exc:
        print(f"invalid ring data: {exc}", file=sys.stderr)
        return EXIT_FAIL


@lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="modinv",
        description="Modular data and modular invariant coupling matrices of fusion rings",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("builtin", help="emit a built-in ring file on stdout")
    p.add_argument("family", choices=["su2", "so-level1", "cyclic"])
    p.add_argument("--level", type=int, help="level for su2")
    p.add_argument("--n", type=int, help="n for so-level1 (multiple of 16) or cyclic order")
    p.add_argument(
        "--twists",
        type=str,
        default=None,
        help="comma-separated rational twists for cyclic, each p or p/q (default all 0)",
    )
    p.set_defaults(func=cmd_builtin)

    p = sub.add_parser("check", help="validate a ring file and its statistics axioms")
    p.add_argument("ringfile")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("modular", help="report the modular data of a ring")
    p.add_argument("ringfile")
    p.add_argument("--format", choices=["json", "markdown"], default="json")
    p.set_defaults(func=cmd_modular)

    p = sub.add_parser("invariants", help="enumerate modular invariant coupling matrices")
    p.add_argument("ringfile")
    p.add_argument("--format", choices=["json", "markdown"], default="json")
    _search_flags(p)
    p.set_defaults(func=cmd_invariants)

    p = sub.add_parser("classify", help="enumerate and classify all invariants")
    p.add_argument("ringfile")
    p.add_argument("--format", choices=["json", "markdown"], default="json")
    _search_flags(p)
    p.add_argument(
        "--invariant",
        type=str,
        default=None,
        help="restrict the classification to one matrix: a pool index or a JSON matrix file",
    )
    p.set_defaults(func=cmd_classify)
    return parser


def _search_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--bound-scale",
        type=_positive(lambda text: _parse_fraction(text, "--bound-scale")),
        default=1,
    )
    p.add_argument("--node-budget", type=_positive(_parse_count), default=DEFAULT_NODE_BUDGET)


def _parse_count(text: str) -> int:
    """A count from argv: int(text) alone would also read " 2 ", "1_000" and
    "+5"."""
    if _is_digits(text):
        return int(text)  # ValueError past int's digit limit
    raise ValueError(f"not a count: {text!r}")


def _positive(parse):
    """An argparse type: `parse`, accepting only values above 0 (else exit 2)."""

    def convert(text: str):
        try:
            if (value := parse(text)) > 0:
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"expected a positive number, got {text!r}")

    return convert


def cmd_builtin(args) -> int:
    try:
        if args.family == "su2":
            if args.level is None:
                raise ValueError("su2 requires --level")
            check_limits(args.level + 1)  # the conductor 4(level + 2) is then at most 404
            ring = builtin_su2(args.level)
        elif args.family == "so-level1":
            if args.n is None:
                raise ValueError("so-level1 requires --n")
            ring = builtin_so_level1(args.n)
        else:
            if args.n is None:
                raise ValueError("cyclic requires --n")
            items = [] if args.twists is None else args.twists.split(",")
            twists = [_parse_fraction(t.strip(), f"twists[{i}]") for i, t in enumerate(items)]
            check_limits(args.n, global_conductor(twists))
            ring = builtin_cyclic(args.n, twists if args.twists is not None else [0] * args.n)
    except RingFileError:
        raise  # the limits and rationals of a ring file: `main` prints them
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    print(dump_ring(ring))
    return EXIT_OK


def cmd_check(args) -> int:
    ring = load_ring(args.ringfile, check_axioms=False)
    failures = validate(ring)
    for f in failures:
        print(f"FAIL ring axiom: {f}")
    if not failures:
        print("PASS ring axioms")
    try:
        md = compute_modular_data(ring)
    except DataIntegrityError as exc:
        print(f"FAIL statistics axiom: {exc}")
        return EXIT_FAIL
    axiom_failures = verify_statistics_axioms(md)
    for f in axiom_failures:
        print(f"FAIL statistics axiom: {f}")
    if not axiom_failures:
        print("PASS statistics axioms")
    mismatches = verlinde_check(md)
    if mismatches:
        print(f"FAIL fusion reconstruction: {len(mismatches)} entries")
    else:
        print("PASS fusion reconstruction")
    return EXIT_FAIL if failures or axiom_failures or mismatches else EXIT_OK


def _load_and_compute(args):
    return compute_modular_data(load_ring(args.ringfile, check_axioms=True))


def _emit(args, report: dict) -> None:
    render = render_markdown if args.format == "markdown" else render_json
    sys.stdout.write(render(report))


def cmd_modular(args) -> int:
    md = _load_and_compute(args)
    _emit(args, {"ring": ring_summary(md), "modular": modular_summary(md)})
    return EXIT_OK


def _enumerate(args, md):
    basis = commutant_basis(md, twist_sparsity(md.ring))
    try:
        pool = enumerate_invariants(
            md, basis, bound_scale=args.bound_scale, node_budget=args.node_budget
        )
        return pool, False
    except SearchBudgetExceeded as exc:
        print(f"warning: {exc}", file=sys.stderr)
        return exc.partial, True


def cmd_invariants(args) -> int:
    md = _load_and_compute(args)
    pool, exhausted = _enumerate(args, md)
    _emit(args, build_report(md, pool, budget_exhausted=exhausted))
    return EXIT_BUDGET if exhausted else EXIT_OK


def cmd_classify(args) -> int:
    md = _load_and_compute(args)
    spec = args.invariant
    # A matrix file is read and verified before the search, so a bad path or
    # matrix fails fast; an index can only be checked against the pool.
    # An index is ASCII digits; anything else is a path.
    Z = None if spec is None or _is_digits(spec) else _read_invariant(spec, md)
    pool, exhausted = _enumerate(args, md)
    classifications = classify_all(md, pool)
    if spec is not None:
        target = _pool_index(spec, Z, pool)
        if target is None:
            return EXIT_FAIL
        classifications = [c for c in classifications if c.index == target]
    report = build_report(md, pool, classifications, budget_exhausted=exhausted)
    _emit(args, report)
    return EXIT_BUDGET if exhausted else EXIT_OK


def _is_digits(spec: str) -> bool:
    """spec is [0-9]+, the grammar of a count or pool index on the command
    line (str.isdigit alone would also take superscripts, which int()
    rejects, and str.isdecimal other scripts' digits, which int() reads)."""
    return spec.isascii() and spec.isdecimal()


def _read_invariant(path: str, md):
    """The matrix in a JSON file, exactly verified as a modular invariant."""
    return verify_invariant(md, read_json(path, "invariant file"))


def _pool_index(spec: str, Z, pool: Pool) -> Optional[int]:
    """Pool index named by an index string, or the index of the verified
    matrix Z, which must occur in the enumeration: found in the pool's
    stack."""
    if Z is None:
        i = int(spec)
        if not 0 <= i < len(pool):
            print(f"error: invariant index {i} out of range", file=sys.stderr)
            return None
        return i
    (found,) = (pool.stack == int_array(Z.Z)).all(axis=(1, 2)).nonzero()
    if len(found):
        return int(found[0])
    print("error: verified matrix is not in the enumerated pool", file=sys.stderr)
    return None


if __name__ == "__main__":
    sys.exit(main())
