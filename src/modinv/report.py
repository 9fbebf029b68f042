"""Deterministic report assembly for the invariants and classify pipelines.

The machine format is a plain JSON-able dict, written as indent-2 JSON
with sorted keys by :func:`modinv.ringfile.json_text`; the human rendering
is markdown built from the same dict. Exact values appear in full (cyclotomic
serializations, "p/q" rationals) alongside 12-digit numeric shadows, so both
forms carry the complete result.

A report builds each distinct value once (see `ReportValues`): one entry
dict per exact value, however many indices, block dims and Yext entries
hold it, and one matrix list per coupling matrix, held by its invariant and
by its classification. The renderer writes each such shared subtree once
per indentation.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from .classify import Classification, _pool_stack, span_dimension_and_relations
from .commutant import CouplingMatrix
from .cyclo import Cyclotomic
from .modular import ModularData, display_charge
from .ringfile import SharedDict, SharedList, fmt_fraction, json_text

NUMERIC_DIGITS = 12


def fmt_complex(x: complex) -> str:
    return f"{x.real:.{NUMERIC_DIGITS}g}{x.imag:+.{NUMERIC_DIGITS}g}j"


def _exact_entry(v: Cyclotomic) -> dict:
    return SharedDict(exact=v.to_json(), text=repr(v), numeric=fmt_complex(v.embed()))


def _fmt_matrix(A: np.ndarray) -> list[list[str]]:
    """fmt_complex of every entry of a complex matrix, each distinct value
    formatted once; values are told apart by their bytes, so that -0.0 and
    0.0 (equal as numbers, printed apart) keep their own strings."""
    text: dict[bytes, str] = {}
    A = np.ascontiguousarray(A, dtype=complex)
    keys = A.view("V16").tolist()  # each complex128 as its 16 bytes
    return [
        [text[k] if k in text else text.setdefault(k, fmt_complex(x)) for k, x in zip(krow, row)]
        for krow, row in zip(keys, A.tolist())
    ]


class ReportValues:
    """The values one report shares: an entry dict per exact value and a
    matrix list per coupling matrix, each built once and marked shared for
    the renderer. An entry's key keeps the slot order of num, which fixes
    the embed() sum and so the shadow. An element met again as the same
    object is found by its id first, and a coupling matrix only by its id:
    an invariant and its classification hold one object. The maps hold the
    objects, so an id is not reused while they live."""

    def __init__(self) -> None:
        self._entries: dict[tuple, dict] = {}
        self._by_id: dict[int, tuple[Cyclotomic, dict]] = {}
        self._matrices: dict[int, tuple[CouplingMatrix, list]] = {}

    def entry(self, v: Cyclotomic) -> dict:
        seen = self._by_id.get(id(v))
        if seen is not None:
            return seen[1]
        key = (v.conductor, v.den, tuple(v.num.items()))
        found = self._entries.get(key)
        if found is None:
            found = self._entries[key] = _exact_entry(v)
        self._by_id[id(v)] = v, found
        return found

    def matrix(self, Z: CouplingMatrix, rows: Optional[list[list[int]]] = None) -> list:
        """Z's matrix list, from its rows when given (a stack's), else from Z."""
        found = self._matrices.get(id(Z))
        if found is None:
            rows = list(map(list, Z.Z)) if rows is None else rows
            found = self._matrices[id(Z)] = Z, SharedList(rows)
        return found[1]


def ring_summary(md: ModularData) -> dict:
    ring = md.ring
    return {
        "name": ring.name,
        "size": ring.size,
        "labels": list(ring.names),
        "conductor": ring.conductor,
        "exact_dims": True,
    }


def modular_summary(md: ModularData, values: Optional[ReportValues] = None) -> dict:
    entry = (values or ReportValues()).entry
    out = {
        "exact": True,
        "degenerates": sorted(md.degenerates),
        "nondegenerate": md.nondegenerate,
        "central_charge": fmt_fraction(display_charge(md)) if md.c is not None else None,
        "z": entry(md.z),
        "w": entry(md.w),
    }
    if md.S_numeric is not None:
        out["S_numeric"] = _fmt_matrix(md.S_numeric)
    if md.T_numeric is not None:
        out["T_numeric"] = _fmt_matrix(md.T_numeric)
    return out


def invariant_summary(
    Z: CouplingMatrix, values: ReportValues, rows: Optional[list[list[int]]] = None
) -> dict:
    """The invariant's entry, read off its matrix list: from `rows` when
    given (its row of the pool's stack, as `build_report` passes it), so
    that Z's tuple is not built."""
    matrix = values.matrix(Z, rows)
    column = [row[0] for row in matrix]
    return {
        "matrix": matrix,
        "trace": _trace(matrix),
        "vacuum_column": column,
        "vacuum_row": list(matrix[0]),
        "vacuum_symmetric": column == matrix[0],
        "verified": True,
        "exact": True,
    }


def _trace(matrix: list[list[int]]) -> int:
    return sum(row[l] for l, row in enumerate(matrix))


def span_summary(pool: Sequence[CouplingMatrix]) -> dict:
    """Rational span of the invariant list: dimension and the integer
    relation basis, from one reduction of the whole list, and for each
    asymmetric invariant whether it lies in the span of the symmetric ones.

    It never does: the matrices with Z[l,0] = Z[0,l] for every l form a
    linear subspace, which holds every symmetric invariant and so their
    span, and an asymmetric invariant lies outside it."""
    dimension, relations = span_dimension_and_relations(pool)
    S = _pool_stack(pool)
    asymmetric = (S[:, :, 0] != S[:, 0]).any(axis=1).nonzero()[0].tolist() if S.size else []
    return {
        "count": len(pool),
        "span_dimension": dimension,
        "relations": relations,
        "asymmetric_in_symmetric_span": {str(i): False for i in asymmetric},
    }


def classification_summary(cls: Classification, values: Optional[ReportValues] = None) -> dict:
    values = values or ReportValues()
    entry = values.entry
    matrix = values.matrix(cls.Z)  # from the pool's stack when build_report has read it
    out = {
        "index": cls.index,
        "kind": cls.kind,
        "type_two": cls.type_two,
        "vacuum_symmetric": cls.vacuum_symmetric,
        "trace": _trace(matrix),
        "matrix": matrix,
        "global_indices": {
            "w": entry(cls.indices.w),
            "w_plus": entry(cls.indices.w_plus),
            "w_alpha": entry(cls.indices.w_alpha),
            "w_zero": entry(cls.indices.w_zero),
        },
        "factorizations": [
            {
                "block_count": b.block_count,
                "B": [list(row) for row in b.B],
                "block_twists": [fmt_fraction(h) for h in b.block_twists],
                "block_dims": [entry(d) for d in b.block_dims],
            }
            for b in cls.factorizations
        ],
        "parent_plus": cls.parent_plus,
        "parent_minus": cls.parent_minus,
        "bijection": list(cls.bijection) if cls.bijection is not None else None,
        "bijection_count": cls.bijection_count,
        "automorphism": list(cls.automorphism) if cls.automorphism is not None else None,
        "automorphism_preserves_extended": cls.automorphism_preserves_extended,
        "extended_error": cls.extended_error,
        "branching_failures": cls.branching_failures,
        "notes": list(cls.notes),
    }
    if cls.extended is not None:
        out["extended"] = {
            "Yext": [[entry(v) for v in row] for row in cls.extended.Yext],
            "twists": [fmt_fraction(h) for h in cls.extended.Text_twists],
            "z0": entry(cls.extended.z0),
            "consistent": cls.extended.consistent,
            "failures": list(cls.extended.failures),
        }
    else:
        out["extended"] = None
    return out


def build_report(
    md: ModularData,
    pool: Sequence[CouplingMatrix],
    classifications: Optional[Sequence[Classification]] = None,
    budget_exhausted: bool = False,
) -> dict:
    values = ReportValues()
    report = {
        "ring": ring_summary(md),
        "modular": modular_summary(md, values),
        "invariants": [
            invariant_summary(Z, values, rows)
            for Z, rows in zip(pool, _pool_stack(pool, md.size).tolist())
        ],
        "span": span_summary(pool),
        "budget_exhausted": budget_exhausted,
    }
    if budget_exhausted:
        report["warning"] = "node budget exhausted; invariant list may be incomplete"
    if classifications is not None:
        report["classifications"] = [classification_summary(c, values) for c in classifications]
    return report


def render_json(report: dict) -> str:
    return json_text(report) + "\n"


def render_markdown(report: dict) -> str:
    lines: list[str] = []
    r = report["ring"]
    lines.append(f"# Modular invariants for {r['name'] or 'ring'}")
    lines.append("")
    lines.append(f"- labels: {', '.join(r['labels'])} ({r['size']} sectors)")
    lines.append(f"- global conductor: {r['conductor']}")
    lines.append(f"- exact dims: {r['exact_dims']}")
    m = report["modular"]
    lines.append(f"- central charge (mod 8 rep or hint): {m['central_charge']}")
    lines.append(f"- degenerate labels: {m['degenerates']} (nondegenerate: {m['nondegenerate']})")
    lines.append(f"- Gauss sum z = {m['z']['text']} = {m['z']['numeric']}")
    lines.append(f"- global index w = {m['w']['text']}")
    if report.get("warning"):
        lines.append("")
        lines.append(f"**WARNING: {report['warning']}**")
    if "invariants" in report:
        lines.append("")
        lines.append(f"## Invariants ({len(report['invariants'])})")
    for i, inv in enumerate(report.get("invariants", [])):
        lines.append("")
        lines.append(f"### Invariant {i} (trace {inv['trace']})")
        lines.append("")
        for row in inv["matrix"]:
            lines.append("    " + "  ".join(str(v) for v in row))
        lines.append("")
        lines.append(
            f"- vacuum column {inv['vacuum_column']}, row {inv['vacuum_row']}, "
            f"symmetric: {inv['vacuum_symmetric']}"
        )
        lines.append(f"- exactly verified: {inv['verified']}")
    if "span" in report:
        sp = report["span"]
        lines.append("")
        lines.append("## Rational span")
        lines.append("")
        lines.append(f"- span dimension: {sp['span_dimension']} over {sp['count']} invariants")
        for rel in sp["relations"]:
            lines.append(f"- relation: {rel} (coefficients over the invariant list)")
        for k, v in sp["asymmetric_in_symmetric_span"].items():
            lines.append(f"- invariant {k} in rational span of symmetric invariants: {v}")
    for cls in report.get("classifications", []):
        lines.append("")
        lines.append(f"## Classification of invariant {cls['index']}: {cls['kind']}")
        lines.append("")
        lines.append(f"- trace: {cls['trace']}; vacuum symmetric: {cls['vacuum_symmetric']}")
        gi = cls["global_indices"]
        lines.append(
            "- global indices: w = {}, w+ = {}, w_alpha = {}, w0 = {}".format(
                gi["w"]["text"], gi["w_plus"]["text"], gi["w_alpha"]["text"], gi["w_zero"]["text"]
            )
        )
        lines.append(f"- parents (plus side): {cls['parent_plus']}; (minus side): {cls['parent_minus']}")
        if cls["bijection"] is not None:
            lines.append(
                f"- block bijection: {cls['bijection']} ({cls['bijection_count']} total)"
            )
        if cls["automorphism"] is not None:
            lines.append(
                f"- block automorphism: {cls['automorphism']} "
                f"(preserves extended data: {cls['automorphism_preserves_extended']})"
            )
        for f in cls["factorizations"]:
            lines.append(f"- factorization into {f['block_count']} blocks:")
            for tau, row in enumerate(f["B"]):
                lines.append(
                    f"    block {tau}: b = {row}, twist {f['block_twists'][tau]}, "
                    f"dim {f['block_dims'][tau]['text']}"
                )
        ext = cls["extended"]
        if ext is not None:
            lines.append(
                f"- extended data: z0 = {ext['z0']['text']}, twists {ext['twists']}, "
                f"consistent: {ext['consistent']}"
            )
            for row in ext["Yext"]:
                lines.append("    Yext: " + "  ".join(v["text"] for v in row))
            for fail in ext["failures"]:
                lines.append(f"    failure: {fail}")
        if cls["extended_error"]:
            lines.append(f"- extended data unavailable: {cls['extended_error']}")
            lines.append(f"- branching identities checked, failures: {cls['branching_failures']}")
        for note in cls["notes"]:
            lines.append(f"- note: {note}")
    lines.append("")
    return "\n".join(lines)
