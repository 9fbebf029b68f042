"""Reports: byte-identical JSON on the ladder rings, and the span summary
against the public span functions it replaces."""

import hashlib
import json
from fractions import Fraction

import pytest

from modinv.classify import (
    classify_all,
    in_rational_span,
    rational_span_dimension,
    span_relations,
)
from modinv.commutant import commutant_basis, enumerate_invariants, twist_sparsity
from modinv.fusion import builtin_cyclic, builtin_so_level1, builtin_su2
from modinv.modular import compute_modular_data
from modinv.report import build_report, render_json, span_summary

# sha256 of render_json(build_report(md, pool, classify_all(md, pool))) in the
# builtin labelling. Reports on these rings must stay byte-identical unless a
# change fixes a documented bug.
RINGS = {
    "so16_level1": (
        lambda: builtin_so_level1(16),
        "1ee92c8b8ec4c778bd87540414d5fdf5fd8bfacb995e9f0f3ca99e8fb11d888a",
    ),
    "su2_level16": (
        lambda: builtin_su2(16),
        "ca9a06495d6eac623d8640a7ef34d8ca59735ab80b341063cf9499e4e142cdfc",
    ),
    "cyclic4_zero": (
        lambda: builtin_cyclic(4, [Fraction(0)] * 4),
        "f3310d2ca3b0f8a1f40d5d7e0dbe9e7adf295e7f6f2bdf4f831fe24a08c5aea1",
    ),
    "cyclic6_a2over4": (
        lambda: builtin_cyclic(6, [Fraction(a * a, 4) for a in range(6)]),
        "6074bf0ce05c496e0b99a17af35dde2481d9e9996616cd806dbfdc9fc0f67ac2",
    ),
    "cyclic8_a2over8": (
        lambda: builtin_cyclic(8, [Fraction(a * a, 8) for a in range(8)]),
        "b0ec87d05a7c05df98a1bf9a2334bde6c73040fee6b6eeb3d5a62bac35a9eb5c",
    ),
}


@pytest.fixture(scope="module", params=sorted(RINGS))
def ring_run(request):
    build, digest = RINGS[request.param]
    ring = build()
    md = compute_modular_data(ring)
    pool = enumerate_invariants(md, commutant_basis(md, twist_sparsity(ring)))
    return md, pool, digest


def test_report_bytes_pinned(ring_run):
    md, pool, digest = ring_run
    text = render_json(build_report(md, pool, classify_all(md, pool)))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_span_summary_matches_public_span_functions(ring_run):
    md, pool, _ = ring_run
    summary = span_summary(pool)
    symmetric = [Z for Z in pool if Z.vacuum_symmetric]
    assert summary["count"] == len(pool)
    assert summary["span_dimension"] == rational_span_dimension(pool)
    assert summary["relations"] == [list(r) for r in span_relations(pool)]
    assert summary["asymmetric_in_symmetric_span"] == {
        str(i): in_rational_span(Z, symmetric)
        for i, Z in enumerate(pool)
        if not Z.vacuum_symmetric
    }


def test_degenerate_z5_report_bytes_pinned():
    # Z_5 with zero twists: 2161 invariants and 2144 span relations. The
    # digest is that of `modinv classify` on `modinv builtin cyclic --n 5`.
    ring = builtin_cyclic(5, [Fraction(0)] * 5)
    md = compute_modular_data(ring)
    pool = enumerate_invariants(md, commutant_basis(md, twist_sparsity(ring)))
    report = build_report(md, pool, classify_all(md, pool))
    # The bytes of render_json, hashed as json.dumps produces them: the
    # report is 57 MB, and joining it into one string takes over 400 MB.
    digest = hashlib.sha256()
    for chunk in json.JSONEncoder(indent=2, sort_keys=True).iterencode(report):
        digest.update(chunk.encode())
    digest.update(b"\n")
    assert digest.hexdigest() == "74a53ba897a5b247a5e62f9f99e14ceb477b2ba8bd33ae940aa8c02f19c0c7f9"


def test_span_summary_of_empty_list():
    assert span_summary([]) == {
        "count": 0,
        "span_dimension": 0,
        "relations": [],
        "asymmetric_in_symmetric_span": {},
    }
