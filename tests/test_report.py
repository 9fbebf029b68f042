"""Reports: byte-identical JSON on the ladder rings, the JSON renderer
against json.dumps, the report-wide shared values against fresh ones, and
the span summary against the public span functions it replaces."""

import dataclasses
import hashlib
import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import modinv.report
from modinv.classify import (
    classify_all,
    in_rational_span,
    rational_span_dimension,
    span_relations,
)
from modinv.commutant import commutant_basis, enumerate_invariants, twist_sparsity
from modinv.cyclo import Cyclotomic, _make
from modinv.fusion import builtin_cyclic, builtin_so_level1, builtin_su2
from modinv.modular import compute_modular_data
from modinv.report import (
    ReportValues,
    _exact_entry,
    build_report,
    classification_summary,
    render_json,
    span_summary,
)
from modinv.ringfile import SharedDict, SharedList, json_text

from test_fusion import quadratic_twists

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
    # The report is 57 MB of JSON; `modinv classify` on this ring peaks at
    # 190 MB RSS (ru_maxrss), against 526 MB when json.dumps rendered it.
    text = render_json(report)
    digest = hashlib.sha256(text.encode()).hexdigest()
    assert digest == "74a53ba897a5b247a5e62f9f99e14ceb477b2ba8bd33ae940aa8c02f19c0c7f9"


def test_span_summary_of_empty_list():
    assert span_summary([]) == {
        "count": 0,
        "span_dimension": 0,
        "relations": [],
        "asymmetric_in_symmetric_span": {},
    }


# -- the JSON renderer against json.dumps ---------------------------------------

_json_strings = st.text(max_size=6) | st.sampled_from(
    ["", "é", "\u2603", "\U0001f600", "\x00\x1f\x7f", '"', "\\", 'a"b\\c\n\t', "\ud800"]
)
_json_ints = st.integers() | st.sampled_from([2**64, -(2**64), 2**64 + 1, -(2**64) - 1, 3**90])
_json_scalars = st.none() | st.booleans() | _json_ints | _json_strings
_json_trees = st.recursive(
    _json_scalars | st.lists(_json_ints | st.booleans() | st.none(), max_size=6),
    lambda inner: st.lists(inner, max_size=5) | st.dictionaries(_json_strings, inner, max_size=5),
    max_leaves=30,
)


def _marked(tree):
    """tree with its outer container marked shared."""
    if type(tree) is dict:
        return SharedDict(tree)
    return SharedList(tree) if type(tree) is list else tree


def _containers(inner, size):
    return st.lists(inner, max_size=size) | st.dictionaries(_json_strings, inner, max_size=size)


@st.composite
def _trees_with_shared_subtrees(draw):
    """A tree holding marked-shared subtrees more than once and at different
    depths; a shared subtree may hold earlier ones."""
    shared = []
    for _ in range(draw(st.integers(1, 3))):
        leaves = _json_scalars | st.sampled_from(shared) if shared else _json_scalars
        inner = st.recursive(leaves, lambda t: _containers(t, 3), max_leaves=8)
        shared.append(_marked(draw(_containers(inner, 4))))
    leaves = _json_scalars | st.sampled_from(shared)
    tree = draw(st.recursive(leaves, lambda t: _containers(t, 5), max_leaves=30))
    return [tree, shared, {"again": [shared[-1], {"deeper": shared}]}]


_entry = SharedDict(exact={"conductor": 1, "coeffs": [[0, "1/1"]]}, text="1", numeric="1+0j")
_matrix = SharedList([[1, 0], [0, 1]])


@given(_json_trees | _trees_with_shared_subtrees())
@example(
    {
        "m": [_matrix, {"z": _entry, "x": [_matrix, [_entry, _entry]]}],
        "e": _entry,
        "nested": SharedDict(a=_entry, b=[_matrix, SharedList()]),
        "empty": [SharedDict(), SharedList(), SharedDict()],
    }
)
@example({"a": [], "b": {}, "c": [[]], "d": [{}], "e": {"f": {"g": []}}})
@example([1, [2, {"x": None}], "s", {}, [True, None, 3], []])
@example({"k\u00e9": [2**70, -(2**70), True, False, None]})
@settings(max_examples=200, deadline=None)
def test_json_text_equals_json_dumps(tree):
    assert json_text(tree) == json.dumps(tree, indent=2, sort_keys=True)


@pytest.mark.parametrize("bad", [1.5, np.int64(3), (1, 2)], ids=["float", "int64", "tuple"])
def test_json_text_rejects_what_reports_never_hold(bad):
    for tree in (bad, [bad], [1, bad], {"a": [bad]}, {"a": {"b": bad}}):
        with pytest.raises(TypeError):
            json_text(tree)


# -- report-wide shared values against fresh ones ------------------------------

MEMO_RINGS = (
    [(f"su2_{k}", builtin_su2, (k,)) for k in range(1, 25)]
    + [(f"so{n}", builtin_so_level1, (n,)) for n in (16, 32)]
    + [(f"z{n}_quadratic", builtin_cyclic, (n, quadratic_twists(n, 1))) for n in range(2, 13)]
)


@pytest.mark.parametrize(
    "build, args", [r[1:] for r in MEMO_RINGS], ids=[r[0] for r in MEMO_RINGS]
)
def test_classification_summary_equals_one_without_the_yext_memo(build, args):
    # On its own, a classification summary shares one entry dict between
    # equal Yext entries, and equals the one with an entry built per entry.
    ring = build(*args)
    md = compute_modular_data(ring)
    pool = enumerate_invariants(md, commutant_basis(md, twist_sparsity(ring)))
    for cls in classify_all(md, pool):
        summary = classification_summary(cls)
        if cls.extended is None:
            assert summary["extended"] is None
            continue
        Yext = cls.extended.Yext
        plain = [[_exact_entry(v) for v in row] for row in Yext]
        assert summary == {**summary, "extended": {**summary["extended"], "Yext": plain}}
        distinct = {(v.conductor, v.den, tuple(v.num.items())) for row in Yext for v in row}
        shared = {id(e) for row in summary["extended"]["Yext"] for e in row}
        assert len(shared) == len(distinct)


class _FreshValues(ReportValues):
    """A new entry dict and matrix list at every place."""

    def entry(self, v):
        return _exact_entry(v)

    def matrix(self, Z, rows=None):
        return [list(row) for row in Z.Z]


def _value_key(v):
    return v.conductor, v.den, tuple(v.num.items())


def _entry_places(md, classifications, report):
    """(exact value, its entry dict) at every place the report holds one."""
    yield md.z, report["modular"]["z"]
    yield md.w, report["modular"]["w"]
    for c, summary in zip(classifications, report["classifications"]):
        for name, entry in summary["global_indices"].items():
            yield getattr(c.indices, name), entry
        for b, f in zip(c.factorizations, summary["factorizations"]):
            yield from zip(b.block_dims, f["block_dims"])
        if c.extended is not None:
            yield c.extended.z0, summary["extended"]["z0"]
            for row, entries in zip(c.extended.Yext, summary["extended"]["Yext"]):
                yield from zip(row, entries)


@pytest.mark.parametrize(
    "build, args", [r[1:] for r in MEMO_RINGS], ids=[r[0] for r in MEMO_RINGS]
)
def test_report_equals_one_with_fresh_values(build, args, monkeypatch):
    # A report holds one entry dict per exact value and one matrix list per
    # invariant, and equals, as a tree and as text, the report with a fresh
    # entry and matrix at every place.
    ring = build(*args)
    md = compute_modular_data(ring)
    pool = enumerate_invariants(md, commutant_basis(md, twist_sparsity(ring)))
    classifications = classify_all(md, pool)
    report = build_report(md, pool, classifications)
    monkeypatch.setattr(modinv.report, "ReportValues", _FreshValues)
    fresh = build_report(md, pool, classifications)
    monkeypatch.undo()
    assert report == fresh
    text = render_json(report)
    assert text == render_json(fresh) == json.dumps(fresh, indent=2, sort_keys=True) + "\n"
    ids: dict[tuple, set[int]] = {}
    for v, entry in _entry_places(md, classifications, report):
        assert entry == _exact_entry(v)
        ids.setdefault(_value_key(v), set()).add(id(entry))
    assert all(len(found) == 1 for found in ids.values())
    assert len(set().union(*ids.values())) == len(ids)
    invariants = report["invariants"]
    for c, summary in zip(classifications, report["classifications"]):
        assert summary["matrix"] is invariants[c.index]["matrix"]
    assert len({id(inv["matrix"]) for inv in invariants}) == len(pool)


def test_yext_memo_keeps_denominators_and_slot_orders_apart():
    # x and x/2 share coordinates but not the denominator; x and y are equal
    # with the slot order reversed, which changes the embed() sum.
    ring = builtin_so_level1(16)
    md = compute_modular_data(ring)
    pool = enumerate_invariants(md, commutant_basis(md, twist_sparsity(ring)))
    cls = next(c for c in classify_all(md, pool) if c.extended is not None)
    x = Cyclotomic(8, {0: 1, 1: 3})
    y = _make(8, dict(reversed(x.num.items())))
    Yext = [[x, x / 2], [y, x]]
    extended = dataclasses.replace(cls.extended, Yext=Yext)
    got = classification_summary(dataclasses.replace(cls, extended=extended))["extended"]["Yext"]
    assert got == [[_exact_entry(v) for v in row] for row in Yext]
    assert got[0][0] is got[1][1]
    assert len({id(e) for row in got for e in row}) == 3


def test_entries_of_short_lived_elements_keep_their_values():
    # An entry is looked up by the element's id first. Each element here is
    # dropped by the caller at once; were the id map not to hold it, a later
    # element could take its id and be handed its entry.
    values = ReportValues()
    for k in range(200):
        assert values.entry(Cyclotomic(8, {1: k}))["text"] == repr(Cyclotomic(8, {1: k}))


def test_matrix_display_formats_each_distinct_value_once(monkeypatch):
    # 0j, complex(-0.0, 0.0) and complex(0.0, -0.0) are equal as numbers
    # but print apart, so each keeps its own string.
    A = np.array(
        [
            [0j, complex(-0.0, 0.0), complex(0.0, -0.0)],
            [complex(0.0, -0.0), 0j, 0.5 - 1j],
            [0.5 - 1j, complex(-0.0, 0.0), 0j],
        ]
    )
    fmt_complex, formatted = modinv.report.fmt_complex, []

    def recording(x):
        formatted.append(x)
        return fmt_complex(x)

    monkeypatch.setattr(modinv.report, "fmt_complex", recording)
    assert modinv.report._fmt_matrix(A) == [[fmt_complex(x) for x in row] for row in A]
    assert len(formatted) == 4
    assert len({fmt_complex(x) for x in formatted}) == 4
