"""Classification: factorizations, parents, bijections, extended modular
data and global indices."""

import dataclasses
import itertools
import math
import re
from collections import Counter
from fractions import Fraction
from functools import cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import modinv.classify
import modinv.cyclo
import modinv.report
from modinv.cyclo import (
    Cyclotomic,
    coordinates,
    csum,
    divide,
    int_array,
    int_dtype,
    int_matmul,
    root_of_unity,
)
from modinv.fusion import builtin_cyclic, builtin_so_level1, builtin_su2
from modinv.linalg import Echelon
from modinv.modular import compute_modular_data
from modinv.commutant import (
    CouplingMatrix,
    commutant_basis,
    enumerate_invariants,
    twist_sparsity,
    verify_invariant,
)
from modinv.classify import (
    BranchingData,
    Classification,
    ExtendedModularData,
    GlobalIndices,
    RankDeficientBranching,
    branching_checks,
    classify_all,
    extended_modular_data,
    factorize_type_one,
    find_block_bijection,
    find_parents,
    global_indices,
    in_rational_span,
    rational_span_dimension,
    span_dimension_and_relations,
    span_relations,
)

from test_commutant import IDENTITY4, Q, Q_T, SO16_EXPECTED, W, X_C, X_S, identity
from test_fusion import quadratic_twists
from test_report import MEMO_RINGS


@pytest.fixture(scope="module")
def so16():
    ring = builtin_so_level1(16)
    md = compute_modular_data(ring)
    pool = enumerate_invariants(md, commutant_basis(md, twist_sparsity(ring)))
    return md, pool, classify_all(md, pool)


@pytest.fixture(scope="module")
def su2_16():
    ring = builtin_su2(16)
    md = compute_modular_data(ring)
    pool = enumerate_invariants(md, commutant_basis(md, twist_sparsity(ring)))
    return md, pool, classify_all(md, pool)


@pytest.fixture(scope="module")
def cyclic4_zero():
    ring = builtin_cyclic(4, [Fraction(0)] * 4)
    md = compute_modular_data(ring)
    pool = enumerate_invariants(md, commutant_basis(md, twist_sparsity(ring)))
    return md, pool


def by_matrix(pool, classifications, matrix):
    for Z, cls in zip(pool, classifications):
        assert Z.Z == cls.Z.Z
        if Z.Z == matrix:
            return Z, cls
    raise AssertionError("matrix not in pool")


def test_vacuum_profiles(so16):
    md, pool, cls = so16
    q, _ = by_matrix(pool, cls, Q)
    assert (q.vacuum_column, q.vacuum_row, q.vacuum_symmetric) == (
        (1, 0, 1, 0),
        (1, 0, 0, 1),
        False,
    )
    xs, _ = by_matrix(pool, cls, X_S)
    assert (xs.vacuum_column, xs.vacuum_row, xs.vacuum_symmetric) == (
        (1, 0, 1, 0),
        (1, 0, 1, 0),
        True,
    )
    ident, _ = by_matrix(pool, cls, IDENTITY4)
    assert ident.vacuum_symmetric


def test_global_indices_so16(so16):
    md, pool, cls = so16
    _, q = by_matrix(pool, cls, Q)
    assert q.indices.w.rational_value() == 4
    assert q.indices.w_plus.rational_value() == 2
    assert q.indices.w_alpha.rational_value() == 4
    assert q.indices.w_zero.rational_value() == 1
    assert q.indices.check() == []
    _, ident = by_matrix(pool, cls, IDENTITY4)
    assert ident.indices.w_plus.rational_value() == 4
    assert ident.indices.w_alpha.rational_value() == 4
    assert ident.indices.w_zero.rational_value() == 4


def test_global_indices_degenerate_cyclic():
    ring = builtin_cyclic(2, [Fraction(0)] * 2)
    md = compute_modular_data(ring)
    all_ones = verify_invariant(md, [[1, 1], [1, 1]])
    gi = global_indices(md, all_ones)
    assert gi.w.rational_value() == 2
    assert gi.w_plus.rational_value() == 1
    assert gi.w_alpha.rational_value() == 1  # both labels degenerate
    assert gi.w_zero.rational_value() == 1


def test_factorize_single_block(so16):
    md, pool, cls = so16
    xs, _ = by_matrix(pool, cls, X_S)
    facts = factorize_type_one(md, xs)
    assert len(facts) == 1
    assert facts[0].B == ((1, 0, 1, 0),)
    assert facts[0].block_twists == (Fraction(0),)
    assert facts[0].block_dims[0].rational_value() == 1


def test_factorize_rejects_asymmetric(so16):
    md, pool, cls = so16
    q, _ = by_matrix(pool, cls, Q)
    assert factorize_type_one(md, q) == []


def test_factorize_identity_gives_unit_blocks(so16):
    md, pool, cls = so16
    ident, _ = by_matrix(pool, cls, IDENTITY4)
    facts = factorize_type_one(md, ident)
    assert len(facts) == 1
    assert facts[0].block_count == 4
    assert facts[0].B == IDENTITY4


def test_factorize_rejects_permutation(so16):
    md, pool, cls = so16
    w, _ = by_matrix(pool, cls, W)
    assert factorize_type_one(md, w) == []


def test_factorize_rejects_a_zero_vacuum_entry(so16):
    # b_{0,0} = 1 forces Z_00 = 1; a hand-built Z with Z_00 = 0 has no
    # factorization, though its other labels factorize.
    md, _, _ = so16
    Z = CouplingMatrix(((0, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)))
    assert factorize_type_one(md, Z) == []


def _reference_factorize_type_one(md, Z):
    """Reference: the plain recursive search, which scans every residual for
    negative entries and cuts dead ends by a rule of its own, not the
    library's `_live`: a residual still to be written as a sum of b b^T is
    a Gram matrix, so R_lm^2 <= R_ll R_mm (Cauchy-Schwarz). Without a cut
    before the leaves, its time grows with the number of row chains that
    fit Z, not with Z's factorizations: seconds on some 5x5 draws."""
    n = md.size
    mat = Z.Z
    if any(mat[l][m] != mat[m][l] for l in range(n) for m in range(l + 1, n)):
        return []
    b0 = Z.vacuum_column
    resid = [[mat[l][m] - b0[l] * b0[m] for m in range(n)] for l in range(n)]
    if any(resid[l][m] < 0 for l in range(n) for m in range(n)):
        return []
    results = []
    top = tuple([0] + [max(0, _isqrt_floor(mat[l][l])) for l in range(1, n)])

    def candidate_rows(R, ceiling):
        out = []
        row = [0] * n

        def extend(pos, tight):
            if pos == n:
                if any(row):
                    out.append(tuple(row))
                return
            hi = _isqrt_floor(R[pos][pos])
            if tight:
                hi = min(hi, ceiling[pos])
            for v in range(hi, -1, -1):
                ok = all(v * row[j] <= R[pos][j] for j in range(1, pos) if row[j])
                if not ok:
                    continue
                row[pos] = v
                extend(pos + 1, tight and v == ceiling[pos])
                row[pos] = 0

        extend(1, True)
        return out

    def search(R, prev, rows):
        if any(R[l][m] ** 2 > R[l][l] * R[m][m] for l in range(n) for m in range(n)):
            return
        if all(R[l][l] == 0 for l in range(n)):
            if any(R[l][m] != 0 for l in range(n) for m in range(n)):
                return
            results.append(list(rows))
            return
        first = next(l for l in range(n) if R[l][l] > 0)
        for b in candidate_rows(R, prev):
            if b[first] == 0:
                continue
            R2 = [[R[l][m] - b[l] * b[m] for m in range(n)] for l in range(n)]
            if any(R2[l][m] < 0 for l in range(n) for m in range(n)):
                continue
            rows.append(b)
            search(R2, b, rows)
            rows.pop()

    search(resid, top, [])
    return [modinv.classify._branching_from_rows(md, [b0] + rows) for rows in results]


def _isqrt_floor(x):
    return math.isqrt(x) if x >= 0 else -1


def _branching_form(b):
    return b.B, b.block_twists, [_cyclotomic_form(d) for d in b.block_dims]


FACTORIZATION_RINGS = (
    [(f"su2_{k}", builtin_su2, (k,)) for k in range(17)]
    + [(f"so{n}", builtin_so_level1, (n,)) for n in (16, 32)]
    + [(f"z{n}_zero", builtin_cyclic, (n, [Fraction(0)] * n)) for n in range(1, 6)]
    + [(f"z{n}_quadratic", builtin_cyclic, (n, quadratic_twists(n, 1))) for n in range(2, 13)]
)


@pytest.mark.parametrize(
    "build, args", [r[1:] for r in FACTORIZATION_RINGS], ids=[r[0] for r in FACTORIZATION_RINGS]
)
def test_factorizations_match_the_recursive_reference(build, args):
    # Same rows in the same order, and so the same block twists and block
    # dims down to their slot order, on every invariant of the ring.
    ring = build(*args)
    md = compute_modular_data(ring)
    pool = enumerate_invariants(md, commutant_basis(md, twist_sparsity(ring)))
    for Z in pool:
        got = factorize_type_one(md, Z)
        assert list(map(_branching_form, got)) == list(
            map(_branching_form, _reference_factorize_type_one(md, Z))
        )


@pytest.mark.parametrize("k, trace", [(32, 18), (40, 22), (48, 26)])
def test_factorize_d_series_past_level_32(k, trace):
    # The D-series at k = 0 mod 8: the vacuum block e_0 + e_k, one block
    # e_j + e_{k-j} per even 0 < j < k/2, and the fixed point e_{k/2} split
    # into two blocks. Dead residuals are cut as soon as they arise; a
    # search that finds them only at its leaves takes seconds at level 48.
    n = k + 1

    def e(*labels):
        return tuple(labels.count(m) for m in range(n))

    rows = [e(0, k)] + [e(j, k - j) for j in range(2, k // 2, 2)] + [e(k // 2)] * 2
    md = compute_modular_data(builtin_su2(k))
    Z = verify_invariant(
        md, [[sum(b[l] * b[m] for b in rows) for m in range(n)] for l in range(n)]
    )
    assert Z.trace == trace
    facts = factorize_type_one(md, Z)
    assert [f.B for f in facts] == [(rows[0], *sorted(rows[1:], reverse=True))]


@cache
def _zero_twist_data(n):
    return compute_modular_data(builtin_cyclic(n, [Fraction(0)] * n))


@st.composite
def gram_matrices(draw):
    """Z = B^T B for random 0/1 rows over a cyclic ring with zero twists,
    where any row has one twist; sometimes one entry pair is raised, so that
    Z need not factorize. The invariants of the rings above factorize in one
    way at most, and such Z can factorize in several, as
    [[1,0,0,0],[0,2,1,1],[0,1,2,1],[0,1,1,2]] does with 3 and with 4 rows.
    Entries up to 2 would let the reference run for half a minute."""
    n = draw(st.integers(2, 5))
    entries = [st.integers(0, 1)] * (n - 1)
    rows = [(1, *draw(st.tuples(*entries)))]
    rows += draw(st.lists(st.tuples(st.just(0), *entries), max_size=5))
    Z = [[sum(b[l] * b[m] for b in rows) for m in range(n)] for l in range(n)]
    if draw(st.booleans()):
        l, m = draw(st.integers(1, n - 1)), draw(st.integers(1, n - 1))
        Z[l][m] += 1
        Z[m][l] += l != m
    return _zero_twist_data(n), CouplingMatrix(tuple(map(tuple, Z)))


@given(gram_matrices())
@settings(max_examples=300, deadline=None)
def test_factorizations_match_the_recursive_reference_on_gram_matrices(case):
    md, Z = case
    assert list(map(_branching_form, factorize_type_one(md, Z))) == list(
        map(_branching_form, _reference_factorize_type_one(md, Z))
    )


def test_factorize_finds_every_factorization_once():
    md = _zero_twist_data(4)
    Z = CouplingMatrix(((1, 0, 0, 0), (0, 2, 1, 1), (0, 1, 2, 1), (0, 1, 1, 2)))
    assert [f.B for f in factorize_type_one(md, Z)] == [
        ((1, 0, 0, 0), (0, 1, 1, 1), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)),
        ((1, 0, 0, 0), (0, 1, 1, 0), (0, 1, 0, 1), (0, 0, 1, 1)),
    ]


def test_parents_of_Q(so16):
    md, pool, cls = so16
    q, _ = by_matrix(pool, cls, Q)
    plus, minus = find_parents(md, q, pool)
    assert [pool[i].Z for i in plus] == [X_S]
    assert [pool[i].Z for i in minus] == [X_C]


def test_parents_of_W_are_diagonal(so16):
    md, pool, cls = so16
    w, _ = by_matrix(pool, cls, W)
    plus, minus = find_parents(md, w, pool)
    assert [pool[i].Z for i in plus] == [IDENTITY4]
    assert [pool[i].Z for i in minus] == [IDENTITY4]


def test_block_bijection_for_Q(so16):
    md, pool, cls = so16
    q, clsq = by_matrix(pool, cls, Q)
    xs, _ = by_matrix(pool, cls, X_S)
    xc, _ = by_matrix(pool, cls, X_C)
    bp = factorize_type_one(md, xs)[0]
    bm = factorize_type_one(md, xc)[0]
    res = find_block_bijection(bp, bm, q)
    assert res == ((0,), 1)
    assert clsq.bijection == (0,) and clsq.bijection_count == 1


def test_block_bijection_for_W_swaps_spinors(so16):
    md, pool, cls = so16
    _, clsw = by_matrix(pool, cls, W)
    assert clsw.automorphism == (0, 1, 3, 2)
    assert clsw.automorphism[0] == 0
    assert clsw.automorphism_preserves_extended is True


def test_type_one_is_its_own_parent(so16):
    md, pool, cls = so16
    for mat in (X_S, X_C):
        Z, c = by_matrix(pool, cls, mat)
        assert c.kind == "type_I"
        i = pool.index(Z)
        assert c.parent_plus == [i] and c.parent_minus == [i]
        assert c.bijection == (0,)  # identity bijection against itself


def test_so16_taxonomy(so16):
    md, pool, cls = so16
    kinds = {c.Z.Z: c.kind for c in cls}
    assert kinds[IDENTITY4] == "diagonal"
    assert kinds[W] == "permutation"
    assert kinds[X_S] == "type_I"
    assert kinds[X_C] == "type_I"
    assert kinds[Q] == "heterotic"
    assert kinds[Q_T] == "heterotic"


def test_extended_data_single_block(so16):
    md, pool, cls = so16
    _, c = by_matrix(pool, cls, X_S)
    ext = c.extended
    assert ext is not None and ext.consistent
    assert len(ext.Yext) == 1
    assert ext.Yext[0][0].rational_value() == 1
    assert ext.z0.rational_value() == 1  # (w_plus/w) z = (2/4) * 2


def test_extended_data_identity_reproduces_Y(so16):
    md, pool, cls = so16
    _, c = by_matrix(pool, cls, IDENTITY4)
    ext = c.extended
    assert ext is not None and ext.consistent
    n = md.size
    assert all(ext.Yext[l][m] == md.Y[l][m] for l in range(n) for m in range(n))
    assert ext.z0 == md.z


@pytest.mark.parametrize(
    "B, expected",
    [
        (
            ((1, 0, 0, 0), (0, 0, 1, 1), (0, 1, 0, 0)),
            [
                "Yext not symmetric at (0,1)",
                "Yext not symmetric at (1,2)",
                "z0 != (w_plus/w) z",
                "(Yext Yext^dagger)[0,0] != w_zero",
                "Yext Yext^dagger not diagonal at (0,2)",
                "(Yext Yext^dagger)[1,1] != w_zero",
                "Yext Yext^dagger not diagonal at (2,0)",
                "(Yext Yext^dagger)[2,2] != w_zero",
            ],
        ),
        (
            ((1, 0, 1, 0), (0, 1, 0, 0), (0, 0, 1, 1)),
            [f"intertwining fails at block {a}, label {m}" for a in (1, 2) for m in (0, 2, 3)]
            + [f"Yext not symmetric at ({a},{b})" for a, b in ((0, 1), (0, 2), (1, 2))]
            + [
                "twist intertwining fails at block 1, label 1",
                "twist intertwining fails at block 2, label 2",
                "twist intertwining fails at block 2, label 3",
                "z0 != (w_plus/w) z",
                "Yext Yext^dagger not diagonal at (0,1)",
                "Yext Yext^dagger not diagonal at (0,2)",
                "Yext Yext^dagger not diagonal at (1,0)",
                "(Yext Yext^dagger)[1,1] != w_zero",
                "Yext Yext^dagger not diagonal at (1,2)",
                "Yext Yext^dagger not diagonal at (2,0)",
                "Yext Yext^dagger not diagonal at (2,1)",
                "(Yext Yext^dagger)[2,2] != w_zero",
            ],
        ),
    ],
)
def test_extended_data_failures_on_a_false_branching(so16, B, expected):
    # Rows that factorize no invariant: every exact check must report, in
    # order, including both off-diagonal entries of Yext Yext^dagger.
    md, pool, cls = so16
    _, ident = by_matrix(pool, cls, IDENTITY4)
    one = Cyclotomic.from_rational(1)
    branching = BranchingData(
        block_count=3,
        B=B,
        block_twists=(Fraction(0), Fraction(0), Fraction(1, 2)),
        block_dims=(one, one * 2, one),
    )
    ext = extended_modular_data(md, branching, ident.indices)
    assert not ext.consistent
    assert ext.failures == expected
    reference = _scalar_extended_modular_data(md, branching, ident.indices, _dense_Y(md))
    assert _extended_form(ext) == _extended_form(reference)


def test_block_twist_of_an_unverified_invariant(so16):
    # A hand-built Z, never verified, whose vacuum block joins label 0
    # (twist 0) and label 1 (twist 1/2): the block takes the twist of its
    # first label, and the Gram-free checks report the label that differs.
    md, _, _ = so16
    Z = CouplingMatrix(((1, 1, 0, 0), (1, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)))
    (branching,) = factorize_type_one(md, Z)
    assert branching.B == ((1, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
    assert branching.block_twists == (0, 0, 0)
    assert branching_checks(md, branching, global_indices(md, Z)) == [
        "twist intertwining fails at block 0, label 1",
        "z0 != (w_plus/w) z",
    ]


def test_su2_16_taxonomy(su2_16):
    md, pool, cls = su2_16
    assert len(pool) == 3
    by_trace = {c.Z.trace: c for c in cls}
    assert by_trace[17].kind == "diagonal"
    d10 = by_trace[10]
    e7 = by_trace[7]
    assert d10.kind == "type_I"
    assert e7.kind == "type_II"
    assert e7.parent_plus == [d10.index] and e7.parent_minus == [d10.index]
    assert e7.type_two
    # Vacuum column of the trace-10 invariant is supported on labels 0 and 16.
    assert [l for l, v in enumerate(d10.Z.vacuum_column) if v] == [0, 16]


def _layout(x):
    return x.conductor, x.den, list(x.num.items())


def test_diagonal_extended_data_takes_no_general_product(su2_16, monkeypatch):
    # The diagonal invariant is its own type I parent with B = 1, so Yext is
    # Y and z0 is z, coordinates and slot order included. Its factors of 1,
    # one-term sums and rational ratio w_plus/w never reach the general
    # product, the one caller of _reduce with keep_cancelled.
    md, pool, cls = su2_16
    diag = next(c for c in cls if c.kind == "diagonal")
    (branching,) = diag.factorizations
    reduce, kept = modinv.cyclo._reduce, []

    def counting(m, terms, *, keep_cancelled=False):
        kept.append(keep_cancelled)
        return reduce(m, terms, keep_cancelled=keep_cancelled)

    monkeypatch.setattr(modinv.cyclo, "_reduce", counting)
    ext = extended_modular_data(md, branching, diag.indices)
    assert kept.count(True) == 0
    assert ext.consistent
    assert [[_layout(y) for y in row] for row in ext.Yext] == [
        [_layout(y) for y in row] for row in md.Y
    ]
    assert _layout(ext.z0) == _layout(md.z)


@pytest.mark.parametrize(
    "build, args", [r[1:] for r in MEMO_RINGS], ids=[r[0] for r in MEMO_RINGS]
)
def test_y_coordinates_are_those_of_the_scalar_y(build, args):
    # The trivial extension takes Yext's coordinates as Y's own: that holds
    # only while md.Y_coords and md.Y_den are coordinates(md.Y, M).
    md = compute_modular_data(build(*args))
    X, D = coordinates(md.Y, md.ring.conductor)
    assert D == md.Y_den
    assert np.array_equal(X, md.Y_coords)


@pytest.mark.parametrize("name", ["su2_16", "so16"])
def test_trivial_extension_takes_y_as_yext(name, request, monkeypatch):
    # B = 1: no Gram inverse, and no coordinates of Yext; only the scalars
    # of the checks (the ratio and w_zero) are put in coordinates.
    md, pool, cls = request.getfixturevalue(name)
    diag = next(c for c in cls if c.kind == "diagonal")
    (branching,) = diag.factorizations
    kernels = record_calls(monkeypatch, "kernel")
    coords = record_calls(monkeypatch, "coordinates")
    ext = extended_modular_data(md, branching, diag.indices)
    assert kernels == []
    assert all(isinstance(args[0], Cyclotomic) for args in coords)
    assert ext.consistent
    assert all(a is b for a, b in zip(itertools.chain(*ext.Yext), itertools.chain(*md.Y)))
    assert [len(row) for row in ext.Yext] == [md.size] * md.size
    # The labels in another order take the general path: one kernel, and
    # Yext's coordinates.
    del kernels[:], coords[:]
    reverse = _relabelled_blocks(md, [0, *range(md.size - 1, 0, -1)])
    extended_modular_data(md, reverse, diag.indices)
    assert len(kernels) == 1
    assert any(isinstance(args[0], list) for args in coords)


def test_classification_leaves_no_values_of_y_on_md():
    # The dichotomy and the extension's checks evaluate Y on their own, so a
    # ModularData that the search and the report keep alive holds no values
    # of Y (md.Y_values), the trivial extension's included.
    ring = builtin_su2(16)
    md = compute_modular_data(ring)
    assert md.nondegenerate and "_Y_values" not in vars(md)
    pool = enumerate_invariants(md, commutant_basis(md, twist_sparsity(ring)))
    cls = classify_all(md, pool)
    assert any(c.kind == "diagonal" and c.extended and c.extended.consistent for c in cls)
    assert "_Y_values" not in vars(md)


def _relabelled_blocks(md, sigma):
    """The branching whose block a is label sigma[a]: B a permutation matrix,
    with the labels' twists and dims; Z = B^T B = 1."""
    n = md.size
    return BranchingData(
        block_count=n,
        B=tuple(tuple(int(l == sigma[a]) for l in range(n)) for a in range(n)),
        block_twists=tuple(md.ring.twists[l] for l in sigma),
        block_dims=tuple(md.ring.dims[l] for l in sigma),
    )


def test_trivial_extension_keeps_every_check_live(so16):
    # Y's coordinates off by one at (0, 1) only, and the scalar Y with them:
    # the fast path reads both, the general path, through the branching
    # that swaps the spinors s and c, builds Yext from the scalar Y. The
    # swap fixes labels 0 and 1, so both report the same failures.
    md, pool, cls = so16
    assert md.nondegenerate
    diag = next(c for c in cls if c.kind == "diagonal")
    (branching,) = diag.factorizations
    M = md.ring.conductor
    Yc = md.Y_coords.copy()
    Yc[0, 0, 1] += 1
    broken = dataclasses.replace(md, Y_coords=Yc)
    broken.Y = [
        [Cyclotomic.from_terms(M, enumerate(Yc[:, l, m].tolist()), md.Y_den) for m in range(4)]
        for l in range(4)
    ]
    swap = _relabelled_blocks(md, (0, 1, 3, 2))
    fast = extended_modular_data(broken, branching, diag.indices)
    general = extended_modular_data(broken, swap, diag.indices)
    assert general.Yext[2][3] == broken.Y[3][2]
    assert "Yext not symmetric at (0,1)" in fast.failures
    assert any("Yext^dagger" in f for f in fast.failures)
    assert fast.failures == general.failures
    # Unbroken, both paths are consistent.
    assert extended_modular_data(md, swap, diag.indices).consistent


def test_su2_16_d10_branching(su2_16):
    md, pool, cls = su2_16
    d10 = next(c for c in cls if c.Z.trace == 10)
    assert len(d10.factorizations) == 1
    b = d10.factorizations[0]
    assert b.block_count == 6
    rows = sorted(b.B)
    supports = [tuple(l for l, v in enumerate(r) if v) for r in rows]
    assert supports == [(8,), (8,), (6, 10), (4, 12), (2, 14), (0, 16)]
    # The split fixed point repeats a row, so Yext is not determined.
    assert d10.extended is None
    assert d10.extended_error is not None
    assert d10.branching_failures == []
    with pytest.raises(RankDeficientBranching):
        extended_modular_data(md, b, d10.indices)
    assert branching_checks(md, b, d10.indices) == []


def test_su2_6_automorphism_invariant():
    ring = builtin_su2(6)
    md = compute_modular_data(ring)
    pool = enumerate_invariants(md, commutant_basis(md, twist_sparsity(ring)))
    cls = classify_all(md, pool)
    d5 = next(c for c in cls if c.Z.trace == 5)
    assert d5.type_two
    assert d5.kind == "permutation"  # the folding is a permutation matrix here
    assert [pool[i].Z for i in d5.parent_plus] == [identity(md.size)]
    assert d5.automorphism is not None and d5.automorphism[0] == 0
    assert d5.automorphism_preserves_extended is True


def test_span_analysis(so16):
    md, pool, cls = so16
    assert rational_span_dimension(pool) == 5
    rels = span_relations(pool)
    assert len(rels) == 1
    # The relation must say identity - W - X_s - X_c + Q + Q^T = 0.
    coeff = {pool[i].Z: c for i, c in enumerate(rels[0])}
    sign = coeff[IDENTITY4]
    assert sign != 0
    assert {m: coeff[m] // sign for m in coeff} == {
        IDENTITY4: 1, W: -1, X_S: -1, X_C: -1, Q: 1, Q_T: 1,
    }
    symmetric = [Z for Z in pool if Z.vacuum_symmetric]
    q = next(Z for Z in pool if Z.Z == Q)
    assert not in_rational_span(q, symmetric)
    assert in_rational_span(next(Z for Z in pool if Z.Z == W), symmetric)


def _reference_span_dimension_and_relations(mats):
    """Reference: span dimension and relations from one reduction of [Z | I],
    rows as wide as the list; where the matrix part of a row cancels, the
    rest of the row is a primitive relation with positive lead."""
    k = len(mats)
    width = len(mats[0].Z) ** 2 if mats else 0
    echelon = Echelon(width + k)
    pivots = []
    for i, Z in enumerate(mats):
        flat = [v for row in Z.Z for v in row] + [int(j == i) for j in range(k)]
        pivots.append(echelon.insert(echelon.residual(flat)))
    relations = [list(echelon.rows[p][width:]) for p in pivots if p >= width]
    return k - len(relations), relations


_ZERO3 = [Fraction(0)] * 3

# (ring, bound scale, how many invariants of the pool), by name.
SPAN_POOLS = {
    "cyclic3_zero": (lambda: builtin_cyclic(3, _ZERO3), 1, None),
    "cyclic3_zero_scale2": (lambda: builtin_cyclic(3, _ZERO3), 2, None),
    "cyclic3_zero_scale3": (lambda: builtin_cyclic(3, _ZERO3), 3, None),
    "cyclic4_zero": (lambda: builtin_cyclic(4, [Fraction(0)] * 4), 1, None),
    "cyclic6_a2over4": (lambda: builtin_cyclic(6, [Fraction(a * a, 4) for a in range(6)]), 1, None),
    "cyclic8_a2over8": (lambda: builtin_cyclic(8, [Fraction(a * a, 8) for a in range(8)]), 1, None),
    "su2_level16": (lambda: builtin_su2(16), 1, None),
    "so16_level1": (lambda: builtin_so_level1(16), 1, None),
    "cyclic5_zero_first400": (lambda: builtin_cyclic(5, [Fraction(0)] * 5), 1, 400),
    "empty": (lambda: builtin_so_level1(16), 1, 0),
}


@pytest.mark.parametrize("name", sorted(SPAN_POOLS))
def test_span_relations_match_the_full_reduction(name):
    build, scale, count = SPAN_POOLS[name]
    ring = build()
    md = compute_modular_data(ring)
    pool = enumerate_invariants(md, commutant_basis(md, twist_sparsity(ring)), bound_scale=scale)
    pool = pool[:count]
    assert span_dimension_and_relations(pool) == _reference_span_dimension_and_relations(pool)


@st.composite
def integer_matrix_lists(draw):
    """Lists of small integer matrices, zero matrices and repeats included."""
    n = draw(st.integers(1, 3))
    matrix = st.lists(st.integers(-2, 2), min_size=n * n, max_size=n * n).map(
        lambda flat: CouplingMatrix(Z=tuple(tuple(flat[l * n : (l + 1) * n]) for l in range(n)))
    )
    distinct = draw(st.lists(matrix, min_size=1, max_size=6))
    return draw(st.lists(st.sampled_from(distinct), max_size=14))


@given(integer_matrix_lists())
@settings(max_examples=150, deadline=None)
def test_span_relations_match_the_full_reduction_on_integer_matrices(mats):
    assert span_dimension_and_relations(mats) == _reference_span_dimension_and_relations(mats)


def _sympy_rank(mats):
    sympy = pytest.importorskip("sympy")
    return sympy.Matrix([[v for row in Z.Z for v in row] for Z in mats]).rank() if mats else 0


@given(integer_matrix_lists())
@settings(max_examples=100, deadline=None)
def test_span_membership_and_dimension_match_sympy_rank(mats):
    # Z[l,0] = Z[0,l] for every l is linear, so no asymmetric matrix is in
    # the span of the symmetric ones.
    symmetric = [Z for Z in mats if Z.vacuum_symmetric]
    assert not any(in_rational_span(Z, symmetric) for Z in mats if not Z.vacuum_symmetric)
    ranks = [_sympy_rank(mats[:i]) for i in range(len(mats) + 1)]
    assert rational_span_dimension(mats) == ranks[-1]
    for i, Z in enumerate(mats):
        assert in_rational_span(Z, mats[:i]) == (ranks[i + 1] == ranks[i])


def test_span_summary_builds_one_echelon(so16, monkeypatch):
    md, pool, _ = so16
    built = []

    class RecordedEchelon(modinv.linalg.Echelon):
        def __init__(self, width):
            built.append(width)
            super().__init__(width)

    # Patched in both modules, so that an echelon built by classify itself
    # is counted too.
    monkeypatch.setattr(modinv.linalg, "Echelon", RecordedEchelon)
    monkeypatch.setattr(modinv.classify, "Echelon", RecordedEchelon)
    modinv.report.span_summary(pool)
    assert built == [2 * md.size**2 + 1]


@pytest.mark.parametrize("name", ["su2_16", "so16"])
def test_extended_modular_data_builds_no_echelon(name, request, monkeypatch):
    # The Gram inverse is one kernel by primes: only the span analysis builds
    # an echelon. The D10 factorization of SU(2) 16 has a dependent row, which
    # the kernel's missing pivot names.
    md, pool, _ = request.getfixturevalue(name)
    built = []

    class RecordedEchelon(modinv.linalg.Echelon):
        def __init__(self, width):
            built.append(width)
            super().__init__(width)

    monkeypatch.setattr(modinv.linalg, "Echelon", RecordedEchelon)
    monkeypatch.setattr(modinv.classify, "Echelon", RecordedEchelon)
    messages = []
    for Z in pool:
        indices = global_indices(md, Z)
        for branching in factorize_type_one(md, Z):
            try:
                extended_modular_data(md, branching, indices)
            except RankDeficientBranching as exc:
                messages.append(str(exc))
    assert built == []
    dependent = ["branching rows linearly dependent: rows [5]"] if name == "su2_16" else []
    assert messages == dependent


def test_block_dim_identity(su2_16):
    md, pool, cls = su2_16
    d10 = next(c for c in cls if c.Z.trace == 10)
    b = d10.factorizations[0]
    d = md.ring.dims
    n = md.size
    ratio = divide(d10.indices.w_plus, md.w)
    for tau in range(b.block_count):
        total = csum(d[l] * b.B[tau][l] for l in range(n) if b.B[tau][l])
        assert ratio * total == b.block_dims[tau]


def test_classify_trivial_ring():
    ring = builtin_cyclic(1, [Fraction(0)])
    md = compute_modular_data(ring)
    pool = enumerate_invariants(md, commutant_basis(md, twist_sparsity(ring)))
    cls = classify_all(md, pool)
    assert len(cls) == 1 and cls[0].kind == "diagonal"
    assert cls[0].extended.consistent


def test_classify_degenerate_type_one():
    ring = builtin_cyclic(2, [Fraction(0)] * 2)
    md = compute_modular_data(ring)
    pool = enumerate_invariants(md, commutant_basis(md, twist_sparsity(ring)))
    cls = classify_all(md, pool)
    all_ones = next(c for c in cls if c.Z.trace == 2 and c.Z.Z != identity(2))
    assert all_ones.kind == "type_I"
    assert all_ones.extended is not None and all_ones.extended.consistent
    assert all_ones.extended.z0.rational_value() == 1


def record_calls(monkeypatch, name):
    """Replace modinv.classify.<name> by a wrapper that logs each call's args."""
    calls = []
    original = getattr(modinv.classify, name)

    def wrapper(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(modinv.classify, name, wrapper)
    return calls


def _vacuum_key(md, Z):
    """All that global_indices reads of Z: the vacuum column and the vacuum
    row at the degenerate labels."""
    return Z.vacuum_column, tuple(Z.Z[0][l] for l in sorted(md.degenerates))


@pytest.mark.parametrize("ring", ["cyclic4_zero", "su2_16"])
def test_classify_all_does_exact_work_once(ring, request, monkeypatch):
    md, pool = request.getfixturevalue(ring)[:2]
    factorized = record_calls(monkeypatch, "factorize_type_one")
    indexed = record_calls(monkeypatch, "global_indices")
    extended = record_calls(monkeypatch, "extended_modular_data")
    cls = classify_all(md, pool)
    # Only Z = Z^T can factorize as B^T B: each such invariant is factorized
    # exactly once, in pool order, and no other invariant is.
    symmetric = [Z for Z in pool if Z.Z == tuple(zip(*Z.Z))]
    assert [id(args[1]) for args in factorized] == list(map(id, symmetric))
    # Global indices read Z only through its vacuum key: once per distinct key.
    keys = [_vacuum_key(md, args[1]) for args in indexed]
    assert sorted(keys) == sorted({_vacuum_key(md, Z) for Z in pool})
    # Extended data is needed for the first factorization of each type I
    # invariant and for the factorizations of coinciding parents; each such
    # (pool index, factorization) pair is computed at most once.
    needed = {id(c.factorizations[0]) for c in cls if c.factorizations}
    needed |= {
        id(b)
        for c in cls
        if c.automorphism is not None
        for b in cls[c.parent_plus[0]].factorizations
    }
    used = [id(args[1]) for args in extended]
    assert len(used) == len(set(used))
    assert set(used) <= needed


def test_z5_zero_twists_classification(monkeypatch):
    # The README library sequence on Z_5 with zero twists: 2161 invariants
    # sharing 70 vacuum keys. Shared indices must read exactly as fresh ones.
    ring = builtin_cyclic(5, [Fraction(0)] * 5)
    md = compute_modular_data(ring)
    pool = enumerate_invariants(md, commutant_basis(md, twist_sparsity(ring)))
    factorized = record_calls(monkeypatch, "factorize_type_one")
    bijections = record_calls(monkeypatch, "_block_bijections")
    cls = classify_all(md, pool)
    monkeypatch.undo()
    # Deterministic work counters: the symmetric invariants are factorized,
    # and the block bijections are searched once per pair of parent
    # factorizations of a vacuum key: two searches, over the 25 invariants
    # whose keys have parents on both sides.
    assert len(factorized) == 139
    assert [len(targets) for _plus, _minus, targets in bijections] == [24, 1]
    assert len(cls) == 2161
    assert Counter(c.kind for c in cls) == {
        "heterotic": 1704,
        "unresolved": 432,
        "permutation": 23,
        "diagonal": 1,
        "type_I": 1,
    }
    assert len({_vacuum_key(md, Z) for Z in pool}) == 70
    fields = ("w", "w_plus", "w_alpha", "w_zero")
    for Z, c in zip(pool, cls):
        fresh = global_indices(md, Z)
        for name in fields:
            assert _cyclotomic_form(getattr(c.indices, name)) == _cyclotomic_form(
                getattr(fresh, name)
            )
        notes = fresh.check()
        assert c.notes[: len(notes)] == notes
        assert fresh.chain_holds()


def _reference_bijection_fields(md, pool, cls):
    """Reference: the per-invariant loop classify_all ran before invariants
    were grouped by vacuum key. Each invariant tries the pairs of its
    parents' factorizations in the order (plus parent, minus parent, plus
    factorization, minus factorization) through find_block_bijection, and
    takes the first pair that joins it; coinciding parents make its theta an
    automorphism, checked against the parent's extended data afresh."""
    out = []
    for c in cls:
        fields = [None, 0, None, None, list(global_indices(md, c.Z).check())]
        pairs = (
            (ip, im, kp, bp, bm)
            for ip in c.parent_plus
            for im in c.parent_minus
            for kp, bp in enumerate(cls[ip].factorizations)
            for bm in cls[im].factorizations
        )
        for ip, im, kp, bp, bm in pairs:
            res = find_block_bijection(bp, bm, c.Z)
            if res is None:
                continue
            fields[:2] = res
            if ip == im:
                fields[2] = res[0]
                try:
                    ext = extended_modular_data(md, bp, global_indices(md, pool[ip]))
                    fields[3] = modinv.classify._permutation_preserves(ext, bp, res[0])
                except RankDeficientBranching:
                    pass
                if len(cls[ip].factorizations) > 1:
                    fields[4].append("coinciding parents admit multiple distinct factorizations")
            break
        if c.extended_error is not None:
            fields[4].append(
                "extended Y not determined by the branching (dependent rows); "
                "Gram-free identities checked instead"
            )
        out.append(fields)
    return out


BIJECTION_RINGS = [r[1:] for r in MEMO_RINGS] + [
    (builtin_cyclic, (n, [Fraction(0)] * n)) for n in (3, 4, 5)
]


@pytest.mark.parametrize(
    "build, args",
    BIJECTION_RINGS,
    ids=[r[0] for r in MEMO_RINGS] + ["z3_zero", "z4_zero", "z5_zero"],
)
def test_classify_all_bijections_match_the_public_search(build, args):
    # classify_all searches the block bijections once per vacuum key, over
    # the stack of the key's invariants; each invariant gets what the
    # per-invariant loop over the public find_block_bijection gives it.
    ring = build(*args)
    md = compute_modular_data(ring)
    pool = enumerate_invariants(md, commutant_basis(md, twist_sparsity(ring)))
    cls = classify_all(md, pool)
    got = [
        [c.bijection, c.bijection_count, c.automorphism, c.automorphism_preserves_extended,
         c.notes]
        for c in cls
    ]
    assert got == _reference_bijection_fields(md, pool, cls)


def test_one_search_per_key_gives_each_matrix_its_own_solutions():
    # Two matrices that one pair of branchings joins with different thetas,
    # and one it joins with none, searched together and one at a time.
    md = _zero_twist_data(3)
    plus = modinv.classify._branching_from_rows(md, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    minus = plus
    stack = np.array(
        [np.eye(3, dtype=np.int64), np.eye(3, dtype=np.int64)[[0, 2, 1]], np.ones((3, 3), int)]
    )
    together = modinv.classify._block_bijections(plus, minus, stack)
    alone = [
        find_block_bijection(plus, minus, CouplingMatrix(tuple(map(tuple, Z))))
        for Z in stack.tolist()
    ]
    assert together == alone == [((0, 1, 2), 1), ((0, 2, 1), 1), None]


def _sqrt2_power(k):
    """(sqrt 2 - 1)^k = (1 + sqrt 2)^-k in Q(zeta_8), with sqrt 2 = zeta_8 +
    zeta_8^-1: positive and about 5e-16 for k = 40, with coordinates near
    1e15, so its float embedding is mostly rounding error."""
    return (Cyclotomic(8, {1: 1, 7: 1}) - 1) ** k


@pytest.mark.parametrize(
    "w_zero, w_plus, w_alpha, w, holds",
    [
        (1, 2, 4, 4, True),
        (Fraction(1, 2), 1, 2, 4, False),  # 1 <= w_zero fails, rationally
        (1, 2, 3, Fraction(5, 2), False),  # w_alpha <= w fails, rationally
        (2, 2 + _sqrt2_power(40), 3, 4, True),
        (2, 2 - _sqrt2_power(40), 3, 4, False),  # floats cannot see this
        (1, 1, 1, Cyclotomic(4, {1: 1}), False),  # w = i is not real
    ],
)
def test_index_chain_is_decided_exactly(w_zero, w_plus, w_alpha, w, holds):
    def field(x):
        return x if isinstance(x, Cyclotomic) else Cyclotomic.from_rational(x)

    gi = GlobalIndices(*map(field, (w, w_plus, w_alpha, w_zero)))
    assert gi.chain_holds() is holds


@pytest.mark.parametrize("k", [9, 21])
def test_equal_indices_hold_the_chain_exactly(k):
    # The identity's four indices are all equal to w. Their float embeddings
    # differ in the last digits, so the pinned float note reads "violated";
    # the exact chain holds.
    ring = builtin_su2(k)
    md = compute_modular_data(ring)
    identity = [[int(l == m) for m in range(md.size)] for l in range(md.size)]
    gi = global_indices(md, verify_invariant(md, identity))
    assert gi.w_zero == gi.w_plus == gi.w_alpha == gi.w
    assert gi.chain_holds()


def test_classify_all_parents_match_find_parents(cyclic4_zero):
    md, pool = cyclic4_zero
    cls = classify_all(md, pool)
    assert any(c.parent_plus != c.parent_minus for c in cls)
    for Z, c in zip(pool, cls):
        assert (c.parent_plus, c.parent_minus) == find_parents(md, Z, pool)


def _reference_find_block_bijection(plus, minus, Z):
    """Reference: every block pair tested by its own product bplus_tau
    bminus_s^T <= Z, and every leaf by its own int_matmul."""
    t = plus.block_count
    if minus.block_count != t:
        return None
    n = len(Z.Z)
    Bp, Bm = int_array(plus.B).reshape(t, n), int_array(minus.B).reshape(t, n)
    target = int_array(Z.Z)
    compatible = [
        [
            s
            for s in range(t)
            if plus.block_twists[tau] == minus.block_twists[s]
            and plus.block_dims[tau] == minus.block_dims[s]
            and (int_matmul(Bp[tau, :, None], Bm[s, None]) <= target).all()
        ]
        for tau in range(t)
    ]
    found = [
        theta
        for theta in itertools.product(*compatible)
        if len(set(theta)) == t and (int_matmul(Bp.T, Bm[list(theta)]) == target).all()
    ]
    return (min(found), len(found)) if found else None


def _reference_classify_all(md, pool):
    """Reference: the per-invariant loop over the tuple matrices. Every
    invariant is factorized, its vacuum column, symmetry and identity are
    read off its entries, and its global indices and the extended data it
    needs are computed afresh."""
    facts = [factorize_type_one(md, Z) for Z in pool]
    by_column = {}
    for i, Z in enumerate(pool):
        if facts[i]:
            by_column.setdefault(Z.vacuum_column, []).append(i)
    out = []
    for i, Z in enumerate(pool):
        col, row = Z.vacuum_column, Z.vacuum_row
        sym = col == row
        idx = global_indices(md, Z)
        cls = Classification(index=i, Z=Z, kind="unresolved", vacuum_symmetric=sym, indices=idx)
        cls.notes.extend(idx.check())
        cls.factorizations = facts[i]
        cls.parent_plus = list(by_column.get(col, ()))
        cls.parent_minus = list(by_column.get(row, ()))
        pairs = (
            (ip, im, bp, bm)
            for ip in cls.parent_plus
            for im in cls.parent_minus
            for bp in facts[ip]
            for bm in facts[im]
        )
        for ip, im, bp, bm in pairs:
            res = _reference_find_block_bijection(bp, bm, Z)
            if res is None:
                continue
            cls.bijection, cls.bijection_count = res
            if ip == im:
                cls.automorphism = res[0]
                try:
                    ext = extended_modular_data(md, bp, global_indices(md, pool[ip]))
                    cls.automorphism_preserves_extended = modinv.classify._permutation_preserves(
                        ext, bp, res[0]
                    )
                except RankDeficientBranching:
                    pass
                if len(facts[ip]) > 1:
                    cls.notes.append("coinciding parents admit multiple distinct factorizations")
            break
        if Z.Z == identity(md.size):
            cls.kind = "diagonal"
        elif not sym:
            cls.kind = "heterotic"
        elif facts[i]:
            cls.kind = "type_I"
        elif cls.automorphism is not None:
            cls.kind = "permutation" if Z.is_permutation() else "type_II"
        if facts[i]:
            try:
                cls.extended = extended_modular_data(md, facts[i][0], idx)
            except RankDeficientBranching as exc:
                cls.extended_error = str(exc)
                cls.branching_failures = branching_checks(md, facts[i][0], idx)
                cls.notes.append(
                    "extended Y not determined by the branching (dependent rows); "
                    "Gram-free identities checked instead"
                )
        out.append(cls)
    return out


def _classification_form(c):
    """Every field of a Classification, each cyclotomic value by its
    `_cyclotomic_form` and each factorization by its `_branching_form`."""
    ext = c.extended
    return (
        c.index,
        c.Z,
        c.kind,
        c.vacuum_symmetric,
        [_cyclotomic_form(getattr(c.indices, f)) for f in ("w", "w_plus", "w_alpha", "w_zero")],
        list(map(_branching_form, c.factorizations)),
        c.parent_plus,
        c.parent_minus,
        c.bijection,
        c.bijection_count,
        c.automorphism,
        c.automorphism_preserves_extended,
        ext
        and (
            [list(map(_cyclotomic_form, row)) for row in ext.Yext],
            ext.Text_twists,
            _cyclotomic_form(ext.z0),
            ext.consistent,
            ext.failures,
        ),
        c.extended_error,
        c.branching_failures,
        c.notes,
    )


CLASSIFY_RINGS = (
    [(f"z{n}_zero", builtin_cyclic, (n, [Fraction(0)] * n)) for n in range(1, 6)]
    + [(f"su2_{k}", builtin_su2, (k,)) for k in range(17)]
    + [(f"so{n}", builtin_so_level1, (n,)) for n in (16, 32)]
    + [(f"z{n}_quadratic", builtin_cyclic, (n, quadratic_twists(n, 1))) for n in range(2, 13)]
    + [("z6_a2over4", builtin_cyclic, (6, [Fraction(a * a, 4) for a in range(6)]))]
)


@pytest.mark.parametrize(
    "build, args", [r[1:] for r in CLASSIFY_RINGS], ids=[r[0] for r in CLASSIFY_RINGS]
)
def test_classify_all_matches_the_per_invariant_reference(build, args):
    ring = build(*args)
    md = compute_modular_data(ring)
    pool = enumerate_invariants(md, commutant_basis(md, twist_sparsity(ring)))
    got = list(map(_classification_form, classify_all(md, pool)))
    assert got == list(map(_classification_form, _reference_classify_all(md, pool)))


@pytest.mark.parametrize(
    "build, args", [r[1:] for r in CLASSIFY_RINGS], ids=[r[0] for r in CLASSIFY_RINGS]
)
def test_identities_certified_by_divide_and_the_twist_mask(build, args):
    # No runtime check re-states these: w_zero = divide(w_plus^2, w_alpha),
    # each block dim is a divide by sum_l d_l Z_{l,0} = w / w_plus, and the
    # twist mask compares the integers h M instead of the twists.
    ring = build(*args)
    md = compute_modular_data(ring)
    h, n, d = ring.twists, ring.size, ring.dims
    mask = twist_sparsity(ring)
    assert mask.dtype == bool
    assert mask.tolist() == [[h[l] == h[m] for m in range(n)] for l in range(n)]
    for Z in enumerate_invariants(md, commutant_basis(md, mask)):
        idx = global_indices(md, Z)
        assert idx.w_zero * idx.w_alpha == idx.w_plus * idx.w_plus
        ratio = divide(idx.w_plus, md.w)
        for branching in factorize_type_one(md, Z):
            assert list(branching.block_dims) == [
                ratio * csum(d[l] * b[l] for l in range(n) if b[l]) for b in branching.B
            ]


def test_classify_all_matches_the_reference_past_int64():
    # Z_2 with zero twists has the invariants [[1, a], [a, 1]] for every a;
    # entries past int64 take the stack of Python ints.
    md = _zero_twist_data(2)
    pool = [verify_invariant(md, [[1, a], [a, 1]]) for a in (0, 1, 2**70, 2**70)]
    got = list(map(_classification_form, classify_all(md, pool)))
    assert got == list(map(_classification_form, _reference_classify_all(md, pool)))
    assert [c[2] for c in got] == ["diagonal", "type_I", "unresolved", "unresolved"]


_BLOCK_TWISTS = (Fraction(0), Fraction(1, 2))
_BLOCK_DIMS = (
    Cyclotomic.from_rational(1),
    Cyclotomic.from_rational(2),
    Cyclotomic(8, {1: 1, 7: 1}),  # sqrt 2
)


@st.composite
def block_bijection_cases(draw):
    """Two branchings with t <= 5 blocks of n <= 6 labels, entries 0-2, and
    block twists and dims from a small set. Often Z is bplus^T bminus[theta]
    for a random theta, with one entry sometimes raised, and the minus side
    mostly has the plus side's twists and dims carried over by theta."""
    n = draw(st.integers(1, 6))
    t = draw(st.integers(1, 5))
    rows = st.lists(st.tuples(*[st.integers(0, 2)] * n), min_size=t, max_size=t)
    twists = st.lists(st.sampled_from(_BLOCK_TWISTS), min_size=t, max_size=t)
    dims = st.lists(st.sampled_from(_BLOCK_DIMS), min_size=t, max_size=t)
    plus = BranchingData(t, tuple(draw(rows)), tuple(draw(twists)), tuple(draw(dims)))
    if draw(st.integers(0, 3)) == 0:  # block counts differ
        minus = BranchingData(
            t + 1,
            plus.B + plus.B[:1],
            plus.block_twists + plus.block_twists[:1],
            plus.block_dims + plus.block_dims[:1],
        )
    elif draw(st.booleans()):
        theta = draw(st.permutations(range(t)))
        inverse = sorted(range(t), key=theta.__getitem__)
        minus_twists = tuple(plus.block_twists[tau] for tau in inverse)
        minus_dims = tuple(plus.block_dims[tau] for tau in inverse)
        if draw(st.integers(0, 3)) == 0:
            minus_twists = tuple(draw(twists))
        if draw(st.integers(0, 3)) == 0:
            minus_dims = tuple(draw(dims))
        minus = BranchingData(t, tuple(draw(rows)), minus_twists, minus_dims)
        Z = [
            [sum(plus.B[tau][l] * minus.B[s][m] for tau, s in enumerate(theta)) for m in range(n)]
            for l in range(n)
        ]
        if draw(st.booleans()):
            Z[draw(st.integers(0, n - 1))][draw(st.integers(0, n - 1))] += 1
        return plus, minus, CouplingMatrix(tuple(map(tuple, Z)))
    else:
        minus = BranchingData(t, tuple(draw(rows)), tuple(draw(twists)), tuple(draw(dims)))
    entries = st.lists(st.integers(0, 4), min_size=n, max_size=n)
    Z = draw(st.lists(entries, min_size=n, max_size=n))
    return plus, minus, CouplingMatrix(tuple(map(tuple, Z)))


@given(block_bijection_cases())
@settings(max_examples=300, deadline=None)
def test_block_bijection_matches_brute_force(case):
    plus, minus, Z = case
    t, n = plus.block_count, len(Z.Z)
    found = [
        theta
        for theta in itertools.permutations(range(t))
        if minus.block_count == t
        and all(
            plus.block_twists[tau] == minus.block_twists[s]
            and plus.block_dims[tau] == minus.block_dims[s]
            for tau, s in enumerate(theta)
        )
        and all(
            sum(plus.B[tau][l] * minus.B[s][m] for tau, s in enumerate(theta)) == Z.Z[l][m]
            for l in range(n)
            for m in range(n)
        )
    ]
    expected = (min(found), len(found)) if found else None
    assert find_block_bijection(plus, minus, Z) == expected


def _dense_Y(md):
    """Reference: the scalar Y by a loop over every r of each N_{l,m}^r,
    m >= l, zero multiplicities skipped."""
    n, d, omega = md.size, md.ring.dims, md.omega
    t = [omega[r].conjugate() * d[r] for r in range(n)]
    Y = [[None] * n for _ in range(n)]
    for l in range(n):
        for m in range(l, n):
            s = csum(t[r] * c for r, c in enumerate(md.ring.fusion[l, m].tolist()) if c)
            Y[l][m] = Y[m][l] = omega[l] * omega[m] * s
    return Y


def _sympy_inverse(M):
    """Reference: the inverse of a square integer matrix by sympy's
    DomainMatrix over QQ. When it is singular, RankDeficientBranching names
    the rows in the span of the rows before them: those that are not pivots
    of the transpose's reduced echelon form."""
    pytest.importorskip("sympy")
    from sympy import QQ
    from sympy.polys.matrices import DomainMatrix
    from sympy.polys.matrices.exceptions import DMNonInvertibleMatrixError

    t = len(M)
    A = DomainMatrix([[QQ(int(x)) for x in row] for row in M], (t, t), QQ)
    try:
        inv = A.inv()
    except DMNonInvertibleMatrixError:
        pivots = set(A.transpose().rref()[1])
        dependent = [i for i in range(t) if i not in pivots]
        raise RankDeficientBranching(
            f"branching rows linearly dependent: rows {dependent}"
        ) from None
    return [[Fraction(int(x.numerator), int(x.denominator)) for x in row] for row in inv.to_list()]


def _adjoint_differs(Yext, w_zero):
    """Reference: the (t, t) mask of the entries where Yext Yext^dagger and
    w_zero times the identity differ, by one integer computation on the
    coordinates X of D Yext in the power basis of Q(zeta_m), with no value
    at a prime: column s of R holds the coordinates of zeta_m^s, so
    conjugation takes X[e] to R[:, -e] X[e], and the products
    X[e] conj(X)[f]^T, summed at e + f mod m, go back through R."""
    m = math.lcm(*(x.conductor for row in Yext for x in row), w_zero.conductor)
    X, D = coordinates(Yext, m)
    f, t = X.shape[:2]
    R = coordinates([Cyclotomic.zeta(m, s) for s in range(m)], m)[0]
    Xbar = int_matmul(R[:, (-np.arange(f)) % m], X.reshape(f, t * t)).reshape(f, t, t)
    C = int_matmul(X.reshape(f * t, t), Xbar.reshape(f * t, t).T).reshape(f, t, f, t)
    powers = np.zeros((m, t, t), dtype=int_dtype(f * int(abs(C).max())))
    for e in range(f):
        powers[(e + np.arange(f)) % m] += C[e].transpose(1, 0, 2)
    product = int_matmul(R, powers.reshape(m, t * t)).reshape(f, t, t).astype(object)
    W, Dw = coordinates(w_zero, m)
    expected = W.astype(object)[:, None, None] * D**2 * np.eye(t, dtype=int).astype(object)
    return (product * Dw != expected).any(axis=0)


def _scalar_extended_modular_data(md, branching, indices, Y):
    """Reference: extended_modular_data with every check as an entry-by-entry
    Cyclotomic loop, B Y and B Y B^T scanned over every label, and Yext
    summed over every k, zero Gram-inverse entries included, from sympy's
    inverse and the dense scalar Y = `_dense_Y(md)`, which the caller builds
    once per ring; Yext Yext^dagger = w_zero 1 is checked by
    `_adjoint_differs`."""
    t = branching.block_count
    n = md.size
    B = branching.B
    gram = [[sum(B[a][l] * B[b][l] for l in range(n)) for b in range(t)] for a in range(t)]
    ginv = _sympy_inverse(gram)
    BY = [
        [csum(Y[l][m] * B[a][l] for l in range(n) if B[a][l]) for m in range(n)]
        for a in range(t)
    ]
    BYBt = [
        [csum(BY[a][l] * B[b][l] for l in range(n) if B[b][l]) for b in range(t)]
        for a in range(t)
    ]
    ratio = divide(indices.w_plus, md.w)
    Yext = [
        [ratio * csum(BYBt[a][k] * ginv[k][b] for k in range(t)) for b in range(t)]
        for a in range(t)
    ]
    failures = []
    for a in range(t):
        for m in range(n):
            lhs = csum(Yext[a][b] * B[b][m] for b in range(t) if B[b][m])
            if lhs != ratio * BY[a][m]:
                failures.append(f"intertwining fails at block {a}, label {m}")
    for a in range(t):
        for b in range(a + 1, t):
            if Yext[a][b] != Yext[b][a]:
                failures.append(f"Yext not symmetric at ({a},{b})")
    for a in range(t):
        h_a = branching.block_twists[a]
        for l in range(n):
            if B[a][l] and md.ring.twists[l] != h_a:
                failures.append(f"twist intertwining fails at block {a}, label {l}")
    om = [root_of_unity(h) for h in branching.block_twists]
    z0 = csum(branching.block_dims[a] * branching.block_dims[a] * om[a] for a in range(t))
    if z0 != ratio * md.z:
        failures.append("z0 != (w_plus/w) z")
    if md.nondegenerate:
        for a, b in np.argwhere(_adjoint_differs(Yext, indices.w_zero)).tolist():
            if a != b:
                failures.append(f"Yext Yext^dagger not diagonal at ({a},{b})")
            else:
                failures.append(f"(Yext Yext^dagger)[{a},{a}] != w_zero")
    return ExtendedModularData(
        Yext=Yext,
        Text_twists=branching.block_twists,
        z0=z0,
        consistent=not failures,
        failures=failures,
    )


EXTENDED_RINGS = [
    builtin_so_level1(16),
    builtin_su2(4),
    builtin_cyclic(4, quadratic_twists(4, 1)),
    builtin_cyclic(4, [Fraction(0)] * 4),  # degenerate: no Yext Yext^dagger check
]


@cache
def _extended_ring(i):
    """The modular data of EXTENDED_RINGS[i], the global indices of its
    identity invariant and its `_dense_Y`, built once."""
    md = compute_modular_data(EXTENDED_RINGS[i])
    n = md.size
    identity = CouplingMatrix(tuple(tuple(int(l == m) for m in range(n)) for l in range(n)))
    return md, global_indices(md, identity), _dense_Y(md)


@st.composite
def branchings(draw):
    """Branching rows for the identity's indices: the identity's own rows with
    one or two entries changed or a row dropped, or random rows; block twists
    and dims either read off each row's first label or drawn at random."""
    md, indices, Y = _extended_ring(draw(st.integers(0, len(EXTENDED_RINGS) - 1)))
    n, ring = md.size, md.ring
    index = st.integers(0, n - 1)
    if draw(st.booleans()):
        B = [[int(l == m) for m in range(n)] for l in range(n)]
        for _ in range(draw(st.integers(0, 2))):
            B[draw(index)][draw(index)] = draw(st.integers(0, 2))
        if draw(st.booleans()):
            del B[draw(st.integers(0, n - 1))]
    else:
        row = st.lists(st.integers(0, 2), min_size=n, max_size=n)
        B = draw(st.lists(row, min_size=1, max_size=n))
    B = [b for b in B if any(b)] or [[1] + [0] * (n - 1)]
    twists, dims = [], []
    for b in B:
        first = next(l for l in range(n) if b[l])
        if draw(st.booleans()):
            twists.append(ring.twists[first])
            dims.append(csum(ring.dims[l] * b[l] for l in range(n) if b[l]))
        else:
            twists.append(draw(st.sampled_from(sorted(set(ring.twists)))))
            dims.append(Cyclotomic.from_rational(draw(st.integers(1, 3))))
    branching = BranchingData(len(B), tuple(map(tuple, B)), tuple(twists), tuple(dims))
    return md, branching, indices, Y


@given(branchings())
@settings(max_examples=120, deadline=None)
def test_extended_checks_match_scalar_reference(case):
    md, branching, indices, Y = case
    try:
        expected = _scalar_extended_modular_data(md, branching, indices, Y)
    except RankDeficientBranching as exc:
        with pytest.raises(RankDeficientBranching, match=re.escape(str(exc))):
            extended_modular_data(md, branching, indices)
        return
    assert extended_modular_data(md, branching, indices) == expected


@pytest.mark.parametrize("i", range(3), ids=[ring.name for ring in EXTENDED_RINGS[:3]])
def test_adjoint_reference_matches_the_scalar_products(i):
    # `_adjoint_differs` against the entry-by-entry Cyclotomic products, on
    # Y, the Yext of the diagonal invariant, and on Y with one entry changed.
    md, indices, _ = _extended_ring(i)
    n, w0 = md.size, indices.w_zero
    Y = [list(row) for row in md.Y]
    for corrupted in (False, True):
        if corrupted:
            Y[0][1] = Y[0][1] + 1
        products = [
            [csum(Y[a][k] * Y[b][k].conjugate() for k in range(n)) for b in range(n)]
            for a in range(n)
        ]
        expected = [[products[a][b] != (w0 if a == b else 0) for b in range(n)] for a in range(n)]
        assert _adjoint_differs(Y, w0).tolist() == expected
        assert any(map(any, expected)) == corrupted


def _cyclotomic_form(x):
    """What the report reads of an element: its coordinates in slot order
    (the summation order of embed()), denominator and conductor."""
    return list(x.num.items()), x.den, x.conductor


SLOT_ORDER_RINGS = (
    [(f"su2_{k}", builtin_su2, (k,)) for k in range(1, 33)]
    + [(f"so{n}", builtin_so_level1, (n,)) for n in (16, 32)]
    + [(f"z{n}_quadratic", builtin_cyclic, (n, quadratic_twists(n, 1))) for n in range(2, 13)]
    + [(f"z{n}_zero", builtin_cyclic, (n, [Fraction(0)] * n)) for n in (3, 4)]
)


def _extended_form(ext):
    """Yext and z0 by `_cyclotomic_form`, and the failures."""
    Yext = [list(map(_cyclotomic_form, row)) for row in ext.Yext]
    return Yext, _cyclotomic_form(ext.z0), ext.failures


@pytest.mark.parametrize(
    "build, args", [r[1:] for r in SLOT_ORDER_RINGS], ids=[r[0] for r in SLOT_ORDER_RINGS]
)
def test_yext_keeps_the_slot_order_of_the_full_sum(build, args):
    # Sums over the nonzero entries of N, B and the Gram inverse only, and
    # residuals updated on a row's support only, must leave every value a
    # report prints as the dense loops build it: Y, z and w with their
    # coordinates, slot order, denominator and conductor, S bit for bit, and
    # on every factorization of every invariant its rows, its Gram inverse,
    # and Yext, z0 and the failures of its extended data.
    ring = build(*args)
    md = compute_modular_data(ring)
    n, d, omega = md.size, ring.dims, md.omega
    Y = _dense_Y(md)
    assert [list(map(_cyclotomic_form, row)) for row in md.Y] == [
        list(map(_cyclotomic_form, row)) for row in Y
    ]
    z = csum(d[r] * d[r] * omega[r] for r in range(n))
    assert _cyclotomic_form(md.z) == _cyclotomic_form(z)
    assert _cyclotomic_form(md.w) == _cyclotomic_form(csum(d[r] * d[r] for r in range(n)))
    if md.S_numeric is not None:
        S = np.array([[y.embed() for y in row] for row in Y]) / abs(md.z.embed())
        assert md.S_numeric.tobytes() == S.tobytes()
    pool = enumerate_invariants(md, commutant_basis(md, twist_sparsity(ring)))
    checked = 0
    for Z in pool:
        indices = global_indices(md, Z)
        factorizations = factorize_type_one(md, Z)
        assert list(map(_branching_form, factorizations)) == list(
            map(_branching_form, _reference_factorize_type_one(md, Z))
        )
        for branching in factorizations:
            try:
                expected = _scalar_extended_modular_data(md, branching, indices, Y)
            except RankDeficientBranching as exc:
                with pytest.raises(RankDeficientBranching, match=re.escape(str(exc))):
                    extended_modular_data(md, branching, indices)
                continue
            got = extended_modular_data(md, branching, indices)
            assert _extended_form(got) == _extended_form(expected)
            checked += 1
    assert checked
