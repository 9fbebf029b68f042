"""End-to-end acceptance suite.

Each test covers one acceptance criterion, enforces the stated runtime
budget where one applies, and prints a single PASS line on success (pytest
aborts the test before the print when an assertion fails).
"""

import itertools
import time
from fractions import Fraction

import pytest

from modinv.cyclo import csum, divide
from modinv.fusion import builtin_cyclic, builtin_so_level1, builtin_su2
from modinv.modular import compute_modular_data, verify_statistics_axioms
from modinv.commutant import commutant_basis, enumerate_invariants, twist_sparsity
from modinv.classify import (
    RankDeficientBranching,
    branching_checks,
    classify_all,
    extended_modular_data,
    in_rational_span,
)

from test_commutant import IDENTITY4, Q, Q_T, SO16_EXPECTED, W, X_C, X_S, identity
from test_fusion import quadratic_twists


def full_pipeline(ring, **kwargs):
    md = compute_modular_data(ring)
    basis = commutant_basis(md, twist_sparsity(ring))
    pool = enumerate_invariants(md, basis, **kwargs)
    return md, pool, classify_all(md, pool)


@pytest.fixture(scope="module")
def so16_run():
    t0 = time.perf_counter()
    md, pool, cls = full_pipeline(builtin_so_level1(16))
    return md, pool, cls, time.perf_counter() - t0


@pytest.fixture(scope="module")
def su2_16_run():
    t0 = time.perf_counter()
    md, pool, cls = full_pipeline(builtin_su2(16))
    return md, pool, cls, time.perf_counter() - t0


@pytest.fixture(scope="module")
def su2_6_run():
    t0 = time.perf_counter()
    md, pool, cls = full_pipeline(builtin_su2(6))
    return md, pool, cls, time.perf_counter() - t0


def classification_of(pool, cls, matrix):
    for Z, c in zip(pool, cls):
        if Z.Z == matrix:
            return c
    raise AssertionError("matrix not found in pool")


def test_criterion_1_so16_end_to_end(so16_run):
    md, pool, cls, elapsed = so16_run
    assert {Z.Z for Z in pool} == SO16_EXPECTED
    assert len(pool) == 6
    assert elapsed < 1.0
    print(f"PASS [criterion 1] rank-4 two-spinor ring: exactly the 6 expected "
          f"invariants, {elapsed:.3f}s")


def test_criterion_2_heterotic_taxonomy(so16_run):
    md, pool, cls, elapsed = so16_run
    cq = classification_of(pool, cls, Q)
    cqt = classification_of(pool, cls, Q_T)
    assert cq.kind == "heterotic" and cqt.kind == "heterotic"
    assert [pool[i].Z for i in cq.parent_plus] == [X_S]
    assert [pool[i].Z for i in cq.parent_minus] == [X_C]
    assert classification_of(pool, cls, X_S).kind == "type_I"
    assert classification_of(pool, cls, X_C).kind == "type_I"
    cw = classification_of(pool, cls, W)
    assert cw.kind == "permutation"
    assert [pool[i].Z for i in cw.parent_plus] == [IDENTITY4]
    assert elapsed < 1.0
    print("PASS [criterion 2] heterotic pair with its two local parents; the "
          "spinor swap is a permutation invariant over the diagonal parent")


def test_criterion_3_linear_dependence(so16_run):
    md, pool, cls, _ = so16_run
    find = lambda M: next(Z for Z in pool if Z.Z == M)
    combo = [
        [
            find(IDENTITY4).Z[l][m] - find(W).Z[l][m] - find(X_S).Z[l][m]
            - find(X_C).Z[l][m] + find(Q).Z[l][m] + find(Q_T).Z[l][m]
            for m in range(4)
        ]
        for l in range(4)
    ]
    assert combo == [[0] * 4 for _ in range(4)]
    symmetric = [Z for Z in pool if Z.vacuum_symmetric]
    assert len(symmetric) == 4
    assert not in_rational_span(find(Q), symmetric)
    print("PASS [criterion 3] single linear relation verified entrywise; the "
          "asymmetric invariant is outside the rational span of the symmetric ones")


def test_criterion_4_su2_16_parents(su2_16_run):
    md, pool, cls, elapsed = su2_16_run
    assert len(pool) == 3
    diag = next(c for c in cls if c.Z.trace == 17)
    d10 = next(c for c in cls if c.Z.trace == 10)
    e7 = next(c for c in cls if c.Z.trace == 7)
    assert diag.kind == "diagonal"
    assert d10.kind == "type_I"
    assert e7.kind == "type_II" and e7.type_two
    assert e7.parent_plus == [d10.index] and e7.parent_minus == [d10.index]
    assert [l for l, v in enumerate(d10.Z.vacuum_column) if v] == [0, 16]
    # Doubled-bound re-run agrees (bound-completeness regression).
    _, pool2, _ = full_pipeline(builtin_su2(16), bound_scale=2)
    assert [Z.Z for Z in pool2] == [Z.Z for Z in pool]
    assert elapsed < 60.0
    print(f"PASS [criterion 4] level-16 triple (diagonal, orbit fold, "
          f"exceptional) with the expected parent; doubled bound stable, {elapsed:.2f}s")


def test_criterion_5_d_odd_parent(su2_6_run):
    md, pool, cls, elapsed = su2_6_run
    d5 = next(c for c in cls if c.Z.trace == 5)
    assert d5.type_two
    assert d5.automorphism is not None
    assert [pool[i].Z for i in d5.parent_plus] == [identity(md.size)]
    assert [pool[i].Z for i in d5.parent_minus] == [identity(md.size)]
    assert elapsed < 10.0
    print(f"PASS [criterion 5] level-6 odd fold: automorphism invariant over "
          f"the diagonal parent, {elapsed:.2f}s")


def test_criterion_6_statistics_axioms():
    rings = [builtin_su2(k) for k in range(1, 17)]
    rings += [builtin_so_level1(16), builtin_so_level1(32)]
    rings += [
        builtin_cyclic(1, [Fraction(0)]),
        builtin_cyclic(2, [Fraction(0)] * 2),
        builtin_cyclic(2, [Fraction(0), Fraction(1, 4)]),
        builtin_cyclic(4, quadratic_twists(4, 1)),
        builtin_cyclic(5, quadratic_twists(5, 2)),
    ]
    for ring in rings:
        md = compute_modular_data(ring)
        failures = verify_statistics_axioms(md)
        assert failures == [], f"{ring.name}: {failures}"
    print(f"PASS [criterion 6] statistics axioms exact on {len(rings)} builtin rings")


def test_criterion_7_degenerate_enumeration():
    ring = builtin_cyclic(2, [Fraction(0)] * 2)
    md, pool, cls = full_pipeline(ring)
    assert md.degenerates == frozenset({0, 1})
    assert {Z.Z for Z in pool} == {((1, 0), (0, 1)), ((1, 1), (1, 1))}
    all_ones = next(c for c in cls if c.Z.Z != identity(2))
    assert all_ones.indices.w_alpha.rational_value() == 1
    # Independent oracle: brute force over all 2x2 integer matrices with
    # entries <= 1, exact commutation with the all-ones Y.
    oracle = set()
    for flat in itertools.product(range(2), repeat=4):
        Z = (flat[0:2], flat[2:4])
        if Z[0][0] != 1:
            continue
        ok = all(
            csum(md.Y[l][a] * Z[a][m] for a in range(2))
            == csum(md.Y[a][m] * Z[l][a] for a in range(2))
            for l in range(2)
            for m in range(2)
        )
        if ok:
            oracle.add(Z)
    assert oracle == {Z.Z for Z in pool}
    print("PASS [criterion 7] fully degenerate order-2 ring: both labels "
          "degenerate, two invariants, alpha-index 1, brute-force oracle agrees")


def test_criterion_8_extended_data_identities(so16_run, su2_16_run, su2_6_run):
    checked = 0
    gram_free = 0
    for md, pool, cls, _ in (so16_run, su2_16_run, su2_6_run):
        ratio_cache = {}
        for c in cls:
            if not c.factorizations:
                continue
            branching = c.factorizations[0]
            assert branching_checks(md, branching, c.indices) == []
            try:
                ext = extended_modular_data(md, branching, c.indices)
                assert ext.consistent, ext.failures
                # z0 w = w_plus z and the index identity, re-stated directly.
                assert ext.z0 * md.w == c.indices.w_plus * md.z
                checked += 1
            except RankDeficientBranching:
                # Repeated branching rows (split fixed point): Yext is not a
                # function of the branching; the Gram-free identities above
                # already passed exactly.
                gram_free += 1
            assert c.indices.w_zero * c.indices.w_alpha == c.indices.w_plus ** 2
    assert checked >= 4 and gram_free == 1
    print(f"PASS [criterion 8] extended data identities exact on {checked} "
          f"factorizations (+{gram_free} split fixed point via Gram-free checks)")


def test_criterion_9_property_suite(so16_run, su2_6_run):
    from modinv.report import build_report, render_json

    rings = [
        builtin_so_level1(16),
        builtin_su2(4),
        builtin_su2(6),
        builtin_cyclic(1, [Fraction(0)]),
        builtin_cyclic(2, [Fraction(0)] * 2),
        builtin_cyclic(3, quadratic_twists(3, 1)),
        builtin_cyclic(4, quadratic_twists(4, 3)),
        builtin_cyclic(6, quadratic_twists(6, 1)),
    ]
    for ring in rings:
        md = compute_modular_data(ring)
        basis = commutant_basis(md, twist_sparsity(ring))
        pool = enumerate_invariants(md, basis)
        n = ring.size
        mats = {Z.Z for Z in pool}
        identity = tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))
        assert identity in mats
        for Z in pool:
            for l in range(n):
                for m in range(n):
                    if Z.Z[l][m]:
                        assert ring.twists[l] == ring.twists[m]
            col = csum(ring.dims[l] * Z.Z[l][0] for l in range(n))
            row = csum(ring.dims[m] * Z.Z[0][m] for m in range(n))
            assert col == row
            assert tuple(tuple(Z.Z[j][i] for j in range(n)) for i in range(n)) in mats
        # Byte-identical reports across two independent runs.
        reports = []
        for _ in range(2):
            md_run = compute_modular_data(ring)
            pool_run = enumerate_invariants(md_run, commutant_basis(md_run, twist_sparsity(ring)))
            cls_run = classify_all(md_run, pool_run)
            reports.append(render_json(build_report(md_run, pool_run, cls_run)))
        assert reports[0] == reports[1]
    print(f"PASS [criterion 9] enumeration properties and byte-identical "
          f"reports on {len(rings)} rings")
