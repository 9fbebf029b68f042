"""Commutant kernel and exhaustive enumeration of coupling matrices.

Brute-force oracles recompute the small cases independently of the search:
every bounded integer matrix is tested against YZ = ZY in exact arithmetic.
"""

import itertools
import math
from fractions import Fraction
from functools import lru_cache

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from modinv import commutant, linalg
from modinv.cyclo import Cyclotomic, csum, real_floor
from modinv.fusion import builtin_cyclic, builtin_so_level1, builtin_su2
from modinv.linalg import kernel
from modinv.modular import compute_modular_data
from modinv.commutant import (
    CouplingMatrix,
    InvariantRejected,
    Pool,
    SearchBudgetExceeded,
    _gram,
    _noncommuting,
    _verify_pool,
    commutant_basis,
    enumerate_invariants,
    twist_sparsity,
    verify_invariant,
)

from test_fusion import NOT_EXACT, quadratic_twists, strip_dims

# The six coupling matrices of the two-spinor rank-4 ring: identity, the
# spinor swap W, the two local extensions X_s and X_c, and the asymmetric
# pair Q, Q^T.
IDENTITY4 = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
W = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 0, 1), (0, 0, 1, 0))
X_S = ((1, 0, 1, 0), (0, 0, 0, 0), (1, 0, 1, 0), (0, 0, 0, 0))
X_C = ((1, 0, 0, 1), (0, 0, 0, 0), (0, 0, 0, 0), (1, 0, 0, 1))
Q = ((1, 0, 0, 1), (0, 0, 0, 0), (1, 0, 0, 1), (0, 0, 0, 0))
Q_T = tuple(tuple(Q[j][i] for j in range(4)) for i in range(4))
SO16_EXPECTED = {IDENTITY4, W, X_S, X_C, Q, Q_T}


def identity(n):
    """The n x n identity as a coupling matrix's rows."""
    return tuple(tuple(int(l == m) for m in range(n)) for l in range(n))


def pipeline(ring, **kwargs):
    md = compute_modular_data(ring)
    basis = commutant_basis(md, twist_sparsity(ring))
    return md, basis, enumerate_invariants(md, basis, **kwargs)


def brute_force_invariants(md, bound_scale=1):
    """Oracle: all matrices with 0 <= Z_lm <= ceil(bound_scale d_l d_m),
    Z_00 = 1 and Z_lm = 0 off equal twists, tested against YZ = ZY all at once
    by its own einsum over the integer coordinates of Y (md.Y_coords)."""
    n = md.size
    d = [x.embed().real for x in md.ring.dims]
    h = md.ring.twists
    ranges = []
    for l in range(n):
        for m in range(n):
            if l == m == 0:
                ranges.append([1])
            elif h[l] != h[m]:
                ranges.append([0])
            else:
                ranges.append(range(0, math.ceil(bound_scale * d[l] * d[m] - 1e-9) + 1))
    Z = np.array(list(itertools.product(*ranges)), dtype=np.int64).reshape(-1, n, n)
    Y = md.Y_coords
    commutes = np.einsum("eab,kbc->keac", Y, Z) == np.einsum("kab,ebc->keac", Z, Y)
    return {tuple(map(tuple, M)) for M in Z[commutes.all(axis=(1, 2, 3))].tolist()}


def _reference_enumerate(md, basis, bound_scale=1):
    """Reference: the search as it was before siblings were expanded as
    batches, a recursive depth-first search one node at a time with float
    entry bounds; its sorted pool (unverified) and its node count."""
    n = md.size
    if basis.dimension == 0 or basis.positions[0] != (0, 0) or basis.pivot_indices[0] != 0:
        return [], 0
    d = [x.embed().real for x in md.ring.dims]
    positions = basis.positions
    npos = len(positions)
    scale = float(bound_scale)
    bounds = [max(0, math.ceil(scale * d[l] * d[m] - 1e-9)) for (l, m) in positions]
    pivots = basis.pivot_indices
    L = basis.denominator
    bvecs = basis.rows.tolist()
    k = len(pivots)
    seg_end = [pivots[i + 1] if i + 1 < k else npos for i in range(k)]
    r0_len = sum(1 for (l, _m) in positions if l == 0)
    results = []
    nodes = 0

    def column_targets(acc):
        sums = [0.0] * n
        for j, (l, m) in enumerate(positions):
            sums[m] += d[l] * acc[j]
        return [s / L + 1e-6 * (1 + abs(s / L)) for s in sums]

    def dfs(i, acc, col_sum, targets):
        nonlocal nodes
        lo, hi = (1, 1) if i == 0 else (0, bounds[pivots[i]])
        for v in range(lo, hi + 1):
            nodes += 1
            new_acc = [a + v * b for a, b in zip(acc, bvecs[i])]
            new_cols = list(col_sum)
            new_targets = targets
            for j in range(pivots[i], seg_end[i]):
                x, r = divmod(new_acc[j], L)
                if x < 0 or r or x > bounds[j]:
                    break
                l, m = positions[j]
                if x:
                    new_cols[m] += d[l] * float(x)
                if new_targets is not None and new_cols[m] > new_targets[m]:
                    break
                if j == r0_len - 1:
                    new_targets = column_targets(new_acc)
                    if any(c > t for c, t in zip(new_cols, new_targets)):
                        break
            else:
                if i + 1 < k:
                    dfs(i + 1, new_acc, new_cols, new_targets)
                else:
                    Z = [[0] * n for _ in range(n)]
                    for j, (l, m) in enumerate(positions):
                        Z[l][m] = new_acc[j] // L
                    results.append(tuple(tuple(row) for row in Z))

    dfs(0, [0] * npos, [0.0] * n, None)
    return sorted(set(results)), nodes


def test_so16_sparsity_pattern():
    ring = builtin_so_level1(16)
    mask = twist_sparsity(ring)
    # Twists (0, 1/2, 1, 1) mod 1: labels {0, s, c} pair freely, v only with itself.
    assert mask.shape == (4, 4) and mask.sum() == 10
    assert mask[1, 1] and not mask[0, 1]


@pytest.mark.parametrize("scale", NOT_EXACT)
def test_enumerate_invariants_rejects_a_bound_scale_that_is_not_exact(scale):
    md, basis, _ = pipeline(builtin_so_level1(16))
    with pytest.raises(TypeError, match="expected int or Fraction"):
        enumerate_invariants(md, basis, bound_scale=scale)


def test_so16_commutant_basis():
    ring = builtin_so_level1(16)
    md = compute_modular_data(ring)
    basis = commutant_basis(md, twist_sparsity(ring))
    # Six invariants with exactly one linear relation span dimension 5.
    assert basis.dimension == 5
    assert basis.positions[0] == (0, 0) and basis.pivot_indices[0] == 0


def test_so16_enumeration_matches_brute_force():
    md, _, invs = pipeline(builtin_so_level1(16))
    assert {Z.Z for Z in invs} == SO16_EXPECTED
    assert brute_force_invariants(md) == SO16_EXPECTED
    assert invs == [verify_invariant(md, Z.Z) for Z in invs]


def test_search_returns_one_read_only_stack():
    # The pool is the stack its checks ran on: each item reads its own row,
    # builds Z only when Z is read, and equals the eager matrix; neither the
    # stack nor the list changes in place.
    _, _, pool = pipeline(builtin_so_level1(16))
    assert isinstance(pool, Pool) and isinstance(pool, list)
    assert pool.stack.shape == (6, 4, 4) and not pool.stack.flags.writeable
    assert all(Z._Z is None for Z in pool)
    rows = [tuple(map(tuple, M)) for M in pool.stack.tolist()]
    assert [Z.Z for Z in pool] == rows
    eager = [CouplingMatrix(Z=M) for M in rows]
    assert pool == eager and list(map(hash, pool)) == list(map(hash, eager))
    assert repr(pool[0]) == f"CouplingMatrix(Z={rows[0]!r})"
    for mutate in (lambda: pool.append(eager[0]), lambda: pool.__setitem__(0, eager[1])):
        with pytest.raises(TypeError):
            mutate()
    with pytest.raises(ValueError):
        pool.stack[0, 0, 0] = 2


def test_cyclic2_enumeration_matches_brute_force():
    ring = builtin_cyclic(2, [Fraction(0)] * 2)
    md, _, invs = pipeline(ring)
    expected = {((1, 0), (0, 1)), ((1, 1), (1, 1))}
    assert {Z.Z for Z in invs} == expected
    assert brute_force_invariants(md) == expected


def test_trivial_ring_enumeration():
    _, _, invs = pipeline(builtin_cyclic(1, [Fraction(0)]))
    assert [Z.Z for Z in invs] == [((1,),)]


@pytest.mark.parametrize("k", [2, 3, 4, 6])
def test_su2_enumeration_properties(k):
    ring = builtin_su2(k)
    md, _, invs = pipeline(ring)
    mats = {Z.Z for Z in invs}
    n = ring.size
    identity = tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))
    assert identity in mats
    # Transpose closure.
    assert all(tuple(tuple(M[j][i] for j in range(n)) for i in range(n)) in mats for M in mats)
    # Twist blocking and equal vacuum-weighted sums.
    d = ring.dims
    for Z in invs:
        for l in range(n):
            for m in range(n):
                if Z.Z[l][m]:
                    assert ring.twists[l] == ring.twists[m]
        col = csum(d[l] * Z.Z[l][0] for l in range(n))
        row = csum(d[m] * Z.Z[0][m] for m in range(n))
        assert col == row


def test_su2_2_enumeration_matches_brute_force():
    # Level 2 is the largest su2 case where the oracle's full product space
    # stays small (all twist classes are singletons).
    md, _, invs = pipeline(builtin_su2(2))
    assert {Z.Z for Z in invs} == brute_force_invariants(md)


def test_su2_6_invariant_count():
    _, _, invs = pipeline(builtin_su2(6))
    assert len(invs) == 2  # diagonal and the even/odd folding


def test_doubled_bound_is_stable_nondegenerate():
    for ring in [builtin_so_level1(16), builtin_su2(6), builtin_cyclic(4, quadratic_twists(4, 1))]:
        _, _, invs1 = pipeline(ring)
        _, _, invs2 = pipeline(ring, bound_scale=2)
        assert [Z.Z for Z in invs1] == [Z.Z for Z in invs2]


def test_degenerate_braiding_admits_solutions_beyond_the_unit_bound():
    # With the fully degenerate braiding Y = all-ones, the entry bound
    # d_l d_m = 1 is not a completeness bound: [[1,2],[2,1]] also commutes
    # exactly and appears once the bound is doubled.
    ring = builtin_cyclic(2, [Fraction(0)] * 2)
    md, _, invs2 = pipeline(ring, bound_scale=2)
    extra = ((1, 2), (2, 1))
    assert extra in {Z.Z for Z in invs2}
    assert verify_invariant(md, [list(r) for r in extra]).Z == extra


def test_node_budget_raises_with_partial_results():
    ring = builtin_su2(6)
    md = compute_modular_data(ring)
    basis = commutant_basis(md, twist_sparsity(ring))
    with pytest.raises(SearchBudgetExceeded) as exc:
        enumerate_invariants(md, basis, node_budget=1)
    assert exc.value.budget == 1
    assert isinstance(exc.value.partial, list)


@pytest.mark.parametrize(
    "ring, scale, nodes",
    [
        (builtin_cyclic(4, [Fraction(0)] * 4), 1, 513),
        (builtin_cyclic(4, [Fraction(0)] * 4), 2, 12_760),
        (builtin_su2(16), 1, 23),
        (builtin_cyclic(8, [Fraction(a * a, 8) for a in range(8)]), 1, 131),
        (builtin_cyclic(5, [Fraction(0)] * 5), 1, 24_889),
        # Irrational dims where the column-sum prune fires; without it the
        # counts are 31, 91, 49, 141 and 689.
        (builtin_su2(10), 1, 16),
        (builtin_su2(10), 2, 28),
        (builtin_su2(18), 1, 14),
        (builtin_su2(18), 2, 24),
        (builtin_su2(22), 1, 46),
    ],
    ids=[
        "z4_zero",
        "z4_zero_scale2",
        "su2_16",
        "z8_quadratic",
        "z5_zero",
        "su2_10",
        "su2_10_scale2",
        "su2_18",
        "su2_18_scale2",
        "su2_22",
    ],
)
def test_search_visits_a_pinned_number_of_nodes(ring, scale, nodes):
    # The exact number of nodes the full search visits: any change to its
    # entry bounds or column-sum pruning moves it.
    md = compute_modular_data(ring)
    basis = commutant_basis(md, twist_sparsity(ring))
    enumerate_invariants(md, basis, bound_scale=scale, node_budget=nodes)
    with pytest.raises(SearchBudgetExceeded):
        enumerate_invariants(md, basis, bound_scale=scale, node_budget=nodes - 1)


@pytest.mark.parametrize(
    "ring", [builtin_su2(10), builtin_cyclic(5, [Fraction(0)] * 5)], ids=["su2_10", "z5_zero"]
)
def test_search_reads_no_float(ring, monkeypatch):
    # Entry bounds and the column-sum prune are decided in integers: the
    # search never embeds a dim.
    md = compute_modular_data(ring)
    basis = commutant_basis(md, twist_sparsity(ring))
    expected = enumerate_invariants(md, basis)

    def embed(self):
        raise AssertionError("the search embedded a cyclotomic number")

    monkeypatch.setattr(Cyclotomic, "embed", embed)
    assert enumerate_invariants(md, basis) == expected


@pytest.mark.parametrize(
    "ring",
    [builtin_su2(10), builtin_su2(22), builtin_cyclic(4, [Fraction(0)] * 4)],
    ids=["su2_10", "su2_22", "z4_zero"],
)
def test_search_pool_does_not_depend_on_the_bracket_width(ring, monkeypatch):
    # The prune bounds each column's remainder from above: brackets of the
    # dims widened to +-d_l / 2 prune less and must find the same pool.
    md = compute_modular_data(ring)
    basis = commutant_basis(md, twist_sparsity(ring))
    expected = enumerate_invariants(md, basis)
    real_bounds = commutant.real_bounds

    def wide(xs, bits):
        return [(lo - 2 ** (bits - 1), hi + 2 ** (bits - 1)) for lo, hi in real_bounds(xs, bits)]

    monkeypatch.setattr(commutant, "real_bounds", wide)
    assert enumerate_invariants(md, basis) == expected


def _search_rings():
    rings = [builtin_su2(k) for k in range(13)] + [builtin_so_level1(16), builtin_so_level1(32)]
    rings += [builtin_cyclic(n, [Fraction(0)] * n) for n in range(1, 6)]
    rings += [builtin_cyclic(n, quadratic_twists(n, 1)) for n in range(2, 13)]
    return rings


@lru_cache(maxsize=None)
def _search_case(i):
    ring = _search_rings()[i]
    md = compute_modular_data(ring)
    return md, commutant_basis(md, twist_sparsity(ring))


def _passes_at(md, basis, scale, budget):
    try:
        return enumerate_invariants(md, basis, bound_scale=scale, node_budget=budget)
    except SearchBudgetExceeded:
        return None


@given(st.integers(0, len(_search_rings()) - 1), st.sampled_from([1, 2]))
@settings(max_examples=40, deadline=None)
def test_search_matches_the_recursive_reference(i, scale):
    md, basis = _search_case(i)
    if md.size == 5 and all(h == 0 for h in md.ring.twists):
        scale = 1  # Z_5 with zero twists at scale 2 runs too long for a test
    pool, nodes = _reference_enumerate(md, basis, scale)
    # The same pool at exactly the reference's node count, and a cutoff one node below it.
    assert [Z.Z for Z in _passes_at(md, basis, scale, max(nodes, 1))] == pool
    if nodes:
        assert _passes_at(md, basis, scale, nodes - 1) is None


@pytest.mark.parametrize("rows, dtype", [(1, None), (3, None), (3, object)])
def test_search_in_small_chunks_matches_the_reference(monkeypatch, rows, dtype):
    # Batches of at most `rows` nodes: every frontier spans many chunks, and
    # budget cutoffs split batches; with dtype=object the accumulator holds
    # Python ints, as it does when int64 could wrap.
    ring = builtin_cyclic(4, [Fraction(0)] * 4)
    md = compute_modular_data(ring)
    basis = commutant_basis(md, twist_sparsity(ring))
    monkeypatch.setattr(commutant, "SEARCH_CHUNK", rows * len(basis.positions))
    if dtype is not None:
        monkeypatch.setattr(commutant, "int_dtype", lambda bound: dtype)
    pool, nodes = _reference_enumerate(md, basis, 2)
    assert nodes == 12_760
    assert [Z.Z for Z in _passes_at(md, basis, 2, nodes)] == pool
    assert _passes_at(md, basis, 2, nodes - 1) is None


def test_partial_pool_across_chunks_is_verified(monkeypatch):
    # Z_6 with zero twists under a budget: the last level's frontier spans
    # several chunks, and the search stops after 99,999 of 100,000 nodes.
    ring = builtin_cyclic(6, [Fraction(0)] * 6)
    md = compute_modular_data(ring)
    basis = commutant_basis(md, twist_sparsity(ring))
    batches = []
    sorted_stack = commutant._sorted_stack

    def spy(leaves, *args):
        batches.append(len(leaves))
        return sorted_stack(leaves, *args)

    monkeypatch.setattr(commutant, "_sorted_stack", spy)
    with pytest.raises(SearchBudgetExceeded) as exc:
        enumerate_invariants(md, basis, node_budget=100_000)
    assert batches[0] > 1
    e = exc.value
    assert (e.budget, e.nodes, e.depth, e.levels) == (100_000, 99_999, 26, 26)
    mats = [Z.Z for Z in e.partial]
    assert mats and mats == sorted(set(mats))
    assert all(verify_invariant(md, [list(row) for row in Z]).Z == Z for Z in mats)


def test_entry_bounds_are_exact_ceilings():
    dims = builtin_su2(3).dims  # d_1 = (1 + sqrt 5) / 2, so d_1^2 = (3 + sqrt 5) / 2
    # A scale that puts scale * d_1^2 less than 1e-9 above 3, from a rational
    # just below sqrt 5: the ceiling is 4, which the float bound ceil(x - 1e-9)
    # missed.
    scale = 3 / ((3 + Fraction(math.isqrt(5 * 10**40), 10**20)) / 2)
    with mpmath.workdps(50):
        excess = mpmath.mpf(scale.numerator) / scale.denominator * (3 + mpmath.sqrt(5)) / 2 - 3
        assert 0 < excess < 1e-9
    assert math.ceil(float(scale) * dims[1].embed().real ** 2 - 1e-9) == 3
    assert commutant._entry_bounds(dims, [(1, 1), (0, 1), (1, 0)], scale) == [4, 2, 2]
    # Exact integers: sqrt 2 * sqrt 2 * 3/2 = 3, and 0 for a zero scale.
    dims = builtin_su2(2).dims
    assert commutant._entry_bounds(dims, [(1, 1), (0, 0)], Fraction(3, 2)) == [3, 2]
    assert commutant._entry_bounds(dims, [(1, 1)], Fraction(0)) == [0]


def _exact_entry_bounds(dims, positions, scale):
    """Reference: max(0, ceil(scale d_l d_m)) from the cyclotomic product,
    as the ceiling of its real part (`real_floor`), at every position."""
    return [max(0, -real_floor(-(dims[l] * dims[m] * scale))) for l, m in positions]


ENTRY_BOUND_SCALES = (Fraction(0), Fraction(1, 2), Fraction(1), Fraction(10**6))
SQRT2 = Cyclotomic(8, {1: 1, 7: 1})
GOLDEN = Cyclotomic(5, {0: 1, 1: 1, 4: 1})  # (1 + sqrt 5) / 2
# Negative, irrational, rational and non-real dims: the brackets multiply
# with any signs, rational products hold an integer, and a dim that is not
# real takes the exact form.
HAND_MADE_DIMS = [
    Cyclotomic.from_rational(1), -SQRT2, SQRT2, GOLDEN, -GOLDEN, Cyclotomic.from_rational(-3),
    Cyclotomic.from_rational(Fraction(7, 3)), SQRT2 * GOLDEN - 3, Cyclotomic.zeta(4),
    Cyclotomic.zeta(3) + 2,
]


@pytest.mark.parametrize(
    "dims",
    [builtin_su2(k).dims for k in range(1, 41)]
    + [builtin_so_level1(n).dims for n in (16, 32)]
    + [builtin_cyclic(n, quadratic_twists(n, 1)).dims for n in range(2, 17)]
    + [HAND_MADE_DIMS],
    ids=[f"su2_{k}" for k in range(1, 41)] + ["so16", "so32"]
    + [f"z{n}_quadratic" for n in range(2, 17)] + ["hand_made"],
)
def test_entry_bounds_match_the_exact_form(dims):
    n = len(dims)
    positions = [(l, m) for l in range(n) for m in range(l, n)]
    for scale in ENTRY_BOUND_SCALES:
        expected = _exact_entry_bounds(dims, positions, scale)
        assert commutant._entry_bounds(dims, positions, scale) == expected


def _oracle_cases():
    cases = [(builtin_su2(k), s) for k in range(5) for s in (1, Fraction(3, 2), 2)]
    for n in range(1, 8):
        for q in range(1, 4):
            ring = builtin_cyclic(n, quadratic_twists(n, q))
            cases += [(ring, s) for s in (1, Fraction(3, 2), 2)]
    return cases


@lru_cache(maxsize=None)
def _oracle_case(i):
    ring, scale = _oracle_cases()[i]
    md = compute_modular_data(ring)
    d = [x.embed().real for x in ring.dims]
    allowed = np.argwhere(twist_sparsity(ring)).tolist()
    candidates = math.prod(math.ceil(scale * d[l] * d[m] - 1e-9) + 1 for l, m in allowed)
    return md, scale, candidates


@given(st.integers(0, len(_oracle_cases()) - 1))
@settings(max_examples=40, deadline=None)
def test_search_matches_brute_force_oracle(i):
    md, scale, candidates = _oracle_case(i)
    assume(candidates <= 20_000)
    _, _, invs = pipeline(md.ring, bound_scale=scale)
    assert {Z.Z for Z in invs} == brute_force_invariants(md, scale)


def test_verify_accepts_the_asymmetric_invariant():
    md = compute_modular_data(builtin_so_level1(16))
    Z = verify_invariant(md, [list(r) for r in Q])
    assert Z.trace == 1
    assert not Z.vacuum_symmetric


def test_verify_rejects_vacuum_doubling():
    md = compute_modular_data(builtin_so_level1(16))
    doubled = [[a + b for a, b in zip(r1, r2)] for r1, r2 in zip(W, X_S)]
    with pytest.raises(InvariantRejected, match=r"Z\[0,0\] = 2"):
        verify_invariant(md, doubled)


def test_verify_rejects_twist_violation():
    md = compute_modular_data(builtin_so_level1(16))
    bad = [list(r) for r in IDENTITY4]
    bad[0][1] = 1
    with pytest.raises(InvariantRejected, match="Omega"):
        verify_invariant(md, bad)


def test_verify_rejects_negative_entry():
    md = compute_modular_data(builtin_so_level1(16))
    bad = [list(r) for r in IDENTITY4]
    bad[2][3] = -1
    with pytest.raises(InvariantRejected, match="non-negative"):
        verify_invariant(md, bad)


def test_verify_rejects_commutation_failure():
    md = compute_modular_data(builtin_so_level1(16))
    bad = [list(r) for r in IDENTITY4]
    bad[1][1] = 2
    with pytest.raises(InvariantRejected, match="YZ != ZY"):
        verify_invariant(md, bad)


_CYCLIC2 = builtin_cyclic(2, [Fraction(0)] * 2)
_SO16 = builtin_so_level1(16)


def _changed(Z, *changes):
    out = [list(row) for row in Z]
    for l, m, v in changes:
        out[l][m] = v
    return out


# One rejection per constraint, in the order they are checked; the first
# failing entry is named in row-major order.
REJECTIONS = [
    (_SO16, [[1, 0, 0, 0], [0, 1, 0], [0, 0, 1, 0], [0, 0, 0, 1]], "expected a 4x4 matrix"),
    (_SO16, "not a matrix", "expected a 4x4 matrix"),
    (_CYCLIC2, [[1, 0], [0, 1], [0, 0]], "expected a 2x2 matrix"),
    (_CYCLIC2, [[True, 0], [0, 1]], "entry Z[0,0] = True is not a non-negative integer"),
    (
        _SO16,
        _changed(IDENTITY4, (1, 2, -1), (3, 3, True)),
        "entry Z[1,2] = -1 is not a non-negative integer",
    ),
    (_CYCLIC2, [[1, Fraction(1, 2)], [0, 1]], "entry Z[0,1] = 1/2 is not a non-negative integer"),
    (
        _CYCLIC2,
        [[1, -(2**64)], [0, 1]],
        "entry Z[0,1] = -18446744073709551616 is not a non-negative integer",
    ),
    (_SO16, _changed(IDENTITY4, (0, 0, 0)), "Z[0,0] = 0, must be 1"),
    (_CYCLIC2, [[2**64, 0], [0, 1]], "Z[0,0] = 18446744073709551616, must be 1"),
    (
        _SO16,
        _changed(IDENTITY4, (0, 1, 1), (2, 2, 5)),
        "Omega Z != Z Omega: Z[0,1] != 0 but h[0] != h[1]",
    ),
    (_SO16, _changed(IDENTITY4, (1, 1, 2)), "YZ != ZY at (0,1)"),
    (_CYCLIC2, [[1, 2**64], [0, 1]], "YZ != ZY at (0,0)"),
]


@pytest.mark.parametrize("ring, Z, message", REJECTIONS)
def test_each_constraint_rejects_with_its_message(ring, Z, message):
    md = compute_modular_data(ring)
    assert _reference_verify_invariant(md, Z) == message
    with pytest.raises(InvariantRejected) as exc:
        verify_invariant(md, Z)
    assert str(exc.value) == message
    # The pool check names the same failure, here behind a valid matrix, on
    # every input it takes: n x n matrices of ints.
    n = md.size
    square = isinstance(Z, list) and len(Z) == n and all(len(row) == n for row in Z)
    if square and all(type(v) is int for row in Z for v in row):
        identity = [[int(l == m) for m in range(n)] for l in range(n)]
        with pytest.raises(InvariantRejected) as exc:
            _verify_pool(md, [identity, Z])
        assert str(exc.value) == message


def test_kernel_self_check_catches_a_corrupted_basis_vector(monkeypatch):
    md = compute_modular_data(_SO16)

    def corrupted(G):
        # E_00 does not commute with Y, so basis element 3 plus E_00 fails.
        pivots, X, L = kernel(G)
        X = X.copy()
        X[3, 0] += L
        return pivots, X, L

    monkeypatch.setattr(commutant, "kernel", corrupted)
    with pytest.raises(AssertionError) as exc:
        commutant_basis(md, twist_sparsity(md.ring))
    assert str(exc.value).startswith(
        "internal error: commutant basis element 3 fails YZ=ZY at ("
    )


@pytest.mark.parametrize(
    "ring",
    [builtin_su2(10), builtin_so_level1(16), builtin_cyclic(4, [Fraction(0)] * 4)],
    ids=lambda ring: ring.name,
)
def test_commutant_basis_builds_no_echelon(ring, monkeypatch):
    # The kernel is reduced modulo primes: no fraction-free elimination.
    md = compute_modular_data(ring)
    built = []

    class RecordedEchelon(linalg.Echelon):
        def __init__(self, width):
            built.append(width)
            super().__init__(width)

    # Patched in both modules, so that an echelon built by commutant_basis
    # itself is counted too.
    monkeypatch.setattr(linalg, "Echelon", RecordedEchelon)
    monkeypatch.setattr(commutant, "Echelon", RecordedEchelon, raising=False)
    commutant_basis(md, twist_sparsity(ring))
    assert built == []


def test_numeric_fallback_finds_the_same_invariants():
    # Without dims, SO(16) takes the exact path: the same kernel basis and
    # the same exactly verified invariants as with its builtin dims.
    ring = builtin_so_level1(16)
    md = compute_modular_data(strip_dims(ring))
    exact_md = compute_modular_data(ring)
    basis = commutant_basis(md, twist_sparsity(md.ring))
    assert basis == commutant_basis(exact_md, twist_sparsity(ring))
    invs = enumerate_invariants(md, basis)
    assert invs == enumerate_invariants(exact_md, basis)
    assert {Z.Z for Z in invs} == SO16_EXPECTED


@given(
    st.integers(min_value=1, max_value=5),
    st.integers(min_value=0, max_value=9),
)
@settings(max_examples=25, deadline=None)
def test_random_cyclic_rings_properties(n, q):
    ring = builtin_cyclic(n, quadratic_twists(n, q))
    md, _, invs = pipeline(ring)
    mats = {Z.Z for Z in invs}
    identity = tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))
    assert identity in mats
    assert all(tuple(tuple(M[j][i] for j in range(n)) for i in range(n)) in mats for M in mats)
    for Z in invs:
        for l in range(n):
            for m in range(n):
                if Z.Z[l][m]:
                    assert ring.twists[l] == ring.twists[m]


def _scalar_commutator_failure(md, Z):
    """Reference: the scalar check the integer coordinate tensor replaced,
    one cyclotomic sum per side and entry, in row-major order."""
    n = md.size
    for l in range(n):
        for m in range(n):
            lhs = csum(md.Y[l][a] * Z[a][m] for a in range(n) if Z[a][m])
            rhs = csum(md.Y[a][m] * Z[l][a] for a in range(n) if Z[l][a])
            if lhs != rhs:
                return l, m
    return None


def _commutator_failure(md, Z):
    """First entry (l, m), in row-major order, where YZ and ZY differ for a
    rational matrix Z, or None: `_noncommuting` on L Z as a stack of one, L
    the lcm of Z's denominators."""
    L = math.lcm(*(Fraction(x).denominator for row in Z for x in row))
    LZ = np.array([[int(x * L) for x in row] for row in Z], dtype=object)
    failures = np.argwhere(_noncommuting(md, LZ[None])[0])
    return tuple(failures[0].tolist()) if len(failures) else None


def _reference_verify_invariant(md, Z):
    """Reference: verify_invariant as it was before every constraint became a
    mask over an integer stack, one scalar loop per constraint and
    `_scalar_commutator_failure`; a CouplingMatrix or the rejection text."""
    n = md.size
    rows_ok = isinstance(Z, (list, tuple)) and all(isinstance(row, (list, tuple)) for row in Z)
    if not rows_ok or len(Z) != n or any(len(row) != n for row in Z):
        return f"expected a {n}x{n} matrix"
    for l in range(n):
        for m in range(n):
            v = Z[l][m]
            if type(v) is not int or v < 0:
                return f"entry Z[{l},{m}] = {v} is not a non-negative integer"
    if Z[0][0] != 1:
        return f"Z[0,0] = {Z[0][0]}, must be 1"
    h = md.ring.twists
    for l in range(n):
        for m in range(n):
            if Z[l][m] and h[l] != h[m]:
                return f"Omega Z != Z Omega: Z[{l},{m}] != 0 but h[{l}] != h[{m}]"
    if (failure := _scalar_commutator_failure(md, Z)) is not None:
        return "YZ != ZY at ({},{})".format(*failure)
    return CouplingMatrix(Z=tuple(map(tuple, Z)))


def _outcome(verify, md, Z):
    try:
        return verify(md, Z)
    except InvariantRejected as exc:
        return str(exc)


def _commutation_rings():
    rings = [builtin_su2(k) for k in range(7)] + [builtin_so_level1(16)]
    for n in range(1, 7):
        rings += [builtin_cyclic(n, [Fraction(0)] * n), builtin_cyclic(n, quadratic_twists(n, 1))]
    return rings


@lru_cache(maxsize=None)
def _commutation_case(i):
    ring = _commutation_rings()[i]
    md = compute_modular_data(ring)
    return md, commutant_basis(md, twist_sparsity(ring))


_big_or_small = st.one_of(st.integers(0, 3), st.integers(0, 2**70))
_rationals = st.fractions(min_value=-3, max_value=3, max_denominator=5)


@st.composite
def commutation_inputs(draw):
    """A ring and a matrix: random non-negative integers (some up to 2**70),
    random rationals, a kernel element (rational or huge integer
    coefficients), optionally perturbed in one entry, or, on rings with
    rational dims, a matrix whose commutator with Y vanishes on row 0 (a zero
    row 0 and dimension-weighted column sums 0), so that a first failure can
    lie below row 0."""
    md, basis = _commutation_case(draw(st.integers(0, len(_commutation_rings()) - 1)))
    n = md.size
    dims = [d.rational_value() for d in md.ring.dims]
    kinds = ["integers", "rationals", "kernel"]
    if n > 2 and None not in dims:
        kinds.append("row0")
    kind = draw(st.sampled_from(kinds))
    if kind == "row0":
        Z = [[Fraction(0)] * n] + [[draw(_rationals) for _ in range(n)] for _ in range(n - 2)]
        Z.append([-sum(dims[a] * Z[a][m] for a in range(n - 1)) / dims[-1] for m in range(n)])
        return md, Z
    if kind == "kernel":
        coeff = draw(st.sampled_from([_rationals, st.integers(-(2**70), 2**70)]))
        Z = [[Fraction(0)] * n for _ in range(n)]
        for vec in basis.rows.tolist():
            c = draw(coeff)
            for (l, m), v in zip(basis.positions, vec):
                Z[l][m] += c * Fraction(v, basis.denominator)
        if draw(st.booleans()):
            Z[draw(st.integers(0, n - 1))][draw(st.integers(0, n - 1))] += 1
        return md, Z
    entries = _big_or_small if kind == "integers" else _rationals
    return md, [[draw(entries) for _ in range(n)] for _ in range(n)]


@given(commutation_inputs())
@settings(max_examples=150, deadline=None)
def test_commutator_failure_matches_scalar_reference(case):
    md, Z = case
    assert _commutator_failure(md, Z) == _scalar_commutator_failure(md, Z)


@given(commutation_inputs())
@settings(max_examples=150, deadline=None)
def test_verify_invariant_matches_reference(case):
    md, Z = case
    # Integer-valued entries become ints, so that every constraint is reached.
    Z = [[int(x) if x == int(x) else x for x in row] for row in Z]
    expected = _reference_verify_invariant(md, Z)
    assert _outcome(verify_invariant, md, Z) == expected
    if all(type(x) is int for row in Z for x in row):
        pooled = [expected] if isinstance(expected, CouplingMatrix) else expected
        assert _outcome(_verify_pool, md, [Z]) == pooled


def test_commutation_checks_beyond_int64():
    md = compute_modular_data(builtin_cyclic(2, [Fraction(0)] * 2))
    big = 2**64
    assert verify_invariant(md, [[1, big], [big, 1]]).Z == ((1, big), (big, 1))
    with pytest.raises(InvariantRejected, match=r"YZ != ZY at \(0,0\)"):
        verify_invariant(md, [[1, big], [0, 1]])


def _constraint_rows(Y, positions):
    """Reference: the explicit constraint matrix of YZ = ZY over the
    positions, assembled per row label l as the kernel once was (rows (e, m):
    (YZ - ZY)_lm = sum_ab (Y[l,a] delta_bm - delta_al Y[b,m]) Z_ab), in
    Python ints."""
    n = Y.shape[1]
    P = len(positions)
    a, b = np.array(positions, dtype=np.intp).reshape(P, 2).T
    Y = Y.astype(object)
    blocks = []
    for l in range(n):
        rows = np.zeros((Y.shape[0], n, P), dtype=object)
        rows[:, b, np.arange(P)] = Y[:, l, a]
        own = a == l
        rows[:, :, own] -= Y[:, b[own], :].transpose(0, 2, 1)
        blocks.append(rows.reshape(-1, P))
    return np.concatenate(blocks)


def _sympy_kernel(rows, width):
    """Reference: reduced-echelon kernel basis, as Fractions, and pivots of
    an integer matrix given as rows of ints, by sympy's DomainMatrix over QQ."""
    pytest.importorskip("sympy")
    from sympy import QQ
    from sympy.polys.matrices import DomainMatrix

    A = DomainMatrix([[QQ(int(x)) for x in row] for row in rows], (len(rows), width), QQ)
    ref, pivots = A.nullspace().rref()
    basis = [[Fraction(int(x.numerator), int(x.denominator)) for x in row] for row in ref.to_list()]
    return basis[: len(pivots)], list(pivots)


def _fraction_rows(X, L):
    """The rows of an integer matrix over the denominator L, as Fractions."""
    return [[Fraction(x, L) for x in row] for row in X.tolist()]


def _kernel_rings():
    rings = [builtin_su2(k) for k in range(13)] + [builtin_so_level1(16)]
    for n in range(1, 9):
        rings += [builtin_cyclic(n, [Fraction(0)] * n), builtin_cyclic(n, quadratic_twists(n, 1))]
    return rings


@lru_cache(maxsize=None)
def _kernel_case(i):
    ring = _kernel_rings()[i]
    h, n = ring.twists, ring.size
    # The positions by Fraction equality of the twists, in row-major order.
    return compute_modular_data(ring), [
        (l, m) for l in range(n) for m in range(n) if h[l] == h[m]
    ]


@given(st.integers(0, len(_kernel_rings()) - 1))
@settings(max_examples=40, deadline=None)
def test_commutant_kernel_matches_explicit_constraint_rows(i):
    md, positions = _kernel_case(i)
    A = _constraint_rows(md.Y_coords, positions)
    assert (_gram(md.Y_coords, positions) == A.T @ A).all()
    basis = commutant_basis(md, twist_sparsity(md.ring))
    assert basis.positions == positions
    rows = _fraction_rows(basis.rows, basis.denominator)
    assert (rows, basis.pivot_indices) == _sympy_kernel(A.tolist(), len(positions))


@st.composite
def coordinate_tensors(draw):
    """Integer tensors (phi, n, n) with no symmetry, entries small or large
    enough that G needs Python ints, over a random set of positions."""
    phi, n = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    entries = draw(st.sampled_from([st.integers(-3, 3), st.integers(-(2**31), 2**31)]))
    Y = np.array(draw(st.lists(entries, min_size=phi * n * n, max_size=phi * n * n)), dtype=object)
    cells = [(l, m) for l in range(n) for m in range(n)]
    positions = sorted(draw(st.sets(st.sampled_from(cells), min_size=1)))
    return Y.reshape(phi, n, n), positions


@given(coordinate_tensors())
@settings(max_examples=100, deadline=None)
def test_gram_of_an_asymmetric_tensor(case):
    Y, positions = case
    A = _constraint_rows(Y, positions)
    # Python ints exactly where some entry of G could pass 2**63.
    bound = 4 * Y.shape[0] * Y.shape[1] * int(abs(Y).max()) ** 2
    G = _gram(Y.astype(np.int64), positions)
    assert G.dtype == (np.int64 if bound < 2**63 else object)
    assert (G == A.T @ A).all()
    expected = _sympy_kernel(A.tolist(), len(G))
    assert _sympy_kernel(G.tolist(), len(G)) == expected
    pivots, X, L = kernel(G)  # by primes, from int64 or Python-int entries
    assert (_fraction_rows(X, L), pivots) == expected


def _first_rejection(md, pool):
    for Z in pool:
        if isinstance(message := _reference_verify_invariant(md, Z), str):
            return message
    return None


POOL_RINGS = (
    [builtin_su2(k) for k in range(7)]
    + [builtin_so_level1(16)]
    + [builtin_cyclic(n, [Fraction(0)] * n) for n in range(1, 5)]
    + [builtin_cyclic(n, quadratic_twists(n, 1)) for n in range(1, 7)]
)


@lru_cache(maxsize=None)
def _pool_case(i):
    md, _, invs = pipeline(POOL_RINGS[i])
    return md, [Z.Z for Z in invs]


@st.composite
def search_pools(draw):
    """A ring's sorted pool of invariants with up to three changed copies
    (an entry moved by -1..2, possibly off the twist pattern), re-sorted."""
    md, pool = _pool_case(draw(st.integers(0, len(POOL_RINGS) - 1)))
    pool = list(pool)
    n = md.size
    index = st.integers(0, n - 1)
    for _ in range(draw(st.integers(0, 3))):
        Z = [list(row) for row in draw(st.sampled_from(pool))]
        Z[draw(index)][draw(index)] += draw(st.integers(-1, 2))
        pool.append(tuple(map(tuple, Z)))
    return md, sorted(set(pool))


@given(search_pools())
@settings(max_examples=100, deadline=None)
def test_pool_check_matches_verify_invariant(case):
    md, pool = case
    assert [_outcome(verify_invariant, md, Z) for Z in pool] == [
        _reference_verify_invariant(md, Z) for Z in pool
    ]
    message = _first_rejection(md, pool)
    if message is None:
        assert _verify_pool(md, pool) == [verify_invariant(md, Z) for Z in pool]
    else:
        with pytest.raises(InvariantRejected) as exc:
            _verify_pool(md, pool)
        assert str(exc.value) == message


def test_pool_check_rejects_a_commuting_matrix_off_the_twist_pattern():
    # A transparent fermion makes Y all ones, so the all-ones matrix commutes
    # with Y and only the twist pattern rejects it.
    md = compute_modular_data(builtin_cyclic(2, [Fraction(0), Fraction(1, 2)]))
    assert _commutator_failure(md, [[1, 1], [1, 1]]) is None
    with pytest.raises(InvariantRejected, match=r"^Omega Z != Z Omega: Z\[0,1\] != 0"):
        _verify_pool(md, [((1, 0), (0, 1)), ((1, 1), (1, 1))])
