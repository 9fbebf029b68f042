"""Taxonomy of coupling matrices: block factorizations Z = B^T B, parent
pairs (Z+, Z-), block bijections, extended modular data and global indices.

Every identity used here is checked in exact cyclotomic arithmetic; nothing
is classified on numeric evidence alone. A matrix that fits none of the
recognized kinds is reported as unresolved rather than forced into one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterator, Optional, Sequence

import numpy as np

from .cyclo import (
    ONE,
    Cyclotomic,
    coordinates,
    csum,
    differs,
    divide,
    evaluate,
    int_array,
    int_dtype,
    int_matmul,
    real_floor,
    root_of_unity,
)
from .commutant import SEARCH_CHUNK, CouplingMatrix, Pool
from .linalg import Echelon, kernel
from .modular import ModularData


class RankDeficientBranching(ValueError):
    """Branching rows are linearly dependent over Q."""


@dataclass
class BranchingData:
    block_count: int
    B: tuple[tuple[int, ...], ...]  # rows indexed by blocks, columns by labels
    block_twists: tuple[Fraction, ...]
    block_dims: tuple[Cyclotomic, ...]


@dataclass
class GlobalIndices:
    w: Cyclotomic
    w_plus: Cyclotomic
    w_alpha: Cyclotomic
    w_zero: Cyclotomic

    def check(self) -> list[str]:
        """Notes for the report: the chain 1 <= w_zero <= w_plus <= w_alpha
        <= w on float embeddings. The float chain is what pinned reports
        record: it reads "violated" on SU(2) levels 9 and 21, where equal
        indices embed a few ulps apart. `chain_holds` decides the chain
        exactly. w_zero w_alpha = w_plus^2 needs no note: `global_indices`
        takes w_zero = divide(w_plus^2, w_alpha), and `divide` returns a
        quotient q only once q w_alpha = w_plus^2 holds exactly."""
        report = []
        vals = [self.w_zero, self.w_plus, self.w_alpha, self.w]
        names = ["w_zero", "w_plus", "w_alpha", "w"]
        nums = []
        for v, nm in zip(vals, names):
            if not v.is_real():
                report.append(f"{nm} is not real")
                return report
            nums.append(v.embed().real)
        if not (1 - 1e-9 <= nums[0] <= nums[1] <= nums[2] <= nums[3] + 1e-9):
            report.append("index chain 1 <= w_zero <= w_plus <= w_alpha <= w violated")
        return report

    def chain_holds(self) -> bool:
        """1 <= w_zero <= w_plus <= w_alpha <= w with every index real, each
        link a <= b decided exactly as floor(b - a) >= 0."""
        chain = [ONE, self.w_zero, self.w_plus, self.w_alpha, self.w]
        return all(v.is_real() for v in chain) and all(
            real_floor(b - a) >= 0 for a, b in zip(chain, chain[1:])
        )


@dataclass
class ExtendedModularData:
    Yext: list[list[Cyclotomic]]
    Text_twists: tuple[Fraction, ...]
    z0: Cyclotomic
    consistent: bool
    failures: list[str] = field(default_factory=list)


@dataclass
class Classification:
    index: int
    Z: CouplingMatrix
    kind: str  # diagonal | permutation | type_I | type_II | heterotic | unresolved
    vacuum_symmetric: bool
    indices: GlobalIndices
    factorizations: list[BranchingData] = field(default_factory=list)
    parent_plus: list[int] = field(default_factory=list)  # pool indices
    parent_minus: list[int] = field(default_factory=list)
    bijection: Optional[tuple[int, ...]] = None
    bijection_count: int = 0
    automorphism: Optional[tuple[int, ...]] = None
    automorphism_preserves_extended: Optional[bool] = None
    extended: Optional[ExtendedModularData] = None
    extended_error: Optional[str] = None
    branching_failures: Optional[list[str]] = None
    notes: list[str] = field(default_factory=list)

    @property
    def type_two(self) -> bool:
        """Coinciding type I parents joined by a block automorphism; the
        permutation kind is the special case of a permutation matrix."""
        return self.kind in ("type_II", "permutation") and self.automorphism is not None


def global_indices(md: ModularData, Z: CouplingMatrix) -> GlobalIndices:
    """w = sum d^2; w_plus = w / sum_l d_l Z_{l,0};
    w_alpha = w / sum over degenerate l of Z_{0,l} d_l; w_zero = w_plus^2 / w_alpha.
    Each quotient is a `divide`, which raises ZeroDivisionError on a zero sum."""
    d = md.ring.dims
    n = md.size
    w_plus = divide(md.w, csum(d[l] * Z.Z[l][0] for l in range(n) if Z.Z[l][0]))
    w_alpha = divide(md.w, csum(d[l] * Z.Z[0][l] for l in sorted(md.degenerates) if Z.Z[0][l]))
    w_zero = divide(w_plus * w_plus, w_alpha)
    return GlobalIndices(w=md.w, w_plus=w_plus, w_alpha=w_alpha, w_zero=w_zero)


def factorize_type_one(md: ModularData, Z: CouplingMatrix) -> list[BranchingData]:
    """All decompositions Z = B^T B over non-negative integers with
    b_{tau,0} = delta_{tau,0}.

    Block 0's row is forced to the vacuum column of Z. Remaining rows have a
    zero vacuum entry and are produced in non-increasing lexicographic order,
    which kills permutation duplicates. Empty list means not of this form.

    The residual R = Z - sum_tau b_tau b_tau^T of the rows so far stays
    non-negative (a row fits only when b_l b_m <= R_{l,m}) and live (see
    `_live`): a row that leaves it dead ends its branch, and a live R with a
    zero diagonal is zero.
    """
    n = md.size
    mat = Z.Z
    if any(mat[l][m] != mat[m][l] for l in range(n) for m in range(l + 1, n)):
        return []
    b0 = Z.vacuum_column
    resid = [[mat[l][m] - b0[l] * b0[m] for m in range(n)] for l in range(n)]
    if b0[0] != 1 or any(resid[l][m] < 0 for l in range(n) for m in range(n)) or not _live(resid):
        return []
    results: list[list[tuple[int, ...]]] = []

    def candidate_rows(R, ceiling, first):
        """Rows b <= ceiling (lex), if any, with b_l b_m <= R_{l,m} and b_first >= 1:
        a row starting later would leave `first` to rows starting later still."""
        out: list[tuple[int, ...]] = []
        row = [0] * n

        def extend(pos: int, tight: bool):
            if pos == n:
                out.append(tuple(row))
                return
            hi = math.isqrt(R[pos][pos])
            if tight:
                hi = min(hi, ceiling[pos])
            for v in range(hi, 0 if pos == first else -1, -1):
                if all(v * row[j] <= R[pos][j] for j in range(first, pos) if row[j]):
                    row[pos] = v
                    extend(pos + 1, tight and v == ceiling[pos])
            row[pos] = 0

        extend(1, ceiling is not None)
        return out  # already in decreasing lexicographic order

    def search(R, prev, rows):
        first = next((l for l in range(n) if R[l][l]), None)
        if first is None:
            results.append(rows)
            return
        for b in candidate_rows(R, prev, first):
            # R - b b^T differs from R only on b's support: the rows off it
            # are shared, never mutated.
            support = [(l, x) for l, x in enumerate(b) if x]
            R2 = list(R)
            for l, x in support:
                row = R2[l] = R[l][:]
                for m, y in support:
                    row[m] -= x * y
            if _live(R2):
                search(R2, b, rows + [b])

    search(resid, None, [])
    return [_branching_from_rows(md, [b0] + rows) for rows in results]


def _live(R: list[list[int]]) -> bool:
    """Every row of R with a zero diagonal entry is zero: no later row can touch
    a label l with R_{l,l} = 0 (b_l^2 <= R_{l,l}), so its row would stay."""
    return not any(any(row) for l, row in enumerate(R) if not row[l])


def _branching_from_rows(md: ModularData, rows: list[tuple[int, ...]]) -> BranchingData:
    """The branching of rows b_tau with Z = sum_tau b_tau b_tau^T, each
    block's twist that of the first label of its support.

    For a verified invariant Z every label of one block has that twist:
    Z is non-negative, so b_{tau,l} b_{tau,m} <= Z_{l,m}, and Z commutes with
    T, so Z_{l,m} = 0 unless h_l = h_m. Rows that factorize an unverified Z
    can mix twists; `_gram_free_checks` reports each label that does."""
    n = md.size
    h = md.ring.twists
    d = md.ring.dims
    twists = [h[next(l for l in range(n) if b[l])] for b in rows]
    # d_tau = (w_plus / w) * sum_l b_{tau,l} d_l with w/w_plus = sum_l d_l b_{0,l}.
    chiral = csum(d[l] * rows[0][l] for l in range(n) if rows[0][l])
    dims = [
        divide(csum(d[l] * b[l] for l in range(n) if b[l]), chiral) for b in rows
    ]
    return BranchingData(
        block_count=len(rows),
        B=tuple(rows),
        block_twists=tuple(twists),
        block_dims=tuple(dims),
    )


def find_parents(
    md: ModularData, Z: CouplingMatrix, pool: Sequence[CouplingMatrix]
) -> tuple[list[int], list[int]]:
    """Pool indices of type I matrices matching Z's vacuum column (parents
    on the plus side) and vacuum row (minus side), in canonical pool order.

    Factorizes the whole pool on every call. `classify_all` factorizes each
    invariant once and looks every parent pair up in one map instead."""
    facts = [factorize_type_one(md, W) for W in pool]
    by_column = _type_one_by_column([W.vacuum_column for W in pool], facts)
    return _parents(by_column, Z.vacuum_column, Z.vacuum_row)


def _type_one_by_column(
    columns: Sequence[tuple], facts: Sequence[list[BranchingData]]
) -> dict[tuple, list[int]]:
    """Vacuum column -> ascending pool indices of the type I matrices with
    it."""
    by_column: dict[tuple, list[int]] = {}
    for i, (column, branchings) in enumerate(zip(columns, facts)):
        if branchings:
            by_column.setdefault(column, []).append(i)
    return by_column


def _parents(
    by_column: dict[tuple, list[int]], column: tuple, row: tuple
) -> tuple[list[int], list[int]]:
    return list(by_column.get(column, ())), list(by_column.get(row, ()))


def find_block_bijection(
    plus: BranchingData, minus: BranchingData, Z: CouplingMatrix
) -> Optional[tuple[tuple[int, ...], int]]:
    """First bijection theta (in lexicographic order) with
    Z_{l,m} = sum_tau bplus_{tau,l} bminus_{theta(tau),m}, plus the count of
    all solutions; None when block counts differ or no bijection exists.
    This is `_block_bijections` for a stack of one matrix."""
    if minus.block_count != plus.block_count:
        return None
    return _block_bijections(plus, minus, int_array(Z.Z)[None])[0]


def _block_bijections(
    plus: BranchingData, minus: BranchingData, targets: np.ndarray
) -> list[Optional[tuple[tuple[int, ...], int]]]:
    """`find_block_bijection` of plus and minus, two branchings with t blocks
    each, for every matrix of a (g, n, n) stack, in one search over theta.

    Candidates are pruned by matching block twists and exact block dims, and
    by the entries: B and Z are non-negative, so each term bplus_tau bminus_s^T
    of the sum is at most Z entrywise, that is bminus_s <= cap_tau with
    cap_{tau,m} = min over l with bplus_{tau,l} > 0 of
    floor(Z_{l,m} / bplus_{tau,l}). For every matrix at once that is a
    (g, t, t) mask `fits` of the pairs (tau, s) it allows, from chunks of
    quotients at the nonzero entries of bplus. Theta is then built block by
    block, s ascending, with the mask of the matrices that every pair so far
    fits: a partial theta that no matrix fits is dropped. A complete theta's
    product Bplus^T Bminus[theta] is one matrix, compared with those still
    in the mask, and it counts for each that it equals. So each matrix gets
    the solutions that a search over its own mask would visit, in the same
    (lexicographic) order: the first and their count."""
    g, n, _ = targets.shape
    t = plus.block_count
    Bp = int_array(plus.B).reshape(t, -1)
    Bm = int_array(minus.B).reshape(t, -1)
    # The nonzero entries bplus_{tau,l}, row by row: the quotients
    # Z_{l,m} // bplus_{tau,l} are taken for them alone, and row rows[j]'s
    # run of them starts at starts[j].
    taus, labels = Bp.nonzero()
    divisor = Bp[taus, labels][:, None]
    rows, starts = np.unique(taus, return_index=True)
    ceiling = Bm.max()
    fits = np.empty((g, t, t), dtype=bool)
    chunk = max(1, SEARCH_CHUNK // (max(len(labels), t * t) * n))
    for start in range(0, g, chunk):
        quotients = targets[start : start + chunk, labels] // divisor
        # A zero of bplus caps nothing: its terms are 0 <= Z. No cap exceeds
        # max bminus, which every row of bminus fits.
        cap = np.full((len(quotients), t, n), ceiling, dtype=quotients.dtype)
        if len(rows):
            cap[:, rows] = np.minimum.reduceat(quotients, starts, axis=1)
        np.minimum(cap, ceiling, out=cap)
        fits[start : start + chunk] = (Bm <= cap[:, :, None]).all(axis=3)
    # Block pairs (tau, s) with equal twists and exactly equal dims.
    blocks = list(zip(minus.block_twists, minus.block_dims))
    fits &= np.array(
        [[block == other for other in blocks] for block in zip(plus.block_twists, plus.block_dims)],
        dtype=bool,
    )
    found: list[Optional[tuple[tuple[int, ...], int]]] = [None] * g
    live = fits.any(axis=2).all(axis=1)
    if not live.any():
        return found
    masks = np.ascontiguousarray(fits.transpose(1, 2, 0))  # (tau, s) -> matrices
    # The pairs (tau, s) that some matrix still searched allows, s ascending.
    compatible = [[s for s, ok in enumerate(row) if ok] for row in fits[live].any(axis=0).tolist()]
    # Each term of a compatible theta is at most its entry of Z, so no sum
    # of t terms exceeds t max Z.
    dtype = int_dtype(t * max(int(targets[live].max()), int(Bp.max()), int(ceiling)))
    BpT = np.ascontiguousarray(Bp.T).astype(dtype, copy=False)
    Bm = Bm.astype(dtype, copy=False)
    theta: list[int] = []
    used = [False] * t

    def assign(tau: int, alive: np.ndarray):
        if tau == t:
            (alive,) = alive.nonzero()
            equal = (targets[alive] == BpT @ Bm[theta]).all(axis=(1, 2))
            for i in alive[equal].tolist():
                first, count = found[i] or (tuple(theta), 0)
                found[i] = first, count + 1
            return
        for s in compatible[tau]:
            if not used[s]:
                fitting = alive & masks[tau, s]
                if fitting.any():
                    theta.append(s)
                    used[s] = True
                    assign(tau + 1, fitting)
                    used[s] = False
                    theta.pop()

    assign(0, live)
    return found


def extended_modular_data(
    md: ModularData, branching: BranchingData, indices: GlobalIndices
) -> ExtendedModularData:
    """Yext = (w_plus/w) (B Y B^T) (B B^T)^{-1}, exact over the cyclotomic
    field; consistency collects the exact residual checks, which run on the
    integer coordinates of Yext whichever way it was found.

    When the blocks are the labels (B = 1 with the labels' dims and twists:
    the diagonal invariant as its own parent, the trivial extension) and
    w_plus = w, G = 1 and the ratio is 1, so Yext is Y object for object and
    its coordinates are Y's own (md.Y_coords, md.Y_den): neither a Gram
    inverse nor a sum is formed. The general path would return the same
    objects, as a one-term sum, a factor of 1 and a division by 1 each
    return their operand. The intertwining check would then compare Y's
    coordinates with themselves, so it is skipped there; that they are the
    coordinates of the scalar Y is `modular._y_coordinates`' contract, not
    a check of Yext. Symmetry, Yext Yext^dagger = w_zero and the Gram-free
    checks still run.

    Otherwise the Gram inverse is one `kernel`, that of the integer matrix
    [1 | -G], G = B B^T: the kernel is {(G y, y)}. Its projection to the
    first i + 1 columns has the rank of G's first i + 1 rows as its
    dimension, so its reduced echelon basis has a pivot at column i < t
    exactly when row i of G is not in the span of the rows before it; the
    rows that are not pivots raise RankDeficientBranching. When all t are
    pivots, basis row i is (e_i, y_i) with G y_i = e_i, so row i of
    X[:, t:] is L times column i of G^{-1}, in integers.

    Every sum runs over the nonzero entries of B and of the Gram inverse only,
    in ascending order, with integer coefficients, a coefficient of 1 taking
    the term itself, and the sum divided by L once: an exact zero term
    leaves a sum's coordinate slots and denominator as they are, a term
    times 1 is the term, and L times every term keeps the zero pattern of
    every partial sum, so the slots are those of the sums over every entry
    of the rational inverse. B Y is formed only at the labels some row of B
    touches, the only ones B Y B^T reads."""
    t = branching.block_count
    B = branching.B
    Bm = int_array(B).reshape(t, -1)
    M = md.ring.conductor
    trivial = _blocks_are_labels(md, branching)
    failures: list[str] = []
    if trivial and indices.w_plus == md.w:
        ratio = ONE
        Yext = [list(row) for row in md.Y]
        X, DX = md.Y_coords, md.Y_den
    else:
        ratio = divide(indices.w_plus, md.w)
        Yext = _general_yext(md, B, Bm, ratio)
        X, DX = coordinates(Yext, M)
        # (w/w_plus) Yext B = B Y, i.e. Yext B = ratio * (B Y), by value; Yext
        # B and B Y are integer combinations of the coordinates of Yext and Y.
        rhs = evaluate(*coordinates(ratio, M), M) * evaluate(
            int_matmul(Bm, md.Y_coords), md.Y_den, M
        )
        for a, m in np.argwhere(differs(evaluate(int_matmul(X, Bm), DX, M), rhs)):
            failures.append(f"intertwining fails at block {a}, label {m}")
    for a, b in np.argwhere(np.triu((X != X.transpose(0, 2, 1)).any(axis=0))):
        failures.append(f"Yext not symmetric at ({a},{b})")
    z0, gram_free = _gram_free_checks(md, branching, ratio, trivial)
    failures += gram_free
    if md.nondegenerate:
        # Yext Yext^dagger must be w_zero times the identity.
        Xv = evaluate(X, DX, M)
        identity = evaluate(np.eye(t, dtype=np.int64)[None], 1, M)
        w0 = evaluate(*coordinates(indices.w_zero, M), M) * identity
        for a, b in np.argwhere(differs(Xv @ Xv.conjugate().T, w0)):
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


def _general_yext(
    md: ModularData, B: tuple[tuple[int, ...], ...], Bm: np.ndarray, ratio: Cyclotomic
) -> list[list[Cyclotomic]]:
    """Yext = ratio (B Y B^T) G^{-1} through the kernel of [1 | -G], as
    `extended_modular_data` describes it."""
    t = len(B)
    G = int_matmul(Bm, Bm.T)
    pivots, X, L = kernel(np.concatenate([np.eye(t, dtype=G.dtype), -G], axis=1))
    dependent = [i for i in range(t) if i not in pivots]
    if dependent:
        raise RankDeficientBranching(f"branching rows linearly dependent: rows {dependent}")
    rows = [[(l, c) for l, c in enumerate(b) if c] for b in B]
    touched = sorted({l for row in rows for l, _ in row})
    Y = md.Y
    BY = [
        {m: csum(Y[l][m] * c for l, c in row) for m in touched}
        for row in rows
    ]
    BYBt = [[csum(BY_a[l] * c for l, c in row) for row in rows] for BY_a in BY]
    # Every column of the invertible Gram inverse has a nonzero entry.
    columns = [[(k, x) for k, x in enumerate(row) if x] for row in X[:, t:].tolist()]
    return [
        [ratio * (csum(BYBt_a[k] * x for k, x in col) / L) for col in columns]
        for BYBt_a in BYBt
    ]


def branching_checks(
    md: ModularData, branching: BranchingData, indices: GlobalIndices
) -> list[str]:
    """The exact identities of `_gram_free_checks`, which need no Gram
    inverse; used when the branching rows are dependent and Yext is not
    determined. Two more identities hold by construction, because `divide`
    returns a quotient q of a by b only once q b = a holds exactly:
    - the block dims d_tau = (w_plus/w) sum_l b_{tau,l} d_l, whenever the
      branching factorizes the invariant Z that the indices are of (the only
      pairing `classify_all` makes): `_branching_from_rows` takes
      d_tau = divide(sum_l b_{tau,l} d_l, sum_l d_l Z_{l,0}), row 0 being the
      vacuum column of Z, and `global_indices` takes
      w_plus = divide(w, sum_l d_l Z_{l,0});
    - w_zero w_alpha = w_plus^2, since w_zero = divide(w_plus^2, w_alpha)."""
    ratio = divide(indices.w_plus, md.w)
    return _gram_free_checks(md, branching, ratio, _blocks_are_labels(md, branching))[1]


def _blocks_are_labels(md: ModularData, branching: BranchingData) -> bool:
    """B = 1 with the labels' own dims and twists: the diagonal invariant as
    its own parent. The block dims d_l / d_0 of `_branching_from_rows` keep
    the coordinates and slot order of d_l, so they are the ring's dims."""
    ring = md.ring
    unit = tuple(map(tuple, np.eye(md.size, dtype=np.int64).tolist()))
    return (branching.B, branching.block_dims, branching.block_twists) == (unit, ring.dims, ring.twists)


def _gram_free_checks(
    md: ModularData, branching: BranchingData, ratio: Cyclotomic, trivial: bool
) -> tuple[Cyclotomic, list[str]]:
    """The extended Gauss sum z0 = sum_a d_a^2 omega_a, and the failures, in
    this order, of twist intertwining (every label in the row of block a has
    its twist, blocks in order) and of z0 = ratio * z, ratio = w_plus/w.
    When the blocks are the labels (`trivial`, from `_blocks_are_labels`),
    z0 is the sum behind z itself, term by term."""
    ring = md.ring
    failures = [
        f"twist intertwining fails at block {a}, label {l}"
        for a, (row, h) in enumerate(zip(branching.B, branching.block_twists))
        for l, b in enumerate(row)
        if b and ring.twists[l] != h
    ]
    if trivial:
        z0 = md.z
    else:
        pairs = zip(branching.block_dims, branching.block_twists)
        z0 = csum(d * d * root_of_unity(h) for d, h in pairs)
    if z0 != ratio * md.z:
        failures.append("z0 != (w_plus/w) z")
    return z0, failures


def rational_span_dimension(mats: Sequence[CouplingMatrix]) -> int:
    return span_dimension_and_relations(mats)[0]


def in_rational_span(target: CouplingMatrix, mats: Sequence[CouplingMatrix]) -> bool:
    """A relation among [*mats, target] is nonzero at the target exactly
    when the target lies in the span, and then the last one is."""
    relations = span_dimension_and_relations([*mats, target])[1]
    return bool(relations and relations[-1][-1])


def span_relations(mats: Sequence[CouplingMatrix]) -> list[list[int]]:
    """Integer basis of the rational relations sum_i c_i Z_i = 0 among the
    given matrices, each a list over the matrices, normalized to coprime
    entries with positive lead."""
    return span_dimension_and_relations(mats)[1]


def span_dimension_and_relations(
    mats: Sequence[CouplingMatrix],
) -> tuple[int, list[list[int]]]:
    """Span dimension and `span_relations` from one pass over the matrices,
    read as one integer stack (`_pool_stack`).

    Relation i is the unique primitive relation among mats[:i+1], positive at
    its lead (its first nonzero coefficient), that vanishes at the leads of
    the relations before it. The rows kept are [Z | c] with Z the sum of
    c_s times the basis member in slot s, the basis being the matrices that
    are not the lead of a relation so far; at most n^2 + 1 slots are in use.
    When the matrix part of a residual cancels, its slots hold the next
    relation, the member at the relation's lead leaves, and every row is
    rewritten through the relation to the member that takes its place.
    """
    k = len(mats)
    S = _pool_stack(mats)
    width = S[0].size if k else 0
    echelon = Echelon(2 * width + 1)
    member: dict[int, int] = {}  # slot -> index into mats
    relations: list[list[int]] = []
    free = 0  # the slot of the matrix being reduced
    for i, entries in enumerate(S.reshape(k, width).tolist()):
        slots = [int(s == free) for s in range(width + 1)]
        r = echelon.residual(entries + slots)
        if any(r[:width]):
            echelon.insert(r)
            member[free] = i
            free = next(s for s in range(width + 1) if s not in member)
            continue
        coeffs = {j: r[width + s] for s, j in member.items() if r[width + s]}
        coeffs[i] = r[width + free]
        lead = min(coeffs)
        g = math.gcd(*coeffs.values()) if coeffs[lead] > 0 else -math.gcd(*coeffs.values())
        relation = [0] * k
        for j, c in coeffs.items():
            relation[j] = c // g
        relations.append(relation)
        if lead != i:  # i is the lead only of a zero matrix, which joins no basis
            (leaving,) = (s for s, j in member.items() if j == lead)
            echelon.rewrite(r, width + leaving)
            member[free] = i
            del member[leaving]
            free = leaving
    return k - len(relations), relations


def classify_all(md: ModularData, pool: Sequence[CouplingMatrix]) -> list[Classification]:
    """Classify every matrix in a complete enumeration.

    Kind precedence: diagonal, heterotic (asymmetric vacuum), type I (admits
    a block factorization), permutation (non-identity permutation matrix
    realizing a block automorphism of its parents), type II (coinciding
    parents with an automorphism), unresolved.

    The pool is read as one (k, n, n) integer stack: a `Pool`'s own, or one
    built once from a list (see `_PoolData`). Each symmetric invariant is
    factorized once, and the extended data of each of its factorizations is
    computed at most once. Global indices and their check are computed once
    per distinct vacuum key, not once per invariant. Parents are looked up
    by vacuum column in a map built from those factorizations, and a
    parent's extended data is shared between its own classification and the
    automorphism check of its children.

    The parents of an invariant depend only on its (vacuum column, vacuum
    row), so block bijections are searched once per such key: the invariants
    that share it are grouped in a dict of integer tuples, and each pair of
    parent factorizations is tried, in the order a loop over one invariant
    would try them, as one `_block_bijections` search over the sub-stack of
    the key's invariants that no earlier pair joined. Each invariant takes
    the first pair that joins it, and that pair's first theta and count.
    """
    data = _PoolData(md, pool)
    joined = data.bijections()
    out = []
    for i, Z in enumerate(pool):
        sym, idx, facts = data.vacuum_symmetric[i], data.indices[i], data.facts[i]
        plus, minus = _parents(data.type_one_by_column, data.column_ids[i], data.row_ids[i])
        cls = Classification(
            index=i,
            Z=Z,
            kind="unresolved",
            vacuum_symmetric=sym,
            indices=idx,
            factorizations=facts or [],
            parent_plus=plus,
            parent_minus=minus,
            notes=list(data.index_notes[i]),
        )
        if i in joined:
            _attach_bijection(data, cls, *joined[i])
        if data.identity[i]:
            cls.kind = "diagonal"
        elif not sym:
            cls.kind = "heterotic"
        elif facts:
            cls.kind = "type_I"
        elif cls.automorphism is not None:
            cls.kind = "permutation" if Z.is_permutation() else "type_II"
        if facts:
            cls.extended, cls.extended_error = data.extended(i, 0)
            if cls.extended_error is not None:
                cls.branching_failures = branching_checks(md, facts[0], idx)
                cls.notes.append(
                    "extended Y not determined by the branching (dependent rows); "
                    "Gram-free identities checked instead"
                )
        out.append(cls)
    return out


class _PoolData:
    """The exact data of one `classify_all` call, each piece computed at most
    once. The pool is read as a (k, n, n) integer stack S (`_pool_stack`),
    and every structural fact of an invariant is read off it as an array:
    the vacuum symmetry S[:, :, 0] = S[:, 0], Z = Z^T, the identity, and the
    vacuum columns and rows, by which parents are looked up, as
    `find_parents` looks them up. Every invariant needs its factorizations
    and global indices, so those are computed up front; only a matrix with
    Z = Z^T can factorize as B^T B, so no other is searched (the others
    share one empty tuple). A parent can come later in the pool than the
    invariant that needs it, so extended data is filled in lazily.

    A vacuum column or row is held as an int, its index among the distinct
    ones: per invariant the data holds ints and shared objects, not tuples
    or lists of its own, so that building it does not set off the full
    garbage collections that k retained containers would.

    `global_indices` reads Z only through its vacuum column and the entries
    of its vacuum row at degenerate labels, so invariants that agree there
    share one `GlobalIndices` and the notes of one `check()`. Equal inputs
    to the same exact code give the same values and slot orders. Keys are
    tuples of integers and pool indices, never cyclotomic values."""

    def __init__(self, md: ModularData, pool: Sequence[CouplingMatrix]):
        self.md = md
        self.stack = S = _pool_stack(pool, md.size)
        column, row = S[:, :, 0], S[:, 0]
        self.vacuum_symmetric = (column == row).all(axis=1).tolist()
        self.identity = (S == np.eye(md.size, dtype=S.dtype)).all(axis=(1, 2)).tolist()
        (symmetric,) = (S == S.transpose(0, 2, 1)).all(axis=(1, 2)).nonzero()
        self.facts: list[Sequence[BranchingData]] = [()] * len(S)
        for i in symmetric.tolist():
            self.facts[i] = factorize_type_one(md, pool[i])
        # A row finds the type I matrices whose vacuum column equals it.
        ids: dict[tuple, int] = {}
        self.column_ids = [ids.setdefault(c, len(ids)) for c in _row_tuples(column)]
        self.row_ids = [ids.setdefault(r, len(ids)) for r in _row_tuples(row)]
        self.type_one_by_column = _type_one_by_column(self.column_ids, self.facts)
        degenerate_row = row[:, sorted(md.degenerates)]
        keys = _row_tuples(np.concatenate([column, degenerate_row], axis=1))
        by_key: dict[tuple, tuple[GlobalIndices, list[str]]] = {}
        self.indices: list[GlobalIndices] = []
        self.index_notes: list[list[str]] = []  # check() of each invariant's indices
        for i, key in enumerate(keys):
            entry = by_key.get(key)
            if entry is None:
                idx = global_indices(md, pool[i])
                entry = by_key[key] = idx, idx.check()
            idx, notes = entry
            self.indices.append(idx)
            self.index_notes.append(notes)
        self._extended: dict[tuple[int, int], tuple] = {}  # (i, k) -> extended(i, k)

    def extended(self, i: int, k: int) -> tuple[Optional[ExtendedModularData], Optional[str]]:
        """(extended data, None) for factorization k of pool[i], or (None, the
        message of its RankDeficientBranching); computed once per pair."""
        key = (i, k)
        if key not in self._extended:
            try:
                ext = extended_modular_data(self.md, self.facts[i][k], self.indices[i])
                self._extended[key] = ext, None
            except RankDeficientBranching as exc:
                self._extended[key] = None, str(exc)
        return self._extended[key]

    def bijections(self) -> dict[int, tuple[int, int, int, tuple[int, ...], int]]:
        """Pool index -> (ip, kp, im, theta, count) for each invariant that a
        pair of parent factorizations joins: factorization kp of pool[ip] on
        the plus side and one of pool[im] on the minus side, the first such
        pair in the order (ip, im, kp, km) with its first theta and count."""
        by_column = self.type_one_by_column
        groups: dict[tuple[int, int], list[int]] = {}
        for i, key in enumerate(zip(self.column_ids, self.row_ids)):
            if key[0] in by_column and key[1] in by_column:
                groups.setdefault(key, []).append(i)
        facts = self.facts
        joined = {}
        for (column, row), members in groups.items():
            left = np.array(members)
            pairs = (
                (ip, kp, im, bp, bm)
                for ip in by_column[column]
                for im in by_column[row]
                for kp, bp in enumerate(facts[ip])
                for bm in facts[im]
                if bp.block_count == bm.block_count
            )
            for ip, kp, im, bp, bm in pairs:
                found = _block_bijections(bp, bm, self.stack[left])
                for i, res in zip(left.tolist(), found):
                    if res is not None:
                        joined[i] = (ip, kp, im, *res)
                left = left[[res is None for res in found]]
                if not len(left):
                    break
        return joined


def _row_tuples(rows: np.ndarray) -> Iterator[tuple]:
    """The rows of a 2-d integer array as tuples of ints, converted 2**12
    rows at a time: the lists of a block are freed before the next."""
    step = 2**12
    for start in range(0, len(rows), step):
        yield from map(tuple, rows[start : start + step].tolist())


def _pool_stack(pool: Sequence[CouplingMatrix], n: Optional[int] = None) -> np.ndarray:
    """The pool as one (k, n, n) integer stack: a `Pool`'s own, or, for a
    list, its matrices stacked by `int_array`. The size n is read off the
    first matrix when not given (0 for an empty list)."""
    if isinstance(pool, Pool):
        return pool.stack
    if n is None:
        n = pool[0].size if pool else 0
    return int_array([Z.Z for Z in pool]).reshape(len(pool), n, n)


def _attach_bijection(
    data: _PoolData, cls: Classification, ip: int, kp: int, im: int, theta: tuple, count: int
) -> None:
    """Record the block bijection theta (of `count`) between factorization kp
    of the plus parent ip and one of the minus parent im; record the
    automorphism when the parents coincide."""
    cls.bijection = theta
    cls.bijection_count = count
    if ip == im:
        cls.automorphism = theta
        ext, _ = data.extended(ip, kp)
        # Without Yext (not determined by the branching), twist and dim
        # matching were already enforced per block pair.
        if ext is not None:
            cls.automorphism_preserves_extended = _permutation_preserves(
                ext, data.facts[ip][kp], theta
            )
        if len(data.facts[ip]) > 1:
            cls.notes.append("coinciding parents admit multiple distinct factorizations")


def _permutation_preserves(
    ext: ExtendedModularData, branching: BranchingData, theta: tuple[int, ...]
) -> bool:
    """theta maps every block to one of its twist and keeps Yext; the
    identity does so by definition, with no comparison."""
    t = branching.block_count
    if theta == tuple(range(t)):
        return True
    for a in range(t):
        if branching.block_twists[theta[a]] != branching.block_twists[a]:
            return False
        for b in range(t):
            if ext.Yext[theta[a]][theta[b]] != ext.Yext[a][b]:
                return False
    return True
