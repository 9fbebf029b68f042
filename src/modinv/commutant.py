"""Exact commutant {Z : YZ = ZY, Omega Z = Z Omega} and exhaustive
enumeration of its non-negative integer points with Z[0,0] = 1.

The T-commutation constraint is imposed structurally by the twist mask
(`twist_sparsity`: entries vanish off equal twists), which the kernel and
every verification read. YZ = ZY is linear in the rational Z over the
integer coordinates of Y in the power basis (ModularData.Y_coords), on
which both the kernel and every commutation check are computed. The kernel
is that of the P x P integer Gram matrix of the constraints (P the allowed
entries), read off its reduction modulo primes and certified exactly. The
integer points are then enumerated, in integers, by a search over the
kernel's pivot entries that expands whole batches of sibling nodes as
integer arrays. It reads no float: its entry bounds ceil(scale * d_l * d_m)
are exact, and it prunes a node once some column's entries that are not
yet final have a negative d-weighted sum, which integer brackets of
2**32 d_l certify.

Each constraint on a coupling matrix has one implementation, a mask over a
(k, n, n) stack of integer matrices: `_verify_pool` checks the search's whole
pool and, as a stack of one, the matrix `verify_invariant` was given, and
`_noncommuting` decides YZ = ZY for both and for the kernel's own basis. The
stack checked is what the search returns: a `Pool`, whose coupling matrices
are read from it.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat
from typing import Sequence, Union

import numpy as np

from .cyclo import (
    Cyclotomic,
    _parts,
    exact_dtype,
    int_array,
    int_dtype,
    int_matmul,
    real_bounds,
    real_floor,
)
from .fusion import FusionRing
from .linalg import kernel
from .modular import ModularData, twist_exponents

DEFAULT_NODE_BUDGET = 10_000_000
# Caps the entries of one batch: search accumulators, YZ = ZY products and
# classification's block-bijection quotients and caps.
SEARCH_CHUNK = 2**16
# Caps parents x children x P, the entries of one expansion's (children, P)
# arrays; one parent is always expanded, whatever its children.
SEARCH_EXPANSION = 2**20


class SearchBudgetExceeded(RuntimeError):
    """The search stopped at its node budget: `nodes` nodes visited, the
    deepest at pivot level `depth` of `levels`, and the verified invariants
    reached by then in `partial`."""

    def __init__(
        self, budget: int, partial: "Pool", nodes: int, depth: int, levels: int
    ):
        super().__init__(
            f"enumeration exceeded the node budget of {budget} after {nodes} nodes, "
            f"reaching pivot level {depth} of {levels}; "
            f"{len(partial)} invariants found before the cutoff"
        )
        self.budget = budget
        self.partial = partial
        self.nodes = nodes
        self.depth = depth
        self.levels = levels


class InvariantRejected(ValueError):
    """A candidate matrix violates one of the coupling-matrix constraints."""


@dataclass
class CommutantBasis:
    positions: list[tuple[int, int]]  # allowed entries, row-major
    rows: np.ndarray  # reduced echelon rows over the positions, times the denominator
    denominator: int  # the lcm L > 0 of the denominators of the reduced echelon rows
    pivot_indices: list[int]  # indices into positions

    @property
    def dimension(self) -> int:
        return len(self.rows)

    def __eq__(self, other):
        if not isinstance(other, CommutantBasis):
            return NotImplemented
        fields = (self.positions, self.denominator, self.pivot_indices)
        same = fields == (other.positions, other.denominator, other.pivot_indices)
        return same and np.array_equal(self.rows, other.rows)


class CouplingMatrix:
    """A coupling matrix as :func:`verify_invariant` returns it, exactly
    verified. `Z` is its entries as a tuple of row tuples. An item of a
    `Pool` holds only its pool's stack and its row there, and builds `Z`
    from that row the first time `Z` is read; equality, hash and repr are
    those of `Z`."""

    __slots__ = ("_Z", "_stack", "_index")

    def __init__(self, Z: tuple[tuple[int, ...], ...]):
        self._Z = Z
        self._stack = None
        self._index = 0

    @classmethod
    def _row(cls, stack: np.ndarray, index: int) -> "CouplingMatrix":
        self = cls.__new__(cls)
        self._Z, self._stack, self._index = None, stack, index
        return self

    @property
    def Z(self) -> tuple[tuple[int, ...], ...]:
        if self._Z is None:
            self._Z = tuple(map(tuple, self._stack[self._index].tolist()))
        return self._Z

    def __eq__(self, other):
        if not isinstance(other, CouplingMatrix):
            return NotImplemented
        return self.Z == other.Z

    def __hash__(self):
        return hash(self.Z)

    def __repr__(self):
        return f"CouplingMatrix(Z={self.Z!r})"

    @property
    def size(self) -> int:
        return len(self.Z)

    @property
    def trace(self) -> int:
        return sum(self.Z[l][l] for l in range(self.size))

    @property
    def vacuum_column(self) -> tuple[int, ...]:
        return tuple(row[0] for row in self.Z)

    @property
    def vacuum_row(self) -> tuple[int, ...]:
        return self.Z[0]

    @property
    def vacuum_symmetric(self) -> bool:
        return self.vacuum_column == self.vacuum_row

    def is_permutation(self) -> bool:
        n = self.size
        return all(sum(self.Z[l]) == 1 for l in range(n)) and all(
            sum(self.Z[l][m] for l in range(n)) == 1 for m in range(n)
        )


class Pool(list):
    """Verified coupling matrices as one read-only (k, n, n) integer stack,
    `stack`, the form in which `_verify_pool` checked them. The list holds
    k `CouplingMatrix` items, item i over row i of the stack, so a pool is
    indexed, iterated and compared as a list of coupling matrices; the
    search, classification and the report read the stack itself. A pool is
    not changed in place, so that its items and its stack stay one."""

    def __init__(self, stack: np.ndarray):
        stack.flags.writeable = False
        super().__init__(map(CouplingMatrix._row, repeat(stack), range(len(stack))))
        self.stack = stack

    def _read_only(self, *args):
        raise TypeError("a Pool is not changed in place: its items are rows of its stack")

    append = extend = insert = pop = remove = clear = sort = reverse = _read_only
    __setitem__ = __delitem__ = __iadd__ = __imul__ = _read_only


def twist_sparsity(ring: FusionRing) -> np.ndarray:
    """The (n, n) twist mask, True at the entries (l, m) with h_l = h_m
    that T-commutation allows. The exponents s = h M are integers, M the
    conductor, so s_l = s_m exactly when h_l = h_m."""
    s = twist_exponents(ring)
    return s[:, None] == s


# -- exact kernel ------------------------------------------------------------


def commutant_basis(md: ModularData, pattern: np.ndarray) -> CommutantBasis:
    """Rational kernel of Z -> YZ - ZY restricted to the True entries of the
    (n, n) mask `pattern` (`twist_sparsity`), as a reduced-echelon basis with
    respect to row-major entry order, in integers over one denominator.

    It is computed as the kernel of the P x P Gram matrix G = A^T A of the
    integer constraint matrix A (rows: coordinate e and entry (l, m) of
    YZ - ZY; columns: the P allowed positions). A is rational, so
    x^T G x = |Ax|^2 and G has the kernel of A, whose reduced-echelon basis
    is unique; `linalg.kernel` reads it off G modulo primes and certifies it
    exactly."""
    n = md.size
    a, b = np.nonzero(pattern)  # row-major
    positions = list(zip(a.tolist(), b.tolist()))
    pivots, X, L = kernel(_gram(md.Y_coords, positions))
    cb = CommutantBasis(positions, X, L, pivots)
    stack = np.zeros((cb.dimension, n, n), dtype=X.dtype)
    stack[:, a, b] = X
    failures = np.argwhere(_noncommuting(md, stack))
    if len(failures):
        i, l, m = failures[0].tolist()
        raise AssertionError(
            f"internal error: commutant basis element {i} fails YZ=ZY at ({l},{m})"
        )
    return cb


def _gram(Y: np.ndarray, positions: list[tuple[int, int]]) -> np.ndarray:
    """G = A^T A for the constraint matrix of YZ = ZY over the positions
    p = (a_p, b_p), A[(e, l, m), p] = Y_e[l, a_p] [b_p = m] - [a_p = l] Y_e[b_p, m],
    for the integer coordinates Y[e] of a matrix that need not be symmetric:
    G_pq = [b_p = b_q] K1[a_p, a_q] + [a_p = a_q] K2[b_p, b_q] - T_pq - T_qp
    with K1 = sum_e Y_e^T Y_e, K2 = sum_e Y_e Y_e^T and
    T_pq = sum_e Y_e[a_p, a_q] Y_e[b_p, b_q]. Only (P, P) arrays are formed.

    K1 and K2 are two `int_matmul`s of Y's (f n, n) unfoldings, in float64
    BLAS while f n max|Y|^2 < 2**53 holds every sum exactly. Every entry of
    G is at most 4 f n max|Y|^2 in absolute value, so K1, K2 and T are held
    in `int_dtype` of that bound before they are combined: int64 below 2**63,
    else Python ints."""
    f, n, _ = Y.shape
    P = len(positions)
    a, b = np.array(positions, dtype=np.intp).reshape(P, 2).T
    # K1 and K2 entries sum f n products of two entries of Y, T entries f.
    dtype = int_dtype(4 * f * n * int(abs(Y).max()) ** 2)
    Y = Y.astype(dtype, copy=False)
    rows = Y.reshape(f * n, n)  # K1 = rows^T rows
    columns = Y.transpose(1, 0, 2).reshape(n, f * n)  # K2 = columns columns^T
    K1 = int_matmul(rows.T, rows).astype(dtype, copy=False)
    K2 = int_matmul(columns, columns.T).astype(dtype, copy=False)
    T = sum(Ye[np.ix_(a, a)] * Ye[np.ix_(b, b)] for Ye in Y)
    G = np.where(b[:, None] == b, K1[np.ix_(a, a)], 0)
    G += np.where(a[:, None] == a, K2[np.ix_(b, b)], 0)
    return G - T - T.T


def _noncommuting(md: ModularData, Z: np.ndarray) -> np.ndarray:
    """Mask of the entries where YZ and ZY differ, for a (k, n, n) stack of
    integer matrices, compared on the integer coordinates of Y in chunks."""
    Y = md.Y_coords[:, None]
    out = np.zeros(Z.shape, dtype=bool)
    chunk = max(1, SEARCH_CHUNK // md.Y_coords.size)  # bounds the (phi, chunk, n, n) products
    for start in range(0, len(Z), chunk):
        part = Z[start : start + chunk]
        out[start : start + chunk] = (int_matmul(Y, part) != int_matmul(part, Y)).any(axis=0)
    return out


# -- enumeration -------------------------------------------------------------


def enumerate_invariants(
    md: ModularData,
    basis: CommutantBasis,
    bound_scale: Union[Fraction, int] = 1,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> Pool:
    """All non-negative integer matrices in the commutant with Z[0,0] = 1.

    Search over the kernel's pivot entries, level i choosing the coefficient
    of basis row i; every entry (pivot or completed) is bounded by the exact
    ceil(bound_scale * d_l * d_m). Entries finalized along the way must be
    non-negative integers within their bound. Once row 0 is final, YZ = ZY
    fixes each column's d-weighted sum sum_l d_l Z_lm, and the accumulator,
    which lies in the commutant, already has it; so a node can reach a leaf
    only if in every column the d-weighted sum of its entries not yet final
    is >= 0. A node is pruned when an integer upper bound on 2**32 times that
    remainder, from brackets of 2**32 d_l, is negative. Siblings are expanded
    together: the stack holds batches of nodes of one level, as integer
    arrays of L * Z on the allowed positions (L the kernel's common
    denominator), and each batch's children are checked as masks. A node is
    one choice of one coefficient, and the node count of a complete search
    does not depend on the order of expansion. A batch is expanded only as
    far as its parents' children fit in `node_budget`; when not one parent
    fits, the search raises SearchBudgetExceeded with the invariants reached
    so far: verified, but not the subset a one-node-at-a-time depth-first
    search would have reached. The children per parent are counted from the
    entry bound before any array of them is allocated, so a bound far past
    the budget (a huge `bound_scale`) ends the search, not the memory. At
    most SEARCH_EXPANSION entries of parents x children x P are expanded at
    once, so that one expansion's arrays, its children's entries and
    accumulators, do not grow with the budget: a parent with more children
    than that is expanded a range of its coefficients at a time, all its
    children counted with the first range.
    Output is canonically sorted and exactly re-verified.
    """
    n = md.size
    scale = Fraction(*_parts(bound_scale))  # an int or a Fraction, else TypeError
    if basis.dimension == 0 or basis.positions[0] != (0, 0) or basis.pivot_indices[0] != 0:
        # every kernel element vanishes at (0,0): Z[0,0] = 1 is unreachable
        return Pool(np.zeros((0, n, n), dtype=np.int64))

    positions = basis.positions
    P = len(positions)
    bounds = np.array(_entry_bounds(md.ring.dims, positions, scale))
    pivots = basis.pivot_indices
    k = len(pivots)
    # Kernel rows times their common denominator L: the search accumulates L * Z.
    L = basis.denominator
    # Every accumulator entry, sum and product is at most sum_i bound * max|row_i|
    # (row 0 takes the coefficient 1).
    row_max = [int(x) for x in abs(basis.rows).max(axis=1)]
    acc_bound = sum(max(int(bounds[p]), 1) * r for p, r in zip(pivots, row_max))
    dtype = int_dtype(acc_bound)
    B = basis.rows.astype(dtype)
    # The leaves' entries lie in 0..max(bounds): the smallest signed dtype that holds them.
    entry_dtype = np.min_scalar_type(-int(bounds.max()) - 1)
    # Level i finalizes the entries from its pivot to the next one.
    segments = [slice(p, q) for p, q in zip(pivots, pivots[1:] + [P])]
    flat = np.array([l * n + m for l, m in positions], dtype=np.intp)
    # The level whose segment completes row 0 (positions (0, m) come first).
    row0_level = bisect_right(pivots, sum(1 for l, _m in positions if l == 0) - 1) - 1
    # W[0, j, m] >= 2**32 d_l >= W[1, j, m] for position j = (l, m), in its
    # column m. Any width is sound, a looser bracket only prunes less; at 32
    # bits a negative remainder escapes only within a few 2**-32 sum|acc| of
    # 0, and the sums stay in int64 while P max|acc| max d_l < 2**30.
    lo, hi = zip(*real_bounds(md.ring.dims, 32))
    W = int_array([[[e[l] * (c == m) for c in range(n)] for l, m in positions] for e in (hi, lo)])
    # The prune sums at most 2P products of an accumulator entry and an entry
    # of W, in one dtype fixed here (float64, BLAS, while the sums stay below
    # 2**53).
    W_bound = int(abs(W).max())
    prune_dtype = exact_dtype(max(2 * P * acc_bound * W_bound, acc_bound, W_bound))
    W = W.astype(prune_dtype)

    leaves = []
    nodes = depth = 0
    # Batches (level, acc, first): parents at one level whose children from
    # coefficient `first` on are still to be expanded.
    stack = [(0, np.zeros((1, P), dtype=dtype), 0)]
    while stack:
        i, acc, first = stack.pop()
        # Children per parent, a Python int: the coefficients are allocated
        # only once some parent's children fit in the budget, and no more
        # parents are expanded at once than SEARCH_EXPANSION allows.
        count = 1 if i == 0 else int(bounds[pivots[i]]) + 1
        if first == 0:
            fit = (node_budget - nodes) // count
            if fit == 0:
                partial = _verify_pool(md, _sorted_stack(leaves, flat, n))
                raise SearchBudgetExceeded(node_budget, partial, nodes, depth, k)
            fit = min(fit, max(1, SEARCH_EXPANSION // (count * P)))
            if fit < len(acc):  # expand the parents that fit; the rest wait below their children
                stack.append((i, acc[fit:], 0))
                acc = acc[:fit]
            nodes += len(acc) * count
            depth = max(depth, i + 1)
        # A parent whose children alone exceed SEARCH_EXPANSION is expanded
        # a range of coefficients at a time; the rest wait below the
        # children, already counted.
        lo, hi = (1, 2) if i == 0 else (first, count)
        hi = min(hi, lo + max(1, SEARCH_EXPANSION // P))
        if hi < count:
            stack.append((i, acc, hi))
        values = np.arange(lo, hi)
        seg = segments[i]
        # The segment's entries of child (parent p, coefficient v) in row
        # p * len(values) + v - values[0]; the rest of acc is unchanged or,
        # beyond the segment, not final yet.
        entries = acc[:, None, seg] + values[:, None] * B[i, seg]
        entries = entries.reshape(-1, entries.shape[2])
        x = entries // L
        ok = ((x * L == entries) & (x >= 0) & (x <= bounds[seg])).all(axis=1)
        (alive,) = ok.nonzero()
        parent, v = np.divmod(alive, len(values))
        acc = acc[parent] + values[v][:, None] * B[i]
        if i >= row0_level:
            # Y_0l = d_l, so sum_l d_l Z_lm = (YZ)_0m = (ZY)_0m is fixed by
            # row 0 and acc has it: the entries not yet final must keep a
            # d-weighted sum >= 0 in every column. W bounds 2**32 times that
            # sum from above.
            rest = acc[:, seg.stop :]
            split = np.concatenate([np.maximum(rest, 0), np.minimum(rest, 0)], axis=1)
            prune = split.astype(prune_dtype) @ W[:, seg.stop :].reshape(-1, n)
            acc = acc[(prune >= 0).all(axis=1)]
        if i + 1 == k:
            leaves.append((acc // L).astype(entry_dtype))
            continue
        rows = max(1, SEARCH_CHUNK // P)
        for start in reversed(range(0, len(acc), rows)):
            stack.append((i + 1, acc[start : start + rows], 0))

    return _verify_pool(md, _sorted_stack(leaves, flat, n))


def _sorted_stack(leaves: list[np.ndarray], flat: np.ndarray, n: int) -> np.ndarray:
    """The leaves, (k, P) arrays of the entries at the row-major flat indices
    `flat`, as one (k, n, n) stack in lexicographic (row-major) order; every
    other entry is 0, so the order of the P entries is that of the matrices.
    Empties the list, so that no leaf is held twice."""
    entries = np.concatenate(leaves) if leaves else np.zeros((0, len(flat)), dtype=np.int64)
    leaves.clear()
    entries = entries[np.lexsort(entries.T[::-1])]
    Z = np.zeros((len(entries), n * n), dtype=entries.dtype)
    Z[:, flat] = entries
    return Z.reshape(-1, n, n)


def _entry_bounds(
    dims: Sequence[Cyclotomic], positions: list[tuple[int, int]], scale: Fraction
) -> list[int]:
    """max(0, ceil(scale * d_l * d_m)) for each position, exactly and once
    per unordered pair.

    With scale = p/q and integer brackets lo <= 2**64 d <= hi of the real
    dims (`real_bounds`), 2**128 q scale d_l d_m lies between the least and
    the greatest of p times the four products of the ends, whatever their
    signs. When both ends of that bracket have one ceiling, it is the
    bound. Otherwise the bracket holds an integer (as at d_0 d_m for a
    rational d_m), and the bound is the exact ceiling of the real part of
    the cyclotomic product (`real_floor`), as it is for a dim that is not
    real."""
    p, q = scale.numerator, scale.denominator
    unit = q << 128
    brackets = real_bounds(dims, 64)
    real = [d.is_real() for d in dims]

    def ceiling(l: int, m: int) -> int:
        if real[l] and real[m]:
            ends = [p * x * y for x in brackets[l] for y in brackets[m]]
            lo, hi = -(-min(ends) // unit), -(-max(ends) // unit)
            if lo == hi:
                return max(0, lo)
        return max(0, -real_floor(-(dims[l] * dims[m] * scale)))

    ceilings = {pair: ceiling(*pair) for pair in {(min(l, m), max(l, m)) for l, m in positions}}
    return [ceilings[min(l, m), max(l, m)] for l, m in positions]


def _verify_pool(
    md: ModularData, pool: Union[np.ndarray, Sequence[Sequence[Sequence[int]]]]
) -> Pool:
    """Exactly verify n x n integer matrices, given as a (k, n, n) integer
    stack or as nested sequences of ints, with one mask per constraint, and
    return them as a `Pool` over the stack checked; raises
    InvariantRejected for the first failing matrix, naming its first
    failing constraint and, in row-major order, entry."""
    n = md.size
    Z = (pool if isinstance(pool, np.ndarray) else int_array(pool)).reshape(-1, n, n)
    off_twist = ~twist_sparsity(md.ring)
    vacuum = np.zeros((n, n), dtype=bool)
    vacuum[0, 0] = True
    masks = {
        "entry Z[{l},{m}] = {v} is not a non-negative integer": Z < 0,
        "Z[0,0] = {v}, must be 1": vacuum & (Z != 1),
        "Omega Z != Z Omega: Z[{l},{m}] != 0 but h[{l}] != h[{m}]": off_twist & (Z != 0),
        "YZ != ZY at ({l},{m})": _noncommuting(md, Z),
    }
    failing = np.logical_or.reduce(list(masks.values())).any(axis=(1, 2))
    if failing.any():
        i = int(np.argmax(failing))
        message, mask = next((msg, mask[i]) for msg, mask in masks.items() if mask[i].any())
        l, m = np.argwhere(mask)[0].tolist()
        raise InvariantRejected(message.format(l=l, m=m, v=Z[i, l, m]))
    return Pool(Z)


def verify_invariant(md: ModularData, Z: Sequence[Sequence[int]]) -> CouplingMatrix:
    """Exactly verify a candidate coupling matrix; raises InvariantRejected
    naming the first failing constraint."""
    n = md.size
    rows_ok = isinstance(Z, (list, tuple)) and all(isinstance(row, (list, tuple)) for row in Z)
    if not rows_ok or len(Z) != n or any(len(row) != n for row in Z):
        raise InvariantRejected(f"expected a {n}x{n} matrix")
    for l in range(n):
        for m in range(n):
            v = Z[l][m]
            if type(v) is not int or v < 0:  # bool is an int subclass
                raise InvariantRejected(f"entry Z[{l},{m}] = {v} is not a non-negative integer")
    return _verify_pool(md, [Z])[0]
