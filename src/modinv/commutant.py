"""Exact commutant {Z : YZ = ZY, Omega Z = Z Omega} and exhaustive
enumeration of its non-negative integer points with Z[0,0] = 1.

The T-commutation constraint is imposed structurally as a sparsity pattern
(entries vanish off equal twists). YZ = ZY is linear in the rational Z over
the integer coordinates of Y in the power basis (ModularData.Y_coords), on
which both the kernel and every commutation check are computed. The kernel
is that of the P x P integer Gram matrix of the constraints (P the allowed
entries), found by fraction-free elimination. The integer points are then
enumerated, in integers, by depth-first search over the kernel's pivot
entries. The search reads only the embedded dims as floats: in the entry
bounds and in the column sums it prunes on, whose targets are read off its
own integer accumulator.

Each constraint on a coupling matrix has one implementation, a mask over a
(k, n, n) stack of integer matrices: `_verify_pool` checks the search's whole
pool and, as a stack of one, the matrix `verify_invariant` was given, and
`_noncommuting` decides YZ = ZY for both and for the kernel's own basis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Union

import numpy as np

from .cyclo import int_array, int_dtype, int_matmul
from .fusion import FusionRing
from .linalg import Echelon, nullspace
from .modular import ModularData

DEFAULT_NODE_BUDGET = 10_000_000


class SearchBudgetExceeded(RuntimeError):
    def __init__(self, budget: int, partial: list["CouplingMatrix"]):
        super().__init__(
            f"enumeration exceeded the node budget of {budget}; "
            f"{len(partial)} invariants found before the cutoff"
        )
        self.budget = budget
        self.partial = partial


class InvariantRejected(ValueError):
    """A candidate matrix violates one of the coupling-matrix constraints."""


@dataclass(frozen=True)
class SparsityPattern:
    allowed: frozenset[tuple[int, int]]


@dataclass
class CommutantBasis:
    positions: list[tuple[int, int]]  # allowed entries, row-major
    basis: list[list[Fraction]]  # reduced echelon rows over the positions
    pivot_indices: list[int]  # indices into positions

    @property
    def dimension(self) -> int:
        return len(self.basis)


@dataclass(frozen=True)
class CouplingMatrix:
    """A coupling matrix as :func:`verify_invariant` returns it, exactly verified."""

    Z: tuple[tuple[int, ...], ...]

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

    def is_identity(self) -> bool:
        return all(
            self.Z[l][m] == (1 if l == m else 0)
            for l in range(self.size)
            for m in range(self.size)
        )

    def is_permutation(self) -> bool:
        n = self.size
        return all(sum(self.Z[l]) == 1 for l in range(n)) and all(
            sum(self.Z[l][m] for l in range(n)) == 1 for m in range(n)
        )


def twist_sparsity(ring: FusionRing) -> SparsityPattern:
    """Allowed entries (l, m) with h_l = h_m mod 1 (T-commutation)."""
    n = ring.size
    h = ring.twists
    return SparsityPattern(
        allowed=frozenset((l, m) for l in range(n) for m in range(n) if h[l] == h[m])
    )


# -- exact kernel ------------------------------------------------------------


def commutant_basis(md: ModularData, pattern: SparsityPattern) -> CommutantBasis:
    """Rational kernel of Z -> YZ - ZY restricted to the sparsity pattern,
    as a reduced-echelon basis with respect to row-major entry order.

    It is computed as the kernel of the P x P Gram matrix G = A^T A of the
    integer constraint matrix A (rows: coordinate e and entry (l, m) of
    YZ - ZY; columns: the P allowed positions). A is rational, so
    x^T G x = |Ax|^2 and G has the kernel of A, whose reduced-echelon basis
    is unique."""
    n = md.size
    positions = sorted(pattern.allowed)
    P = len(positions)
    constraints = Echelon(P)
    for row in _gram(md.Y_coords, positions):
        (nonzero,) = row.nonzero()
        if len(nonzero):
            constraints.insert(dict(zip(nonzero.tolist(), row[nonzero].tolist())))

    kernel = nullspace(constraints)
    cb = CommutantBasis(positions, [row for _, row in kernel], [col for col, _ in kernel])
    # Each basis row times the lcm of its denominators, as one integer stack.
    a, b = np.array(positions, dtype=np.intp).reshape(P, 2).T
    stack = np.zeros((cb.dimension, n, n), dtype=object)
    for i, vec in enumerate(cb.basis):
        L = math.lcm(*(x.denominator for x in vec))
        stack[i, a, b] = [x.numerator * (L // x.denominator) for x in vec]
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
    T_pq = sum_e Y_e[a_p, a_q] Y_e[b_p, b_q]. Only (P, P) arrays are formed."""
    f, n, _ = Y.shape
    P = len(positions)
    a, b = np.array(positions, dtype=np.intp).reshape(P, 2).T
    # K1 and K2 entries sum f n products of two entries of Y, T entries f.
    Y = Y.astype(int_dtype(4 * f * n * int(abs(Y).max()) ** 2), copy=False)
    K1 = np.tensordot(Y, Y, axes=([0, 1], [0, 1]))
    K2 = np.tensordot(Y, Y, axes=([0, 2], [0, 2]))
    T = sum(Ye[np.ix_(a, a)] * Ye[np.ix_(b, b)] for Ye in Y)
    G = np.where(b[:, None] == b, K1[np.ix_(a, a)], 0)
    G += np.where(a[:, None] == a, K2[np.ix_(b, b)], 0)
    return G - T - T.T


def _noncommuting(md: ModularData, Z: np.ndarray) -> np.ndarray:
    """Mask of the entries where YZ and ZY differ, for a (k, n, n) stack of
    integer matrices, compared on the integer coordinates of Y in chunks."""
    Y = md.Y_coords[:, None]
    out = np.zeros(Z.shape, dtype=bool)
    chunk = max(1, 2**12 // md.Y_coords.size)  # bounds the (phi, chunk, n, n) products
    for start in range(0, len(Z), chunk):
        part = Z[start : start + chunk]
        out[start : start + chunk] = (int_matmul(Y, part) != int_matmul(part, Y)).any(axis=0)
    return out


# -- enumeration -------------------------------------------------------------


def enumerate_invariants(
    md: ModularData,
    basis: CommutantBasis,
    bound_scale: Union[Fraction, float, int] = 1,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> list[CouplingMatrix]:
    """All non-negative integer matrices in the commutant with Z[0,0] = 1.

    Depth-first search over the kernel's pivot entries; every entry (pivot or
    completed) is bounded by ceil(bound_scale * d_l * d_m). Entries finalized
    along the way must be non-negative integers within their bound, and
    partial dimension-weighted column sums are pruned against their final
    values, which YZ = ZY fixes once row 0 is: the accumulator lies in the
    commutant, so its own column sums give them. Output is canonically
    sorted and exactly re-verified.
    """
    n = md.size
    if basis.dimension == 0 or basis.positions[0] != (0, 0):
        return []
    if basis.pivot_indices[0] != 0:
        return []  # every kernel element vanishes at (0,0); Z[0,0]=1 unreachable

    d = [x.embed().real for x in md.ring.dims]
    positions = basis.positions
    npos = len(positions)
    scale = float(bound_scale)
    bounds = [max(0, math.ceil(scale * d[l] * d[m] - 1e-9)) for (l, m) in positions]
    pivots = basis.pivot_indices
    # Kernel rows times their common denominator L: the search accumulates L * Z.
    L = math.lcm(*(x.denominator for row in basis.basis for x in row))
    bvecs = [[x.numerator * (L // x.denominator) for x in row] for row in basis.basis]
    k = len(pivots)
    seg_end = [pivots[i + 1] if i + 1 < k else npos for i in range(k)]
    r0_len = sum(1 for (l, _m) in positions if l == 0)

    results: list[tuple[tuple[int, ...], ...]] = []
    nodes = 0
    budget_hit = False

    def column_targets(acc: list[int]) -> list[float]:
        # Y_0l = d_l, so (ZY)_0m = (YZ)_0m = sum_l d_l Z_lm for Z = acc / L.
        sums = [0.0] * n
        for j, (l, m) in enumerate(positions):
            sums[m] += d[l] * acc[j]
        return [s / L + 1e-6 * (1 + abs(s / L)) for s in sums]  # relative slack

    def dfs(
        i: int,
        acc: list[int],
        col_sum: list[float],
        targets: Optional[list[float]],
    ):
        nonlocal nodes, budget_hit
        if budget_hit:
            return
        lo, hi = (1, 1) if i == 0 else (0, bounds[pivots[i]])
        vec = bvecs[i]
        for v in range(lo, hi + 1):
            nodes += 1
            if nodes > node_budget:
                budget_hit = True
                return
            new_acc = [a + v * b for a, b in zip(acc, vec)] if v else list(acc)
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
            else:  # every entry of the segment passed
                if i + 1 < k:
                    dfs(i + 1, new_acc, new_cols, new_targets)
                else:
                    Z = [[0] * n for _ in range(n)]
                    for j, (l, m) in enumerate(positions):
                        Z[l][m] = new_acc[j] // L
                    results.append(tuple(tuple(row) for row in Z))

    dfs(0, [0] * npos, [0.0] * n, None)

    unique = sorted(set(results))
    out = _verify_pool(md, unique)
    if budget_hit:
        raise SearchBudgetExceeded(node_budget, out)
    return out


def _verify_pool(
    md: ModularData, pool: Sequence[Sequence[Sequence[int]]]
) -> list[CouplingMatrix]:
    """Exactly verify n x n integer matrices as one (k, n, n) stack, with one
    mask per constraint; raises InvariantRejected for the first failing
    matrix, naming its first failing constraint and, in row-major order,
    entry."""
    n = md.size
    Z = int_array(pool).reshape(-1, n, n)
    h = md.ring.twists
    vacuum = np.zeros((n, n), dtype=bool)
    vacuum[0, 0] = True
    masks = {
        "entry Z[{l},{m}] = {v} is not a non-negative integer": Z < 0,
        "Z[0,0] = {v}, must be 1": vacuum & (Z != 1),
        "Omega Z != Z Omega: Z[{l},{m}] != 0 but h[{l}] != h[{m}]": (
            np.array([[hl != hm for hm in h] for hl in h]) & (Z != 0)
        ),
        "YZ != ZY at ({l},{m})": _noncommuting(md, Z),
    }
    failing = np.logical_or.reduce(list(masks.values())).any(axis=(1, 2))
    if failing.any():
        i = int(np.argmax(failing))
        message, mask = next((msg, mask[i]) for msg, mask in masks.items() if mask[i].any())
        l, m = np.argwhere(mask)[0].tolist()
        raise InvariantRejected(message.format(l=l, m=m, v=pool[i][l][m]))
    return [CouplingMatrix(Z=tuple(map(tuple, matrix))) for matrix in pool]


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
