"""Exact linear algebra over Q on integer input: every solve through one
kernel by primes, and one fraction-free integer echelon for the span
analysis.

:func:`kernel` reads the reduced echelon basis of an integer matrix's
kernel off its reduced echelon form modulo 31-bit primes (int64 numpy),
lifts it by CRT and rational reconstruction (the steps `cyclo.divide`
takes too) and returns it, as integers over one denominator, only once it
annihilates the matrix exactly; it builds no echelon.

:class:`Echelon`, for the incremental reduction of the span analysis,
takes dense integer rows and keeps them as primitive integer rows with a
positive pivot (integer-preserving elimination in the spirit of Bareiss
1968). A row is reduced once, against every pivot, so what is left of it
does not depend on the order the rows came in; a nonzero residual is what
is kept.
"""

from __future__ import annotations

from math import gcd
from typing import Sequence

import numpy as np

from .cyclo import _crt, _is_prime, _reconstruct, int_array, int_matmul


class Echelon:
    """Integer row echelon of a growing set of dense integer rows of one
    width, each reduced once: `residual`, then `insert` of what is left."""

    def __init__(self, width: int):
        self.width = width
        # Pivot column -> primitive integer row, in insertion order. Each row
        # is zero on the pivots inserted before it.
        self.rows: dict[int, list[int]] = {}

    def residual(self, r: list[int]) -> list[int]:
        """A positive integer multiple of what is left of the integer row r
        once every pivot is eliminated; all zero exactly when r lies in the
        span."""
        for col, row in self.rows.items():
            if r[col]:
                r = _eliminate(r, row, col)
        return r

    def insert(self, r: list[int]) -> int:
        """Keep a nonzero `residual` as a row; its pivot column."""
        lead = next(j for j, x in enumerate(r) if x)
        self.rows[lead] = _primitive(r, lead)
        return lead

    def rewrite(self, row: Sequence[int], col: int) -> None:
        """Clear column col of every stored row with an integer row that is
        zero on every pivot: each stored row becomes the primitive
        combination of itself and `row` that vanishes at col, positive at its
        pivot as before."""
        for pivot, r in self.rows.items():
            if r[col]:
                self.rows[pivot] = _primitive(_eliminate(r, row, col), pivot)


def _primitive(r: list[int], lead: int) -> list[int]:
    """r divided by the gcd of its entries, signed so that r[lead] > 0."""
    g = gcd(*r) if r[lead] > 0 else -gcd(*r)
    return [x // g for x in r]


def _eliminate(r: list[int], row: list[int], col: int) -> list[int]:
    """The integer combination of r and row that vanishes at col."""
    g = gcd(r[col], row[col])
    a, p = r[col] // g, row[col] // g
    return [p * x - a * y for x, y in zip(r, row)]


def kernel(A: np.ndarray) -> tuple[list[int], np.ndarray, int]:
    """The reduced echelon basis of the rational kernel of an integer matrix
    (int64 or Python ints), from its reduced echelon form modulo 31-bit
    primes, as (pivots, X, L): the rows of the integer matrix X are L times
    the basis vectors, L > 0 the lcm of their denominators, and row i is L
    at its leading column pivots[i], in increasing order.

    Reduced with column j moved to width - 1 - j, each row R_p ends at its
    pivot p. For a free column f, the vector with 1 at f, -R_p[f] at each
    pivot p and 0 elsewhere is orthogonal to every R_p, starts at f
    (R_p[f] != 0 only for f < p) and is 0 at every other free column: a row
    of the kernel's unique reduced echelon form. Each -R_p[f] is lifted from
    its residues by CRT and Wang's reconstruction (`cyclo._crt` and
    `cyclo._reconstruct`), and the basis is returned only once A X^T = 0
    holds exactly. That certifies it: rank_p(A) <= rank_Q(A), so there are
    at least dim ker_Q lifted vectors; they are independent (1 at their own
    free column, 0 at the others), so they span ker_Q, and a basis of this
    shape is its unique reduced echelon form. Until then primes are added: a
    prime whose pivots come later than another's (`_rank_key`) is unlucky
    and dropped, one with the same pivots is combined with the others by
    CRT."""
    A = np.asarray(A)
    width = A.shape[1]
    reversed_columns = A[:, ::-1]
    best = None  # (pivots, residues of the basis entries at the pivots, modulus)
    for p in _primes():
        pivots, R = _rref_mod((reversed_columns % p).astype(np.int64), p)
        # -R at the free columns: the basis rows' entries at the pivots, one
        # basis row (free column) after the other, in the original order.
        values = (-np.delete(R, pivots, axis=1).T[::-1]).ravel().tolist()
        if best is None or _rank_key(pivots) > _rank_key(best[0]):
            residues, modulus = [0] * len(values), 1
        elif pivots == best[0]:
            _, residues, modulus = best
        else:
            continue
        best = pivots, *_crt(residues, modulus, values, p)
        lifted = _reconstruct(*best[1:])
        if lifted is not None:
            basis = _basis(pivots, *lifted, width)
            if not int_matmul(A, basis[1].T).any():
                return basis
    raise ArithmeticError("kernel: the primes below 2**31 ran out")


def _primes():
    """The primes below 2**31, descending: residues and their products of
    two stay below 2**62, so int64 holds every step of `_rref_mod`."""
    return (q for q in range(2**31 - 1, 2, -2) if _is_prime(q))


def _rank_key(pivots: list[int]) -> tuple:
    """Orders pivot lists so that the true one is largest: modulo a prime
    the rank of every leading block of columns can only drop, which leaves
    fewer pivots, or as many with some pivot later."""
    return len(pivots), [-c for c in pivots]


def _rref_mod(A: np.ndarray, p: int) -> tuple[list[int], np.ndarray]:
    """Pivot columns and rows of the reduced row echelon form of A mod p,
    for int64 residues 0 <= A < p. Each column is scanned once: the first of
    its nonzero rows at or below the next pivot row r is swapped up to r
    (row r is zero there, so no other nonzero row changes its label), and
    only the other nonzero rows are updated, each by one step x + (p - a) y
    mod p, which stays below p**2 + p < 2**63."""
    A = A.copy()
    pivots: list[int] = []
    for col in range(A.shape[1]):
        r = len(pivots)
        (rows,) = np.nonzero(A[:, col])
        i = int(np.searchsorted(rows, r))
        if i == len(rows):
            continue
        k = int(rows[i])
        if k != r:
            A[[r, k]] = A[[k, r]]
        rows = rows[rows != k]
        pivot = A[r, col:] * pow(int(A[r, col]), -1, p) % p
        A[r, col:] = pivot
        others = A[rows, col:]
        A[rows, col:] = (others + (p - others[:, :1]) * pivot) % p
        pivots.append(col)
        if len(pivots) == len(A):
            break
    return pivots, A[: len(pivots)]


def _basis(pivots: list[int], entries: list[int], L: int, width: int):
    """(pivots, X, L) of `kernel` in the original column order, from the
    pivots of R in the reversed order and L times the basis entries at them,
    row by row in increasing order of their leading columns."""
    last = width - 1
    columns = [last - c for c in pivots]
    leads = sorted(set(range(width)) - set(columns))
    X = [[0] * width for _ in leads]
    P = len(columns)
    for i, (row, lead) in enumerate(zip(X, leads)):
        row[lead] = L
        for c, x in zip(columns, entries[i * P : (i + 1) * P]):
            row[c] = x
    return leads, int_array(X).reshape(len(leads), width), L
