"""Exact linear algebra over Q: a kernel by primes and one fraction-free
integer echelon.

:func:`kernel` reads the reduced echelon basis of an integer matrix's
kernel off its reduced echelon form modulo 31-bit primes (int64 numpy),
lifts it by CRT and rational reconstruction, and returns it only once
every basis vector is annihilated exactly; it builds no echelon.

:class:`Echelon`, for the span analysis and :func:`inverse`, takes rows
sparse, as {column: rational}, clears their denominators once and keeps
them as primitive integer rows with a positive pivot (integer-preserving
elimination in the spirit of Bareiss 1968). An inserted row is reduced
against every pivot, so what is left of it does not depend on the order the
rows came in. Fractions appear only in reduced echelon forms over Q.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Mapping, Optional, Sequence, Union

import numpy as np

from .cyclo import _is_prime, _rational, int_array, int_matmul

Rational = Union[int, Fraction]


class SingularMatrix(ArithmeticError):
    """A matrix has no inverse; `dependent` lists the rows that lie in the
    span of the rows before them."""

    def __init__(self, dependent: list[int]):
        super().__init__(f"singular matrix: rows {dependent} are dependent")
        self.dependent = dependent


class Echelon:
    """Integer row echelon of a growing set of rational rows of one width."""

    def __init__(self, width: int):
        self.width = width
        # Pivot column -> primitive integer row, in insertion order. Each row
        # is zero on the pivots inserted before it.
        self.rows: dict[int, list[int]] = {}

    @property
    def rank(self) -> int:
        return len(self.rows)

    def insert(self, entries: Mapping[int, Rational]) -> Optional[int]:
        """Add a row; its pivot column, or None when it is dependent on the
        rows already inserted."""
        r = self.residual(entries)
        lead = next((j for j, x in enumerate(r) if x), None)
        if lead is not None:
            self.rows[lead] = _primitive(r, lead)
        return lead

    def residual(self, entries: Mapping[int, Rational]) -> list[int]:
        """A positive integer multiple of what is left of a row once every pivot
        is eliminated; all zero exactly when the row lies in the span."""
        den = lcm(*(x.denominator for x in entries.values()))
        r = [0] * self.width
        for j, x in entries.items():
            r[j] = x.numerator * (den // x.denominator)
        for col, row in self.rows.items():
            if r[col]:
                r = _eliminate(r, row, col)
        return r

    def rewrite(self, row: Sequence[int], col: int) -> None:
        """Clear column col of every stored row with an integer row that is
        zero on every pivot: each stored row becomes the primitive
        combination of itself and `row` that vanishes at col, positive at its
        pivot as before."""
        for pivot, r in self.rows.items():
            if r[col]:
                self.rows[pivot] = _primitive(_eliminate(r, row, col), pivot)

    def rref(self) -> list[tuple[int, list[Fraction]]]:
        """Reduced row echelon form over Q as (pivot column, row) pairs in
        increasing pivot order."""
        return [(col, [Fraction(x, row[col]) for x in row]) for col, row in self._reduced()]

    def _reduced(self) -> list[tuple[int, list[int]]]:
        """The rows of `rref` as primitive integer rows, each to be divided
        by its entry at its pivot column."""
        reduced: dict[int, list[int]] = {}
        # Back-substituting the later, already reduced rows into a row leaves
        # it zero on every pivot but its own.
        for col, r in reversed(self.rows.items()):
            for col2, row2 in reduced.items():
                if r[col2]:
                    r = _eliminate(r, row2, col2)
            reduced[col] = _primitive(r, col)
        return sorted(reduced.items())


def _primitive(r: list[int], lead: int) -> list[int]:
    """r divided by the gcd of its entries, signed so that r[lead] > 0."""
    g = gcd(*r) if r[lead] > 0 else -gcd(*r)
    return [x // g for x in r]


def _eliminate(r: list[int], row: list[int], col: int) -> list[int]:
    """The integer combination of r and row that vanishes at col."""
    g = gcd(r[col], row[col])
    a, p = r[col] // g, row[col] // g
    return [p * x - a * y for x, y in zip(r, row)]


def kernel(A: np.ndarray) -> list[tuple[int, list[Fraction]]]:
    """Reduced echelon basis, as in :meth:`Echelon.rref`, of the rational
    kernel of an integer matrix (int64 or Python ints), from its reduced
    echelon form modulo 31-bit primes.

    Reduced with column j moved to width - 1 - j, each row R_p ends at its
    pivot p. For a free column f, the vector with 1 at f, -R_p[f] at each
    pivot p and 0 elsewhere is orthogonal to every R_p, starts at f
    (R_p[f] != 0 only for f < p) and is 0 at every other free column: a row
    of the kernel's unique reduced echelon form. Each -R_p[f] is lifted from
    its residues by CRT and Wang's reconstruction (`cyclo._rational`), and
    the basis is returned only once A v = 0 holds exactly for every lifted
    v. That certifies it: rank_p(A) <= rank_Q(A), so there are at least
    dim ker_Q lifted vectors; they are independent (1 at their own free
    column, 0 at the others), so they span ker_Q, and a basis of this shape
    is its unique reduced echelon form. Until then primes are added: a prime
    whose pivots come later than another's (`_rank_key`) is unlucky and
    dropped, one with the same pivots is combined with the others by CRT."""
    A = np.asarray(A)
    width = A.shape[1]
    reversed_columns = A[:, ::-1]
    best = None  # (pivots, residues of R at the free columns, modulus)
    for p in _primes():
        pivots, R = _rref_mod((reversed_columns % p).astype(np.int64), p)
        residues = np.delete(R, pivots, axis=1).astype(object)
        if best is None or _rank_key(pivots) > _rank_key(best[0]):
            best = pivots, residues, p
        elif pivots == best[0]:
            _, old, modulus = best
            lift = pow(modulus, -1, p)
            best = pivots, old + modulus * ((residues - old) * lift % p), modulus * p
        else:
            continue
        basis = _lift(*best, width)
        if basis is not None and _annihilates(A, basis):
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
    for int64 residues 0 <= A < p."""
    A = A.copy()
    pivots: list[int] = []
    for col in range(A.shape[1]):
        r = len(pivots)
        (candidates,) = np.nonzero(A[r:, col])
        if not len(candidates):
            continue
        k = r + int(candidates[0])
        A[[r, k]] = A[[k, r]]
        A[r, col:] = A[r, col:] * pow(int(A[r, col]), -1, p) % p
        (rows,) = np.nonzero(A[:, col])
        rows = rows[rows != r]
        A[rows, col:] = (A[rows, col:] - A[rows, col : col + 1] * A[r, col:] % p) % p
        pivots.append(col)
        if len(pivots) == len(A):
            break
    return pivots, A[: len(pivots)]


def _lift(pivots: list[int], residues: np.ndarray, modulus: int, width: int):
    """The kernel basis of the docstring of `kernel`, in the original column
    order, from the residues of R at the free columns (reversed order); None
    when some entry has no rational reconstruction."""
    last = width - 1
    free = sorted(set(range(width)) - set(pivots))
    basis = []
    for i, c in reversed(list(enumerate(free))):
        row = [Fraction(0)] * width
        row[last - c] = Fraction(1)
        for j, x in zip(pivots, residues[:, i].tolist()):
            if x:
                q = _rational(-x, modulus)
                if q is None:
                    return None
                row[last - j] = q
        basis.append((last - c, row))
    return basis


def _annihilates(A: np.ndarray, basis: list[tuple[int, list[Fraction]]]) -> bool:
    """Whether A v = 0 exactly for every basis row v, each scaled by the lcm
    of its denominators to integers."""
    if not basis:
        return True
    rows = []
    for _, row in basis:
        L = lcm(*(x.denominator for x in row))
        rows.append([x.numerator * (L // x.denominator) for x in row])
    return not int_matmul(A, int_array(rows).T).any()


def inverse(M: Sequence[Sequence[Rational]]) -> list[list[Fraction]]:
    """Inverse over Q of a square matrix, from one reduction of [M | I], with
    Fractions built only for the inverse half; raises SingularMatrix when M
    has none."""
    t = len(M)
    augmented = Echelon(2 * t)
    pivots = [augmented.insert({**dict(enumerate(row)), t + i: 1}) for i, row in enumerate(M)]
    dependent = [i for i, col in enumerate(pivots) if col >= t]
    if dependent:
        raise SingularMatrix(dependent)
    return [[Fraction(x, row[col]) for x in row[t:]] for col, row in augmented._reduced()]
