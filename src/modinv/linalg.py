"""Exact linear algebra over Q: one fraction-free integer echelon.

Rows arrive sparse, as {column: rational}, are cleared of denominators once
and kept as primitive integer rows with a positive pivot (integer-preserving
elimination in the spirit of Bareiss 1968). An inserted row is reduced
against every pivot, so what is left of it does not depend on the order the
rows came in. Fractions appear only in reduced echelon forms over Q; a
kernel's is read off one reduction of the rows with their columns reversed.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Mapping, Optional, Sequence, Union

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
        reduced: dict[int, list[int]] = {}
        # Back-substituting the later, already reduced rows into a row leaves
        # it zero on every pivot but its own.
        for col, r in reversed(self.rows.items()):
            for col2, row2 in reduced.items():
                if r[col2]:
                    r = _eliminate(r, row2, col2)
            reduced[col] = _primitive(r, col)
        return [(col, [Fraction(x, row[col]) for x in row]) for col, row in sorted(reduced.items())]


def _primitive(r: list[int], lead: int) -> list[int]:
    """r divided by the gcd of its entries, signed so that r[lead] > 0."""
    g = gcd(*r) if r[lead] > 0 else -gcd(*r)
    return [x // g for x in r]


def _eliminate(r: list[int], row: list[int], col: int) -> list[int]:
    """The integer combination of r and row that vanishes at col."""
    g = gcd(r[col], row[col])
    a, p = r[col] // g, row[col] // g
    return [p * x - a * y for x, y in zip(r, row)]


def kernel(rows: Iterable[Mapping[int, Rational]], width: int) -> list[tuple[int, list[Fraction]]]:
    """Reduced echelon basis, as in :meth:`Echelon.rref`, of the vectors
    orthogonal to every sparse row. Reduced once with column j moved to
    width - 1 - j, each row R_p ends at its pivot p. For a free column f, the
    vector with 1 at f, -R_p[f] at each pivot p and 0 elsewhere is orthogonal
    to every R_p, starts at f (R_p[f] != 0 only for f < p) and is 0 at every
    other free column: a row of the kernel's unique reduced echelon form."""
    echelon = Echelon(width)
    for row in rows:
        echelon.insert({width - 1 - j: x for j, x in row.items()})
    R = {width - 1 - col: row[::-1] for col, row in echelon.rref()}
    free = [f for f in range(width) if f not in R]
    return [(f, [-R[j][f] if j in R else Fraction(j == f) for j in range(width)]) for f in free]


def inverse(M: Sequence[Sequence[Rational]]) -> list[list[Fraction]]:
    """Inverse over Q of a square matrix, from one reduction of [M | I];
    raises SingularMatrix when M has none."""
    t = len(M)
    augmented = Echelon(2 * t)
    pivots = [augmented.insert({**dict(enumerate(row)), t + i: 1}) for i, row in enumerate(M)]
    dependent = [i for i, col in enumerate(pivots) if col >= t]
    if dependent:
        raise SingularMatrix(dependent)
    return [row[t:] for _, row in augmented.rref()]
