"""The exact kernel by primes, the inverse through it and the span
echelon against sympy's DomainMatrix over QQ, which serves as an
independent oracle for rank, dependent rows, kernel and inverse. Both
solvers take integers: a rational row is fed as itself times the lcm of
its denominators, which keeps its span and the kernel."""

from fractions import Fraction
from itertools import chain
from math import lcm

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from modinv import linalg
from modinv.linalg import Echelon, kernel

pytest.importorskip("sympy")
from sympy import QQ  # noqa: E402
from sympy.polys.matrices import DomainMatrix  # noqa: E402
from sympy.polys.matrices.exceptions import DMNonInvertibleMatrixError  # noqa: E402

entries = st.one_of(
    st.integers(-3, 3),
    st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4)),
)


@st.composite
def matrices(draw, rows=st.integers(1, 6), cols=st.integers(1, 5)):
    """Small rational matrices; the draw of a row from earlier rows makes
    singular matrices and dependent rows common."""
    r, c = draw(rows), draw(cols)
    out: list[list[int | Fraction]] = []
    for _ in range(r):
        if out and draw(st.booleans()):
            a, b = draw(st.sampled_from(out)), draw(st.sampled_from(out))
            s = draw(entries)
            out.append([x + s * y for x, y in zip(a, b)])
        else:
            out.append([draw(entries) for _ in range(c)])
    return out


@st.composite
def square_matrices(draw):
    n = draw(st.integers(1, 5))
    return draw(matrices(rows=st.just(n), cols=st.just(n)))


ZERO = [[Fraction(0)] * 3 for _ in range(4)]
TALL = [[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)], [Fraction(0), Fraction(1)],
        [Fraction(1), Fraction(3)]]


def oracle(M: list[list[Fraction]], width: int) -> DomainMatrix:
    rows = [[QQ(x.numerator, x.denominator) for x in row] for row in M]
    return DomainMatrix(rows, (len(rows), width), QQ)


def fractions(dm: DomainMatrix) -> list[list[Fraction]]:
    return [[Fraction(int(x.numerator), int(x.denominator)) for x in row] for row in dm.to_list()]


def oracle_dependent_rows(M: list[list[Fraction]], width: int) -> list[int]:
    """Rows that do not raise the rank of the rows before them."""
    return [i for i in range(len(M))
            if oracle(M[: i + 1], width).rank() == oracle(M[:i], width).rank()]


def integer_row(row: list[Fraction]) -> list[int]:
    """The row times the lcm of its denominators, as Python ints."""
    L = lcm(*(Fraction(x).denominator for x in row))
    return [int(x * L) for x in row]


def integer_rows(M: list[list[Fraction]]) -> np.ndarray:
    """`integer_row` of each row, as an object array: the kernel and the
    dependent rows are unchanged."""
    return np.array([integer_row(row) for row in M], dtype=object)


def echelon_of(M: list[list[Fraction]]) -> tuple[Echelon, list[int]]:
    """The echelon of the rows of M, each inserted when its residual is
    nonzero, and the rows whose residual is zero."""
    ech = Echelon(len(M[0]))
    dependent = []
    for i, row in enumerate(M):
        r = ech.residual(integer_row(row))
        if any(r):
            ech.insert(r)
        else:
            dependent.append(i)
    return ech, dependent


@settings(max_examples=150, deadline=None)
@given(matrices())
@example(ZERO)
@example(TALL)
def test_rank_and_dependent_rows(M):
    width = len(M[0])
    ech, dependent = echelon_of(M)
    assert len(ech.rows) == oracle(M, width).rank()
    assert dependent == oracle_dependent_rows(M, width)


@settings(max_examples=150, deadline=None)
@given(matrices(), st.lists(entries, min_size=5, max_size=5))
@example(ZERO, [0, 1, 0, 0, 0])
@example(TALL, [2, 5, 0, 0, 0])
def test_residual_is_zero_exactly_on_the_span(M, target):
    width = len(M[0])
    target = [Fraction(x) for x in target[:width]]
    ech, _ = echelon_of(M)
    residual = ech.residual(integer_row(target))
    in_span = oracle(M + [target], width).rank() == oracle(M, width).rank()
    assert (not any(residual)) == in_span
    assert all(residual[col] == 0 for col in ech.rows)


# Entries of the kernel's basis near 2**20 and 2**40: their rational
# reconstruction needs two and three 31-bit primes.
TWO_PRIMES = [[Fraction(1048573), Fraction(3 * 349529), Fraction(5)]]
THREE_PRIMES = [
    [Fraction(2**40 + 15), Fraction(3**25), Fraction(0)],
    [Fraction(1), Fraction(1), Fraction(1)],
]


@settings(max_examples=150, deadline=None)
@given(matrices())
@example(ZERO)
@example(TALL)
@example(TWO_PRIMES)
@example(THREE_PRIMES)
def test_kernel(M):
    width = len(M[0])
    basis = oracle(M, width).nullspace()
    ref, pivots = basis.rref()
    expected = fractions(ref)[: len(pivots)]
    got = kernel(integer_rows(M))
    assert fraction_basis(got) == (list(pivots), expected)
    # One positive denominator, the least: X is the basis over it in integers.
    assert got[2] == lcm(1, *(x.denominator for row in expected for x in row))


def fraction_basis(basis) -> tuple[list[int], list[list[Fraction]]]:
    """A `kernel` result (pivots, X, L) as its pivots and the rows X / L."""
    pivots, X, L = basis
    return pivots, [[Fraction(x, L) for x in row] for row in X.tolist()]


PRIMES = linalg._primes


def recorded_primes(monkeypatch, first=()):
    """Make `kernel` draw the primes `first`, then its own others, and
    record each prime it draws."""
    used = []

    def primes():
        for p in chain(first, (q for q in PRIMES() if q not in first)):
            used.append(p)
            yield p

    monkeypatch.setattr(linalg, "_primes", primes)
    return used


@pytest.mark.parametrize(
    "M, count", [(TALL, 1), (TWO_PRIMES, 2), (THREE_PRIMES, 3)], ids=["tall", "two", "three"]
)
def test_kernel_adds_primes_until_its_entries_reconstruct(monkeypatch, M, count):
    used = recorded_primes(monkeypatch)
    expected = fractions(oracle(M, len(M[0])).nullspace().rref()[0])
    assert fraction_basis(kernel(integer_rows(M)))[1] == expected
    assert len(used) == count


@pytest.mark.parametrize(
    "M, first, count",
    [
        # Rank 2 over Q, rank 1 mod 3: the lifted vector e_0 fails A v = 0.
        ([[3, 0], [0, 1]], (3,), 2),
        # Mod 3 the pivot moves from column 1 to column 0, so the one kernel
        # vector comes out as e_1, which fails A v = 0; the next prime's
        # pivot ranks higher (`_rank_key`), and it replaces 3.
        ([[1, 3]], (3,), 2),
        # The entry -1048573/1048587 needs two good primes: the first alone
        # does not reconstruct it, and 3, whose pivot comes later, arrives
        # between them and is dropped.
        ([[1048573, 3 * 349529]], (2**31 - 1, 3), 3),
    ],
    ids=["rank", "pivot", "between_good_primes"],
)
def test_kernel_drops_an_unlucky_prime(monkeypatch, M, first, count):
    M = [[Fraction(x) for x in row] for row in M]
    expected = fraction_basis(kernel(integer_rows(M)))
    assert expected[1] == fractions(oracle(M, len(M[0])).nullspace().rref()[0])
    used = recorded_primes(monkeypatch, first)
    assert fraction_basis(kernel(integer_rows(M))) == expected
    assert used[: len(first)] == list(first) and len(used) == count


@settings(max_examples=150, deadline=None)
@given(square_matrices().map(integer_rows))
@example(integer_rows([[0] * 3 for _ in range(3)]))
@example(integer_rows([[1, 2], [2, 4]]))
def test_inverse(M):
    # The Gram inverse of `extended_modular_data`: the kernel of [1 | -M] is
    # {(M y, y)}, its missing pivots below n are M's dependent rows, and
    # when there are none row i of X[:, n:] / L is column i of M^-1.
    n = len(M)
    pivots, X, L = kernel(np.concatenate([np.eye(n, dtype=object), -M], axis=1))
    rows = [[Fraction(x) for x in row] for row in M.tolist()]
    dependent = [i for i in range(n) if i not in pivots]
    assert dependent == oracle_dependent_rows(rows, n)
    try:
        expected = fractions(oracle(rows, n).inv())
    except DMNonInvertibleMatrixError:
        assert dependent
        return
    assert [[Fraction(x, L) for x in column] for column in X[:, n:].T.tolist()] == expected


def gauss_jordan_mod(rows: list[list[int]], p: int) -> tuple[list[int], list[list[int]]]:
    """Plain Gauss-Jordan elimination mod p, row by row in Python ints: the
    pivot columns and the nonzero rows of the reduced row echelon form."""
    A = [[x % p for x in row] for row in rows]
    pivots: list[int] = []
    for col in range(len(A[0])):
        r = len(pivots)
        k = next((i for i in range(r, len(A)) if A[i][col]), None)
        if k is None:
            continue
        A[r], A[k] = A[k], A[r]
        inv = pow(A[r][col], -1, p)
        A[r] = [x * inv % p for x in A[r]]
        for i, row in enumerate(A):
            if i != r and row[col]:
                A[i] = [(x - row[col] * y) % p for x, y in zip(row, A[r])]
        pivots.append(col)
    return pivots, A[: len(pivots)]


BIG_PRIME = next(PRIMES())


@st.composite
def residue_matrices(draw):
    """A prime from `_primes` and a matrix of residues mod it, 0, small or
    any, with some rows drawn as combinations of earlier rows (repeated and
    dependent rows)."""
    p = draw(st.sampled_from([3, 7, 65521, BIG_PRIME]))
    r, c = draw(st.integers(1, 7)), draw(st.integers(1, 9))
    entry = st.one_of(st.just(0), st.integers(0, 3), st.integers(0, p - 1))
    out: list[list[int]] = []
    for _ in range(r):
        if out and draw(st.booleans()):
            a, b = draw(st.sampled_from(out)), draw(st.sampled_from(out))
            s = draw(st.integers(0, p - 1))
            out.append([(x + s * y) % p for x, y in zip(a, b)])
        else:
            out.append([draw(entry) % p for _ in range(c)])
    return out, p


WIDE_SPARSE = [[0] * 20 for _ in range(4)]
WIDE_SPARSE[0][17] = WIDE_SPARSE[1][3] = WIDE_SPARSE[3][3] = WIDE_SPARSE[3][11] = 5
WIDE_SPARSE[2][0] = 2


@settings(max_examples=300, deadline=None)
@given(residue_matrices())
@example(([[0, 0, 0], [0, 0, 0]], BIG_PRIME))  # all zero
@example(([[0, 1, 0, 2], [0, 3, 0, 1], [0, 0, 0, 4]], 7))  # zero columns
@example(([[0, 0, 1], [0, 2, 0], [3, 0, 0]], BIG_PRIME))  # every pivot below row r
@example(([[1, 2, 3], [1, 2, 3], [2, 4, 6], [0, 1, 1]], 3))  # repeated rows
@example((WIDE_SPARSE, BIG_PRIME))
def test_rref_mod_matches_gauss_jordan(case):
    rows, p = case
    pivots, R = linalg._rref_mod(np.array(rows, dtype=np.int64), p)
    expected_pivots, expected = gauss_jordan_mod(rows, p)
    assert pivots == expected_pivots
    assert R.dtype == np.int64 and R.shape == (len(pivots), len(rows[0]))
    assert R.tolist() == expected
