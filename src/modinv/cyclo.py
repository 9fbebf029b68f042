"""Exact arithmetic in cyclotomic fields Q(zeta_m).

An element is stored in the reduced power basis {zeta^0, ..., zeta^(phi(m)-1)}
as integer coordinates over one positive denominator with no common factor,
so every operation stays in integers and equality at a common conductor is
equality of coordinates. Fractions cross only the boundary: the public
constructor, :meth:`Cyclotomic.from_rational` and :meth:`Cyclotomic.from_json`
take rationals, and the read-only :attr:`Cyclotomic.coeffs` gives them back.
Equality across conductors goes through promotion to the lcm conductor.

No general field inversion is exposed; the few divisions by non-rational
elements needed downstream go through :func:`divide`, which solves a linear
system over Q in basis coordinates and verifies the quotient by
multiplication.

Exact identity checks over whole matrices run on integer coordinate tensors
instead (:func:`coordinates`, :func:`field_matmul`, :func:`field_mul`,
:func:`conjugate`, :func:`times_root`): an array of field elements is held as
its integer coordinates, the power-basis axis first, over one positive
denominator. They are int64 only where an explicit bound shows that no
product or sum can wrap, and Python ints (object dtype) otherwise; field
products run in float64 where the same bound stays below 2**53.
"""

from __future__ import annotations

import cmath
from fractions import Fraction
from functools import lru_cache
from math import floor, gcd, lcm, prod
from typing import Iterable, Mapping, Optional, Union

import numpy as np
from mpmath.libmp import (
    from_int,
    mpf_pi,
    mpf_shift,
    mpi_cos,
    mpi_div,
    mpi_mul,
    round_ceiling,
    round_floor,
    to_int,
)

from .linalg import solve

Scalar = Union[int, Fraction]


@lru_cache(maxsize=None)
def _cyclotomic_poly(m: int) -> tuple[int, ...]:
    """Coefficients (low to high, monic) of the m-th cyclotomic polynomial."""
    if m < 1:
        raise ValueError(f"conductor must be positive, got {m}")
    if m == 1:
        return (-1, 1)
    # x^m - 1 divided by the cyclotomic polynomials of all proper divisors.
    poly = [0] * (m + 1)
    poly[0] = -1
    poly[m] = 1
    for d in range(1, m):
        if m % d == 0:
            poly = _polydiv_exact(poly, list(_cyclotomic_poly(d)))
    return tuple(poly)


def _polydiv_exact(num: list[int], den: list[int]) -> list[int]:
    """Exact division of integer polynomials; den must be monic and divide num."""
    num = list(num)
    out = [0] * (len(num) - len(den) + 1)
    for k in range(len(out) - 1, -1, -1):
        c = num[k + len(den) - 1]
        out[k] = c
        if c:
            for i, d in enumerate(den):
                num[k + i] -= c * d
    if any(num[: len(den) - 1]):
        raise ArithmeticError("inexact polynomial division")
    return out


@lru_cache(maxsize=None)
def phi(m: int) -> int:
    """Euler totient, via the degree of the cyclotomic polynomial."""
    return len(_cyclotomic_poly(m)) - 1


@lru_cache(maxsize=None)
def _reduction_rows(m: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """For each exponent 0 <= e < m, the nonzero integer coordinates (i, t)
    of zeta_m^e in the reduced basis."""
    deg = phi(m)
    poly = _cyclotomic_poly(m)
    dense = [[int(i == e) for i in range(deg)] for e in range(deg)]
    for _ in range(deg, m):
        prev = dense[-1]
        # zeta^(e+1) = zeta * zeta^e, with zeta^deg = -sum_i poly[i] zeta^i.
        dense.append([(prev[i - 1] if i else 0) - prev[deg - 1] * poly[i] for i in range(deg)])
    return tuple(tuple((i, t) for i, t in enumerate(row) if t) for row in dense)


@lru_cache(maxsize=None)
def _embedded_roots(m: int) -> tuple[complex, ...]:
    return tuple(cmath.exp(2j * cmath.pi * e / m) for e in range(m))


def _parts(x: Scalar) -> tuple[int, int]:
    """Numerator and positive denominator of an int or a Fraction."""
    if isinstance(x, (int, Fraction)):
        return x.numerator, x.denominator
    raise TypeError(f"expected int or Fraction, got {type(x).__name__}")


class Cyclotomic:
    """An exact element num / den of Q(zeta_m), canonically reduced: ``num``
    maps exponents below phi(m) to nonzero integers, ``den`` is positive, and
    den and the entries of ``num`` have no common factor.

    Construct via :meth:`from_rational`, :meth:`zeta` or :func:`root_of_unity`
    rather than directly.
    """

    __slots__ = ("conductor", "num", "den")

    def __init__(self, conductor: int, coeffs: Mapping[int, Scalar]):
        """The element sum_e coeffs[e] * zeta_conductor^e, for rational
        coefficients at any integer exponent."""
        if conductor < 1:
            raise ValueError(f"conductor must be positive, got {conductor}")
        terms = [(e % conductor, *_parts(c)) for e, c in coeffs.items()]
        den = lcm(*(q for _, _, q in terms))
        num = _reduce(conductor, [(e, p * (den // q)) for e, p, q in terms])
        x = _make(conductor, num, den)
        self.conductor, self.num, self.den = conductor, x.num, x.den

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_rational(cls, value: Scalar, conductor: int = 1) -> "Cyclotomic":
        if conductor < 1:
            raise ValueError(f"conductor must be positive, got {conductor}")
        p, q = _parts(value)
        return _make(conductor, {0: p}, q)

    @classmethod
    def zeta(cls, m: int, e: int = 1) -> "Cyclotomic":
        """The primitive root zeta_m raised to the power e."""
        return _make(m, _reduce(m, [(e % m, 1)]))

    @property
    def coeffs(self) -> dict[int, Fraction]:
        """The rational coordinates, in the order of ``num``; a fresh dict."""
        return {e: Fraction(c, self.den) for e, c in self.num.items()}

    # -- ring structure ----------------------------------------------------

    def _coerce(self, other) -> Optional["Cyclotomic"]:
        if isinstance(other, Cyclotomic):
            return other
        if isinstance(other, (int, Fraction)):
            return Cyclotomic.from_rational(other)
        return None

    def to_conductor(self, m: int) -> "Cyclotomic":
        """Promote to the (multiple) conductor m."""
        if m == self.conductor:
            return self
        if m % self.conductor != 0:
            raise ValueError(f"cannot promote conductor {self.conductor} to {m}")
        k = m // self.conductor
        return _make(m, _reduce(m, [(e * k, c) for e, c in self.num.items()]), self.den)

    def _common(self, other: "Cyclotomic") -> tuple["Cyclotomic", "Cyclotomic"]:
        m = lcm(self.conductor, other.conductor)
        return self.to_conductor(m), other.to_conductor(m)

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b = self._common(o)
        den = lcm(a.den, b.den)
        sa, sb = den // a.den, den // b.den
        num = dict(a.num) if sa == 1 else {e: c * sa for e, c in a.num.items()}
        for e, c in b.num.items():
            s = num.get(e, 0) + c * sb
            if s:
                num[e] = s
            else:
                del num[e]
        return _make(a.conductor, num, den)

    __radd__ = __add__

    def __neg__(self):
        return _make(self.conductor, {e: -c for e, c in self.num.items()}, self.den)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            p, q = other.numerator, other.denominator
            return _make(self.conductor, {e: c * p for e, c in self.num.items()}, self.den * q)
        if not isinstance(other, Cyclotomic):
            return NotImplemented
        a, b = self._common(other)
        m = a.conductor
        raw: dict[int, int] = {}
        for ea, ca in a.num.items():
            for eb, cb in b.num.items():
                e = ea + eb
                if e >= m:
                    e -= m
                raw[e] = raw.get(e, 0) + ca * cb
        return _make(m, _reduce(m, raw.items(), keep_cancelled=True), a.den * b.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        """Division by a rational scalar only; see :func:`divide` for the rest."""
        if isinstance(other, (int, Fraction)):
            p, q = other.numerator, other.denominator
            if not p:
                raise ZeroDivisionError("division by zero")
            if p < 0:
                p, q = -p, -q
            return _make(self.conductor, {e: c * q for e, c in self.num.items()}, self.den * p)
        return NotImplemented

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("only non-negative integer powers are supported")
        result = Cyclotomic.from_rational(1, self.conductor)
        base = self
        while n:
            if n & 1:
                result = result * base
            base_needed = n >> 1
            if base_needed:
                base = base * base
            n = base_needed
        return result

    def conjugate(self) -> "Cyclotomic":
        """Complex conjugation, zeta -> zeta^-1."""
        m = self.conductor
        return _make(m, _reduce(m, [((-e) % m, c) for e, c in self.num.items()]), self.den)

    # -- predicates --------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.num

    def is_real(self) -> bool:
        return self == self.conjugate()

    def rational_value(self) -> Optional[Fraction]:
        """The element as a rational number, or None if it is irrational."""
        if self.num.keys() <= {0}:
            return Fraction(self.num.get(0, 0), self.den)
        return None

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b = self._common(o)
        return a.den == b.den and a.num == b.num

    def __hash__(self):
        r = self.rational_value()
        if r is not None:
            return hash(r)
        # Equal elements may live at different conductors with different
        # coordinates, so only rationals get a discriminating hash.
        return 0x5CE1F

    # -- numerics and display ---------------------------------------------

    def embed(self) -> complex:
        """Numerical value at zeta_m = e^(2 pi i / m), summed in coordinate order."""
        roots = _embedded_roots(self.conductor)
        den = self.den
        return sum((complex(c / den) * roots[e] for e, c in self.num.items()), 0j)

    def _terms(self) -> list[tuple[int, int, int]]:
        """(e, p, q) with num[e] / den = p / q in lowest terms, by exponent."""
        den = self.den
        return [(e, c // (g := gcd(c, den)), den // g) for e, c in sorted(self.num.items())]

    def to_json(self) -> dict:
        return {"conductor": self.conductor, "coeffs": [[e, f"{p}/{q}"] for e, p, q in self._terms()]}

    @classmethod
    def from_json(cls, data: dict) -> "Cyclotomic":
        coeffs = {int(e): Fraction(s) for e, s in data["coeffs"]}
        return cls(int(data["conductor"]), coeffs)

    def __repr__(self):
        if not self.num:
            return "Cyclotomic(0)"
        m = self.conductor
        parts = []
        for e, p, q in self._terms():
            c = f"{p}/{q}" if q != 1 else str(p)
            if e == 0:
                parts.append(c)
            elif c == "1":
                parts.append(f"z{m}^{e}")
            else:
                parts.append(f"{c}*z{m}^{e}")
        return " + ".join(parts)


def _make(m: int, num: Mapping[int, int], den: int = 1) -> Cyclotomic:
    """The element num / den of Q(zeta_m) in canonical form: zero entries
    dropped and the common factor of den and the entries divided out. num
    must already be reduced (exponents below phi(m)) and den positive."""
    num = {e: c for e, c in num.items() if c}
    if den != 1:
        g = gcd(den, *num.values())
        if g != 1:
            num = {e: c // g for e, c in num.items()}
            den //= g
    x = object.__new__(Cyclotomic)
    x.conductor, x.num, x.den = m, num, den
    return x


def _reduce(
    m: int, terms: Iterable[tuple[int, int]], *, keep_cancelled: bool = False
) -> dict[int, int]:
    """Integer coordinates of sum c * zeta_m^e over the terms (e, c), 0 <= e < m.

    A coordinate takes its slot when it first becomes nonzero. An entry that
    cancels to zero is dropped, and re-inserted at the end if it becomes
    nonzero again; with keep_cancelled it keeps its slot (as 0) instead. The
    slot order is the summation order of :meth:`Cyclotomic.embed`, whose
    numeric shadows in reports are pinned: they were recorded with products
    keeping cancelled slots and every other path dropping them.
    """
    rows = _reduction_rows(m)
    out: dict[int, int] = {}
    for e, c in terms:
        if not c:
            continue
        for i, t in rows[e]:
            s = out.get(i, 0) + c * t
            if s or keep_cancelled:
                out[i] = s
            else:
                del out[i]
    return out


ZERO = Cyclotomic.from_rational(0)
ONE = Cyclotomic.from_rational(1)


def root_of_unity(h: Union[Fraction, int]) -> Cyclotomic:
    """e^(2 pi i h) for rational h, interpreted mod 1."""
    q = h.denominator
    return Cyclotomic.zeta(q, h.numerator % q)


def divide(a: Cyclotomic, b: Cyclotomic) -> Cyclotomic:
    """Exact quotient a / b in the common cyclotomic field.

    Solved as a linear system over Q in the power-basis coordinates and
    verified by multiplication.
    """
    if b.is_zero():
        raise ZeroDivisionError("division by zero cyclotomic element")
    r = b.rational_value()
    if r is not None:
        return a / r
    m = lcm(a.conductor, b.conductor)
    ap = a.to_conductor(m)
    bp = b.to_conductor(m)
    deg = phi(m)
    # Row i, column j holds coordinate i of den(b) * b * zeta^j: b's integer
    # coordinates shifted by j and reduced. The right-hand side is den(b) * a.
    rows: list[dict[int, int]] = [{} for _ in range(deg)]
    for j in range(deg):
        for i, c in _reduce(m, [((e + j) % m, c) for e, c in bp.num.items()]).items():
            rows[i][j] = c
    sol = solve(rows, [Fraction(ap.num.get(i, 0) * bp.den, ap.den) for i in range(deg)], deg)
    if sol is None:
        raise ArithmeticError("quotient does not lie in the field (inconsistent system)")
    q = Cyclotomic(m, {j: c for j, c in enumerate(sol) if c})
    if q * b != a:
        raise ArithmeticError("division verification failed")
    return q


def csum(items: Iterable[Cyclotomic]) -> Cyclotomic:
    """Sum of cyclotomic elements (empty sum is 0)."""
    acc = ZERO
    for x in items:
        acc = acc + x
    return acc


@lru_cache(maxsize=None)
def _cos_bracket(m: int, e: int, bits: int) -> tuple[int, int]:
    """Integers a <= 2**bits * cos(2 pi e / m) <= b: the angle is reduced to
    [0, pi/2] (cos(-x) = cos x, cos(pi - x) = -cos x), bracketed with pi by
    mpmath's interval arithmetic at bits + 8 bits, and its cosine is scaled
    exactly and rounded outward."""
    e = min(e % m, -e % m)
    if e == 0:
        return 2**bits, 2**bits
    if 4 * e > m and m % 2 == 0:
        a, b = _cos_bracket(m, m // 2 - e, bits)
        return -b, -a
    prec = bits + 8
    pi = (mpf_pi(prec, round_floor), mpf_pi(prec, round_ceiling))
    angle = mpi_div(mpi_mul(pi, (from_int(2 * e),) * 2, prec), (from_int(m),) * 2, prec)
    a, b = mpi_cos(angle, prec)
    return to_int(mpf_shift(a, bits), "f"), to_int(mpf_shift(b, bits), "c")


def real_bounds(xs: Iterable[Cyclotomic], bits: int) -> list[tuple[int, int]]:
    """Integers lo <= 2**bits * Re(x) <= hi for each x, where
    Re(x) = sum_e num_e cos(2 pi e / m) / den: exact integer sums over
    brackets of the cosines."""
    out = []
    for x in xs:
        lo = hi = 0
        for e, c in x.num.items():
            a, b = _cos_bracket(x.conductor, e, bits)
            lo += c * a if c > 0 else c * b
            hi += c * b if c > 0 else c * a
        out.append((lo // x.den, -(-hi // x.den)))
    return out


def real_floor(x: Cyclotomic) -> int:
    """floor(Re x), exactly. Re x = (x + conj x) / 2 is an element of the
    field: a rational one gives its floor directly, and an irrational one,
    never an integer, is bracketed (`real_bounds`) at doubling precision
    until both ends of the bracket have one floor."""
    re = (x + x.conjugate()) / 2
    r = re.rational_value()
    if r is not None:
        return floor(r)
    bits = 64
    while True:
        ((lo, hi),) = real_bounds([re], bits)
        if lo >> bits == hi >> bits:
            return lo >> bits
        bits *= 2


# -- integer coordinate tensors ----------------------------------------------


def int_dtype(bound: int):
    """int64 when every entry, product and sum an integer array forms stays
    below `bound` in absolute value, else Python ints (object): none wraps."""
    return np.int64 if bound < 2**63 else object


def int_array(rows) -> np.ndarray:
    """Nested lists of ints as an int64 array, or as Python ints (object,
    numpy integers converted too) where some entry does not fit in int64."""
    try:
        return np.array(rows, dtype=np.int64)
    except OverflowError:
        return np.frompyfunc(int, 1, 1)(np.array(rows, dtype=object))


def _max_abs(X: np.ndarray) -> int:
    return int(abs(X).max()) if X.size else 0


def _product_bound(terms: int, *factors: np.ndarray) -> int:
    """Bound on sums of `terms` products of one entry from each factor, and
    on the factors' own entries."""
    bounds = [_max_abs(x) for x in factors]
    return max(terms * prod(bounds), *bounds)


def _product_dtype(terms: int, *factors: np.ndarray):
    """int_dtype for sums of `terms` products of one entry from each factor."""
    return int_dtype(_product_bound(terms, *factors))


def matmul_dtype(terms: int, *factors: np.ndarray):
    """The dtype for exact sums of `terms` products of one entry from each
    factor: float64 (BLAS) below 2**53, where the bound covers every partial
    sum, each an integer that float64 holds exactly; else `int_dtype`."""
    bound = _product_bound(terms, *factors)
    return np.float64 if bound < 2**53 else int_dtype(bound)


@lru_cache(maxsize=None)
def _root_coordinates(m: int) -> np.ndarray:
    """The (m, phi(m)) integer matrix whose row e holds the coordinates of
    zeta_m^e; read-only."""
    R = [[0] * phi(m) for _ in range(m)]
    for e, row in enumerate(_reduction_rows(m)):
        for i, t in row:
            R[e][i] = t
    R = np.array(R, dtype=int_dtype(max(abs(t) for row in R for t in row)))
    R.flags.writeable = False
    return R


def coordinates(entries, m: int) -> tuple[np.ndarray, int]:
    """Integer coordinates X, of shape (phi(m),) + the shape of `entries`,
    and the positive integer D with X = D * entries in the power basis of
    Q(zeta_m). Entries are Cyclotomic elements at conductors dividing m; D
    is the lcm of their denominators, and X's dtype leaves room for the
    difference of two entries."""
    arr = np.array(entries, dtype=object)
    flat = [x.to_conductor(m) for x in arr.flat]
    D = lcm(*(x.den for x in flat))
    big = max((abs(c) * (D // x.den) for x in flat for c in x.num.values()), default=0)
    X = np.zeros((phi(m), len(flat)), dtype=int_dtype(2 * big))
    for k, x in enumerate(flat):
        s = D // x.den
        for e, c in x.num.items():
            X[e, k] = c * s
    return X.reshape((phi(m),) + arr.shape), D


def int_matmul(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """A @ B for integer arrays, exactly: in float64 (BLAS) and returned as
    int64 where `matmul_dtype` allows, else in int64 where no sum can wrap."""
    dtype = matmul_dtype(A.shape[-1], A, B)
    out = A.astype(dtype, copy=False) @ B.astype(dtype, copy=False)
    return out.astype(np.int64) if dtype is np.float64 else out


def _field_product(A: np.ndarray, B: np.ndarray, m: int, op, terms: int) -> np.ndarray:
    """Coordinates of op(A, B) in Q(zeta_m) for the coordinate tensors A and
    B, op bilinear with `terms` products per entry: op(A[i], B) lands in
    slots i..i+phi-1 of a (2 phi - 1)-slot buffer of powers of zeta_m, which
    is reduced once by the coordinates of those powers.

    The products run in `matmul_dtype`: in float64 (BLAS) below 2**53, and
    come back as int64."""
    f = phi(m)
    R = _root_coordinates(m)[np.arange(2 * f - 1) % m]
    dtype = matmul_dtype((2 * f - 1) * f * terms, R, A, B)
    A, B, R = (x.astype(dtype, copy=False) for x in (A, B, R))
    first = op(A[0], B)
    buf = np.zeros((2 * f - 1,) + first.shape[1:], dtype=dtype)
    buf[:f] = first
    for i in range(1, f):
        buf[i : i + f] += op(A[i], B)
    out = np.tensordot(R, buf, axes=(0, 0))
    return out.astype(np.int64) if dtype is np.float64 else out


def field_matmul(A: np.ndarray, B: np.ndarray, m: int) -> np.ndarray:
    """Coordinates of the matrix product of the field matrices with
    coordinates A, shape (phi(m), p, q), and B, shape (phi(m), q, r); the
    denominators multiply."""
    return _field_product(A, B, m, np.matmul, A.shape[-1])


def field_mul(A: np.ndarray, B: np.ndarray, m: int) -> np.ndarray:
    """Coordinates of the entrywise (broadcast) product of the field arrays
    with coordinates A and B; the denominators multiply."""
    return _field_product(A, B, m, np.multiply, 1)


def _substitute(X: np.ndarray, rows, R: np.ndarray) -> np.ndarray:
    """sum_i X[i, ...] R[rows(i), :], the last axis moved to the front: the
    coordinates of the elements X once each zeta^i is replaced by the root
    whose exponent rows(i) gives (broadcast against X's entries). One
    coordinate at a time, so no (phi, ..., phi) gather is ever formed."""
    dtype = _product_dtype(len(X), X, R)
    X, R = X.astype(dtype, copy=False), R.astype(dtype, copy=False)
    return np.moveaxis(sum(X[i, ..., None] * R[rows(i)] for i in range(len(X))), -1, 0)


@lru_cache(maxsize=None)
def _conjugation_matrix(m: int) -> np.ndarray:
    """Row i: the coordinates of zeta_m^-i, for i < phi(m); read-only."""
    C = _root_coordinates(m)[-np.arange(phi(m)) % m]
    C.flags.writeable = False
    return C


def conjugate(X: np.ndarray, m: int) -> np.ndarray:
    """Coordinates of the complex conjugates of the elements with coordinates
    X in Q(zeta_m); the denominator is unchanged."""
    return _substitute(X, lambda i: i, _conjugation_matrix(m))


def times_root(X: np.ndarray, s, m: int) -> np.ndarray:
    """Coordinates of zeta_m^s times the elements with coordinates X, for an
    integer array s broadcast against X's entries; the denominator is
    unchanged."""
    return _substitute(X, lambda i: (i + s) % m, _root_coordinates(m))


def differs(X: np.ndarray, D: int, Y: np.ndarray, E: int) -> np.ndarray:
    """Boolean mask over the (broadcast) entries where X / D != Y / E, for
    coordinate tensors X and Y over the denominators D and E."""
    g = gcd(D, E)
    a, b = E // g, D // g
    dtype = int_dtype(max(_max_abs(X) * a, _max_abs(Y) * b))
    return (X.astype(dtype, copy=False) * a != Y.astype(dtype, copy=False) * b).any(axis=0)
