"""Exact arithmetic in cyclotomic fields Q(zeta_m).

Elements are stored in the reduced power basis {zeta^0, ..., zeta^(phi(m)-1)}
with coefficients in Q, fully reduced modulo the m-th cyclotomic polynomial.
Equality across conductors goes through promotion to the lcm conductor.

No general field inversion is exposed; the few divisions by non-rational
elements needed downstream go through :func:`divide`, which solves a linear
system over Q in basis coordinates and verifies the quotient by
multiplication.
"""

from __future__ import annotations

import cmath
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from typing import Iterable, Optional, Union

import mpmath

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
def _reduction_table(m: int) -> tuple[tuple[int, ...], ...]:
    """Integer coordinates of zeta_m^e in the reduced basis, for phi(m) <= e < m."""
    deg = phi(m)
    poly = _cyclotomic_poly(m)
    table = []
    cur = [-poly[i] for i in range(deg)]  # zeta^deg
    table.append(tuple(cur))
    for _ in range(deg + 1, m):
        top = cur[deg - 1]
        cur = [0] + cur[: deg - 1]
        if top:
            base = table[0]
            for i in range(deg):
                cur[i] += top * base[i]
        table.append(tuple(cur))
    return tuple(table)


@lru_cache(maxsize=None)
def _embedded_roots(m: int) -> tuple[complex, ...]:
    return tuple(cmath.exp(2j * cmath.pi * e / m) for e in range(m))


def _as_fraction(x: Scalar) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected int or Fraction, got {type(x).__name__}")


class Cyclotomic:
    """An exact element of Q(zeta_m), canonically reduced.

    Construct via :meth:`from_rational`, :meth:`zeta` or :func:`root_of_unity`
    rather than directly.
    """

    __slots__ = ("conductor", "coeffs")

    def __init__(self, conductor: int, coeffs: dict[int, Fraction], *, _reduced: bool = False):
        if conductor < 1:
            raise ValueError(f"conductor must be positive, got {conductor}")
        self.conductor = conductor
        if _reduced:
            self.coeffs = coeffs
        else:
            self.coeffs = _reduce(conductor, coeffs)

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_rational(cls, value: Scalar, conductor: int = 1) -> "Cyclotomic":
        v = _as_fraction(value)
        coeffs = {0: v} if v else {}
        return cls(conductor, coeffs, _reduced=True)

    @classmethod
    def zeta(cls, m: int, e: int = 1) -> "Cyclotomic":
        """The primitive root zeta_m raised to the power e."""
        return cls(m, {e % m: Fraction(1)})

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
        return Cyclotomic(m, {(e * k) % m: c for e, c in self.coeffs.items()})

    def _common(self, other: "Cyclotomic") -> tuple["Cyclotomic", "Cyclotomic"]:
        m = lcm(self.conductor, other.conductor)
        return self.to_conductor(m), other.to_conductor(m)

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b = self._common(o)
        coeffs = dict(a.coeffs)
        for e, c in b.coeffs.items():
            s = coeffs.get(e, Fraction(0)) + c
            if s:
                coeffs[e] = s
            else:
                coeffs.pop(e, None)
        return Cyclotomic(a.conductor, coeffs, _reduced=True)

    __radd__ = __add__

    def __neg__(self):
        return Cyclotomic(self.conductor, {e: -c for e, c in self.coeffs.items()}, _reduced=True)

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
            if other == 0:
                return Cyclotomic(self.conductor, {}, _reduced=True)
            f = _as_fraction(other)
            return Cyclotomic(
                self.conductor, {e: c * f for e, c in self.coeffs.items()}, _reduced=True
            )
        if not isinstance(other, Cyclotomic):
            return NotImplemented
        a, b = self._common(other)
        if not a.coeffs or not b.coeffs:
            return Cyclotomic(a.conductor, {}, _reduced=True)
        m = a.conductor
        # Integer convolution with a single rational rescale at the end.
        da = 1
        for c in a.coeffs.values():
            da = da * c.denominator // gcd(da, c.denominator)
        db = 1
        for c in b.coeffs.values():
            db = db * c.denominator // gcd(db, c.denominator)
        ai = [(e, int(c * da)) for e, c in a.coeffs.items()]
        bi = [(e, int(c * db)) for e, c in b.coeffs.items()]
        raw: dict[int, int] = {}
        for ea, ca in ai:
            for eb, cb in bi:
                e = ea + eb
                if e >= m:
                    e -= m
                raw[e] = raw.get(e, 0) + ca * cb
        red = _reduce_int(m, raw)
        scale = da * db
        coeffs = {}
        for e, c in red.items():
            f = Fraction(c, scale)
            if f:
                coeffs[e] = f
        return Cyclotomic(m, coeffs, _reduced=True)

    __rmul__ = __mul__

    def __truediv__(self, other):
        """Division by a rational scalar only; see :func:`divide` for the rest."""
        if isinstance(other, (int, Fraction)):
            f = _as_fraction(other)
            if f == 0:
                raise ZeroDivisionError("division by zero")
            return self * (1 / f)
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
        return Cyclotomic(m, {(-e) % m: c for e, c in self.coeffs.items()})

    # -- predicates --------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_real(self) -> bool:
        return self == self.conjugate()

    def rational_value(self) -> Optional[Fraction]:
        """The element as a rational number, or None if it is irrational."""
        if not self.coeffs:
            return Fraction(0)
        if set(self.coeffs) == {0}:
            return self.coeffs[0]
        return None

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b = self._common(o)
        return a.coeffs == b.coeffs

    def __hash__(self):
        r = self.rational_value()
        if r is not None:
            return hash(r)
        # Equal elements may live at different conductors with different
        # coefficient dicts, so only rationals get a discriminating hash.
        return 0x5CE1F

    # -- numerics and display ---------------------------------------------

    def embed(self, precision: int = 53) -> complex:
        """Numerical value at zeta_m = e^(2 pi i / m).

        precision is in bits (>= 53); higher precisions evaluate through
        mpmath before rounding to a double.
        """
        if precision < 53:
            raise ValueError("precision must be at least 53 bits")
        if precision == 53:
            roots = _embedded_roots(self.conductor)
            return sum((complex(c) * roots[e] for e, c in self.coeffs.items()), 0j)
        with mpmath.workprec(precision + 10):
            acc = mpmath.mpc(0)
            for e, c in self.coeffs.items():
                acc += mpmath.mpf(c.numerator) / c.denominator * mpmath.expjpi(
                    mpmath.mpf(2 * e) / self.conductor
                )
            return complex(acc)

    def to_json(self) -> dict:
        return {
            "conductor": self.conductor,
            "coeffs": [[e, f"{c.numerator}/{c.denominator}"] for e, c in sorted(self.coeffs.items())],
        }

    @classmethod
    def from_json(cls, data: dict) -> "Cyclotomic":
        coeffs = {int(e): Fraction(s) for e, s in data["coeffs"]}
        return cls(int(data["conductor"]), coeffs)

    def __repr__(self):
        if not self.coeffs:
            return "Cyclotomic(0)"
        m = self.conductor
        parts = []
        for e, c in sorted(self.coeffs.items()):
            if e == 0:
                parts.append(str(c))
            elif c == 1:
                parts.append(f"z{m}^{e}")
            else:
                parts.append(f"{c}*z{m}^{e}")
        return " + ".join(parts)


def _reduce(m: int, coeffs: dict[int, Fraction]) -> dict[int, Fraction]:
    deg = phi(m)
    out: dict[int, Fraction] = {}
    table = None
    for e, c in coeffs.items():
        if not c:
            continue
        e %= m
        if e < deg:
            s = out.get(e, Fraction(0)) + c
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        else:
            if table is None:
                table = _reduction_table(m)
            row = table[e - deg]
            for i, t in enumerate(row):
                if t:
                    s = out.get(i, Fraction(0)) + c * t
                    if s:
                        out[i] = s
                    else:
                        out.pop(i, None)
    return out


def _reduce_int(m: int, coeffs: dict[int, int]) -> dict[int, int]:
    deg = phi(m)
    out: dict[int, int] = {}
    table = None
    for e, c in coeffs.items():
        if not c:
            continue
        if e < deg:
            out[e] = out.get(e, 0) + c
        else:
            if table is None:
                table = _reduction_table(m)
            row = table[e - deg]
            for i, t in enumerate(row):
                if t:
                    out[i] = out.get(i, 0) + c * t
    return out


ZERO = Cyclotomic.from_rational(0)
ONE = Cyclotomic.from_rational(1)


def root_of_unity(h: Union[Fraction, int]) -> Cyclotomic:
    """e^(2 pi i h) for rational h, interpreted mod 1."""
    h = _as_fraction(h) % 1
    return Cyclotomic.zeta(h.denominator, h.numerator)


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
    # Row i, column j holds coordinate i of b * zeta^j.
    rows: list[dict[int, Fraction]] = [{} for _ in range(deg)]
    for j in range(deg):
        for i, c in (bp * Cyclotomic.zeta(m, j)).coeffs.items():
            rows[i][j] = c
    sol = solve(rows, [ap.coeffs.get(i, 0) for i in range(deg)], deg)
    if sol is None:
        raise ArithmeticError("quotient does not lie in the field (inconsistent system)")
    q = Cyclotomic(m, {j: c for j, c in enumerate(sol) if c}, _reduced=True)
    if q * b != a:
        raise ArithmeticError("division verification failed")
    return q


def csum(items: Iterable[Cyclotomic]) -> Cyclotomic:
    """Sum of cyclotomic elements (empty sum is 0)."""
    acc = ZERO
    for x in items:
        acc = acc + x
    return acc
