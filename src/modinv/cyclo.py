"""Exact arithmetic in cyclotomic fields Q(zeta_m).

An element is stored in the reduced power basis {zeta^0, ..., zeta^(phi(m)-1)}
as integer coordinates over one positive denominator with no common factor,
so every operation stays in integers and equality at a common conductor is
equality of coordinates. Fractions cross only the boundary: the public
constructor and :meth:`Cyclotomic.from_rational` take rationals, and the
read-only :attr:`Cyclotomic.coeffs` gives them back.
Equality across conductors goes through promotion to the lcm conductor.

Products and sums keep the slot order of ``num`` (`_reduce`), which fixes
the summation order of :meth:`Cyclotomic.embed` and so the numeric shadows
of pinned reports. Sums have one slot rule, in :func:`csum`, which `+` and
`-` call; negation and division by a rational scale the coordinates where
they stand (`_scale`). Two exact shortcuts of the product keep the order
too: a product with 1 is the other factor itself, and a product with a
rational element (no coordinate past zeta^0 at the common conductor) scales
the other factor, as the general product, which sends each exponent below
phi(m) to itself, would. Elements are never mutated, so returning an
operand is safe.

Real parts are decided in integers too: :func:`real_bounds` sums integer
brackets of 2**bits cos(2 pi e / m) (`_cos_bracket`), taken in fixed point
from Machin's pi and the Taylor series of cos within a written error budget
(`_fixed_cos`), and :func:`real_floor` doubles bits until a bracket decides
the floor. No float, and no multiprecision package, decides a bound.

No general field inversion is exposed; the few divisions by non-rational
elements needed downstream go through :func:`divide`, which finds the
quotient's coordinates modulo primes, reconstructs them as fractions and
verifies the quotient by multiplication.

Exact identity checks over whole arrays compare values, not coordinates.
:func:`coordinates` gives an array's integer coordinates, the power-basis
axis first, over one positive denominator, and :func:`evaluate` holds the
array (:class:`Evaluated`) by its values at the roots of Phi_m modulo primes
p = 1 mod m below 2**21, which split completely in Q(zeta_m). There a
product is pointwise, or a batched matrix product, in float64 mod p;
conjugation reverses the points and zeta^s is one factor per point.
:func:`differs` compares two arrays at as many primes as a bound on the
coordinates of their difference needs, so every verdict is exact. An array
keeps the values of its last prime, or, evaluated with ``keep``, of every
prime asked, for an array that several comparisons read. Coordinates whose
L1 norm is below p are cast to float64 as they are, and others reduced mod
p by the integer % first. Integer arrays are int64 only where an explicit
bound shows that no product or sum can wrap, and Python ints (object dtype)
otherwise.
"""

from __future__ import annotations

import cmath
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import chain, count
from math import floor, gcd, isqrt, lcm, prod
from typing import Iterable, Mapping, Optional, Union

import numpy as np

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
        terms = [(e, *_parts(c)) for e, c in coeffs.items()]
        den = lcm(*(q for _, _, q in terms))
        x = Cyclotomic.from_terms(conductor, [(e, p * (den // q)) for e, p, q in terms], den)
        self.conductor, self.num, self.den = conductor, x.num, x.den

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_terms(
        cls, conductor: int, terms: Iterable[tuple[int, int]], den: int = 1
    ) -> "Cyclotomic":
        """The element sum_e c * zeta_conductor^e / den over integer terms
        (e, c) at any integer exponents, for a positive integer den."""
        if conductor < 1:
            raise ValueError(f"conductor must be positive, got {conductor}")
        return _make(conductor, _reduce(conductor, [(e % conductor, c) for e, c in terms]), den)

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
        """The sum, through :func:`csum`, which holds the slot rule of sums."""
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return csum((self, o))

    __radd__ = __add__

    def __neg__(self):
        return _scale(self, -1, 1)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return csum((self, -o))

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return csum((o, -self))

    def __mul__(self, other):
        """The product. A rational factor (an int, a Fraction, or an element
        with no coordinate past zeta^0 once both are at the common
        conductor) scales the other factor's coordinates in their slots:
        the general product would send each of its exponents, all below
        phi(m), to itself, so the slot order is the same. A factor of 1
        returns the other factor itself, which is safe since no element is
        ever mutated."""
        if isinstance(other, (int, Fraction)):
            return _scale(self, other.numerator, other.denominator)
        if not isinstance(other, Cyclotomic):
            return NotImplemented
        a, b = self._common(other)
        if b.num.keys() <= {0}:
            return _scale(a, b.num.get(0, 0), b.den)
        if a.num.keys() <= {0}:
            return _scale(b, a.num.get(0, 0), a.den)
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
            return _scale(self, q, p) if p > 0 else _scale(self, -q, -p)
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
        if self is other:  # no coercion: e.g. a block dim matched with itself
            return True
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


def _scale(x: Cyclotomic, p: int, q: int) -> Cyclotomic:
    """x * p / q for p / q in lowest terms with q > 0, keeping the slot
    order of x; x itself when p / q is 1."""
    if p == q:
        return x
    return _make(x.conductor, {e: c * p for e, c in x.num.items()}, x.den * q)


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


def csum(items: Iterable[Cyclotomic]) -> Cyclotomic:
    """Sum of cyclotomic elements (empty sum is 0), in one integer accumulator
    over a common denominator; `+` and `-` go through it too. This is the slot
    rule of sums: the accumulator starts as the first term, a coordinate
    takes its slot when it first becomes nonzero and is dropped when it
    cancels, and a promotion of the conductor re-slots the accumulator as
    `_reduce` does. A one-term sum is its term."""
    items = iter(items)
    first, second = next(items, ZERO), next(items, None)
    if second is None:
        return first
    m, den, num = first.conductor, first.den, dict(first.num)
    for x in chain((second,), items):
        if m % x.conductor:
            k = lcm(m, x.conductor) // m
            m *= k
            num = _reduce(m, [(e * k, c) for e, c in num.items()])
        x = x.to_conductor(m)
        if den % x.den:
            s = lcm(den, x.den) // den
            den *= s
            num = {e: c * s for e, c in num.items()}
        s = den // x.den
        for e, c in x.num.items():
            t = num.get(e, 0) + c * s
            if t:
                num[e] = t
            else:
                del num[e]
    return _make(m, num, den)


def _arctan_inv(x: int, w: int) -> tuple[int, int]:
    """2**w * arctan(1/x) for an integer x >= 5, in fixed point: the value
    and a bound on its error in units of 2**-w. Each power W / x**(2k+1) is
    floored from the last (error < 1 + 1/(x*x - 1) < 2), each term divides it
    by 2k + 1 (error < 3), and the alternating tail past the first zero power
    is below that power's true value (< 2)."""
    power, total, k = (1 << w) // x, 0, 0
    while power:
        term = power // (2 * k + 1)
        total += -term if k % 2 else term
        power //= x * x
        k += 1
    return total, 3 * k + 2


@lru_cache(maxsize=None)
def _fixed_pi(w: int) -> tuple[int, int]:
    """2**w * pi by Machin's formula pi = 16 arctan(1/5) - 4 arctan(1/239),
    and a bound on its error in units of 2**-w."""
    a, da = _arctan_inv(5, w)
    b, db = _arctan_inv(239, w)
    return 16 * a - 4 * b, 16 * da + 4 * db


def _fixed_cos(m: int, e: int, w: int) -> tuple[int, int]:
    """2**w * cos(2 pi e / m) for 0 <= 4e <= m, in fixed point: the value c
    and a bound E on its error in units of 2**-w.

    theta's fixed value T = floor(2e P / m), from Machin's pi P, is off by
    dT < (2e/m) dP + 1 units, and |cos'| <= 1 carries that to the cosine.
    The Taylor series of cos(T / 2**w) takes terms t_k = floor(t_(k-1) T**2 /
    (2**2w (2k-1) 2k)) from t_0 = 2**w until one is 0: each term is off by
    less than 2 units (its ratio to the last is at most (pi/2)**2 / 2, below
    1/4 from k = 2 on), and the alternating tail past the zero term is below
    that term's true value, so below 2. With N terms summed, E = dT + 2N."""
    P, dP = _fixed_pi(w)
    T = 2 * e * P // m
    T2 = T * T
    c, t, k = 0, 1 << w, 0
    while t:
        c += -t if k % 2 else t
        k += 1
        t = (t * T2 >> 2 * w) // ((2 * k - 1) * 2 * k)
    return c, -(-2 * e * dP // m) + 1 + 2 * k


@lru_cache(maxsize=None)
def _cos_bracket(m: int, e: int, bits: int) -> tuple[int, int]:
    """Integers a <= 2**bits * cos(2 pi e / m) <= b, at most 2 apart, in
    integer fixed point: the angle is reduced to [0, pi/2] (cos(-x) = cos x,
    and cos x = -cos(pi - x) with pi - 2 pi e/m = 2 pi (m - 2e) / 2m), its
    cosine taken at w = bits + g bits within an error budget E
    (`_fixed_cos`), and (c - E, c + E) rounded outward to 2**-bits. E grows
    about linearly in w, so g = log2(bits) + 16 guard bits keep 2E below
    2**(g - 8) (checked from 1 to 4096 bits): the bracket is 2 wide only when
    2**bits cos(2 pi e / m) lies within 2**-8 of an integer."""
    e = min(e % m, -e % m)
    if e == 0:
        return 2**bits, 2**bits
    if 4 * e > m:
        a, b = _cos_bracket(2 * m, m - 2 * e, bits)
        return -b, -a
    g = bits.bit_length() + 16
    c, E = _fixed_cos(m, e, bits + g)
    return (c - E) >> g, -(-(c + E) >> g)


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


def exact_dtype(bound: int):
    """float64 (BLAS) below 2**53, where every integer up to `bound` is held
    exactly, else `int_dtype`."""
    return np.float64 if bound < 2**53 else int_dtype(bound)


def int_array(rows) -> np.ndarray:
    """Nested lists of ints as an int64 array, or as Python ints (object,
    numpy integers converted too) where some entry does not fit in int64."""
    try:
        return np.array(rows, dtype=np.int64)
    except OverflowError:
        return np.frompyfunc(int, 1, 1)(np.array(rows, dtype=object))


def _max_abs(X: np.ndarray) -> int:
    return int(abs(X).max()) if X.size else 0


def matmul_dtype(terms: int, *factors: np.ndarray):
    """The dtype for exact sums of `terms` products of one entry from each
    factor: `exact_dtype` of a bound on every partial sum and on the
    factors' own entries."""
    bounds = [_max_abs(x) for x in factors]
    return exact_dtype(max(terms * prod(bounds), *bounds))


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


@lru_cache(maxsize=None)
def _reduction_matrix(m: int) -> np.ndarray:
    """The (m, phi(m)) int64 matrix whose row e holds the coordinates of
    zeta_m^e (`_reduction_rows`)."""
    R = np.zeros((m, phi(m)), dtype=np.int64)
    for e, row in enumerate(_reduction_rows(m)):
        for i, t in row:
            R[e, i] = t
    return R


def times_roots(X: np.ndarray, k: np.ndarray, m: int) -> np.ndarray:
    """Integer coordinates of zeta_m^(k_j) x_j, for the coordinate columns
    x_j = X[:, j] (shape (phi(m), N)) and integers k_j: column j is placed at
    the exponents k_j .. k_j + phi(m) - 1 mod m of an (N, m) array, which
    the reduction matrix takes back to the power basis in one product."""
    f, N = X.shape
    E = np.zeros((N, m), dtype=X.dtype)
    E[np.arange(N)[:, None], (np.arange(f) + np.asarray(k)[:, None]) % m] = X.T
    return int_matmul(E, _reduction_matrix(m)).T


def int_matmul(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """A @ B for integer arrays, exactly: in float64 (BLAS) and returned as
    int64 where `matmul_dtype` allows, else in int64 where no sum can wrap."""
    dtype = matmul_dtype(A.shape[-1], A, B)
    out = A.astype(dtype, copy=False) @ B.astype(dtype, copy=False)
    return out.astype(np.int64) if dtype is np.float64 else out


# -- values at the roots of Phi_m modulo primes -------------------------------

# Primes stay below PRIME_LIMIT, so a float64 sum of 2**11 products of two
# residues (each below p in absolute value) stays below 2**53 and is exact.
PRIME_LIMIT = 2**21


@lru_cache(maxsize=None)
def _is_prime(n: int) -> bool:
    """Miller-Rabin with the bases 2, 3, 5 and 7, deterministic below 3.2e9;
    cached, since `linalg.kernel` tests the same primes on every call."""
    bases = (2, 3, 5, 7)
    if n < 2 or any(n % b == 0 for b in bases):
        return n in bases
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in bases:
        x = pow(b, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@lru_cache(maxsize=None)
def _rho(m: int) -> int:
    """The largest L1 norm of the reduced coordinates of a power of zeta_m:
    a product xy of elements of Q(zeta_m) has ||xy||_1 <= rho ||x||_1 ||y||_1."""
    return max(sum(abs(t) for _, t in row) for row in _reduction_rows(m))


class _Table:
    """A prime p = 1 mod m and the phi(m) roots of Phi_m modulo p, the powers
    x_k = g^k of a primitive m-th root g with k prime to m, ascending: Phi_m
    splits into distinct linear factors mod p, so the values at the points
    determine the coordinates mod p. x_(m-k) = x_k^-1 is the point of the
    conjugate, so reversing the points conjugates. All arrays are float64
    residues mod p."""

    def __init__(self, m: int, p: int):
        self.m, self.p = m, p
        primes = [q for q in range(2, m + 1) if m % q == 0 and _is_prime(q)]
        g = next(
            x
            for x in (pow(h, (p - 1) // m, p) for h in range(1, p))
            if all(pow(x, m // q, p) != 1 for q in primes)
        )
        roots = [1] * m  # g^t for t < m
        for t in range(1, m):
            roots[t] = roots[t - 1] * g % p
        self.roots = np.array(roots, dtype=np.float64)
        self.units = np.array([k for k in range(m) if gcd(k, m) == 1])
        self.V = self.power(np.arange(phi(m)))  # the evaluation matrix

    def power(self, s) -> np.ndarray:
        """x_k^s for an integer array s, of shape (phi,) + s.shape."""
        return self.roots[np.multiply.outer(self.units, s) % self.m]

    @cached_property
    def inverse(self) -> np.ndarray:
        """V^-1 mod p: column k holds the coordinates of the Lagrange
        polynomial L_k = Phi_m(x) / ((x - x_k) Phi_m'(x_k)), whose quotient
        by x - x_k comes from synthetic division, one coefficient at a time
        for all points at once."""
        f, p = phi(self.m), self.p
        poly = [c % p for c in _cyclotomic_poly(self.m)]
        x = self.power(1).astype(np.int64)
        Q = np.zeros((f, f), dtype=np.int64)  # Q[j, k]: coefficient j of Phi_m / (x - x_k)
        Q[f - 1] = 1
        for j in range(f - 1, 0, -1):
            Q[j - 1] = (poly[j] + x * Q[j]) % p
        # Phi_m'(x_k) = (Phi_m / (x - x_k))(x_k); each product is below 2**42.
        slopes = (Q * self.V.T.astype(np.int64) % p).sum(axis=0) % p
        scale = np.array([pow(int(s), -1, p) for s in slopes], dtype=np.int64)
        return (Q * scale % p).astype(np.float64)


@lru_cache(maxsize=None)
def _table(m: int, i: int) -> _Table:
    """The table of the i-th largest prime p = 1 mod m below PRIME_LIMIT."""
    start = _table(m, i - 1).p - m if i else (PRIME_LIMIT - 2) // m * m + 1
    p = next((q for q in range(start, 4, -m) if _is_prime(q)), None)  # p >= 5 (`_mod`)
    if p is None:
        raise ArithmeticError(
            f"conductor {m}: fewer than {i + 1} primes p = 1 mod {m} below {PRIME_LIMIT}"
        )
    return _Table(m, p)


def _prime_count(m: int, bound: int) -> int:
    """The fewest primes (`_table`) whose product exceeds 2 * bound: integers
    of absolute value at most `bound` that agree modulo all of them are equal."""
    count, modulus = 1, _table(m, 0).p
    while modulus <= 2 * bound:
        modulus *= _table(m, count).p
        count += 1
    return count


def _mod(z: np.ndarray, p: int) -> np.ndarray:
    """A residue of z mod p of absolute value at most p/2 + 2, for a float64
    array of integers below 2**53 - p in absolute value: z - k p with k the
    float quotient z * (1/p) rounded, which is off z/p by at most
    1/2 + 2/p, so that k p and the difference are exact. The residue is not
    canonical, but it is 0 exactly when p divides z (p >= 5). The quotient,
    its product with p and the difference share one buffer, so that a large
    array allocates one temporary instead of three."""
    q = z * (1 / p)
    np.rint(q, out=q)
    q *= p
    return np.subtract(z, q, out=q)


def _dot_mod(A: np.ndarray, B: np.ndarray, p: int) -> np.ndarray:
    """A @ B mod p (`_mod`) for float64 residue arrays (matmul broadcasting)
    with entries below p in absolute value, exactly: an inner dimension
    above 2**53 // p**2 - 2 is split so that no partial sum reaches
    2**53 - p; at or below it (every product of the exact checks) one
    product suffices."""
    step = max(1, 2**53 // p**2 - 2)
    if A.shape[-1] <= step:
        return _mod(A @ B, p)
    out = 0
    for s in range(0, A.shape[-1], step):
        out = _mod(out + A[..., s : s + step] @ B[..., s : s + step, :], p)
    return out


def _l1(X: np.ndarray) -> int:
    """The largest L1 norm of the coordinate vectors X[:, ...]."""
    if not X.size:
        return 0
    a = abs(X)
    if X.dtype != object and int(a.max()) * len(X) >= 2**63:
        a = a.astype(object)
    return int(a.sum(axis=0, keepdims=True).max())


def _lift(values: np.ndarray, ndim: int) -> np.ndarray:
    """Values of shape (phi,) + s with axes inserted after the points'
    axis, up to `ndim` entry axes, so that numpy broadcasting aligns the
    entries of arrays of different ranks and never the points' axis."""
    return values.reshape(values.shape[:1] + (1,) * (ndim + 1 - values.ndim) + values.shape[1:])


class Evaluated:
    """An array of elements of Q(zeta_m) by its values at the roots of Phi_m
    modulo primes: for the i-th prime p (`_table`), `values(i)` is the
    float64 array, of shape (phi(m),) + `shape`, of the residues mod p of
    den * x at the points x_k. Values are computed for the primes a
    comparison asks for, in turn, and those of the last prime are kept, or
    of every prime asked when `keep` is set (`evaluate`): an array that
    several comparisons read is then evaluated once per prime.
    `norm` bounds the L1 norm of the integer
    coordinates of den * x, entry by entry: it grows by rho (`_rho`) in a
    product, a conjugation or a factor zeta^s, and by n in a sum of n terms.
    Products are then pointwise, or batched matrix products, in float64
    mod p."""

    def __init__(self, m: int, den: int, norm: int, shape: tuple, at, keep: bool = False):
        self.m, self.den, self.norm, self.shape = m, den, norm, shape
        self._at, self._keep = at, keep
        self._values: dict[int, np.ndarray] = {}

    def values(self, i: int) -> np.ndarray:
        if i not in self._values:
            if not self._keep:
                self._values.clear()
            self._values[i] = self._at(i)
        return self._values[i]

    def _derived(self, den: int, norm: int, shape: tuple, at) -> "Evaluated":
        return Evaluated(self.m, den, norm, shape, at)

    def __getitem__(self, key) -> "Evaluated":
        """Entries selected as by numpy indexing of the entry axes."""
        key = key if isinstance(key, tuple) else (key,)
        shape = np.broadcast_to(np.empty(()), self.shape)[key].shape
        return self._derived(
            self.den, self.norm, shape, lambda i: self.values(i)[(slice(None),) + key]
        )

    @property
    def T(self) -> "Evaluated":
        """The transpose of a matrix, or of each matrix of a stack."""
        shape = self.shape[:-2] + self.shape[:-3:-1]
        return self._derived(self.den, self.norm, shape, lambda i: self.values(i).swapaxes(-1, -2))

    def __mul__(self, other: "Evaluated") -> "Evaluated":
        """Entrywise (broadcast) products; the denominators multiply."""
        m = self.m
        shape = np.broadcast_shapes(self.shape, other.shape)

        def at(i):
            x, y = _lift(self.values(i), len(shape)), _lift(other.values(i), len(shape))
            return _mod(x * y, _table(m, i).p)

        return self._derived(self.den * other.den, _rho(m) * self.norm * other.norm, shape, at)

    def __matmul__(self, other: "Evaluated") -> "Evaluated":
        """Matrix products of matrices (or stacks of them); the denominators
        multiply."""
        m, terms = self.m, self.shape[-1]
        shape = np.broadcast_shapes(self.shape[:-2], other.shape[:-2])
        shape += (self.shape[-2], other.shape[-1])

        def at(i):
            x, y = _lift(self.values(i), len(shape)), _lift(other.values(i), len(shape))
            return _dot_mod(x, y, _table(m, i).p)

        return self._derived(self.den * other.den, _rho(m) * terms * self.norm * other.norm, shape, at)

    def conjugate(self) -> "Evaluated":
        """Complex conjugates: the values at the reversed points."""
        return self._derived(
            self.den, _rho(self.m) * self.norm, self.shape, lambda i: self.values(i)[::-1]
        )

    def times_root(self, s) -> "Evaluated":
        """zeta_m^s times the elements, for an integer array s broadcast
        against the entries."""
        m = self.m
        s = np.asarray(s) % m
        shape = np.broadcast_shapes(self.shape, s.shape)

        def at(i):
            t = _table(m, i)
            return _mod(_lift(self.values(i), len(shape)) * _lift(t.power(s), len(shape)), t.p)

        return self._derived(self.den, _rho(m) * self.norm, shape, at)


def evaluate(X: np.ndarray, D: int, m: int, keep: bool = False) -> Evaluated:
    """The elements X / D of Q(zeta_m), for integer coordinates X over a
    positive denominator D as `coordinates` gives them; X may hold only the
    first len(X) coordinates (one for rational entries), the rest being 0.
    With `keep`, the values of every prime asked are kept (`Evaluated`).

    `_dot_mod` asks for entries below p in absolute value. When the L1 norm
    of X, and so every entry, is below p, X is cast to float64 as it is;
    otherwise it is reduced by the integer % first."""
    norm = _l1(X)

    def at(i):
        t = _table(m, i)
        flat = X if norm < t.p else X % t.p
        flat = flat.astype(np.float64).reshape(len(X), -1)
        return _dot_mod(t.V[:, : len(X)], flat, t.p).reshape((phi(m),) + X.shape[1:])

    return Evaluated(m, D, norm, X.shape[1:], at, keep)


def _anywhere(m: int, bound: int, at) -> np.ndarray:
    """Mask over the entries where the boolean (phi, ...) array at(i) holds
    at some point for some prime i, over the primes that determine integer
    coordinates bounded by `bound` (`_prime_count`)."""
    return np.logical_or.reduce([at(i).any(axis=0) for i in range(_prime_count(m, bound))])


def nonzero(x: Evaluated) -> np.ndarray:
    """Boolean mask over the entries of x that are not 0."""
    return _anywhere(x.m, x.norm, lambda i: x.values(i) != 0)


def differs(x: Evaluated, y: Evaluated) -> np.ndarray:
    """Boolean mask over the (broadcast) entries where x != y: where
    E * (D x) and D * (E y) differ, D and E the denominators of x and y
    over their gcd."""
    g = gcd(x.den, y.den)
    a, b = y.den // g, x.den // g
    ndim = len(np.broadcast_shapes(x.shape, y.shape))

    def at(i):
        p = _table(x.m, i).p
        u, v = _lift(x.values(i), ndim), _lift(y.values(i), ndim)
        return _mod(u * (a % p) - v * (b % p) if a != b else u - v, p) != 0

    return _anywhere(x.m, a * x.norm + b * y.norm, at)


def _crt(residues: Iterable[int], modulus: int, values: Iterable[int], p: int):
    """The residues modulo modulus * p that are `residues` modulo `modulus`
    and `values` modulo the prime p, which does not divide modulus; start
    from residues of 0 modulo 1. Returns (residues, modulus * p)."""
    lift = pow(modulus, -1, p)
    return [r + modulus * ((v - r) * lift % p) for r, v in zip(residues, values)], modulus * p


def _reconstruct(residues: Iterable[int], modulus: int) -> Optional[tuple[list[int], int]]:
    """For each residue c the fraction n/d = c mod modulus with
    |n|, d <= sqrt(modulus / 2) and gcd(n, d) = 1 (Wang's rational
    reconstruction), as integer numerators over one positive denominator L,
    the lcm of the d: (numerators, L), or None when some residue has none."""
    bound = isqrt(modulus // 2)
    pairs = []
    for c in residues:
        r0, r1, t0, t1 = modulus, c % modulus, 0, 1
        while r1 > bound:
            q = r0 // r1
            r0, r1, t0, t1 = r1, r0 - q * r1, t1, t0 - q * t1
        if abs(t1) > bound or gcd(r1, t1) != 1:
            return None
        pairs.append((r1, t1) if t1 > 0 else (-r1, -t1))
    L = lcm(*(d for _, d in pairs))
    return [n * (L // d) for n, d in pairs], L


def divide(a: Cyclotomic, b: Cyclotomic) -> Cyclotomic:
    """Exact quotient a / b in the common cyclotomic field.

    Found modulo the primes of `_table` in turn: at each, the quotient is
    taken point by point and interpolated back to coordinates mod p, and the
    primes so far are combined and reconstructed as in `linalg.kernel`
    (`_crt`, `_reconstruct`). A candidate is accepted only when q * b == a
    exactly. A prime at which b vanishes at some point, or that divides a
    denominator, is skipped. Raises ArithmeticError when the primes run out.
    """
    if b.is_zero():
        raise ZeroDivisionError("division by zero cyclotomic element")
    r = b.rational_value()
    if r is not None:
        return a / r
    m = lcm(a.conductor, b.conductor)
    ap, bp = a.to_conductor(m), b.to_conductor(m)
    f = phi(m)
    # Columns: the coordinates of den(a) * a and of den(b) * b.
    AB = np.array([[ap.num.get(e, 0), bp.num.get(e, 0)] for e in range(f)], dtype=object)
    residues, modulus = [0] * f, 1
    for i in count():
        t = _table(m, i)
        p = t.p
        if ap.den % p == 0 or bp.den % p == 0:
            continue
        va, vb = _dot_mod(t.V, (AB % p).astype(np.float64), p).T
        if not vb.all():
            continue
        # a / b = (den(b) * (den(a) a)) / (den(a) * (den(b) b)), point by point.
        inverse = [pow(int(v) * ap.den % p, -1, p) for v in vb]
        vq = _mod(_mod(va * (bp.den % p), p) * np.array(inverse, dtype=np.float64), p)
        coords = _dot_mod(t.inverse, vq[:, None], p)[:, 0].astype(np.int64).tolist()
        residues, modulus = _crt(residues, modulus, coords, p)
        lifted = _reconstruct(residues, modulus)
        if lifted is not None:
            q = Cyclotomic.from_terms(m, enumerate(lifted[0]), lifted[1])
            if q * b == a:
                return q
