"""Exact cyclotomic arithmetic: field axioms, conjugation, embedding,
serialization and division (against sympy), a differential check of the
integer representation against a dict-of-Fraction reference, and of the
verdicts of arrays held by their values modulo primes against scalar
arithmetic."""

import cmath
from fractions import Fraction
from math import gcd, lcm, prod

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import modinv.cyclo
from modinv.cyclo import (
    ONE,
    ZERO,
    Cyclotomic,
    _cos_bracket,
    _cyclotomic_poly,
    _dot_mod,
    _fixed_cos,
    _fixed_pi,
    _is_prime,
    _l1,
    _table,
    coordinates,
    csum,
    differs,
    divide,
    evaluate,
    int_matmul,
    matmul_dtype,
    nonzero,
    phi,
    real_bounds,
    real_floor,
    root_of_unity,
)
from modinv.ringfile import MAX_CONDUCTOR, RingFileError, _parse_cyclotomic

CONDUCTORS = [1, 2, 3, 4, 5, 6, 7, 8, 9, 12, 15, 16, 18, 24, 72]


def elements(max_conductor=24):
    conductor = st.sampled_from([m for m in CONDUCTORS if m <= max_conductor])
    return conductor.flatmap(elements_at)


def elements_at(m):
    coeff = st.fractions(
        min_value=-4, max_value=4, max_denominator=6
    )
    return st.dictionaries(
        st.integers(min_value=0, max_value=max(phi(m) - 1, 0)), coeff, max_size=4
    ).map(lambda d: Cyclotomic(m, d))


def test_phi_values():
    assert [phi(m) for m in [1, 2, 3, 4, 8, 9, 12, 72]] == [1, 1, 2, 2, 4, 6, 4, 24]


def test_primitive_root_relations():
    # zeta_4 = i, zeta_8^2 = i, zeta_3 + zeta_3^2 = -1.
    i1 = Cyclotomic.zeta(4)
    assert i1 * i1 == Cyclotomic.from_rational(-1)
    assert Cyclotomic.zeta(8) ** 2 == i1
    z3 = Cyclotomic.zeta(3)
    assert z3 + z3 ** 2 == Cyclotomic.from_rational(-1)


def test_cross_conductor_equality():
    # zeta_6 - 1 ... zeta_3 representations of the same number must compare equal.
    assert Cyclotomic.zeta(6) == ONE + Cyclotomic.zeta(3)
    assert Cyclotomic.zeta(6, 2) == Cyclotomic.zeta(3)
    assert hash(Cyclotomic.zeta(6, 2)) == hash(Cyclotomic.zeta(3))


def test_rational_value_detection():
    assert (Cyclotomic.zeta(5) * Cyclotomic.zeta(5, 4)).rational_value() == 1
    assert Cyclotomic.zeta(3).rational_value() is None
    assert ZERO.rational_value() == 0


@given(elements(), elements(), elements())
@settings(max_examples=60, deadline=None)
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert a + ZERO == a
    assert a * ONE == a
    assert a - a == ZERO


@given(elements(), elements())
@settings(max_examples=60, deadline=None)
def test_embedding_is_homomorphic(a, b):
    assert cmath.isclose(
        (a * b).embed(), a.embed() * b.embed(), rel_tol=0, abs_tol=1e-7
    )
    assert cmath.isclose(
        (a + b).embed(), a.embed() + b.embed(), rel_tol=0, abs_tol=1e-7
    )


@given(elements(max_conductor=72), st.sampled_from([53, 64, 128, 256]))
@settings(max_examples=60, deadline=None)
def test_real_bounds_bracket_the_real_part(x, bits):
    # The bracket holds the real part, computed independently at 100 digits
    # from the coordinates, and is a few units wide.
    ((lo, hi),) = real_bounds([x], bits)
    with mpmath.workdps(100):
        m = x.conductor
        re = sum(mpmath.mpf(c) * mpmath.cos(2 * mpmath.pi * e / m) for e, c in x.num.items())
        scaled = re / x.den * mpmath.mpf(2) ** bits
        assert lo <= scaled <= hi
    assert hi - lo <= 2 + 3 * sum(abs(c) for c in x.num.values())


@given(elements(max_conductor=72), st.booleans(), st.integers(-3, 3))
@settings(max_examples=80, deadline=None)
def test_real_floor_matches_the_real_part_at_250_digits(x, real, shift):
    # Real elements (x + conj x) and general ones, shifted to either sign.
    # An element of this small height within 1e-200 of an integer k has real
    # part exactly k, which the field confirms.
    if real:
        x = x + x.conjugate()
    x = x + shift
    with mpmath.workdps(250):
        m = x.conductor
        re = sum(mpmath.mpf(c) * mpmath.cos(2 * mpmath.pi * e / m) for e, c in x.num.items())
        re /= x.den
        k = int(mpmath.nint(re))
        if abs(re - k) < mpmath.mpf(10) ** -200:
            assert (x + x.conjugate()) / 2 == k
            expected = k
        else:
            expected = int(mpmath.floor(re))
    assert real_floor(x) == expected


def _sqrt2_power(k):
    """(sqrt 2 - 1)^k in Q(zeta_8): positive, about 3e-31 for k = 80."""
    return (Cyclotomic(8, {1: 1, 7: 1}) - 1) ** k


@pytest.mark.parametrize(
    "x, floor",
    [
        (Cyclotomic.from_rational(0), 0),
        (Cyclotomic.from_rational(5), 5),
        (Cyclotomic.from_rational(-3), -3),
        (Cyclotomic.from_rational(Fraction(-7, 2)), -4),
        (Cyclotomic.from_rational(-3, conductor=12), -3),
        (-Cyclotomic(8, {1: 1, 7: 1}), -2),  # -sqrt 2
        (Cyclotomic(8, {1: 1, 7: 1}) - 2, -1),
        (3 + _sqrt2_power(80), 3),
        (3 - _sqrt2_power(80), 2),
        (-3 + _sqrt2_power(80), -3),
        (-3 - _sqrt2_power(80), -4),
        # Non-real elements with an integer real part stop at the rational test.
        (Cyclotomic.zeta(4), 0),
        (Cyclotomic.zeta(4) - 2, -2),
        (Cyclotomic.zeta(3) + Cyclotomic.zeta(3, 2), -1),
        (Cyclotomic.zeta(3) - Cyclotomic.zeta(3, 2), 0),  # i sqrt 3
        (Cyclotomic.zeta(8) + Cyclotomic.zeta(8, 3) - 7, -7),  # i sqrt 2 - 7
        (Cyclotomic.zeta(12) + Cyclotomic.zeta(12, 5), 0),  # i
    ],
)
def test_real_floor_of_negatives_integers_and_non_real_elements(x, floor):
    assert real_floor(x) == floor


# 700 digits hold 2**2048 cos(theta) to about 80 digits past the point.
BRACKET_DPS = 700


def _assert_brackets_the_cosine(m, e, bits, dps=BRACKET_DPS):
    a, b = _cos_bracket(m, e, bits)
    with mpmath.workdps(dps):
        scaled = mpmath.cos(2 * mpmath.pi * e / m) * mpmath.mpf(2) ** bits
        assert a <= scaled <= b, (m, e, bits)
    assert b - a <= 2, (m, e, bits)


@st.composite
def cos_cases(draw):
    """(m, e) with m <= 1000 and any e; half of them an odd m with the angle
    in (pi/2, pi), where the reduction goes through the conductor 2m."""
    if draw(st.booleans()):
        m = 2 * draw(st.integers(1, 499)) + 1
        e = draw(st.integers(m // 4 + 1, m // 2))
    else:
        m = draw(st.integers(1, 1000))
        e = draw(st.integers(0, m - 1))
    return m, draw(st.sampled_from([1, -1])) * e + m * draw(st.integers(-3, 3))


@given(cos_cases(), st.integers(1, 64).map(lambda k: 32 * k))
@settings(max_examples=150, deadline=None)
def test_cos_bracket_holds_the_cosine_at_700_digits(case, bits):
    _assert_brackets_the_cosine(*case, bits)


@pytest.mark.parametrize("bits", [32, 53, 64])
def test_cos_bracket_holds_every_angle_of_small_conductors(bits):
    for m in range(1, 61):
        for e in range(m):
            _assert_brackets_the_cosine(m, e, bits, dps=60)


@pytest.mark.parametrize("bits", [1, 32, 64, 2048])
def test_cos_bracket_of_rational_cosines(bits):
    # cos = 1 and -1 are exact; at cos = 0 and +-1/2 the scaled value is an
    # integer the error budget straddles.
    one = 2**bits
    for m in (1, 2, 3, 4, 6, 12, 1000):
        assert _cos_bracket(m, 0, bits) == _cos_bracket(m, 5 * m, bits) == (one, one)
    for m, e in ((2, 1), (4, 2), (6, 3), (998, 499), (1000, 1500)):
        assert _cos_bracket(m, e, bits) == (-one, -one)
    for m, e, value in ((4, 1, 0), (4, 3, 0), (12, 9, 0), (1000, 250, 0), (6, 1, one // 2),
                        (3, 1, -one // 2), (6, 2, -one // 2), (999, 333, -one // 2)):
        a, b = _cos_bracket(m, e, bits)
        assert a <= value <= b and b - a <= 2, (m, e, bits)


@pytest.mark.parametrize("w", [1, 10, 46, 300, 2076])
def test_fixed_pi_is_within_its_error_bound(w):
    P, dP = _fixed_pi(w)
    with mpmath.workdps(BRACKET_DPS):
        assert abs(P - mpmath.pi * mpmath.mpf(2) ** w) <= dP


@given(st.integers(1, 1000).flatmap(lambda m: st.tuples(st.just(m), st.integers(0, m // 4))),
       st.integers(1, 300))
@settings(max_examples=150, deadline=None)
def test_fixed_cos_is_within_its_error_budget(case, w):
    # The budget on its own bounds the error, with no guard bits around it.
    m, e = case
    c, E = _fixed_cos(m, e, w)
    with mpmath.workdps(120):
        assert abs(c - mpmath.cos(2 * mpmath.pi * e / m) * mpmath.mpf(2) ** w) <= E


@given(elements())
@settings(max_examples=60, deadline=None)
def test_conjugate_matches_complex_conjugation(a):
    assert cmath.isclose(
        a.conjugate().embed(), a.embed().conjugate(), rel_tol=0, abs_tol=1e-7
    )
    assert a.conjugate().conjugate() == a
    assert (a * a.conjugate()).is_real()


@given(elements())
@settings(max_examples=40, deadline=None)
def test_json_round_trip(a):
    # Ring files read cyclotomic values back through the ring-file reader.
    assert _parse_cyclotomic(a.to_json(), "a") == a


def test_json_reader_takes_the_ring_file_rational_grammar():
    assert _parse_cyclotomic({"conductor": 1, "coeffs": [[0, "1/2"]]}, "d") == Fraction(1, 2)
    with pytest.raises(RingFileError, match=r"^d: cannot parse rational '0\.5'$"):
        _parse_cyclotomic({"conductor": 1, "coeffs": [[0, "0.5"]]}, "d")


@given(elements(), st.sampled_from(CONDUCTORS))
@settings(max_examples=40, deadline=None)
def test_conductor_promotion_round_trip(a, m):
    target = a.conductor * m
    assert a.to_conductor(target) == a


@given(st.fractions(max_denominator=24))
@settings(max_examples=50, deadline=None)
def test_root_of_unity_order(h):
    w = root_of_unity(h)
    q = (h % 1).denominator
    assert w ** q == ONE
    assert cmath.isclose(
        w.embed(), cmath.exp(2j * cmath.pi * float(h % 1)), rel_tol=0, abs_tol=1e-9
    )


@given(st.sampled_from(CONDUCTORS).flatmap(lambda m: st.tuples(elements_at(m), elements_at(m))))
@settings(max_examples=40, deadline=None)
def test_division_inverts_multiplication(pair):
    a, b = pair
    if b.is_zero():
        with pytest.raises(ZeroDivisionError):
            divide(a, b)
    else:
        q = divide(a * b, b)
        assert q == a


def test_division_verifies_result():
    half = divide(ONE, Cyclotomic.from_rational(2))
    assert half == Cyclotomic.from_rational(Fraction(1, 2))
    golden = Cyclotomic.zeta(5) + Cyclotomic.zeta(5, 4)  # 2 cos(2 pi / 5)
    assert divide(golden * golden, golden) == golden


def test_csum_empty_is_zero():
    assert csum([]) == ZERO


def test_scalar_operations():
    z = Cyclotomic.zeta(8)
    assert 2 * z == z + z
    assert z / 2 + z / 2 == z
    assert z - 1 == z + (-1)


# -- reference: coordinates as a dict of Fractions ------------------------------
#
# The representation every Cyclotomic used before the integer one: rational
# coordinates in a dict whose insertion order is the summation order of
# embed(). The report's numeric shadows are pinned with that order, so the
# integer type must reproduce it. An element is a pair (m, {e: Fraction}).


def _ref_table(m):
    deg = phi(m)
    poly = _cyclotomic_poly(m)
    cur = [-poly[i] for i in range(deg)]
    table = [tuple(cur)]
    for _ in range(deg + 1, m):
        top = cur[deg - 1]
        cur = [0] + cur[: deg - 1]
        for i in range(deg):
            cur[i] += top * table[0][i]
        table.append(tuple(cur))
    return table


def _ref_reduce(m, coeffs, keep_cancelled=False):
    """Fold the exponents of coeffs below phi(m). Without keep_cancelled an
    entry that cancels is popped (and re-inserted at the end); with it, it
    keeps its slot until the end."""
    deg = phi(m)
    out = {}
    for e, c in coeffs.items():
        if not c:
            continue
        e %= m
        for i, t in [(e, 1)] if e < deg else enumerate(_ref_table(m)[e - deg]):
            if t:
                s = out.get(i, Fraction(0)) + c * t
                if s or keep_cancelled:
                    out[i] = s
                else:
                    out.pop(i)
    return {e: c for e, c in out.items() if c}


def _ref_promote(x, m):
    k = m // x[0]
    return x if k == 1 else (m, _ref_reduce(m, {(e * k) % m: c for e, c in x[1].items()}))


def _ref_common(x, y):
    m = lcm(x[0], y[0])
    return _ref_promote(x, m), _ref_promote(y, m)


def _ref_add(x, y):
    a, b = _ref_common(x, y)
    out = dict(a[1])
    for e, c in b[1].items():
        s = out.get(e, Fraction(0)) + c
        if s:
            out[e] = s
        else:
            out.pop(e, None)
    return a[0], out


def _ref_neg(x):
    return x[0], {e: -c for e, c in x[1].items()}


def _ref_scale(x, f):
    return x[0], {e: c * f for e, c in x[1].items()} if f else {}


def _ref_mul(x, y):
    (m, a), (_, b) = _ref_common(x, y)
    raw = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = (ea + eb) % m
            raw[e] = raw.get(e, 0) + ca * cb
    return m, _ref_reduce(m, raw, keep_cancelled=True)


def _ref_conjugate(x):
    m = x[0]
    return m, _ref_reduce(m, {(-e) % m: c for e, c in x[1].items()})


def _ref_embed(x):
    m, coeffs = x
    roots = [cmath.exp(2j * cmath.pi * e / m) for e in range(m)]
    return sum((complex(c) * roots[e] for e, c in coeffs.items()), 0j)


def _ref_json(x):
    return {
        "conductor": x[0],
        "coeffs": [[e, f"{c.numerator}/{c.denominator}"] for e, c in sorted(x[1].items())],
    }


def _ref_repr(x):
    m, coeffs = x
    parts = [
        str(c) if e == 0 else f"z{m}^{e}" if c == 1 else f"{c}*z{m}^{e}"
        for e, c in sorted(coeffs.items())
    ]
    return " + ".join(parts) if parts else "Cyclotomic(0)"


# The display reads the integer coordinates; _ref_json and _ref_repr are the
# Fraction-based bodies it replaced. Coefficients cover den 1, +-1, negative
# numerators and denominators that cancel in some coordinates only.
_DISPLAY_COEFFS = [1, -1, 2, -3, Fraction(1, 2), Fraction(-1, 2), Fraction(-5, 6), Fraction(2, 3)]


@pytest.mark.parametrize("m", CONDUCTORS)
def test_display_matches_fraction_reference(m):
    top = phi(m) - 1
    values = [ZERO, Cyclotomic(m, {})]
    for c in _DISPLAY_COEFFS:
        values += [Cyclotomic(m, {0: c}), Cyclotomic(m, {top: c}), Cyclotomic(m, {m - 1: c})]
        values += [Cyclotomic(m, {e: c * (-1) ** e for e in range(phi(m))})]
        values += [Cyclotomic(m, {0: c, top: d}) for d in _DISPLAY_COEFFS]
    for x in values:
        ref = (x.conductor, x.coeffs)
        assert x.to_json() == _ref_json(ref)
        assert repr(x) == _ref_repr(ref)


def _bits(z):
    return z.real.hex(), z.imag.hex()


def _assert_matches(got, ref):
    """got is canonical and agrees with the reference coordinate by
    coordinate, in slot order, in embed() bit for bit and in its output."""
    m, coeffs = ref
    assert got.conductor == m
    assert got.den > 0 and gcd(got.den, *got.num.values()) == 1
    assert all(got.num.values()) and all(0 <= e < phi(m) for e in got.num)
    assert list(got.coeffs.items()) == list(coeffs.items())
    assert _bits(got.embed()) == _bits(_ref_embed(ref))
    assert got.to_json() == _ref_json(ref)
    assert repr(got) == _ref_repr(ref)


# Few distinct values and exponents up to 2m, so that the folds of
# exponents >= phi(m) and the sums cancel often.
_ref_coeffs = st.sampled_from([1, -1, 2, -2, Fraction(1, 2), Fraction(-1, 2), Fraction(2, 3)])


@st.composite
def raw_elements(draw, conductors=CONDUCTORS):
    m = draw(st.sampled_from(conductors))
    return m, draw(st.dictionaries(st.integers(0, 2 * m), _ref_coeffs, max_size=8))


def _both(raw):
    m, coeffs = raw
    return Cyclotomic(m, coeffs), (m, _ref_reduce(m, coeffs))


@given(
    raw_elements(),
    raw_elements([m for m in CONDUCTORS if m <= 24]),
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
    st.sampled_from([1, 2, 3, 5]),
    st.sampled_from(CONDUCTORS),
)
@settings(max_examples=300, deadline=None)
def test_integer_representation_matches_fraction_reference(ra, rb, f, k, c):
    (a, ref_a), (b, ref_b) = _both(ra), _both(rb)
    _assert_matches(a, ref_a)
    _assert_matches(b, ref_b)
    # Sums of a with a part of itself cancel whole coordinates.
    half, ref_half = _both((ra[0], dict(list(ra[1].items())[::2])))
    _assert_matches(a - half, _ref_add(ref_a, _ref_neg(ref_half)))
    _assert_matches(half - a, _ref_add(ref_half, _ref_neg(ref_a)))
    _assert_matches(a + b, _ref_add(ref_a, ref_b))
    _assert_matches(a - b, _ref_add(ref_a, _ref_neg(ref_b)))
    _assert_matches(a * b, _ref_mul(ref_a, ref_b))
    _assert_matches(a * (b - a), _ref_mul(ref_a, _ref_add(ref_b, _ref_neg(ref_a))))
    _assert_matches(a * f, _ref_scale(ref_a, f))
    _assert_matches(f * a, _ref_scale(ref_a, f))
    _assert_matches(a + f, _ref_add(ref_a, (1, {0: f} if f else {})))
    _assert_matches(-a, _ref_neg(ref_a))
    for g in (f, -f) if f else (1, -1):
        _assert_matches(a / g, _ref_scale(ref_a, 1 / Fraction(g)))
    # Rational elements, 1 and one-term sums take exact shortcuts; the
    # reference multiplies and sums the general way.
    for r in (0, 1, -1, f):
        for m in (1, c):
            rat, ref_rat = Cyclotomic.from_rational(r, m), (m, {0: Fraction(r)} if r else {})
            _assert_matches(rat, ref_rat)
            _assert_matches(a * rat, _ref_mul(ref_a, ref_rat))
            _assert_matches(rat * a, _ref_mul(ref_rat, ref_a))
    for one in (1, Fraction(1)):
        _assert_matches(a * one, _ref_scale(ref_a, 1))
        _assert_matches(one * a, _ref_scale(ref_a, 1))
    _assert_matches(csum([a]), _ref_add((1, {}), ref_a))
    _assert_matches(csum(iter([b])), _ref_add((1, {}), ref_b))
    _assert_matches(a.conjugate(), _ref_conjugate(ref_a))
    _assert_matches(a.to_conductor(k * ra[0]), _ref_promote(ref_a, k * ra[0]))
    _assert_matches(_parse_cyclotomic(a.to_json(), "a"), (ra[0], dict(sorted(ref_a[1].items()))))
    ref_eq = _ref_common(ref_a, ref_b)
    assert (a == b) == (ref_eq[0][1] == ref_eq[1][1])
    assert a == half + (a - half)


def _conductor_capped(raws):
    """The longest prefix of the raw elements whose lcm conductor is at most
    2 * MAX_CONDUCTOR, the largest the program forms (the central charge
    check's root of unity has an order dividing twice the conductor): past
    it the reference fold alone takes seconds."""
    m = 1
    for i, (c, _) in enumerate(raws):
        m = lcm(m, c)
        if m > 2 * MAX_CONDUCTOR:
            return raws[:i]
    return raws


@given(
    st.lists(raw_elements() | st.fractions(max_denominator=4).map(lambda f: (1, {0: f}))).map(
        _conductor_capped
    )
)
# zeta_4 cancels and comes back after 1: it must take the last slot again.
@example([(4, {1: 1}), (4, {1: -1}), (4, {0: 1}), (4, {1: 1})])
@settings(max_examples=150, deadline=None)
def test_csum_matches_sequential_addition(raws):
    # The fused sum is the left fold of the reference addition, slot order
    # and conductor included: the report's numeric shadows read the slot order.
    ref = (1, {})
    for m, coeffs in raws:
        ref = _ref_add(ref, (m, _ref_reduce(m, coeffs)))
    _assert_matches(csum(iter(Cyclotomic(m, coeffs) for m, coeffs in raws)), ref)


# -- integer coordinate tensors ----------------------------------------------

# 105 is the first conductor whose cyclotomic polynomial has a coefficient -2.
TENSOR_CONDUCTORS = CONDUCTORS + [105]

# Each case draws its entries from one band. Small entries need one prime;
# integers up to 2**28 put products past 2**53, a prime's square; numerators
# above 2**62 push the coordinates past int64, so Python ints are reduced.
_small_coeffs = st.fractions(min_value=-4, max_value=4, max_denominator=6)
_tensor_coeff_bands = [
    _small_coeffs,
    st.integers(-(2**28), 2**28).map(Fraction),
    _small_coeffs
    | st.integers(2**62, 2**66).map(Fraction)
    | st.integers(-(2**66), -(2**62)).map(Fraction),
]


def _matrix(m, rows, cols, coeffs):
    entry = st.dictionaries(st.integers(0, m - 1), coeffs, max_size=3)
    return st.lists(
        st.lists(entry.map(lambda c: Cyclotomic(m, c)), min_size=cols, max_size=cols),
        min_size=rows,
        max_size=rows,
    )


@st.composite
def _matrix_pairs(draw):
    m = draw(st.sampled_from(TENSOR_CONDUCTORS))
    p, q, r = (draw(st.integers(1, 3)) for _ in range(3))
    coeffs = draw(st.sampled_from(_tensor_coeff_bands))
    return m, draw(_matrix(m, p, q, coeffs)), draw(_matrix(m, q, r, coeffs))


def _elements(X, D, m):
    """The matrix of field elements with coordinates X over the denominator D."""
    def element(coords):
        return Cyclotomic(m, {e: Fraction(int(c), D) for e, c in enumerate(coords)})

    return [[element(X[:, l, k]) for k in range(X.shape[2])] for l in range(X.shape[1])]


def _values(entries, m):
    return evaluate(*coordinates(entries, m), m)


def _verdicts(x, expected, m, data):
    """differs(x, y) against the scalar verdicts, for y equal to `expected`
    where a drawn mask is False and moved off it by a drawn element (which
    may be 0) where it is True. x's norm must bound the L1 norms of the
    integer coordinates of x.den * expected, which decide how many primes
    a comparison uses."""
    X, D = coordinates(expected, m)
    assert x.den % D == 0 and _l1(X) * (x.den // D) <= x.norm
    shape = np.array(expected, dtype=object).shape
    move = np.array(data.draw(st.lists(st.booleans(), min_size=prod(shape), max_size=prod(shape))))
    move = move.reshape(shape)
    delta = data.draw(st.sampled_from([ZERO, ONE, Cyclotomic.zeta(m), Cyclotomic(m, {0: 2**70})]))
    arr = np.array(expected, dtype=object)
    other = np.where(move, arr + delta, arr)
    want = move & (not delta.is_zero())
    assert differs(x, _values(other.tolist(), m)).tolist() == want.tolist()
    assert differs(_values(other.tolist(), m), x).tolist() == want.tolist()


@given(_matrix_pairs(), st.data())
@settings(max_examples=80, deadline=None)
def test_coordinate_tensors_match_scalar_arithmetic(case, data):
    # Products, conjugates and rotations of arrays held by their values give
    # the verdicts of scalar arithmetic, entry by entry.
    m, A, B = case
    p, q, r = len(A), len(B), len(B[0])
    XA, DA = coordinates(A, m)
    assert XA.shape == (phi(m), p, q) and DA > 0
    assert _elements(XA, DA, m) == A
    Av, Bv = _values(A, m), _values(B, m)
    product = [[csum(A[l][j] * B[j][k] for j in range(q)) for k in range(r)] for l in range(p)]
    _verdicts(Av @ Bv, product, m, data)
    x = B[0][0]
    _verdicts(_values(x, m) * Av, [[x * a for a in row] for row in A], m, data)
    _verdicts(Av.conjugate(), [[a.conjugate() for a in row] for row in A], m, data)
    _verdicts(Av.T, [list(col) for col in zip(*A)], m, data)
    s = np.array(data.draw(st.lists(st.integers(-2 * m, 2 * m), min_size=q, max_size=q)))
    rotated = [[a * Cyclotomic.zeta(m, int(e)) for a, e in zip(row, s)] for row in A]
    _verdicts(Av.times_root(s), rotated, m, data)
    _verdicts(Av[:, 0], [row[0] for row in A], m, data)
    assert nonzero(Av).tolist() == [[not a.is_zero() for a in row] for row in A]


def test_coordinate_tensors_fall_back_to_python_ints():
    # (2**62 + 2**62 zeta_4)^2 = 2**125 zeta_4: past int64 in every slot.
    a = Cyclotomic(4, {0: 2**62, 1: 2**62})
    X, D = coordinates([[a]], 4)
    assert X.dtype == object and D == 1
    square = evaluate(X, D, 4) @ evaluate(X, D, 4)
    assert not differs(square, _values([[Cyclotomic(4, {1: 2**125})]], 4)).any()
    assert differs(square, _values([[Cyclotomic(4, {1: 2**125 + 1})]], 4)).all()


@pytest.mark.parametrize(
    "a, b",
    [
        (6361 * 69431, 20394401),  # a * b = 2**53 - 1: float64 holds it exactly
        (3 * 107, 28059810762433),  # a * b = 2**53 + 1: a float64 product rounds
    ],
)
def test_field_products_stay_exact_at_the_float_bound(a, b):
    X, Y = (_values([[Cyclotomic.from_rational(v)]], 1) for v in (a, b))
    for product in (X @ Y, X * Y):
        for c, different in ((a * b, False), (a * b - 1, True), (a * b + 1, True)):
            assert differs(product, _values([[Cyclotomic.from_rational(c)]], 1)).item() is different


@pytest.mark.parametrize("m", [1, 2, 5, 12, 72, 105])
def test_a_difference_that_is_a_multiple_of_the_first_prime_is_caught(m):
    # p0 * x vanishes at every point modulo the first prime; the bound on
    # its coordinates asks for a second prime, where it does not.
    p0 = _table(m, 0).p
    x = Cyclotomic(m, {0: 3, m - 1: -1})
    y = Cyclotomic(m, {1 % m: Fraction(1, 2)})
    assert not (evaluate(*coordinates(p0 * x, m), m).values(0)).any()
    assert nonzero(_values([p0 * x], m)).tolist() == [True]
    xy = _values([[x]], m) @ _values([[y]], m)
    assert differs(xy, _values([[x * y + p0 * x]], m)).tolist() == [[True]]
    assert differs(xy, _values([[x * y]], m)).tolist() == [[False]]


def test_is_prime_matches_a_sieve():
    # Every n below 2**16, strong pseudoprimes to the bases 2 (2047 ...),
    # 2 and 3 (1373653) and 2, 3 and 5 (25326001), and the primes the
    # tables start from.
    n = 2**16
    sieve = np.ones(n, dtype=bool)
    sieve[:2] = False
    for i in range(2, 256):
        if sieve[i]:
            sieve[i * i :: i] = False
    assert [k for k in range(n) if _is_prime(k)] == np.flatnonzero(sieve).tolist()
    assert not any(map(_is_prime, [2047, 3277, 4033, 4681, 8321, 1373653, 25326001]))
    assert [_table(m, 0).p for m in (1, 2, 3, 12, 105)] == [2097143, 2097143, 2097133, 2097133, 2096851]


@pytest.mark.parametrize(
    "p, inner, worst",
    [
        (2097143, 5000, False),  # three chunks of at most 2046 terms, the last short
        (2097143, 5000, True),
        (2096851, 2 * 2046 + 1, True),  # a last chunk of one term
        (2097143, 2047, True),  # one term above a single chunk
        (2097143, 2046, True),  # a single chunk, one product
    ],
)
def test_dot_mod_matches_the_exact_product(p, inner, worst):
    # Inner sums longer than 2**53 // p**2 - 2 terms are split; with every
    # entry p - 1 each chunk's sum comes closest to 2**53.
    rng = np.random.default_rng(inner)
    if worst:
        A, B = np.full((2, 3, inner), p - 1), np.full((inner, 4), p - 1)
    else:
        A, B = rng.integers(1 - p, p, size=(2, 3, inner)), rng.integers(1 - p, p, size=(inner, 4))
    got = _dot_mod(A.astype(np.float64), B.astype(np.float64), p)
    exact = A.astype(object) @ B.astype(object)
    assert got.dtype == np.float64 and got.shape == (2, 3, 4)
    assert (abs(got) <= p / 2 + 2).all()
    assert ((got.astype(np.int64) - exact) % p == 0).all()


@pytest.mark.parametrize("dtype", [np.int64, object])
def test_l1_is_the_largest_column_norm(dtype):
    X = np.random.default_rng(3).integers(-50, 50, size=(6, 3, 4)).astype(dtype)
    norms = [sum(abs(int(x)) for x in X[:, i, j]) for i in range(3) for j in range(4)]
    assert _l1(X) == max(norms)
    assert _l1(X[:, 0, 0]) == norms[0]
    assert _l1(X[:, :0]) == 0
    # 3 * 2**62 - 1 does not fit in int64: the sum is taken in Python ints.
    big = np.array([[2**62, 5], [-(2**62), -7], [2**62 - 1, 0]], dtype=dtype)
    assert _l1(big) == 3 * 2**62 - 1


@pytest.fixture
def prime_limit(monkeypatch):
    """Lower the prime limit to the value the test sets; the tables of the
    primes below the old limit are dropped before and after."""
    modinv.cyclo._table.cache_clear()
    yield lambda limit: monkeypatch.setattr(modinv.cyclo, "PRIME_LIMIT", limit)
    monkeypatch.undo()
    modinv.cyclo._table.cache_clear()


def test_running_out_of_primes_raises(prime_limit):
    # Below 200 there are 9 primes p = 1 mod 12, with a product near 2**61:
    # too few for coordinates near 2**200.
    prime_limit(200)
    big = Cyclotomic(12, {0: 2**200 + 1, 1: 3**130})
    with pytest.raises(ArithmeticError, match="conductor 12"):
        divide(big, Cyclotomic.zeta(12) + 2)
    with pytest.raises(ArithmeticError, match="conductor 12"):
        nonzero(_values([big], 12))
    # Small quotients still come out, from the primes below the limit.
    assert divide(ONE, Cyclotomic.zeta(12) + 2) * (Cyclotomic.zeta(12) + 2) == ONE


def _sympy_quotient(a, b):
    """The coordinates of a / b by sympy, the oracle: a times the inverse of
    b modulo Phi_m over QQ."""
    sympy = pytest.importorskip("sympy")
    m = lcm(a.conductor, b.conductor)
    x = sympy.Symbol("x")
    modulus = sympy.Poly(sympy.cyclotomic_poly(m, x), x, domain=sympy.QQ)

    def poly(c):
        terms = [sympy.Rational(v.numerator, v.denominator) * x**e for e, v in c.to_conductor(m).coeffs.items()]
        return sympy.Poly(sum(terms, sympy.Integer(0)), x, domain=sympy.QQ)

    q = (poly(a) * poly(b).invert(modulus)).rem(modulus)
    return {e: Fraction(str(c)) for (e,), c in q.terms() if c}


@given(st.sampled_from(TENSOR_CONDUCTORS).flatmap(lambda m: st.tuples(elements_at(m), elements_at(m))))
@settings(max_examples=80, deadline=None)
def test_divide_matches_sympy(pair):
    a, b = pair
    if b.is_zero():
        return
    q = divide(a, b)
    assert q.coeffs == _sympy_quotient(a, b)
    # Ascending slots, as the quotient by an irrational element has always
    # been built; a rational divisor scales a in place.
    assert list(q.num) == (sorted(q.num) if b.rational_value() is None else list(a.num))


@pytest.mark.parametrize("m", [3, 5, 12, 72, 105])
def test_divide_by_an_element_vanishing_at_a_root_mod_the_first_prime(m):
    # b = zeta - x_0 vanishes at the point x_0 modulo the first prime, which
    # divide must skip.
    x0 = int(_table(m, 0).power(1)[0])
    b = Cyclotomic(m, {1: 1, 0: -x0})
    assert not _values([b], m).values(0).all()
    a = Cyclotomic(m, {0: Fraction(3, 2), 2: -5}) + Cyclotomic.zeta(m, m - 1)
    q = divide(a, b)
    assert q * b == a
    assert q.coeffs == _sympy_quotient(a, b)


@st.composite
def integer_matrix_pairs(draw):
    """A of shape (2, p, k) or (p, k) and B of shape (k, q), with entries up
    to 2**e in absolute value for e across int_matmul's float64, int64 and
    Python-int paths."""
    p, k, q = (draw(st.integers(1, 4)) for _ in range(3))
    entry = st.integers(-(2 ** draw(st.integers(0, 70))), 2 ** draw(st.integers(0, 70)))
    shape = draw(st.sampled_from([(p, k), (2, p, k)]))
    A, B = (
        np.array(draw(st.lists(entry, min_size=size, max_size=size)), dtype=object)
        for size in (prod(shape), k * q)
    )
    return A.reshape(shape), B.reshape(k, q)


@given(integer_matrix_pairs())
@settings(max_examples=300, deadline=None)
def test_int_matmul_matches_python_ints(pair):
    A, B = pair
    a, b = int(abs(A).max()), int(abs(B).max())
    bound = max(A.shape[-1] * a * b, a, b)
    small = [x.astype(np.int64) if bound < 2**63 else x for x in pair]
    got = int_matmul(*small)
    assert got.tolist() == (A @ B).tolist()
    assert got.dtype == (np.int64 if bound < 2**63 else object)


@pytest.mark.parametrize(
    "A, B, dtype",
    [
        ([[6361 * 69431]], [[20394401]], np.float64),  # bound 2**53 - 1
        ([[2**26, 2**26 - 1]], [[2**26], [2**26]], np.int64),  # bound 2**53
    ],
)
def test_int_matmul_at_the_float_bound(A, B, dtype):
    A, B = np.array(A, dtype=np.int64), np.array(B, dtype=np.int64)
    assert matmul_dtype(A.shape[-1], A, B) is dtype
    got = int_matmul(A, B)
    assert got.dtype == np.int64
    assert got.tolist() == (A.astype(object) @ B.astype(object)).tolist()
