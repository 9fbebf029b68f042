"""Monodromy matrix, Gauss sum, central charge, degeneracy detection and the
statistics axioms."""

import cmath
import dataclasses
from fractions import Fraction
from functools import cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modinv.cyclo import (
    Cyclotomic,
    _embedded_roots,
    coordinates,
    csum,
    phi,
    root_of_unity,
    times_roots,
)
from modinv import cyclo, fusion, modular
from modinv.fusion import builtin_cyclic, builtin_so_level1, builtin_su2, make_ring
from modinv.modular import (
    DataIntegrityError,
    compute_central_charge,
    _y_coordinates,
    compute_modular_data,
    detect_degenerates,
    verify_statistics_axioms,
    verlinde_check,
)

from test_cyclo import _elements
from test_fusion import _relabelled, _with_entry, quadratic_twists, strip_dims


def test_so16_modular_data():
    md = compute_modular_data(builtin_so_level1(16))
    # S = (1/2) * the 4x4 two-variable character table; Y = z S with z = 2.
    expected_S = 0.5 * np.array(
        [[1, 1, 1, 1], [1, 1, -1, -1], [1, -1, 1, -1], [1, -1, -1, 1]], dtype=float
    )
    assert np.max(np.abs(md.S_numeric - expected_S)) < 1e-12
    assert md.z.rational_value() == 2
    assert md.w.rational_value() == 4
    assert md.c == 0
    assert md.nondegenerate
    # T carries the hinted charge 8: prefactor e^{-2 pi i / 3} on diag(1,-1,1,1).
    pref = cmath.exp(-2j * cmath.pi / 3)
    assert abs(md.T_numeric[0, 0] - pref) < 1e-12
    assert abs(md.T_numeric[1, 1] + pref) < 1e-12


def test_so32_T_prefactor():
    md = compute_modular_data(builtin_so_level1(32))
    assert abs(md.T_numeric[0, 0] - cmath.exp(-4j * cmath.pi / 3)) < 1e-12


@pytest.mark.parametrize("k,expected_c", [(1, Fraction(1)), (2, Fraction(3, 2)), (16, Fraction(8, 3))])
def test_su2_central_charge(k, expected_c):
    md = compute_modular_data(builtin_su2(k))
    assert md.c is not None
    assert (md.c - expected_c) % 8 == 0


def test_central_charge_is_decided_exactly():
    md = compute_modular_data(builtin_su2(2))  # conductor 16
    assert md.c == Fraction(3, 2)
    # 1 + 2i: the phase proposes some c, and z^2 = |z|^2 e^(i pi c/2) refuses it.
    md.z = Cyclotomic(4, {0: 1, 1: 2})
    assert compute_central_charge(md) is None
    # zeta_64 gives c = 1/8, and e^(i pi c/2) = zeta_32 has order dividing 2 * 16.
    md.z = Cyclotomic.zeta(64)
    assert compute_central_charge(md) == Fraction(1, 8)
    # zeta_128 satisfies the identity with c = 1/16, but e^(i pi c/2) = zeta_64
    # is no root of unity of Q(zeta_16), so its order alone refuses it.
    md.z = Cyclotomic.zeta(128)
    assert compute_central_charge(md) is None


@pytest.mark.parametrize("k", range(1, 9))
def test_su2_statistics_axioms(k):
    md = compute_modular_data(builtin_su2(k))
    assert verify_statistics_axioms(md) == []
    assert md.nondegenerate


@pytest.mark.parametrize("n", [16, 32])
def test_so_level1_statistics_axioms(n):
    md = compute_modular_data(builtin_so_level1(n))
    assert verify_statistics_axioms(md) == []


def test_cyclic_degenerate_braiding():
    md = compute_modular_data(builtin_cyclic(2, [Fraction(0)] * 2))
    assert md.degenerates == frozenset({0, 1})
    assert not md.nondegenerate
    assert verify_statistics_axioms(md) == []
    assert verlinde_check(md) == []


def test_cyclic_nondegenerate_braiding():
    md = compute_modular_data(builtin_cyclic(4, quadratic_twists(4, 1)))
    assert md.nondegenerate
    assert verify_statistics_axioms(md) == []
    assert verlinde_check(md) == []


def _checked_labels(monkeypatch):
    """The label lists `verlinde_check` checks its identity for."""
    checked = []
    original = modular._character_failures

    def recorded(md, Y, labels):
        checked.append(list(labels))
        return original(md, Y, labels)

    monkeypatch.setattr(modular, "_character_failures", recorded)
    return checked


def _float_failures(md):
    """Reference: the (lambda, nu, mu) where Y_{lambda,mu} Y_{nu,mu} and
    Y_{0,mu} sum_rho N_{lambda,nu}^rho Y_{rho,mu} differ by more than 1e-6 in
    floats, Y embedded from md's coordinates, over every label."""
    M = md.ring.conductor
    roots = np.array(_embedded_roots(M)[: phi(M)])
    Y = np.tensordot(roots, md.Y_coords.astype(float), axes=1) / md.Y_den
    lhs = Y[:, None, :] * Y
    rhs = Y[0] * np.einsum("lvr,rm->lvm", md.ring.fusion.astype(float), Y)
    return [tuple(map(int, entry)) for entry in np.argwhere(abs(lhs - rhs) > 1e-6)]


@pytest.mark.parametrize(
    "ring, labels",
    [
        (builtin_su2(2), [0, 1, 2]),  # three labels: no generating set
        (builtin_su2(5), [0, 1]),
        (builtin_su2(16), [0, 1]),
        (_relabelled(builtin_su2(24), 1), [0, 11]),  # the spin-1/2 label moved to 11
    ],
    ids=["2", "5", "16", "24-relabelled"],
)
def test_verlinde_reconstruction(ring, labels, monkeypatch):
    # Exact on every ring; checked on a generating set alone when there is one.
    md = compute_modular_data(ring)
    checked = _checked_labels(monkeypatch)
    assert verlinde_check(md) == []
    assert checked == [labels]


@pytest.mark.parametrize(
    "twists",
    [[0] * 4, [Fraction(a * a, 4) for a in range(6)]],
    ids=["z4_zero", "z6_quarter"],
)
def test_degenerate_rings_reconstruct_their_fusion_rules(twists):
    # Each column of Y over its vacuum entry is a character of the fusion
    # rules for any braiding, so degenerate rings pass as non-degenerate do
    # (Z_2 with zero twists is test_cyclic_degenerate_braiding's ring).
    md = compute_modular_data(builtin_cyclic(len(twists), twists))
    assert not md.nondegenerate
    assert verify_statistics_axioms(md) == []
    assert verlinde_check(md) == []


def test_verlinde_reports_mismatched_fusion_entries():
    md = compute_modular_data(builtin_su2(2))
    fusion = [[list(row) for row in plane] for plane in md.ring.fusion]
    fusion[1][1][0] = 2
    fusion[2][0][2] = 5
    md.ring = make_ring(md.ring.names, fusion, md.ring.dual, md.ring.twists)
    # N_11^0 = 2 adds Y_{0,mu} to every entry (1, 1, mu); N_20^2 = 5 makes
    # (2, 0, mu) five times Y_{2,mu}, which is nonzero for each mu.
    mismatches = [(1, 1, 0), (1, 1, 1), (1, 1, 2), (2, 0, 0), (2, 0, 1), (2, 0, 2)]
    assert verlinde_check(md) == mismatches == _float_failures(md)


ALL = list(range(25))  # the labels of SU(2) 24


def _shifted_entry(md):
    md.Y_coords = md.Y_coords.copy()
    md.Y_coords[0, 1, 3] += md.Y_den
    return md


def _zero_vacuum_entry(md):
    """md with Y_{0,5} = Y_{1,5} = 0: the identity still holds for the
    generating labels 0 and 1 of SU(2), and fails for labels l with
    Y_{l,5} != 0, at (l, l, 5)."""
    md.Y_coords = md.Y_coords.copy()
    md.Y_coords[:, :2, 5] = 0
    return md


@pytest.mark.parametrize(
    "corrupt, checked",
    [
        # Y_{1,3} + 1: the identity fails for label 1, on G.
        (_shifted_entry, [[0, 1], ALL]),
        # N_{10,12}^4 = 2 changes neither N_0 nor N_1, so the identity holds
        # on G; associativity on G fails.
        (lambda md: dataclasses.replace(md, ring=_with_entry(md.ring, 10, 12, 4, 2)), [ALL]),
        (_zero_vacuum_entry, [ALL]),
    ],
    ids=["generator_fails", "associativity_outside_G", "zero_vacuum_entry"],
)
def test_every_label_is_checked_when_G_certifies_nothing(corrupt, checked, monkeypatch):
    # SU(2) 24 is checked on G = [0, 1] alone. When associativity fails on
    # G, some Y_{0,mu} is 0 or a label of G fails, every label is checked,
    # and the failures are those of the float reference over every label.
    md = corrupt(compute_modular_data(builtin_su2(24)))
    recorded = _checked_labels(monkeypatch)
    mismatches = verlinde_check(md)
    assert recorded == checked
    assert mismatches and mismatches == _float_failures(md)
    if checked == [ALL]:  # a check on G alone would have passed
        assert all(l > 1 for l, _nu, _mu in mismatches)


def test_no_generating_set_checks_every_label(monkeypatch):
    # `test_fusion`'s ring with a_l a_l = 1 and a_l a_m = 0 otherwise has no
    # generating set within half its labels; Y is built from its fusion
    # rules with dims 1. Label 0 alone would pass.
    n = 25
    N = np.zeros((n, n, n), dtype=np.int64)
    for l in range(n):
        N[0, l, l] = N[l, 0, l] = N[l, l, 0] = 1
    assert fusion._generating_labels(N) is None
    ones = [Cyclotomic.from_rational(1)] * n
    ring = make_ring([str(l) for l in range(n)], N.tolist(), list(range(n)), [0] * n, ones)
    md = dataclasses.replace(compute_modular_data(builtin_cyclic(n, [0] * n)), ring=ring)
    md.Y_coords, md.Y_den = _y_coordinates(ring)
    checked = _checked_labels(monkeypatch)
    mismatches = verlinde_check(md)
    assert checked == [list(range(n))]
    assert mismatches == _float_failures(md)
    assert {l for l, _nu, _mu in mismatches} == set(range(1, n))


def test_corrupted_Y_violates_dichotomy():
    md = compute_modular_data(builtin_su2(2))
    md.Y[0][1] = md.Y[0][1] + Cyclotomic.from_rational(1)
    md.Y_coords, md.Y_den = coordinates(md.Y, md.ring.conductor)  # the checks read these
    with pytest.raises(DataIntegrityError):
        detect_degenerates(md)


@pytest.mark.parametrize(
    "ring",
    [builtin_su2(10), builtin_cyclic(6, [Fraction(a * a, 4) for a in range(6)])],
    ids=["su2_10", "z6_a2over4"],
)
def test_Y_coordinates_over_their_denominator_give_Y(ring):
    md = compute_modular_data(ring)
    assert md.Y_den > 0
    assert _elements(md.Y_coords, md.Y_den, ring.conductor) == md.Y


Y_RINGS = (
    [builtin_su2(k) for k in range(33)]
    + [builtin_so_level1(16), builtin_so_level1(32)]
    + [builtin_cyclic(n, [Fraction(0)] * n) for n in range(1, 9)]
    + [builtin_cyclic(n, quadratic_twists(n, 1)) for n in range(1, 17)]
)


@pytest.mark.parametrize("ring", Y_RINGS, ids=lambda ring: ring.name)
def test_Y_contraction_equals_coordinates_of_the_scalar_Y(ring):
    md = compute_modular_data(ring)
    X, D = coordinates(md.Y, ring.conductor)
    assert (md.Y_den, md.Y_coords.dtype, md.Y_coords.shape) == (D, X.dtype, X.shape)
    assert (md.Y_coords == X).all()


def _reference_Y(ring):
    n, d = ring.size, ring.dims
    omega = [root_of_unity(h) for h in ring.twists]
    return [
        [
            omega[l] * omega[m]
            * csum(omega[r].conjugate() * d[r] * int(ring.fusion[l, m, r]) for r in range(n))
            for m in range(n)
        ]
        for l in range(n)
    ]


@pytest.mark.parametrize(
    "ring",
    [
        # dims 1, 1/2 and 1/3: Y's denominator is 6.
        make_ring(
            ["0", "1", "2"],
            [[[int((l + m) % 3 == r) for r in range(3)] for m in range(3)] for l in range(3)],
            [0, 2, 1],
            quadratic_twists(3, 1),
            [Cyclotomic.from_rational(Fraction(1, k)) for k in (1, 2, 3)],
        ),
        # dims 1/2 with every fusion multiplicity 2: Y is integral, so the
        # common factor 2 of the coordinates and their denominator goes.
        make_ring(
            ["0", "1"],
            [[[2 * ((l + m) % 2 == r) for r in range(2)] for m in range(2)] for l in range(2)],
            [0, 1],
            [0, Fraction(1, 4)],
            [Cyclotomic(4, {0: Fraction(1, 2)})] * 2,
        ),
        # an irrational dim over 2: sqrt(2)/2 at conductor 16.
        make_ring(
            ["0", "1", "2"],
            builtin_su2(2).fusion,
            [0, 1, 2],
            builtin_su2(2).twists,
            [d / 2 for d in builtin_su2(2).dims],
        ),
    ],
    ids=["z3_thirds", "z2_doubled", "su2_2_halved"],
)
def test_Y_contraction_with_dims_over_a_denominator(ring):
    X, D = _y_coordinates(ring)
    expected, expected_D = coordinates(_reference_Y(ring), ring.conductor)
    assert (D, X.dtype, X.shape) == (expected_D, expected.dtype, expected.shape)
    assert (X == expected).all()


@pytest.mark.parametrize(
    "ring", [builtin_su2(12), builtin_cyclic(12, quadratic_twists(12, 1))], ids=["su2_12", "z12"]
)
@pytest.mark.parametrize("rows", [1, 3, 5])
def test_Y_contraction_in_row_blocks(monkeypatch, ring, rows):
    # A cap of rows * n * M entries (+1 at one row) takes `rows` rows l per
    # block: 13 = 4 * 3 + 1 = 2 * 5 + 3 and 12 = 2 * 5 + 2 leave a short
    # last block.
    n, M = ring.size, ring.conductor
    whole = _y_coordinates(ring)
    monkeypatch.setattr(modular, "Y_BLOCK_ENTRIES", rows * n * M + (rows == 1))
    shifts = []  # one call for t, then one per block
    monkeypatch.setattr(modular, "times_roots", lambda X, k, m: shifts.append(k) or times_roots(X, k, m))
    X, D = _y_coordinates(ring)
    assert [len(k) for k in shifts[1:]] == [n * min(rows, n - l) for l in range(0, n, rows)]
    expected, expected_D = coordinates(_reference_Y(ring), M)
    assert (D, X.dtype, X.shape) == (expected_D, expected.dtype, expected.shape)
    assert (X == expected).all()
    assert D == whole[1] and X.dtype == whole[0].dtype and (X == whole[0]).all()


def test_Y_contraction_above_one_block_at_the_default_cap():
    # n^2 M = 65^2 * 264 is above the cap: two blocks, of 61 and 4 rows l.
    ring = builtin_su2(64)
    n, M = ring.size, ring.conductor
    assert n * n * M > modular.Y_BLOCK_ENTRIES >= n * M
    md = compute_modular_data(ring)
    X, D = coordinates(md.Y, M)
    assert (md.Y_den, md.Y_coords.dtype, md.Y_coords.shape) == (D, X.dtype, X.shape)
    assert (md.Y_coords == X).all()


def test_check_builds_no_scalar_Y():
    # verlinde_check reads Y's coordinates; only a report that prints S (or
    # Yext) builds the scalar Y.
    md = compute_modular_data(builtin_su2(5))
    assert verify_statistics_axioms(md) == [] and verlinde_check(md) == []
    assert "Y" not in vars(md) and "S_numeric" not in vars(md)
    assert md.S_numeric is not None and "Y" in vars(md)


def _recorded_prime_counts(monkeypatch):
    """The prime counts of the comparisons (`cyclo._prime_count`), in order."""
    counts = []
    original = cyclo._prime_count

    def recorded(m, bound):
        counts.append(original(m, bound))
        return counts[-1]

    monkeypatch.setattr(cyclo, "_prime_count", recorded)
    return counts


@pytest.mark.parametrize("k, primes", [(20, 1), (24, 1), (64, 2)])
def test_omega_and_s_squared_identities_take_the_fewest_primes(k, primes, monkeypatch):
    # The axioms compare, in order, Y's dual entries, its vacuum column,
    # (Omega Y Omega) Y with z Y conj(Omega) and Y Y with (z conj(z)) C.
    # Their bounds keep the last two to one prime at SU(2) 20 and 24, where
    # Omega Y Omega Y Omega = z Y and Y Y = z conj(z) C took two.
    md = compute_modular_data(builtin_su2(k))
    counts = _recorded_prime_counts(monkeypatch)
    assert verify_statistics_axioms(md) == []
    assert counts == [1, 1, primes, primes]


def _recorded_evaluations(monkeypatch, *modules):
    """The (coordinate array, prime index) of every evaluation at a prime
    of an array that one of `modules` passes to `evaluate`, in order."""
    evaluated = []

    def recorder(original):
        def recorded(X, D, m, keep=False):
            x = original(X, D, m, keep)
            at = x._at

            def logged(i):
                evaluated.append((X, i))
                return at(i)

            x._at = logged
            return x

        return recorded

    for module in modules:
        monkeypatch.setattr(module, "evaluate", recorder(module.evaluate))
    return evaluated


def test_checks_evaluate_Y_once_per_prime(monkeypatch):
    # The statistics axioms and the fusion reconstruction read one
    # evaluation of Y; at SU(2) 64 the Omega and S^2 comparisons take two
    # primes, and each is evaluated once. The dichotomy evaluates Y on its
    # own, once per prime too, and compute_modular_data returns md without
    # its values.
    evaluated = _recorded_evaluations(monkeypatch, modular)
    md = compute_modular_data(builtin_su2(64))
    assert [i for X, i in evaluated if X is md.Y_coords] == [0, 1]
    assert "_Y_values" not in vars(md)
    del evaluated[:]
    assert verify_statistics_axioms(md) == [] and verlinde_check(md) == []
    assert [i for X, i in evaluated if X is md.Y_coords] == [0, 1]


def test_Y_coordinates_are_read_only_and_a_replacement_is_read():
    md = compute_modular_data(builtin_su2(20))
    assert verify_statistics_axioms(md) == []
    with pytest.raises(ValueError):
        md.Y_coords[0, 1, 3] += md.Y_den
    # A replaced array, or denominator, is evaluated again, and frozen.
    assert verify_statistics_axioms(_shifted_entry(md)) == _shifted_entry_lines(20)
    assert not md.Y_coords.flags.writeable
    md.Y_den *= 2
    assert "Y[0,0] != d[0]" in verify_statistics_axioms(md)


S_SQUARED_LINE = "S^2 != charge conjugation (Y Y != z conj(z) C)"


def _shifted_entry_lines(k):
    """The lines of `verify_statistics_axioms` on SU(2) k with
    `_shifted_entry`, as the comparisons in their earlier forms,
    Omega Y Omega Y Omega = z Y and Y Y = z conj(z) C, gave them at k = 20
    and 24 (Y_{1,k/2} = 0 keeps (1, k/2) off the Omega lines)."""
    omega = [(0, 3)] + [(1, m) for m in range(1, k + 1) if m != k // 2] + [(2, 3), (3, 3)]
    return (
        ["Y not symmetric at (1,3)"]
        + [f"OmegaYOmegaYOmega != zY at ({l},{m})" for l, m in omega]
        + [S_SQUARED_LINE]
    )


@pytest.mark.parametrize("k, shifted, lines", [(20, 24, 222), (24, 28, 314)])
def test_perturbed_Y_and_z_give_the_lines_of_the_earlier_forms(k, shifted, lines):
    # The line counts are those the earlier forms of the two identities gave.
    # Each entry (l, m) of z Y with Y_{l,m} != 0 changes with z, so z + 1
    # fails the Omega identity there, and S^2 = C; z zeta_M keeps |z|, and
    # S^2 = C holds.
    md = compute_modular_data(builtin_su2(k))
    n, M = md.size, md.ring.conductor
    assert verify_statistics_axioms(_shifted_entry(dataclasses.replace(md))) == (
        _shifted_entry_lines(k)
    )
    assert len(_shifted_entry_lines(k)) == shifted
    omega = [
        f"OmegaYOmegaYOmega != zY at ({l},{m})"
        for l in range(n)
        for m in range(l, n)
        if not md.Y[l][m].is_zero()
    ]
    plus_one = dataclasses.replace(md, z=md.z + 1)
    rotated = dataclasses.replace(md, z=md.z * Cyclotomic.zeta(M))
    assert verify_statistics_axioms(plus_one) == omega + [S_SQUARED_LINE]
    assert verify_statistics_axioms(rotated) == omega
    assert len(omega) + 1 == lines


def test_corrupted_twist_fails_axioms():
    ring = builtin_so_level1(16)
    bad = make_ring(
        ring.names,
        ring.fusion,
        ring.dual,
        [Fraction(0), Fraction(1, 3), Fraction(1), Fraction(1)],
        ring.dims,
    )
    try:
        md = compute_modular_data(bad)
        assert verify_statistics_axioms(md) != []
    except DataIntegrityError:
        pass  # the dichotomy check may trip first; either failure is correct


@pytest.mark.parametrize("ring", [builtin_su2(3), builtin_so_level1(16)], ids=lambda r: r.name)
def test_s_squared_is_checked_without_numeric_t(ring):
    # The exact S^2 = C check reads no float display array: without T (no
    # central charge found) and with z doubled, Y Y != z conj(z) C is reported.
    md = compute_modular_data(ring)
    md = dataclasses.replace(md, z=md.z + md.z, T_numeric=None)
    report = verify_statistics_axioms(md)
    assert "S^2 != charge conjugation (Y Y != z conj(z) C)" in report
    assert report == _scalar_verify_statistics_axioms(md)


def test_numeric_only_path():
    # A ring without dims takes the exact path: its dims are reconstructed
    # and every exact quantity equals the one from the builtin dims.
    ring = builtin_su2(3)
    md = compute_modular_data(strip_dims(ring))
    exact_md = compute_modular_data(ring)
    assert md.ring == ring
    assert (md.Y, md.omega, md.z, md.w, md.c) == (
        exact_md.Y,
        exact_md.omega,
        exact_md.z,
        exact_md.w,
        exact_md.c,
    )
    assert md.nondegenerate and verify_statistics_axioms(md) == []


def test_gauss_sum_magnitude_is_sqrt_w():
    # |z|^2 = w for a nondegenerate braiding.
    for ring in [builtin_su2(4), builtin_so_level1(16)]:
        md = compute_modular_data(ring)
        z, w = md.z.embed(), md.w.embed().real
        assert abs(abs(z) ** 2 - w) < 1e-9


# -- scalar references --------------------------------------------------------
#
# The checks as entry-by-entry Cyclotomic loops, which the coordinate-tensor
# checks must reproduce message for message on corrupted data.


def _scalar_Y(md):
    """Y as scalar elements, decoded from md's coordinates."""
    return _elements(md.Y_coords, md.Y_den, md.ring.conductor)


def _scalar_detect_degenerates(md):
    n = md.size
    d = md.ring.dims
    Y = _scalar_Y(md)
    out = set()
    for l in range(n):
        s = csum(Y[l][m] * d[m] for m in range(n))
        if s == md.w * d[l]:
            out.add(l)
        elif not s.is_zero():
            raise DataIntegrityError(
                f"degeneracy dichotomy violated at label {l}: "
                f"sum_m Y[l,m] d_m is neither w*d_l nor 0"
            )
    return frozenset(out)


@pytest.mark.parametrize(
    "ring",
    [builtin_su2(k) for k in range(17)]
    + [builtin_so_level1(16), builtin_so_level1(32)]
    + [builtin_cyclic(n, quadratic_twists(n, 1)) for n in range(2, 13)],
    ids=lambda ring: ring.name,
)
def test_tstst_equals_s(ring):
    # Not checked by verify_statistics_axioms: it follows from the exact
    # Omega Y Omega Y Omega = z Y and the exact central charge.
    md = compute_modular_data(ring)
    assert md.nondegenerate and verify_statistics_axioms(md) == []
    S, T = md.S_numeric, md.T_numeric
    assert np.max(np.abs(T @ S @ T @ S @ T - S)) < 1e-9


def _scalar_verify_statistics_axioms(md):
    n = md.size
    ring = md.ring
    Y, omega = _scalar_Y(md), md.omega
    report = []
    for l in range(n):
        for m in range(l, n):
            if Y[l][m] != Y[m][l]:
                report.append(f"Y not symmetric at ({l},{m})")
    for l in range(n):
        for m in range(n):
            if Y[ring.dual[l]][m] != Y[l][m].conjugate():
                report.append(f"Y[dual({l}),{m}] != conj(Y[{l},{m}])")
    for l in range(n):
        if Y[l][0] != ring.dims[l]:
            report.append(f"Y[{l},0] != d[{l}]")
    A = [[omega[r] * Y[r][m] for m in range(n)] for r in range(n)]
    for l in range(n):
        for m in range(l, n):
            b = csum(Y[l][r] * A[r][m] for r in range(n))
            if omega[l] * omega[m] * b != md.z * Y[l][m]:
                report.append(f"OmegaYOmegaYOmega != zY at ({l},{m})")
    if md.nondegenerate:
        # S^2 = C, decided exactly as Y Y = z conj(z) C.
        zz = md.z * md.z.conjugate()
        if any(
            csum(Y[l][r] * Y[r][m] for r in range(n)) != (zz if m == ring.dual[l] else 0)
            for l in range(n)
            for m in range(n)
        ):
            report.append("S^2 != charge conjugation (Y Y != z conj(z) C)")
    return report


STATISTICS_RINGS = (
    [builtin_su2(k) for k in range(6)]
    + [builtin_so_level1(16)]
    + [builtin_cyclic(n, quadratic_twists(n, 1)) for n in (3, 4, 5)]
    + [builtin_cyclic(n, [0] * n) for n in (2, 3)]
)


@cache
def _clean_modular_data(i):
    return compute_modular_data(STATISTICS_RINGS[i])


@st.composite
def corrupted_modular_data(draw):
    """Modular data of a STATISTICS_RINGS entry with one or two of its Y
    entries, twists or dims changed; Omega follows the twists, and a
    changed Y enters through its coordinates, which the checks read and the
    scalar references decode (`_scalar_Y`)."""
    clean = _clean_modular_data(draw(st.integers(0, len(STATISTICS_RINGS) - 1)))
    md = dataclasses.replace(clean)
    Y = [list(row) for row in clean.Y]
    ring = md.ring
    n, M = ring.size, ring.conductor
    index = st.integers(0, n - 1)
    delta = st.sampled_from([1, -1, Fraction(1, 2)]).map(Cyclotomic.from_rational) | st.integers(
        0, M - 1
    ).map(lambda e: Cyclotomic.zeta(M, e))
    twists, dims = list(ring.twists), list(ring.dims)
    for field in draw(st.lists(st.sampled_from(["Y", "twist", "dim"]), min_size=1, max_size=2)):
        if field == "Y":
            l, m = draw(index), draw(index)
            Y[l][m] = Y[l][m] + draw(delta)
        elif field == "twist":
            twists[draw(index)] = draw(st.fractions(0, 1, max_denominator=12))
        else:
            l = draw(index)
            dims[l] = dims[l] + draw(delta)
    md.ring = make_ring(ring.names, ring.fusion, ring.dual, twists, dims, ring.name)
    md.omega = [root_of_unity(h) for h in md.ring.twists]
    md.Y_coords, md.Y_den = coordinates(Y, md.ring.conductor)
    return md


def _outcome(check, md):
    try:
        return check(md)
    except DataIntegrityError as exc:
        return str(exc)


@given(corrupted_modular_data())
@settings(max_examples=150, deadline=None)
def test_statistics_checks_match_scalar_reference(md):
    assert verify_statistics_axioms(md) == _scalar_verify_statistics_axioms(md)
    assert _outcome(detect_degenerates, md) == _outcome(_scalar_detect_degenerates, md)
