"""Fusion-ring data model: axiom validation, builtins, exact dims
reconstructed for rings given without them."""

import itertools
import random
from dataclasses import replace
from fractions import Fraction
from math import lcm

import mpmath
import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from modinv import fusion
from modinv.cyclo import ONE, Cyclotomic, _is_prime, csum
from modinv.fusion import (
    DimsReconstructionError,
    _pf_vector,
    builtin_cyclic,
    builtin_so_level1,
    builtin_su2,
    make_ring,
    reconstruct_dims,
    validate,
)
from modinv.modular import compute_modular_data, verlinde_check
from modinv.ringfile import dump_ring, ring_from_json, ring_to_json


@pytest.mark.parametrize("k", range(0, 9))
def test_su2_passes_validation(k):
    assert validate(builtin_su2(k)) == []


@pytest.mark.parametrize("n", [16, 32])
def test_so_level1_passes_validation(n):
    ring = builtin_so_level1(n)
    assert validate(ring) == []
    assert ring.size == 4
    assert ring.twists[1] == Fraction(1, 2)


def test_so_level1_rejects_bad_n():
    with pytest.raises(ValueError):
        builtin_so_level1(8)


def quadratic_twists(n: int, q: int) -> list[Fraction]:
    """h_a = q a^2 / (2n) for even n, q a^2 / n for odd n; both satisfy
    h_a = h_{-a} mod 1."""
    den = 2 * n if n % 2 == 0 else n
    return [Fraction(q * a * a, den) % 1 for a in range(n)]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 6])
def test_cyclic_passes_validation(n):
    assert validate(builtin_cyclic(n, quadratic_twists(n, 1))) == []


def test_cyclic_rejects_asymmetric_twists():
    with pytest.raises(ValueError):
        builtin_cyclic(3, [Fraction(0), Fraction(1, 3), Fraction(2, 3)])


def test_su2_dims_match_sine_values():
    import math

    k = 5
    ring = builtin_su2(k)
    s = math.sin(math.pi / (k + 2))
    for l in range(k + 1):
        expected = math.sin((l + 1) * math.pi / (k + 2)) / s
        assert abs(ring.dims[l].embed().real - expected) < 1e-12


def strip_dims(ring, name=None):
    """The ring as a file with "dims": "auto" gives it."""
    return make_ring(
        ring.names,
        ring.fusion,
        ring.dual,
        ring.twists,
        dims=None,
        name=ring.name if name is None else name,
        central_charge_hint=ring.central_charge_hint,
    )


@pytest.mark.parametrize("k", [1, 3, 6])
def test_pf_dims_agree_with_exact(k):
    # The refined Perron-Frobenius vector carries the working precision:
    # d_l = sin((l+1) pi/(k+2)) / sin(pi/(k+2)) to 60 digits.
    ring = builtin_su2(k)
    with mpmath.workdps(60):
        x = _pf_vector(ring)
        s = mpmath.sin(mpmath.pi / (k + 2))
        for l in range(k + 1):
            d = mpmath.sin((l + 1) * mpmath.pi / (k + 2)) / s
            assert abs(x[l] - d) < mpmath.mpf(10) ** -55


def test_dims_numeric_uses_pf_without_exact_dims():
    # The reconstructed ring is the builtin one, dims at the same conductor.
    ring = builtin_su2(4)
    assert reconstruct_dims(strip_dims(ring, name="stripped")) == replace(ring, name="stripped")


LADDER = (
    [(f"su2_{k}", builtin_su2(k)) for k in range(17)]
    + [(f"so{n}", builtin_so_level1(n)) for n in (16, 32)]
    + [
        (f"z{n}_{kind}", builtin_cyclic(n, quadratic_twists(n, q)))
        for n in range(1, 9)
        for q, kind in ((0, "zero"), (1, "quadratic"))
    ]
)


@pytest.mark.parametrize("ring", [r for _, r in LADDER], ids=[i for i, _ in LADDER])
def test_reconstructed_dims_equal_builtin(ring):
    assert reconstruct_dims(strip_dims(ring)).dims == ring.dims


FIBONACCI_FUSION = [[[1, 0], [0, 1]], [[0, 1], [1, 1]]]


def test_reconstruction_rejects_dims_outside_the_field():
    # The golden ratio is not rational, so zero twists (M = 1) cannot hold it.
    fib = make_ring(["1", "tau"], FIBONACCI_FUSION, [0, 1], [0, 0])
    with pytest.raises(DimsReconstructionError, match=r"d\[1\] not found in Q\(zeta_1\)"):
        reconstruct_dims(fib)
    # With twist 2/5 it lies in Q(zeta_5): d = 1 - zeta^2 - zeta^3.
    fib = make_ring(["1", "tau"], FIBONACCI_FUSION, [0, 1], [0, Fraction(2, 5)])
    d = reconstruct_dims(fib).dims[1]
    assert d * d == d + 1 and d.embed().real > 1


def test_reconstruction_degree_cap():
    # Q(zeta_111) has a real subfield of degree 36: an irrational dim is not
    # searched there, while a rational one is found first.
    su2 = builtin_su2(4)
    twists = [Fraction(l % 2, 111) for l in range(5)]
    bad = make_ring(su2.names, su2.fusion, su2.dual, twists)
    with pytest.raises(DimsReconstructionError, match=r"d\[1\] is not rational .* degree 36"):
        reconstruct_dims(bad)
    z2 = make_ring(["0", "1"], [[[1, 0], [0, 1]], [[0, 1], [1, 0]]], [0, 1], [0, Fraction(1, 111)])
    assert reconstruct_dims(z2).dims == (ONE, ONE)


def test_validation_catches_broken_unit():
    ring = builtin_cyclic(2, [Fraction(0), Fraction(0)])
    fusion = [[list(row) for row in plane] for plane in ring.fusion]
    fusion[0][1][1] = 0
    broken = make_ring(ring.names, fusion, ring.dual, ring.twists, ring.dims)
    assert any("unit" in msg for msg in validate(broken))


def test_validation_catches_twist_of_unit():
    ring = builtin_cyclic(3, [Fraction(0), Fraction(1, 3), Fraction(1, 3)])
    bad = make_ring(
        ring.names,
        ring.fusion,
        ring.dual,
        [Fraction(1, 2), Fraction(1, 3), Fraction(1, 3)],
        ring.dims,
    )
    assert any("unit" in msg for msg in validate(bad))


def test_validation_catches_wrong_dims():
    ring = builtin_su2(2)
    bad_dims = list(ring.dims)
    bad_dims[1] = ONE  # true value is sqrt(2)
    bad = make_ring(ring.names, ring.fusion, ring.dual, ring.twists, bad_dims)
    assert any("d[1]*d[1]" in msg or "sum N*d" in msg for msg in validate(bad))


def test_conductor_is_lcm_of_twist_and_dim_conductors():
    ring = builtin_su2(2)  # twists have denominator 16, dims live in Q(zeta_16)
    assert ring.conductor == 16
    assert all(d.conductor == 16 for d in ring.dims)


def _conductor_of_fields(ring):
    """The global conductor recomputed from the twists and dims."""
    dims = ring.dims or ()
    return lcm(1, *(h.denominator for h in ring.twists), *(d.conductor for d in dims))


def test_conductor_is_stored_by_every_constructor():
    # make_ring, ring_from_json, replace and reconstruct_dims each build the
    # ring through __post_init__, which stores the conductor of its fields.
    made = builtin_su2(5)
    stripped = strip_dims(made)
    built = [made, ring_from_json(ring_to_json(made)), replace(made), replace(made, name="x"),
             stripped, reconstruct_dims(stripped), builtin_cyclic(6, quadratic_twists(6, 1))]
    for ring in built:
        assert "conductor" in vars(ring)
        assert ring.conductor == _conductor_of_fields(ring)
    assert made.conductor == stripped.conductor == 28
    assert made == built[1] == built[2] == built[5]


def test_replaced_twists_give_the_new_conductor():
    ring = builtin_su2(2)  # conductor 16
    thirds = replace(ring, twists=(Fraction(0), Fraction(1, 3), Fraction(1, 3)))
    assert thirds.conductor == 48 == _conductor_of_fields(thirds)
    assert replace(thirds, twists=ring.twists) == ring
    with pytest.raises(ValueError):
        replace(ring, conductor=5)


def test_twists_normalized_mod_one():
    ring = builtin_so_level1(32)  # raw spinor twist 2 reduces to 0
    assert ring.twists[2] == 0


@given(st.integers(min_value=1, max_value=6), st.integers(min_value=0, max_value=11))
@settings(max_examples=30, deadline=None)
def test_quadratic_twists_always_validate(n, q):
    assert validate(builtin_cyclic(n, quadratic_twists(n, q))) == []


def _loop_validate(ring):
    """Reference: the ring-axiom checks as plain loops over the fusion
    tensor's entries as Python ints."""
    n = ring.size
    N = ring.fusion.tolist()
    report = []
    if len(ring.dual) != n or sorted(ring.dual) != list(range(n)):
        report.append("dual is not a permutation of the labels")
        return report
    if len(ring.twists) != n:
        report.append(f"expected {n} twists, got {len(ring.twists)}")
        return report
    for l in range(n):
        for m in range(n):
            if N[0][l][m] != (1 if l == m else 0):
                report.append(f"unit row: N[0,{l}]^{m} != delta")
            if N[l][0][m] != (1 if l == m else 0):
                report.append(f"unit column: N[{l},0]^{m} != delta")
    if any(ring.dual[ring.dual[l]] != l for l in range(n)):
        report.append("dual is not involutive")
    if ring.dual[0] != 0:
        report.append("dual(0) != 0")
    for l in range(n):
        for m in range(n):
            if N[l][m][0] != (1 if m == ring.dual[l] else 0):
                report.append(f"duality: N[{l},{m}]^0 != delta(m, dual({l}))")
    for l in range(n):
        for m in range(n):
            for nu in range(n):
                for s in range(n):
                    lhs = sum(N[l][m][r] * N[r][nu][s] for r in range(n))
                    rhs = sum(N[m][nu][r] * N[l][r][s] for r in range(n))
                    if lhs != rhs:
                        report.append(f"associativity fails at ({l},{m},{nu},{s})")
    lbar = ring.dual
    for l in range(n):
        for m in range(n):
            for nu in range(n):
                mult = N[l][m][nu]
                if mult != N[lbar[l]][nu][m] or mult != N[nu][lbar[m]][l]:
                    report.append(f"Frobenius symmetry fails at ({l},{m},{nu})")
    if ring.twists[0] != 0:
        report.append("twist of the unit is not 0")
    for l in range(n):
        if ring.twists[l] != ring.twists[lbar[l]]:
            report.append(f"twist symmetry: h[{l}] != h[dual({l})]")
    if ring.dims is not None:
        d = ring.dims
        if d[0] != ONE:
            report.append("d[0] != 1")
        for l in range(n):
            if d[l] != d[lbar[l]]:
                report.append(f"dims: d[{l}] != d[dual({l})]")
            if not d[l].is_real():
                report.append(f"dims: d[{l}] is not real")
            if d[l].embed().real < 1 - 1e-9:
                report.append(f"dims: d[{l}] < 1 numerically")
        for l in range(n):
            for m in range(n):
                prod = d[l] * d[m]
                s = csum(d[nu] * N[l][m][nu] for nu in range(n) if N[l][m][nu])
                if prod != s:
                    report.append(f"dims: d[{l}]*d[{m}] != sum N*d")
    return report


def _with_entry(ring, l, m, nu, value, dims=None):
    fusion = [[list(row) for row in plane] for plane in ring.fusion]
    fusion[l][m][nu] = value
    return make_ring(ring.names, fusion, ring.dual, ring.twists, dims)


def test_validation_catches_broken_associativity():
    # psi x psi = 1 + psi in SU(2) level 2 keeps every unit, duality and
    # Frobenius relation, so associativity alone fails.
    bad = _with_entry(builtin_su2(2), 2, 2, 2, 1)
    assert validate(bad) == [
        "associativity fails at (1,1,2,2)",
        "associativity fails at (1,2,2,1)",
        "associativity fails at (2,1,1,2)",
        "associativity fails at (2,2,1,1)",
    ]


def test_generating_prime_keeps_the_certificate_in_int64():
    p = fusion.GENERATOR_PRIME
    assert _is_prime(p) and not any(_is_prime(q) for q in range(p + 2, 2**25, 2))
    assert (2**13 - 1) * p**2 < 2**63


def _recorded_labels(monkeypatch):
    """The label lists `validate` passes to `_associativity_failures`."""
    checked = []
    original = fusion._associativity_failures

    def recorded(F, labels):
        checked.append(list(labels))
        return original(F, labels)

    monkeypatch.setattr(fusion, "_associativity_failures", recorded)
    return checked


@pytest.mark.parametrize("k", [12, 20, 24, 40])
def test_su2_checks_associativity_for_a_generating_set_only(k, monkeypatch):
    # The spin-1/2 label generates SU(2): the product pair runs for labels
    # 0 and 1 only, on small rings as on large ones.
    checked = _recorded_labels(monkeypatch)
    assert validate(builtin_su2(k)) == []
    assert checked == [[0, 1]]


@pytest.mark.parametrize("k", [20, 24])
def test_validate_and_the_fusion_reconstruction_share_one_generating_set(k, monkeypatch):
    # `modinv check` runs validate and verlinde_check on one ring: G is
    # searched for, and associativity checked on it, once. The G cached on
    # the ring does not enter ring equality.
    searched = []
    original = fusion._generating_labels
    monkeypatch.setattr(fusion, "_generating_labels", lambda N: searched.append(N) or original(N))
    checked = _recorded_labels(monkeypatch)
    ring = builtin_su2(k)
    assert validate(ring) == []
    assert verlinde_check(compute_modular_data(ring)) == []
    assert len(searched) == 1 and checked == [[0, 1]]
    assert "associative_generators" in vars(ring)
    assert ring == builtin_su2(k) and builtin_su2(k) == ring


def _every_label_report(ring, monkeypatch):
    """The report of `validate` with every label checked, as when no
    generating set is found: on a fresh copy of the ring, since the set
    found is cached on the ring object."""
    with monkeypatch.context() as m:
        m.setattr(fusion, "_generating_labels", lambda N: None)
        return validate(replace(ring))


def _relabelled(ring, seed):
    """The ring with its labels other than 0 in a random order."""
    rest = list(range(1, ring.size))
    random.Random(seed).shuffle(rest)
    perm = [0] + rest  # label perm[j] moves to position j
    inv = np.argsort(perm)
    N = ring.fusion[np.ix_(perm, perm, perm)]
    dual = [int(inv[ring.dual[p]]) for p in perm]
    dims = [ring.dims[p] for p in perm] if ring.dims is not None else None
    return make_ring([ring.names[p] for p in perm], N.tolist(), dual,
                     [ring.twists[p] for p in perm], dims)


def _xor_ring(bits):
    """The group ring of (Z_2)^bits: each label generates a subring of two."""
    n = 2**bits
    fusion_rules = [[[int(l ^ m == r) for r in range(n)] for m in range(n)] for l in range(n)]
    return make_ring([str(l) for l in range(n)], fusion_rules, list(range(n)), [0] * n)


def _a4_times_cyclic(m):
    """Rep(A_4) x Z_m: the 3-dimensional irrep X of A_4 spans only
    1, X and 1 + w + w^2 with its powers, so no label generates alone."""
    A = np.zeros((4, 4, 4), dtype=np.int64)  # labels 1, w, w^2, X
    for a in range(3):
        for b in range(3):
            A[a, b, (a + b) % 3] = 1
        A[a, 3, 3] = A[3, a, 3] = 1
    A[3, 3] = [1, 1, 1, 2]
    C = np.asarray(builtin_cyclic(m, [0] * m).fusion)
    n = 4 * m
    N = np.einsum("ijk,lmn->iljmkn", A, C).reshape(n, n, n)
    dual = [[0, 2, 1, 3][a] * m + (-c) % m for a in range(4) for c in range(m)]
    return make_ring([str(l) for l in range(n)], N.tolist(), dual, [0] * n)


@pytest.mark.parametrize(
    "ring, most",
    [
        (builtin_su2(24), 2),  # spin 1/2, or spin 23/2 = J x spin 1/2: both generate
        (builtin_su2(25), 3),  # spin 23/2 spans the integer spins only
        (builtin_su2(40), 2),
        (builtin_cyclic(28, [Fraction(a * a, 56) for a in range(28)]), 4),
        (_a4_times_cyclic(8), 6),
    ],
    ids=["su2_24", "su2_25", "su2_40", "z28", "a4_z8"],
)
def test_generating_sets_stay_small_under_relabelling(ring, most, monkeypatch):
    # The first candidates are chosen by their fusion matrices, and the span
    # grows without restarting, so a relabelling does not lengthen G much.
    for seed in range(8):
        relabelled = _relabelled(ring, seed)
        labels = fusion._generating_labels(relabelled.fusion)
        assert labels is not None and labels[0] == 0
        assert len(labels) <= most
        checked = _recorded_labels(monkeypatch)
        assert validate(relabelled) == []
        assert checked == [labels]
        monkeypatch.undo()


@pytest.mark.parametrize(
    "ring, entry",
    [
        (builtin_su2(12), (1, 1, 2)),  # a generator's own products
        (builtin_su2(12), (5, 7, 4)),  # labels outside the generating set
        (builtin_su2(24), (1, 1, 2)),
        (builtin_su2(24), (10, 12, 4)),  # labels outside the generating set
        (builtin_su2(24), (13, 13, 0)),  # with a duality failure too
        (_relabelled(builtin_su2(25), 3), (5, 7, 9)),
        (_xor_ring(5), (7, 9, 14)),
        (_a4_times_cyclic(8), (9, 9, 9)),
    ],
    ids=["su2_12_generator", "su2_12_outside", "su2_24_generator", "su2_24_outside",
         "su2_24_duality", "su2_25_relabelled", "z2_5", "a4_z8"],
)
def test_broken_associativity_reports_what_every_label_reports(ring, entry, monkeypatch):
    # A failure at any label fails a generator or the certificate (the
    # lemma of _generating_labels), and then every label is checked: the
    # report is that of the loop over all labels.
    l, m, nu = entry
    bad = _with_entry(ring, l, m, nu, int(ring.fusion[l, m, nu]) + 1)
    report = validate(bad)
    assert any(msg.startswith("associativity fails") for msg in report)
    assert _every_label_report(bad, monkeypatch) == report


def _su2_times_nonassociative(k):
    """SU(2)_k x B for a ring B on labels 1, x, y that keeps every unit,
    duality and Frobenius relation but is not associative: x x = 1 + 2x + y,
    x y = x + y, y y = 1 + x + 2y (a self-dual B needs only a totally
    symmetric N), while (x x) y and x (x y) differ at y."""
    T = np.zeros((3, 3, 3), dtype=np.int64)
    for a in range(3):
        T[0, a, a] = T[a, 0, a] = T[a, a, 0] = 1
    for entry, value in {(1, 1, 1): 2, (1, 1, 2): 1, (1, 2, 2): 1, (2, 2, 2): 2}.items():
        for l, m, nu in set(itertools.permutations(entry)):
            T[l, m, nu] = value
    A = builtin_su2(k)
    n = 3 * A.size
    N = np.einsum("ijk,lmn->iljmkn", np.asarray(A.fusion), T).reshape(n, n, n)
    dual = [3 * A.dual[a] + b for a in range(A.size) for b in range(3)]
    return make_ring([str(l) for l in range(n)], N.tolist(), dual, [0] * n)


def test_associativity_fault_outside_the_first_generators_span(monkeypatch):
    # The spin-1/2 label of SU(2)_8 x B, label 3, is the first candidate
    # (its total multiplicity is 48, every label off SU(2)_8 x {1} has at
    # least 63). Its products span only the nine labels of SU(2)_8 x {1}
    # (an exact rank over Q), where associativity holds, and labels 0 and 3
    # pass their checks, since their B part is the unit; every fault is at
    # a label with x or y in its B part. So only the full-rank certificate
    # sends validate past the first generator: without it, labels 0 and 3
    # would be checked and the ring would pass.
    ring = _su2_times_nonassociative(8)
    F = ring.fusion.astype(np.int64)
    assert ring.size == 27
    span = [np.eye(1, ring.size, dtype=np.int64)[0]]
    for _ in range(ring.size):
        span.append(span[-1] @ F[:, 3])
    assert sympy.Matrix(span).rank() == 9
    assert fusion._associativity_failures(F, [0, 3]) == []
    # The certificate adds label 1 = (0, x), whose check fails.
    assert fusion._generating_labels(ring.fusion) == [0, 3, 1]
    report = validate(ring)
    assert report and all(msg.startswith("associativity fails") for msg in report)
    faulty = {int(msg[len("associativity fails at (") :].split(",")[0]) for msg in report}
    assert all(l % 3 for l in faulty)
    assert _every_label_report(ring, monkeypatch) == report


def test_xor_ring_is_generated_by_its_bits():
    ring = _xor_ring(5)
    assert fusion._generating_labels(ring.fusion) == [0, 1, 2, 4, 8, 16]
    assert validate(ring) == []


def test_generating_set_stops_at_half_the_labels(monkeypatch):
    # a_l a_l = 1 and a_l a_m = 0 otherwise: each label adds one dimension
    # to the span, so G would need every label. Past half of them the
    # search gives up, and every label is checked, with the same report.
    n = 25
    N = np.zeros((n, n, n), dtype=np.int64)
    for l in range(n):
        N[0, l, l] = N[l, 0, l] = N[l, l, 0] = 1
    assert fusion._generating_labels(N) is None
    ring = make_ring([str(l) for l in range(n)], N.tolist(), list(range(n)), [0] * n)
    checked = _recorded_labels(monkeypatch)
    report = validate(ring)
    assert checked == [list(range(n))]
    assert _every_label_report(ring, monkeypatch) == report


def test_validation_catches_broken_frobenius_symmetry():
    # N_11^1 = 1 in Z_3 breaks the Frobenius orbit of (1,1,1) under dual 1 <-> 2.
    bad = _with_entry(builtin_cyclic(3, [0] * 3), 1, 1, 1, 1)
    frobenius = [msg for msg in validate(bad) if msg.startswith("Frobenius")]
    assert frobenius == [
        "Frobenius symmetry fails at (1,1,1)",
        "Frobenius symmetry fails at (1,2,1)",
        "Frobenius symmetry fails at (2,1,1)",
    ]


def test_validation_is_exact_beyond_int64():
    a = 2**40
    fib = [[[1, 0], [0, 1]], [[0, 1], [1, a]]]  # tau x tau = 1 + a tau
    ring = make_ring(["1", "tau"], fib, [0, 1], [0, 0])
    assert validate(ring) == []
    # N_10^1 = 1 + 2**24 breaks associativity at (1,0,1,1) by (c - 1) a =
    # 2**64, which int64 arithmetic would wrap to 0.
    c = 1 + 2**24
    bad = _with_entry(ring, 1, 0, 1, c)
    assert (c - 1) * a == 2**64
    report = validate(bad)
    assert "associativity fails at (1,0,1,1)" in report
    assert report == _loop_validate(bad)


@pytest.mark.parametrize("planes", [2, 4])
def test_validation_rejects_fusion_tensor_of_wrong_shape(planes):
    ring = builtin_cyclic(3, [0] * 3)
    fusion = [list(plane) for plane in ring.fusion][:planes]
    fusion += [ring.fusion[0]] * (planes - len(fusion))
    bad = make_ring(ring.names, fusion, ring.dual, ring.twists, ring.dims)
    assert validate(bad) == [f"fusion tensor has shape ({planes}, 3, 3), expected (3, 3, 3)"]


DIFFERENTIAL_RINGS = (
    [builtin_su2(k) for k in range(7)]
    + [builtin_so_level1(16)]
    + [builtin_cyclic(n, quadratic_twists(n, 1)) for n in range(1, 7)]
)


@st.composite
def perturbed_rings(draw):
    """A ring of DIFFERENTIAL_RINGS with one or two entries of its fusion,
    dual, twists or dims changed; two let unit row and column failures
    interleave. A dim is shifted by a rational or a root of unity, of a new
    conductor too."""
    ring = draw(st.sampled_from(DIFFERENTIAL_RINGS))
    n, M = ring.size, ring.conductor
    index = st.integers(0, n - 1)
    fusion = [[list(row) for row in plane] for plane in ring.fusion]
    dual, twists, dims = list(ring.dual), list(ring.twists), list(ring.dims)
    root = st.tuples(st.sampled_from([M, 2 * M, 7]), st.integers(0, 2 * M))
    shift = st.sampled_from([1, -1, Fraction(1, 2)]).map(Cyclotomic.from_rational) | root.map(
        lambda c: Cyclotomic.zeta(*c)
    )
    fields = st.lists(st.sampled_from(["fusion", "dual", "twists", "dims"]), min_size=1, max_size=2)
    for field in draw(fields):
        if field == "fusion":
            value = draw(st.integers(-1, 3) | st.just(2**40))
            fusion[draw(index)][draw(index)][draw(index)] = value
        elif field == "dual":
            dual[draw(index)] = draw(index)
        elif field == "twists":
            twists[draw(index)] = draw(st.fractions(0, 1, max_denominator=12))
        else:
            l = draw(index)
            dims[l] = dims[l] + draw(shift)
    return make_ring(ring.names, fusion, dual, twists, dims)


@given(perturbed_rings())
@settings(max_examples=200, deadline=None)
def test_validate_matches_loop_reference(ring):
    assert validate(ring) == _loop_validate(ring)


def test_fusion_ring_holds_one_read_only_integer_tensor():
    ring = builtin_su2(4)
    assert ring.fusion.dtype == np.int64 and ring.fusion.shape == (5, 5, 5)
    with pytest.raises(ValueError, match="read-only"):
        ring.fusion[1, 1, 2] = 2
    assert ring.fusion[1, 1, 2] == 1
    # Rings compare field by field, the tensor by its entries; a ring holding
    # an array is not hashable.
    assert ring == ring_from_json(ring_to_json(ring)) == replace(ring)
    fields = (ring.names, ring.dual, ring.twists, ring.dims, ring.name, ring.central_charge_hint)
    fusion = ring.fusion.tolist()
    assert make_ring(fields[0], fusion, *fields[1:]) == ring
    fusion[1][1][1] = 1
    assert make_ring(fields[0], fusion, *fields[1:]) != ring
    with pytest.raises(TypeError):
        hash(ring)


def test_make_ring_rejects_a_ragged_fusion_tensor():
    with pytest.raises(ValueError):
        make_ring(["1", "g"], [[[1, 0], [0, 1]], [[0, 1], [1]]], [0, 1], [0, 0])


# Exact inputs are ints or Fractions: a float or a string would be read by
# Fraction() into a value (0.1 as 3602879701896397/2**55) that the ring-file
# grammar refuses.
NOT_EXACT = [0.5, 0.1, "1/4"]


@pytest.mark.parametrize("h", NOT_EXACT)
def test_make_ring_rejects_twists_that_are_not_exact(h):
    with pytest.raises(TypeError, match="expected int or Fraction"):
        make_ring(["1", "g"], [[[1, 0], [0, 1]], [[0, 1], [1, 0]]], [0, 1], [0, h])


@pytest.mark.parametrize("h", NOT_EXACT)
def test_builtin_cyclic_rejects_twists_that_are_not_exact(h):
    with pytest.raises(TypeError, match="expected int or Fraction"):
        builtin_cyclic(2, [0, h])


def test_fusion_tensor_beyond_int64_holds_python_ints():
    # Numpy integers read off an int64 ring join a multiplicity beyond int64
    # as Python ints, so no product in validate wraps and the ring file
    # renderer, which refuses numpy integers, writes every entry.
    fib = make_ring(["1", "tau"], [[[1, 0], [0, 1]], [[0, 1], [1, 1]]], [0, 1], [0, 0])
    big = _with_entry(fib, 1, 1, 1, 2**70)
    assert big.fusion.dtype == object
    assert {type(x) for x in big.fusion.flat} == {int}
    assert type(big.fusion[1, 1, 1]) is int and big.fusion[1, 1, 1] == 2**70
    assert validate(big) == _loop_validate(big) == []
    assert '"fusion": [' in dump_ring(big)
