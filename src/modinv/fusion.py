"""Fusion-ring data model, axiom validation and built-in generators.

A :class:`FusionRing` holds labels, the fusion rules as one read-only
integer tensor, the duality permutation, rational twists (mod 1) and,
optionally, exact quantum dimensions as cyclotomic numbers. Rings given
without dimensions get exact ones from :func:`reconstruct_dims`, or are
rejected.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from fractions import Fraction
from functools import cached_property, partial
from itertools import product
from math import lcm
from typing import Iterable, Optional, Sequence

import numpy as np

from .cyclo import (
    ONE,
    Cyclotomic,
    _parts,
    coordinates,
    csum,
    differs,
    evaluate,
    int_array,
    int_matmul,
    matmul_dtype,
    phi,
)


@dataclass(frozen=True, eq=False)
class FusionRing:
    """A fusion ring's data. `conductor`, the `global_conductor` of the
    twists and dims, is computed once, when the ring is built (also by
    `dataclasses.replace`), and stored, so that every instance holds it and
    equal rings compare equal."""

    names: tuple[str, ...]
    fusion: np.ndarray  # N[l, m, n] = N_{l,m}^n: one read-only integer tensor
    dual: tuple[int, ...]
    twists: tuple[Fraction, ...]
    dims: Optional[tuple[Cyclotomic, ...]]
    name: str = ""
    central_charge_hint: Optional[Fraction] = None
    conductor: int = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "conductor", global_conductor(self.twists, self.dims))

    @property
    def size(self) -> int:
        return len(self.names)

    def __eq__(self, other) -> bool:
        """Equal fields; attributes cached on a ring (`associative_generators`)
        are not compared."""
        if type(other) is not type(self):
            return NotImplemented
        a, b = ({f.name: getattr(r, f.name) for f in fields(r)} for r in (self, other))
        return np.array_equal(a.pop("fusion"), b.pop("fusion")) and a == b

    @cached_property
    def associative_generators(self) -> Optional[list[int]]:
        """The labels G of `_generating_labels` when associativity holds on
        each of them, else None (no G, or a label of G fails): then
        associativity holds on every label (the lemma of
        `_generating_labels`). Found once per ring, for `validate` and
        `modular.verlinde_check`; the fusion tensor must have shape (n, n, n)."""
        G = _generating_labels(self.fusion)
        return G if G is not None and not _associativity_failures(self.fusion, G) else None


def global_conductor(
    twists: Iterable[Fraction], dims: Optional[Iterable[Cyclotomic]] = None
) -> int:
    """The global conductor of a ring: the lcm of its twists' denominators
    and, when given, of its dims' conductors; 1 for no twists and no dims.
    All exact data of the ring lives in Q(zeta_M) for this M."""
    return lcm(*(h.denominator for h in twists), *(d.conductor for d in dims or ()))


def make_ring(
    names: Sequence[str],
    fusion: Sequence[Sequence[Sequence[int]]],
    dual: Sequence[int],
    twists: Sequence[Fraction],
    dims: Optional[Sequence[Cyclotomic]] = None,
    name: str = "",
    central_charge_hint: Optional[Fraction] = None,
) -> FusionRing:
    """Normalize and freeze ring data: the fusion rules become one read-only
    integer tensor (numpy's ValueError on a ragged one), twists (ints or
    Fractions, else TypeError) are reduced mod 1 and exact dims are promoted
    to the global conductor, which the promotion leaves unchanged."""
    twists_mod = tuple(Fraction(*_parts(h)) % 1 for h in twists)
    N = int_array(fusion)
    N.flags.writeable = False
    ring = FusionRing(
        names=tuple(str(s) for s in names),
        fusion=N,
        dual=tuple(int(d) for d in dual),
        twists=twists_mod,
        dims=tuple(dims) if dims is not None else None,
        name=name,
        central_charge_hint=central_charge_hint,
    )
    if ring.dims is not None:
        m = ring.conductor
        object.__setattr__(ring, "dims", tuple(d.to_conductor(m) for d in ring.dims))
    return ring


def validate(ring: FusionRing) -> list[str]:
    """Check every ring axiom exactly; returns the list of violations.

    Associativity is checked label by label, x (z w) = (x z) w for a label x
    and all labels z, w. The x that pass span a subring (the lemma of
    `_generating_labels`), so when labels whose products span Q^n are found,
    only those are checked; every label is checked, and every failure
    reported, when none are found or one of them fails."""
    n = ring.size
    report: list[str] = []
    if len(ring.dual) != n or sorted(ring.dual) != list(range(n)):
        report.append("dual is not a permutation of the labels")
        return report
    if len(ring.twists) != n:
        report.append(f"expected {n} twists, got {len(ring.twists)}")
        return report
    N = ring.fusion
    if N.shape != (n, n, n):
        report.append(f"fusion tensor has shape {N.shape}, expected ({n}, {n}, {n})")
        return report
    lbar = np.array(ring.dual)
    eye = np.eye(n, dtype=int)
    # Unit row and column, interleaved per (l, m).
    unit = np.stack([N[0] != eye, N[:, 0] != eye], axis=-1)
    for l, m, column in np.argwhere(unit):
        if column:
            report.append(f"unit column: N[{l},0]^{m} != delta")
        else:
            report.append(f"unit row: N[0,{l}]^{m} != delta")
    if any(ring.dual[ring.dual[l]] != l for l in range(n)):
        report.append("dual is not involutive")
    if ring.dual[0] != 0:
        report.append("dual(0) != 0")
    for l, m in np.argwhere(N[:, :, 0] != eye[lbar]):
        report.append(f"duality: N[{l},{m}]^0 != delta(m, dual({l}))")
    # Associativity, for a generating set of labels first and for every
    # label when there is none or some label of it fails.
    if ring.associative_generators is None:
        report += _associativity_failures(N, range(n))
    # Frobenius symmetry: N_lm^nu = N_{lbar nu}^m = N_{nu mbar}^l.
    frobenius = (N != N[lbar].transpose(0, 2, 1)) | (N != N[:, lbar].transpose(2, 1, 0))
    for l, m, nu in np.argwhere(frobenius):
        report.append(f"Frobenius symmetry fails at ({l},{m},{nu})")
    # Twists.
    if ring.twists[0] != 0:
        report.append("twist of the unit is not 0")
    for l in range(n):
        if ring.twists[l] != ring.twists[lbar[l]]:
            report.append(f"twist symmetry: h[{l}] != h[dual({l})]")
    # Exact dimensions.
    if ring.dims is not None:
        d = ring.dims
        if d[0] != ONE:
            report.append("d[0] != 1")
        for l in range(n):
            if d[l] != d[lbar[l]]:
                report.append(f"dims: d[{l}] != d[dual({l})]")
            if not d[l].is_real():
                report.append(f"dims: d[{l}] is not real")
            # A float on purpose: an exact order on dims from an unvalidated
            # file can need unbounded precision.
            if d[l].embed().real < 1 - 1e-9:
                report.append(f"dims: d[{l}] < 1 numerically")
        # d_l d_m = sum_nu N_lm^nu d_nu: an outer product of the values of d
        # against their integer contraction with N, on its coordinates.
        M = ring.conductor
        X, D = coordinates(d, M)
        dv = evaluate(X, D, M)
        Nd = int_matmul(N.reshape(n * n, n), X.T).T.reshape(-1, n, n)
        for l, m in np.argwhere(differs(dv[:, None] * dv, evaluate(Nd, D, M))):
            report.append(f"dims: d[{l}]*d[{m}] != sum N*d")
    return report


def _associativity_failures(N: np.ndarray, labels: Iterable[int]) -> list[str]:
    """sum_r N_lm^r N_r nu^s = sum_r N_m nu^r N_lr^s for each label l given,
    as two (n, n*n) matrix products, indexed (m, nu, s), in a dtype exact
    for them (`matmul_dtype`): the failures, in order."""
    n = len(N)
    F = N.astype(matmul_dtype(n, N, N), copy=False)
    right, left = F.reshape(n, n * n), F.reshape(n * n, n)
    failures = []
    for l in labels:
        lhs = (F[l] @ right).reshape(n, n, n)
        rhs = (left @ F[l]).reshape(n, n, n)
        if not np.array_equal(lhs, rhs):
            for m, nu, s in np.argwhere(lhs != rhs):
                failures.append(f"associativity fails at ({l},{m},{nu},{s})")
    return failures


# A prime p with n p**2 < 2**63 for every n < 2**13: the products of
# `_generating_labels` stay in int64. A fusion tensor of 2**13 labels would
# have 2**39 entries.
GENERATOR_PRIME = 33554393  # the largest prime below 2**25


def _generating_labels(N: np.ndarray) -> Optional[list[int]]:
    """Labels G, label 0 first, whose nested products span Q^n, or None.

    Associativity asks x (z w) = (x z) w for every label x and all z, w; the
    x with it form a set S that is closed under sums, and under products:
    for x, y in S, (x y)(z w) = x (y (z w)) = x ((y z) w) = (x (y z)) w
    = ((x y) z) w. So once every label of G is in S and products of labels
    of G span Q^n, every label is in S.

    One span V grows from e_0, kept modulo GENERATOR_PRIME: each vector that
    joins V is multiplied on the right by each label of G after 0, so V is
    spanned by products e_0 g_1 ... g_k. When V is closed under them short
    of Q^n, the first candidate outside V joins G and multiplies every
    vector of V so far; G holds at most half the labels. Candidates come in
    an order that a relabelling keeps up to ties: labels whose fusion matrix
    is not a permutation first, smallest total multiplicity
    sum_{m, nu} N_lm^nu first (on SU(2), the spin-1/2 label and its product
    with the simple current, which also generates at even level). Full rank
    modulo a prime certifies full rank over Q, as the rank modulo a prime
    never exceeds it.
    """
    n = len(N)
    p = GENERATOR_PRIME
    weight = N.reshape(n, n * n).sum(axis=1).tolist()
    candidates = sorted(range(1, n), key=lambda l: (weight[l] <= n, weight[l], l))
    # v @ P % p is v reduced by V's reduced echelon form: zero exactly on V,
    # and on P's pivot columns, which are zero; an update touches u's support.
    P = np.eye(n, dtype=np.int64)
    joined: list[np.ndarray] = []  # the vectors that joined V, in order

    def join(v: np.ndarray) -> None:
        u = v @ P % p
        (support,) = u.nonzero()
        if len(support):
            c = int(support[0])
            u = u * pow(int(u[c]), -1, p) % p
            P[:, support] = (P[:, support] - P[:, c, None] * u[support]) % p
            joined.append(u)

    join(np.eye(1, n, dtype=np.int64)[0])
    generators: list[int] = []
    # (v e_g)_s = sum_r v_r N_{r,g}^s: right multiplication by e_g is N[:, g].
    right: list[np.ndarray] = []  # right[j]: N[:, generators[j]] modulo p
    done: list[int] = []  # done[j]: the vectors of `joined` multiplied by generators[j]
    while len(joined) < n:
        j = min(range(len(generators)), key=done.__getitem__, default=None)
        if j is not None and done[j] < len(joined):
            join(joined[done[j]] @ right[j] % p)
            done[j] += 1
            continue
        if 2 * (len(generators) + 2) > n:
            return None
        g = next((g for g in candidates if P[g].any() and g not in generators), None)
        if g is None:
            return None
        generators.append(g)
        right.append((N[:, g] % p).astype(np.int64))
        done.append(0)
    return [0] + generators


# PSLQ looks for coordinates below PSLQ_MAX_COEFF within PSLQ_MAX_STEPS
# iterations, over real subfields of degree at most PSLQ_MAX_DEGREE, so that
# a failing search stays short; SU(2) level 32 (degree 32) takes about 1100.
PSLQ_MAX_COEFF = 1000
PSLQ_MAX_DEGREE = 32
PSLQ_MAX_STEPS = 2000


class DimsReconstructionError(ValueError):
    """No exact dims in Q(zeta_M) were found for a ring given without them."""


def reconstruct_dims(ring: FusionRing) -> FusionRing:
    """The ring completed with exact dims in Q(zeta_M), M the conductor of
    the twists (the order of T; Ng-Schauenburg put the dims of a modular
    category there).

    The Perron-Frobenius vector x of sum_l N_l is refined at mpmath
    precision. Exact dims spread from d_0 = 1 through the fusion rules; where
    that stalls, the smallest unknown d_l is read off x_l by PSLQ, first over
    Q, then over the integral basis {1, 2cos(2 pi j/M) : 1 <= j < phi(M)/2}
    of the real subfield. validate() then checks the product rule and
    reality exactly and d >= 1 on the float embedding, and a positive
    character is the Perron-Frobenius one.
    Raises DimsReconstructionError on any failure. mpmath is imported here
    and in `_pf_vector` only: no other path of the package loads it.
    """
    import mpmath

    n, M = ring.size, ring.conductor
    k = max(1, phi(M) // 2)
    field = f"Q(zeta_{M})"
    basis = [ONE] + [Cyclotomic.zeta(M, j) + Cyclotomic.zeta(M, -j) for j in range(1, k)]
    d = {0: ONE}
    with mpmath.workdps(30 + 3 * min(k, PSLQ_MAX_DEGREE)):
        x = _pf_vector(ring)
        reals = [1] + [2 * mpmath.cos(2 * mpmath.pi * j / M) for j in range(1, k)]
        pslq = partial(mpmath.pslq, maxcoeff=PSLQ_MAX_COEFF, maxsteps=PSLQ_MAX_STEPS)
        while _propagate(ring, d):
            l = min(set(range(n)) - d.keys())
            rel = pslq([x[l], 1])  # rationals first: pointed rings need no large search
            if rel is None and k > 1:
                if k > PSLQ_MAX_DEGREE:
                    raise DimsReconstructionError(
                        f"d[{l}] is not rational and the real subfield of {field} has "
                        f"degree {k}, above {PSLQ_MAX_DEGREE}; give the dims exactly"
                    )
                rel = pslq([x[l]] + reals)
            if rel is None or rel[0] == 0:
                raise DimsReconstructionError(f"d[{l}] not found in {field} by PSLQ")
            d[l] = csum(b * Fraction(-c, rel[0]) for c, b in zip(rel[1:], basis) if c)
    out = replace(ring, dims=tuple(d[l].to_conductor(M) for l in range(n)))
    failures = validate(out)
    if failures:
        raise DimsReconstructionError(
            f"the ring with dims found in {field} fails validation: {failures[0]}"
        )
    return out


def _pf_vector(ring: FusionRing) -> list:
    """Perron-Frobenius eigenvector x of A = sum_l N_l with x_0 = 1 at the
    working mpmath precision: numpy's estimate, then Newton steps on
    F(x, lam) = ((A - lam) x, x_0 - 1) = 0."""
    import mpmath

    n = ring.size
    A = ring.fusion.sum(axis=0)
    vals, vecs = np.linalg.eig(A.astype(float))
    top = int(np.argmax(vals.real))
    x = vecs[:, top].real
    # Tested before dividing, so that x_0 = 0 raises rather than warns.
    if not np.all(np.sign(x) * np.sign(x[0]) > 0):
        raise DimsReconstructionError("sum_l N_l has no positive Perron-Frobenius vector")
    v = x / x[0]
    J = mpmath.matrix(np.pad(A, (0, 1)).tolist())  # the Jacobian [[A - lam, -x], [e_0, 0]]
    J[n, 0] = 1
    z = mpmath.matrix(v.tolist() + [vals[top].real])
    for _ in range(20):
        for i in range(n):
            J[i, i] = int(A[i, i]) - z[n]
            J[i, n] = -z[i]
        F = J * mpmath.matrix(list(z)[:n] + [0])  # ((A - lam) x, x_0)
        F[n] -= 1
        step = mpmath.lu_solve(J, F)
        z -= step
        if mpmath.norm(step, mpmath.inf) < mpmath.mpf(10) ** (5 - mpmath.mp.dps):
            break
    return list(z)[:n]


def _propagate(ring: FusionRing, d: dict) -> bool:
    """Extend the exact dims d in place: while some l x m with d_l, d_m known
    has one unknown channel nu, solve d_l d_m = sum_r N_lm^r d_r for d_nu.
    True while some dim is still unknown."""
    grown = True
    while grown:
        grown = False
        for l, m in product(list(d), repeat=2):
            row = ring.fusion[l, m].tolist()
            unknown = [nu for nu, c in enumerate(row) if c and nu not in d]
            if len(unknown) == 1:
                (nu,) = unknown
                rest = csum(d[r] * c for r, c in enumerate(row) if c and r != nu)
                d[nu] = (d[l] * d[m] - rest) / row[nu]
                grown = True
    return len(d) < ring.size


# -- built-in generators ----------------------------------------------------


def builtin_su2(k: int) -> FusionRing:
    """SU(2) level k with the standard truncated fusion rules.

    Twists h_l = l(l+2)/(4(k+2)); dimensions are quantum integers
    [l+1]_q with q = e^(i pi / (k+2)), exact in Q(zeta_{4(k+2)}).
    """
    if k < 0:
        raise ValueError("level must be non-negative")
    n = k + 1
    q = 4 * (k + 2)

    def allowed(l, m, nu):
        return (l + m + nu) % 2 == 0 and abs(l - m) <= nu <= min(l + m, 2 * k - l - m)

    fusion = [[[int(allowed(l, m, nu)) for nu in range(n)] for m in range(n)] for l in range(n)]
    twists = [Fraction(l * (l + 2), q) for l in range(n)]
    dims = []
    for l in range(n):
        # [l+1]_q = sum_{j=0..l} zeta_q^{2(l-2j)}
        coeffs: dict[int, int] = {}
        for j in range(l + 1):
            e = (2 * (l - 2 * j)) % q
            coeffs[e] = coeffs.get(e, 0) + 1
        dims.append(Cyclotomic(q, coeffs))
    c_hint = Fraction(3 * k, k + 2)
    return make_ring(
        names=[str(l) for l in range(n)],
        fusion=fusion,
        dual=list(range(n)),
        twists=twists,
        dims=dims,
        name=f"su2_level{k}",
        central_charge_hint=c_hint,
    )


def builtin_so_level1(n: int) -> FusionRing:
    """SO(n) level 1 for n a multiple of 16: four self-dual sectors
    (basic, vector, spinor, conjugate spinor) with Z2 x Z2 fusion,
    twists (0, 1/2, l, l) for n = 16 l, and unit dimensions."""
    if n <= 0 or n % 16 != 0:
        raise ValueError(f"n must be a positive multiple of 16, got {n}")
    ell = n // 16
    # Klein four-group: 0 <-> (0,0), v <-> (1,1), s <-> (1,0), c <-> (0,1).
    vec = [(0, 0), (1, 1), (1, 0), (0, 1)]
    idx = {v: i for i, v in enumerate(vec)}

    def product(l, m):
        return idx[(vec[l][0] + vec[m][0]) % 2, (vec[l][1] + vec[m][1]) % 2]

    fusion = [[[int(product(l, m) == nu) for nu in range(4)] for m in range(4)] for l in range(4)]
    twists = [Fraction(0), Fraction(1, 2), Fraction(ell), Fraction(ell)]
    return make_ring(
        names=["0", "v", "s", "c"],
        fusion=fusion,
        dual=[0, 1, 2, 3],
        twists=twists,
        dims=[ONE] * 4,
        name=f"so{n}_level1",
        central_charge_hint=Fraction(8 * ell),
    )


def builtin_cyclic(n: int, twists: Sequence[Fraction]) -> FusionRing:
    """Group ring of Z_n with prescribed twists, ints or Fractions (else
    TypeError), and all dimensions 1."""
    if n < 1:
        raise ValueError("n must be positive")
    twists = [Fraction(*_parts(h)) % 1 for h in twists]
    if len(twists) != n:
        raise ValueError(f"expected {n} twists, got {len(twists)}")
    if twists[0] != 0:
        raise ValueError("twist of the unit must be 0")
    for a in range(n):
        if twists[a] != twists[(-a) % n]:
            raise ValueError(f"twists must satisfy h[a] = h[-a]; fails at a={a}")

    fusion = [[[int((l + m) % n == nu) for nu in range(n)] for m in range(n)] for l in range(n)]
    return make_ring(
        names=[str(a) for a in range(n)],
        fusion=fusion,
        dual=[(-a) % n for a in range(n)],
        twists=twists,
        dims=[ONE] * n,
        name=f"cyclic{n}",
    )
