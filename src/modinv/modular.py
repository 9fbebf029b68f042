"""Statistics data of a fusion ring: monodromy matrix Y, Omega, Gauss sum z,
central charge, degeneracy detection, and consistency checks.

A ring given without dims first gets exact ones from reconstruct_dims.
Y is held by its integer coordinates (ModularData.Y_coords, read-only),
built by one integer contraction of the fusion tensor over every pair of
labels, taken in blocks of rows under a fixed entry cap; the scalar Y, whose
slot order fixes the numeric shadows of the reported S and Yext, is built
only when one of them is asked for. All structural identities are verified
in exact cyclotomic arithmetic, on the integer coordinate tensors of the
values they check, and c by an exact identity; TSTST = S follows from them
exactly, and verlinde_check recovers the fusion rules from Y's columns
exactly, on every ring, degenerate or not. The statistics axioms and the
fusion reconstruction share one evaluation of Y (ModularData.Y_values),
which keeps Y's values at every prime asked, so they evaluate Y's
coordinates once per ring and prime; the degeneracy dichotomy, run by
compute_modular_data, evaluates Y on its own and frees the values, so that
a ModularData that enumeration and classification keep alive holds none.
Omega Y Omega Y Omega = z Y is compared as (Omega Y Omega) Y = z Y
conj(Omega), and S^2 = C as Y Y = (z conj(z)) C, the forms whose bounds
need the fewest primes (`verify_statistics_axioms`). Floats only propose c
(the phase of z). The S- and T-matrices are kept numeric only, since |z|
involves a square root that need not have a representation in the chosen
power basis. Commutation with S is equivalent to commutation with Y (they
differ by the nonzero scalar |z|), so nothing exact is lost.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Optional

import numpy as np

from .cyclo import (
    Cyclotomic,
    Evaluated,
    _max_abs,
    coordinates,
    csum,
    differs,
    evaluate,
    int_dtype,
    int_matmul,
    nonzero,
    phi,
    root_of_unity,
    times_roots,
)
from .fusion import FusionRing, reconstruct_dims


# Caps the entries of one block's array: the (rows, M) exponent array of
# `_y_coordinates` and the (phi(M), labels, n, n) values of `verlinde_check`.
Y_BLOCK_ENTRIES = 2**20


class DataIntegrityError(RuntimeError):
    """Exact input data violates a dichotomy the algorithms rely on."""


@dataclass
class ModularData:
    ring: FusionRing
    omega: list[Cyclotomic]
    z: Cyclotomic
    w: Cyclotomic
    Y_coords: np.ndarray  # integer coordinates of Y_den * Y, [e, l, m]
    Y_den: int  # positive: Y = Y_coords / Y_den in the power basis
    c: Optional[Fraction] = None
    degenerates: frozenset[int] = frozenset()
    nondegenerate: bool = False
    T_numeric: Optional[np.ndarray] = None

    @property
    def size(self) -> int:
        return self.ring.size

    @property
    def Y_values(self) -> Evaluated:
        """Y = Y_coords / Y_den as `evaluate` holds it, keeping the values of
        every prime asked, so that `verify_statistics_axioms` and
        `verlinde_check` evaluate Y's coordinates once per prime. The values
        live as long as md: phi(M) n^2 floats per prime. It is built again
        when the Y_coords array object, Y_den or the conductor is replaced,
        and the array it is built from is made read-only, so that no write
        can leave it stale."""
        X, D, M = self.Y_coords, self.Y_den, self.ring.conductor
        built = self.__dict__.get("_Y_values")
        if built is None or built[0] is not X or built[1:3] != (D, M):
            X.flags.writeable = False
            built = self._Y_values = X, D, M, evaluate(X, D, M, keep=True)
        return built[3]

    @cached_property
    def Y(self) -> list[list[Cyclotomic]]:
        """Y as scalar elements, in the slot order of their products and
        sums, which fixes the numeric shadows of the reported S and Yext:
        Y_{l,m} = omega_l omega_m sum_r conj(omega_r) N_{l,m}^r d_r (division
        by a statistics phase is multiplication by its conjugate)."""
        n, d, omega = self.size, self.ring.dims, self.omega
        t = [omega[r].conjugate() * d[r] for r in range(n)]
        Y: list[list[Cyclotomic]] = [[None] * n for _ in range(n)]  # type: ignore[list-item]
        for l in range(n):
            # The nonzero N_{l,m}^r with m >= l, by m and then r: the terms of
            # each sum in ascending r (t_r * 1 is t_r itself).
            N = self.ring.fusion[l, l:]
            ms, rs = np.nonzero(N)
            terms: list[list[Cyclotomic]] = [[] for _ in range(n - l)]
            for j, r, c in zip(ms.tolist(), rs.tolist(), N[ms, rs].tolist()):
                terms[j].append(t[r] * c)
            for m, s in enumerate(terms, l):
                Y[l][m] = Y[m][l] = omega[l] * omega[m] * csum(s)
        return Y

    @cached_property
    def S_numeric(self) -> Optional[np.ndarray]:
        """S = Y/|z| as complex floats, from the scalar Y; None when z = 0.
        Y[l][m] and Y[m][l] are one element, so each unordered pair is
        embedded once and S is symmetric bit for bit."""
        if self.z.is_zero():
            return None
        n = self.size
        S = np.empty((n, n), dtype=complex)
        for l, row in enumerate(self.Y):
            for m in range(l, n):
                S[l, m] = S[m, l] = row[m].embed()
        return S / abs(self.z.embed())


def compute_modular_data(ring: FusionRing) -> ModularData:
    """Assemble Y's coordinates, Omega, z, w, c and numeric T for a
    validated ring. A ring without dims is completed by reconstruct_dims
    first (md.ring is the completed ring), which raises
    DimsReconstructionError on failure."""
    if ring.dims is None:
        ring = reconstruct_dims(ring)
    omega = [root_of_unity(h) for h in ring.twists]
    squares = [x * x for x in ring.dims]
    z = csum(x * o for x, o in zip(squares, omega))
    w = csum(squares)
    Y_coords, Y_den = _y_coordinates(ring)
    md = ModularData(ring=ring, omega=omega, z=z, w=w, Y_coords=Y_coords, Y_den=Y_den)
    md.degenerates = detect_degenerates(md)
    md.nondegenerate = md.degenerates == frozenset({0})
    md.c = compute_central_charge(md)
    c_display = display_charge(md)
    if c_display is not None:
        phase = cmath.exp(-1j * cmath.pi * float(c_display) / 12)
        md.T_numeric = phase * np.diag([o.embed() for o in md.omega])
    return md


def _y_coordinates(ring: FusionRing) -> tuple[np.ndarray, int]:
    """Y's integer coordinates and denominator, as `coordinates(md.Y, M)`
    gives them, from one integer contraction of the fusion tensor. With
    omega_l = zeta_M^s_l (`twist_exponents`), t_r = conj(omega_r) d_r has
    the coordinates of d_r times zeta_M^-s_r, and Y_{l,m} = zeta_M^(s_l + s_m)
    sum_r N_{l,m}^r t_r: t times the (n^2, n) fusion matrix gives every sum,
    and `times_roots` places sum (l, m) at the exponents from s_l + s_m of
    an (n^2, M) array and reduces it in one product. The pairs are taken in
    blocks of rows l whose (block * n, M) array holds at most Y_BLOCK_ENTRIES
    entries (one row l when a single one exceeds it), so no (n, n, M) array
    is formed at the caps. The coordinates are over the lcm D of the dims'
    denominators; dividing D and every coordinate by their gcd leaves the
    lcm of the entries' own denominators, which `coordinates` takes."""
    n, M = ring.size, ring.conductor
    s = twist_exponents(ring)
    dims, D = coordinates(ring.dims, M)
    t = times_roots(dims, -s, M)
    F = ring.fusion.reshape(n * n, n)
    shift = (s[:, None] + s).ravel()
    rows = max(1, Y_BLOCK_ENTRIES // (n * M)) * n
    blocks = [
        times_roots(int_matmul(t, F[i : i + rows].T), shift[i : i + rows], M)
        for i in range(0, n * n, rows)
    ]
    X = np.concatenate(blocks, axis=1).reshape(-1, n, n)
    g = math.gcd(D, int(np.gcd.reduce(X.ravel()))) if D > 1 else 1
    if g > 1:
        X, D = X // g, D // g
    X = X.astype(int_dtype(2 * _max_abs(X)), copy=False)
    X.flags.writeable = False
    return X, D


def display_charge(md: ModularData) -> Optional[Fraction]:
    """Central charge used for the T display: the ring's hint when it is
    consistent with the computed value mod 8, else the representative in
    [0, 8)."""
    hint = md.ring.central_charge_hint
    if hint is not None and md.c is not None and (hint - md.c) % 8 == 0:
        return hint
    return md.c


def detect_degenerates(md: ModularData) -> frozenset[int]:
    """Labels l with sum_m Y_{l,m} Y_{m,0} = w d_l (Rehren dichotomy).

    Every other label must give exactly 0; anything else signals corrupt
    input data and raises DataIntegrityError.
    """
    M = md.ring.conductor
    d = evaluate(*coordinates(md.ring.dims, M), M)
    w = evaluate(*coordinates(md.w, M), M)
    # Y is evaluated here on its own, not through md.Y_values, so that its
    # values are freed on return; both comparisons read them.
    s = (evaluate(md.Y_coords, md.Y_den, M, keep=True) @ d[:, None])[:, 0]
    is_wd = ~differs(s, w * d)
    is_zero = ~nonzero(s)
    out = set()
    for l in range(md.size):
        if is_wd[l]:
            out.add(l)
        elif not is_zero[l]:
            raise DataIntegrityError(
                f"degeneracy dichotomy violated at label {l}: "
                f"sum_m Y[l,m] d_m is neither w*d_l nor 0"
            )
    return frozenset(out)


def compute_central_charge(md: ModularData) -> Optional[Fraction]:
    """c = 4 arg(z)/pi mod 8 with denominator at most 24 M (M the conductor).
    The float phase of z proposes c; z^2 = z conj(z) e^(i pi c/2) accepts it
    exactly, which fixes c mod 4 (the phase tells c from c + 4). z/conj(z)
    is a root of unity in Q(zeta_M), of order dividing 2M, so no other order
    is tried. None when z = 0 or when the proposal fails."""
    z, M = md.z, md.ring.conductor
    if z.is_zero():
        return None
    c = Fraction(4 * cmath.phase(z.embed()) / math.pi).limit_denominator(24 * M) % 8
    h = c / 4  # e^(i pi c/2) = e^(2 pi i h)
    if (2 * M) % h.denominator or z * z != z * z.conjugate() * root_of_unity(h):
        return None
    return c


def twist_exponents(ring: FusionRing) -> np.ndarray:
    """The integers s_l = h_l M in 0..M-1, M the conductor, with
    omega_l = zeta_M^s_l: equal twists are equal integers."""
    M = ring.conductor
    return np.array([h.numerator * (M // h.denominator) for h in ring.twists])


def verify_statistics_axioms(md: ModularData) -> list[str]:
    """Exact checks: Y symmetry, Y_{dual(l),m} = conj(Y_{l,m}), Y_{l,0} = d_l,
    Omega Y Omega Y Omega = z Y. When the braiding is non-degenerate, also
    S^2 = charge conjugation, exactly as Y Y = z conj(z) C. TSTST = S
    follows from Omega Y Omega Y Omega = z Y and the exact central charge.

    The last two are compared in the forms whose sides have the smallest
    coordinate bounds (`differs`), so that they need the fewest primes:
    (Omega Y Omega) Y = z Y conj(Omega), the identity times conj(Omega) =
    Omega^-1 on the right, which scales entry (l, m) by the root of unity
    conj(omega_m) and so fails at the same entries; and Y Y = (z conj(z)) C
    with z conj(z) one exact element, evaluated from its own coordinates."""
    n = md.size
    ring = md.ring
    M = ring.conductor
    Y = md.Y_coords
    report: list[str] = []
    for l, m in np.argwhere(np.triu((Y != Y.transpose(0, 2, 1)).any(axis=0))):
        report.append(f"Y not symmetric at ({l},{m})")
    Yv = md.Y_values
    for l, m in np.argwhere(differs(Yv[list(ring.dual)], Yv.conjugate())):
        report.append(f"Y[dual({l}),{m}] != conj(Y[{l},{m}])")
    for (l,) in np.argwhere(differs(Yv[:, 0], evaluate(*coordinates(ring.dims, M), M))):
        report.append(f"Y[{l},0] != d[{l}]")
    # omega_l = zeta_M^s_l, so entry (l, m) of Omega Y Omega is
    # zeta_M^(s_l + s_m) Y_lm, and of z Y conj(Omega) is zeta_M^-s_m z Y_lm.
    s = twist_exponents(ring)
    z = evaluate(*coordinates(md.z, M), M)
    omega = differs(Yv.times_root(s[:, None] + s) @ Yv, z * Yv.times_root(-s))
    for l, m in np.argwhere(np.triu(omega)):
        report.append(f"OmegaYOmegaYOmega != zY at ({l},{m})")
    # TSTST = S needs no check of its own: T = e^(-i pi c/12) Omega with
    # c = 4 arg(z)/pi mod 8 and S = Y/|z|, so TSTST = e^(-i pi c/4) z S/|z|
    # = S exactly once Omega Y Omega Y Omega = z Y.
    if md.nondegenerate:
        # S = Y / |z|, so S^2 = C is Y Y = z conj(z) C, which fails when z = 0.
        C = np.zeros((1, n, n), dtype=np.int64)
        C[0, np.arange(n), list(ring.dual)] = 1
        zz = evaluate(*coordinates(md.z * md.z.conjugate(), M), M)
        if differs(Yv @ Yv, zz * evaluate(C, 1, M)).any():
            report.append("S^2 != charge conjugation (Y Y != z conj(z) C)")
    return report


def verlinde_check(md: ModularData) -> list[tuple[int, int, int]]:
    """The (lambda, nu, mu) where Y_{lambda,mu} Y_{nu,mu} differs from
    Y_{0,mu} sum_rho N_{lambda,nu}^rho Y_{rho,mu}, in order, decided exactly:
    for any braiding, each column of Y over its vacuum entry is a character
    of the fusion rules.

    With phi(x) = sum_rho x_rho Y_{rho,mu} / Y_{0,mu}, the identity for
    lambda is phi(e_lambda) phi(y) = phi(e_lambda y) for all y and mu. The x
    with it form a subspace, and those that are also associative (a subring,
    by the lemma of `_generating_labels`) are closed under products:
    phi((x x') y) = phi(x (x' y)) = phi(x) phi(x') phi(y) = phi(x x') phi(y).
    So the identity on the labels G of `_generating_labels`, whose nested
    products from e_0 span Q^n, gives it on every label once associativity
    holds on G (`FusionRing.associative_generators`, found once per ring
    and read by `validate` too) and every Y_{0,mu} != 0 (`nonzero`). N_0
    need not be the unit: label 0 is in G and passes both checks itself.
    When there is no G or a check on G fails, every label is checked."""
    Y, G = md.Y_values, md.ring.associative_generators
    if G is not None and nonzero(Y[0]).all() and not _character_failures(md, Y, G):
        return []
    return _character_failures(md, Y, range(md.size))


def _character_failures(md: ModularData, Y, labels) -> list[tuple[int, int, int]]:
    """The failures of `verlinde_check`'s identity for lambda in `labels`,
    for a block of labels of at most Y_BLOCK_ENTRIES values at a time; Y is
    md.Y_values."""
    N, n, M = md.ring.fusion, md.size, md.ring.conductor
    step = max(1, Y_BLOCK_ENTRIES // (phi(M) * n * n))
    failures = []
    for i in range(0, len(labels), step):
        block = labels[i : i + step]
        NY = int_matmul(N[block].reshape(-1, n), md.Y_coords).reshape(-1, len(block), n, n)
        lhs = Y[block, None] * Y
        rhs = Y[0] * evaluate(NY, md.Y_den, M)
        failures += [(block[l], int(nu), int(mu)) for l, nu, mu in np.argwhere(differs(lhs, rhs))]
    return failures
