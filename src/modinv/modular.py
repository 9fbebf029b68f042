"""Statistics data of a fusion ring: monodromy matrix Y, Omega, Gauss sum z,
central charge, degeneracy detection, and consistency checks.

All structural identities are verified in exact cyclotomic arithmetic; the
S- and T-matrices themselves are kept numeric only, since |z| involves a
square root that need not have a representation in the chosen power basis.
Commutation with S is equivalent to commutation with Y (they differ by the
nonzero scalar |z|), so nothing exact is lost.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from .cyclo import Cyclotomic, csum, root_of_unity
from .fusion import FusionRing, dims_numeric

TOL = 1e-9


class DataIntegrityError(RuntimeError):
    """Exact input data violates a dichotomy the algorithms rely on."""


class DegenerateBraidingError(RuntimeError):
    """Operation requires a non-degenerate braiding."""


@dataclass
class ModularData:
    ring: FusionRing
    Y: Optional[list[list[Cyclotomic]]]
    omega: Optional[list[Cyclotomic]]
    z: Optional[Cyclotomic]
    w: Optional[Cyclotomic]
    c: Optional[Fraction]
    degenerates: frozenset[int]
    nondegenerate: bool
    exact: bool
    Y_numeric: np.ndarray
    S_numeric: Optional[np.ndarray]
    T_numeric: Optional[np.ndarray]

    @property
    def size(self) -> int:
        return self.ring.size


def compute_modular_data(ring: FusionRing, max_denominator: Optional[int] = None) -> ModularData:
    """Assemble Y, Omega, z, w, c and numeric S/T for a validated ring.

    Rings without exact dims fall back to a numeric-only ModularData with the
    exactness flag cleared.
    """
    if ring.dims is None:
        return _numeric_modular_data(ring)
    n = ring.size
    d = list(ring.dims)
    omega = [root_of_unity(h) for h in ring.twists]
    # Y_{l,m} = omega_l omega_m sum_r conj(omega_r) N_{l,m}^r d_r;
    # division by a statistics phase is multiplication by its conjugate.
    t = [omega[r].conjugate() * d[r] for r in range(n)]
    Y: list[list[Cyclotomic]] = [[None] * n for _ in range(n)]  # type: ignore[list-item]
    for l in range(n):
        for m in range(l, n):
            s = csum(t[r] * ring.N(l, m, r) for r in range(n) if ring.N(l, m, r))
            val = omega[l] * omega[m] * s
            Y[l][m] = val
            Y[m][l] = val
    z = csum(d[r] * d[r] * omega[r] for r in range(n))
    w = csum(d[r] * d[r] for r in range(n))
    md = ModularData(
        ring=ring,
        Y=Y,
        omega=omega,
        z=z,
        w=w,
        c=None,
        degenerates=frozenset(),
        nondegenerate=False,
        exact=True,
        Y_numeric=np.array([[Y[l][m].embed() for m in range(n)] for l in range(n)]),
        S_numeric=None,
        T_numeric=None,
    )
    md.degenerates = detect_degenerates(md)
    md.nondegenerate = md.degenerates == frozenset({0})
    md.c = compute_central_charge(md, max_denominator)
    _attach_numeric_ST(md)
    return md


def _attach_numeric_ST(md: ModularData) -> None:
    zc = md.z.embed()
    if abs(zc) > TOL:
        md.S_numeric = md.Y_numeric / abs(zc)
    c_display = display_charge(md)
    if c_display is not None:
        phase = cmath.exp(-1j * cmath.pi * float(c_display) / 12)
        om = (
            [o.embed() for o in md.omega]
            if md.omega is not None
            else [cmath.exp(2j * cmath.pi * float(h)) for h in md.ring.twists]
        )
        md.T_numeric = phase * np.diag(om)


def display_charge(md: ModularData) -> Optional[Fraction]:
    """Central charge used for the T display: the ring's hint when it is
    consistent with the computed value mod 8, else the representative in
    [0, 8)."""
    hint = md.ring.central_charge_hint
    if hint is not None and md.c is not None and (hint - md.c) % 8 == 0:
        return hint
    return md.c


def _numeric_modular_data(ring: FusionRing) -> ModularData:
    n = ring.size
    d = dims_numeric(ring)
    om = [cmath.exp(2j * cmath.pi * float(h)) for h in ring.twists]
    Y = np.zeros((n, n), dtype=complex)
    for l in range(n):
        for m in range(n):
            Y[l, m] = om[l] * om[m] * sum(
                ring.N(l, m, r) * d[r] / om[r] for r in range(n) if ring.N(l, m, r)
            )
    z = sum(d[r] ** 2 * om[r] for r in range(n))
    w = sum(d[r] ** 2 for r in range(n))
    deg = frozenset(
        l for l in range(n) if abs(sum(Y[l, m] * d[m] for m in range(n)) - w * d[l]) < TOL * w
    )
    md = ModularData(
        ring=ring,
        Y=None,
        omega=None,
        z=None,
        w=None,
        c=None,
        degenerates=deg,
        nondegenerate=deg == frozenset({0}),
        exact=False,
        Y_numeric=Y,
        S_numeric=Y / abs(z) if abs(z) > TOL else None,
        T_numeric=None,
    )
    if abs(z) > TOL:
        c = Fraction(4 * cmath.phase(z) / math.pi).limit_denominator(10**6) % 8
        md.c = c
        md.T_numeric = cmath.exp(-1j * cmath.pi * float(c) / 12) * np.diag(om)
    return md


def detect_degenerates(md: ModularData) -> frozenset[int]:
    """Labels l with sum_m Y_{l,m} Y_{m,0} = w d_l (Rehren dichotomy).

    Every other label must give exactly 0; anything else signals corrupt
    input data and raises DataIntegrityError.
    """
    if not md.exact:
        return md.degenerates
    n = md.size
    d = md.ring.dims
    out = set()
    for l in range(n):
        s = csum(md.Y[l][m] * d[m] for m in range(n))
        if s == md.w * d[l]:
            out.add(l)
        elif not s.is_zero():
            raise DataIntegrityError(
                f"degeneracy dichotomy violated at label {l}: "
                f"sum_m Y[l,m] d_m is neither w*d_l nor 0"
            )
    return frozenset(out)


def compute_central_charge(
    md: ModularData, max_denominator: Optional[int] = None
) -> Optional[Fraction]:
    """c = 4 arg(z)/pi mod 8, recognized as a rational with bounded
    denominator and verified against z numerically; None when z = 0 or when
    verification fails."""
    if md.z is None or md.z.is_zero():
        return None
    if max_denominator is None:
        max_denominator = 24 * md.ring.conductor
    zc = md.z.embed()
    c = Fraction(4 * cmath.phase(zc) / math.pi).limit_denominator(max_denominator) % 8
    predicted = abs(zc) * cmath.exp(1j * math.pi * float(c) / 4)
    if abs(predicted - zc) > TOL * max(1.0, abs(zc)):
        return None
    return c


def verify_statistics_axioms(md: ModularData) -> list[str]:
    """Exact checks: Y symmetry, Y_{dual(l),m} = conj(Y_{l,m}), Y_{l,0} = d_l,
    Omega Y Omega Y Omega = z Y. Numeric checks (tol 1e-9) when the braiding
    is non-degenerate: TSTST = S and S^2 = charge conjugation."""
    if not md.exact:
        return ["exact verification unavailable (numeric-only modular data)"]
    n = md.size
    ring = md.ring
    Y, omega = md.Y, md.omega
    report: list[str] = []
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
    # Omega Y Omega Y Omega = z Y, via B = Y (Omega Y) and diagonal scalings.
    A = [[omega[r] * Y[r][m] for m in range(n)] for r in range(n)]
    for l in range(n):
        for m in range(l, n):
            b = csum(Y[l][r] * A[r][m] for r in range(n))
            if omega[l] * omega[m] * b != md.z * Y[l][m]:
                report.append(f"OmegaYOmegaYOmega != zY at ({l},{m})")
    if md.nondegenerate and md.S_numeric is not None and md.T_numeric is not None:
        S, T = md.S_numeric, md.T_numeric
        lhs = T @ S @ T @ S @ T
        if np.max(np.abs(lhs - S)) > TOL:
            report.append(f"TSTST != S numerically (max dev {np.max(np.abs(lhs - S)):.3e})")
        C = np.zeros((n, n))
        for l in range(n):
            C[l, ring.dual[l]] = 1.0
        if np.max(np.abs(S @ S - C)) > TOL:
            report.append("S^2 != charge conjugation numerically")
    return report


def verlinde_check(md: ModularData) -> dict:
    """Recompute the fusion coefficients from the numeric S-matrix and
    compare with the ring; requires a non-degenerate braiding."""
    if not md.nondegenerate:
        raise DegenerateBraidingError(
            "Verlinde reconstruction requires a non-degenerate braiding"
        )
    S = md.S_numeric
    val = np.einsum("lk,mk,nk->lmn", S, S, np.conj(S) / S[0])
    nearest = np.round(val.real)
    mismatches = [
        (int(l), int(m), int(nu), val[l, m, nu])
        for l, m, nu in np.argwhere(nearest != np.array(md.ring.fusion))
    ]
    return {
        "ok": not mismatches,
        "max_deviation": float(np.max(np.abs(val - nearest))),
        "mismatches": mismatches,
    }
