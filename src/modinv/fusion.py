"""Fusion-ring data model, axiom validation and built-in generators.

A :class:`FusionRing` holds labels, the fusion tensor, the duality
permutation, rational twists (mod 1) and, optionally, exact quantum
dimensions as cyclotomic numbers. Rings without exact dimensions run in
numeric-only mode downstream.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Optional, Sequence

import numpy as np

from .cyclo import ONE, Cyclotomic, csum


@dataclass(frozen=True)
class FusionRing:
    names: tuple[str, ...]
    fusion: tuple[tuple[tuple[int, ...], ...], ...]  # N[l][m][n] = N_{l,m}^n
    dual: tuple[int, ...]
    twists: tuple[Fraction, ...]
    dims: Optional[tuple[Cyclotomic, ...]]
    name: str = ""
    central_charge_hint: Optional[Fraction] = None

    @property
    def size(self) -> int:
        return len(self.names)

    def N(self, l: int, m: int, n: int) -> int:
        return self.fusion[l][m][n]

    def fusion_matrix(self, l: int) -> list[list[int]]:
        """The matrix (N_l)_m^n acting by left fusion with l."""
        return [list(self.fusion[l][m]) for m in range(self.size)]

    @property
    def conductor(self) -> int:
        """Global conductor: lcm of twist denominators and dim conductors."""
        m = lcm(*(h.denominator for h in self.twists)) if self.twists else 1
        if self.dims is not None:
            m = lcm(m, *(d.conductor for d in self.dims))
        return m


def make_ring(
    names: Sequence[str],
    fusion: Sequence[Sequence[Sequence[int]]],
    dual: Sequence[int],
    twists: Sequence[Fraction],
    dims: Optional[Sequence[Cyclotomic]] = None,
    name: str = "",
    central_charge_hint: Optional[Fraction] = None,
) -> FusionRing:
    """Normalize and freeze ring data; twists are reduced mod 1 and exact
    dims are promoted to the global conductor."""
    twists_mod = tuple(Fraction(h) % 1 for h in twists)
    frozen_fusion = tuple(tuple(tuple(int(x) for x in row) for row in plane) for plane in fusion)
    ring = FusionRing(
        names=tuple(str(s) for s in names),
        fusion=frozen_fusion,
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


def _fusion_shape(fusion) -> tuple:
    """(planes, rows, columns) of the nested fusion tuple; a ragged level
    reads as the sorted tuple of the lengths found there."""
    rows = sorted({len(plane) for plane in fusion})
    cols = sorted({len(row) for plane in fusion for row in plane})
    return (
        len(fusion),
        rows[0] if len(rows) == 1 else tuple(rows),
        cols[0] if len(cols) == 1 else tuple(cols),
    )


def _fusion_tensor(fusion) -> np.ndarray:
    """The fusion tensor as an (n, n, n) integer array, int64 when every
    associativity sum (n terms of at most max|N|^2) fits, Python ints
    otherwise, so that no product or sum can wrap."""
    n = len(fusion)
    big = max(abs(x) for plane in fusion for row in plane for x in row)
    return np.array(fusion, dtype=np.int64 if n * big * big < 2**63 else object)


def validate(ring: FusionRing) -> list[str]:
    """Check every ring axiom exactly; returns the list of violations."""
    n = ring.size
    report: list[str] = []
    if len(ring.dual) != n or sorted(ring.dual) != list(range(n)):
        report.append("dual is not a permutation of the labels")
        return report
    if len(ring.twists) != n:
        report.append(f"expected {n} twists, got {len(ring.twists)}")
        return report
    shape = _fusion_shape(ring.fusion)
    if shape != (n, n, n):
        report.append(f"fusion tensor has shape {shape}, expected ({n}, {n}, {n})")
        return report
    N = _fusion_tensor(ring.fusion)
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
    # Associativity: sum_r N_lm^r N_r nu^s = sum_r N_m nu^r N_lr^s, as two
    # (n, n*n) matrix products per l, indexed (m, nu, s).
    right = N.reshape(n, n * n)
    left = N.reshape(n * n, n)
    for l in range(n):
        lhs = (N[l] @ right).reshape(n, n, n)
        rhs = (left @ N[l]).reshape(n, n, n)
        for m, nu, s in np.argwhere(lhs != rhs):
            report.append(f"associativity fails at ({l},{m},{nu},{s})")
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
            if d[l].embed().real < 1 - 1e-9:
                report.append(f"dims: d[{l}] < 1 numerically")
        for l in range(n):
            for m in range(n):
                prod = d[l] * d[m]
                s = csum(d[nu] * ring.N(l, m, nu) for nu in range(n) if ring.N(l, m, nu))
                if prod != s:
                    report.append(f"dims: d[{l}]*d[{m}] != sum N*d")
    return report


class PowerIterationError(RuntimeError):
    """Raised when the numeric dimension computation fails to converge."""


def pf_dims_numeric(ring: FusionRing, max_iter: int = 10000, tol: float = 1e-13) -> list[float]:
    """Perron-Frobenius dimensions from the fusion matrices.

    d_l is the largest eigenvalue of N_l; computed by power iteration on the
    (irreducible, non-negative) total fusion matrix, then read off via the
    eigenvector. Falls back per-matrix to the spectral radius for reducible
    rings.
    """
    n = ring.size
    mats = [np.array(ring.fusion_matrix(l), dtype=float) for l in range(n)]
    total = sum(mats[1:], mats[0])
    v = np.ones(n)
    lam = 0.0
    for it in range(max_iter):
        w = total @ v
        new_lam = float(np.linalg.norm(w))
        if new_lam == 0.0:
            raise PowerIterationError(f"zero vector after {it} iterations")
        w = w / new_lam
        if np.linalg.norm(w - v) < tol:
            v = w
            lam = new_lam
            break
        v = w
        lam = new_lam
    else:
        raise PowerIterationError(f"no convergence after {max_iter} iterations")
    # d_l = eigenvalue of N_l on the common PF eigenvector.
    ref = int(np.argmax(v))
    dims = [float((mats[l] @ v)[ref] / v[ref]) for l in range(n)]
    dims[0] = 1.0
    return dims


def dims_numeric(ring: FusionRing) -> list[float]:
    """Embedded exact dims when present, PF dims otherwise."""
    if ring.dims is not None:
        return [d.embed().real for d in ring.dims]
    return pf_dims_numeric(ring)


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

    def N(l, m, nu):
        if (l + m + nu) % 2 != 0:
            return 0
        return 1 if abs(l - m) <= nu <= min(l + m, 2 * k - l - m) else 0

    fusion = [[[N(l, m, nu) for nu in range(n)] for m in range(n)] for l in range(n)]
    twists = [Fraction(l * (l + 2), q) for l in range(n)]
    dims = []
    for l in range(n):
        # [l+1]_q = sum_{j=0..l} zeta_q^{2(l-2j)}
        coeffs: dict[int, Fraction] = {}
        for j in range(l + 1):
            e = (2 * (l - 2 * j)) % q
            coeffs[e] = coeffs.get(e, Fraction(0)) + 1
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

    def N(l, m, nu):
        prod = ((vec[l][0] + vec[m][0]) % 2, (vec[l][1] + vec[m][1]) % 2)
        return 1 if idx[prod] == nu else 0

    fusion = [[[N(l, m, nu) for nu in range(4)] for m in range(4)] for l in range(4)]
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
    """Group ring of Z_n with prescribed twists (all dimensions 1)."""
    if n < 1:
        raise ValueError("n must be positive")
    twists = [Fraction(h) % 1 for h in twists]
    if len(twists) != n:
        raise ValueError(f"expected {n} twists, got {len(twists)}")
    if twists[0] != 0:
        raise ValueError("twist of the unit must be 0")
    for a in range(n):
        if twists[a] != twists[(-a) % n]:
            raise ValueError(f"twists must satisfy h[a] = h[-a]; fails at a={a}")

    def N(l, m, nu):
        return 1 if (l + m) % n == nu else 0

    fusion = [[[N(l, m, nu) for nu in range(n)] for m in range(n)] for l in range(n)]
    return make_ring(
        names=[str(a) for a in range(n)],
        fusion=fusion,
        dual=[(-a) % n for a in range(n)],
        twists=twists,
        dims=[ONE] * n,
        name=f"cyclic{n}",
    )
