"""Degree-<=2 polynomials in the canonical coordinates (x, y, px, py) with 2x2
matrix coefficients, and the operator commutator induced by the canonical
commutation relations.

Quadratic monomials are stored Weyl-ordered: the slot keyed by (z_i, z_j)
stands for (z_i z_j + z_j z_i)/2, which makes the 15-slot representation
unique (two polynomials are operator-equal iff all slots are equal).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .errors import DegreeError
from .mat2 import Mat2


class Coord(IntEnum):
    """Canonical phase-space coordinates with the fixed ordering x < y < px < py."""

    X = 0
    Y = 1
    PX = 2
    PY = 3


COORD_NAMES = {Coord.X: "x", Coord.Y: "y", Coord.PX: "px", Coord.PY: "py"}

COORDS = (Coord.X, Coord.Y, Coord.PX, Coord.PY)
_QUAD_KEYS = tuple(
    (a, b) for i, a in enumerate(COORDS) for b in COORDS[i:]
)  # 10 ordered pairs
_QUAD_INDEX = {key: 5 + k for k, key in enumerate(_QUAD_KEYS)}

#: labels for the 15 coefficient slots, in storage order
SLOT_LABELS = (
    ("1",)
    + tuple(COORD_NAMES[c] for c in COORDS)
    + tuple(f"{COORD_NAMES[a]}*{COORD_NAMES[b]}" for a, b in _QUAD_KEYS)
)

N_SLOTS = 15


def _quad_key(i: Coord, j: Coord) -> tuple[Coord, Coord]:
    return (i, j) if i <= j else (j, i)


@dataclass(frozen=True, eq=False)
class PhasePoly:
    """Immutable polynomial; ``slots`` is a (15, 2, 2) complex array.

    Slot 0 is the constant term, slots 1-4 the linear coefficients in the
    Coord order, slots 5-14 the Weyl-ordered quadratic coefficients.
    """

    slots: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.slots, dtype=complex)
        if arr.shape != (N_SLOTS, 2, 2):
            raise ValueError(f"expected slot array of shape (15, 2, 2), got {arr.shape}")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "slots", arr)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero() -> "PhasePoly":
        return PhasePoly(np.zeros((N_SLOTS, 2, 2), dtype=complex))

    @staticmethod
    def constant(m: Mat2) -> "PhasePoly":
        return PhasePoly.monomial(m)

    @staticmethod
    def monomial(m: Mat2, *coords: Coord) -> "PhasePoly":
        """Coefficient matrix times a monomial of degree len(coords) <= 2."""
        arr = np.zeros((N_SLOTS, 2, 2), dtype=complex)
        if len(coords) == 0:
            arr[0] = m
        elif len(coords) == 1:
            arr[1 + int(coords[0])] = m
        elif len(coords) == 2:
            arr[_QUAD_INDEX[_quad_key(*coords)]] = m
        else:
            raise DegreeError("monomials of degree > 2 are not representable")
        return PhasePoly(arr)

    # -- slot access -------------------------------------------------------

    @property
    def const_term(self) -> Mat2:
        return self.slots[0]

    def linear_term(self, c: Coord) -> Mat2:
        return self.slots[1 + int(c)]

    def quad_term(self, i: Coord, j: Coord) -> Mat2:
        return self.slots[_QUAD_INDEX[_quad_key(i, j)]]

    def labeled_slots(self) -> Iterator[tuple[str, Mat2]]:
        for label, m in zip(SLOT_LABELS, self.slots):
            yield label, m

    def degree(self) -> int:
        if np.any(self.slots[5:] != 0):
            return 2
        if np.any(self.slots[1:5] != 0):
            return 1
        return 0

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "PhasePoly") -> "PhasePoly":
        return PhasePoly(self.slots + other.slots)

    def __sub__(self, other: "PhasePoly") -> "PhasePoly":
        return PhasePoly(self.slots - other.slots)

    def __neg__(self) -> "PhasePoly":
        return PhasePoly(-self.slots)

    def __mul__(self, scalar: complex) -> "PhasePoly":
        return PhasePoly(self.slots * scalar)

    __rmul__ = __mul__


def linear_combine(terms: Iterable[tuple[complex, PhasePoly]]) -> PhasePoly:
    """Slot-wise linear combination sum_k c_k * P_k."""
    acc = np.zeros((N_SLOTS, 2, 2), dtype=complex)
    for coeff, poly in terms:
        acc += coeff * poly.slots
    return PhasePoly(acc)


def left_mul(m: Mat2, p: PhasePoly) -> PhasePoly:
    """Multiply every coefficient by the spinor-space matrix m on the left."""
    return PhasePoly(np.einsum("ab,kbc->kac", np.asarray(m, dtype=complex), p.slots))


def residual_norm(p: PhasePoly) -> float:
    """Max Frobenius norm over the 15 coefficient slots; 0 iff p is the zero operator."""
    return float(np.max(np.linalg.norm(p.slots, axis=(1, 2))))


def hermitian_defect(p: PhasePoly) -> float:
    """Max slot-wise ||C - C^dagger||; 0 certifies Hermiticity in Weyl ordering."""
    return float(
        np.max(np.linalg.norm(p.slots - p.slots.conj().transpose(0, 2, 1), axis=(1, 2)))
    )


@dataclass(frozen=True)
class SymplecticForm:
    """Antisymmetric pairing Omega_ij = [z_i, z_j]/i on the four coordinates."""

    omega: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.omega, dtype=float)
        if arr.shape != (4, 4):
            raise ValueError("symplectic form must be 4x4")
        if np.max(np.abs(arr + arr.T)) > 1e-15 * max(1.0, np.max(np.abs(arr))):
            raise ValueError("symplectic form must be antisymmetric")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "omega", arr)

    @classmethod
    def canonical(cls, hbar: float = 1.0) -> "SymplecticForm":
        """[x, px] = [y, py] = i*hbar, all other pairs commute."""
        om = np.zeros((4, 4))
        om[Coord.X, Coord.PX] = hbar
        om[Coord.PX, Coord.X] = -hbar
        om[Coord.Y, Coord.PY] = hbar
        om[Coord.PY, Coord.Y] = -hbar
        return cls(om)

    def pair(self, i: Coord, j: Coord) -> float:
        return float(self.omega[int(i), int(j)])


def _mm(a: Mat2, b: Mat2) -> Mat2:
    # fixed-order scalar arithmetic: [cI, M] cancels exactly, unlike BLAS matmul
    return np.einsum("ik,kj->ij", a, b)


def commutator(p: PhasePoly, q: PhasePoly, form: SymplecticForm) -> PhasePoly:
    """Exact operator commutator of two degree-<=1 polynomials.

    For P = sum_i M_i z_i + M_0 and Q = sum_j N_j z_j + N_0,

        [P, Q] = sum_ij ( [M_i, N_j] * S(z_i z_j) + (i/2) Omega_ij {M_i, N_j} )
                 + sum_i [M_i, N_0] z_i + sum_j [M_0, N_j] z_j + [M_0, N_0],

    where S is the Weyl-symmetrized monomial. Raises DegreeError when either
    input carries a nonzero quadratic slot (the result would leave degree 2).
    """
    if p.degree() > 1 or q.degree() > 1:
        raise DegreeError("commutator arguments must have degree <= 1")
    out = np.zeros((N_SLOTS, 2, 2), dtype=complex)
    m0 = p.const_term
    n0 = q.const_term
    out[0] = _mm(m0, n0) - _mm(n0, m0)
    for i in COORDS:
        mi = p.linear_term(i)
        if np.any(mi != 0):
            out[1 + int(i)] += _mm(mi, n0) - _mm(n0, mi)
        nj = q.linear_term(i)
        if np.any(nj != 0):
            out[1 + int(i)] += _mm(m0, nj) - _mm(nj, m0)
    for i in COORDS:
        mi = p.linear_term(i)
        if not np.any(mi != 0):
            continue
        for j in COORDS:
            nj = q.linear_term(j)
            if not np.any(nj != 0):
                continue
            out[_QUAD_INDEX[_quad_key(i, j)]] += _mm(mi, nj) - _mm(nj, mi)
            w = form.pair(i, j)
            if w != 0.0:
                out[0] += (0.5j * w) * (_mm(mi, nj) + _mm(nj, mi))
    return PhasePoly(out)


@dataclass(frozen=True)
class AffineOp:
    """Time-dependent operator sum_k c_k(t) P_k: fixed polynomials ``polys``
    times scalar profiles. ``value(t)`` returns the coefficient tuple c(t) and
    ``derivative(t)`` its analytic t-derivative c'(t)."""

    polys: tuple[PhasePoly, ...]
    value: Callable[[float], Sequence[complex]]
    derivative: Callable[[float], Sequence[complex]]

    @staticmethod
    def time_constant(p: PhasePoly) -> "AffineOp":
        return AffineOp((p,), value=lambda t: (1.0,), derivative=lambda t: (0.0,))

    def combine(self, coeffs: Sequence[complex]) -> PhasePoly:
        """The operator with coefficient tuple ``coeffs``."""
        return linear_combine(zip(coeffs, self.polys))

    def at(self, t: float) -> PhasePoly:
        return self.combine(self.value(t))

    def rate(self, t: float) -> PhasePoly:
        """Analytic d/dt of the operator at time t."""
        return self.combine(self.derivative(t))
