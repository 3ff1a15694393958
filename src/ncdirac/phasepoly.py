"""Degree-<=2 polynomials in the canonical coordinates (x, y, px, py) with 2x2
matrix coefficients, and their operator commutator under the canonical
relations [x, px] = [y, py] = i*hbar. A deformed (noncommutative) operator is
a linear combination of these coordinates, so the commutator needs no other
pairing.

Quadratic monomials are stored Weyl-ordered: the slot keyed by (z_i, z_j)
stands for (z_i z_j + z_j z_i)/2, which makes the 15-slot representation
unique (two polynomials are operator-equal iff all slots are equal).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from typing import Callable

import numpy as np

from .errors import DegreeError
from .mat2 import Mat2, fro


class Coord(IntEnum):
    """Canonical phase-space coordinates with the fixed ordering x < y < px < py."""

    X = 0
    Y = 1
    PX = 2
    PY = 3


COORDS = (Coord.X, Coord.Y, Coord.PX, Coord.PY)
_QUAD_KEYS = tuple(
    (a, b) for i, a in enumerate(COORDS) for b in COORDS[i:]
)  # 10 ordered pairs
_QUAD_INDEX = {key: 5 + k for k, key in enumerate(_QUAD_KEYS)}

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

    def degree(self) -> int:
        if np.any(self.slots[5:] != 0):
            return 2
        if np.any(self.slots[1:5] != 0):
            return 1
        return 0

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "PhasePoly") -> "PhasePoly":
        return PhasePoly(self.slots + other.slots)


def residual_norms(slots: np.ndarray) -> np.ndarray:
    """Max ``mat2.fro`` Frobenius norm over the 15 coefficient slots of every
    polynomial of a (..., 15, 2, 2) slot stack; 0 iff that polynomial is the
    zero operator."""
    return np.max(fro(slots), axis=-1)


def hermitian_defect(p: PhasePoly) -> float:
    """Max slot-wise ||C - C^dagger||; 0 certifies Hermiticity in Weyl ordering."""
    return float(residual_norms(p.slots - p.slots.conj().transpose(0, 2, 1)))


# the coordinate pair (i, j), i <= j, of each quadratic slot, in storage order
_QI = np.array([int(i) for i, _ in _QUAD_KEYS])
_QJ = np.array([int(j) for _, j in _QUAD_KEYS])
_QOFF = np.flatnonzero(_QI != _QJ)


# each canonical pair (z_i, z_j) and the sign s of [z_i, z_j] = i s hbar; the
# order fixes the rounding of the constant slot
_CANONICAL = ((Coord.X, Coord.PX, 1.0), (Coord.Y, Coord.PY, 1.0),
              (Coord.PX, Coord.X, -1.0), (Coord.PY, Coord.Y, -1.0))


def commutator_slots(p: np.ndarray, q: np.ndarray, hbar: float) -> np.ndarray:
    """Commutator kernel on stacks of degree-<=1 slot arrays: the exact operator
    commutator under the canonical relations [x, px] = [y, py] = i*hbar, all
    other pairs commuting. For P = sum_i M_i z_i + M_0 and Q = sum_j N_j z_j + N_0,

        [P, Q] = sum_ij [M_i, N_j] * S(z_i z_j) + sum_i [M_i, N_0] z_i
                 + sum_j [M_0, N_j] z_j + [M_0, N_0]
                 + (i hbar/2) ({M_x, N_px} - {M_px, N_x} + {M_y, N_py} - {M_py, N_y}),

    where S is the Weyl-symmetrized monomial. ``p`` and ``q`` are (..., 5, 2, 2)
    arrays (constant and linear slots) whose leading axes broadcast; the result
    is the (..., 15, 2, 2) slot array of [P, Q] for every leading index. The
    matrix products are unoptimized einsum sums (no BLAS), so [cI, M] cancels
    to exactly 0.
    """
    batch = np.broadcast_shapes(p.shape[:-3], q.shape[:-3])

    def batch_last(a):
        # einsum runs its inner loop over the last, contiguous axis
        return np.moveaxis(np.broadcast_to(a, batch + (5, 2, 2)).reshape(-1, 5, 2, 2), 0, -1).copy()

    m, n = batch_last(p), batch_last(q)
    mn = np.einsum("iabz,jbcz->ijacz", m, n)  # M_i N_j
    nm = np.einsum("jabz,ibcz->ijacz", n, m)  # N_j M_i
    comm = mn - nm
    out = np.empty((N_SLOTS,) + comm.shape[2:], dtype=complex)
    out[0] = comm[0, 0]
    out[1:5] = comm[1:, 0] + comm[0, 1:]
    out[5:] = comm[1 + _QI, 1 + _QJ]
    out[5 + _QOFF] += comm[1 + _QJ[_QOFF], 1 + _QI[_QOFF]]
    # (i/2) [z_i, z_j]/i {M_i, N_j}, added one canonical pair at a time
    for i, j, sign in _CANONICAL:
        out[0] += (0.5j * (sign * hbar)) * (mn[1 + i, 1 + j] + nm[1 + i, 1 + j])
    return np.moveaxis(out, -1, 0).reshape(batch + (N_SLOTS, 2, 2))


def combine_slots(rows: np.ndarray, parts) -> np.ndarray:
    """Slot arrays (len(rows), 15, 2, 2) of sum_k rows[:, k] parts[k] for the
    (15, 2, 2) slot arrays ``parts``, added one part at a time in their order
    with a multiply and an add each, so every caller rounds alike."""
    acc = np.zeros((len(rows), N_SLOTS, 2, 2), dtype=complex)
    for k, part in enumerate(parts):
        acc += rows[:, k, None, None, None] * part
    return acc


@dataclass(frozen=True, eq=False)
class ExpSum:
    """f(t) = sum_k a_k e^{rates_k t}, called on a time or an array of times, for
    (K,) ``rates`` and (K,) or (K, m) ``amps``; ``f[j]`` is amplitude column j alone."""

    rates: np.ndarray
    amps: np.ndarray

    def __call__(self, ts) -> np.ndarray:
        return np.exp(np.multiply.outer(ts, self.rates)) @ self.amps

    def __getitem__(self, column) -> "ExpSum":
        return ExpSum(self.rates, self.amps[:, column])

    def derivative(self) -> "ExpSum":
        return ExpSum(self.rates, (self.rates * self.amps.T).T)


@dataclass(frozen=True)
class AffineOp:
    """Time-dependent operator sum_k c_k(t) P_k: fixed polynomials ``polys``
    times scalar profiles. ``value(ts)`` returns the coefficients c(t) at an
    array of times as a (len(ts), len(polys)) array, and ``derivative(ts)``
    their analytic t-derivatives c'(t) alike."""

    polys: tuple[PhasePoly, ...]
    value: Callable[[np.ndarray], np.ndarray]
    derivative: Callable[[np.ndarray], np.ndarray]

    @staticmethod
    def time_constant(p: PhasePoly) -> "AffineOp":
        one = ExpSum(np.zeros(1), np.ones((1, 1)))
        return AffineOp((p,), one, one.derivative())

    def stack(self, rows: np.ndarray) -> np.ndarray:
        """Slot arrays (len(rows), 15, 2, 2) of the operators with the
        coefficient rows ``rows``, a (len(rows), len(polys)) array."""
        return combine_slots(rows, [poly.slots for poly in self.polys])

    def at(self, t: float) -> PhasePoly:
        return PhasePoly(self.stack(self.value(np.array([t], dtype=float)))[0])

    def coordinate_rows(self, ts: np.ndarray) -> np.ndarray:
        """Real coefficients (len(ts), 4) of the coordinates, in the Coord order,
        of a scalar (identity-spinor) operator at each time of ts."""
        return self.value(ts) @ np.array([poly.slots[1:5, 0, 0].real for poly in self.polys])


def row_products(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Coefficient rows (len(u), K*L) of the products u_k v_l of (len(u), K) and
    (len(u), L) rows, k-major: the order of the fixed parts [P_k, Q_l] that
    ``commutator_slots`` returns for a (K, 1) batch against a (1, L) batch."""
    return (u[:, :, None] * v[:, None, :]).reshape(len(u), -1)


def commutator(a: AffineOp, b: AffineOp, hbar: float) -> AffineOp:
    """[A, B] of degree-<=1 operators A = sum_k a_k(t) P_k and B = sum_l b_l(t) Q_l:
    the operator sum_kl a_k(t) b_l(t) [P_k, Q_l]. One ``commutator_slots`` call
    takes the fixed parts; the coefficient rows are the products a_k b_l, and
    their derivatives follow the product rule. It reads A and B only through
    ``value`` and ``derivative``. Raises DegreeError when a fixed part carries a
    nonzero quadratic slot (the result would leave degree 2).
    """
    ps, qs = (np.array([poly.slots for poly in op.polys]) for op in (a, b))
    if np.any(ps[:, 5:] != 0) or np.any(qs[:, 5:] != 0):
        raise DegreeError("commutator arguments must have degree <= 1")
    fixed = commutator_slots(ps[:, None, :5], qs[None, :, :5], hbar)

    def value(ts):
        return row_products(a.value(ts), b.value(ts))

    def derivative(ts):
        rate = row_products(a.derivative(ts), b.value(ts))
        return rate + row_products(a.value(ts), b.derivative(ts))

    return AffineOp(tuple(map(PhasePoly, fixed.reshape(-1, N_SLOTS, 2, 2))), value, derivative)
