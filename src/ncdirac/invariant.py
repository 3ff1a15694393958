"""Linear dynamical invariants of the deformed Dirac system.

An invariant candidate I(t) = A1(t) px + B1(t) x + A2(t) py + B2(t) y + C(t)
is certified by the vanishing of the residual [I, H] + i dI/dt. This module
evaluates that residual, the fifteen bracket relations it splits into for a
linear ansatz, and the constant-coefficient solution family obtained from a
rank-revealing SVD of the scalar constraints.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import mat2
from .errors import DegreeError, GridError
from .mat2 import ALPHA1, ALPHA2, BETA, ID2, Mat2
from .ncmodel import NCParams, f_eta, f_theta
from .phasepoly import (
    AffineOp,
    Coord,
    PhasePoly,
    SymplecticForm,
    commutator as ps_commutator,
    hermitian_defect,
)

CONSTRAINT_LABELS = tuple(f"25{c}" for c in "abcdefghijklmno")


def constant_invariant(
    a1: float, a3: float, b1: float, b3: float, c1: float
) -> AffineOp:
    """Scalar-constant ansatz I = a1 px + b1 x + a3 py + b3 y + c1, all
    coefficients proportional to the identity (no spin structure)."""
    return AffineOp.time_constant(
        PhasePoly.monomial(a1 * ID2, Coord.PX)
        + PhasePoly.monomial(b1 * ID2, Coord.X)
        + PhasePoly.monomial(a3 * ID2, Coord.PY)
        + PhasePoly.monomial(b3 * ID2, Coord.Y)
        + PhasePoly.constant(c1 * ID2)
    )


def invariance_residual(
    ans: AffineOp, h: AffineOp, form: SymplecticForm, t: float
) -> PhasePoly:
    """Residual polynomial [I, H] + i dI/dt at time t; the zero polynomial
    certifies I as a dynamical invariant there."""
    return ps_commutator(ans.at(t), h.at(t), form) + 1j * ans.rate(t)


def scalar_residual_closed_form(
    p: NCParams, a1: float, a3: float, b1: float, b3: float, t: float
) -> Mat2:
    """Constant-slot residual of the scalar ansatz:
    i*(a1 f_eta + b3 f_theta) alpha_2 + i*(b1 f_theta - a3 f_eta) alpha_1."""
    fe = f_eta(p, t)
    ft = f_theta(p, t)
    return 1j * (a1 * fe + b3 * ft) * ALPHA2 + 1j * (b1 * ft - a3 * fe) * ALPHA1


@dataclass(frozen=True)
class ConstraintResidualSet:
    """The fifteen labeled bracket residuals at one time."""

    t: float
    residuals: dict[str, Mat2]

    def __post_init__(self):
        if tuple(self.residuals.keys()) != CONSTRAINT_LABELS:
            raise ValueError("constraint residual labels must be exactly 25a..25o")

    @property
    def max_norm(self) -> float:
        return max(mat2.fro(m) for m in self.residuals.values())

    def norm(self, label: str) -> float:
        return mat2.fro(self.residuals[label])


def constraint_residuals(ans: AffineOp, p: NCParams, t: float) -> ConstraintResidualSet:
    """Evaluate the fifteen bracket relations that a linear ansatz
    I = A1 px + B1 x + A2 py + B2 y + C must satisfy.

    Relations a-d kill the diagonal quadratic slots, e-h the linear slots,
    i-n the mixed quadratic slots, and o closes the constant slot.
    """
    ft = f_theta(p, t)
    fe = f_eta(p, t)
    m = p.m
    poly, rate = ans.at(t), ans.rate(t)
    if poly.degree() > 1:
        raise DegreeError("the invariant ansatz must have degree <= 1")
    linear = (Coord.PX, Coord.X, Coord.PY, Coord.Y)
    a1v, b1v, a2v, b2v = (poly.linear_term(c) for c in linear)
    da1, db1, da2, db2 = (rate.linear_term(c) for c in linear)
    cv, dc = poly.const_term, rate.const_term
    comm = mat2.commutator
    res = {
        "25a": ft * comm(a1v, ALPHA1),
        "25b": ft * comm(a2v, ALPHA2),
        "25c": fe * comm(b1v, ALPHA2),
        "25d": fe * comm(b2v, ALPHA1),
        "25e": m * comm(a1v, BETA) + ft * comm(cv, ALPHA1) + 1j * da1,
        "25f": m * comm(a2v, BETA) + ft * comm(cv, ALPHA2) + 1j * da2,
        "25g": m * comm(b1v, BETA) - fe * comm(cv, ALPHA2) + 1j * db1,
        "25h": m * comm(b2v, BETA) + fe * comm(cv, ALPHA1) + 1j * db2,
        "25i": ft * comm(a1v, ALPHA2) + ft * comm(a2v, ALPHA1),
        "25j": ft * comm(b1v, ALPHA1) - fe * comm(a1v, ALPHA2),
        "25k": ft * comm(b1v, ALPHA2) - fe * comm(a2v, ALPHA2),
        "25l": fe * comm(b1v, ALPHA1) - fe * comm(b2v, ALPHA2),
        "25m": ft * comm(b2v, ALPHA1) + fe * comm(a1v, ALPHA1),
        "25n": fe * comm(a2v, ALPHA1) + ft * comm(b2v, ALPHA2),
        "25o": (
            1j * fe * (a1v @ ALPHA2)
            + 1j * ft * (b1v @ ALPHA1)
            - 1j * fe * (a2v @ ALPHA1)
            + 1j * ft * (b2v @ ALPHA2)
            - 1j * (ft * comm(b1v, ALPHA1) + ft * comm(b2v, ALPHA2))
            + m * comm(cv, BETA)
            + 1j * dc
        ),
    }
    return ConstraintResidualSet(t=float(t), residuals=res)


def default_constraint_grid(p: NCParams, n: int = 16) -> np.ndarray:
    """Uniform grid on [0, 2/max(|gamma|, 1)]: resolves the exponential profile."""
    span = 2.0 / max(abs(p.gamma), 1.0)
    return np.linspace(0.0, span, n)


@dataclass(frozen=True)
class NullspaceReport:
    """SVD analysis of the constant-coefficient constraints on (a1, a3, b1, b3)."""

    times: np.ndarray
    matrix: np.ndarray
    singular_values: np.ndarray
    tolerance: float
    rank: int
    nullspace: np.ndarray  # 4 x dimension, orthonormal columns
    note: str

    @property
    def dimension(self) -> int:
        return self.nullspace.shape[1]

    def as_dict(self) -> dict:
        return {
            "times": [float(t) for t in self.times],
            "singular_values": [float(s) for s in self.singular_values],
            "tolerance": self.tolerance,
            "rank": self.rank,
            "dimension": self.dimension,
            "nullspace_basis_columns_a1_a3_b1_b3": self.nullspace.T.tolist(),
            "note": self.note,
        }


def solve_constant_invariant(
    p: NCParams, t_grid: Sequence[float], tol_factor: float = 1e-10
) -> NullspaceReport:
    """Find all constant scalar coefficients admitting a linear invariant.

    Each grid time contributes the two rows a1*f_eta + b3*f_theta = 0 and
    b1*f_theta - a3*f_eta = 0 on the unknowns (a1, a3, b1, b3); the constant
    term c1 is always free. The nullspace is read off the SVD at the
    tolerance tol_factor * sigma_max.
    """
    ts = np.asarray(t_grid, dtype=float)
    if ts.size < 2:
        raise GridError("constraint grid needs at least 2 points")
    rows = []
    for t in ts:
        fe = f_eta(p, t)
        ft = f_theta(p, t)
        rows.append([fe, 0.0, 0.0, ft])
        rows.append([0.0, -fe, ft, 0.0])
    a = np.asarray(rows)
    _, s, vh = np.linalg.svd(a, full_matrices=True)
    tol = tol_factor * s[0] if s.size else 0.0
    rank = int(np.sum(s > tol))
    null_basis = vh[rank:].T.conj()
    dim = null_basis.shape[1]
    if dim == 0:
        note = (
            "nullspace is empty: f_eta/f_theta varies over the grid, forcing "
            "a1 = a3 = b1 = b3 = 0, so only the free constant term c1 survives. "
            "A linear invariant with freely chosen nonzero constants exists only "
            "when f_eta/f_theta is time-independent; any such constants supplied "
            "for this parameter set leave a nonzero invariance residual."
        )
    else:
        ratio = f_eta(p, ts[0]) / f_theta(p, ts[0])
        note = (
            f"nullspace dimension {dim}: f_eta/f_theta is constant (= {ratio!r}) "
            "over the grid, so the momentum/position coefficient pairs "
            "(a1, b3) and (a3, b1) each carry one free constant."
        )
    return NullspaceReport(
        times=ts,
        matrix=a,
        singular_values=s,
        tolerance=tol,
        rank=rank,
        nullspace=null_basis,
        note=note,
    )


def hermiticity_defect(ans: AffineOp, t: float) -> float:
    """Assembled-polynomial Hermiticity defect at time t."""
    return hermitian_defect(ans.at(t))


def spin_independence_defect(ans: AffineOp, t: float) -> float:
    """Largest Pauli component across slots; 0 means the ansatz is a pure
    identity-proportional (spin-independent) operator."""
    poly = ans.at(t)
    worst = 0.0
    for _, slot in poly.labeled_slots():
        c = mat2.pauli_decompose(slot)
        worst = max(worst, abs(c.c_1), abs(c.c_2), abs(c.c_3))
    return worst
