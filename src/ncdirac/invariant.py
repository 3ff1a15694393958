"""Linear dynamical invariants of the deformed Dirac system.

An invariant candidate I(t) = A1(t) px + B1(t) x + A2(t) py + B2(t) y + C(t)
is certified by the vanishing of the residual [I, H] + i dI/dt. This module
evaluates that residual on the commutator slots, and the constant-coefficient
solution family obtained from a rank-revealing SVD of the scalar constraints.

The paper's fifteen bracket relations 25a-25o are a fixed relabelling of the
residual's slots (CONSTRAINT_SLOTS); their hand transcription is kept only as
a test oracle, in tests/oracle.py. Relation 25o holds as transcribed only for
coefficients that commute with alpha_1 and alpha_2, such as the scalar ansatz.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import GridError
from .mat2 import ID2
from .ncmodel import NCParams, f_eta, f_theta
from .phasepoly import (
    GRID_BLOCK,
    N_SLOTS,
    AffineOp,
    Coord,
    PhasePoly,
    commutator as ps_commutator,
)

CONSTRAINT_LABELS = tuple(f"25{c}" for c in "abcdefghijklmno")
#: the residual slot each relation of CONSTRAINT_LABELS reads: a-d the diagonal
#: quadratic slots, e-h the linear slots, i-n the mixed quadratic slots, o the
#: constant slot
CONSTRAINT_SLOTS = (12, 14, 5, 9, 3, 4, 1, 2, 13, 7, 8, 6, 10, 11, 0)


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
    ans: AffineOp, h: AffineOp, hbar: float, ts: Sequence[float]
) -> np.ndarray:
    """Residual slots [I, H] + i dI/dt at each time of ts, (len(ts), 15, 2, 2),
    with the canonical commutator at ``hbar``; a zero row certifies I as a
    dynamical invariant at that time. One commutator call takes GRID_BLOCK
    grid times."""
    ts = [float(t) for t in ts]
    out = np.empty((len(ts), N_SLOTS, 2, 2), dtype=complex)
    for lo in range(0, len(ts), GRID_BLOCK):
        block = ts[lo : lo + GRID_BLOCK]
        comm = ps_commutator(
            ans.stack([ans.value(t) for t in block]), h.stack([h.value(t) for t in block]), hbar
        )
        out[lo : lo + len(block)] = comm + 1j * ans.stack([ans.derivative(t) for t in block])
    return out


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
    # the 4x4 V holds the nullspace; full_matrices=True would also build a (2T)x(2T) U
    _, s, vh = np.linalg.svd(a, full_matrices=False)
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
    elif dim == 4:
        note = (
            "nullspace dimension 4: f_theta and f_eta vanish over the grid, so "
            "H = m beta commutes with every scalar ansatz and a1, a3, b1 and b3 "
            "are all free."
        )
    else:
        fe, ft = f_eta(p, ts[0]), f_theta(p, ts[0])
        ratio = f"f_eta/f_theta is constant (= {fe / ft!r})" if ft else "f_theta vanishes"
        note = (
            f"nullspace dimension {dim}: {ratio} "
            "over the grid, so the momentum/position coefficient pairs "
            "(a1, b3) and (a3, b1) each carry one free constant."
        )
    return NullspaceReport(ts, a, s, tol, rank, null_basis, note)

