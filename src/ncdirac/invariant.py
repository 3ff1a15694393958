"""Linear dynamical invariants of the deformed Dirac system.

An invariant candidate I(t) = A1(t) px + B1(t) x + A2(t) py + B2(t) y + C(t)
is certified by the vanishing of the residual [I, H] + i hbar dI/dt, which is
i hbar times Lewis and Riesenfeld's total derivative dI/dt + [I, H]/(i hbar).
This module evaluates that residual on the commutator slots, and the
constant-coefficient solution family: its basis, and so its dimension and
membership, exact from the profiles' rate table, whatever the time grid.

The paper's fifteen bracket relations 25a-25o are a fixed relabelling of the
residual's slots (CONSTRAINT_SLOTS); their hand transcription is kept only as
a test oracle, in tests/oracle.py. Relation 25o holds as transcribed only for
coefficients that commute with alpha_1 and alpha_2, such as the scalar ansatz.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .mat2 import ID2
from .ncmodel import F_ETA, F_THETA, NCParams, profiles
from .phasepoly import (
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
    """Residual slots [I, H] + i hbar dI/dt at each time of ts, (len(ts), 15, 2, 2),
    with the canonical commutator at ``hbar``; a zero row certifies I as a
    dynamical invariant at that time. The commutator of the fixed parts is
    taken once, whatever the number of times."""
    ts = np.asarray(ts, dtype=float)
    comm = ps_commutator(ans, h, hbar)
    return comm.stack(comm.value(ts)) + 1j * hbar * ans.stack(ans.derivative(ts))


def default_constraint_grid(p: NCParams, n: int) -> np.ndarray:
    """Uniform grid of n points on [0, 2/max(|gamma|, 1)]: resolves the exponential profile."""
    span = 2.0 / max(abs(p.gamma), 1.0)
    return np.linspace(0.0, span, n)


@dataclass(frozen=True)
class NullspaceReport:
    """The constant-coefficient constraints on (a1, a3, b1, b3): their grid
    matrix and its singular values, and the exact nullspace, ``constant_family``."""

    times: np.ndarray
    matrix: np.ndarray
    singular_values: np.ndarray
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
            "rank": self.rank,
            "dimension": self.dimension,
            "nullspace_basis_columns_a1_a3_b1_b3": self.nullspace.T.tolist(),
            "note": self.note,
        }


def _constraint_rows(ft: np.ndarray, fe: np.ndarray) -> np.ndarray:
    """The rows a1*f_eta + b3*f_theta, b1*f_theta - a3*f_eta on (a1, a3, b1, b3) per ft, fe."""
    a = np.zeros((len(ft), 2, 4))
    a[:, 0, 0], a[:, 0, 3], a[:, 1, 1], a[:, 1, 2] = fe, ft, -fe, ft
    return a.reshape(-1, 4)


def constant_family(p: NCParams) -> np.ndarray:
    """Orthonormal basis, 4 x dimension, of the constants (a1, a3, b1, b3) whose
    constraints vanish at all times. Exponentials of distinct rates are
    independent, so it is the nullspace, at rounding level, of the constraints
    on the two coefficients (f_theta, f_eta) of each distinct rate (a zero term
    adds only zero rows); the rank is 4 minus its width."""
    prof = profiles(p)[[F_THETA, F_ETA]]
    coeffs = np.array([prof.amps[prof.rates == r].sum(axis=0) for r in set(prof.rates.tolist())])
    rows = _constraint_rows(*coeffs.T)
    _, s, vh = np.linalg.svd(rows)  # the full 4x4 V: a single rate gives two rows
    tol = max(rows.shape) * np.finfo(float).eps * np.abs(prof.amps).sum()
    return vh[np.count_nonzero(s > tol):].T


def in_family(basis: np.ndarray, vec: np.ndarray) -> bool:
    """Whether the constants vec = (a1, a3, b1, b3) lie in the span of the
    orthonormal ``basis``: their distance from it is within 1e-10 of max(1, |vec|)."""
    proj = basis @ (basis.T @ vec)  # 0 when the basis is empty
    return bool(np.linalg.norm(vec - proj) <= 1e-10 * max(1.0, np.linalg.norm(vec)))


def solve_constant_invariant(p: NCParams, t_grid: Sequence[float]) -> NullspaceReport:
    """Find all constant scalar coefficients admitting a linear invariant: the
    constraints ``_constraint_rows`` must vanish at all times, c1 is free.

    The nullspace is ``constant_family``, whatever the grid. The grid matrix,
    two rows per grid time, serves the closing check, and its smallest
    singular value is the margin.
    """
    ts = np.asarray(t_grid, dtype=float)
    if ts.size < 2:
        raise ValueError("constraint grid needs at least 2 points")
    ft, fe = profiles(p)[[F_THETA, F_ETA]](ts).T
    a = _constraint_rows(ft, fe)
    s = np.linalg.svd(a, full_matrices=False)[1]  # U and V unused; compute_uv=False moves s by ulps
    null_basis = constant_family(p)
    dim = null_basis.shape[1]
    if dim == 0:
        note = (
            "nullspace is empty: f_eta/f_theta varies in time, forcing "
            "a1 = a3 = b1 = b3 = 0, so only the free constant term c1 survives. "
            "A linear invariant with freely chosen nonzero constants exists only "
            "when f_eta/f_theta is time-independent; any such constants supplied "
            "for this parameter set leave a nonzero invariance residual. "
            f"On the grid over [{ts[0]:.6g}, {ts[-1]:.6g}] the nearest constants miss "
            f"the constraints by the margin sigma_min = {s[-1]:.3e}."
        )
    elif dim == 4:
        note = (
            "nullspace dimension 4: f_theta and f_eta vanish over the grid, so "
            "H = m beta commutes with every scalar ansatz and a1, a3, b1 and b3 "
            "are all free."
        )
    else:
        fe0, ft0 = float(fe[0]), float(ft[0])  # plain floats: the ratio's repr is printed
        ratio = f"f_eta/f_theta is constant (= {fe0 / ft0!r})" if ft0 else "f_theta vanishes"
        note = (
            f"nullspace dimension {dim}: {ratio} "
            "over the grid, so the momentum/position coefficient pairs "
            "(a1, b3) and (a3, b1) each carry one free constant."
        )
    return NullspaceReport(ts, a, s, 4 - dim, null_basis, note)
