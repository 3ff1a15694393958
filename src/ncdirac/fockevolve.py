"""Truncated two-mode oscillator (x) spinor matrix representation of the
polynomial operators, unitary time evolution, and the derived measurements:
invariant drift, tracked instantaneous energy, and uncertainty products.

Full-space convention: matrices act on mode_x (x) mode_y (x) spinor, i.e.
kron(mode_matrix, spinor_matrix) with mode space of dimension N^2 and total
dimension 2*N^2. The canonical pair defect of the truncation is confined to
the top oscillator level n = N-1 of each mode.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DimError, GridError, SizeError
from .mat2 import ID2, Mat2
from .phasepoly import COORDS, AffineOp, Coord, PhasePoly, hermitian_defect


def _ladder(n: int) -> np.ndarray:
    a = np.zeros((n, n), dtype=complex)
    for k in range(1, n):
        a[k - 1, k] = math.sqrt(k)
    return a


@dataclass(frozen=True)
class FockRep:
    """Truncated representation: N levels per mode, oscillator scale ell."""

    N: int
    ell: float
    hbar: float
    mode_ops: dict  # Coord -> (N^2, N^2) complex array
    dim: int

    def coordinate_matrix(self, c: Coord) -> np.ndarray:
        """Full-space matrix of a canonical coordinate (spinor identity)."""
        return np.kron(self.mode_ops[c], ID2)

    def spinor_matrix(self, m: Mat2) -> np.ndarray:
        return np.kron(np.eye(self.N * self.N, dtype=complex), np.asarray(m, dtype=complex))

    def interior_projector(self) -> np.ndarray:
        """Projector onto states with n_x < N-1 and n_y < N-1 (both modes below
        the truncation edge), spinor untouched."""
        keep = np.ones(self.N)
        keep[self.N - 1] = 0.0
        d = np.kron(np.kron(keep, keep), np.ones(2))
        return np.diag(d.astype(complex))


def build_fock_rep(N: int, ell: float, hbar: float = 1.0) -> FockRep:
    """Build ladder-operator matrices for two modes.

    Per mode: x = ell (a + a^dag)/sqrt(2), p = i hbar (a^dag - a)/(sqrt(2) ell).
    """
    if N < 2:
        raise SizeError("per-mode truncation must satisfy N >= 2")
    if ell <= 0:
        raise SizeError("oscillator scale ell must be positive")
    a = _ladder(N)
    ad = a.conj().T
    x1 = ell * (a + ad) / math.sqrt(2.0)
    p1 = 1j * hbar * (ad - a) / (math.sqrt(2.0) * ell)
    eye = np.eye(N, dtype=complex)
    mode_ops = {
        Coord.X: np.kron(x1, eye),
        Coord.Y: np.kron(eye, x1),
        Coord.PX: np.kron(p1, eye),
        Coord.PY: np.kron(eye, p1),
    }
    return FockRep(N=N, ell=ell, hbar=hbar, mode_ops=mode_ops, dim=2 * N * N)


def represent(p: PhasePoly, rep: FockRep) -> np.ndarray:
    """Matrix of a polynomial operator; Weyl-ordered quadratics map to
    symmetrized matrix products, so Hermitian polynomials give Hermitian
    matrices (up to the truncation defect)."""
    n2 = rep.N * rep.N
    out = np.kron(np.eye(n2, dtype=complex), p.const_term)
    for c in COORDS:
        m = p.linear_term(c)
        if np.any(m != 0):
            out += np.kron(rep.mode_ops[c], m)
    for i_pos, i in enumerate(COORDS):
        for j in COORDS[i_pos:]:
            m = p.quad_term(i, j)
            if np.any(m != 0):
                zi = rep.mode_ops[i]
                zj = rep.mode_ops[j]
                out += np.kron(0.5 * (zi @ zj + zj @ zi), m)
    return out


def coherent_state(
    rep: FockRep,
    alpha_x: complex = 0.0,
    alpha_y: complex = 0.0,
    spinor: Sequence[complex] = (1.0, 0.0),
) -> np.ndarray:
    """Normalized spinor (x) two-mode coherent state; defaults to spin-up vacuum."""

    def mode_vec(alpha: complex) -> np.ndarray:
        v = np.zeros(rep.N, dtype=complex)
        term = 1.0 + 0.0j
        for n in range(rep.N):
            v[n] = term
            term = term * alpha / math.sqrt(n + 1)
        return v / np.linalg.norm(v)

    s = np.asarray(spinor, dtype=complex)
    s = s / np.linalg.norm(s)
    full = np.kron(np.kron(mode_vec(alpha_x), mode_vec(alpha_y)), s)
    return full / np.linalg.norm(full)


def expectation(m: np.ndarray, psi: np.ndarray) -> complex:
    """<psi| m |psi>."""
    if m.shape != (psi.size, psi.size):
        raise DimError(f"operator {m.shape} does not act on a state of size {psi.size}")
    return complex(np.vdot(psi, m @ psi))


@dataclass(frozen=True)
class EvolvedState:
    """Snapshots of a unitary evolution on a uniform grid."""

    times: np.ndarray
    states: np.ndarray  # (n_t, dim) complex
    norm_drift: float
    energy: np.ndarray | None  # tracked instantaneous eigenvalue, or None


def _check_uniform(t_grid: np.ndarray) -> float:
    if t_grid.size < 2:
        raise GridError("evolution grid needs at least 2 points")
    steps = np.diff(t_grid)
    dt = steps[0]
    if dt <= 0 or np.max(np.abs(steps - dt)) > 1e-12 * max(1.0, abs(dt)):
        raise GridError("evolution grid must be uniform and increasing")
    return float(dt)


def evolve(
    h: AffineOp,
    rep: FockRep,
    psi0: np.ndarray,
    t_grid: Sequence[float],
    track_energy: bool = False,
) -> EvolvedState:
    """Midpoint-sampled exponential stepping psi_{k+1} = exp(-i H(t_mid) dt) psi_k.

    Each step generator is diagonalized exactly (Hermitian eigendecomposition),
    so every step is unitary to machine precision; dt controls only the
    time-ordering error. The step propagator and the energy tracker share one
    decomposition, rebuilt only when the coefficients of H change, which
    collapses the cost for time-constant Hamiltonians.
    """
    ts = np.asarray(t_grid, dtype=float)
    dt = _check_uniform(ts)
    psi = np.asarray(psi0, dtype=complex)
    if psi.size != rep.dim:
        raise DimError(f"state size {psi.size} does not match representation dim {rep.dim}")
    nrm = np.linalg.norm(psi)
    if abs(nrm - 1.0) > 1e-10:
        raise ValueError(f"initial state must be unit norm, got {nrm}")

    n_t = ts.size
    states = np.zeros((n_t, rep.dim), dtype=complex)
    states[0] = psi
    energy = np.zeros(n_t) if track_energy else None

    # the last generator's coefficients, its decomposition, and its step propagator
    last_coeffs, last_eig, last_u = None, None, None

    def decomposition(t: float) -> tuple[np.ndarray, np.ndarray]:
        nonlocal last_coeffs, last_eig, last_u
        coeffs = tuple(h.value(t))
        if coeffs != last_coeffs:
            last_eig = np.linalg.eigh(represent(h.combine(coeffs), rep))
            last_coeffs, last_u = coeffs, None
        return last_eig

    e_prev = 0.0

    def tracked_energy(t: float, psi_now: np.ndarray, first: bool) -> float:
        nonlocal e_prev
        w, v = decomposition(t)
        if first:
            overlaps = np.abs(v.conj().T @ psi_now) ** 2
            e_prev = float(w[int(np.argmax(overlaps))])
        else:
            e_prev = float(w[int(np.argmin(np.abs(w - e_prev)))])
        return e_prev

    if track_energy:
        energy[0] = tracked_energy(float(ts[0]), psi, first=True)

    for k in range(n_t - 1):
        w, v = decomposition(float(ts[k]) + 0.5 * dt)
        if last_u is None:
            last_u = (v * np.exp(-1j * w * dt)) @ v.conj().T
        psi = last_u @ psi
        states[k + 1] = psi
        if track_energy:
            energy[k + 1] = tracked_energy(float(ts[k + 1]), psi, first=False)

    norms = np.linalg.norm(states, axis=1)
    return EvolvedState(
        times=ts,
        states=states,
        norm_drift=float(np.max(np.abs(norms - 1.0))),
        energy=energy,
    )


@dataclass(frozen=True)
class DriftSeries:
    """Expectation history of a candidate invariant along an evolution."""

    times: np.ndarray
    values: np.ndarray  # <I>(t), complex
    drift: np.ndarray  # <I>(t) - <I>(0)
    relative_max: float  # max |drift| / (|<I>(0)| + 1)
    projection_overlap: np.ndarray | None


def invariant_drift(
    i_op: AffineOp | np.ndarray,
    evolved: EvolvedState,
    rep: FockRep | None = None,
    projection_target: float | None = None,
) -> DriftSeries:
    """Measure <I>(t) - <I>(0) along the evolution.

    Accepts a represented matrix or a time-dependent operator, represented
    again only at samples where its coefficients change. With
    projection_target set, also records the weight of the state inside the
    eigenspace of I(t0) with eigenvalues within 1e-8 of the target.
    """
    times = evolved.times
    if isinstance(i_op, np.ndarray):
        mats = [i_op] * times.size
    else:
        if rep is None:
            raise ValueError("rep is required to represent an operator")
        mats = []
        last_coeffs = None
        for t in times:
            coeffs = tuple(i_op.value(float(t)))
            if coeffs != last_coeffs:
                last_mat = represent(i_op.combine(coeffs), rep)
                last_coeffs = coeffs
            mats.append(last_mat)

    values = np.array(
        [expectation(m, s) for m, s in zip(mats, evolved.states)], dtype=complex
    )
    drift = values - values[0]
    rel = float(np.max(np.abs(drift)) / (abs(values[0]) + 1.0))

    overlap = None
    if projection_target is not None:
        w, v = np.linalg.eigh(mats[0])
        sel = np.abs(w - projection_target) <= 1e-8 * max(1.0, abs(projection_target))
        basis = v[:, sel]
        overlap = np.array(
            [float(np.sum(np.abs(basis.conj().T @ s) ** 2)) for s in evolved.states]
        )
    return DriftSeries(
        times=times, values=values, drift=drift, relative_max=rel, projection_overlap=overlap
    )


def ehrenfest_rate_series(r_mat: np.ndarray, evolved: EvolvedState) -> np.ndarray:
    """Predicted d<I>/dt from the residual operator R = [I,H] + i dI/dt:
    the rate is -i <R> along the evolution (real for Hermitian I)."""
    return np.array(
        [(-1j * expectation(r_mat, s)).real for s in evolved.states]
    )


def cumulative_trapezoid(times: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Running trapezoid integral, same length as the input, starting at 0."""
    out = np.zeros(len(values), dtype=np.result_type(values, float))
    if len(values) > 1:
        h = np.diff(times)
        out[1:] = np.cumsum(0.5 * h * (values[1:] + values[:-1]))
    return out


@dataclass(frozen=True)
class UncertaintyResult:
    product: float  # dA * dB
    bound: float  # |<[A,B]>| / 2
    margin: float  # product - bound


def uncertainty_check_matrices(
    psi: np.ndarray, a_mat: np.ndarray, b_mat: np.ndarray
) -> UncertaintyResult:
    """Robertson inequality data for two Hermitian matrices on one state."""
    a_psi = a_mat @ psi
    b_psi = b_mat @ psi
    ea = np.vdot(psi, a_psi).real
    eb = np.vdot(psi, b_psi).real
    var_a = max(float(np.vdot(a_psi, a_psi).real - ea * ea), 0.0)
    var_b = max(float(np.vdot(b_psi, b_psi).real - eb * eb), 0.0)
    comm_exp = np.vdot(a_psi, b_psi) - np.vdot(b_psi, a_psi)
    product = math.sqrt(var_a) * math.sqrt(var_b)
    bound = 0.5 * abs(comm_exp)
    return UncertaintyResult(product=product, bound=bound, margin=product - bound)


def uncertainty_check(
    psi: np.ndarray,
    a: PhasePoly,
    b: PhasePoly,
    rep: FockRep,
    herm_tol: float = 1e-10,
) -> UncertaintyResult:
    """Robertson inequality data for two Hermitian polynomial observables."""
    for name, poly in (("A", a), ("B", b)):
        defect = hermitian_defect(poly)
        if defect > herm_tol:
            raise ValueError(f"observable {name} is not Hermitian (defect {defect:.3e})")
    return uncertainty_check_matrices(psi, represent(a, rep), represent(b, rep))


def write_evolution_csv(
    path,
    times: np.ndarray,
    exp_i: np.ndarray,
    drift: np.ndarray,
    dxdpx: np.ndarray,
    bound: np.ndarray,
    margin: np.ndarray,
    e_tracked: np.ndarray | None,
) -> None:
    """CSV export: t, Re<I>, drift, dx*dpx, bound, margin, E_tracked."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["t", "re_I", "drift", "dx_dpx", "bound", "margin", "E_tracked"])
        for k, t in enumerate(times):
            row = [
                format(float(t), ".17g"),
                format(float(exp_i[k].real), ".17g"),
                format(float(np.abs(drift[k])), ".17g"),
                format(float(dxdpx[k]), ".17g"),
                format(float(bound[k]), ".17g"),
                format(float(margin[k]), ".17g"),
                format(float(e_tracked[k]), ".17g") if e_tracked is not None else "",
            ]
            w.writerow(row)
