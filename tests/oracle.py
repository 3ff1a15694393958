"""Independent oracles used by the tests.

``represent`` is the dense matrix of a degree-<=1 polynomial on a truncated
Fock representation, one kron product per term of ladder-operator matrices
built here; the package itself applies polynomials matrix-free and builds no
such matrix. ``ehrenfest_drift`` predicts an invariant's drift from that
matrix.

The commutator oracle expands products of degree-<=1 polynomials into
monomial strings and normal-orders them one swap at a time using
[z_i, z_j] = i*Omega_ij, with its own canonical pairing Omega at hbar, then
converts the sorted two-letter strings to the Weyl-symmetrized basis. It
shares no code path with the slot-wise formula in the package. ``slot_norm``
is the largest Frobenius norm over a polynomial's slots, summed entry by entry,
and ``slot_distance`` that norm of the difference of two polynomials' slots.

``rk4_reference`` is the step-by-step classical RK4 on the six-component
phase/envelope state, one right-hand side call per stage and step, seeded by
``closed_state_scalar``, the paper's closed forms evaluated with ``cmath`` at
one time. The package steps the envelope alone and evaluates the four
stages' weighted sum in one call over all steps. Its right-hand side and the
constraint oracles below read ``f_theta`` and ``f_eta``, the paper's dressings
written out with ``math`` at one time; the package evaluates them as one
exponential sum over a time array.

``resolved_expm1`` is the Krylov error-estimate scan with phi1 evaluated in
complex arithmetic, (e^z - 1)/z by ``expm1``; the package takes phi1(-i theta)
from real sines and cosines of theta/2.

``constraint_residuals`` is the paper's hand transcription of the fifteen
bracket relations 25a-25o that a linear invariant ansatz must satisfy, with
its own 2x2 commutator; the package reads the same relations off the slots of
``invariance_residual`` (``CONSTRAINT_SLOTS``). ``scalar_residual_closed_form``
is the constant slot of a scalar ansatz written out by hand.

``grid_nullspace`` reads the constant family's basis off a time grid, as the
last right singular vectors of the constraints at the grid times, and
``in_span`` is the 1e-10 projection test on such a basis; the package takes
the basis from one SVD of the per-rate constraint table instead.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from ncdirac.errors import DegreeError
from ncdirac.invariant import CONSTRAINT_LABELS
from ncdirac.mat2 import ALPHA1, ALPHA2, BETA
from ncdirac.phasepoly import N_SLOTS, AffineOp, Coord, PhasePoly

_COORDS = (Coord.X, Coord.Y, Coord.PX, Coord.PY)


def ladder_modes(n: int, ell: float, hbar: float) -> dict[Coord, np.ndarray]:
    """The four two-mode coordinate matrices (n^2, n^2), built from the ladder
    matrix a: x = ell (a + a^dag)/sqrt(2), p = i hbar (a^dag - a)/(sqrt(2) ell)."""
    a = np.diag(np.sqrt(np.arange(1.0, n)), 1)
    x = ell * (a + a.T) / math.sqrt(2.0)
    p = 1j * hbar * (a.T - a) / (math.sqrt(2.0) * ell)
    eye = np.eye(n)
    return {
        Coord.X: np.kron(x, eye),
        Coord.Y: np.kron(eye, x),
        Coord.PX: np.kron(p, eye),
        Coord.PY: np.kron(eye, p),
    }


def represent(poly: PhasePoly, rep) -> np.ndarray:
    """Dense (dim, dim) matrix of a degree-<=1 polynomial on the truncation
    ``rep`` (its N, ell and hbar), ordered mode_x (x) mode_y (x) spinor."""
    if poly.degree() > 1:
        raise DegreeError("only polynomials of degree <= 1 are represented")
    modes = ladder_modes(rep.N, rep.ell, rep.hbar)
    out = np.kron(np.eye(rep.N * rep.N), poly.slots[0])
    for c in _COORDS:
        out = out + np.kron(modes[c], poly.slots[1 + c])
    return out


def resolved_expm1(tau, lo, hi, lam, s, beta, tol, block):
    """How many leading samples k tau, k = lo+1..hi, have the error estimate
    k tau beta |e_m^T phi1(-i k tau T) e_1| within tol, T = s diag(lam) s^T,
    phi1(z) = (e^z - 1)/z with phi1(0) = 1, scanned ``block`` samples at a time."""
    for a in range(lo, hi, block):
        tk = tau * np.arange(a + 1, min(a + block, hi) + 1)
        z = -1j * np.multiply.outer(tk, lam)
        nonzero = np.where(z == 0, 1.0, z)
        phi1 = np.where(z == 0, 1.0, np.expm1(nonzero) / nonzero)
        bad = np.flatnonzero(~(tk * beta * np.abs(phi1 @ (s[-1] * s[0])) <= tol))
        if bad.size:
            return a - lo + int(bad[0])
    return hi - lo


def ehrenfest_drift(residual: PhasePoly, rep, times: np.ndarray, states: np.ndarray) -> np.ndarray:
    """<I>(t) - <I>(t0) that Ehrenfest's theorem predicts from the residual
    R = [I, H] + i hbar dI/dt of a Hermitian I: the running trapezoid integral
    of the rate -i<R>/hbar, with <R> taken from the dense matrix of R at every
    stored state (rows of ``states``)."""
    rate = (-1j * np.vecdot(states, states @ represent(residual, rep).T)).real / rep.hbar
    steps = 0.5 * np.diff(times) * (rate[1:] + rate[:-1])
    return np.concatenate([[0.0], np.cumsum(steps)])


def _poly_to_terms(p: PhasePoly) -> list[tuple[np.ndarray, tuple[Coord, ...]]]:
    terms = [(np.array(p.slots[0]), ())]
    for c in _COORDS:
        terms.append((np.array(p.slots[1 + c]), (c,)))
    return [(m, s) for m, s in terms if np.any(m != 0)]


def slot_norm(p: PhasePoly) -> float:
    """Max over the 15 slots of the Frobenius norm; 0 iff p is the zero operator."""
    return max(math.sqrt(sum(abs(z) ** 2 for z in m.flat)) for m in p.slots)


def slot_distance(p: PhasePoly, q: PhasePoly) -> float:
    """slot_norm of P - Q, taken slot by slot; 0 iff P and Q are the same operator."""
    return slot_norm(PhasePoly(p.slots - q.slots))


def _canonical_omega(hbar: float) -> np.ndarray:
    """Omega_ij = [z_i, z_j]/i: [x, px] = [y, py] = i*hbar, all other pairs commute."""
    om = np.zeros((4, 4))
    om[Coord.X, Coord.PX] = om[Coord.Y, Coord.PY] = hbar
    om[Coord.PX, Coord.X] = om[Coord.PY, Coord.Y] = -hbar
    return om


def _normal_order(coeff: np.ndarray, string: tuple[Coord, ...], omega: np.ndarray):
    """Rewrite one monomial string into sorted strings via single swaps."""
    out = []
    stack = [(coeff, string)]
    while stack:
        c, s = stack.pop()
        if len(s) < 2 or s[0] <= s[1]:
            out.append((c, s))
            continue
        # z_a z_b = z_b z_a + i*Omega_ab for a > b
        a, b = s
        stack.append((c, (b, a)))
        w = float(omega[a, b])
        if w != 0.0:
            stack.append((1j * w * c, ()))
    return out


def string_commutator(p: PhasePoly, q: PhasePoly, hbar: float) -> PhasePoly:
    """Brute-force [P, Q] for degree-<=1 inputs via monomial-string rewriting
    under the canonical relations at hbar."""
    omega = _canonical_omega(hbar)
    raw: list[tuple[np.ndarray, tuple[Coord, ...]]] = []
    for mp, sp in _poly_to_terms(p):
        for mq, sq in _poly_to_terms(q):
            raw.append((mp @ mq, sp + sq))
            raw.append((-(mq @ mp), sq + sp))
    ordered: list[tuple[np.ndarray, tuple[Coord, ...]]] = []
    for c, s in raw:
        ordered.extend(_normal_order(c, s, omega))
    result = PhasePoly(np.zeros((N_SLOTS, 2, 2)))
    for c, s in ordered:
        if len(s) == 0:
            result = result + PhasePoly.constant(c)
        elif len(s) == 1:
            result = result + PhasePoly.monomial(c, s[0])
        else:
            # sorted product: z_a z_b = S(z_a z_b) + (i/2)*Omega_ab
            a, b = s
            result = result + PhasePoly.monomial(c, a, b)
            w = float(omega[a, b])
            if w != 0.0:
                result = result + PhasePoly.constant(0.5j * w * c)
    return result


def random_mat2(rng: np.random.Generator) -> np.ndarray:
    return rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))


def random_linear_poly(rng: np.random.Generator, scalar_coeffs: bool = False) -> PhasePoly:
    """Random degree-<=1 polynomial; scalar_coeffs restricts to identity-proportional."""
    poly = PhasePoly(np.zeros((N_SLOTS, 2, 2)))
    for c in _COORDS:
        m = (rng.standard_normal() + 1j * rng.standard_normal()) * np.eye(2) \
            if scalar_coeffs else random_mat2(rng)
        poly = poly + PhasePoly.monomial(m, c)
    m0 = (rng.standard_normal() + 1j * rng.standard_normal()) * np.eye(2) \
        if scalar_coeffs else random_mat2(rng)
    return poly + PhasePoly.constant(m0)


def mat_commutator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """[a, b] of 2x2 matrices, or of stacks (..., 2, 2)."""
    return a @ b - b @ a


def f_theta(p, t: float) -> float:
    """The momentum dressing f_theta(t) = 1 + e B theta e^{gamma t}/(4 hbar) at one time."""
    return 1.0 + 0.25 * p.e * p.B * p.theta * math.exp(p.gamma * t) / p.hbar


def f_eta(p, t: float) -> float:
    """The position dressing f_eta(t) = e B/2 + eta e^{-gamma t}/(2 hbar) at one time."""
    return 0.5 * p.e * p.B + 0.5 * p.eta * math.exp(-p.gamma * t) / p.hbar


def _profiles(p, ts) -> tuple[np.ndarray, np.ndarray]:
    """f_theta and f_eta at each time, as (len(ts), 1, 1) columns."""
    ft = np.array([f_theta(p, t) for t in ts])[:, None, None]
    fe = np.array([f_eta(p, t) for t in ts])[:, None, None]
    return ft, fe


def scalar_residual_closed_form(p, a1, a3, b1, b3, ts) -> np.ndarray:
    """Constant-slot residual of the scalar ansatz at each time of ts,
    (len(ts), 2, 2): i*(a1 f_eta + b3 f_theta) alpha_2 + i*(b1 f_theta - a3 f_eta) alpha_1."""
    ft, fe = _profiles(p, [float(t) for t in ts])
    return 1j * (a1 * fe + b3 * ft) * ALPHA2 + 1j * (b1 * ft - a3 * fe) * ALPHA1


def _constraint_rows(pairs) -> np.ndarray:
    """Rows a1 f_eta + b3 f_theta and b1 f_theta - a3 f_eta on (a1, a3, b1, b3)
    for each (f_theta, f_eta) pair."""
    return np.array([row for ft, fe in pairs for row in ([fe, 0, 0, ft], [0, -fe, ft, 0])], dtype=float)


def grid_nullspace(p, ts) -> np.ndarray:
    """Orthonormal basis, 4 x dimension, of the constants (a1, a3, b1, b3)
    whose constraint rows vanish at the times ts: the last right singular
    vectors of the rows at those times. The dimension is that of the rows on
    the summed (f_theta, f_eta) coefficients of each distinct rate, at
    rounding level."""
    eb = p.e * p.B
    terms = {0.0: np.array([1.0, 0.5 * eb])}  # rate -> (f_theta, f_eta) coefficients
    for rate, coeffs in ((p.gamma, [0.25 * eb * p.theta / p.hbar, 0.0]),
                         (-p.gamma, [0.0, 0.5 * p.eta / p.hbar])):
        terms[rate] = terms.get(rate, 0.0) + np.array(coeffs)
    table = _constraint_rows(terms.values())
    scale = 1.0 + abs(0.5 * eb) + abs(0.25 * eb * p.theta / p.hbar) + abs(0.5 * p.eta / p.hbar)
    rank = np.linalg.matrix_rank(table, max(table.shape) * np.finfo(float).eps * scale)
    _, _, vh = np.linalg.svd(_constraint_rows((f_theta(p, t), f_eta(p, t)) for t in ts), full_matrices=False)
    return vh[rank:].T


def in_span(basis: np.ndarray, vec: np.ndarray) -> bool:
    """Whether vec is within 1e-10 max(1, |vec|) of the span of the orthonormal basis."""
    proj = basis @ (basis.T @ vec)
    return bool(np.linalg.norm(vec - proj) <= 1e-10 * max(1.0, np.linalg.norm(vec)))


def constraint_residuals(ans: AffineOp, p, ts) -> dict[str, np.ndarray]:
    """Label -> (len(ts), 2, 2) stack: the fifteen bracket relations that a
    linear ansatz I = A1 px + B1 x + A2 py + B2 y + C must satisfy, at each
    time of ts, as the paper writes them: at hbar = 1, where every caller
    takes them, so the rate terms read i dA/dt rather than i hbar dA/dt.

    Relations a-d kill the diagonal quadratic slots, e-h the linear slots,
    i-n the mixed quadratic slots, and o closes the constant slot.
    """
    ts = np.asarray(ts, dtype=float)
    ft, fe = _profiles(p, ts.tolist())
    m = p.m
    poly = ans.stack(ans.value(ts))
    rate = ans.stack(ans.derivative(ts))
    if np.any(poly[:, 5:] != 0):
        raise DegreeError("the invariant ansatz must have degree <= 1")
    linear = [1 + c for c in (Coord.PX, Coord.X, Coord.PY, Coord.Y)]
    a1v, b1v, a2v, b2v = (poly[:, k] for k in linear)
    da1, db1, da2, db2 = (rate[:, k] for k in linear)
    cv, dc = poly[:, 0], rate[:, 0]
    comm = mat_commutator
    res = (
        ft * comm(a1v, ALPHA1),
        ft * comm(a2v, ALPHA2),
        fe * comm(b1v, ALPHA2),
        fe * comm(b2v, ALPHA1),
        m * comm(a1v, BETA) + ft * comm(cv, ALPHA1) + 1j * da1,
        m * comm(a2v, BETA) + ft * comm(cv, ALPHA2) + 1j * da2,
        m * comm(b1v, BETA) - fe * comm(cv, ALPHA2) + 1j * db1,
        m * comm(b2v, BETA) + fe * comm(cv, ALPHA1) + 1j * db2,
        ft * comm(a1v, ALPHA2) + ft * comm(a2v, ALPHA1),
        ft * comm(b1v, ALPHA1) - fe * comm(a1v, ALPHA2),
        ft * comm(b1v, ALPHA2) - fe * comm(a2v, ALPHA2),
        fe * comm(b1v, ALPHA1) - fe * comm(b2v, ALPHA2),
        ft * comm(b2v, ALPHA1) + fe * comm(a1v, ALPHA1),
        fe * comm(a2v, ALPHA1) + ft * comm(b2v, ALPHA2),
        1j * fe * (a1v @ ALPHA2)
        + 1j * ft * (b1v @ ALPHA1)
        - 1j * fe * (a2v @ ALPHA1)
        + 1j * ft * (b2v @ ALPHA2)
        - 1j * (ft * comm(b1v, ALPHA1) + ft * comm(b2v, ALPHA2))
        + m * comm(cv, BETA)
        + 1j * dc,
    )
    return dict(zip(CONSTRAINT_LABELS, res))


def closed_state_scalar(p, t: float, xi3: complex = 0j, xi4: complex = 0j) -> np.ndarray:
    """(xi1, xi2, xi3, xi4, F1, F2) of the closed forms at one time, at hbar = 1:
    xi1 = -i [kappa e B/(4 i m) e^{2imt} + eta kappa/(4 i m - 2 gamma) e^{(-gamma+2im)t}],
    xi2 = xi1/i, F1 = e^{q1 - imt}, F2 = e^{q2 + imt}."""
    xi1 = -1j * (
        (p.kappa * p.e * p.B) / (4j * p.m) * cmath.exp(2j * p.m * t)
        + (p.eta * p.kappa) / (4j * p.m - 2.0 * p.gamma) * cmath.exp((-p.gamma + 2j * p.m) * t)
    )
    f1, f2 = cmath.exp(complex(p.q1, -p.m * t)), cmath.exp(complex(p.q2, p.m * t))
    return np.array([xi1, xi1 / 1j, xi3, xi4, f1, f2], dtype=complex)


def _rk4_rhs(p, t: float, y: np.ndarray) -> np.ndarray:
    """dxi1 = -i f_eta F2/F1, dxi2 = -f_eta F2/F1, dxi3 = dxi4 = 0,
    dF1 = -i m F1, dF2 = i m F2 at one time, at hbar = 1."""
    ratio = y[5] / y[4]
    fe = f_eta(p, t)
    return np.array([-1j * fe * ratio, -fe * ratio, 0, 0, -1j * p.m * y[4], 1j * p.m * y[5]])


def rk4_reference(p, t0: float, t1: float, dt: float, xi3: complex = 0j, xi4: complex = 0j):
    """(times, states (n + 1, 6)) of classical RK4 taken one step at a time,
    by h = (t1 - t0)/n from the sample t0 + (t1 - t0) k/n to the next."""
    n_steps = max(1, int(round((t1 - t0) / dt)))
    h = (t1 - t0) / n_steps
    times = t0 + (t1 - t0) * np.arange(n_steps + 1) / n_steps
    states = np.zeros((n_steps + 1, 6), dtype=complex)
    y = states[0] = closed_state_scalar(p, t0, xi3, xi4)
    for k in range(n_steps):
        t = times[k]
        k1 = _rk4_rhs(p, t, y)
        k2 = _rk4_rhs(p, t + 0.5 * h, y + 0.5 * h * k1)
        k3 = _rk4_rhs(p, t + 0.5 * h, y + 0.5 * h * k2)
        k4 = _rk4_rhs(p, t + h, y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        states[k + 1] = y
    return times, states
