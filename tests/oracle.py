"""Independent oracles used by the tests.

``represent`` is the dense matrix of a degree-<=1 polynomial on a truncated
Fock representation, one kron product per term of ladder-operator matrices
built here; the package itself applies polynomials matrix-free and builds no
such matrix. ``ehrenfest_drift`` predicts an invariant's drift from that
matrix.

The commutator oracle expands products of degree-<=1 polynomials into
monomial strings and normal-orders them one swap at a time using
[z_i, z_j] = i*Omega_ij, then converts the sorted two-letter strings to the
Weyl-symmetrized basis. It shares no code path with the slot-wise formula in
the package.
"""

from __future__ import annotations

import math

import numpy as np

from ncdirac.errors import DegreeError
from ncdirac.phasepoly import N_SLOTS, Coord, PhasePoly, SymplecticForm

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
    out = np.kron(np.eye(rep.N * rep.N), poly.const_term)
    for c in _COORDS:
        out = out + np.kron(modes[c], poly.linear_term(c))
    return out


def ehrenfest_drift(residual: PhasePoly, rep, times: np.ndarray, states: np.ndarray) -> np.ndarray:
    """<I>(t) - <I>(t0) that Ehrenfest's theorem predicts from the residual
    R = [I, H] + i dI/dt of a Hermitian I: the running trapezoid integral of
    the rate -i<R>, with <R> taken from the dense matrix of R at every
    stored state (rows of ``states``)."""
    rate = (-1j * np.vecdot(states, states @ represent(residual, rep).T)).real
    steps = 0.5 * np.diff(times) * (rate[1:] + rate[:-1])
    return np.concatenate([[0.0], np.cumsum(steps)])


def _poly_to_terms(p: PhasePoly) -> list[tuple[np.ndarray, tuple[Coord, ...]]]:
    terms = [(np.array(p.const_term), ())]
    for c in _COORDS:
        terms.append((np.array(p.linear_term(c)), (c,)))
    return [(m, s) for m, s in terms if np.any(m != 0)]


def _normal_order(coeff: np.ndarray, string: tuple[Coord, ...], form: SymplecticForm):
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
        w = float(form.omega[a, b])
        if w != 0.0:
            stack.append((1j * w * c, ()))
    return out


def string_commutator(p: PhasePoly, q: PhasePoly, form: SymplecticForm) -> PhasePoly:
    """Brute-force [P, Q] for degree-<=1 inputs via monomial-string rewriting."""
    raw: list[tuple[np.ndarray, tuple[Coord, ...]]] = []
    for mp, sp in _poly_to_terms(p):
        for mq, sq in _poly_to_terms(q):
            raw.append((mp @ mq, sp + sq))
            raw.append((-(mq @ mp), sq + sp))
    ordered: list[tuple[np.ndarray, tuple[Coord, ...]]] = []
    for c, s in raw:
        ordered.extend(_normal_order(c, s, form))
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
            w = float(form.omega[a, b])
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
