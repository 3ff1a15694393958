"""Physical parameter record, time-dependent Bopp shift, deformed-algebra
verification, and the commutative / noncommutative Dirac Hamiltonians.

The noncommutative structure scales exponentially in time: the
position-position scale runs as theta*e^{gamma t} and the momentum-momentum
scale as eta*e^{-gamma t}, so their product is time-independent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import phasepoly
from .errors import ConfigError
from .mat2 import ALPHA1, ALPHA2, BETA, ID2
from .phasepoly import N_SLOTS, AffineOp, Coord, ExpSum, PhasePoly, residual_norms

#: consistency regime bound on |theta*eta/(4*hbar^2)|
CONSISTENCY_WARN_THRESHOLD = 1e-2


@dataclass(frozen=True)
class NCParams:
    """Model parameters.

    theta (length^2) and eta (momentum^2) set the deformation scales, gamma
    (1/time) their exponential time profile, B the magnetic field along z,
    e the signed charge, m > 0 the mass. kappa = exp(q2 - q1) is derived
    from the envelope amplitudes q1, q2.
    """

    theta: float = 0.0
    eta: float = 0.0
    gamma: float = 0.0
    B: float = 1.0
    e: float = 1.0
    m: float = 1.0
    hbar: float = 1.0
    q1: float = 0.0
    q2: float = 0.0
    kappa: float = field(init=False)

    def __post_init__(self):
        if self.m <= 0:
            raise ValueError("mass m must be positive")
        if self.hbar <= 0:
            raise ValueError("hbar must be positive")
        object.__setattr__(self, "kappa", math.exp(self.q2 - self.q1))
        consistency_ratio(self)  # an hbar^2 beyond the float range raises ArithmeticError


def check_window(t0: float, t1: float, dt: float) -> None:
    """Raise ConfigError unless the window t0 < t1 holds at least one step dt > 0."""
    if dt <= 0:
        raise ConfigError("dt must be positive")
    if t1 <= t0:
        raise ConfigError("t1 must exceed t0")
    if dt > t1 - t0:
        raise ConfigError("dt exceeds the interval t1 - t0")


def step_count(t0: float, t1: float, dt: float) -> int:
    """Steps n = max(1, round((t1 - t0)/dt)), each (t1 - t0)/n, of the checked window."""
    check_window(t0, t1, dt)
    return max(1, round((t1 - t0) / dt))


def sample_times(t0: float, t1: float, n: int) -> np.ndarray:
    """The n + 1 times t0 + (t1 - t0) k/n, k = 0..n: the time grid of xi and
    evolve. ConfigError when two consecutive times round to one float."""
    ts = t0 + (t1 - t0) * np.arange(n + 1) / n
    if not np.all(ts[1:] > ts[:-1]):
        raise ConfigError(f"{n} steps from t0={t0!r} to t1={t1!r} are finer than the "
                          "float spacing there: two sample times coincide")
    return ts


def consistency_ratio(p: NCParams) -> float:
    """|theta*eta / (4*hbar^2)|, the small-deformation figure of merit."""
    return abs(p.theta * p.eta / (4.0 * p.hbar**2))


def hbar_eff(p: NCParams) -> float:
    """Effective Planck constant hbar*(1 + theta*eta/(4*hbar^2))."""
    return p.hbar * (1.0 + p.theta * p.eta / (4.0 * p.hbar**2))


#: the columns of the ``profiles`` record
THETA, ETA, F_THETA, F_ETA = range(4)


def profiles(p: NCParams) -> ExpSum:
    """theta(t) = theta e^{gamma t}, eta(t) = eta e^{-gamma t} and the dressings
    f_theta(t) = 1 + e*B theta(t)/(4 hbar), f_eta(t) = e*B/2 + eta(t)/(2 hbar) of
    H's momentum and position slots, which the Bopp shift's 1/(2 hbar) gives, as
    one exponential sum over the rates (0, gamma, -gamma) with the columns THETA,
    ETA, F_THETA, F_ETA. An e*B beyond the float range raises under np.errstate."""
    eb = np.float64(p.e) * p.B
    amps = [[0.0, 0.0, 1.0, 0.5 * eb],
            [p.theta, 0.0, 0.25 * eb * p.theta / p.hbar, 0.0],
            [0.0, p.eta, 0.0, 0.5 * p.eta / p.hbar]]
    return ExpSum(np.array([0.0, p.gamma, -p.gamma]), np.array(amps))


# shifted coordinate -> (partner, sign, which of the two Bopp scales)
_BOPP = {
    Coord.X: (Coord.PY, -1.0, 0),
    Coord.Y: (Coord.PX, +1.0, 0),
    Coord.PX: (Coord.Y, +1.0, 1),
    Coord.PY: (Coord.X, -1.0, 1),
}


def bopp_shift(p: NCParams) -> tuple[AffineOp, ...]:
    """The four shifted operators in the Coord order, each a coordinate and its
    signed partner, times the identity spinor, with the coefficients
    (1, s_theta(t)) or (1, s_eta(t)) for the Bopp scales s_theta = theta(t)/2hbar
    and s_eta = eta(t)/2hbar, read from the THETA and ETA columns of the profiles:

    x_nc  = x  - s_theta py      px_nc = px + s_eta y
    y_nc  = y  + s_theta px      py_nc = py - s_eta x
    """
    scales = profiles(p)[[THETA, ETA]]

    def rows(f, which, lead):
        return lambda ts: np.column_stack([np.full(len(ts), lead), 0.5 * f(ts)[:, which] / p.hbar])

    return tuple(
        AffineOp((PhasePoly.monomial(ID2, c), PhasePoly.monomial(sign * ID2, partner)),
                 rows(scales, which, 1.0), rows(scales.derivative(), which, 0.0))
        for c, (partner, sign, which) in _BOPP.items()
    )


# the six deformed commutators: label and the two shifted operators
_ALGEBRA_PAIRS = (
    ("[x_nc,y_nc]", Coord.X, Coord.Y),
    ("[px_nc,py_nc]", Coord.PX, Coord.PY),
    ("[x_nc,px_nc]", Coord.X, Coord.PX),
    ("[y_nc,py_nc]", Coord.Y, Coord.PY),
    ("[x_nc,py_nc]", Coord.X, Coord.PY),
    ("[y_nc,px_nc]", Coord.Y, Coord.PX),
)


@dataclass(frozen=True)
class DeformedAlgebraReport:
    """Check table: row k is grid time ``times[k]``, column j the pair
    ``_ALGEBRA_PAIRS[j]``, whose commutator should be ``expected[k, j]`` * identity."""

    times: np.ndarray  # (n,)
    expected: np.ndarray  # (n, 6) complex
    deviation: np.ndarray  # (n, 6)

    @property
    def max_deviation(self) -> float:
        """Largest deviation; NaN when any deviation is NaN."""
        return float(np.max(self.deviation))

    def worst(self, relative: bool = False) -> dict:
        """The first NaN check, else the first largest deviation in time-major,
        pair order, as {"pair", "t", "deviation"}; ``relative`` takes each over
        max(1, |expected|), as a commutator of i hbar_eff = 1e5 i rounds at its ulp."""
        deviation = self.deviation / (np.maximum(1.0, np.abs(self.expected)) if relative else 1.0)
        k, j = np.unravel_index(np.argmax(deviation), deviation.shape)
        dev = float(deviation[k, j])
        return {"pair": _ALGEBRA_PAIRS[j][0], "t": float(self.times[k]), "deviation": dev}

    def as_dict(self) -> dict:
        labels = [label for label, _, _ in _ALGEBRA_PAIRS]
        rows = zip(self.times.tolist(), self.expected.tolist(), self.deviation.tolist())
        checks = [
            {"t": t, "pair": label, "expected_re": e.real, "expected_im": e.imag, "deviation": dev}
            for t, expected, deviations in rows
            for label, e, dev in zip(labels, expected, deviations)
        ]
        return {"checks": checks, "max_deviation": self.max_deviation}


def verify_nc_algebra(p: NCParams, t_grid: Sequence[float]) -> DeformedAlgebraReport:
    """Check the six deformed commutators of the Bopp-shifted operators.

    At each grid time the commutators are computed through the polynomial
    algebra and compared against i*theta(t), i*eta(t), i*hbar_eff and 0. One
    ``commutator_slots`` call commutes the fixed parts of all six pairs; each
    shifted operator's coefficients are one evaluation over the grid, and each
    pair's products a_k(t) b_l(t) weigh its four fixed commutators, one pair
    at a time.
    """
    if len(t_grid) == 0:
        raise ValueError("t_grid must be nonempty")
    times = np.array(t_grid, dtype=float)
    expected = np.zeros((len(times), len(_ALGEBRA_PAIRS)), dtype=complex)
    expected[:, :2] = 1j * profiles(p)[[THETA, ETA]](times)
    expected[:, 2:4] = 1j * hbar_eff(p)
    ops = bopp_shift(p)
    fixed = np.array([[poly.slots[:5] for poly in op.polys] for op in ops])  # (4, 2, 5, 2, 2)
    left, right = np.array([pair[1:] for pair in _ALGEBRA_PAIRS]).T
    # through the module, so a patch of phasepoly.commutator_slots sees this call
    comms = phasepoly.commutator_slots(fixed[left, :, None], fixed[right, None, :], p.hbar)
    rows = [op.value(times) for op in ops]
    deviation = np.empty(expected.shape)
    for j, (a, b) in enumerate(zip(left, right)):
        products = phasepoly.row_products(rows[a], rows[b])
        measured = phasepoly.combine_slots(products, comms[j].reshape(-1, N_SLOTS, 2, 2))
        measured[:, 0] -= expected[:, j, None, None] * ID2
        deviation[:, j] = residual_norms(measured)
    return DeformedAlgebraReport(times, expected, deviation)


def build_h_commutative(p: NCParams) -> AffineOp:
    """Dirac Hamiltonian in the symmetric gauge with commutative coordinates.

    H = c a1 px + c a2 py + e a1 (B/2) y - e a2 (B/2) x + beta m c^2. The
    parameter record carries no light speed, so c = 1. ``h_nc_via_bopp``
    substitutes the Bopp-shifted operators into it.
    """
    h = (
        PhasePoly.monomial(ALPHA1, Coord.PX)
        + PhasePoly.monomial(ALPHA2, Coord.PY)
        + PhasePoly.monomial(0.5 * p.e * p.B * ALPHA1, Coord.Y)
        + PhasePoly.monomial(-0.5 * p.e * p.B * ALPHA2, Coord.X)
        + PhasePoly.constant(p.m * BETA)
    )
    return AffineOp.time_constant(h)


def build_h_nc(p: NCParams) -> AffineOp:
    """Time-dependent deformed Dirac Hamiltonian, at any hbar:

    H(t) = f_theta(t) K + f_eta(t) L + m beta with K = a1 px + a2 py and
    L = a1 y - a2 x; its coefficients and their derivatives are exponential
    sums. ``dual_path_deviation`` compares it with ``h_nc_via_bopp``.
    """
    k_op = PhasePoly.monomial(ALPHA1, Coord.PX) + PhasePoly.monomial(ALPHA2, Coord.PY)
    l_op = PhasePoly.monomial(ALPHA1, Coord.Y) + PhasePoly.monomial(-ALPHA2, Coord.X)
    prof = profiles(p)
    # m beta's coefficient 1 is the amplitude of rate 0
    coeffs = ExpSum(prof.rates, np.column_stack([prof.amps[:, [F_THETA, F_ETA]], (1.0, 0.0, 0.0)]))
    return AffineOp((k_op, l_op, PhasePoly.constant(p.m * BETA)), coeffs, coeffs.derivative())


def h_nc_via_bopp(p: NCParams, ts: Sequence[float]) -> np.ndarray:
    """Slot arrays (len(ts), 15, 2, 2) of the deformed Hamiltonian built by
    substituting the shifted operators into the linear slots of
    ``build_h_commutative``, its constant slot kept, at each time of ts."""
    ts, ops = np.asarray(ts, dtype=float), bopp_shift(p)
    h_comm = build_h_commutative(p).polys[0].slots
    acc = np.zeros((len(ts), N_SLOTS, 2, 2), dtype=complex)
    for c in (Coord.PX, Coord.PY, Coord.X, Coord.Y):  # the order fixes the rounding
        acc += h_comm[1 + c] @ ops[c].stack(ops[c].value(ts))
    acc[:, 0] += h_comm[0]
    return acc


def dual_path_deviation(p: NCParams, ts: Sequence[float]) -> float:
    """Max slot deviation between the affine deformed Hamiltonian and the
    substitution route over the sampled times, relative to H's largest slot
    there when that exceeds 1: the two routes round apart by a few ulps of
    H's coefficients, which 1/hbar can make large."""
    ts, h = np.asarray(ts, dtype=float), build_h_nc(p)
    affine = h.stack(h.value(ts))
    diff = affine - h_nc_via_bopp(p, ts)
    return float(np.max(residual_norms(diff)) / max(1.0, np.max(residual_norms(affine))))


# -- Dirac-Landau levels ---------------------------------------------------------


def landau_gap(p: NCParams, t):
    """4 hbar f_theta(t) f_eta(t): twice the commutator scale of the kinetic
    momenta, |[Pi_x, Pi_y]| = 2 hbar |f_theta f_eta| (Nair & Polychronakos,
    Phys. Lett. B 505, 267 (2001)), at time t or at each time of an array. Its
    sign is that of the effective field. The ladder functions below take it."""
    prof = profiles(p)
    return 4.0 * p.hbar * prof[F_THETA](t) * prof[F_ETA](t)


def magnetic_length(p: NCParams) -> float:
    """Landau length l_B = sqrt(hbar/(e*B)), the oscillator length evolve
    builds its Fock basis on. It is not the chiral-ladder scale: the kinetic
    momenta hold a single ladder at sqrt(hbar |f_theta/f_eta|), which is
    sqrt(2) l_B undeformed, so a lowest-level state is not this oscillator's
    ground state."""
    eb = p.e * p.B
    if eb <= 0:
        raise ConfigError("magnetic length requires e*B > 0")
    ell = math.sqrt(p.hbar / eb)
    if not 0.0 < ell < math.inf:
        raise OverflowError("the magnetic length sqrt(hbar/(e*B)) leaves the float range")
    return ell


def landau_level(m: float, n: int, sign: int, gap):
    """Closed-form level sign * sqrt(m^2 + n |gap|) of the untruncated H(t) of
    mass m, n = 0, 1, 2, ..., for the ``landau_gap`` at one time or at each
    time of an array; an array of n broadcasts against the gaps."""
    with np.errstate(over="ignore"):  # an infinite level raises OverflowError below
        square = n * np.abs(gap)
        # exact scaling by 2^-k, k the larger term's exponent: m^2 cannot underflow
        k = np.frexp(np.maximum(m, np.sqrt(square)))[1]
        scaled = np.ldexp(m, -k)
        level = sign * np.ldexp(np.sqrt(scaled * scaled + np.ldexp(square, -2 * k)), k)
    if not np.all(np.isfinite(level)):
        raise OverflowError(f"Landau level n={n} leaves the float range")
    return level


def level_spacing(m: float, n: int, gap: float) -> float:
    """Distance, at one time's ``landau_gap``, from the level E_n of either
    sign to the nearest closed-form level of another energy: a neighbour
    n -+ 1 of the same sign, at |gap| / (|E_n| + |E_n-+1|) without
    cancellation, or the n = 0 level of the other sign, at |E_n| + |m|; inf
    when every level has E_n's energy."""
    here = landau_level(m, n, 1, gap)
    gap = abs(gap)
    spacings = [here + abs(m)]
    if gap > 0.0:
        spacings += [gap / (here + landau_level(m, k, 1, gap)) for k in (n - 1, n + 1) if k >= 0]
    return float(min((s for s in spacings if s > 0.0), default=math.inf))


def nearest_landau_level(
    m: float, gap: float, energies: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(n, sign) arrays of the closed-form level nearest each of ``energies``
    at one time's ``landau_gap``, n as whole floats; n = 0 when the levels
    have closed (gap = 0). Of two equally near levels the lower n is taken."""
    sign = np.where(energies >= 0.0, 1, -1)
    gap = abs(gap)
    if gap == 0.0:
        return np.zeros(len(energies)), sign
    # nearest in energy squared, then the nearest of it and its neighbours
    guess = np.maximum(0.0, np.round((energies * energies - m * m) / gap))
    candidates = np.maximum(0.0, guess[:, None] + (-1.0, 0.0, 1.0))
    distance = np.abs(np.abs(energies)[:, None] - landau_level(m, candidates, 1, gap))
    return np.take_along_axis(candidates, np.argmin(distance, axis=1)[:, None], 1)[:, 0], sign
