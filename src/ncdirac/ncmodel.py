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

from .errors import ConfigError
from .mat2 import ALPHA1, ALPHA2, BETA, ID2
from .phasepoly import (
    GRID_BLOCK,
    N_SLOTS,
    AffineOp,
    Coord,
    ExpSum,
    PhasePoly,
    commutator as ps_commutator,
    residual_norms,
)

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


def bopp_scales(p: NCParams, t):
    """Mixing coefficients (s_theta, s_eta) = (theta(t)/2hbar, eta(t)/2hbar)
    of the Bopp shift, two arrays at an array of times t, from one
    two-column evaluation of the profiles."""
    return tuple(0.5 * profiles(p)[[THETA, ETA]](t).T / p.hbar)


# shifted coordinate -> (partner, sign, which of the two Bopp scales)
_BOPP = {
    Coord.X: (Coord.PY, -1.0, 0),
    Coord.Y: (Coord.PX, +1.0, 0),
    Coord.PX: (Coord.Y, +1.0, 1),
    Coord.PY: (Coord.X, -1.0, 1),
}


def bopp_slots(s_theta: np.ndarray, s_eta: np.ndarray) -> np.ndarray:
    """Slot arrays (len(s_theta), 4, 15, 2, 2) of the four shifted operators,
    in the Coord order, for the arrays of Bopp scales from ``bopp_scales``:

    x_nc  = x  - s_theta py      px_nc = px + s_eta y
    y_nc  = y  + s_theta px      py_nc = py - s_eta x
    """
    scales = (s_theta, s_eta)
    out = np.zeros((len(s_theta), 4, N_SLOTS, 2, 2), dtype=complex)
    for c, (partner, sign, which) in _BOPP.items():
        for d in (0, 1):
            out[:, c, 1 + c, d, d] = 1.0
            out[:, c, 1 + partner, d, d] = sign * scales[which]
    return out


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
    algebra and compared against i*theta(t), i*eta(t), i*hbar_eff and 0. The
    expected values and the Bopp scales are each one evaluation over the
    grid; one commutator call fills the six columns of GRID_BLOCK rows of the
    table.
    """
    if len(t_grid) == 0:
        raise ValueError("t_grid must be nonempty")
    _, left, right = zip(*_ALGEBRA_PAIRS)
    times = np.array(t_grid, dtype=float)
    expected = np.zeros((len(times), len(_ALGEBRA_PAIRS)), dtype=complex)
    expected[:, :2] = 1j * profiles(p)[[THETA, ETA]](times)
    expected[:, 2:4] = 1j * hbar_eff(p)
    s_theta, s_eta = bopp_scales(p, times)
    deviation = np.empty(expected.shape)
    for lo in range(0, len(times), GRID_BLOCK):
        block = slice(lo, lo + GRID_BLOCK)
        ops = bopp_slots(s_theta[block], s_eta[block])
        measured = ps_commutator(ops[:, left], ops[:, right], p.hbar)
        measured[..., 0, :, :] -= expected[block, :, None, None] * ID2
        deviation[block] = residual_norms(measured)
    return DeformedAlgebraReport(times, expected, deviation)


def build_h_commutative(p: NCParams) -> AffineOp:
    """Dirac Hamiltonian in the symmetric gauge with commutative coordinates.

    H = c a1 px + c a2 py + e a1 (B/2) y - e a2 (B/2) x + beta m c^2. The
    parameter record carries no light speed, so c = 1.
    """
    h = (
        PhasePoly.monomial(ALPHA1, Coord.PX)
        + PhasePoly.monomial(ALPHA2, Coord.PY)
        + PhasePoly.monomial(0.5 * p.e * p.B * ALPHA1, Coord.Y)
        + PhasePoly.monomial(-0.5 * p.e * p.B * ALPHA2, Coord.X)
        + PhasePoly.constant(p.m * BETA)
    )
    return AffineOp.time_constant(h)


def _h_nc(p: NCParams) -> AffineOp:
    """H(t) = f_theta(t) K + f_eta(t) L + m beta with K = a1 px + a2 py and
    L = a1 y - a2 x; its coefficients and their derivatives are exponential sums."""
    k_op = PhasePoly.monomial(ALPHA1, Coord.PX) + PhasePoly.monomial(ALPHA2, Coord.PY)
    l_op = PhasePoly.monomial(ALPHA1, Coord.Y) + PhasePoly.monomial(-ALPHA2, Coord.X)
    prof = profiles(p)
    # m beta's coefficient 1 is the amplitude of rate 0
    coeffs = ExpSum(prof.rates, np.column_stack([prof.amps[:, [F_THETA, F_ETA]], (1.0, 0.0, 0.0)]))
    return AffineOp((k_op, l_op, PhasePoly.constant(p.m * BETA)), coeffs, coeffs.derivative())


def h_nc_via_bopp(p: NCParams, ts: Sequence[float]) -> np.ndarray:
    """Slot arrays (len(ts), 15, 2, 2) of the deformed Hamiltonian built by
    substituting the shifted operators into the commutative-form Hamiltonian
    (c = 1) at each time of ts."""
    ops = bopp_slots(*bopp_scales(p, np.asarray(ts, dtype=float)))
    half_eb = 0.5 * p.e * p.B
    acc = np.zeros((len(ts), N_SLOTS, 2, 2), dtype=complex)
    terms = ((1.0, ALPHA1, Coord.PX), (1.0, ALPHA2, Coord.PY),
             (-half_eb, ALPHA2, Coord.X), (half_eb, ALPHA1, Coord.Y))
    for coeff, alpha, c in terms:
        acc += coeff * (alpha @ ops[:, c])
    acc[:, 0] += p.m * BETA
    return acc


def dual_path_deviation(p: NCParams, ts: Sequence[float] = (0.0, 0.5, 1.0, 2.0)) -> float:
    """Max slot deviation between the affine deformed Hamiltonian and the
    substitution route over the sampled times, relative to H's largest slot
    there when that exceeds 1: the two routes round apart by a few ulps of
    H's coefficients, which 1/hbar can make large."""
    ts, h = np.asarray(ts, dtype=float), _h_nc(p)
    affine = h.stack(h.value(ts))
    diff = affine - h_nc_via_bopp(p, ts)
    return float(np.max(residual_norms(diff)) / max(1.0, np.max(residual_norms(affine))))


def build_h_nc(p: NCParams) -> AffineOp:
    """Time-dependent deformed Dirac Hamiltonian, at any hbar.

    H(t) = a1 f_theta(t) px - a2 f_eta(t) x + a2 f_theta(t) py
           + a1 f_eta(t) y + beta m.

    Construction cross-checks the affine coefficient form against the
    substitution of the shifted operators and refuses to hand back an
    inconsistent operator.
    """
    dev = dual_path_deviation(p)
    if dev > 1e-13:
        raise RuntimeError(f"Hamiltonian construction paths disagree: {dev:.3e}")
    return _h_nc(p)


# -- Dirac-Landau levels ---------------------------------------------------------


def landau_gap(p: NCParams, t):
    """4 hbar f_theta(t) f_eta(t): twice the commutator scale of the kinetic
    momenta, |[Pi_x, Pi_y]| = 2 hbar |f_theta f_eta| (Nair & Polychronakos,
    Phys. Lett. B 505, 267 (2001)), at time t or at each time of an array. Its
    sign is that of the effective field. The ladder functions below take it."""
    prof = profiles(p)
    return 4.0 * p.hbar * prof[F_THETA](t) * prof[F_ETA](t)


def landau_level(m: float, n: int, sign: int, gap):
    """Closed-form level sign * sqrt(m^2 + n |gap|) of the untruncated H(t) of
    mass m, n = 0, 1, 2, ..., for the ``landau_gap`` at one time or at each
    time of an array."""
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
    distance = np.abs(np.abs(energies)[:, None] - np.sqrt(m * m + candidates * gap))
    return np.take_along_axis(candidates, np.argmin(distance, axis=1)[:, None], 1)[:, 0], sign
