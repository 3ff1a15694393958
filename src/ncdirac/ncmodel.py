"""Physical parameter record, time-dependent Bopp shift, deformed-algebra
verification, and the commutative / noncommutative Dirac Hamiltonians.

The noncommutative structure scales exponentially in time: the
position-position scale runs as theta*e^{gamma t} and the momentum-momentum
scale as eta*e^{-gamma t}, so their product is time-independent.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import UnitModeError
from .mat2 import ALPHA1, ALPHA2, BETA, ID2
from .phasepoly import (
    GRID_BLOCK,
    N_SLOTS,
    AffineOp,
    Coord,
    PhasePoly,
    commutator as ps_commutator,
    residual_norms,
)

NATURAL = "natural"
SI = "SI"

#: consistency regime bound on |theta*eta/(4*hbar^2)|
CONSISTENCY_WARN_THRESHOLD = 1e-2


class ConsistencyWarning(UserWarning):
    """The deformation parameters leave the small-deformation regime."""


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
    unit_mode: str = NATURAL
    kappa: float = field(init=False)

    def __post_init__(self):
        if self.m <= 0:
            raise ValueError("mass m must be positive")
        if self.hbar <= 0:
            raise ValueError("hbar must be positive")
        if self.unit_mode not in (NATURAL, SI):
            raise ValueError(f"unit_mode must be '{NATURAL}' or '{SI}'")
        object.__setattr__(self, "kappa", math.exp(self.q2 - self.q1))
        ratio = consistency_ratio(self)
        if ratio > CONSISTENCY_WARN_THRESHOLD:
            warnings.warn(
                f"|theta*eta/(4*hbar^2)| = {ratio:.3e} exceeds "
                f"{CONSISTENCY_WARN_THRESHOLD:.0e}; outside the small-deformation regime",
                ConsistencyWarning,
                stacklevel=2,
            )

    @property
    def natural(self) -> bool:
        return self.unit_mode == NATURAL


def consistency_ratio(p: NCParams) -> float:
    """|theta*eta / (4*hbar^2)|, the small-deformation figure of merit."""
    return abs(p.theta * p.eta / (4.0 * p.hbar**2))


def hbar_eff(p: NCParams) -> float:
    """Effective Planck constant hbar*(1 + theta*eta/(4*hbar^2))."""
    return p.hbar * (1.0 + p.theta * p.eta / (4.0 * p.hbar**2))


def theta_of_t(p: NCParams, t):
    """theta e^{gamma t}; an array of times gives an array, a float a float."""
    return p.theta * (np.exp if isinstance(t, np.ndarray) else math.exp)(p.gamma * t)


def eta_of_t(p: NCParams, t):
    """eta e^{-gamma t}; an array of times gives an array, a float a float."""
    return p.eta * (np.exp if isinstance(t, np.ndarray) else math.exp)(-p.gamma * t)


def f_theta(p: NCParams, t):
    """Momentum-slot dressing 1 + (e*B/4)*theta*e^{gamma t} of the deformed Hamiltonian."""
    return 1.0 + 0.25 * p.e * p.B * theta_of_t(p, t)


def f_eta(p: NCParams, t):
    """Position-slot dressing e*B/2 + (eta/2)*e^{-gamma t} of the deformed Hamiltonian."""
    return 0.5 * p.e * p.B + 0.5 * eta_of_t(p, t)


def df_theta_dt(p: NCParams, t: float) -> float:
    return 0.25 * p.e * p.B * p.gamma * theta_of_t(p, t)


def df_eta_dt(p: NCParams, t: float) -> float:
    return -0.5 * p.gamma * eta_of_t(p, t)


def bopp_scales(p: NCParams, t):
    """Mixing coefficients (s_theta, s_eta) = (theta(t)/2hbar, eta(t)/2hbar)
    of the Bopp shift at time t, or two arrays at an array of times."""
    return 0.5 * theta_of_t(p, t) / p.hbar, 0.5 * eta_of_t(p, t) / p.hbar


# shifted coordinate -> (partner, sign, which of the two Bopp scales)
_BOPP = {
    Coord.X: (Coord.PY, -1.0, 0),
    Coord.Y: (Coord.PX, +1.0, 0),
    Coord.PX: (Coord.Y, +1.0, 1),
    Coord.PY: (Coord.X, -1.0, 1),
}


def bopp_slots(p: NCParams, ts: Sequence[float]) -> np.ndarray:
    """Slot arrays (len(ts), 4, 15, 2, 2) of the four shifted operators, in
    the Coord order, at each time of ts:

    x_nc  = x  - s_theta(t) py      px_nc = px + s_eta(t) y
    y_nc  = y  + s_theta(t) px      py_nc = py - s_eta(t) x

    with (s_theta, s_eta) from ``bopp_scales``.
    """
    scales = np.array([bopp_scales(p, float(t)) for t in ts]).reshape(-1, 2)
    out = np.zeros((len(ts), 4, N_SLOTS, 2, 2), dtype=complex)
    for c, (partner, sign, which) in _BOPP.items():
        for d in (0, 1):
            out[:, c, 1 + c, d, d] = 1.0
            out[:, c, 1 + partner, d, d] = sign * scales[:, which]
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

    def worst(self) -> dict:
        """The first NaN check, else the first largest deviation in time-major,
        pair order, as {"pair", "t", "deviation"}."""
        k, j = np.unravel_index(np.argmax(self.deviation), self.deviation.shape)
        dev = float(self.deviation[k, j])
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
    commutator call fills the six columns of GRID_BLOCK rows of the table.
    """
    if len(t_grid) == 0:
        raise ValueError("t_grid must be nonempty")
    heff = hbar_eff(p)
    _, left, right = zip(*_ALGEBRA_PAIRS)
    times = np.array(t_grid, dtype=float)
    expected = np.empty((len(times), len(_ALGEBRA_PAIRS)), dtype=complex)
    deviation = np.empty(expected.shape)
    for lo in range(0, len(times), GRID_BLOCK):
        block = slice(lo, lo + GRID_BLOCK)
        ts = times[block].tolist()
        ops = bopp_slots(p, ts)
        measured = ps_commutator(ops[:, left], ops[:, right], p.hbar)
        # scalar exponentials: an array np.exp may differ in the last ulp
        expected[block] = [
            (1j * theta_of_t(p, t), 1j * eta_of_t(p, t), 1j * heff, 1j * heff, 0.0j, 0.0j)
            for t in ts
        ]
        measured[..., 0, :, :] -= expected[block, :, None, None] * ID2
        deviation[block] = residual_norms(measured)
    return DeformedAlgebraReport(times, expected, deviation)


def build_h_commutative(p: NCParams) -> AffineOp:
    """Dirac Hamiltonian in the symmetric gauge with commutative coordinates.

    H = c a1 px + c a2 py + e a1 (B/2) y - e a2 (B/2) x + beta m c^2. The
    parameter record carries no light speed, so c = 1 in both unit modes.
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
    L = a1 y - a2 x."""
    k_op = PhasePoly.monomial(ALPHA1, Coord.PX) + PhasePoly.monomial(ALPHA2, Coord.PY)
    l_op = PhasePoly.monomial(ALPHA1, Coord.Y) + PhasePoly.monomial(-ALPHA2, Coord.X)
    return AffineOp(
        (k_op, l_op, PhasePoly.constant(p.m * BETA)),
        value=lambda t: (f_theta(p, t), f_eta(p, t), 1.0),
        derivative=lambda t: (df_theta_dt(p, t), df_eta_dt(p, t), 0.0),
    )


def h_nc_via_bopp(p: NCParams, ts: Sequence[float]) -> np.ndarray:
    """Slot arrays (len(ts), 15, 2, 2) of the deformed Hamiltonian built by
    substituting the shifted operators into the commutative-form Hamiltonian
    (hbar = c = 1) at each time of ts."""
    ops = bopp_slots(p, ts)
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
    substitution route over the sampled times."""
    h = _h_nc(p)
    diff = h.stack([h.value(t) for t in ts]) - h_nc_via_bopp(p, ts)
    return float(np.max(residual_norms(diff)))


def require_h_nc_units(p: NCParams) -> None:
    """Raise UnitModeError unless the deformed Hamiltonian is defined for p:
    natural units, and hbar = 1 when theta or eta is nonzero, because the Bopp
    shift scales by 1/hbar while the dressings f_theta, f_eta do not."""
    if not p.natural or (p.hbar != 1.0 and (p.theta != 0.0 or p.eta != 0.0)):
        raise UnitModeError("the deformed Hamiltonian is defined in natural units, hbar = 1")


def build_h_nc(p: NCParams) -> AffineOp:
    """Time-dependent deformed Dirac Hamiltonian (natural units only).

    H(t) = a1 f_theta(t) px - a2 f_eta(t) x + a2 f_theta(t) py
           + a1 f_eta(t) y + beta m.

    Construction cross-checks the affine coefficient form against the
    substitution of the shifted operators and refuses to hand back an
    inconsistent operator.
    """
    require_h_nc_units(p)
    dev = dual_path_deviation(p)
    if dev > 1e-13:
        raise RuntimeError(f"Hamiltonian construction paths disagree: {dev:.3e}")
    return _h_nc(p)


# -- Dirac-Landau levels ---------------------------------------------------------


def landau_gap(p: NCParams, t):
    """4 hbar f_theta(t) f_eta(t): twice the commutator scale of the kinetic
    momenta, |[Pi_x, Pi_y]| = 2 hbar |f_theta f_eta| (Nair & Polychronakos,
    Phys. Lett. B 505, 267 (2001)). Its sign is that of the effective field."""
    return 4.0 * p.hbar * f_theta(p, t) * f_eta(p, t)


def landau_level(p: NCParams, n: int, sign: int, t):
    """Closed-form level sign * sqrt(m^2 + 4 n hbar |f_theta f_eta|) of the
    untruncated H(t), n = 0, 1, 2, ..., at time t or at each time of an array."""
    with np.errstate(over="ignore"):  # an infinite level raises OverflowError below
        square = n * np.abs(landau_gap(p, t))
        # exact scaling by 2^-k, k the larger term's exponent: m^2 cannot underflow
        k = np.frexp(np.maximum(p.m, np.sqrt(square)))[1]
        m = np.ldexp(p.m, -k)
        level = sign * np.ldexp(np.sqrt(m * m + np.ldexp(square, -2 * k)), k)
    if not np.all(np.isfinite(level)):
        raise OverflowError(f"Landau level n={n} leaves the float range")
    return level


def level_spacing(p: NCParams, n: int, t: float) -> float:
    """Distance at time t from the level E_n of either sign to the nearest
    closed-form level of another energy: a neighbour n -+ 1 of the same sign,
    at gap / (|E_n| + |E_n-+1|) without cancellation, or the n = 0 level of
    the other sign, at |E_n| + |m|; inf when every level has E_n's energy."""
    here = landau_level(p, n, 1, t)
    gap = abs(landau_gap(p, t))
    spacings = [here + abs(p.m)]
    if gap > 0.0:
        spacings += [gap / (here + landau_level(p, k, 1, t)) for k in (n - 1, n + 1) if k >= 0]
    return float(min((s for s in spacings if s > 0.0), default=math.inf))


def nearest_landau_level(p: NCParams, t: float, energy: float) -> tuple[int, int]:
    """(n, sign) of the closed-form level nearest ``energy`` at time t; n = 0
    when the levels have closed (f_theta f_eta = 0)."""
    sign = 1 if energy >= 0.0 else -1
    gap = abs(landau_gap(p, t))
    if gap == 0.0:
        return 0, sign
    # nearest in energy squared, then the nearest of it and its neighbours
    guess = max(0, round((energy * energy - p.m * p.m) / gap))
    candidates = range(max(0, guess - 1), guess + 2)
    return min(candidates, key=lambda n: abs(abs(energy) - math.sqrt(p.m * p.m + n * gap))), sign
