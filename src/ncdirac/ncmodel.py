"""Physical parameter record, time-dependent Bopp shift, deformed-algebra
verification, and the commutative / noncommutative Dirac Hamiltonians.

The noncommutative structure scales exponentially in time: the
position-position scale runs as theta*e^{gamma t} and the momentum-momentum
scale as eta*e^{-gamma t}, so their product is time-independent.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, Sequence

from .errors import UnitModeError
from .mat2 import ALPHA1, ALPHA2, BETA, ID2
from .phasepoly import (
    AffineOp,
    Coord,
    PhasePoly,
    SymplecticForm,
    commutator as ps_commutator,
    left_mul,
    linear_combine,
    residual_norm,
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
    e the signed charge, m > 0 the mass. kappa defaults to exp(q2 - q1) and
    must match it when given explicitly.
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
    kappa: float | None = None
    unit_mode: str = NATURAL

    def __post_init__(self):
        if self.m <= 0:
            raise ValueError("mass m must be positive")
        if self.hbar <= 0:
            raise ValueError("hbar must be positive")
        if self.unit_mode not in (NATURAL, SI):
            raise ValueError(f"unit_mode must be '{NATURAL}' or '{SI}'")
        kappa_ref = math.exp(self.q2 - self.q1)
        if self.kappa is None:
            object.__setattr__(self, "kappa", kappa_ref)
        elif abs(self.kappa - kappa_ref) > 1e-12 * max(1.0, abs(kappa_ref)):
            raise ValueError(
                f"kappa={self.kappa} inconsistent with exp(q2-q1)={kappa_ref}"
            )
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


def theta_of_t(p: NCParams, t: float) -> float:
    return p.theta * math.exp(p.gamma * t)


def eta_of_t(p: NCParams, t: float) -> float:
    return p.eta * math.exp(-p.gamma * t)


def f_theta(p: NCParams, t: float) -> float:
    """Momentum-slot dressing 1 + (e*B/4)*theta*e^{gamma t} of the deformed Hamiltonian."""
    return 1.0 + 0.25 * p.e * p.B * theta_of_t(p, t)


def f_eta(p: NCParams, t: float) -> float:
    """Position-slot dressing e*B/2 + (eta/2)*e^{-gamma t} of the deformed Hamiltonian."""
    return 0.5 * p.e * p.B + 0.5 * eta_of_t(p, t)


def df_theta_dt(p: NCParams, t: float) -> float:
    return 0.25 * p.e * p.B * p.gamma * theta_of_t(p, t)


def df_eta_dt(p: NCParams, t: float) -> float:
    return -0.5 * p.gamma * eta_of_t(p, t)


def symplectic_form(p: NCParams) -> SymplecticForm:
    return SymplecticForm.canonical(p.hbar)


BoppBuilder = Callable[[NCParams, Coord, float], PhasePoly]


def bopp_shift(p: NCParams, which: Coord, t: float) -> PhasePoly:
    """Deformed coordinate/momentum as a linear polynomial in the canonical ones.

    x_nc  = x  - (theta*e^{gamma t}/2hbar) py      px_nc = px + (eta*e^{-gamma t}/2hbar) y
    y_nc  = y  + (theta*e^{gamma t}/2hbar) px      py_nc = py - (eta*e^{-gamma t}/2hbar) x
    """
    st = 0.5 * theta_of_t(p, t) / p.hbar
    se = 0.5 * eta_of_t(p, t) / p.hbar
    shift = {
        Coord.X: (Coord.PY, -st),
        Coord.Y: (Coord.PX, +st),
        Coord.PX: (Coord.Y, +se),
        Coord.PY: (Coord.X, -se),
    }
    partner, coeff = shift[which]
    return PhasePoly.monomial(ID2, which) + coeff * PhasePoly.monomial(ID2, partner)


@dataclass(frozen=True)
class CommutatorCheck:
    t: float
    pair: str
    expected: complex  # expected commutator is expected * identity
    deviation: float


@dataclass(frozen=True)
class DeformedAlgebraReport:
    checks: tuple[CommutatorCheck, ...]

    @property
    def max_deviation(self) -> float:
        return max(c.deviation for c in self.checks)

    def passed(self, tol: float = 1e-13) -> bool:
        return self.max_deviation <= tol

    def as_dict(self) -> dict:
        return {
            "checks": [
                {
                    "t": c.t,
                    "pair": c.pair,
                    "expected_re": c.expected.real,
                    "expected_im": c.expected.imag,
                    "deviation": c.deviation,
                }
                for c in self.checks
            ],
            "max_deviation": self.max_deviation,
        }


def verify_nc_algebra(
    p: NCParams,
    t_grid: Sequence[float],
    bopp: BoppBuilder = bopp_shift,
) -> DeformedAlgebraReport:
    """Check the six deformed commutators of the Bopp-shifted operators.

    At each grid time the commutators are computed through the polynomial
    algebra and compared against i*theta(t), i*eta(t), i*hbar_eff and 0.
    The ``bopp`` builder is injectable so a corrupted variant can be checked
    to produce a visible failure.
    """
    if len(t_grid) == 0:
        raise ValueError("t_grid must be nonempty")
    form = symplectic_form(p)
    heff = hbar_eff(p)
    checks: list[CommutatorCheck] = []
    for t in t_grid:
        ops = {c: bopp(p, c, t) for c in Coord}
        cases = [
            ("[x_nc,y_nc]", Coord.X, Coord.Y, 1j * theta_of_t(p, t)),
            ("[px_nc,py_nc]", Coord.PX, Coord.PY, 1j * eta_of_t(p, t)),
            ("[x_nc,px_nc]", Coord.X, Coord.PX, 1j * heff),
            ("[y_nc,py_nc]", Coord.Y, Coord.PY, 1j * heff),
            ("[x_nc,py_nc]", Coord.X, Coord.PY, 0.0j),
            ("[y_nc,px_nc]", Coord.Y, Coord.PX, 0.0j),
        ]
        for label, a, b, expected in cases:
            measured = ps_commutator(ops[a], ops[b], form)
            dev = residual_norm(measured - PhasePoly.constant(expected * ID2))
            checks.append(CommutatorCheck(t=float(t), pair=label, expected=expected, deviation=dev))
    return DeformedAlgebraReport(checks=tuple(checks))


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


def h_nc_via_bopp(p: NCParams, t: float, bopp: BoppBuilder = bopp_shift) -> PhasePoly:
    """Deformed Hamiltonian built by substituting the shifted operators into
    the commutative-form Hamiltonian (hbar = c = 1)."""
    ops = {c: bopp(p, c, t) for c in Coord}
    return linear_combine(
        [
            (1.0, left_mul(ALPHA1, ops[Coord.PX])),
            (1.0, left_mul(ALPHA2, ops[Coord.PY])),
            (-0.5 * p.e * p.B, left_mul(ALPHA2, ops[Coord.X])),
            (0.5 * p.e * p.B, left_mul(ALPHA1, ops[Coord.Y])),
            (1.0, PhasePoly.constant(p.m * BETA)),
        ]
    )


def dual_path_deviation(
    p: NCParams, ts: Sequence[float] = (0.0, 0.5, 1.0, 2.0)
) -> float:
    """Max slot deviation between the affine deformed Hamiltonian and the
    substitution route over the sampled times."""
    h = _h_nc(p)
    return max(residual_norm(h.at(t) - h_nc_via_bopp(p, t)) for t in ts)


def build_h_nc(p: NCParams) -> AffineOp:
    """Time-dependent deformed Dirac Hamiltonian (natural units only).

    H(t) = a1 f_theta(t) px - a2 f_eta(t) x + a2 f_theta(t) py
           + a1 f_eta(t) y + beta m.

    Construction cross-checks the affine coefficient form against the
    substitution of the shifted operators and refuses to hand back an
    inconsistent operator.
    """
    if not p.natural:
        raise UnitModeError("the deformed Hamiltonian is defined in natural units")
    dev = dual_path_deviation(p)
    if dev > 1e-13:
        raise RuntimeError(f"Hamiltonian construction paths disagree: {dev:.3e}")
    return _h_nc(p)
