"""Closed forms and numerical cross-checks for the spinor envelope and the
phase-exponent coefficients of the trial solution, plus the accumulated
dynamical phase.

State-vector convention for the ODE system: y = (xi1, xi2, F1, F2), all
complex, along the first axis; further axes run over times. The envelope
components are pure phase rotations F1 = e^{-i m t + q1}, F2 = e^{+i m t + q2};
xi1 and xi2 are locked together by xi1 = i*xi2. The quadratic coefficients
xi3, xi4 of the trial phase are constants of the motion, so the system leaves
them out; only the solution-form oracles below take them. RK4 steps only the
envelope sequentially, in Python scalars; each RK4 stage of xi1, xi2 is one
flow_rhs call over all steps.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConfigError
from .ncmodel import F_ETA, F_THETA, NCParams, f_eta, profiles, sample_times, step_count
from .phasepoly import ExpSum


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


def f_closed(p: NCParams, t):
    """Envelope components F1 = e^{-i m t + q1}, F2 = e^{+i m t + q2}; t may be
    an array of times."""
    # -(i m t - q1) is complex(q1, -m t) exactly, signed zero included
    return np.exp(-(1j * p.m * t - p.q1)), np.exp(p.q2 + 1j * p.m * t)


def xi_closed(p: NCParams, t):
    """Closed-form linear phase coefficients; t may be an array of times.

    xi1' = -i kappa f_eta(t) e^{2imt} integrates term by term over the terms
    a_k e^{lambda_k t} of f_eta: xi1(t) = -i kappa sum_k a_k e^{mu_k t}/mu_k
    with mu_k = lambda_k + 2im, nonzero as NCParams holds m > 0; xi2 = xi1/i.
    """
    prof = profiles(p)
    mu = prof.rates + 2j * p.m
    xi1 = ExpSum(mu, -1j * p.kappa * prof.amps[:, F_ETA] / mu)(t)
    if not np.all(np.isfinite(xi1)):  # complex arithmetic overflows to inf or nan silently
        raise OverflowError(f"closed-form xi1 leaves the float range by t={np.max(t)}")
    return xi1, xi1 / 1j


# -- ODE system ---------------------------------------------------------------

_IDX = {"xi1": 0, "xi2": 1, "F1": 2, "F2": 3}
#: peak bytes integrate_rk4 holds per time sample: two 4-component complex
#: states (closed, integrated), the 2-component stage envelope and flow_rhs
#: rates, temporaries and slack (traced: 249 B over 200 001 samples)
ROW_BYTES = 288


def flow_rhs(p: NCParams, t, env: np.ndarray) -> np.ndarray:
    """Rates of xi1, xi2 along the first axis from the envelope env = (F1, F2)
    along the first axis; t and the trailing axes of env may run over times:
    dxi1/dt = -i f_eta(t) F2/F1, dxi2/dt = -f_eta(t) F2/F1."""
    f1, f2 = env
    if np.any(f1 == 0):
        raise ZeroDivisionError("envelope component F1 vanished")
    ratio = f2 / f1
    fe = f_eta(p, t)
    out = np.empty((2, *np.shape(ratio)), dtype=complex)
    np.multiply(-1j * fe, ratio, out=out[0, ...])  # one temporary per rate
    np.multiply(-fe, ratio, out=out[1, ...])
    return out


def closed_state(p: NCParams, t) -> np.ndarray:
    """Closed-form state vector at time t, or (4, len(t)) over an array of times."""
    x1, x2 = xi_closed(p, t)
    g1, g2 = f_closed(p, t)
    return np.array(np.broadcast_arrays(x1, x2, g1, g2))


@dataclass(frozen=True)
class Trajectory:
    """RK4 trajectory with its deviations from the closed forms alongside."""

    times: np.ndarray
    states: np.ndarray  # (4, n) complex, integrated
    deviation: np.ndarray  # (4, n) |integrated - closed form|
    max_deviation: dict[str, float]

    def table(self) -> tuple[list[str], list[np.ndarray]]:
        """The xi_trajectory.csv header and columns: t, Re/Im of xi1, xi2,
        F1, F2, and the closed-form deviations."""
        header, columns = ["t"], [self.times]
        for name, state in zip(_IDX, self.states):
            header += [f"re_{name}", f"im_{name}"]
            columns += [state.real, state.imag]
        return header + [f"dev_{name}" for name in _IDX], columns + list(self.deviation)


def integrate_rk4(p: NCParams, t0: float, t1: float, dt: float) -> Trajectory:
    """Classical RK4 on the coupled system from the closed forms at t0, over ``sample_times``.

    The autonomous, linear envelope (F1, F2) is stepped first, in one loop of
    Python scalars in a vector RK4's operation order (powers of the RK4
    amplification factor drift). A step's stage envelopes are F_k times fixed
    factors, so flow_rhs evaluates each stage once over all steps, and xi1,
    xi2 are running sums of the weighted stages. One closed_state call gives
    the closed forms; the deviations serve max_deviation and the CSV alike.
    """
    n_steps = step_count(t0, t1, dt)
    h = (t1 - t0) / n_steps
    times = sample_times(t0, t1, n_steps)
    closed = closed_state(p, times)
    states = np.zeros_like(closed)
    states[2:, 0] = closed[2:, 0]
    rates = np.array([-1j * p.m, 1j * p.m])
    for env, a in zip(states[2:], rates.tolist()):
        f = complex(env[0])
        for k in range(1, n_steps + 1):
            k1 = a * f
            k2 = a * (f + 0.5 * h * k1)
            k3 = a * (f + 0.5 * h * k2)
            k4 = a * (f + h * k3)
            env[k] = f = f + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    if not np.all(np.isfinite(states[2:])):
        raise OverflowError("the RK4 envelope leaves the float range")
    # stage j (time offset c_j steps, weight w_j) has the envelope F_k s_j,
    # s_j = 1 + c_j h a s_{j-1} with s_0 = 1
    stage = np.empty((2, n_steps), dtype=complex)
    factor = np.ones(2, dtype=complex)
    for offset, weight in ((0.0, 1.0), (0.5, 2.0), (0.5, 2.0), (1.0, 1.0)):
        factor = 1.0 + offset * h * rates * factor
        np.multiply(states[2:, :-1], factor[:, None], out=stage)
        states[:2, 1:] += weight * flow_rhs(p, times[:-1] + offset * h, stage)
    states[:2, 1:] *= h / 6.0
    states[:2, 0] = closed[:2, 0]
    np.cumsum(states[:2], axis=1, out=states[:2])
    deviation = np.abs(np.subtract(states, closed, out=closed))
    max_dev = {name: float(deviation[k].max()) for name, k in _IDX.items()}
    return Trajectory(times=times, states=states, deviation=deviation, max_deviation=max_dev)


# -- phases and assembled solution --------------------------------------------


def theta_phase(p: NCParams, x: float, y: float, t: float) -> complex:
    """Coordinate part of the accumulated phase:
    (xi1(0)-xi1(t)) x + (xi2(0)-xi2(t)) y + (xi3(0)-xi3(t)) x^2 + (xi4(0)-xi4(t)) y^2.

    The quadratic differences vanish identically because xi3, xi4 are constant.
    """
    (a1, a2), (b1, b2) = xi_closed(p, 0.0), xi_closed(p, t)
    return (a1 - b1) * x + (a2 - b2) * y  # xi3, xi4 constant -> quadratic terms cancel


def energy_integral(
    e_times: Sequence[float], e_values: Sequence[float], t: float
) -> tuple[complex, float]:
    """Composite-trapezoid integral of the sampled energy over [0, t] with a
    grid-spacing error estimate. Linear interpolation handles an endpoint
    falling between samples."""
    ts = np.asarray(e_times, dtype=float)
    vs = np.asarray(e_values)
    if ts.size < 2:
        raise ValueError("energy series needs at least 2 samples")
    if np.any(np.diff(ts) <= 0):
        raise ValueError("energy series times must be strictly increasing")
    if ts[0] > 0.0 + 1e-15 or ts[-1] < t - 1e-15:
        raise ValueError(
            f"energy series [{ts[0]}, {ts[-1]}] does not cover [0, {t}]"
        )
    mask = ts <= t
    sub_t = ts[mask]
    sub_v = vs[mask]
    if sub_t.size == 0 or sub_t[-1] < t:
        v_end = np.interp(t, ts, vs.real) + 1j * np.interp(t, ts, vs.imag)
        sub_t = np.append(sub_t, t)
        sub_v = np.append(sub_v, v_end)
    integral = complex(np.trapezoid(sub_v, sub_t))
    # trapezoid error ~ (h^2/12) * integral of |E''|, from second differences
    err = 0.0
    if sub_t.size >= 3:
        h = np.diff(sub_t)
        d2 = np.abs(np.diff(sub_v, 2))
        err = float(np.sum(d2) * np.max(h) / 12.0)
    return integral, err


def lr_phase(
    theta: complex, e_times: Sequence[float], e_values: Sequence[float], t: float
) -> complex:
    """Accumulated phase alpha(t) = theta - integral_0^t E dt'."""
    integral, _ = energy_integral(e_times, e_values, t)
    return theta - integral


def assemble_solution(p: NCParams, xi3: complex = 0.0, xi4: complex = 0.0):
    """Spinor field evaluator
    psi(x, y, t) = (F1(t), F2(t))^T * exp[i(xi1 x + xi2 y + xi3 x^2 + xi4 y^2)]
    from the closed forms, with constant xi3, xi4.

    x and y may be arrays; the result broadcasts to shape (2,) + shape(x).
    """

    def psi(x, y, t: float) -> np.ndarray:
        x, y = np.asarray(x), np.asarray(y)
        xi1, xi2 = xi_closed(p, t)
        phase = np.exp(1j * (xi1 * x + xi2 * y + xi3 * x**2 + xi4 * y**2))
        f1, f2 = f_closed(p, t)
        return np.stack([f1 * phase, f2 * phase], axis=0)

    return psi


def trial_residual(
    p: NCParams, x: float, y: float, t: float, xi3: complex = 0.0, xi4: complex = 0.0
) -> np.ndarray:
    """Diagnostic: pointwise i d(psi)/dt - H psi for the assembled solution.

    All derivatives are analytic: momenta act as p_x psi = (xi1 + 2 xi3 x) psi.
    The value is reported, not asserted; the first component vanishes
    identically when xi3 = xi4 = 0, the second generally does not.
    """
    x1, x2 = xi_closed(p, t)
    g1, g2 = f_closed(p, t)
    ft, fe = profiles(p)[[F_THETA, F_ETA]](t)
    phase = cmath.exp(1j * (x1 * x + x2 * y + xi3 * x * x + xi4 * y * y))
    # momenta applied to the exponential
    u = ft * (x1 + 2.0 * xi3 * x) + fe * y
    v = ft * (x2 + 2.0 * xi4 * y) - fe * x
    h_psi = np.array([(u - 1j * v) * g2 + p.m * g1, (u + 1j * v) * g1 - p.m * g2]) * phase
    # i d/dt: envelope rotation plus the moving linear phase
    dxi1, dxi2 = flow_rhs(p, t, np.array([g1, g2]))
    phase_dot = dxi1 * x + dxi2 * y
    dpsi_dt = np.array([(-1j * p.m * g1 + 1j * g1 * phase_dot) * phase,
                        (1j * p.m * g2 + 1j * g2 * phase_dot) * phase])
    return 1j * dpsi_dt - h_psi
