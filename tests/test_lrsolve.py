"""Envelope/phase closed forms, RK4 cross-checks, phases, assembled solution."""

import cmath
import collections
import csv
import math
import re
import tracemalloc

import numpy as np
import pytest

from ncdirac import lrsolve, ncmodel
from ncdirac.csvout import write_csv
from ncdirac.errors import ConfigError
from ncdirac.lrsolve import (
    assemble_solution,
    closed_state,
    energy_integral,
    f_closed,
    flow_rhs,
    integrate_rk4,
    lr_phase,
    theta_phase,
    trial_residual,
    xi_closed,
)
from ncdirac.ncmodel import F_ETA, NCParams
from oracle import closed_state_scalar, f_eta, f_theta, rk4_reference

# the six-component oracle's rows of xi1, xi2, F1, F2, the state lrsolve integrates
STATE_ROWS = [0, 1, 4, 5]

COMMUTATIVE = NCParams()
NC_STATIC = NCParams(theta=0.1, eta=0.05, gamma=0.0)
NC_DYNAMIC = NCParams(theta=0.1, eta=0.05, gamma=0.2)
ALL_PARAMS = (COMMUTATIVE, NC_STATIC, NC_DYNAMIC)


def test_envelope_values():
    p = NCParams(q1=0.3, q2=0.8)
    f1, f2 = f_closed(p, 0.0)
    assert f1 == pytest.approx(math.exp(0.3))
    assert f2 == pytest.approx(math.exp(0.8))
    # kappa consistency at t = 0: F1 * kappa = F2
    assert f1 * p.kappa == pytest.approx(f2, rel=1e-14)

    f1_pi, _ = f_closed(NCParams(), math.pi)
    assert f1_pi == pytest.approx(-1.0, abs=1e-14)

    for t in np.linspace(0.0, 10.0, 21):
        g1, g2 = f_closed(p, t)
        assert abs(g1) == pytest.approx(math.exp(0.3), rel=1e-13)
        assert abs(g2) == pytest.approx(math.exp(0.8), rel=1e-13)


def test_xi_closed_commutative_forms():
    x1, x2 = xi_closed(COMMUTATIVE, 0.0)
    assert x1 == pytest.approx(-0.25, abs=1e-15)
    assert x2 == pytest.approx(0.25j, abs=1e-15)
    for t in np.linspace(0.0, 4.0, 17):
        x1, x2 = xi_closed(COMMUTATIVE, t)
        assert abs(x1 - (-0.25 * cmath.exp(2j * t))) <= 1e-12
        assert abs(x2 - (-1j * x1)) <= 1e-15


def test_xi_structural_identity():
    for p in ALL_PARAMS:
        for t in np.linspace(0.0, 3.0, 13):
            x1, x2 = xi_closed(p, t)
            assert abs(x1 - 1j * x2) <= 1e-14 * max(1.0, abs(x1))


def test_xi_ode_rhs_values():
    rhs = flow_rhs(f_eta(COMMUTATIVE, 0.0), closed_state(COMMUTATIVE, 0.0)[2:])
    assert rhs[0] == pytest.approx(-0.5j, abs=1e-15)  # d xi1/dt
    for p in ALL_PARAMS:
        for t in (0.0, 0.7, 2.1):
            r = flow_rhs(f_eta(p, t), closed_state(p, t)[2:])
            assert abs(r[0] - 1j * r[1]) <= 1e-14 * max(1.0, abs(r[0]))


def test_closed_form_satisfies_ode():
    # central difference of the closed forms against the system right-hand
    # side: flow_rhs for xi1, xi2, the rotations -i m F1, +i m F2 for F1, F2
    h = 1e-6
    for p in ALL_PARAMS:
        for t in (0.05, 0.5, 1.5, 3.0):
            fd = (closed_state(p, t + h) - closed_state(p, t - h)) / (2.0 * h)
            y = closed_state(p, t)
            an = np.concatenate([flow_rhs(f_eta(p, t), y[2:]), [-1j * p.m * y[2], 1j * p.m * y[3]]])
            scale = np.maximum(np.abs(an), 1.0)
            assert np.max(np.abs(fd - an) / scale) <= 1e-6


def test_rk4_matches_closed_forms():
    traj = integrate_rk4(COMMUTATIVE, 0.0, 5.0, 1e-3)
    assert traj.max_deviation["xi1"] <= 1e-6
    assert traj.max_deviation["xi2"] <= 1e-6
    assert traj.max_deviation["F1"] <= 1e-8
    assert traj.max_deviation["F2"] <= 1e-8


def test_rk4_fourth_order_window():
    # measured where truncation dominates rounding
    errs = {}
    for dt in (0.02, 0.01):
        traj = integrate_rk4(COMMUTATIVE, 0.0, 5.0, dt)
        errs[dt] = traj.max_deviation["xi1"]
    ratio = errs[0.02] / errs[0.01]
    assert 12.0 <= ratio <= 20.0


def test_rk4_nc_parameters():
    traj = integrate_rk4(NC_DYNAMIC, 0.0, 5.0, 1e-3)
    assert traj.max_deviation["xi1"] <= 1e-6
    assert traj.max_deviation["F1"] <= 1e-8


def test_rk4_matches_step_by_step_reference():
    # 20 000 steps with a decaying eta profile and nonzero q1, q2; the
    # reference also carries constant xi3, xi4, which move nothing else
    p = NCParams(theta=0.1, eta=0.05, gamma=0.2, q1=0.3, q2=-0.2)
    traj = integrate_rk4(p, 0.0, 20.0, 1e-3)
    times, states = rk4_reference(p, 0.0, 20.0, 1e-3, 0.1 + 0.2j, -0.3j)
    np.testing.assert_array_equal(traj.times, times)
    assert traj.states.shape == (4, 20001)
    assert np.max(np.abs(traj.states - states[:, STATE_ROWS].T)) <= 2e-15
    closed = np.array([closed_state_scalar(p, t, 0.1 + 0.2j, -0.3j) for t in times])
    reference = np.abs(states - closed)[:, STATE_ROWS].max(axis=0)
    for name, k in lrsolve._IDX.items():
        assert abs(traj.max_deviation[name] - reference[k]) <= 1e-15


def test_rk4_evaluates_each_stage_once(monkeypatch):
    calls = collections.Counter()
    for name in ("flow_rhs", "closed_state"):
        fn = getattr(lrsolve, name)

        def counted(*args, _fn=fn, _name=name):
            calls[_name] += 1
            return _fn(*args)

        monkeypatch.setattr(lrsolve, name, counted)
    integrate_rk4(NC_DYNAMIC, 0.0, 1.0, 1e-3)
    # the four stages share each step's F2/F1: one call takes their weighted sum
    assert calls == {"flow_rhs": 1, "closed_state": 1}


def test_row_bytes_bounds_the_traced_peak():
    # the xi storage guard charges ROW_BYTES per sample; numpy reports its
    # allocations to tracemalloc
    tracemalloc.start()
    try:
        integrate_rk4(NC_DYNAMIC, 0.0, 2.0, 1e-3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    charged = lrsolve.ROW_BYTES * 2001
    assert 0.9 * charged <= peak <= charged + 2**16


def test_deviation_columns_reach_max_deviation_exactly(tmp_path):
    # the dev_* columns and max_deviation, which gates the exit code, are one array
    rng = np.random.default_rng(7)
    for _ in range(40):
        p = NCParams(
            theta=rng.uniform(0.0, 0.2), eta=rng.uniform(0.0, 0.2), gamma=rng.uniform(-0.5, 0.5),
            B=rng.uniform(0.5, 2.0), m=rng.uniform(0.5, 2.0),
            q1=rng.uniform(-0.5, 0.5), q2=rng.uniform(-0.5, 0.5),
        )
        traj = integrate_rk4(p, 0.0, rng.uniform(0.5, 1.5), 2e-3)
        write_csv(tmp_path / "xi.csv", *traj.table())
        with open(tmp_path / "xi.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        for name in ("xi1", "xi2", "F1", "F2"):
            assert max(float(r[f"dev_{name}"]) for r in rows) == traj.max_deviation[name]


@pytest.mark.parametrize("p", ALL_PARAMS + (NCParams(gamma=-0.3, eta=0.05, B=1.7, m=0.6, q1=0.3),))
def test_closed_forms_over_times_match_cmath(p):
    ts = np.linspace(-1.0, 5.0, 601)
    got = closed_state(p, ts)
    want = np.array([closed_state_scalar(p, t)[STATE_ROWS] for t in ts]).T
    assert got.shape == (4, 601)
    assert np.max(np.abs(got - want)) <= 1e-15


def test_flow_rhs_over_times_matches_single_times():
    rng = np.random.default_rng(3)
    ts = np.linspace(-1.0, 4.0, 64)
    ys = rng.standard_normal((2, 64)) + 1j * rng.standard_normal((2, 64))
    for p in ALL_PARAMS:
        got = flow_rhs(ncmodel.profiles(p)[F_ETA](ts), ys)
        want = np.stack([flow_rhs(f_eta(p, t), ys[:, k]) for k, t in enumerate(ts.tolist())], axis=1)
        assert got.shape == (2, 64)
        np.testing.assert_allclose(got, want, rtol=1e-15, atol=0)


def test_rk4_step_errors():
    with pytest.raises(ConfigError):
        integrate_rk4(COMMUTATIVE, 0.0, 1.0, 2.0)
    with pytest.raises(ConfigError):
        integrate_rk4(COMMUTATIVE, 0.0, 1.0, -0.1)
    with pytest.raises(ConfigError):
        integrate_rk4(COMMUTATIVE, 1.0, 0.5, 0.1)


def test_flow_rhs_rejects_vanishing_envelope():
    bad = np.array([0.0, 1.0], dtype=complex)
    with pytest.raises(ZeroDivisionError):
        flow_rhs(0.5, bad)


def test_theta_phase():
    for x, y in ((0.0, 0.0), (1.0, -2.0), (0.3, 0.7)):
        assert theta_phase(COMMUTATIVE, x, y, 0.0) == 0.0
    val = theta_phase(COMMUTATIVE, 1.0, 0.0, math.pi / 2.0)
    assert val == pytest.approx(-0.5, abs=1e-12)


def test_lr_phase_cases():
    times = np.linspace(0.0, math.pi, int(math.pi / 1e-3))
    zeros = np.zeros_like(times)
    theta = 0.4 - 0.2j
    assert lr_phase(theta, times, zeros, 2.0) == theta

    const = np.full_like(times, 3.0)
    assert lr_phase(theta, times, const, 2.0) == pytest.approx(theta - 6.0, abs=1e-12)

    sin_vals = np.sin(times)
    integral, err = energy_integral(times, sin_vals, math.pi)
    assert integral == pytest.approx(2.0, abs=1e-6)
    assert err >= 0.0


def test_lr_phase_additivity():
    times = np.linspace(0.0, 3.0, 3001)
    vals = np.exp(-times) * np.cos(3.0 * times)
    i1, _ = energy_integral(times, vals, 1.0)
    i2, _ = energy_integral(times, vals, 2.5)
    # difference equals the trapezoid over the middle window
    mask = (times >= 1.0) & (times <= 2.5)
    middle = np.trapezoid(vals[mask], times[mask])
    assert (i2 - i1) == pytest.approx(middle, abs=1e-9)


def test_lr_phase_coverage_error():
    times = np.linspace(0.0, 1.0, 101)
    vals = np.ones_like(times)
    with pytest.raises(ValueError, match=re.escape("energy series [0.0, 1.0] does not cover [0, 2.0]")):
        lr_phase(0.0, times, vals, 2.0)
    with pytest.raises(ValueError, match=re.escape("energy series [0.5, 1.0] does not cover [0, 0.8]")):
        energy_integral([0.5, 1.0], [1.0, 1.0], 0.8)  # does not start at 0


def test_assemble_solution_at_origin():
    p = NCParams(q1=0.2, q2=-0.4)
    psi = assemble_solution(p)
    v = psi(0.0, 0.0, 0.0)
    assert v[0] == pytest.approx(math.exp(0.2))
    assert v[1] == pytest.approx(math.exp(-0.4))


def test_assembled_envelope_matches_commutative_closed_form():
    # with xi1 = i*xi2 the planar exponent collapses to exp[i*xi1*(x - i y)]
    psi = assemble_solution(COMMUTATIVE)
    for t in (0.0, 0.4, 1.1):
        x1 = xi_closed(COMMUTATIVE, t)[0]
        for x, y in ((0.5, -0.3), (1.0, 2.0)):
            expected = cmath.exp(1j * x1 * (x - 1j * y))
            got = psi(x, y, t)
            assert abs(got[0] - cmath.exp(-1j * t) * expected) <= 1e-12
            assert abs(got[1] - cmath.exp(+1j * t) * expected) <= 1e-12


def test_component_modulus_ratio_constant():
    p = NCParams(q1=0.3, q2=-0.1, theta=0.1, eta=0.05, gamma=0.2)
    psi = assemble_solution(p)
    expected = math.exp(2.0 * (0.3 - (-0.1)))
    for t in (0.0, 0.8, 2.0):
        for x, y in ((0.0, 0.0), (1.2, -0.7)):
            v = psi(x, y, t)
            ratio = abs(v[0]) ** 2 / abs(v[1]) ** 2
            assert ratio == pytest.approx(expected, rel=1e-12)


def _fd_residual(p, x, y, t, h=1e-6):
    """Independent residual oracle: all derivatives by central differences."""
    psi = assemble_solution(p)

    def h_apply(xx, yy, tt):
        v = psi(xx, yy, tt)
        dx = (psi(xx + h, yy, tt) - psi(xx - h, yy, tt)) / (2.0 * h)
        dy = (psi(xx, yy + h, tt) - psi(xx, yy - h, tt)) / (2.0 * h)
        px_v = -1j * dx
        py_v = -1j * dy
        ft = f_theta(p, tt)
        fe = f_eta(p, tt)
        a1 = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
        a2 = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
        b = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
        return (
            ft * (a1 @ px_v) + ft * (a2 @ py_v) - fe * (a2 @ (xx * v)) + fe * (a1 @ (yy * v)) + p.m * (b @ v)
        )

    dpsi_dt = (psi(x, y, t + h) - psi(x, y, t - h)) / (2.0 * h)
    return 1j * dpsi_dt - h_apply(x, y, t)


def test_trial_residual_against_finite_differences():
    for p in (COMMUTATIVE, NC_DYNAMIC):
        for x, y, t in ((0.4, -0.2, 0.3), (1.0, 0.5, 1.2)):
            analytic = trial_residual(p, x, y, t)
            fd = _fd_residual(p, x, y, t)
            assert np.max(np.abs(analytic - fd)) <= 1e-6


def test_trial_residual_first_component_vanishes():
    for p in ALL_PARAMS:
        for x, y, t in ((0.0, 0.0, 0.0), (1.3, -0.8, 0.9), (2.0, 2.0, 2.0)):
            r = trial_residual(p, x, y, t)
            assert abs(r[0]) <= 1e-12
    # the second component is generically nonzero and merely reported
    r = trial_residual(COMMUTATIVE, 1.0, 0.0, 0.0)
    assert abs(r[1]) == pytest.approx(abs(1j * 1.0 + 0.5), abs=1e-12)
