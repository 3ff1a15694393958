"""Acceptance suite: one test per criterion, each at its stated tolerance.

Run with `pytest -v tests/test_acceptance.py` (add -s to see the PASS lines).
Shared evolutions are session-cached fixtures so the suite stays desk-scale.
"""

import cmath

import numpy as np
import pytest

from ncdirac import fockevolve, invariant, lrsolve, mat2, ncmodel
from ncdirac.invariant import constant_invariant
from ncdirac.ncmodel import NCParams
from ncdirac.phasepoly import Coord, PhasePoly, hermitian_defect
from oracle import (
    constraint_residuals,
    ehrenfest_drift,
    f_eta,
    f_theta,
    represent,
    scalar_residual_closed_form,
)

COMMUTATIVE = NCParams()
NC_STATIC = NCParams(theta=0.1, eta=0.05, gamma=0.0)
NC_DYNAMIC = NCParams(theta=0.1, eta=0.05, gamma=0.2)
GRID8 = np.linspace(0.0, 2.0, 8)

EVOLVE_TIMES = np.linspace(0.0, 1.0, 1001)  # t in [0,1], dt = 1e-3


def _report(criterion: str, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: PASS ({detail})")


def drift(i_op, rep, evolved):
    """<I>(t) - <I>(0) of the scalar degree-<=1 I from the coordinate means
    ``measure`` takes, and its largest size over |<I>(0)| + 1."""
    c = i_op.slots[:5, 0, 0]
    values = c[0] + c[1:] @ fockevolve.measure(rep, evolved).mean
    change = values - values[0]
    return change, float(np.max(np.abs(change)) / (abs(values[0]) + 1.0))


def uncertainty_pairs(rep, evolved, p):
    """The Robertson data of (x, px), (y, py) and the Bopp pair of p."""
    moments = fockevolve.measure(rep, evolved)
    unit = np.eye(4)
    bopp = ncmodel.bopp_shift(p)
    x_nc, px_nc = (bopp[c].coordinate_rows(evolved.times) for c in (Coord.X, Coord.PX))
    return (
        fockevolve.robertson(moments, unit[Coord.X], unit[Coord.PX]),
        fockevolve.robertson(moments, unit[Coord.Y], unit[Coord.PY]),
        fockevolve.robertson(moments, x_nc, px_nc),
    )


@pytest.fixture(scope="module")
def commutative_run():
    """Displaced coherent state under the commutative Hamiltonian, N = 16."""
    rep = fockevolve.build_fock_rep(16, ncmodel.magnetic_length(COMMUTATIVE))
    h = ncmodel.build_h_nc(COMMUTATIVE)
    psi0 = fockevolve.coherent_state(rep, alpha_x=1.0)
    evolved = fockevolve.evolve(h, rep, psi0, EVOLVE_TIMES)
    return rep, h, evolved


@pytest.fixture(scope="module")
def nc_run():
    """Centered coherent state under the time-dependent Hamiltonian, N = 10."""
    rep = fockevolve.build_fock_rep(10, ncmodel.magnetic_length(NC_DYNAMIC))
    h = ncmodel.build_h_nc(NC_DYNAMIC)
    psi0 = fockevolve.coherent_state(rep)
    evolved = fockevolve.evolve(h, rep, psi0, EVOLVE_TIMES)
    return rep, h, evolved


def test_criterion_01_deformed_algebra():
    worst = 0.0
    for p in (COMMUTATIVE, NC_STATIC, NC_DYNAMIC):
        report = ncmodel.verify_nc_algebra(p, GRID8)
        worst = max(worst, report.max_deviation)
        assert report.max_deviation <= 1e-13
        xp = report.expected[:, 2]  # the [x_nc,px_nc] column
        heff = ncmodel.hbar_eff(p)
        for e in xp:
            assert e == xp[0]  # time-independent
            assert abs(e - 1j * heff) <= 1e-14
        closed = p.hbar * (1.0 + p.theta * p.eta / (4.0 * p.hbar**2))
        assert abs(heff - closed) <= 1e-14
    _report("01 deformed-algebra", f"max deviation {worst:.2e}")


def test_criterion_02_consistency_ratio():
    p = NCParams(theta=1e-30, eta=1.76e-61, hbar=1.0546e-34)
    ratio = ncmodel.consistency_ratio(p)
    assert 1e-24 / 5.0 <= ratio <= 1e-24 * 5.0
    _report("02 consistency-ratio", f"theta*eta/4hbar^2 = {ratio:.3e}")


def test_criterion_03_hamiltonian_dual_path():
    dev = ncmodel.dual_path_deviation(NC_DYNAMIC, (0.0, 0.5, 1.0, 2.0))
    assert dev <= 1e-13
    _report("03 dual-path-hamiltonian", f"slot deviation {dev:.2e}")


def test_criterion_04_dirac_algebra():
    report = mat2.verify_dirac_algebra()
    assert len(report.checks) == 9
    assert report.max_deviation <= 1e-14
    _report("04 dirac-algebra", f"nine identities, max deviation {report.max_deviation:.2e}")


def test_criterion_05_constraint_system():
    rng = np.random.default_rng(11)
    worst = 0.0
    for p in (COMMUTATIVE, NC_STATIC, NC_DYNAMIC):
        for _ in range(5):
            a1, a3, b1, b3, c1 = rng.standard_normal(5)
            ans = constant_invariant(a1, a3, b1, b3, c1)
            res = invariant.invariance_residual(ans, ncmodel.build_h_nc(p), p.hbar, GRID8)
            rset = constraint_residuals(ans, p, GRID8)
            for label, k in zip(invariant.CONSTRAINT_LABELS[:-1], invariant.CONSTRAINT_SLOTS):
                assert np.all(mat2.fro(res[:, k]) <= 1e-13)
                assert np.all(mat2.fro(rset[label]) <= 1e-13)
            gap = max(
                np.max(mat2.fro(res[:, 0] - rset["25o"])),
                np.max(mat2.fro(res[:, 0] - scalar_residual_closed_form(p, a1, a3, b1, b3, GRID8))),
            )
            worst = max(worst, gap)
            assert gap <= 1e-13
    _report("05 constraint-system", f"closing-relation gap {worst:.2e}")


def test_criterion_06_nullspace_findings():
    grid = np.linspace(0.0, 2.0, 16)
    for p in (COMMUTATIVE, NC_STATIC):
        report = invariant.solve_constant_invariant(p, grid)
        assert report.dimension == 2
        ratio = 0.5 * p.e * p.B  # f_eta/f_theta is constant for these sets
        if p.theta:
            ratio = f_eta(p, 0.0) / f_theta(p, 0.0)
        for vec in (
            np.array([1.0, 0.0, 0.0, -ratio]),
            np.array([0.0, 1.0, ratio, 0.0]),
        ):
            v = vec / np.linalg.norm(vec)
            proj = report.nullspace @ (report.nullspace.T @ v)
            assert np.linalg.norm(v - proj) <= 1e-10
    dyn = invariant.solve_constant_invariant(NC_DYNAMIC, grid)
    assert dyn.dimension == 0
    # the verdict comes from the profiles' rates, not from a grid tolerance:
    # a deformation that changes by 1e-9 of itself over the grid has no invariant
    slow = NCParams(theta=0.1, eta=0.05, gamma=1e-9)
    assert invariant.solve_constant_invariant(slow, grid).dimension == 0
    # the report must flag that freely chosen constants are inconsistent here
    assert "forcing" in dyn.note and "a1 = a3 = b1 = b3 = 0" in dyn.note
    _report("06 nullspace", "dims 2/2/0; zero-forcing tension flagged")


def test_criterion_07_closed_form_vs_rk4():
    traj = lrsolve.integrate_rk4(COMMUTATIVE, 0.0, 5.0, 1e-3)
    assert traj.max_deviation["xi1"] <= 1e-6
    assert traj.max_deviation["F1"] <= 1e-8
    # fourth-order window, measured where truncation still dominates rounding
    coarse = lrsolve.integrate_rk4(COMMUTATIVE, 0.0, 5.0, 0.02).max_deviation["xi1"]
    fine = lrsolve.integrate_rk4(COMMUTATIVE, 0.0, 5.0, 0.01).max_deviation["xi1"]
    ratio = coarse / fine
    assert 12.0 <= ratio <= 20.0
    _report(
        "07 rk4-agreement",
        f"dxi1 {traj.max_deviation['xi1']:.2e}, dF1 {traj.max_deviation['F1']:.2e}, "
        f"halving ratio {ratio:.1f}",
    )


def test_criterion_08_commutative_limits():
    x1_0, x2_0 = lrsolve.xi_closed(COMMUTATIVE, 0.0)
    assert abs(x1_0 - (-0.25)) <= 1e-12
    assert abs(x2_0 - 0.25j) <= 1e-12
    worst = 0.0
    for t in np.linspace(0.0, 4.0, 33):
        x1, _ = lrsolve.xi_closed(COMMUTATIVE, t)
        worst = max(worst, abs(x1 - (-0.25 * cmath.exp(2j * t))))
    assert worst <= 1e-12
    _report("08 commutative-limits", f"max |xi1 + 0.25 e^(2it)| = {worst:.2e}")


def test_criterion_09_invariant_drift(commutative_run):
    rep16, h, evolved16 = commutative_run
    ans = constant_invariant(1.0, 0.0, 0.0, -0.5, 0.0)

    _, drift16 = drift(ans.at(0.0), rep16, evolved16)
    assert drift16 <= 1e-6

    drifts = []
    for n in (8, 12, 16, 24):
        if n == 16:
            drifts.append(drift16)
            continue
        rep = fockevolve.build_fock_rep(n, 1.0)
        psi0 = fockevolve.coherent_state(rep, alpha_x=1.0)
        ev = fockevolve.evolve(h, rep, psi0, EVOLVE_TIMES)
        drifts.append(drift(ans.at(0.0), rep, ev)[1])
    for large, small in zip(drifts[:-1], drifts[1:]):
        assert small <= max(1.1 * large, 1e-12)  # decreasing, floor at rounding noise

    # unconstrained constants: measurable drift matching the residual-operator rate
    rep = fockevolve.build_fock_rep(16, 1.0)
    psi0 = fockevolve.coherent_state(rep, alpha_x=1.0, spinor=(1.0, 1.0j))
    ev = fockevolve.evolve(h, rep, psi0, EVOLVE_TIMES)
    ans_u = constant_invariant(1.0, 0.0, 0.0, 0.0, 0.0)
    measured = drift(ans_u.at(0.0), rep, ev)[0].real
    res_poly = PhasePoly(invariant.invariance_residual(ans_u, h, COMMUTATIVE.hbar, [0.0])[0])
    predicted = ehrenfest_drift(res_poly, rep, EVOLVE_TIMES, ev.states)
    m_max = float(np.max(np.abs(measured)))
    p_max = float(np.max(np.abs(predicted)))
    assert m_max > 1e-4  # measurable
    assert 0.8 <= m_max / p_max <= 1.25
    _report(
        "09 invariant-drift",
        f"N-scaling {['%.1e' % d for d in drifts]}, "
        f"Ehrenfest ratio {m_max / p_max:.3f}",
    )


def test_criterion_10_uncertainty_inequality(commutative_run, nc_run):
    worst_margin = np.inf
    worst_bound_dev = 0.0
    for (rep, _, evolved), p in ((commutative_run, COMMUTATIVE), (nc_run, NC_DYNAMIC)):
        pairs = uncertainty_pairs(rep, evolved, p)
        for r in pairs:
            worst_margin = min(worst_margin, float(r.margin.min()))
            assert np.all(r.margin >= -1e-9)
        bound_dev = float(np.max(np.abs(pairs[2].bound - 0.5 * ncmodel.hbar_eff(p))))
        assert bound_dev <= 1e-6
        worst_bound_dev = max(worst_bound_dev, bound_dev)
    _report(
        "10 uncertainty",
        f"min margin {worst_margin:.2e}, nc bound within {worst_bound_dev:.2e} of hbar_eff/2",
    )


def test_criterion_11_hermiticity(commutative_run):
    rep, _, _ = commutative_run
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(10):
        ans = constant_invariant(*rng.standard_normal(5))
        assert hermitian_defect(ans.at(0.4)) == 0.0
        m = represent(ans.at(0.0), rep)
        dev = float(np.max(np.abs(m - m.conj().T)))
        worst = max(worst, dev)
        assert dev <= 1e-13
    _report("11 hermiticity", f"matrix defect {worst:.2e}")
