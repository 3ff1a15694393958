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
from ncdirac.phasepoly import Coord

COMMUTATIVE = NCParams()
NC_STATIC = NCParams(theta=0.1, eta=0.05, gamma=0.0)
NC_DYNAMIC = NCParams(theta=0.1, eta=0.05, gamma=0.2)
GRID8 = np.linspace(0.0, 2.0, 8)

EVOLVE_TIMES = np.linspace(0.0, 1.0, 1001)  # t in [0,1], dt = 1e-3


def _report(criterion: str, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: PASS ({detail})")


@pytest.fixture(scope="module")
def commutative_run():
    """Displaced coherent state under the commutative Hamiltonian, N = 16."""
    rep = fockevolve.build_fock_rep(16, lrsolve.magnetic_length(COMMUTATIVE))
    h = ncmodel.build_h_nc(COMMUTATIVE)
    psi0 = fockevolve.coherent_state(rep, alpha_x=1.0)
    evolved = fockevolve.evolve(h, rep, psi0, EVOLVE_TIMES, track_energy=True)
    return rep, h, evolved


@pytest.fixture(scope="module")
def nc_run():
    """Centered coherent state under the time-dependent Hamiltonian, N = 10."""
    rep = fockevolve.build_fock_rep(10, lrsolve.magnetic_length(NC_DYNAMIC))
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
        xp = [c for c in report.checks if c.pair == "[x_nc,px_nc]"]
        heff = ncmodel.hbar_eff(p)
        for c in xp:
            assert c.expected == xp[0].expected  # time-independent
            assert abs(c.expected - 1j * heff) <= 1e-14
        closed = p.hbar * (1.0 + p.theta * p.eta / (4.0 * p.hbar**2))
        assert abs(heff - closed) <= 1e-14
    _report("01 deformed-algebra", f"max deviation {worst:.2e}")


def test_criterion_02_consistency_ratio():
    p = NCParams(theta=1e-30, eta=1.76e-61, hbar=1.0546e-34, unit_mode="SI")
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
            for t in GRID8:
                rset = invariant.constraint_residuals(ans, p, float(t))
                for label in invariant.CONSTRAINT_LABELS[:-1]:
                    assert rset.norm(label) <= 1e-13
                gap = mat2.fro(
                    rset.residuals["25o"]
                    - invariant.scalar_residual_closed_form(p, a1, a3, b1, b3, float(t))
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
            ratio = ncmodel.f_eta(p, 0.0) / ncmodel.f_theta(p, 0.0)
        for vec in (
            np.array([1.0, 0.0, 0.0, -ratio]),
            np.array([0.0, 1.0, ratio, 0.0]),
        ):
            v = vec / np.linalg.norm(vec)
            proj = report.nullspace @ (report.nullspace.T @ v)
            assert np.linalg.norm(v - proj) <= 1e-10
    dyn = invariant.solve_constant_invariant(NC_DYNAMIC, grid)
    assert dyn.dimension == 0
    assert dyn.tolerance == pytest.approx(1e-10 * dyn.singular_values[0])
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

    drift16 = fockevolve.invariant_drift(
        fockevolve.represent(ans.at(0.0), rep16), evolved16
    )
    assert drift16.relative_max <= 1e-6

    drifts = []
    for n in (8, 12, 16, 24):
        if n == 16:
            drifts.append(drift16.relative_max)
            continue
        rep = fockevolve.build_fock_rep(n, 1.0)
        psi0 = fockevolve.coherent_state(rep, alpha_x=1.0)
        ev = fockevolve.evolve(h, rep, psi0, EVOLVE_TIMES)
        d = fockevolve.invariant_drift(
            fockevolve.represent(ans.at(0.0), rep), ev
        )
        drifts.append(d.relative_max)
    for large, small in zip(drifts[:-1], drifts[1:]):
        assert small <= max(1.1 * large, 1e-12)  # decreasing, floor at rounding noise

    # unconstrained constants: measurable drift matching the residual-operator rate
    rep = fockevolve.build_fock_rep(16, 1.0)
    psi0 = fockevolve.coherent_state(rep, alpha_x=1.0, spinor=(1.0, 1.0j))
    ev = fockevolve.evolve(h, rep, psi0, EVOLVE_TIMES)
    ans_u = constant_invariant(1.0, 0.0, 0.0, 0.0, 0.0)
    measured = fockevolve.invariant_drift(
        fockevolve.represent(ans_u.at(0.0), rep), ev
    ).drift.real
    res_poly = invariant.invariance_residual(
        ans_u, h, ncmodel.symplectic_form(COMMUTATIVE), 0.0
    )
    rate = fockevolve.ehrenfest_rate_series(fockevolve.represent(res_poly, rep), ev)
    predicted = fockevolve.cumulative_trapezoid(EVOLVE_TIMES, rate)
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
        heff = ncmodel.hbar_eff(p)
        xm = rep.coordinate_matrix(Coord.X)
        ym = rep.coordinate_matrix(Coord.Y)
        pxm = rep.coordinate_matrix(Coord.PX)
        pym = rep.coordinate_matrix(Coord.PY)
        for k, t in enumerate(evolved.times):
            s = evolved.states[k]
            st = 0.5 * ncmodel.theta_of_t(p, float(t)) / p.hbar
            se = 0.5 * ncmodel.eta_of_t(p, float(t)) / p.hbar
            checks = (
                fockevolve.uncertainty_check_matrices(s, xm, pxm),
                fockevolve.uncertainty_check_matrices(s, ym, pym),
                fockevolve.uncertainty_check_matrices(s, xm - st * pym, pxm + se * ym),
            )
            for r in checks:
                worst_margin = min(worst_margin, r.margin)
                assert r.margin >= -1e-9
            assert abs(checks[2].bound - 0.5 * heff) <= 1e-6
            worst_bound_dev = max(worst_bound_dev, abs(checks[2].bound - 0.5 * heff))
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
        assert invariant.hermiticity_defect(ans, 0.4) == 0.0
        m = fockevolve.represent(ans.at(0.0), rep)
        dev = float(np.max(np.abs(m - m.conj().T)))
        worst = max(worst, dev)
        assert dev <= 1e-13
    _report("11 hermiticity", f"matrix defect {worst:.2e}")
