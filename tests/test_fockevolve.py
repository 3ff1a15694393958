"""Truncated representation, unitary evolution, drift and uncertainty checks."""

import cmath

import numpy as np
import pytest

from ncdirac import invariant, lrsolve, ncmodel
from ncdirac.errors import DimError, GridError, SizeError
from ncdirac.fockevolve import (
    build_fock_rep,
    coherent_state,
    cumulative_trapezoid,
    ehrenfest_rate_series,
    evolve,
    expectation,
    invariant_drift,
    represent,
    uncertainty_check,
    uncertainty_check_matrices,
)
from ncdirac.mat2 import ID2, SIGMA2
from ncdirac.ncmodel import NCParams
from ncdirac.phasepoly import AffineOp, Coord, PhasePoly, SymplecticForm, commutator

COMMUTATIVE = NCParams()


def test_build_rep_validation():
    with pytest.raises(SizeError):
        build_fock_rep(1, 1.0)
    with pytest.raises(SizeError):
        build_fock_rep(4, 0.0)
    assert build_fock_rep(5, 1.0).dim == 2 * 5 * 5


def test_tracked_energy_feeds_phase_integral():
    # tracked instantaneous eigenvalue plugs straight into the phase formula
    rep = build_fock_rep(6, 1.0)
    h = ncmodel.build_h_nc(COMMUTATIVE)
    psi0 = coherent_state(rep)
    times = np.linspace(0.0, 1.0, 101)
    ev = evolve(h, rep, psi0, times, track_energy=True)
    xi = lrsolve.closed_xi(COMMUTATIVE)
    theta = lrsolve.theta_phase(xi, 0.5, -0.5, 1.0)
    alpha = lrsolve.lr_phase(theta, ev.times, ev.energy, 1.0)
    # constant tracked energy integrates exactly
    assert alpha == pytest.approx(theta - ev.energy[0] * 1.0, abs=1e-10)


def test_coordinate_matrices_hermitian():
    rep = build_fock_rep(5, 0.7, 1.3)
    for c in Coord:
        m = rep.coordinate_matrix(c)
        assert np.max(np.abs(m - m.conj().T)) <= 1e-15


def test_vacuum_moments():
    rep = build_fock_rep(6, 0.7)
    vac = coherent_state(rep)
    x_mat = rep.coordinate_matrix(Coord.X)
    assert abs(expectation(x_mat, vac)) <= 1e-15
    # <0|x^2|0> = ell^2 / 2, ladder-algebra oracle
    assert expectation(x_mat @ x_mat, vac).real == pytest.approx(0.7**2 / 2.0, abs=1e-14)
    # diagonal of px vanishes in the number basis
    px_mat = rep.coordinate_matrix(Coord.PX)
    assert np.max(np.abs(np.diag(px_mat))) == 0.0


def test_canonical_defect_confined_to_top_level():
    n = 5
    rep = build_fock_rep(n, 1.0, 1.0)
    x_mat = rep.mode_ops[Coord.X]
    px_mat = rep.mode_ops[Coord.PX]
    defect = x_mat @ px_mat - px_mat @ x_mat - 1j * np.eye(n * n)
    # nonzero rows/cols only where n_x = N-1
    nx = np.repeat(np.arange(n), n)
    bad = np.argwhere(np.abs(defect) > 1e-13)
    assert bad.size > 0
    for i, j in bad:
        assert nx[i] == n - 1 and nx[j] == n - 1


def test_represent_tensor_structure():
    rep = build_fock_rep(4, 1.0)
    got = represent(PhasePoly.monomial(ID2, Coord.X), rep)
    assert np.array_equal(got, np.kron(rep.mode_ops[Coord.X], ID2))
    const = represent(PhasePoly.constant(2.5 * ID2), rep)
    assert np.array_equal(const, 2.5 * np.eye(rep.dim))


def test_represent_hermitian_invariant():
    rep = build_fock_rep(6, 1.0)
    ans = invariant.constant_invariant(1.0, 0.3, -0.2, 0.7, 0.1)
    m = represent(ans.at(0.0), rep)
    assert np.max(np.abs(m - m.conj().T)) <= 1e-13


def test_represent_is_homomorphism_on_interior():
    rep = build_fock_rep(6, 1.0)
    form = SymplecticForm.canonical(1.0)
    p = PhasePoly.monomial(ID2, Coord.X)
    q = PhasePoly.monomial(ID2, Coord.PX)
    poly_comm = represent(commutator(p, q, form), rep)
    mat_comm = represent(p, rep) @ represent(q, rep) - represent(q, rep) @ represent(p, rep)
    pi = rep.interior_projector()
    assert np.max(np.abs(pi @ (poly_comm - mat_comm) @ pi)) <= 1e-13


def test_represent_quadratic_weyl_slot():
    rep = build_fock_rep(5, 1.0)
    poly = PhasePoly.monomial(ID2, Coord.X, Coord.PX)
    got = represent(poly, rep)
    xm = rep.mode_ops[Coord.X]
    pxm = rep.mode_ops[Coord.PX]
    assert np.allclose(got, np.kron(0.5 * (xm @ pxm + pxm @ xm), ID2), atol=1e-14)


def test_evolve_stationary_state():
    rep = build_fock_rep(6, 1.0)
    h = ncmodel.build_h_nc(COMMUTATIVE)
    g = represent(h.at(0.0), rep)
    w, v = np.linalg.eigh(g)
    psi0 = v[:, 3]
    times = np.linspace(0.0, 1.0, 201)
    ev = evolve(h, rep, psi0, times)
    overlaps = np.abs(ev.states @ psi0.conj())
    assert np.max(np.abs(overlaps - 1.0)) <= 1e-10


def test_evolve_zero_momentum_rest_phase():
    # B -> 0 with a huge oscillator scale emulates a zero-momentum spinor:
    # the up component should rotate as e^{-i m t}
    p = NCParams(B=1.0)
    h_free = AffineOp.time_constant(
        PhasePoly.monomial(np.array([[0, 1], [1, 0]], complex), Coord.PX)
        + PhasePoly.monomial(np.array([[0, -1j], [1j, 0]], complex), Coord.PY)
        + PhasePoly.constant(np.array([[1, 0], [0, -1]], complex) * p.m)
    )
    rep = build_fock_rep(4, 1e4)
    psi0 = coherent_state(rep)
    times = np.linspace(0.0, 1.0, 101)
    ev = evolve(h_free, rep, psi0, times)
    for k, t in enumerate(times):
        amp = np.vdot(psi0, ev.states[k])
        assert abs(amp - cmath.exp(-1j * p.m * t)) <= 1e-8


def test_time_constant_generator_is_diagonalized_once(monkeypatch):
    # propagator and energy tracker share one decomposition per coefficient tuple
    calls = []
    eigh = np.linalg.eigh

    def counting_eigh(m):
        calls.append(m.shape)
        return eigh(m)

    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    rep = build_fock_rep(4, 1.0)
    h = ncmodel.build_h_commutative(COMMUTATIVE)
    evolve(h, rep, coherent_state(rep), np.linspace(0.0, 0.5, 51), track_energy=True)
    assert len(calls) == 1


def test_evolve_norm_preservation():
    rep = build_fock_rep(8, 1.0)
    h = ncmodel.build_h_nc(NCParams(theta=0.1, eta=0.05, gamma=0.2))
    psi0 = coherent_state(rep, alpha_x=0.5, alpha_y=-0.3j)
    times = np.linspace(0.0, 1.0, 1001)
    ev = evolve(h, rep, psi0, times)
    assert ev.norm_drift <= 1e-10
    norms = np.linalg.norm(ev.states, axis=1)
    assert np.max(np.abs(np.diff(norms))) <= 1e-12  # per-step unitarity budget


def test_evolve_grid_and_state_validation():
    rep = build_fock_rep(3, 1.0)
    h = ncmodel.build_h_nc(COMMUTATIVE)
    psi0 = coherent_state(rep)
    with pytest.raises(GridError):
        evolve(h, rep, psi0, [0.0, 0.1, 0.3])
    with pytest.raises(GridError):
        evolve(h, rep, psi0, [0.0])
    with pytest.raises(DimError):
        evolve(h, rep, np.ones(5) / np.sqrt(5), [0.0, 0.1])
    with pytest.raises(ValueError):
        evolve(h, rep, 2.0 * psi0, [0.0, 0.1])


def test_expectation_basics():
    rep = build_fock_rep(4, 1.0)
    vac = coherent_state(rep)
    assert expectation(np.eye(rep.dim), vac) == pytest.approx(1.0)
    herm = represent(PhasePoly.monomial(ID2, Coord.Y), rep)
    assert abs(expectation(herm, vac).imag) <= 1e-13
    with pytest.raises(DimError):
        expectation(np.eye(3), vac)


def test_invariant_drift_identity_is_zero():
    rep = build_fock_rep(4, 1.0)
    h = ncmodel.build_h_nc(COMMUTATIVE)
    psi0 = coherent_state(rep)
    ev = evolve(h, rep, psi0, np.linspace(0.0, 0.5, 51))
    d = invariant_drift(np.eye(rep.dim), ev)
    assert np.max(np.abs(d.drift)) <= 1e-12


def test_invariant_drift_constrained_small():
    rep = build_fock_rep(12, 1.0)
    h = ncmodel.build_h_nc(COMMUTATIVE)
    psi0 = coherent_state(rep)
    ev = evolve(h, rep, psi0, np.linspace(0.0, 1.0, 501))
    ans = invariant.constant_invariant(1.0, 0.0, 0.0, -0.5, 0.0)
    d = invariant_drift(ans, ev, rep)
    assert d.relative_max <= 1e-6


def test_invariant_drift_projection_overlap():
    rep = build_fock_rep(5, 1.0)
    h = ncmodel.build_h_nc(COMMUTATIVE)
    i_mat = np.eye(rep.dim)
    psi0 = coherent_state(rep)
    ev = evolve(h, rep, psi0, np.linspace(0.0, 0.2, 21))
    d = invariant_drift(i_mat, ev, projection_target=1.0)
    assert d.projection_overlap is not None
    assert np.allclose(d.projection_overlap, 1.0, atol=1e-10)


def test_unconstrained_drift_matches_ehrenfest_rate():
    p = COMMUTATIVE
    rep = build_fock_rep(12, 1.0)
    h = ncmodel.build_h_nc(p)
    form = ncmodel.symplectic_form(p)
    psi0 = coherent_state(rep, alpha_x=1.0, spinor=(1.0, 1.0j))
    times = np.linspace(0.0, 1.0, 501)
    ev = evolve(h, rep, psi0, times)
    ans = invariant.constant_invariant(1.0, 0.0, 0.0, 0.0, 0.0)
    i_mat = represent(ans.at(0.0), rep)
    measured = invariant_drift(i_mat, ev).drift.real
    res_poly = invariant.invariance_residual(ans, h, form, 0.0)
    predicted = cumulative_trapezoid(
        times, ehrenfest_rate_series(represent(res_poly, rep), ev)
    )
    m_max = np.max(np.abs(measured))
    p_max = np.max(np.abs(predicted))
    assert m_max > 1e-4
    assert 0.8 <= m_max / p_max <= 1.25


def test_uncertainty_ground_state_saturation():
    rep = build_fock_rep(8, 1.3)
    vac = coherent_state(rep)
    r = uncertainty_check(
        vac, PhasePoly.monomial(ID2, Coord.X), PhasePoly.monomial(ID2, Coord.PX), rep
    )
    assert r.product == pytest.approx(0.5, abs=1e-12)
    assert r.bound == pytest.approx(0.5, abs=1e-12)
    assert abs(r.margin) <= 1e-12


def test_uncertainty_commuting_pair():
    rep = build_fock_rep(6, 1.0)
    psi = coherent_state(rep, alpha_x=0.3, alpha_y=0.4)
    r = uncertainty_check(
        psi, PhasePoly.monomial(ID2, Coord.X), PhasePoly.monomial(ID2, Coord.Y), rep
    )
    assert r.bound <= 1e-13
    assert r.margin >= -1e-13


def test_uncertainty_rejects_non_hermitian():
    rep = build_fock_rep(4, 1.0)
    vac = coherent_state(rep)
    bad = PhasePoly.monomial(1j * SIGMA2 + ID2, Coord.X)
    with pytest.raises(ValueError):
        uncertainty_check(vac, bad, PhasePoly.monomial(ID2, Coord.PX), rep)


def test_uncertainty_bopp_pair_bound_matches_hbar_eff():
    p = NCParams(theta=0.1, eta=0.05, gamma=0.2)
    rep = build_fock_rep(10, lrsolve.magnetic_length(p))
    h = ncmodel.build_h_nc(p)
    psi0 = coherent_state(rep)
    times = np.linspace(0.0, 1.0, 101)
    ev = evolve(h, rep, psi0, times)
    heff = ncmodel.hbar_eff(p)
    for k in range(0, times.size, 20):
        t = float(times[k])
        a = represent(ncmodel.bopp_shift(p, Coord.X, t), rep)
        b = represent(ncmodel.bopp_shift(p, Coord.PX, t), rep)
        r = uncertainty_check_matrices(ev.states[k], a, b)
        assert r.bound == pytest.approx(0.5 * heff, abs=1e-6)
        assert r.margin >= -1e-9


def test_truncation_scaling_of_constrained_drift():
    h = ncmodel.build_h_nc(COMMUTATIVE)
    ans = invariant.constant_invariant(1.0, 0.0, 0.0, -0.5, 0.0)
    drifts = []
    for n in (4, 6, 8):
        rep = build_fock_rep(n, 1.0)
        psi0 = coherent_state(rep)
        ev = evolve(h, rep, psi0, np.linspace(0.0, 1.0, 251))
        d = invariant_drift(represent(ans.at(0.0), rep), ev)
        drifts.append(d.relative_max)
    for small, large in zip(drifts[1:], drifts[:-1]):
        assert small <= max(1.1 * large, 1e-12)
