"""Parameter record, Bopp shift, deformed-algebra report, Hamiltonian builders."""

import math
import warnings

import numpy as np
import pytest

from oracle import string_commutator

from ncdirac import mat2, ncmodel
from ncdirac.errors import UnitModeError
from ncdirac.mat2 import ALPHA1, ALPHA2, BETA, ID2
from ncdirac.ncmodel import NCParams
from ncdirac.phasepoly import Coord, PhasePoly, residual_norm

GRID = np.linspace(0.0, 2.0, 8)


def test_param_validation():
    with pytest.raises(ValueError):
        NCParams(m=0.0)
    with pytest.raises(ValueError):
        NCParams(hbar=-1.0)
    with pytest.raises(ValueError):
        NCParams(unit_mode="cgs")
    with pytest.raises(ValueError):
        NCParams(q1=0.0, q2=1.0, kappa=1.0)  # exp(1) expected
    p = NCParams(q1=0.5, q2=1.5)
    assert p.kappa == pytest.approx(math.e, abs=1e-15)


def test_consistency_warning_threshold():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        NCParams(theta=0.1, eta=0.05)  # ratio 1.25e-3, below threshold
    with pytest.warns(ncmodel.ConsistencyWarning):
        NCParams(theta=1.0, eta=1.0)  # ratio 0.25


def test_hbar_eff():
    assert ncmodel.hbar_eff(NCParams(theta=0.0, eta=0.7)) == 1.0
    assert ncmodel.hbar_eff(NCParams(theta=0.3, eta=0.0)) == 1.0
    assert ncmodel.hbar_eff(NCParams(theta=0.1, eta=0.05)) == pytest.approx(1.00125, abs=1e-15)


def test_si_consistency_ratio_order():
    p = NCParams(
        theta=1e-30, eta=1.76e-61, hbar=1.0546e-34, B=5e-7, unit_mode="SI"
    )
    ratio = ncmodel.consistency_ratio(p)
    assert ratio == pytest.approx(3.956e-24, rel=1e-3)
    assert 0.2e-24 < ratio < 5e-24


def test_time_profiles():
    p = NCParams(theta=0.1, eta=0.05, gamma=0.2)
    p0 = NCParams(theta=0.1, eta=0.05, gamma=0.0)
    for t in GRID:
        assert ncmodel.theta_of_t(p0, t) == 0.1
        assert ncmodel.eta_of_t(p0, t) == 0.05
    assert ncmodel.theta_of_t(p, 1.0) == pytest.approx(0.1 * math.exp(0.2), abs=1e-15)
    for t in GRID:
        prod = ncmodel.theta_of_t(p, t) * ncmodel.eta_of_t(p, t)
        assert prod == pytest.approx(0.1 * 0.05, rel=1e-15)


def test_bopp_shift_commutative_limit():
    p = NCParams(theta=0.0, eta=0.0)
    for c in Coord:
        assert residual_norm(ncmodel.bopp_shift(p, c, 1.3) - PhasePoly.monomial(ID2, c)) == 0.0


def test_bopp_shift_values():
    p = NCParams(theta=0.1, gamma=0.0)
    x_nc = ncmodel.bopp_shift(p, Coord.X, 7.0)
    expected = PhasePoly.monomial(ID2, Coord.X) - 0.05 * PhasePoly.monomial(ID2, Coord.PY)
    assert residual_norm(x_nc - expected) == 0.0

    p2 = NCParams(eta=0.05, gamma=0.2)
    px_nc = ncmodel.bopp_shift(p2, Coord.PX, 1.0)
    coeff = 0.5 * 0.05 * math.exp(-0.2)
    assert coeff == pytest.approx(0.0204683, abs=1e-7)
    expected2 = PhasePoly.monomial(ID2, Coord.PX) + coeff * PhasePoly.monomial(ID2, Coord.Y)
    assert residual_norm(px_nc - expected2) <= 1e-16


def test_verify_nc_algebra_values():
    p = NCParams(theta=0.1, eta=0.05, gamma=0.2)
    report = ncmodel.verify_nc_algebra(p, [1.0])
    by_pair = {c.pair: c for c in report.checks}
    assert by_pair["[x_nc,y_nc]"].expected == pytest.approx(1j * 0.1 * math.exp(0.2))
    assert abs(by_pair["[x_nc,y_nc]"].expected - 0.122140j) < 1e-6
    assert by_pair["[x_nc,px_nc]"].expected == pytest.approx(1.00125j)
    assert report.max_deviation <= 1e-14


def test_verify_nc_algebra_against_string_oracle():
    p = NCParams(theta=0.1, eta=0.05, gamma=0.2)
    form = ncmodel.symplectic_form(p)
    for t in (0.0, 0.7, 2.0):
        ops = {c: ncmodel.bopp_shift(p, c, t) for c in Coord}
        heff = ncmodel.hbar_eff(p)
        cases = [
            (Coord.X, Coord.Y, 1j * ncmodel.theta_of_t(p, t)),
            (Coord.PX, Coord.PY, 1j * ncmodel.eta_of_t(p, t)),
            (Coord.X, Coord.PX, 1j * heff),
            (Coord.Y, Coord.PY, 1j * heff),
            (Coord.X, Coord.PY, 0.0),
            (Coord.Y, Coord.PX, 0.0),
        ]
        for a, b, expected in cases:
            brute = string_commutator(ops[a], ops[b], form)
            assert residual_norm(brute - PhasePoly.constant(expected * ID2)) <= 1e-14


def test_nc_commutator_time_independent_for_xp_pair():
    p = NCParams(theta=0.1, eta=0.05, gamma=0.7)
    report = ncmodel.verify_nc_algebra(p, GRID)
    xp = [c for c in report.checks if c.pair == "[x_nc,px_nc]"]
    assert len(xp) == len(GRID)
    assert all(c.expected == xp[0].expected for c in xp)
    assert report.max_deviation <= 1e-14


def test_commutative_limit_recovers_canonical_relations():
    p = NCParams(theta=0.0, eta=0.0)
    report = ncmodel.verify_nc_algebra(p, GRID)
    by_pair = {c.pair: c.expected for c in report.checks}
    assert by_pair["[x_nc,y_nc]"] == 0.0
    assert by_pair["[px_nc,py_nc]"] == 0.0
    assert by_pair["[x_nc,px_nc]"] == 1j * p.hbar
    assert report.max_deviation == 0.0


def test_all_deformed_commutators_identity_proportional():
    p = NCParams(theta=0.1, eta=0.05, gamma=0.2)
    form = ncmodel.symplectic_form(p)
    from ncdirac.phasepoly import commutator

    for t in (0.0, 1.0):
        ops = {c: ncmodel.bopp_shift(p, c, t) for c in Coord}
        for a in Coord:
            for b in Coord:
                res = commutator(ops[a], ops[b], form)
                for _, slot in res.labeled_slots():
                    coeffs = mat2.pauli_decompose(slot)
                    assert abs(coeffs.c_1) <= 1e-15
                    assert abs(coeffs.c_2) <= 1e-15
                    assert abs(coeffs.c_3) <= 1e-15


def test_f_theta_f_eta():
    p = NCParams(theta=0.1, gamma=0.0)
    assert ncmodel.f_theta(p, 5.0) == pytest.approx(1.025, abs=1e-15)
    p0 = NCParams(theta=0.0, eta=0.0)
    assert ncmodel.f_theta(p0, 1.0) == 1.0
    assert ncmodel.f_eta(p0, 1.0) == 0.5
    p2 = NCParams(eta=0.05, gamma=0.2)
    assert ncmodel.f_eta(p2, 1.0) == pytest.approx(0.5204683, abs=1e-7)


def test_h_commutative_slots():
    p = NCParams()
    h = ncmodel.build_h_commutative(p).at(0.0)
    assert np.array_equal(h.linear_term(Coord.PX), ALPHA1)
    assert np.allclose(h.linear_term(Coord.X), -0.5 * ALPHA2, atol=0)
    assert np.allclose(h.linear_term(Coord.Y), 0.5 * ALPHA1, atol=0)
    assert np.array_equal(h.const_term, BETA)

    h_free = ncmodel.build_h_commutative(NCParams(B=0.0)).at(0.0)
    assert residual_norm(
        h_free
        - PhasePoly.monomial(ALPHA1, Coord.PX)
        - PhasePoly.monomial(ALPHA2, Coord.PY)
        - PhasePoly.constant(BETA)
    ) == 0.0


def test_h_nc_matches_commutative_limit():
    p = NCParams(theta=0.0, eta=0.0)
    h_nc = ncmodel.build_h_nc(p)
    h_c = ncmodel.build_h_commutative(p)
    for t in GRID:
        assert residual_norm(h_nc.at(t) - h_c.at(t)) == 0.0


def test_h_nc_slot_values():
    p = NCParams(theta=0.1, eta=0.05, gamma=0.2)
    h = ncmodel.build_h_nc(p).at(0.0)
    assert np.allclose(h.linear_term(Coord.PX), 1.025 * ALPHA1, atol=1e-15)
    assert np.allclose(h.linear_term(Coord.X), -0.525 * ALPHA2, atol=1e-15)


def test_h_nc_dual_path_agreement():
    p = NCParams(theta=0.1, eta=0.05, gamma=0.2)
    assert ncmodel.dual_path_deviation(p, (0.0, 0.5, 1.0, 2.0)) <= 1e-13


def test_h_nc_rejects_si_mode():
    p = NCParams(theta=1e-40, eta=1e-70, hbar=1.0546e-34, unit_mode="SI")
    with pytest.raises(UnitModeError):
        ncmodel.build_h_nc(p)


def test_f_limits_in_commutative_reduction():
    for gamma in (0.0, 0.3):
        p = NCParams(theta=0.0, eta=0.0, gamma=gamma)
        for t in GRID:
            assert ncmodel.f_theta(p, t) == 1.0
            assert ncmodel.f_eta(p, t) == 0.5 * p.e * p.B
