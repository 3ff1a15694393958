"""Invariance residual, the fifteen bracket relations, and the
constant-coefficient nullspace analysis."""

import numpy as np
import pytest

from ncdirac import invariant, mat2, ncmodel
from ncdirac.errors import DegreeError, GridError
from ncdirac.invariant import (
    CONSTRAINT_LABELS,
    constant_invariant,
    constraint_residuals,
    invariance_residual,
    scalar_residual_closed_form,
    solve_constant_invariant,
)
from ncdirac.mat2 import ALPHA1, ID2, SIGMA2
from ncdirac.ncmodel import NCParams
from ncdirac.phasepoly import AffineOp, Coord, PhasePoly, residual_norm

RNG = np.random.default_rng(7)

COMMUTATIVE = NCParams()
NC_STATIC = NCParams(theta=0.1, eta=0.05, gamma=0.0)
NC_DYNAMIC = NCParams(theta=0.1, eta=0.05, gamma=0.2)
ALL_PARAMS = (COMMUTATIVE, NC_STATIC, NC_DYNAMIC)
TS = np.linspace(0.0, 2.0, 9)


def test_constant_invariant_structure():
    ans = constant_invariant(1.0, 0.0, 0.0, 0.0, 0.0)
    assert residual_norm(ans.at(0.3) - PhasePoly.monomial(ID2, Coord.PX)) == 0.0
    assert invariant.hermiticity_defect(ans, 1.0) == 0.0
    assert invariant.spin_independence_defect(ans, 1.0) == 0.0


def test_constant_only_invariant_commutes_with_any_h():
    ans = constant_invariant(0.0, 0.0, 0.0, 0.0, 7.0)
    for p in ALL_PARAMS:
        h = ncmodel.build_h_nc(p)
        form = ncmodel.symplectic_form(p)
        for t in TS:
            assert residual_norm(invariance_residual(ans, h, form, t)) == 0.0


def test_commutative_constrained_residual_vanishes():
    ans = constant_invariant(1.0, 0.0, 0.0, -0.5, 0.0)
    h = ncmodel.build_h_nc(COMMUTATIVE)
    form = ncmodel.symplectic_form(COMMUTATIVE)
    for t in TS:
        assert residual_norm(invariance_residual(ans, h, form, t)) <= 1e-13


def test_unconstrained_residual_value():
    ans = constant_invariant(1.0, 0.0, 0.0, 0.0, 0.0)  # b3 = 0
    h = ncmodel.build_h_nc(COMMUTATIVE)
    form = ncmodel.symplectic_form(COMMUTATIVE)
    res = invariance_residual(ans, h, form, 0.7)
    expected = PhasePoly.constant(0.5j * SIGMA2)
    assert residual_norm(res - expected) <= 1e-15
    assert residual_norm(res) == pytest.approx(np.sqrt(2.0) / 2.0, abs=1e-15)


def test_scalar_residual_matches_closed_form_for_random_constants():
    for p in ALL_PARAMS:
        h = ncmodel.build_h_nc(p)
        form = ncmodel.symplectic_form(p)
        for _ in range(25):
            a1, a3, b1, b3, c1 = RNG.standard_normal(5)
            ans = constant_invariant(a1, a3, b1, b3, c1)
            for t in (0.0, 0.9, 1.7):
                res = invariance_residual(ans, h, form, t)
                closed = PhasePoly.constant(
                    scalar_residual_closed_form(p, a1, a3, b1, b3, t)
                )
                assert residual_norm(res - closed) <= 1e-13


def test_constraint_residuals_scalar_ansatz():
    for p in ALL_PARAMS:
        for _ in range(5):
            a1, a3, b1, b3, c1 = RNG.standard_normal(5)
            ans = constant_invariant(a1, a3, b1, b3, c1)
            for t in TS[::3]:
                rset = constraint_residuals(ans, p, t)
                for label in CONSTRAINT_LABELS[:-1]:
                    assert rset.norm(label) <= 1e-13, label
                closing = rset.residuals["25o"] - scalar_residual_closed_form(
                    p, a1, a3, b1, b3, t
                )
                assert mat2.fro(closing) <= 1e-13


def test_constraint_residuals_alpha_branch():
    # A1 proportional to alpha_1 keeps 25a zero but breaks 25e via [alpha1, beta]m
    ans = AffineOp.time_constant(PhasePoly.monomial(0.7 * ALPHA1, Coord.PX))
    p = COMMUTATIVE
    rset = constraint_residuals(ans, p, 0.0)
    assert rset.norm("25a") == 0.0
    expected_25e = p.m * mat2.commutator(0.7 * ALPHA1, mat2.BETA)
    assert mat2.fro(rset.residuals["25e"] - expected_25e) <= 1e-15
    assert rset.norm("25e") == pytest.approx(0.7 * 2.0 * np.sqrt(2.0), abs=1e-14)


def test_constraint_residuals_reject_quadratic_ansatz():
    ans = AffineOp.time_constant(PhasePoly.monomial(ID2, Coord.X, Coord.PX))
    with pytest.raises(DegreeError):
        constraint_residuals(ans, COMMUTATIVE, 0.0)


def test_constraint_labels_fixed():
    ans = constant_invariant(1.0, 0.0, 0.0, 0.0, 0.0)
    rset = constraint_residuals(ans, COMMUTATIVE, 0.0)
    assert tuple(rset.residuals.keys()) == CONSTRAINT_LABELS
    assert rset.max_norm >= 0.0


def test_nullspace_commutative():
    report = solve_constant_invariant(COMMUTATIVE, np.linspace(0.0, 2.0, 16))
    assert report.dimension == 2
    # generators: (a1, b3) = (1, -eB/2) and (a3, b1) = (1, eB/2)
    for vec in (
        np.array([1.0, 0.0, 0.0, -0.5]),
        np.array([0.0, 1.0, 0.5, 0.0]),
    ):
        v = vec / np.linalg.norm(vec)
        proj = report.nullspace @ (report.nullspace.T @ v)
        assert np.linalg.norm(v - proj) <= 1e-10


def test_nullspace_static_nc():
    report = solve_constant_invariant(NC_STATIC, np.linspace(0.0, 2.0, 16))
    assert report.dimension == 2
    fe = ncmodel.f_eta(NC_STATIC, 0.0)
    ft = ncmodel.f_theta(NC_STATIC, 0.0)
    for vec in (
        np.array([1.0, 0.0, 0.0, -fe / ft]),
        np.array([0.0, 1.0, fe / ft, 0.0]),
    ):
        v = vec / np.linalg.norm(vec)
        proj = report.nullspace @ (report.nullspace.T @ v)
        assert np.linalg.norm(v - proj) <= 1e-10


def test_nullspace_dynamic_nc_is_empty():
    report = solve_constant_invariant(NC_DYNAMIC, np.linspace(0.0, 2.0, 16))
    assert report.dimension == 0
    assert "forcing" in report.note and "c1" in report.note


def test_nullspace_svd_properties():
    for p in ALL_PARAMS:
        report = solve_constant_invariant(p, np.linspace(0.0, 2.0, 16))
        assert np.all(np.diff(report.singular_values) <= 0)
        if report.dimension:
            gram = report.nullspace.T @ report.nullspace
            assert np.max(np.abs(gram - np.eye(report.dimension))) <= 1e-12


def test_nullspace_grid_too_short():
    with pytest.raises(GridError):
        solve_constant_invariant(COMMUTATIVE, [0.0])


def test_nullspace_members_zero_residual_25o():
    # residual 25o vanishes exactly when the nullspace constraints hold
    report = solve_constant_invariant(NC_STATIC, np.linspace(0.0, 2.0, 16))
    coeffs = report.nullspace[:, 0] + report.nullspace[:, 1]
    a1, a3, b1, b3 = coeffs
    ans = constant_invariant(a1, a3, b1, b3, 0.3)
    for t in TS:
        rset = constraint_residuals(ans, NC_STATIC, t)
        assert rset.norm("25o") <= 1e-13


def test_combined_generator_invariance():
    # the sum of both generators is itself an invariant
    ans = constant_invariant(1.0, 1.0, 0.5, -0.5, 0.0)
    h = ncmodel.build_h_nc(COMMUTATIVE)
    form = ncmodel.symplectic_form(COMMUTATIVE)
    for t in np.linspace(0.0, 2.0, 11):
        assert residual_norm(invariance_residual(ans, h, form, t)) <= 1e-13


def test_hermiticity_for_real_constants():
    for _ in range(20):
        consts = RNG.standard_normal(5)
        ans = constant_invariant(*consts)
        assert invariant.hermiticity_defect(ans, 0.5) == 0.0


def test_default_constraint_grid_span():
    g0 = invariant.default_constraint_grid(COMMUTATIVE)
    assert g0[0] == 0.0 and g0[-1] == pytest.approx(2.0) and g0.size == 16
    g1 = invariant.default_constraint_grid(NCParams(gamma=4.0))
    assert g1[-1] == pytest.approx(0.5)
