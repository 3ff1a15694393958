"""Polynomial algebra: linear combinations, the induced commutator against the
string-rewriting oracle, norms, Hermiticity, and time-dependent wrappers."""

import numpy as np
import pytest

from oracle import random_linear_poly, random_mat2, string_commutator

from ncdirac import ncmodel
from ncdirac.errors import DegreeError
from ncdirac.mat2 import ALPHA1, ALPHA2, ID2, SIGMA1, SIGMA2, SIGMA3
from ncdirac.phasepoly import (
    AffineOp,
    Coord,
    PhasePoly,
    SymplecticForm,
    commutator,
    hermitian_defect,
    left_mul,
    linear_combine,
    residual_norm,
)

RNG = np.random.default_rng(42)
FORM = SymplecticForm.canonical(1.0)


def test_linear_combine_identity_and_cancellation():
    p = random_linear_poly(RNG)
    q = random_linear_poly(RNG)
    assert residual_norm(linear_combine([(1.0, p), (0.0, q)]) - p) == 0.0
    assert residual_norm(linear_combine([(1.0, p), (-1.0, p)])) == 0.0
    x_term = PhasePoly.monomial(ID2, Coord.X)
    five_x = linear_combine([(2.0, x_term), (3.0, x_term)])
    assert residual_norm(five_x - 5.0 * x_term) == 0.0


def test_commutator_canonical_pair():
    p = PhasePoly.monomial(ID2, Coord.X)
    q = PhasePoly.monomial(ID2, Coord.PX)
    c = commutator(p, q, FORM)
    assert residual_norm(c - PhasePoly.constant(1j * ID2)) == 0.0
    assert c.degree() == 0


def test_commutator_matrix_coefficients():
    p = PhasePoly.monomial(ALPHA1, Coord.PX)
    q = PhasePoly.monomial(ALPHA2, Coord.PY)
    c = commutator(p, q, FORM)
    expected = PhasePoly.monomial(2j * SIGMA3, Coord.PX, Coord.PY)
    assert residual_norm(c - expected) <= 1e-15
    # oracle agreement
    assert residual_norm(c - string_commutator(p, q, FORM)) <= 1e-14


def test_commutator_self_is_zero():
    p = PhasePoly.monomial(ID2, Coord.X)
    assert residual_norm(commutator(p, p, FORM)) == 0.0


def test_commutator_rejects_quadratic_input():
    quad = PhasePoly.monomial(ID2, Coord.X, Coord.X)
    lin = PhasePoly.monomial(ID2, Coord.PX)
    with pytest.raises(DegreeError):
        commutator(quad, lin, FORM)
    with pytest.raises(DegreeError):
        commutator(lin, quad, FORM)


def test_commutator_matches_string_oracle_on_random_pairs():
    for _ in range(200):
        p = random_linear_poly(RNG)
        q = random_linear_poly(RNG)
        direct = commutator(p, q, FORM)
        brute = string_commutator(p, q, FORM)
        assert residual_norm(direct - brute) <= 1e-12


def test_commutator_antisymmetry_and_bilinearity():
    for _ in range(50):
        p = random_linear_poly(RNG)
        q = random_linear_poly(RNG)
        r = random_linear_poly(RNG)
        assert residual_norm(commutator(p, q, FORM) + commutator(q, p, FORM)) <= 1e-12
        a = complex(RNG.standard_normal(), RNG.standard_normal())
        lhs = commutator(a * p + q, r, FORM)
        rhs = a * commutator(p, r, FORM) + commutator(q, r, FORM)
        assert residual_norm(lhs - rhs) <= 1e-12


def test_jacobi_identity_scalar_coefficients():
    for _ in range(50):
        p = random_linear_poly(RNG, scalar_coeffs=True)
        q = random_linear_poly(RNG, scalar_coeffs=True)
        r = random_linear_poly(RNG, scalar_coeffs=True)
        total = (
            commutator(p, commutator(q, r, FORM), FORM)
            + commutator(q, commutator(r, p, FORM), FORM)
            + commutator(r, commutator(p, q, FORM), FORM)
        )
        assert residual_norm(total) <= 1e-12


def test_residual_norm_examples():
    assert residual_norm(PhasePoly.zero()) == 0.0
    assert residual_norm(PhasePoly.constant(1j * ID2)) == pytest.approx(np.sqrt(2.0))
    assert residual_norm(PhasePoly.monomial(SIGMA1, Coord.X)) == pytest.approx(np.sqrt(2.0))


def test_hermitian_check_examples():
    p = PhasePoly.monomial(ID2, Coord.X) + PhasePoly.monomial(ID2, Coord.PX)
    assert hermitian_defect(p) == 0.0
    q = PhasePoly.monomial(1j * SIGMA1, Coord.X)
    # oracle: || i s1 - (i s1)^dag ||_F = || 2 i s1 ||_F = 2 sqrt(2)
    assert hermitian_defect(q) == pytest.approx(2.0 * np.sqrt(2.0))


def test_left_mul_scales_all_slots():
    p = random_linear_poly(RNG)
    m = random_mat2(RNG)
    scaled = left_mul(m, p)
    for (_, a), (_, b) in zip(p.labeled_slots(), scaled.labeled_slots()):
        assert np.allclose(b, m @ a, atol=1e-14)


def test_slots_are_immutable():
    p = PhasePoly.monomial(ID2, Coord.X)
    with pytest.raises(ValueError):
        p.slots[0, 0, 0] = 1.0


def test_symplectic_form_antisymmetry_enforced():
    with pytest.raises(ValueError):
        SymplecticForm(np.eye(4))
    form = SymplecticForm.canonical(2.0)
    assert form.pair(Coord.X, Coord.PX) == 2.0
    assert form.pair(Coord.PX, Coord.X) == -2.0
    assert form.pair(Coord.X, Coord.Y) == 0.0


def test_affine_op_rate_matches_finite_differences():
    # O(h^2) central difference of H(t) is the oracle for df_theta_dt / df_eta_dt
    p = ncmodel.NCParams(theta=0.1, eta=0.05, gamma=0.3)
    h = ncmodel.build_h_nc(p)
    step = 1e-5
    for t in (0.0, 0.4, 1.3):
        fd = (h.at(t + step) - h.at(t - step)) * (0.5 / step)
        an = h.rate(t)
        assert residual_norm(an) > 1e-3
        assert residual_norm(an - fd) <= 1e-8 * residual_norm(an)


def test_time_constant_wrapper():
    p = PhasePoly.monomial(SIGMA2, Coord.Y)
    op = AffineOp.time_constant(p)
    for t in (0.0, 3.0):
        assert residual_norm(op.at(t) - p) == 0.0
        assert residual_norm(op.rate(t)) == 0.0
    assert op.polys == (p,)
    assert tuple(op.value(3.0)) == tuple(op.value(-1.0))


def test_degree_classification():
    assert PhasePoly.zero().degree() == 0
    assert PhasePoly.constant(ID2).degree() == 0
    assert PhasePoly.monomial(ID2, Coord.PY).degree() == 1
    assert PhasePoly.monomial(ID2, Coord.X, Coord.PY).degree() == 2
