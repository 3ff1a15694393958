"""Polynomial algebra: linear combinations, the canonical commutator against the
string-rewriting oracle, norms, Hermiticity, and time-dependent wrappers."""

import numpy as np
import pytest

from oracle import random_linear_poly, slot_norm, string_commutator

from ncdirac import invariant, ncmodel, phasepoly
from ncdirac.errors import DegreeError
from ncdirac.mat2 import ALPHA1, ALPHA2, BETA, ID2, SIGMA1, SIGMA2, SIGMA3
from ncdirac.phasepoly import (
    GRID_BLOCK,
    AffineOp,
    Coord,
    PhasePoly,
    commutator,
    commutator_slots,
    hermitian_defect,
    residual_norms,
)

RNG = np.random.default_rng(42)


def comm(p, q, hbar=1.0):
    """[P, Q] of two PhasePolys through the slot-stack commutator."""
    return PhasePoly(commutator(p.slots, q.slots, hbar))


def combine(polys, coeffs):
    """sum_k c_k P_k through AffineOp.stack, the package's slot-wise linear
    combination."""

    def rows(ts):
        return np.broadcast_to(coeffs, (len(ts), len(coeffs)))

    return AffineOp(tuple(polys), value=rows, derivative=rows).at(0.0)


def test_linear_combine_identity_and_cancellation():
    p = random_linear_poly(RNG)
    q = random_linear_poly(RNG)
    assert slot_norm(combine([p, q], (1.0, 0.0)) - p) == 0.0
    assert slot_norm(combine([p, p], (1.0, -1.0))) == 0.0
    x_term = PhasePoly.monomial(ID2, Coord.X)
    five_x = combine([x_term, x_term], (2.0, 3.0))
    assert slot_norm(five_x - 5.0 * x_term) == 0.0


def test_commutator_canonical_pair():
    p = PhasePoly.monomial(ID2, Coord.X)
    q = PhasePoly.monomial(ID2, Coord.PX)
    c = comm(p, q)
    assert slot_norm(c - PhasePoly.constant(1j * ID2)) == 0.0
    assert c.degree() == 0


def test_commutator_matrix_coefficients():
    p = PhasePoly.monomial(ALPHA1, Coord.PX)
    q = PhasePoly.monomial(ALPHA2, Coord.PY)
    c = comm(p, q)
    expected = PhasePoly.monomial(2j * SIGMA3, Coord.PX, Coord.PY)
    assert slot_norm(c - expected) <= 1e-15
    # oracle agreement
    assert slot_norm(c - string_commutator(p, q, 1.0)) <= 1e-14


def test_commutator_self_is_zero():
    p = PhasePoly.monomial(ID2, Coord.X)
    assert slot_norm(comm(p, p)) == 0.0


def test_commutator_rejects_quadratic_input():
    quad = PhasePoly.monomial(ID2, Coord.X, Coord.X)
    lin = PhasePoly.monomial(ID2, Coord.PX)
    with pytest.raises(DegreeError):
        comm(quad, lin)
    with pytest.raises(DegreeError):
        comm(lin, quad)


def test_commutator_matches_string_oracle_on_random_pairs():
    for _ in range(200):
        p = random_linear_poly(RNG)
        q = random_linear_poly(RNG)
        direct = comm(p, q)
        brute = string_commutator(p, q, 1.0)
        assert slot_norm(direct - brute) <= 1e-12


def test_commutator_antisymmetry_and_bilinearity():
    for _ in range(50):
        p = random_linear_poly(RNG)
        q = random_linear_poly(RNG)
        r = random_linear_poly(RNG)
        assert slot_norm(comm(p, q) + comm(q, p)) <= 1e-12
        a = complex(RNG.standard_normal(), RNG.standard_normal())
        lhs = comm(a * p + q, r)
        rhs = a * comm(p, r) + comm(q, r)
        assert slot_norm(lhs - rhs) <= 1e-12


def test_jacobi_identity_scalar_coefficients():
    for _ in range(50):
        p = random_linear_poly(RNG, scalar_coeffs=True)
        q = random_linear_poly(RNG, scalar_coeffs=True)
        r = random_linear_poly(RNG, scalar_coeffs=True)
        total = (
            comm(p, comm(q, r))
            + comm(q, comm(r, p))
            + comm(r, comm(p, q))
        )
        assert slot_norm(total) <= 1e-12


def random_slots(shape):
    """Degree-<=1 slot stack (*shape, 5, 2, 2) with random matrix coefficients."""
    return RNG.standard_normal((*shape, 5, 2, 2)) + 1j * RNG.standard_normal((*shape, 5, 2, 2))


def full(slots):
    """(..., 5, 2, 2) -> (..., 15, 2, 2) with zero quadratic slots."""
    out = np.zeros(slots.shape[:-3] + (15, 2, 2), dtype=complex)
    out[..., :5, :, :] = slots
    return out


@pytest.mark.parametrize("hbar", [1.0, 0.7])
def test_commutator_kernel_matches_string_oracle_on_a_stack(hbar):
    p, q = random_slots((7, 3)), random_slots((7, 3))
    got = commutator_slots(p, q, hbar)
    assert got.shape == (7, 3, 15, 2, 2)
    for k in np.ndindex(7, 3):
        oracle = string_commutator(PhasePoly(full(p[k])), PhasePoly(full(q[k])), hbar)
        assert slot_norm(PhasePoly(got[k]) - oracle) <= 1e-12


def test_commutator_kernel_broadcasts_its_leading_axes():
    p, q = random_slots((7, 1)), random_slots((3,))
    got = commutator_slots(p, q, 1.0)
    assert got.shape == (7, 3, 15, 2, 2)
    for i, j in np.ndindex(7, 3):
        oracle = string_commutator(PhasePoly(full(p[i, 0])), PhasePoly(full(q[j])), 1.0)
        assert slot_norm(PhasePoly(got[i, j]) - oracle) <= 1e-12


def test_identity_coefficient_commutes_exactly_inside_a_batch():
    p, q = random_slots((4,)), random_slots((4,))
    p[2] = 0.0
    p[2, 0] = (0.3 - 1.7j) * ID2  # c I commutes with every Q
    got = commutator_slots(p, q, 1.0)
    assert np.all(got[2] == 0.0)
    assert np.all(residual_norms(got[[0, 1, 3]]) > 0.1)


@pytest.mark.parametrize("side", ["left", "right"])
def test_quadratic_slot_in_any_batch_element_raises(side):
    lin = full(random_slots((5,)))
    quad = lin.copy()
    quad[3, 7] = ID2  # one quadratic slot, in one batch element
    args = (quad, lin) if side == "left" else (lin, quad)
    with pytest.raises(DegreeError):
        commutator(*args, 1.0)
    assert commutator(lin, lin, 1.0).shape == (5, 15, 2, 2)


def test_grid_passes_call_the_kernel_one_block_at_a_time(monkeypatch):
    seen = []
    real = phasepoly.commutator_slots

    def counted(p, q, hbar):
        seen.append(np.broadcast_shapes(p.shape[:-3], q.shape[:-3])[0])
        return real(p, q, hbar)

    monkeypatch.setattr(phasepoly, "commutator_slots", counted)
    p = ncmodel.NCParams(theta=0.1, eta=0.05, gamma=0.2)
    grid = np.linspace(0.0, 1.0, 4096)
    report = ncmodel.verify_nc_algebra(p, grid)
    assert report.deviation.size == 6 * 4096 and report.max_deviation <= 1e-13
    assert max(seen) <= GRID_BLOCK and sum(seen) == 4096 and len(seen) == 4096 // GRID_BLOCK
    seen.clear()
    ans = invariant.constant_invariant(1.0, 0.0, 0.0, -0.5, 0.0)
    h = ncmodel.build_h_nc(p)
    res = invariant.invariance_residual(ans, h, p.hbar, grid[:100])
    assert res.shape == (100, 15, 2, 2)
    assert max(seen) <= GRID_BLOCK and sum(seen) == 100


def test_residual_norms_equal_residual_norm_of_each_poly():
    slots = full(random_slots((6, 2)))
    norms = residual_norms(slots)
    assert norms.shape == (6, 2)
    for k in np.ndindex(6, 2):
        assert norms[k] == pytest.approx(slot_norm(PhasePoly(slots[k])), rel=1e-15)


#: every AffineOp the package builds
AFFINE_OPS = {
    "h_nc-commutative": ncmodel.build_h_nc(ncmodel.NCParams()),
    "h_nc-stationary": ncmodel.build_h_nc(ncmodel.NCParams(theta=0.1, eta=0.05)),
    "h_nc-time-dependent": ncmodel.build_h_nc(ncmodel.NCParams(theta=0.1, eta=0.05, gamma=0.3)),
    "h_commutative": ncmodel.build_h_commutative(ncmodel.NCParams(B=1.5, m=0.7)),
    "constant_invariant": invariant.constant_invariant(1.0, 0.3, -0.2, -0.5, 0.7),
}


def test_affine_op_stack_matches_combine():
    # the profile contract: an array of times in, one coefficient row per time
    # out, and at(t) is that row's operator bit for bit
    ts = np.array([0.0, 0.4, 1.3, -0.7, 2.9])
    for name, h in AFFINE_OPS.items():
        for profile in (h.value, h.derivative):
            assert profile(ts).shape == (len(ts), len(h.polys)), name
        stacked = h.stack(h.value(ts))
        for t, slots in zip(ts, stacked):
            assert np.array_equal(slots, h.at(t).slots), (name, t)


def test_residual_norm_examples():
    assert residual_norms(np.zeros((15, 2, 2))) == 0.0
    assert residual_norms(PhasePoly.constant(1j * ID2).slots) == pytest.approx(np.sqrt(2.0))
    assert residual_norms(PhasePoly.monomial(SIGMA1, Coord.X).slots) == pytest.approx(np.sqrt(2.0))


def test_hermitian_check_examples():
    p = PhasePoly.monomial(ID2, Coord.X) + PhasePoly.monomial(ID2, Coord.PX)
    assert hermitian_defect(p) == 0.0
    q = PhasePoly.monomial(1j * SIGMA1, Coord.X)
    # oracle: || i s1 - (i s1)^dag ||_F = || 2 i s1 ||_F = 2 sqrt(2)
    assert hermitian_defect(q) == pytest.approx(2.0 * np.sqrt(2.0))


def test_left_mul_scales_all_slots():
    # at B = 0 the substitution route is alpha_1 px_nc + alpha_2 py_nc + m beta:
    # each alpha multiplies every slot of its shifted operator on the left
    p = ncmodel.NCParams(theta=0.1, eta=0.05, gamma=0.2, B=0.0, m=0.7)
    ts = (0.0, 0.4, 1.3)
    ops = ncmodel.bopp_slots(*ncmodel.bopp_scales(p, np.array(ts)))
    got = ncmodel.h_nc_via_bopp(p, ts)
    for k, slot in np.ndindex(len(ts), 15):
        want = ALPHA1 @ ops[k, Coord.PX, slot] + ALPHA2 @ ops[k, Coord.PY, slot]
        if slot == 0:
            want = want + 0.7 * BETA
        assert np.allclose(got[k, slot], want, atol=1e-15)
    assert np.any(got[:, 1 + Coord.Y] != 0.0)  # the Bopp shift of px reaches y


def test_slots_are_immutable():
    p = PhasePoly.monomial(ID2, Coord.X)
    with pytest.raises(ValueError):
        p.slots[0, 0, 0] = 1.0


def test_affine_op_rate_matches_finite_differences():
    # O(h^2) central difference of H(t) is the oracle for its analytic derivative
    p = ncmodel.NCParams(theta=0.1, eta=0.05, gamma=0.3)
    h = ncmodel.build_h_nc(p)
    step = 1e-5
    for t in (0.0, 0.4, 1.3):
        fd = (h.at(t + step) - h.at(t - step)) * (0.5 / step)
        an = PhasePoly(h.stack(h.derivative(np.array([t])))[0])
        assert slot_norm(an) > 1e-3
        assert slot_norm(an - fd) <= 1e-8 * slot_norm(an)


@pytest.mark.parametrize("gamma", [0.0, 0.2, -0.3, 5.0])
def test_exp_sum_value_and_derivative_match_central_differences(gamma):
    # two columns over the rates (0, gamma, -gamma) and a column of zeros. The
    # value is checked against the sum written out term by term, the
    # derivative against an O(h^2) central difference
    rates = np.array([0.0, gamma, -gamma])
    amps = np.array([[1.0, 0.5, 0.0], [0.025, 0.0, 0.0], [-0.7, 0.025, 0.0]])
    f = phasepoly.ExpSum(rates, amps)
    ts = np.array([-0.4, 0.0, 0.3, 1.1])
    want = np.stack(
        [1.0 + 0.025 * np.exp(gamma * ts) - 0.7 * np.exp(-gamma * ts),
         0.5 + 0.025 * np.exp(-gamma * ts), np.zeros(len(ts))], axis=1)
    np.testing.assert_allclose(f(ts), want, rtol=1e-15, atol=1e-15)
    assert f(0.3).shape == (3,) and np.array_equal(f(0.3), f(ts)[2])
    assert np.array_equal(f[1](ts), f(ts)[:, 1]) and f[1](0.3).shape == ()
    step = 1e-6
    fd = (f(ts + step) - f(ts - step)) / (2.0 * step)
    # the difference errs by step^2 f'''/6 and by rounding over step, both below 1e-9 here
    np.testing.assert_allclose(f.derivative()(ts), fd, rtol=1e-8, atol=1e-8)
    assert np.all(f.derivative()(ts)[:, 2] == 0.0)
    if gamma == 0.0:
        assert np.all(f.derivative()(ts) == 0.0)


def test_exp_sum_of_complex_rates():
    # the sum takes complex rates: e^{2it} and its derivative 2i e^{2it}
    f = phasepoly.ExpSum(np.array([2j]), np.array([1.0 + 0j]))
    ts = np.linspace(0.0, 3.0, 7)
    np.testing.assert_allclose(f(ts), np.exp(2j * ts), rtol=1e-15)
    np.testing.assert_allclose(f.derivative()(ts), 2j * np.exp(2j * ts), rtol=1e-15)


def test_time_constant_wrapper():
    p = PhasePoly.monomial(SIGMA2, Coord.Y)
    op = AffineOp.time_constant(p)
    for t in (0.0, 3.0):
        assert slot_norm(op.at(t) - p) == 0.0
        assert slot_norm(PhasePoly(op.stack(op.derivative(np.array([t])))[0])) == 0.0
    assert op.polys == (p,)
    assert np.array_equal(op.value(np.array([3.0, -1.0])), np.ones((2, 1)))


def test_degree_classification():
    assert PhasePoly(np.zeros((15, 2, 2))).degree() == 0
    assert PhasePoly.constant(ID2).degree() == 0
    assert PhasePoly.monomial(ID2, Coord.PY).degree() == 1
    assert PhasePoly.monomial(ID2, Coord.X, Coord.PY).degree() == 2
