"""Invariance residual, the fifteen bracket relations read off its slots
(checked against the paper's transcription in oracle.py), and the
constant-coefficient nullspace analysis."""

import numpy as np
import pytest

from ncdirac import invariant, mat2, ncmodel
from ncdirac.errors import DegreeError
from ncdirac.invariant import (
    CONSTRAINT_LABELS,
    CONSTRAINT_SLOTS,
    constant_invariant,
    invariance_residual,
    solve_constant_invariant,
)
from ncdirac.mat2 import ALPHA1, ID2, SIGMA2, SIGMA3
from ncdirac.ncmodel import NCParams
from ncdirac.phasepoly import (
    AffineOp,
    Coord,
    PhasePoly,
    hermitian_defect,
    residual_norms,
)
from oracle import (
    constraint_residuals,
    f_eta,
    f_theta,
    grid_nullspace,
    in_span,
    mat_commutator,
    random_linear_poly,
    scalar_residual_closed_form,
    slot_distance,
    slot_norm,
)

RNG = np.random.default_rng(7)

COMMUTATIVE = NCParams()
NC_STATIC = NCParams(theta=0.1, eta=0.05, gamma=0.0)
NC_DYNAMIC = NCParams(theta=0.1, eta=0.05, gamma=0.2)
ALL_PARAMS = (COMMUTATIVE, NC_STATIC, NC_DYNAMIC)
TS = np.linspace(0.0, 2.0, 9)
#: relation 25c is the negative of its slot, every other relation equals its slot
SLOT_SIGNS = (1, 1, -1) + (1,) * 12


def relations(ans, p, ts):
    """Label -> (len(ts), 2, 2): the relations as the package reads them off
    the residual slots, with the sign of the paper's transcription."""
    res = invariance_residual(ans, ncmodel.build_h_nc(p), p.hbar, ts)
    return {
        label: sign * res[:, k]
        for label, k, sign in zip(CONSTRAINT_LABELS, CONSTRAINT_SLOTS, SLOT_SIGNS)
    }


def test_constant_invariant_structure():
    ans = constant_invariant(1.0, 0.0, 0.0, 0.0, 0.0)
    assert slot_distance(ans.at(0.3), PhasePoly.monomial(ID2, Coord.PX)) == 0.0
    assert hermitian_defect(ans.at(1.0)) == 0.0
    # spin-independent: every slot is a multiple of the identity
    slots = ans.at(1.0).slots
    assert np.all(slots[:, 0, 1] == 0.0) and np.all(slots[:, 1, 0] == 0.0)
    assert np.all(slots[:, 0, 0] == slots[:, 1, 1])


def test_constant_only_invariant_commutes_with_any_h():
    ans = constant_invariant(0.0, 0.0, 0.0, 0.0, 7.0)
    for p in ALL_PARAMS:
        h = ncmodel.build_h_nc(p)
        assert np.all(residual_norms(invariance_residual(ans, h, p.hbar, TS)) == 0.0)


def test_commutative_constrained_residual_vanishes():
    ans = constant_invariant(1.0, 0.0, 0.0, -0.5, 0.0)
    h = ncmodel.build_h_nc(COMMUTATIVE)
    assert np.all(residual_norms(invariance_residual(ans, h, COMMUTATIVE.hbar, TS)) <= 1e-13)


@pytest.mark.parametrize("hbar", [0.5, 1.0, 2.0])
def test_time_dependent_ansatz_residual_is_i_dI_dt(hbar):
    # I(t) = t^2 * 1 commutes with every H, so the residual is i hbar dI/dt = 2 i hbar t * 1
    ans = AffineOp(
        (PhasePoly.constant(ID2),),
        value=lambda ts: (ts * ts)[:, None],
        derivative=lambda ts: (2.0 * ts)[:, None],
    )
    p = NCParams(theta=0.1, eta=0.05, gamma=0.2, hbar=hbar)
    res = invariance_residual(ans, ncmodel.build_h_nc(p), hbar, TS)
    for t, row in zip(TS, res):
        assert slot_distance(PhasePoly(row), PhasePoly.constant(2j * hbar * t * ID2)) == 0.0


def test_unconstrained_residual_value():
    ans = constant_invariant(1.0, 0.0, 0.0, 0.0, 0.0)  # b3 = 0
    h = ncmodel.build_h_nc(COMMUTATIVE)
    res = PhasePoly(invariance_residual(ans, h, COMMUTATIVE.hbar, [0.7])[0])
    expected = PhasePoly.constant(0.5j * SIGMA2)
    assert slot_distance(res, expected) <= 1e-15
    assert slot_norm(res) == pytest.approx(np.sqrt(2.0) / 2.0, abs=1e-15)


def test_scalar_residual_matches_closed_form_for_random_constants():
    for p in ALL_PARAMS:
        h = ncmodel.build_h_nc(p)
        for _ in range(25):
            a1, a3, b1, b3, c1 = RNG.standard_normal(5)
            ans = constant_invariant(a1, a3, b1, b3, c1)
            ts = (0.0, 0.9, 1.7)
            res = invariance_residual(ans, h, p.hbar, ts)
            res[:, 0] -= scalar_residual_closed_form(p, a1, a3, b1, b3, ts)
            assert np.all(residual_norms(res) <= 1e-13)


def test_constraint_residuals_scalar_ansatz():
    # all fifteen slots, 25o included, match the transcription on a scalar ansatz
    for p in ALL_PARAMS:
        for _ in range(5):
            a1, a3, b1, b3, c1 = RNG.standard_normal(5)
            ans = constant_invariant(a1, a3, b1, b3, c1)
            got = relations(ans, p, TS[::3])
            want = constraint_residuals(ans, p, TS[::3])
            for label in CONSTRAINT_LABELS[:-1]:
                assert np.all(mat2.fro(got[label]) <= 1e-13), label
                assert np.all(mat2.fro(want[label]) <= 1e-13), label
            assert np.all(mat2.fro(got["25o"] - want["25o"]) <= 1e-13)
            closing = got["25o"] - scalar_residual_closed_form(p, a1, a3, b1, b3, TS[::3])
            assert np.all(mat2.fro(closing) <= 1e-13)


def test_slot_map_on_random_spinful_ansatz():
    # 25a-25n are the slots CONSTRAINT_SLOTS names, for any spin structure and
    # with a time-dependent part that feeds the i dI/dt terms of 25e-25h
    for p in ALL_PARAMS:
        for _ in range(4):
            fixed, moving = random_linear_poly(RNG), random_linear_poly(RNG)
            ans = AffineOp(
                (fixed, moving),
                value=lambda ts: np.column_stack([np.ones(len(ts)), ts * ts]),
                derivative=lambda ts: np.column_stack([np.zeros(len(ts)), 2.0 * ts]),
            )
            got = relations(ans, p, TS[::2])
            want = constraint_residuals(ans, p, TS[::2])
            for label in CONSTRAINT_LABELS[:-1]:
                assert np.all(mat2.fro(got[label] - want[label]) <= 1e-13), label


def test_relation_25o_scope_as_transcribed():
    # 25o equals the constant slot when the coefficients commute with alpha_1
    # and alpha_2; sigma_3 on x does not, and the transcription misses by 1.45
    p = NC_STATIC
    scalar = constant_invariant(0.4, -1.1, 0.3, 0.9, 2.0)
    assert np.all(
        mat2.fro(relations(scalar, p, TS)["25o"] - constraint_residuals(scalar, p, TS)["25o"])
        <= 1e-13
    )
    spinful = AffineOp.time_constant(PhasePoly.monomial(SIGMA3, Coord.X))
    got, want = relations(spinful, p, [0.0]), constraint_residuals(spinful, p, [0.0])
    assert mat2.fro(got["25o"] - want["25o"])[0] == pytest.approx(1.4496, abs=1e-4)


def test_constraint_residuals_alpha_branch():
    # A1 proportional to alpha_1 keeps 25a zero but breaks 25e via [alpha1, beta]m
    ans = AffineOp.time_constant(PhasePoly.monomial(0.7 * ALPHA1, Coord.PX))
    p = COMMUTATIVE
    expected_25e = p.m * mat_commutator(0.7 * ALPHA1, mat2.BETA)
    for rset in (relations(ans, p, [0.0]), constraint_residuals(ans, p, [0.0])):
        assert mat2.fro(rset["25a"])[0] == 0.0
        assert mat2.fro(rset["25e"][0] - expected_25e) <= 1e-15
        assert mat2.fro(rset["25e"])[0] == pytest.approx(0.7 * 2.0 * np.sqrt(2.0), abs=1e-14)


def test_constraint_residuals_reject_quadratic_ansatz():
    ans = AffineOp.time_constant(PhasePoly.monomial(ID2, Coord.X, Coord.PX))
    with pytest.raises(DegreeError):
        relations(ans, COMMUTATIVE, [0.0])


def test_constraint_labels_fixed():
    assert CONSTRAINT_LABELS == tuple(f"25{c}" for c in "abcdefghijklmno")
    assert sorted(CONSTRAINT_SLOTS) == list(range(15))
    ans = constant_invariant(1.0, 0.0, 0.0, 0.0, 0.0)
    assert tuple(constraint_residuals(ans, COMMUTATIVE, [0.0])) == CONSTRAINT_LABELS


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
    fe = f_eta(NC_STATIC, 0.0)
    ft = f_theta(NC_STATIC, 0.0)
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


@pytest.mark.parametrize("window", [2.0, 20.0])
@pytest.mark.parametrize("gamma, dimension", [(1e-12, 0), (1e-9, 0), (1e-6, 0), (0.2, 0), (0.0, 2)])
def test_nullspace_dimension_comes_from_the_rates(window, gamma, dimension):
    # f_eta/f_theta varies for every gamma != 0, however slowly; the grid's
    # smallest singular value shrinks with gamma (below 1e-10 at gamma = 1e-9
    # on [0, 2]), and it is the margin, not the verdict
    grid = np.linspace(0.0, window, 16)
    report = solve_constant_invariant(NCParams(theta=0.1, eta=0.05, gamma=gamma), grid)
    assert report.dimension == dimension and report.rank == 4 - dimension
    if dimension == 0:
        assert f"sigma_min = {report.singular_values[-1]:.3e}" in report.note
    assert np.max(np.abs(report.nullspace.T @ report.nullspace - np.eye(dimension)), initial=0.0) <= 1e-12


@pytest.mark.parametrize("gamma", [0.0, 1e-9, 0.3, -5.0])
def test_nullspace_of_the_undeformed_profiles_is_two_at_any_gamma(gamma):
    # theta = eta = 0: f_theta = 1 and f_eta = e B / 2 carry only the rate 0
    report = solve_constant_invariant(NCParams(gamma=gamma), np.linspace(0.0, 2.0, 16))
    assert report.dimension == 2


def test_nullspace_of_vanishing_profiles_is_four():
    # theta = -4, eta = -1 at e = B = 1: both profiles' terms cancel at gamma = 0
    report = solve_constant_invariant(NCParams(theta=-4.0, eta=-1.0), np.linspace(0.0, 2.0, 16))
    assert report.dimension == 4 and report.rank == 0
    assert report.note.startswith("nullspace dimension 4: f_theta and f_eta vanish")


def test_nullspace_svd_properties():
    for p in ALL_PARAMS:
        report = solve_constant_invariant(p, np.linspace(0.0, 2.0, 16))
        assert np.all(np.diff(report.singular_values) <= 0)
        if report.dimension:
            gram = report.nullspace.T @ report.nullspace
            assert np.max(np.abs(gram - np.eye(report.dimension))) <= 1e-12


def test_nullspace_grid_too_short():
    with pytest.raises(ValueError, match="constraint grid needs at least 2 points"):
        solve_constant_invariant(COMMUTATIVE, [0.0])


def random_params(rng: np.random.Generator) -> NCParams:
    """theta and eta of either sign from 1e-12 to 1e3, hbar from {0.5, 1, 2,
    3e-7}, gamma = 0, uniform on [-2, 2] or of either sign from 1e-12 to 10."""
    theta, eta = rng.choice([-1.0, 1.0], 2) * 10.0 ** rng.uniform(-12.0, 3.0, 2)
    gamma = [0.0, rng.uniform(-2.0, 2.0), rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-12.0, 1.0)]
    return NCParams(theta=theta, eta=eta, gamma=gamma[rng.integers(3)], hbar=rng.choice([0.5, 1.0, 2.0, 3e-7]))


#: commutative, stationary, and vanishing f_theta and f_eta (dimensions 2, 2, 4)
GRID_FREE_PARAMS = (COMMUTATIVE, NC_STATIC, NCParams(theta=-4.0, eta=-1.0))


@pytest.mark.parametrize("p", GRID_FREE_PARAMS)
def test_nullspace_basis_does_not_depend_on_the_grid(p):
    bases = [solve_constant_invariant(p, np.linspace(0.0, 2.0, n)).nullspace for n in (2, 16, 64, 4096)]
    assert bases[0].shape[1] > 0
    assert all(np.array_equal(basis, bases[0]) for basis in bases)


def test_nullspace_spans_the_grid_nullspace():
    # the rate table's basis spans the subspace of the grid matrix's last
    # right singular vectors; the grid's rounding grows with its size (up to
    # 1e-15 at 64 points, 9e-15 at 4096), so the default 16 is the largest compared
    rng = np.random.default_rng(20)
    params = [random_params(rng) for _ in range(240)]
    for p in (*params, *GRID_FREE_PARAMS, NCParams(theta=-4.0), NC_DYNAMIC):
        basis = invariant.constant_family(p)
        for n in (2, 16):
            grid = grid_nullspace(p, invariant.default_constraint_grid(p, n))
            assert grid.shape == basis.shape
            assert np.max(np.abs(basis @ basis.T - grid @ grid.T), initial=0.0) <= 1e-15
    assert sum(invariant.constant_family(p).shape[1] > 0 for p in params) >= 60


def test_membership_matches_the_grid_verdict():
    # constants on the family, slightly off it and far off it, judged on the
    # rate table's basis and on the basis of a 16-point grid
    rng = np.random.default_rng(21)
    verdicts = []
    for _ in range(2400):
        p = random_params(rng)
        grid = grid_nullspace(p, invariant.default_constraint_grid(p, 16))
        vec = grid @ rng.standard_normal(grid.shape[1]) * 10.0 ** rng.uniform(-3.0, 3.0)
        kind = rng.integers(3)
        if kind == 1:
            vec = vec + 1e-6 * max(1.0, np.linalg.norm(vec)) * rng.standard_normal(4)
        elif kind == 2:
            vec = rng.standard_normal(4) * 10.0 ** rng.uniform(-3.0, 3.0)
        verdict = invariant.in_family(invariant.constant_family(p), vec)
        assert verdict == in_span(grid, vec), (p, vec)
        verdicts.append(verdict)
    assert 500 <= sum(verdicts) <= 1900


def test_nullspace_members_zero_residual_25o():
    # residual 25o vanishes exactly when the nullspace constraints hold
    report = solve_constant_invariant(NC_STATIC, np.linspace(0.0, 2.0, 16))
    coeffs = report.nullspace[:, 0] + report.nullspace[:, 1]
    a1, a3, b1, b3 = coeffs
    ans = constant_invariant(a1, a3, b1, b3, 0.3)
    assert np.all(mat2.fro(relations(ans, NC_STATIC, TS)["25o"]) <= 1e-13)


def test_combined_generator_invariance():
    # the sum of both generators is itself an invariant
    ans = constant_invariant(1.0, 1.0, 0.5, -0.5, 0.0)
    h = ncmodel.build_h_nc(COMMUTATIVE)
    res = invariance_residual(ans, h, COMMUTATIVE.hbar, np.linspace(0.0, 2.0, 11))
    assert np.all(residual_norms(res) <= 1e-13)


def test_hermiticity_for_real_constants():
    for _ in range(20):
        consts = RNG.standard_normal(5)
        ans = constant_invariant(*consts)
        assert hermitian_defect(ans.at(0.5)) == 0.0


def test_default_constraint_grid_span():
    g0 = invariant.default_constraint_grid(COMMUTATIVE, 16)
    assert g0[0] == 0.0 and g0[-1] == pytest.approx(2.0) and g0.size == 16
    g1 = invariant.default_constraint_grid(NCParams(gamma=4.0), 16)
    assert g1[-1] == pytest.approx(0.5)
