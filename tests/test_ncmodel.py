"""Parameter record, Bopp shift, deformed-algebra report, Hamiltonian builders."""

import math
import warnings

import numpy as np
import pytest

from oracle import slot_norm, string_commutator

from ncdirac import ncmodel
from ncdirac.errors import ConfigError
from ncdirac.mat2 import ALPHA1, ALPHA2, BETA, ID2, SIGMA1, SIGMA2, SIGMA3
from ncdirac.ncmodel import NCParams
from ncdirac.phasepoly import Coord, PhasePoly, commutator

GRID = np.linspace(0.0, 2.0, 8)
# the columns of the deformed-algebra check table
PAIRS = ["[x_nc,y_nc]", "[px_nc,py_nc]", "[x_nc,px_nc]", "[y_nc,py_nc]", "[x_nc,py_nc]", "[y_nc,px_nc]"]


def shifted(p, t):
    """Coord -> the shifted operator at time t, a PhasePoly from ``bopp_slots``."""
    ops = ncmodel.bopp_slots(*ncmodel.bopp_scales(p, np.array([t])))[0]
    return {c: PhasePoly(ops[c]) for c in Coord}


def test_param_validation():
    with pytest.raises(ValueError):
        NCParams(m=0.0)
    with pytest.raises(ValueError):
        NCParams(hbar=-1.0)
    p = NCParams(q1=0.5, q2=1.5)
    assert p.kappa == pytest.approx(math.e, abs=1e-15)


def test_consistency_warning_threshold():
    # the record raises no Python warning on either side of the threshold;
    # the command line prints the regime notice (tests/test_cli.py)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        below = NCParams(theta=0.1, eta=0.05)
        above = NCParams(theta=1.0, eta=1.0)
    assert ncmodel.consistency_ratio(below) == pytest.approx(1.25e-3, rel=1e-15)
    assert ncmodel.consistency_ratio(above) == 0.25
    assert 1.25e-3 < ncmodel.CONSISTENCY_WARN_THRESHOLD < 0.25


def test_hbar_eff():
    assert ncmodel.hbar_eff(NCParams(theta=0.0, eta=0.7)) == 1.0
    assert ncmodel.hbar_eff(NCParams(theta=0.3, eta=0.0)) == 1.0
    assert ncmodel.hbar_eff(NCParams(theta=0.1, eta=0.05)) == pytest.approx(1.00125, abs=1e-15)


def test_si_consistency_ratio_order():
    p = NCParams(theta=1e-30, eta=1.76e-61, hbar=1.0546e-34, B=5e-7)
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
    ops = shifted(p, 1.3)
    for c in Coord:
        assert slot_norm(ops[c] - PhasePoly.monomial(ID2, c)) == 0.0


def test_bopp_shift_values():
    p = NCParams(theta=0.1, gamma=0.0)
    x_nc = shifted(p, 7.0)[Coord.X]
    expected = PhasePoly.monomial(ID2, Coord.X) - 0.05 * PhasePoly.monomial(ID2, Coord.PY)
    assert slot_norm(x_nc - expected) == 0.0

    p2 = NCParams(eta=0.05, gamma=0.2)
    px_nc = shifted(p2, 1.0)[Coord.PX]
    coeff = 0.5 * 0.05 * math.exp(-0.2)
    assert coeff == pytest.approx(0.0204683, abs=1e-7)
    expected2 = PhasePoly.monomial(ID2, Coord.PX) + coeff * PhasePoly.monomial(ID2, Coord.Y)
    assert slot_norm(px_nc - expected2) <= 1e-16


def test_bopp_scales_values():
    # closed forms: theta e^{gamma t} / 2 hbar and eta e^{-gamma t} / 2 hbar
    p = NCParams(theta=0.1, eta=0.05, gamma=0.2, hbar=2.0)
    s_theta, s_eta = ncmodel.bopp_scales(p, 1.5)
    assert s_theta == pytest.approx(0.1 * math.exp(0.3) / 4.0, rel=1e-15)
    assert s_eta == pytest.approx(0.05 * math.exp(-0.3) / 4.0, rel=1e-15)
    assert ncmodel.bopp_scales(NCParams(), 3.0) == (0.0, 0.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_algebra_report_fails_on_non_finite_deviation(bad):
    # the non-finite deviation is not the first check, where max() would drop a NaN
    deviation = np.array([[1e-16, 0.0, bad, 0.0, 0.0, 0.0]])
    report = ncmodel.DeformedAlgebraReport(np.zeros(1), np.zeros((1, 6), complex), deviation)
    assert not report.max_deviation <= 1e-13


def test_algebra_report_worst_check():
    # the first largest deviation in time-major, pair order; a NaN before all
    times = np.array([0.0, 0.5, 1.0])
    deviation = np.array([[0.0, 2e-16, 0.0, 0.0, 0.0, 0.0],
                          [0.0, 0.0, 0.0, 3e-16, 0.0, 0.0],
                          [0.0, 0.0, 0.0, 0.0, 3e-16, 0.0]])
    report = ncmodel.DeformedAlgebraReport(times, np.zeros((3, 6), complex), deviation)
    assert report.worst() == {"pair": "[y_nc,py_nc]", "t": 0.5, "deviation": 3e-16}
    deviation[1, 0], deviation[2, 5] = math.inf, math.nan
    worst = report.worst()
    assert (worst["pair"], worst["t"]) == ("[y_nc,px_nc]", 1.0) and math.isnan(worst["deviation"])
    assert math.isnan(report.max_deviation)


def test_verify_nc_algebra_values():
    p = NCParams(theta=0.1, eta=0.05, gamma=0.2)
    report = ncmodel.verify_nc_algebra(p, [1.0])
    by_pair = dict(zip(PAIRS, report.expected[0]))
    assert by_pair["[x_nc,y_nc]"] == pytest.approx(1j * 0.1 * math.exp(0.2))
    assert abs(by_pair["[x_nc,y_nc]"] - 0.122140j) < 1e-6
    assert by_pair["[x_nc,px_nc]"] == pytest.approx(1.00125j)
    assert [c["pair"] for c in report.as_dict()["checks"]] == PAIRS
    assert report.max_deviation <= 1e-14


def test_verify_nc_algebra_against_string_oracle():
    p = NCParams(theta=0.1, eta=0.05, gamma=0.2)
    for t in (0.0, 0.7, 2.0):
        ops = shifted(p, t)
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
            brute = string_commutator(ops[a], ops[b], p.hbar)
            assert slot_norm(brute - PhasePoly.constant(expected * ID2)) <= 1e-14


def test_nc_commutator_time_independent_for_xp_pair():
    p = NCParams(theta=0.1, eta=0.05, gamma=0.7)
    report = ncmodel.verify_nc_algebra(p, GRID)
    xp = report.expected[:, PAIRS.index("[x_nc,px_nc]")]
    assert len(xp) == len(GRID)
    assert all(e == xp[0] for e in xp)
    assert report.max_deviation <= 1e-14


def test_commutative_limit_recovers_canonical_relations():
    p = NCParams(theta=0.0, eta=0.0)
    report = ncmodel.verify_nc_algebra(p, GRID)
    by_pair = dict(zip(PAIRS, report.expected[-1]))
    assert by_pair["[x_nc,y_nc]"] == 0.0
    assert by_pair["[px_nc,py_nc]"] == 0.0
    assert by_pair["[x_nc,px_nc]"] == 1j * p.hbar
    assert report.max_deviation == 0.0


def test_all_deformed_commutators_identity_proportional():
    p = NCParams(theta=0.1, eta=0.05, gamma=0.2)
    ops = ncmodel.bopp_slots(*ncmodel.bopp_scales(p, np.array([0.0, 1.0])))
    # every pair (a, b) at both times in one call: (2, 4, 4, 15, 2, 2)
    res = commutator(ops[:, :, None], ops[:, None, :], p.hbar)
    assert res.shape == (2, 4, 4, 15, 2, 2)
    for slot in res.reshape(-1, 2, 2):
        # the sigma_k component of a 2x2 matrix is tr(sigma_k M)/2
        for sigma in (SIGMA1, SIGMA2, SIGMA3):
            assert abs(np.trace(sigma @ slot) / 2.0) <= 1e-15


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
    assert np.array_equal(h.slots[1 + Coord.PX], ALPHA1)
    assert np.allclose(h.slots[1 + Coord.X], -0.5 * ALPHA2, atol=0)
    assert np.allclose(h.slots[1 + Coord.Y], 0.5 * ALPHA1, atol=0)
    assert np.array_equal(h.slots[0], BETA)

    h_free = ncmodel.build_h_commutative(NCParams(B=0.0)).at(0.0)
    assert slot_norm(
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
        assert slot_norm(h_nc.at(t) - h_c.at(t)) == 0.0


def test_h_nc_slot_values():
    p = NCParams(theta=0.1, eta=0.05, gamma=0.2)
    h = ncmodel.build_h_nc(p).at(0.0)
    assert np.allclose(h.slots[1 + Coord.PX], 1.025 * ALPHA1, atol=1e-15)
    assert np.allclose(h.slots[1 + Coord.X], -0.525 * ALPHA2, atol=1e-15)


@pytest.mark.parametrize("gamma", [0.0, 0.2, -0.3, 5.0])
def test_h_nc_derivative_is_the_analytic_rate_of_its_profiles(gamma):
    # the oracle: d/dt f_theta = (e B gamma theta / 4) e^{gamma t},
    # d/dt f_eta = -(gamma eta / 2) e^{-gamma t}, and m beta's coefficient is constant
    p = NCParams(theta=0.1, eta=0.05, gamma=gamma, B=1.3, e=-0.8, m=0.7)
    ts = np.array([-0.5, 0.0, 0.4, 1.3])
    want = np.stack(
        [p.e * p.B * gamma * p.theta / 4.0 * np.exp(gamma * ts),
         -(gamma * p.eta / 2.0) * np.exp(-gamma * ts), np.zeros(len(ts))], axis=1)
    got = ncmodel.build_h_nc(p).derivative(ts)
    np.testing.assert_allclose(got, want, rtol=1e-14, atol=0)
    assert np.all(got[:, 2] == 0.0)


def test_profiles_are_one_exponential_sum():
    # the four profiles are the columns of one sum over the rates (0, gamma, -gamma)
    p = NCParams(theta=0.1, eta=0.05, gamma=0.2, B=1.3, e=-0.8)
    prof = ncmodel.profiles(p)
    assert prof.rates.tolist() == [0.0, 0.2, -0.2]
    ts = np.linspace(-1.0, 2.0, 5)
    columns = prof(ts)
    for k, f in enumerate((ncmodel.theta_of_t, ncmodel.eta_of_t, ncmodel.f_theta, ncmodel.f_eta)):
        assert np.array_equal(f(p, ts), columns[:, k])
    eb = p.e * p.B
    theta, eta = 0.1 * np.exp(0.2 * ts), 0.05 * np.exp(-0.2 * ts)
    want = np.stack([theta, eta, 1.0 + eb * theta / 4.0, eb / 2.0 + eta / 2.0], axis=1)
    np.testing.assert_allclose(columns, want, rtol=1e-15)


def test_h_nc_dual_path_agreement():
    p = NCParams(theta=0.1, eta=0.05, gamma=0.2)
    assert ncmodel.dual_path_deviation(p, (0.0, 0.5, 1.0, 2.0)) <= 1e-13


def test_verify_nc_algebra_evaluates_the_profiles_once_per_grid(monkeypatch):
    # the expected values and the Bopp scales are one evaluation each over
    # the whole grid, not one per GRID_BLOCK rows (514 records at 4096 points)
    built = []
    profiles = ncmodel.profiles
    monkeypatch.setattr(ncmodel, "profiles", lambda p: built.append(p) or profiles(p))
    p = NCParams(theta=0.1, eta=0.05, gamma=0.2)
    report = ncmodel.verify_nc_algebra(p, np.linspace(0.0, 1.0, 4096))
    assert len(built) == 2
    assert report.max_deviation <= 1e-12


def test_sample_times_refuse_coincident_times():
    # floats are 2 apart at 1e16: 100 steps of 1 would repeat sample times
    with pytest.raises(ConfigError, match="two sample times coincide"):
        ncmodel.sample_times(1e16, 1.00000000000001e16, 100)
    times = ncmodel.sample_times(1e16, 1.00000000000001e16, 50)
    assert np.all(np.diff(times) == 2.0)


def test_h_nc_rejects_si_mode():
    # SI values: hbar != 1 with a deformation
    p = NCParams(theta=1e-40, eta=1e-70, hbar=1.0546e-34)
    with pytest.raises(ConfigError):
        ncmodel.build_h_nc(p)


def test_h_nc_requires_hbar_one_when_deformed():
    # the Bopp shift divides by hbar and the dressings f_theta, f_eta do not,
    # so the two construction paths agree only at hbar = 1
    with pytest.raises(ConfigError):
        ncmodel.build_h_nc(NCParams(eta=1.0, hbar=2.0))
    commutative = NCParams(hbar=2.0)
    assert ncmodel.dual_path_deviation(commutative) == 0.0
    ncmodel.build_h_nc(commutative)


def test_f_limits_in_commutative_reduction():
    for gamma in (0.0, 0.3):
        p = NCParams(theta=0.0, eta=0.0, gamma=gamma)
        for t in GRID:
            assert ncmodel.f_theta(p, t) == 1.0
            assert ncmodel.f_eta(p, t) == 0.5 * p.e * p.B


def nearest(p, t, energy):
    """(n, sign) of one energy, through the array nearest_landau_level."""
    n, sign = ncmodel.nearest_landau_level(p.m, ncmodel.landau_gap(p, t), np.array([energy]))
    return int(n[0]), int(sign[0])


@pytest.mark.parametrize(
    "p",
    [NCParams(hbar=2.0, B=1.5, m=0.7), NCParams(theta=0.1, eta=0.05, gamma=0.2), NCParams(eta=-1.0)],
    ids=["commutative", "deformed", "closed"],
)
def test_nearest_landau_level_of_an_array_is_the_brute_force_nearest(p):
    # one call over energies of both signs; the oracle scans n <= 200 for each
    # energy and keeps the lowest n of equal distances. f_eta = 0 closes the gap
    t = 0.3
    gap = abs(4.0 * p.hbar * ncmodel.f_theta(p, t) * ncmodel.f_eta(p, t))
    levels = [math.sqrt(p.m * p.m + j * gap) for j in range(201)]
    energies = np.random.default_rng(7).uniform(-levels[150] - 1.0, levels[150] + 1.0, 300)
    energies = np.concatenate([energies, [0.0, -0.0, p.m, -p.m, levels[3], -levels[7]]])
    n, sign = ncmodel.nearest_landau_level(p.m, ncmodel.landau_gap(p, t), energies)
    for k, e in enumerate(energies.tolist()):
        distance = [abs(abs(e) - level) for level in levels]
        assert (n[k], sign[k]) == (distance.index(min(distance)), 1 if e >= 0.0 else -1)
    assert (gap == 0.0) == (p.eta == -1.0) and n.max() < 200  # the scan's bound is not reached


def test_landau_levels_commutative_closed_form():
    # relativistic Landau levels +-sqrt(m^2 + 2 n hbar e B) of the commutative
    # Dirac Hamiltonian (c = 1)
    p = NCParams(hbar=2.0, B=1.5, m=0.7)
    for n in range(6):
        want = math.sqrt(0.7**2 + 2.0 * n * 2.0 * 1.5)
        for sign in (1, -1):
            level = ncmodel.landau_level(p.m, n, sign, ncmodel.landau_gap(p, 0.3))
            assert level == pytest.approx(sign * want, rel=1e-15)
            assert nearest(p, 0.3, sign * want * (1.0 + 1e-3)) == (n, sign)


def test_landau_levels_deformed_and_closed():
    p = NCParams(theta=0.1, eta=0.05, gamma=0.2)
    t = 0.7
    gap = 4.0 * ncmodel.f_theta(p, t) * ncmodel.f_eta(p, t)
    assert ncmodel.landau_gap(p, t) == pytest.approx(gap, rel=1e-15)
    assert ncmodel.landau_level(p.m, 3, -1, gap) == pytest.approx(-math.sqrt(1.0 + 3 * gap), rel=1e-15)
    # nearer level 2 in energy although nearer level 1 in energy squared
    wide = NCParams(hbar=2.0, B=1.5, m=0.7)
    assert nearest(wide, 0.0, 3.06) == (2, 1)
    # f_eta = 0: the levels close onto +-m, and the gap carries the field's sign
    assert nearest(NCParams(eta=-1.0), 0.0, 2.0) == (0, 1)
    assert ncmodel.landau_gap(NCParams(eta=-2.0), 0.0) == -2.0
    closed = NCParams(eta=-2.0)
    assert ncmodel.landau_level(closed.m, 1, 1, ncmodel.landau_gap(closed, 0.0)) == math.sqrt(3.0)


def test_time_forms_accept_arrays():
    # one call over a grid gives each scalar call's value; the closed forms
    # are written out here as the reference
    p = NCParams(theta=0.1, eta=0.05, gamma=0.2, hbar=1.0)
    ts = np.linspace(-1.0, 2.0, 7)
    theta, eta = 0.1 * np.exp(0.2 * ts), 0.05 * np.exp(-0.2 * ts)
    gap = 4.0 * (1.0 + 0.25 * theta) * (0.5 + 0.5 * eta)
    np.testing.assert_allclose(ncmodel.theta_of_t(p, ts), theta, rtol=1e-15)
    s_theta, s_eta = ncmodel.bopp_scales(p, ts)
    np.testing.assert_allclose(s_theta, 0.5 * theta, rtol=1e-15)
    np.testing.assert_allclose(s_eta, 0.5 * eta, rtol=1e-15)
    np.testing.assert_allclose(ncmodel.landau_gap(p, ts), gap, rtol=1e-15)
    levels = ncmodel.landau_level(p.m, 2, -1, ncmodel.landau_gap(p, ts))
    np.testing.assert_allclose(levels, -np.sqrt(1.0 + 2 * gap), rtol=1e-15)
    for k, t in enumerate(ts):
        level = ncmodel.landau_level(p.m, 2, -1, ncmodel.landau_gap(p, float(t)))
        assert level == pytest.approx(-math.sqrt(1.0 + 2 * gap[k]), rel=1e-15)
    assert isinstance(ncmodel.theta_of_t(p, 0.5), float)


def test_landau_level_of_a_tiny_mass_does_not_underflow():
    # m^2 underflows to 0 for |m| below about 1.5e-154; the levels keep +-m
    p = NCParams(m=1e-300)
    gap = ncmodel.landau_gap(p, 0.0)
    assert ncmodel.landau_level(p.m, 0, -1, gap) == -1e-300
    assert ncmodel.level_spacing(p.m, 0, gap) == 2e-300


def test_landau_level_off_the_float_range_raises():
    p = NCParams(theta=0.1, eta=0.05, gamma=0.2)
    with pytest.raises(OverflowError):
        ncmodel.landau_level(p.m, 10**308, 1, ncmodel.landau_gap(p, np.array([0.0, 1.0])))
    with pytest.raises(OverflowError):
        ncmodel.landau_level(p.m, 10**308, 1, ncmodel.landau_gap(p, 0.0))
