"""The units-scaling oracle: hbar only picks the units.

Dividing i hbar d(psi)/dt = H psi by hbar shows that the run at
(hbar, theta, eta, e B, m, a1, a3) is the run at
(1, theta, eta/hbar^2, e B/hbar, m/hbar, hbar a1, hbar a3). Its H is hbar
times the other's: the Landau length sqrt(hbar/(e B)), and so the Fock
basis, is the same, the momenta are hbar times the other's, and so are
f_eta = e B/2 + eta(t)/(2 hbar) and m, while f_theta = 1 + e B theta(t)/(4 hbar)
is unchanged. The invariant a1 px + a3 py + b1 x + b3 y + c1 is the same
operator. So the two runs write the same xi trajectory and the same
invariant history, and their energies, momenta and commutators differ by
the factors of hbar that their units carry.

The commands are run through ``cli.main`` alone, and every comparison reads
the files they write. The trial spinor's defect i hbar d(psi)/dt - H psi,
an energy times psi, scales by hbar.
"""

import csv
import json

import numpy as np
import pytest

from ncdirac.cli import main
from ncdirac.lrsolve import trial_residual
from ncdirac.ncmodel import NCParams

HBARS = (0.5, 2.0)
#: (theta, eta, gamma) of the commutative case and the README deformation
CASES = {"commutative": (0.0, 0.0, 0.0), "deformed": (0.1, 0.05, 0.2)}
#: e B, m, a1, a3 off their defaults, so that every one of them is mapped
E_B, M, A1, A3 = 0.8, 1.3, 1.0, 0.25
#: b1 and b3 make the constants an invariant of the commutative case
RUN = ("--fock_N=12", "--t1=0.2", "--dt=0.01", "--grid_points=8", "--b1=0.1", "--b3=-0.4")


def mapped(hbar, theta, eta, gamma):
    """The model keys of the run at hbar, and of its image at hbar = 1."""
    here = dict(hbar=hbar, theta=theta, eta=eta, gamma=gamma, B=E_B, m=M, a1=A1, a3=A3)
    there = dict(here, hbar=1.0, eta=eta / hbar**2, B=E_B / hbar, m=M / hbar,
                 a1=hbar * A1, a3=hbar * A3)
    return here, there


def run(tmp_path, name, command, keys):
    out = tmp_path / name
    argv = [command, *RUN, *(f"--{k}={v!r}" for k, v in keys.items()), "--out", str(out)]
    return main(argv), out


def columns(path):
    """Header -> column of floats of a CSV artifact."""
    with path.open(newline="") as f:
        header, *rows = list(csv.reader(f))
    return dict(zip(header, np.array(rows, dtype=float).T))


def assert_scaled(got, want, factor=1.0):
    """got = factor * want to rounding, relative to the largest entry."""
    want = factor * np.asarray(want)
    scale = max(1.0, float(np.max(np.abs(want), initial=0.0)))
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * scale)


def pair(tmp_path, command, hbar, case):
    """Exit codes and output directories of the run and its image, which
    must both pass."""
    here, there = mapped(hbar, *CASES[case])
    code, a = run(tmp_path, "here", command, here)
    code_1, b = run(tmp_path, "there", command, there)
    assert (code, code_1) == (0, 0)
    return a, b


@pytest.mark.parametrize("case", CASES)
@pytest.mark.parametrize("hbar", HBARS)
def test_verify_algebra_scales_with_hbar(tmp_path, hbar, case):
    a, b = (json.loads((d / "algebra_report.json").read_text())
            for d in pair(tmp_path, "verify-algebra", hbar, case))
    assert a["mode"] == b["mode"]
    assert a["dual_path_deviation"] <= 1e-12 and b["dual_path_deviation"] <= 1e-12
    assert_scaled(a["hbar_eff"], b["hbar_eff"], hbar)
    assert_scaled(a["consistency_ratio"], b["consistency_ratio"])
    # [x, y] = i theta(t), [px, py] = i eta(t), [x, px] = [y, py] = i hbar_eff
    factors = {"[x_nc,y_nc]": 1.0, "[px_nc,py_nc]": hbar**2, "[x_nc,px_nc]": hbar,
               "[y_nc,py_nc]": hbar, "[x_nc,py_nc]": 1.0, "[y_nc,px_nc]": 1.0}
    for x, y in zip(a["deformed_algebra"]["checks"], b["deformed_algebra"]["checks"]):
        assert (x["t"], x["pair"]) == (y["t"], y["pair"])
        assert_scaled(x["expected_im"], y["expected_im"], factors[x["pair"]])


@pytest.mark.parametrize("case", CASES)
@pytest.mark.parametrize("hbar", HBARS)
def test_invariant_scales_with_hbar(tmp_path, hbar, case):
    a, b = pair(tmp_path, "invariant", hbar, case)
    ra, rb = (json.loads((d / "nullspace_report.json").read_text()) for d in (a, b))
    for key in ("rank", "dimension", "constants_in_nullspace", "machine_checks_pass"):
        assert ra[key] == rb[key], key
    # (a1, a3, b1, b3) is admissible at hbar when (hbar a1, hbar a3, b1, b3) is at 1
    na, nb = (np.array(r["nullspace_basis_columns_a1_a3_b1_b3"]).reshape(-1, 4).T for r in (ra, rb))
    na = np.diag([hbar, hbar, 1.0, 1.0]) @ na
    np.testing.assert_allclose(nb @ (nb.T @ na), na, atol=1e-12)
    # each residual is i hbar alpha times the constraint rows, which agree
    assert_scaled(ra["constants_max_invariance_residual"],
                  rb["constants_max_invariance_residual"], hbar)
    ca, cb = columns(a / "residuals.csv"), columns(b / "residuals.csv")
    assert list(ca) == list(cb)
    for name in ca:
        assert_scaled(ca[name], cb[name], 1.0 if name == "t" else hbar)


@pytest.mark.parametrize("case", CASES)
@pytest.mark.parametrize("hbar", HBARS)
def test_xi_is_independent_of_hbar(tmp_path, hbar, case):
    a, b = (columns(d / "xi_trajectory.csv") for d in pair(tmp_path, "xi", hbar, case))
    assert list(a) == list(b)
    for name in a:
        assert_scaled(a[name], b[name])


@pytest.mark.parametrize("case", CASES)
@pytest.mark.parametrize("hbar", HBARS)
def test_evolve_scales_with_hbar(tmp_path, hbar, case):
    a, b = (columns(d / "evolution.csv") for d in pair(tmp_path, "evolve", hbar, case))
    assert list(a) == list(b)
    # the invariant is one operator; uncertainty products and energies carry hbar
    factors = {"t": 1.0, "re_I": 1.0, "drift": 1.0,
               "dx_dpx": hbar, "bound": hbar, "margin": hbar, "E_tracked": hbar}
    assert set(a) == set(factors)
    for name, factor in factors.items():
        assert_scaled(a[name], b[name], factor)


@pytest.mark.parametrize("case", CASES)
@pytest.mark.parametrize("hbar", HBARS)
def test_trial_residual_scales_with_hbar(hbar, case):
    p, p1 = (NCParams(**{k: v for k, v in keys.items() if k not in ("a1", "a3")})
             for keys in mapped(hbar, *CASES[case]))
    for x, y, t in ((0.4, -0.2, 0.3), (1.0, 0.5, 1.2), (-0.7, 1.1, 2.0)):
        for xi3, xi4 in ((0.0, 0.0), (0.1 + 0.2j, -0.3j)):
            assert_scaled(trial_residual(p, x, y, t, xi3, xi4),
                          trial_residual(p1, x, y, t, xi3, xi4), hbar)
