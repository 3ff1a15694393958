"""CLI exit codes, report files, determinism, and the config surface."""

import csv
import dataclasses
import json
import math
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from ncdirac import cli, fockevolve, invariant, lrsolve, mat2, ncmodel
from ncdirac.cli import main

FAST = [
    "--fock_N", "16",
    "--dt", "2e-3",
    "--t1", "0.5",
    "--grid_points", "8",
]
DEFORMED = ("--theta=0.1", "--eta=0.05", "--gamma=0.2")


def run(tmp_path, *argv):
    return main([*argv, "--out", str(tmp_path)])


def read_csv(path):
    """The rows of a CSV artifact, the file closed on return."""
    with path.open(newline="") as f:
        return list(csv.reader(f))


def test_verify_algebra_default_passes(tmp_path):
    assert run(tmp_path, "verify-algebra") == 0
    report = json.loads((tmp_path / "algebra_report.json").read_text())
    assert report["pass"] is True
    assert report["mode"] == "commutative"
    assert report["dirac_algebra"]["max_deviation"] <= 1e-12
    assert report["deformed_algebra"]["max_deviation"] <= 1e-12


def test_verify_algebra_nc_mode_label(tmp_path):
    code = run(
        tmp_path, "verify-algebra", "--theta", "0.1", "--eta", "0.05", "--gamma", "0.2"
    )
    assert code == 0
    report = json.loads((tmp_path / "algebra_report.json").read_text())
    assert report["mode"] == "time-dependent-deformation"
    assert report["dual_path_deviation"] <= 1e-13


def test_verify_algebra_corrupted_bopp_fails(tmp_path, monkeypatch):
    real = ncmodel.bopp_slots

    def flipped(s_theta, s_eta):  # deformation terms with the wrong sign
        return real(-s_theta, -s_eta)

    monkeypatch.setattr(ncmodel, "bopp_slots", flipped)
    code = run(
        tmp_path, "verify-algebra", "--theta", "0.1", "--eta", "0.05", "--gamma", "0.2"
    )
    assert code == 1
    report = json.loads((tmp_path / "algebra_report.json").read_text())
    assert report["pass"] is False
    assert report["worst_commutator"]["deviation"] > 1e-12
    assert report["worst_commutator"]["pair"].startswith("[")


PHYSICAL_HBAR = ("--theta=1e-30", "--eta=1.76e-61", "--hbar=1.0546e-34")


@pytest.mark.parametrize(
    "argv", [PHYSICAL_HBAR, ("--eta=1", "--hbar=2")], ids=["physical-hbar", "hbar-2"]
)
def test_verify_algebra_checks_the_dual_path_at_any_hbar(tmp_path, argv):
    # the Bopp shift and the dressings f_theta, f_eta both carry 1/hbar: the
    # two constructions of the deformed H agree at physical hbar and at hbar = 2
    assert run(tmp_path, "verify-algebra", *argv) == 0
    report = json.loads((tmp_path / "algebra_report.json").read_text())
    assert report["dual_path_deviation"] <= 1e-12
    values = {key: float(value) for key, _, value in (a[2:].partition("=") for a in argv)}
    assert report["hbar_eff"] == ncmodel.hbar_eff(ncmodel.NCParams(**values))
    assert report["pass"] is True


@pytest.mark.parametrize(
    "argv",
    [("--theta=1e3", "--gamma=0.3"), ("--theta=1.3", "--hbar=3e-7")],
    ids=["theta-1e3", "hbar-3e-7"],
)
def test_dual_path_is_judged_relative_to_large_coefficients(tmp_path, argv):
    # f_theta reaches about 1e3 and 2e6: the two constructions of H round
    # apart by an ulp of those coefficients, above 1e-13 absolute. Measured
    # absolutely, invariant ended in a RuntimeError traceback
    argv = (*argv, "--eta=0.7", "--B=1.7")
    assert run(tmp_path, "invariant", *argv) == 0
    assert run(tmp_path, "verify-algebra", "--grid_points=2", "--t1=1e-3", *argv) == 0
    report = json.loads((tmp_path / "algebra_report.json").read_text())
    assert report["dual_path_deviation"] <= 1e-15


LARGE_HBAR_EFF = [
    ("--theta=1e6", "--eta=0.7", "--gamma=0.3", "--B=1.7"),
    ("--theta=1.3", "--eta=0.7", "--B=1.7", "--hbar=3e-7"),
]


@pytest.mark.parametrize("argv", LARGE_HBAR_EFF, ids=["theta-1e6", "hbar-3e-7"])
def test_commutators_are_judged_relative_to_their_expected_values(tmp_path, argv):
    # [x_nc, px_nc] should be i hbar_eff, 1.75e5 i and 7.6e5 i here: it
    # deviates by 4.1e-11 and 3.3e-10, a few ulps of that. The report keeps
    # the absolute deviations; the check takes each over max(1, |expected|)
    assert run(tmp_path, "verify-algebra", *argv) == 0
    report = json.loads((tmp_path / "algebra_report.json").read_text())
    assert report["pass"] is True
    assert report["worst_commutator"]["pair"] == "[x_nc,px_nc]"
    assert 1e-11 < report["deformed_algebra"]["max_deviation"] < 1e-9


def test_a_misscaled_bopp_shift_fails_at_large_theta(tmp_path, monkeypatch, capsys):
    # a shift wrong by 1e-9 of itself moves [x_nc, y_nc] = i theta(t) by 1e-9
    # of it: relative to the expected value it stays far above 1e-12
    real = ncmodel.bopp_scales

    def misscaled(p, t):
        return tuple((1.0 + 1e-9) * s for s in real(p, t))

    monkeypatch.setattr(ncmodel, "bopp_scales", misscaled)
    assert run(tmp_path, "verify-algebra", *LARGE_HBAR_EFF[0]) == 1
    assert capsys.readouterr().err.startswith("check failed: worst commutator")


@pytest.mark.parametrize(
    "target, name",
    [
        ("mat2.verify_dirac_algebra", "Dirac identity"),
        ("ncmodel.verify_nc_algebra", "worst commutator"),
        ("ncmodel.dual_path_deviation", "dual-path Hamiltonian"),
    ],
)
def test_verify_algebra_failure_names_the_failing_check(tmp_path, monkeypatch, capsys, target, name):
    module, attr = target.split(".")
    owner = {"mat2": mat2, "ncmodel": ncmodel}[module]
    real = getattr(owner, attr)

    def drifting(p, ts):  # every deviation 1e-6 * t
        report = real(p, ts)
        return dataclasses.replace(report, deviation=np.repeat(1e-6 * report.times[:, None], 6, 1))

    broken = {
        "verify_dirac_algebra": lambda: real(beta=2.0 * mat2.BETA),
        "verify_nc_algebra": drifting,
        "dual_path_deviation": lambda p: 1e-6,
    }[attr]
    monkeypatch.setattr(owner, attr, broken)
    assert run(tmp_path, "verify-algebra", "--theta=0.1", "--eta=0.05", "--gamma=0.2") == 1
    err = capsys.readouterr().err
    assert err.startswith(f"check failed: {name}")
    assert err.count("\n") == 1


def test_verify_algebra_nan_deviation_fails(tmp_path, monkeypatch):
    real = ncmodel.verify_nc_algebra

    def with_nan(*args, **kwargs):
        report = real(*args, **kwargs)
        # check 3: the first time row, the pair in column 3
        report.expected[0, 3] = 0j
        report.deviation[0, 3] = float("nan")
        return report

    monkeypatch.setattr(ncmodel, "verify_nc_algebra", with_nan)
    assert run(tmp_path, "verify-algebra") == 1

    def reject(token):
        raise ValueError(f"non-standard JSON token {token}")

    text = (tmp_path / "algebra_report.json").read_text()
    report = json.loads(text, parse_constant=reject)
    assert report["pass"] is False
    assert report["worst_commutator"]["pair"] == "[y_nc,py_nc]"
    assert report["deformed_algebra"]["checks"][3]["deviation"] is None


def test_verify_algebra_nan_dirac_identity_fails(tmp_path, monkeypatch, capsys):
    beta = np.array(mat2.BETA)
    beta[0, 0] = np.nan  # NaN in {a1,beta}, {a2,beta} and beta^2, none the first identity
    real = mat2.verify_dirac_algebra
    monkeypatch.setattr(mat2, "verify_dirac_algebra", lambda: real(beta=beta))
    assert run(tmp_path, "verify-algebra") == 1
    err = capsys.readouterr().err
    assert err == "check failed: Dirac identity {a1,beta} deviation: nan (bound 1e-12)\n"


def test_json_report_bytes_match_json_dump(tmp_path):
    # the one-write dump gives the bytes of json.dump's token-by-token writes,
    # on a 192-check report whose NaN deviation becomes null
    p = ncmodel.NCParams(theta=0.1, eta=0.05, gamma=0.2)
    payload = ncmodel.verify_nc_algebra(p, np.linspace(0.0, 1.0, 32)).as_dict()
    payload["checks"][5]["deviation"] = float("nan")
    payload["max_deviation"] = float("nan")
    payload["extra"] = {"inf": -math.inf, "pass": False, "empty": [], "text": "aé"}
    cli._dump_json(tmp_path / "one_write.json", payload)
    with open(tmp_path / "json_dump.json", "w") as fh:
        json.dump(cli._finite_or_null(payload), fh, sort_keys=True, allow_nan=False)
        fh.write("\n")
    got = (tmp_path / "one_write.json").read_bytes()
    assert got == (tmp_path / "json_dump.json").read_bytes()
    assert json.loads(got)["checks"][5]["deviation"] is None


@pytest.mark.parametrize("finite", [True, False], ids=["finite", "non-finite"])
def test_json_dump_walks_only_a_non_finite_payload(tmp_path, monkeypatch, finite):
    # the payload is encoded as it is first; only a NaN or an infinity sends
    # it through the walk, and either way the bytes are those of the walked
    # payload's encoding
    payload = {
        "b": (np.float64(0.1), 2, -3e-300, [1e308, {"z": None, "a": True}]),
        "a": {"text": "aé", "empty": [], "x": 5e-324},
    }
    if not finite:
        payload["a"]["nan"] = float("nan")
        payload["b"][3].append(-math.inf)
    want = json.dumps(cli._finite_or_null(payload), sort_keys=True, allow_nan=False) + "\n"
    walks = []
    walk = cli._finite_or_null

    def recording(value):
        walks.append(value)
        return walk(value)

    monkeypatch.setattr(cli, "_finite_or_null", recording)
    cli._dump_json(tmp_path / "out.json", payload)
    got = (tmp_path / "out.json").read_text()
    assert got == want
    assert walks[:1] == ([] if finite else [payload])  # the walk recurses through the patch
    if not finite:
        parsed = json.loads(got, parse_constant=reject_constant)
        assert parsed["a"]["nan"] is None and parsed["b"][3][-1] is None


def test_json_artifacts_are_one_deterministic_line(tmp_path):
    # one config in two directories: the same bytes, one line of strict JSON
    argv = ["verify-algebra", "--theta=0.1", "--eta=0.05", "--gamma=0.2"]
    assert run(tmp_path / "a", *argv) == 0
    assert run(tmp_path / "b", *argv) == 0
    text = (tmp_path / "a" / "algebra_report.json").read_bytes()
    assert text == (tmp_path / "b" / "algebra_report.json").read_bytes()
    assert text.endswith(b"\n") and text.count(b"\n") == 1
    report = json.loads(text, parse_constant=reject_constant)
    assert len(report["deformed_algebra"]["checks"]) == 6 * 16


def test_invariant_commutative(tmp_path):
    assert run(tmp_path, "invariant") == 0
    report = json.loads((tmp_path / "nullspace_report.json").read_text())
    assert report["dimension"] == 2
    assert report["constants_in_nullspace"] is True
    assert report["constants_max_invariance_residual"] <= 1e-13
    rows = read_csv(tmp_path / "residuals.csv")
    assert rows[0][0] == "t" and rows[0][1] == "25a" and rows[0][-2] == "25o"
    assert len(rows) == 1 + 16


def test_invariant_prints_the_profile_ratio_as_a_plain_float(tmp_path, capsys):
    # the profiles are numpy arrays; the note formats f_eta/f_theta = 0.525/1.025
    # as a plain float, so its repr carries no np.float64(...) wrapper
    assert run(tmp_path, "invariant", "--theta", "0.1", "--eta", "0.05") == 0
    assert "f_eta/f_theta is constant (= 0.5121951219512195) " in capsys.readouterr().out
    report = json.loads((tmp_path / "nullspace_report.json").read_text())
    assert "(= 0.5121951219512195) " in report["note"]


def test_invariant_dynamic_nc_flags_tension(tmp_path):
    code = run(
        tmp_path, "invariant", "--gamma", "0.2", "--eta", "0.05", "--theta", "0.1"
    )
    assert code == 0
    report = json.loads((tmp_path / "nullspace_report.json").read_text())
    assert report["dimension"] == 0
    assert report["constants_in_nullspace"] is False
    assert report["constants_max_invariance_residual"] > 1e-3
    assert "forcing" in report["note"]


def test_invariant_slow_deformation_has_no_invariant(tmp_path, capsys):
    # f_eta/f_theta changes by about 1e-9 of itself over the grid: the grid's
    # smallest singular value, 8.3e-11, is the margin quoted in the note, and
    # the verdict comes from the profiles' rates
    assert run(tmp_path, "invariant", "--theta", "0.1", "--eta", "0.05", "--gamma", "1e-9") == 0
    report = json.loads((tmp_path / "nullspace_report.json").read_text())
    assert report["dimension"] == 0 and "tolerance" not in report
    assert report["singular_values"][-1] == pytest.approx(8.27e-11, rel=1e-3)
    margin = f"sigma_min = {report['singular_values'][-1]:.3e}"
    assert margin in report["note"] and "forcing" in report["note"]
    assert margin in capsys.readouterr().out


def test_invariant_constant_only(tmp_path):
    code = run(
        tmp_path, "invariant",
        "--a1", "0", "--a3", "0", "--b1", "0", "--b3", "0", "--c1", "1",
    )
    assert code == 0
    report = json.loads((tmp_path / "nullspace_report.json").read_text())
    assert report["constants_max_invariance_residual"] <= 1e-15


def test_invariant_vanishing_f_theta(tmp_path):
    # at e = B = 1, theta = -4 sets f_theta = 1 + e B theta / 4 = 0: a1 = a3 = 0,
    # b1 and b3 free
    assert run(tmp_path, "invariant", "--theta", "-4", "--eta", "0.01") == 0
    report = json.loads((tmp_path / "nullspace_report.json").read_text())
    assert report["dimension"] == 2
    assert "f_theta vanishes" in report["note"]


def test_invariant_vanishing_f_theta_and_f_eta(tmp_path, capsys):
    # f_theta = f_eta = 0 leaves H = m beta, which every scalar ansatz commutes
    # with; theta*eta/4 = 1 is outside the small-deformation regime, which one
    # stderr line says, not a Python warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run(tmp_path, "invariant", "--theta", "-4", "--eta", "-1")
    assert code == 0
    assert capsys.readouterr().err == (
        "|theta*eta/(4*hbar^2)| = 1.000e+00 exceeds 1e-02; outside the small-deformation regime\n"
    )
    report = json.loads((tmp_path / "nullspace_report.json").read_text())
    assert report["dimension"] == 4
    assert report["constants_in_nullspace"] is True
    assert report["note"].startswith("nullspace dimension 4: f_theta and f_eta vanish")


@pytest.mark.parametrize("hbar", ["0.5", "2.5"])
def test_invariant_machine_checks_pass_at_hbar_not_one(tmp_path, hbar):
    # the closing check scales the rows by hbar, as the commutator's constant slot does
    assert run(tmp_path, "invariant", "--hbar", hbar, "--B", "0.7") == 0
    report = json.loads((tmp_path / "nullspace_report.json").read_text())
    assert report["machine_checks_pass"] is True
    assert report["dimension"] == 2


def test_xi_commutative(tmp_path):
    assert run(tmp_path, "xi", "--t1", "5.0") == 0
    rows = read_csv(tmp_path / "xi_trajectory.csv")
    assert rows[0] == [
        "t", "re_xi1", "im_xi1", "re_xi2", "im_xi2", "re_F1", "im_F1",
        "re_F2", "im_F2", "dev_xi1", "dev_xi2", "dev_F1", "dev_F2",
    ]
    devs = np.array([[float(v) for v in row[9:]] for row in rows[1:]])
    assert devs.max() <= 1e-6


def test_xi_zero_mass_exits_2(tmp_path, capsys):
    # NCParams refuses m <= 0: zero and negative masses end alike
    assert run(tmp_path, "xi", "--m", "0") == 2
    zero = capsys.readouterr()
    assert run(tmp_path, "xi", "--m", "-1") == 2
    assert capsys.readouterr() == zero == ("", "config error: mass m must be positive\n")


def test_xi_nc_branch_values(tmp_path):
    assert run(tmp_path, "xi", "--gamma", "0.2", "--eta", "0.05", "--t1", "2.0") == 0
    rows = read_csv(tmp_path / "xi_trajectory.csv")
    # decaying-branch contribution: |xi1| at late times differs from the
    # stationary value 0.25 of the undeformed run
    last = rows[-1]
    xi1 = complex(float(last[1]), float(last[2]))
    assert abs(abs(xi1) - 0.25) > 1e-4


def test_xi_and_evolve_sample_the_same_times(tmp_path):
    # one window, one grid t0 + (t1 - t0) k/n: the t columns agree byte for
    # byte (a t0 + h k grid differs from it on 72 of these 501 rows)
    argv = ("--t1", "1", "--dt", "2e-3")
    assert run(tmp_path, "xi", *argv) == 0
    assert run(tmp_path, "evolve", *argv) == 0

    def t_column(name):
        return [line.partition(",")[0] for line in (tmp_path / name).read_text().splitlines()]

    xi = t_column("xi_trajectory.csv")
    assert len(xi) == 502 and xi == t_column("evolution.csv")


def test_xi_and_evolve_share_a_window_at_large_t0(tmp_path, capsys):
    # at t0 = 1e4 floats are 1.8e-12 apart, so the steps of the sample grid
    # differ by that much: evolve takes the grid xi takes, to a verdict
    argv = ("--t0", "1e4", "--t1", "10000.01", "--dt", "1e-3", "--fock_N", "4")
    assert run(tmp_path, "xi", *argv) == 0
    assert run(tmp_path, "evolve", *argv) == 0
    assert "Traceback" not in capsys.readouterr().err

    def t_column(name):
        return [line.partition(",")[0] for line in (tmp_path / name).read_text().splitlines()]

    xi = t_column("xi_trajectory.csv")
    assert len(xi) == 12 and xi == t_column("evolution.csv")


@pytest.mark.parametrize("command", ["xi", "evolve"])
def test_steps_finer_than_the_float_spacing_exit_2(tmp_path, capsys, command):
    # 100 steps of 1 at t0 = 1e16, where floats are 2 apart: consecutive
    # sample times coincide, and the window is refused before any output
    argv = ("--t0", "1e16", "--t1", "1.00000000000001e16", "--dt", "1", "--fock_N", "4")
    assert run(tmp_path, command, *argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error: 100 steps from t0=1e+16")
    assert not list(tmp_path.iterdir())


def test_evolve_constrained_passes(tmp_path):
    assert run(tmp_path, "evolve", *FAST) == 0
    rows = read_csv(tmp_path / "evolution.csv")
    assert rows[0] == ["t", "re_I", "drift", "dx_dpx", "bound", "margin", "E_tracked"]
    data = np.array([[float(v) for v in r] for r in rows[1:]])
    assert data[:, 2].max() <= 1e-6  # drift column
    assert data[:, 5].min() >= -1e-9  # margin column
    assert np.all(data[:, 6] != 0.0)  # tracked energy present


@pytest.mark.parametrize("gamma", ["0", "1e-9"])
def test_evolve_takes_the_invariant_verdict_on_the_constants(tmp_path, capsys, gamma):
    # b3 = -a1 f_eta/f_theta is admissible only for a static deformation. At
    # gamma = 1e-9 the residual on evolve's 8 times (1.6e-11) is below 1e-10,
    # yet no invariant exists: evolve says so, as invariant does, and does not
    # hold the drift to an invariant's bound
    argv = ("--theta=0.1", "--eta=0.05", f"--gamma={gamma}", "--a1=1", "--b3=-0.5121951219512195")
    assert run(tmp_path, "invariant", *argv) == 0
    in_null = json.loads((tmp_path / "nullspace_report.json").read_text())["constants_in_nullspace"]
    assert in_null == (gamma == "0")
    capsys.readouterr()
    code = run(tmp_path, "evolve", *argv, "--fock_N=8", "--t1=0.3")
    out = capsys.readouterr().out
    assert ("(constrained constants" in out) == in_null
    assert ("(unconstrained constants" in out) != in_null
    if not in_null:
        assert code == 0


LEVEL_LINE = re.compile(
    r"E_tracked on Landau level n=(\d+) \(([+-])\): Ritz error (\S+) \(residual (\S+)\) at t0, "
    r"(\S+) \(residual (\S+)\) at t1; max top-level weight (\S+)$"
)


def level_diagnostics(stdout):
    """(n, sign, t0 error, t0 residual, t1 error, t1 residual, edge weight)
    from evolve's stdout line."""
    match = LEVEL_LINE.search(stdout.strip())
    assert match, stdout
    n, sign, *figures = match.groups()
    return (int(n), sign, *map(float, figures))


def test_evolve_landau_scale_carries_hbar(tmp_path, capsys):
    # with the oscillator scale sqrt(hbar/(e B)) the commutative hbar = 2 run
    # sits on the closed-form n = 0 level to the Krylov resolution of its
    # Ritz value; the scale 1/sqrt(e B) left it 2.2e-3 away
    code = run(tmp_path, "evolve", "--hbar=2", "--fock_N=16", "--t1=0.01", "--dt=1e-3")
    assert code == 0
    n, sign, err0, res0, err1, res1, edge = level_diagnostics(capsys.readouterr().out)
    assert (n, sign) == (0, "+")
    assert err0 <= 1e-5 and err1 <= 1e-5
    assert res0 <= 1e-2 and res1 <= 1e-2
    assert edge <= 1e-12
    rows = read_csv(tmp_path / "evolution.csv")
    assert all(float(row[-1]) == 1.0 for row in rows[1:])  # E_0 = m


def test_evolve_warns_when_the_landau_levels_close(tmp_path, capsys):
    # f_eta = (1 - 1.5 e^{-t})/2 changes sign at t = ln 1.5 inside the window;
    # the warning alone leaves the exit code as it is without the crossing
    argv = ("--eta=-1.5", "--gamma=1", "--fock_N=8", "--t1=0.5", "--dt=0.05")
    code = run(tmp_path, "evolve", *argv)
    assert code in (0, 1)
    err = capsys.readouterr().err
    assert "changes sign" in err and "level-resolution ratio" not in err
    assert run(tmp_path, "evolve", "--eta=-0.5", "--gamma=1", *argv[2:]) == code
    assert "changes sign" not in capsys.readouterr().err
    # at fock_N=6 the Ritz error at t1 (5.1e-2) exceeds half the level
    # spacing there (8.0e-2), as the levels near their closing: exit 1
    assert run(tmp_path, "evolve", *argv[:2], "--fock_N=6", *argv[3:]) == 1
    assert "check failed: level-resolution ratio of n=1" in capsys.readouterr().err


def test_evolve_exits_1_when_the_level_pick_is_ambiguous(tmp_path, capsys):
    # levels +-m 2e-300 apart, far closer than any Ritz accuracy: which one
    # the state follows means nothing
    assert run(tmp_path / "tiny-m", "evolve", "--m=1e-300", "--fock_N=8", "--t1=0.01") == 1
    out, err = capsys.readouterr()
    assert err.startswith("check failed: level-resolution ratio of n=0")
    # the n = 0 (+) level is m, not the 0 of an underflowing m^2
    assert "Landau level n=0 (+)" in out
    rows = read_csv(tmp_path / "tiny-m" / "evolution.csv")
    assert {float(row[-1]) for row in rows[1:]} == {1e-300}
    # the README run resolves its level to a ratio of about 2e-6
    assert run(tmp_path / "readme", "evolve", "--theta=0.1", "--eta=0.05", "--gamma=0.2") == 0
    assert "level-resolution ratio" not in capsys.readouterr().err


def _drifting_norm(monkeypatch):
    monkeypatch.setattr(fockevolve.EvolvedState, "norm_drift", property(lambda self: 1e-6))


def _negative_margin(monkeypatch):
    real = fockevolve.robertson

    def shifted(*args):  # every margin 1e-6 below zero
        result = real(*args)
        return result._replace(margin=np.full_like(result.margin, -1e-6))

    monkeypatch.setattr(fockevolve, "robertson", shifted)


@pytest.mark.parametrize(
    "spoil, name",
    [(_drifting_norm, "norm drift"), (_negative_margin, "uncertainty margin deficit")],
    ids=["norm-drift", "margin"],
)
def test_evolve_failure_names_the_failing_check(tmp_path, monkeypatch, capsys, spoil, name):
    # each of these checks alone fails the run: one stderr line names it
    spoil(monkeypatch)
    assert run(tmp_path, "evolve", "--fock_N=8", "--t1=0.1", "--dt=0.01") == 1
    err = capsys.readouterr().err
    assert err.startswith(f"check failed: {name}: 1.000e-06 (bound ")
    assert err.count("\n") == 1


def test_evolve_truncation_too_small_fails(tmp_path):
    code = main(
        ["evolve", "--fock_N", "4", "--dt", "2e-3", "--t1", "1.0", "--out", str(tmp_path)]
    )
    assert code == 1


def test_evolve_si_mode_exits_2(tmp_path, capsys):
    # SI values of theta, eta and hbar: |H| is about m = 1, so a step of
    # dt = 1e-3 propagates by exp(-i H dt/hbar) over 1e31 units of 1/|H|
    assert run(tmp_path, "evolve", *PHYSICAL_HBAR) == 2
    assert capsys.readouterr() == ("", (
        "config error: dt=0.001 (dt/hbar=9.48227e+30) needs about 2.37e+32 Lanczos "
        "sub-steps, more than the 1024 a run may take: the generator-norm bound "
        "reaches 1, and a sub-step spans at most about 40/bound\n"
    ))
    assert not list(tmp_path.iterdir())


def test_xi_si_mode_exits_2(tmp_path, capsys):
    # the envelope turns at m/hbar = 9.5e33: each RK4 step of 1e-3 multiplies
    # it by about (m dt/hbar)^4/24, which leaves the float range
    assert run(tmp_path, "xi", *PHYSICAL_HBAR) == 2
    assert capsys.readouterr() == ("", (
        "config error: the parameters leave the float range "
        "(the RK4 envelope leaves the float range)\n"
    ))
    assert not list(tmp_path.iterdir())


def test_report_checks_the_model_keys(tmp_path, capsys):
    # report reads no model key, yet refuses an invalid one as every command does
    out = tmp_path / "out"
    assert run(out, "report", "--m", "0") == 2
    assert capsys.readouterr().err == "config error: mass m must be positive\n"
    assert not out.exists()


def test_report_requires_all_inputs(tmp_path, capsys):
    # report only reads its inputs: a missing directory stays missing
    for out in (tmp_path, tmp_path / "absent"):
        assert run(out, "report") == 2
        assert out.exists() == (out == tmp_path)
        err = capsys.readouterr().err
        assert err.startswith("config error: missing inputs for report: ")
        assert err.count("\n") == 1


def write_report_inputs(d):
    """Small well-formed inputs for ``report``."""
    for name in ("algebra_report.json", "nullspace_report.json"):
        (d / name).write_text('{"pass": true}\n')
    for name in ("xi_trajectory.csv", "evolution.csv"):
        (d / name).write_text("t,a,b\r\n0,1,2\r\n0.5,-1,3\r\n")


def test_report_summarizes_each_csv(tmp_path):
    write_report_inputs(tmp_path)
    (tmp_path / "evolution.csv").write_text("t,a\r\n")  # a header and no rows
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(tmp_path, "report") == 0
    sections = json.loads((tmp_path / "run_summary.json").read_text())["sections"]
    assert sections["xi"] == {
        "rows": 2, "columns": ["t", "a", "b"], "max_a": 1.0, "min_a": -1.0, "max_b": 3.0, "min_b": 2.0,
    }
    assert sections["evolution"] == {"rows": 0, "columns": ["t", "a"]}
    assert sections["algebra"] == {"pass": True}


def _replace_with_directory(path):
    path.unlink()
    path.mkdir()


@pytest.mark.parametrize(
    "name, spoil",
    [
        ("algebra_report.json", lambda p: p.write_text('{"pass": tr')),  # truncated
        ("xi_trajectory.csv", lambda p: p.write_text("t,a,b\r\n0,1,2\r\n0.5,-1\r\n")),
        ("xi_trajectory.csv", lambda p: p.write_text("t,a,b\r\n0,1\r\n")),  # every row short
        ("evolution.csv", lambda p: p.write_text("")),
        ("evolution.csv", lambda p: p.write_bytes(b"t,a,b\r\n0,1,\xff\r\n")),  # not UTF-8
        ("evolution.csv", lambda p: p.write_text("t,a,b\r\n0,1,x\r\n")),
        ("nullspace_report.json", lambda p: p.write_bytes(b'{"note": "\xff"}')),
        ("evolution.csv", _replace_with_directory),
    ],
    ids=[
        "truncated-json", "short-row", "short-rows", "empty-csv", "non-utf8-csv",
        "non-numeric-csv", "non-utf8-json", "directory-for-csv",
    ],
)
def test_unreadable_report_input_exits_2(tmp_path, capsys, name, spoil):
    write_report_inputs(tmp_path)
    spoil(tmp_path / name)
    assert run(tmp_path, "report") == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: unreadable input for report: {tmp_path / name}: ")
    assert err.count("\n") == 1
    assert not (tmp_path / "run_summary.json").exists()


@pytest.mark.parametrize("below", [False, True], ids=["file", "below-file"])
@pytest.mark.parametrize("command", ["verify-algebra", "invariant", "xi", "evolve", "report"])
def test_out_path_at_or_below_a_file_exits_2(tmp_path, capsys, command, below):
    blocker = tmp_path / "taken"
    blocker.write_text("a file, not a directory\n")
    out = blocker / "sub" if below else blocker
    assert main([command, *(FAST if command == "evolve" else []), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: cannot use output directory {out}: ")
    assert err.count("\n") == 1
    assert blocker.read_text() == "a file, not a directory\n"


def test_full_pipeline_and_report_determinism(tmp_path):
    assert run(tmp_path, "verify-algebra") == 0
    assert run(tmp_path, "invariant") == 0
    assert run(tmp_path, "xi") == 0
    assert run(tmp_path, "evolve", *FAST) == 0
    assert run(tmp_path, "report") == 0
    first = json.loads((tmp_path / "run_summary.json").read_text())
    assert set(first["sections"]) == {"algebra", "invariant", "xi", "evolution"}
    assert run(tmp_path, "report") == 0
    second = json.loads((tmp_path / "run_summary.json").read_text())
    first.pop("timestamp")
    second.pop("timestamp")
    assert first == second


def test_report_hash_ignores_the_output_directory(tmp_path):
    # identical inputs in two directories: one config hash
    a, b = tmp_path / "a", tmp_path / "b"
    for command in ("verify-algebra", "invariant", "xi"):
        assert main([command, "--out", str(a)]) == 0
    assert main(["evolve", *FAST, "--out", str(a)]) == 0
    shutil.copytree(a, b)
    hashes = set()
    for out in (a, b):
        assert main(["report", "--out", str(out)]) == 0
        hashes.add(json.loads((out / "run_summary.json").read_text())["config_hash"])
    assert len(hashes) == 1


def test_evolve_rerun_is_byte_identical(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    fast = ["--fock_N", "12", "--dt", "5e-3", "--t1", "0.25"]
    assert main(["evolve", *fast, "--out", str(a)]) == 0
    assert main(["evolve", *fast, "--out", str(b)]) == 0
    assert (a / "evolution.csv").read_bytes() == (b / "evolution.csv").read_bytes()


def test_config_file_and_overrides(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# sample configuration\n"
        "theta = 0.1\n"
        "eta = 0.05\n"
        "gamma = 0.0\n"
        "b3 = -0.525\n"
        "a1 = 1.0\n"
    )
    code = main(
        ["invariant", "--config", str(cfg), "--grid_points", "8", "--out", str(tmp_path)]
    )
    assert code == 0
    report = json.loads((tmp_path / "nullspace_report.json").read_text())
    assert report["dimension"] == 2
    # admissible pair requires b3 = -a1 * f_eta/f_theta = -0.525/1.025; the
    # configured b3 = -0.525 misses it, so the residual is the gap times sqrt(2)
    assert report["constants_in_nullspace"] is False
    gap = abs(1.0 * 0.525 + (-0.525) * 1.025) * np.sqrt(2.0)
    assert report["constants_max_invariance_residual"] == pytest.approx(gap, rel=1e-10)


def test_unknown_config_key_rejected(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("thetaa = 0.1\n")
    assert main(["verify-algebra", "--config", str(cfg), "--out", str(tmp_path)]) == 2


def test_non_utf8_config_file_exits_2(tmp_path, capsys):
    cfg = tmp_path / "latin.cfg"
    cfg.write_bytes(b"theta = 0.1\n\xff\xfe = 2\n")
    out = tmp_path / "out"
    assert main(["verify-algebra", "--config", str(cfg), "--out", str(out)]) == 2
    assert "config error:" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("key", ["kappa", "xi3_0", "xi4_0", "unit_mode"])
def test_derived_and_constant_coefficients_are_not_keys(tmp_path, capsys, key):
    # kappa = exp(q2 - q1) is derived; xi3, xi4 are constants of the motion
    # that no output depends on; hbar, theta and eta say where the deformed
    # Hamiltonian exists, so no unit mode selects it
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{key} = 1.0\n")
    assert run(tmp_path / "flag", "xi", f"--{key}=1.0") == 2
    assert main(["xi", "--config", str(cfg), "--out", str(tmp_path / "file")]) == 2
    assert capsys.readouterr().err == f"config error: unknown config key '{key}'\n" * 2
    assert sorted(tmp_path.iterdir()) == [cfg]


def test_bad_values_exit_2(tmp_path):
    assert run(tmp_path, "xi", "--dt", "-1") == 2
    assert run(tmp_path, "xi", "--t1", "-5") == 2
    assert run(tmp_path, "evolve", "--fock_N", "1") == 2
    assert main(["frobnicate"]) == 2


def test_consecutive_calls_share_the_parser_but_no_state(tmp_path):
    # one parser per process; each call parses its own options afresh
    assert cli.build_parser() is cli.build_parser()
    a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    deformed = ["--theta=0.1", "--eta=0.05", "--gamma=0.2", "--grid_points=4"]
    assert main(["verify-algebra", *deformed, "--out", str(a)]) == 0
    assert main(["invariant", "--dt=-1", "--a1=0", "--out", str(b)]) == 2  # config error
    assert not b.exists()
    assert main(["invariant", "--out", str(b)]) == 0
    assert main(["verify-algebra", "--out", str(c)]) == 0
    invariant_report = json.loads((b / "nullspace_report.json").read_text())
    assert invariant_report["constants"]["a1"] == 1.0  # the default, not the rejected 0
    assert len(invariant_report["times"]) == 16
    algebra = json.loads((c / "algebra_report.json").read_text())
    assert algebra["mode"] == "commutative"
    assert len(algebra["deformed_algebra"]["checks"]) == 6 * 16


USAGE_LINE = "usage: ncdirac {verify-algebra,invariant,xi,evolve,report} "


@pytest.mark.parametrize(
    "argv, code, expected",
    [
        # read: the config fields that differ from the defaults
        (["xi", "--theta=0.1", "--eta", "0.05"], None, {"theta": 0.1, "eta": 0.05}),
        (["xi", "--theta", "-1e-3", "--t0=-1e-3"], None, {"theta": -1e-3, "t0": -1e-3}),
        (["xi", "--theta", "0.1", "--theta=0.2"], None, {"theta": 0.2}),
        (["xi", "--out", "a", "--out=b"], None, {"output_dir": "b"}),
        (["xi", "--out", "b", "--output_dir", "a"], None, {"output_dir": "b"}),
        (["xi", "--config", "{cfg}", "--eta", "0.07"], None, {"theta": 0.3, "eta": 0.07}),
        (["xi", "--config=nowhere.cfg", "--config={cfg}"], None, {"theta": 0.3, "eta": 0.05}),
        # refused: exit 2 and the whole of stderr
        (["xi", "--theta"], 2, "config error: --theta needs a value\n"),
        (["xi", "0.1"], 2, "config error: unexpected argument '0.1': give --key value\n"),
        ([], 2, "config error: no command given: choose one of "
                "verify-algebra, invariant, xi, evolve, report\n"),
        (["frobnicate"], 2, "config error: unknown command 'frobnicate': choose one of "
                            "verify-algebra, invariant, xi, evolve, report\n"),
        (["xi", "--thet=0.1"], 2, "config error: unknown config key 'thet'\n"),  # no prefixes
        (["xi", "--k", "1"], 2, "config error: unknown config key 'k'\n"),
        (["xi", "--config", "{bad}"], 2, "config error: unknown config key 'k'\n"),
        (["xi", "--theta", "x"], 2, "config error: bad value for 'theta': 'x'\n"),
        # help: exit 0 and stdout starts with the usage line
        (["-h"], 0, USAGE_LINE),
        (["xi", "--theta=0.1", "--help"], 0, USAGE_LINE),
    ],
    ids=[
        "key-value", "negative-values", "repeated-key", "repeated-out", "out-over-output_dir",
        "config-then-key", "repeated-config", "missing-value", "stray-argument", "no-command",
        "unknown-command", "abbreviated-key", "unknown-key", "unknown-key-in-file", "bad-value",
        "h", "help",
    ],
)
def test_flag_reader_contract(tmp_path, capsys, argv, code, expected):
    (tmp_path / "run.cfg").write_text("theta = 0.3\neta = 0.05\n")
    (tmp_path / "bad.cfg").write_text("k = 1\n")
    argv = [a.format(cfg=tmp_path / "run.cfg", bad=tmp_path / "bad.cfg") for a in argv]
    if code is None:
        cfg = cli.load_config(cli.build_parser().parse_args(argv))
        changed = {
            f.name: getattr(cfg, f.name) for f in dataclasses.fields(cfg)
            if f.init and getattr(cfg, f.name) != f.default
        }
        assert changed == expected
        return
    assert main(argv) == code
    out, err = capsys.readouterr()
    if code == 0:
        assert out.startswith(expected) and not err
        assert all(f" {key} " in out.replace("\n", " ") for key in cli._FIELD_TYPES)
    else:
        assert (out, err) == ("", expected)
    assert sorted(tmp_path.iterdir()) == [tmp_path / "bad.cfg", tmp_path / "run.cfg"]


FOOTPRINT_MODULES = (
    "ncdirac.fockevolve", "ncdirac.invariant", "ncdirac.lrsolve", "hashlib", "argparse"
)
FOOTPRINT_PROBE = (
    "import sys; from ncdirac import cli; code = cli.main(sys.argv[1:]); "
    f"print(code, *(m for m in {FOOTPRINT_MODULES!r} if m in sys.modules))"
)


def test_each_command_loads_only_its_own_modules(tmp_path):
    # a fresh interpreter per command, as a shell session runs them
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    small = ["--fock_N=8", "--t1=0.05", "--dt=0.01", "--grid_points=4", f"--out={tmp_path}"]
    loaded = {}
    for command in ("verify-algebra", "invariant", "xi", "evolve", "report"):
        argv = [sys.executable, "-c", FOOTPRINT_PROBE, command, *small]
        done = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        loaded[command] = done.stdout.splitlines()[-1].split()
    assert loaded == {
        "verify-algebra": ["0"],
        "invariant": ["0", "ncdirac.invariant"],
        "xi": ["0", "ncdirac.lrsolve"],
        "evolve": ["0", "ncdirac.fockevolve", "ncdirac.invariant", "ncdirac.lrsolve"],
        "report": ["0", "hashlib"],
    }


@pytest.mark.parametrize(
    "argv",
    [
        ("xi", "--dt=2", "--t1=1"),  # dt longer than the interval
        ("verify-algebra", "--theta=nan"),
        ("invariant", "--theta=nan", "--gamma=0.2"),
        ("evolve", "--t1=nan"),
        ("xi", "--eta=inf"),
        # a time profile or kappa = exp(q2 - q1) beyond the float range
        ("invariant", "--gamma=800", "--theta=0.1", "--eta=0.05"),
        ("evolve", "--gamma=800", "--theta=0.1", "--eta=0.05"),
        ("verify-algebra", "--gamma=30", "--t1=30", "--theta=0.1", "--eta=0.05"),
        ("xi", "--q2=800"),
        ("xi", "--q1=-800"),
        ("verify-algebra", "--hbar=1e-200"),  # hbar**2 underflows to a zero divisor
        ("xi", "--eta=8", "--m=1.1125369292536007e-308"),  # closed form overflows to nan
        ("evolve", "--e=1e200", "--B=1e200"),  # e*B overflows to inf
        # arrays beyond any address space: xi's storage guard or numpy refuses them
        ("xi", "--dt=1e-15"),
        ("verify-algebra", "--grid_points=1000000000000000000"),
        ("xi", "--gamma=-800"),
        ("xi", "--m=1e300"),  # the RK4 envelope overflows
        ("xi", "--B=1e308", "--e=10"),
    ],
)
def test_non_finite_or_oversized_step_exits_2(tmp_path, capsys, argv):
    assert run(tmp_path, *argv) == 2
    assert "config error:" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_negative_scientific_notation_value(tmp_path):
    spaced, joined = tmp_path / "spaced", tmp_path / "joined"
    assert main(["xi", "--t0", "-1e-3", "--t1", "0.01", "--out", str(spaced)]) == 0
    assert main(["xi", "--t0=-1e-3", "--t1=0.01", "--out", str(joined)]) == 0
    csv_name = "xi_trajectory.csv"
    assert (spaced / csv_name).read_bytes() == (joined / csv_name).read_bytes()


def reject_constant(token):
    raise ValueError(f"non-finite JSON token {token}")


def assert_finite_files(out_dir: Path) -> None:
    """Every JSON file parses strictly and every CSV field is a finite float."""
    for path in out_dir.iterdir():
        if path.suffix == ".json":
            json.loads(path.read_text(), parse_constant=reject_constant)
        else:
            rows = list(csv.reader(path.read_text().splitlines()))
            for row in rows[1:]:
                assert all(math.isfinite(float(v)) for v in row), (path.name, row)


MODEL_KEYS = ("theta", "eta", "gamma", "B", "e", "m", "hbar", "q1", "q2")
SMALL_RUN = ("--fock_N=4", "--t1=0.05", "--dt=0.01", "--grid_points=4")


@settings(derandomize=True, database=None, deadline=None)
@given(st.dictionaries(st.sampled_from(MODEL_KEYS), st.floats()))
@example({"hbar": 1e-200})
@example({"eta": 8.0, "m": 1.1125369292536007e-308})
@example({"theta": 0.1, "eta": 0.05, "gamma": 0.2})
@example({"theta": 0.0, "hbar": 2.0, "eta": 1.0})
def test_any_model_parameters_end_in_a_contract_exit_code(values):
    # every run exits 0, 1 or 2 and writes only finite numbers
    args = [f"--{key}={value!r}" for key, value in values.items()]
    for command in ("verify-algebra", "invariant", "xi", "evolve"):
        with tempfile.TemporaryDirectory() as out:
            assert main([command, *SMALL_RUN, *args, "--out", out]) in (0, 1, 2)
            assert_finite_files(Path(out))


# one perturbation of the deformed small run per config key but output_dir
PERTURBED = {
    "theta": "0.2", "eta": "0.1", "gamma": "0.3", "B": "2", "e": "2", "m": "2",
    "hbar": "2", "q1": "0.3", "q2": "-0.2",
    "t0": "0.01", "t1": "0.1", "dt": "0.005", "grid_points": "5", "fock_N": "5",
    "a1": "0.5", "a3": "0.1", "b1": "0.1", "b3": "-0.4", "c1": "0.5", "emit": "json",
}
COMPUTING = ("verify-algebra", "invariant", "xi", "evolve")


def _outputs(out: Path, argv, capsys) -> list:
    """Exit code, stdout, stderr and file bytes of each computing command."""
    result = []
    for command in COMPUTING:
        code = main([command, *argv, "--out", str(out / command)])
        written = sorted((out / command).glob("*"))  # none when the command made no directory
        result.append((code, *capsys.readouterr(), {f.name: f.read_bytes() for f in written}))
    return result


def test_every_config_key_changes_an_output(tmp_path, capsys):
    base_argv = [*DEFORMED, *SMALL_RUN]
    assert set(PERTURBED) == set(cli._FIELD_TYPES) - {"output_dir"}
    base = _outputs(tmp_path / "base", base_argv, capsys)
    inert = [
        key for key, value in PERTURBED.items()
        if _outputs(tmp_path / key, [*base_argv, f"--{key}={value}"], capsys) == base
    ]
    assert not inert, f"keys that change no output: {inert}"


@pytest.mark.parametrize("command", [*COMPUTING, "report"])
def test_regime_notice_is_the_last_stderr_line(tmp_path, capsys, command):
    # every command, report too, ends its stderr with the small-deformation
    # notice when theta*eta/(4 hbar^2) exceeds 1e-2; no Python warning is raised
    write_report_inputs(tmp_path)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(tmp_path, command, "--theta=1", "--eta=1", *SMALL_RUN) in (0, 1)
    err = capsys.readouterr().err.splitlines()
    notice = "|theta*eta/(4*hbar^2)| = 2.500e-01 exceeds 1e-02; outside the small-deformation regime"
    assert err[-1] == notice and err.count(notice) == 1


def test_dense_bytes_estimate():
    # the stored states, the KRYLOV_MAX + 1 Lanczos vectors and BLOCK_IMAGES
    # block-sized arrays of the observables pass (the four coordinate images,
    # the I or the two Bopp-pair images, temporaries), each block BLOCK_ROWS
    # complex states of dimension 2 N^2
    assert fockevolve.dense_bytes(16, 5) == 16 * 512 * (5 + 41 + 8 * 64)
    assert fockevolve.dense_bytes(16, 1001) - fockevolve.dense_bytes(16, 1) == 16 * 512 * 1000
    # a commutative fock_N=48 run over 500 steps peaks near 143 MB of RSS
    assert fockevolve.dense_bytes(48, 501) < 100 * 2**20


@pytest.mark.parametrize(
    "argv",
    [
        ("--fock_N=20000",),  # 1001 stored states alone are about 1.3e16 bytes
        ("--fock_N=8", "--t1=1e9", "--dt=1e-3"),  # 1e12 stored states
    ],
)
def test_evolve_beyond_physical_memory_exits_2(tmp_path, monkeypatch, capsys, argv):
    def no_allocation(*args, **kwargs):
        raise AssertionError("evolve allocated before checking its memory")

    monkeypatch.setattr(fockevolve, "build_fock_rep", no_allocation)
    monkeypatch.setattr(np, "arange", no_allocation)
    assert run(tmp_path, "evolve", *argv) == 2
    assert "config error:" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_xi_beyond_physical_memory_exits_2(tmp_path, monkeypatch, capsys):
    # twice as many samples as physical memory holds at ROW_BYTES each
    memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    dt = lrsolve.ROW_BYTES / (2.0 * memory)

    def no_allocation(*args, **kwargs):
        raise AssertionError("xi allocated before checking its memory")

    monkeypatch.setattr(lrsolve, "integrate_rk4", no_allocation)
    monkeypatch.setattr(np, "arange", no_allocation)
    assert run(tmp_path, "xi", f"--dt={dt!r}") == 2
    assert "config error:" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("command", ["xi", "evolve"])
def test_step_count_beyond_memory_is_named_in_three_digits(tmp_path, capsys, command):
    # 1e300 steps: the refusal names the count as 1e+300, not as 301 digits
    assert run(tmp_path, command, "--dt=1e-300") == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and " over 1e+300 steps needs about " in err
    assert err.count("\n") == 1 and len(err) < 200
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize(
    "command, share", [("verify-algebra", 0.9), ("invariant", 0.5)]
)
def test_grid_point_bytes_bounds_the_traced_peak(tmp_path, command, share):
    # the grid storage guard charges GRID_POINT_BYTES per grid point, sized on
    # verify-algebra's report records; invariant holds a little over half
    points = 2048
    cli.build_parser()  # built once per process, outside the traced run
    tracemalloc.start()
    try:
        assert run(tmp_path, command, *DEFORMED, f"--grid_points={points}") == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    charged = cli.GRID_POINT_BYTES * points
    assert share * charged <= peak <= charged + 2**16


@pytest.mark.parametrize("command", ["verify-algebra", "invariant", "evolve"])
def test_grid_beyond_physical_memory_exits_2(tmp_path, monkeypatch, capsys, command):
    # twice as many grid points as physical memory holds at GRID_POINT_BYTES each
    memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    points = 2 * memory // cli.GRID_POINT_BYTES

    def no_allocation(*args, **kwargs):
        raise AssertionError(f"{command} allocated before checking its memory")

    monkeypatch.setattr(np, "linspace", no_allocation)
    monkeypatch.setattr(invariant, "default_constraint_grid", no_allocation)
    assert run(tmp_path, command, f"--grid_points={points}") == 2
    assert "config error:" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


#: the files each computing command produces before the emit filter
ARTIFACTS = {
    "verify-algebra": {"algebra_report.json"},
    "invariant": {"residuals.csv", "nullspace_report.json"},
    "xi": {"xi_trajectory.csv"},
    "evolve": {"evolution.csv"},
}


@pytest.mark.parametrize("emit", ["csv", "json", "csv,json"])
@pytest.mark.parametrize("command", COMPUTING)
def test_emit_writes_exactly_the_files_it_allows(tmp_path, command, emit):
    # no output directory is made when emit allows none of the command's files
    out = tmp_path / "out"
    assert main([command, *DEFORMED, *SMALL_RUN, f"--emit={emit}", "--out", str(out)]) == 0
    want = {name for name in ARTIFACTS[command] if name.rpartition(".")[2] in emit.split(",")}
    if want:
        assert {f.name for f in out.iterdir()} == want
    else:
        assert not out.exists()


@pytest.mark.parametrize("emit", ["csv", "json"])
def test_report_writes_its_summary_whatever_emit_says(tmp_path, emit):
    write_report_inputs(tmp_path)
    assert run(tmp_path, "report", f"--emit={emit}") == 0
    assert set(json.loads((tmp_path / "run_summary.json").read_text())["sections"]) == {
        "algebra", "invariant", "xi", "evolution",
    }


@pytest.mark.parametrize(
    "argv",
    [
        ("--gamma=50", "--t1=1", "--dt=0.5"),  # f_theta grows as e^{50 t}
        ("--gamma=0.2", "--t1=200", "--dt=1"),  # the README deformation, long and coarse
        ("--gamma=-20", "--t1=1", "--dt=0.5"),  # f_eta grows as e^{20 t}
    ],
)
def test_evolve_refuses_a_step_the_generator_norm_puts_out_of_reach(
    tmp_path, monkeypatch, capsys, argv
):
    # refused before any stepping: the sub-steps such a step needs never end
    def no_stepping(*args, **kwargs):
        raise AssertionError("evolve stepped before checking that dt is reachable")

    monkeypatch.setattr(fockevolve, "krylov_step", no_stepping)
    start = time.perf_counter()
    assert run(tmp_path, "evolve", "--theta=0.1", "--eta=0.05", *argv) == 2
    assert time.perf_counter() - start < 10.0
    err = capsys.readouterr().err
    assert err.startswith("config error: dt=") and "generator-norm bound" in err
    assert err.count("\n") == 1
    assert not list(tmp_path.iterdir())


def test_evolve_on_a_state_space_one_lanczos_space_spans_takes_any_dt(tmp_path):
    # 2 fock_N^2 = 32 <= KRYLOV_MAX: the space exhausts the state space and
    # resolves the step whatever the generator's norm; the run ends in exit 1
    assert 2 * 4**2 <= fockevolve.KRYLOV_MAX
    argv = ("--theta=0.1", "--eta=0.05", "--gamma=50", "--t1=1", "--dt=0.5", "--fock_N=4")
    assert run(tmp_path, "evolve", *argv) == 1
    assert (tmp_path / "evolution.csv").exists()


def test_evolve_on_a_small_state_space_refuses_a_step_rounding_puts_out_of_reach(
    tmp_path, monkeypatch, capsys
):
    # at hbar = 3.5e-25 a step of 0.01 is tau = dt/hbar = 2.9e22. The space
    # of the probe ends on the invariance test at 6 vectors with beta 3.3e-12,
    # so tau beta stays above KRYLOV_TOL down to sub-steps of about 3e12: some
    # 9e9 of them. The generator-norm bound does not judge a state space of 32
    # dimensions; the run refuses once its sub-steps would pass MAX_SUBSTEPS,
    # after 35 Lanczos runs, instead of taking them
    runs = []
    krylov_run = fockevolve._krylov_run

    def counted(*args):
        runs.append(args[2])
        if len(runs) > 200:
            raise RuntimeError("evolve keeps sub-stepping")
        return krylov_run(*args)

    monkeypatch.setattr(fockevolve, "_krylov_run", counted)
    argv = (
        "--hbar=3.4839177266506073e-25", "--theta=-7.854065865638846e-11",
        "--eta=1.7467661007058605e-36", "--B=1.8250886866238245",
        "--m=0.00030730171904769915", "--fock_N=4", "--t1=0.05", "--dt=0.01",
    )
    assert run(tmp_path, "evolve", *argv) == 2
    assert "needs more than 1024 Lanczos sub-steps" in capsys.readouterr().err
    assert len(runs) < 50
    assert not (tmp_path / "evolution.csv").exists()


def test_emit_filter(tmp_path):
    assert run(tmp_path, "xi", "--emit", "json") == 0
    assert not (tmp_path / "xi_trajectory.csv").exists()
    assert run(tmp_path, "verify-algebra", "--emit", "csv") == 0
    assert not (tmp_path / "algebra_report.json").exists()
    assert run(tmp_path, "xi", "--emit", "yaml") == 2
