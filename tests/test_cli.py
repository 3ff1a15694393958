"""CLI exit codes, report files, determinism, and the config surface."""

import csv
import json

import numpy as np
import pytest

from ncdirac.cli import main

FAST = [
    "--fock_N", "16",
    "--dt", "2e-3",
    "--t1", "0.5",
    "--grid_points", "8",
]


def run(tmp_path, *argv):
    return main([*argv, "--out", str(tmp_path)])


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


def test_verify_algebra_corrupted_bopp_fails(tmp_path):
    code = run(
        tmp_path,
        "verify-algebra",
        "--theta", "0.1", "--eta", "0.05", "--gamma", "0.2",
        "--debug-flip-bopp-sign",
    )
    assert code == 1
    report = json.loads((tmp_path / "algebra_report.json").read_text())
    assert report["pass"] is False
    assert report["worst_commutator"]["deviation"] > 1e-12
    assert report["worst_commutator"]["pair"].startswith("[")


def test_invariant_commutative(tmp_path):
    assert run(tmp_path, "invariant") == 0
    report = json.loads((tmp_path / "nullspace_report.json").read_text())
    assert report["dimension"] == 2
    assert report["constants_in_nullspace"] is True
    assert report["constants_max_invariance_residual"] <= 1e-13
    rows = list(csv.reader((tmp_path / "residuals.csv").open()))
    assert rows[0][0] == "t" and rows[0][1] == "25a" and rows[0][-2] == "25o"
    assert len(rows) == 1 + 16


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


def test_invariant_constant_only(tmp_path):
    code = run(
        tmp_path, "invariant",
        "--a1", "0", "--a3", "0", "--b1", "0", "--b3", "0", "--c1", "1",
    )
    assert code == 0
    report = json.loads((tmp_path / "nullspace_report.json").read_text())
    assert report["constants_max_invariance_residual"] <= 1e-15


def test_xi_commutative(tmp_path):
    assert run(tmp_path, "xi", "--t1", "5.0") == 0
    rows = list(csv.reader((tmp_path / "xi_trajectory.csv").open()))
    assert rows[0] == [
        "t", "re_xi1", "im_xi1", "re_xi2", "im_xi2", "re_F1", "im_F1",
        "re_F2", "im_F2", "dev_xi1", "dev_xi2", "dev_F1", "dev_F2",
    ]
    devs = np.array([[float(v) for v in row[9:]] for row in rows[1:]])
    assert devs.max() <= 1e-6


def test_xi_zero_mass_exits_2(tmp_path):
    assert run(tmp_path, "xi", "--m", "0") == 2


def test_xi_nc_branch_values(tmp_path):
    assert run(tmp_path, "xi", "--gamma", "0.2", "--eta", "0.05", "--t1", "2.0") == 0
    rows = list(csv.reader((tmp_path / "xi_trajectory.csv").open()))
    # decaying-branch contribution: |xi1| at late times differs from the
    # stationary value 0.25 of the undeformed run
    last = rows[-1]
    xi1 = complex(float(last[1]), float(last[2]))
    assert abs(abs(xi1) - 0.25) > 1e-4


def test_evolve_constrained_passes(tmp_path):
    assert run(tmp_path, "evolve", *FAST) == 0
    rows = list(csv.reader((tmp_path / "evolution.csv").open()))
    assert rows[0] == ["t", "re_I", "drift", "dx_dpx", "bound", "margin", "E_tracked"]
    data = np.array([[float(v) for v in r] for r in rows[1:]])
    assert data[:, 2].max() <= 1e-6  # drift column
    assert data[:, 5].min() >= -1e-9  # margin column
    assert np.all(data[:, 6] != 0.0)  # tracked energy present


def test_evolve_truncation_too_small_fails(tmp_path):
    code = main(
        ["evolve", "--fock_N", "4", "--dt", "2e-3", "--t1", "1.0", "--out", str(tmp_path)]
    )
    assert code == 1


def test_evolve_si_mode_exits_2(tmp_path):
    code = run(
        tmp_path, "evolve", "--unit_mode", "SI",
        "--theta", "1e-30", "--eta", "1.76e-61", "--hbar", "1.0546e-34",
    )
    assert code == 2


def test_report_requires_all_inputs(tmp_path):
    assert run(tmp_path, "report") == 2


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


def test_bad_values_exit_2(tmp_path):
    assert run(tmp_path, "xi", "--dt", "-1") == 2
    assert run(tmp_path, "xi", "--t1", "-5") == 2
    assert run(tmp_path, "evolve", "--fock_N", "1") == 2
    assert run(tmp_path, "verify-algebra", "--kappa", "3.0") == 2  # exp(q2-q1) = 1
    assert run(tmp_path, "xi", "--xi3_0", "1.0") == 2  # needs re,im
    assert main(["frobnicate"]) == 2


@pytest.mark.parametrize(
    "argv",
    [
        ("xi", "--dt=2", "--t1=1"),  # dt longer than the interval
        ("verify-algebra", "--theta=nan"),
        ("invariant", "--theta=nan", "--gamma=0.2"),
        ("evolve", "--t1=nan"),
        ("xi", "--eta=inf"),
    ],
)
def test_non_finite_or_oversized_step_exits_2(tmp_path, argv):
    assert run(tmp_path, *argv) == 2
    assert not list(tmp_path.iterdir())


def test_emit_filter(tmp_path):
    assert run(tmp_path, "xi", "--emit", "json") == 0
    assert not (tmp_path / "xi_trajectory.csv").exists()
    assert run(tmp_path, "verify-algebra", "--emit", "csv") == 0
    assert not (tmp_path / "algebra_report.json").exists()
    assert run(tmp_path, "xi", "--emit", "yaml") == 2
