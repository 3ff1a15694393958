import cmath
import csv
import json
import math

import pytest

import oracles
import workloads

# commutative limit, eB = m = 1: levels sqrt(1 + 2n), xi1 = -e^{2it}/4
PARAMS = dict(workloads.BASE, t1=0.004, dt=1e-3, grid_points=4, a1=1.0, b3=-0.5)
TIMES = [k * 1e-3 for k in range(5)]


def write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def write_session(out, **corrupt):
    algebra = {
        "mode": "commutative",
        "hbar_eff": corrupt.get("hbar_eff", 1.0),
        "dirac_algebra": {"max_deviation": 0.0},
        "deformed_algebra": {
            "max_deviation": 0.0,
            "checks": [
                {"t": t, "pair": pair, "expected_re": 0.0, "expected_im": im, "deviation": 0.0}
                for t in (0.0, 0.25, 0.5, 1.0)
                for pair, im in (
                    ("[x_nc,y_nc]", 0.0), ("[px_nc,py_nc]", 0.0), ("[x_nc,px_nc]", 1.0),
                    ("[y_nc,py_nc]", 1.0), ("[x_nc,py_nc]", 0.0), ("[y_nc,px_nc]", 0.0),
                )
            ],
        },
        "dual_path_deviation": 0.0,
        "pass": True,
    }
    (out / "algebra_report.json").write_text(json.dumps(algebra))
    nullspace = {
        "times": [0.0, 0.5, 1.0, 2.0],
        "dimension": corrupt.get("dimension", 2),
        "machine_checks_pass": True,
    }
    (out / "nullspace_report.json").write_text(json.dumps(nullspace))
    write_csv(out / "residuals.csv", ["t", "25a"], [[0.0, corrupt.get("residual", "0.0")]])

    xi_rows = []
    for t in TIMES:
        xi1 = -0.25 * cmath.exp(2j * t) + corrupt.get("xi_error", 0.0)
        values = {"xi1": xi1, "xi2": xi1 / 1j, "F1": cmath.exp(-1j * t), "F2": cmath.exp(1j * t)}
        xi_rows.append([t] + [part for v in values.values() for part in (v.real, v.imag)])
    write_csv(
        out / "xi_trajectory.csv",
        ["t"] + [f"{p}_{n}" for n in ("xi1", "xi2", "F1", "F2") for p in ("re", "im")],
        xi_rows,
    )
    level = math.sqrt(3.0) + corrupt.get("level_error", 0.0)
    drift = corrupt.get("drift", 1e-9)
    write_csv(
        out / "evolution.csv",
        ["t", "re_I", "drift", "dx_dpx", "bound", "margin", "E_tracked"],
        [[t, 0.5, drift if k else 0.0, 0.6, 0.5, 0.1, level] for k, t in enumerate(TIMES)],
    )
    sections = {"algebra": {}, "invariant": {}, "xi": {"rows": 5}, "evolution": {"rows": 5}}
    sections.pop(corrupt.get("drop_section"), None)
    (out / "run_summary.json").write_text(json.dumps({"sections": sections}))


def check(tmp_path, **corrupt):
    write_session(tmp_path, **corrupt)
    return oracles.check_session(PARAMS, list(workloads.FULL_SESSION), tmp_path)


def test_clean_session_passes_with_its_figures(tmp_path):
    problems, figures = check(tmp_path)
    assert problems == {}
    assert figures["level_err"] < 1e-15
    assert figures["xi_max_dev"] < 1e-15
    assert figures["invariant_drift_rel"] == pytest.approx(1e-9 / 1.5)
    assert figures["min_margin"] == pytest.approx(0.1)


@pytest.mark.parametrize(
    "corrupt, command",
    [
        ({"hbar_eff": 1.001}, "verify-algebra"),
        ({"dimension": 0}, "invariant"),
        ({"residual": "nan"}, "invariant"),
        ({"xi_error": 1e-4}, "xi"),
        ({"level_error": 1e-6}, "evolve"),
        ({"drift": 1e-5}, "evolve"),
        ({"drop_section": "xi"}, "report"),
    ],
)
def test_each_defect_fails_the_command_that_wrote_it(tmp_path, corrupt, command):
    problems, _ = check(tmp_path, **corrupt)
    assert list(problems) == [command]


def test_missing_artifact_fails_its_command(tmp_path):
    write_session(tmp_path)
    (tmp_path / "evolution.csv").unlink()
    problems, _ = oracles.check_session(PARAMS, list(workloads.FULL_SESSION), tmp_path)
    assert "evolve" in problems


def test_nullspace_dimension_follows_the_profile_ratio():
    grid = [0.0, 0.5, 1.0, 2.0]
    stationary = dict(workloads.BASE, theta=0.1, eta=0.05)
    timedep = dict(stationary, gamma=0.2)
    assert oracles.expected_nullspace_dimension(workloads.BASE, grid) == 2
    assert oracles.expected_nullspace_dimension(stationary, grid) == 2
    assert oracles.expected_nullspace_dimension(timedep, grid) == 0


def test_landau_levels_of_the_deformed_field():
    p = dict(workloads.BASE, theta=0.1, eta=0.05, gamma=0.2, m=1.3)
    t = 0.7
    ft = 1.0 + 0.25 * 0.1 * math.exp(0.2 * t)
    fe = 0.5 + 0.025 * math.exp(-0.2 * t)
    for n in (0, 1, 5):
        e_n = math.sqrt(1.3**2 + 4 * n * ft * fe)
        assert oracles.landau_level_error(p, t, e_n) < 1e-14
        assert oracles.landau_level_error(p, t, -e_n) < 1e-14
    assert oracles.landau_level_error(p, t, 1.0) == pytest.approx(0.3)


def test_nan_scan_finds_nested_values():
    assert oracles.nan_paths({"a": [1.0, {"b": 2.0}]}) == []
    assert oracles.nan_paths({"a": [1.0, {"b": math.inf}]}) == [".a[1].b"]


def test_unreadable_or_malformed_artifacts_fail_instead_of_raising(tmp_path):
    write_session(tmp_path)
    (tmp_path / "algebra_report.json").write_text("{not json")
    (tmp_path / "nullspace_report.json").write_text(json.dumps({"times": [0.0, 1.0]}))
    problems, _ = oracles.check_session(PARAMS, list(workloads.FULL_SESSION), tmp_path)
    assert set(problems) == {"verify-algebra", "invariant"}
