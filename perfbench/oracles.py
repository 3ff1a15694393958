"""Correctness oracles for ncdirac artifacts.

Every check here is derived from the physics, in plain Python, and imports
nothing from ncdirac (nor numpy), so a defect in the program cannot hide in a
shared helper. Each function takes the session's parameter dict and the
parsed artifact, and returns ``(problems, figures)``: a list of failure
messages (empty when the artifact passes) and the accuracy figures it read.
"""

from __future__ import annotations

import cmath
import csv
import json
import math
from pathlib import Path

# tolerances the program states for its own verdicts
ALGEBRA_TOL = 1e-12
XI_TOL = 1e-5
MARGIN_TOL = -1e-9
INVARIANT_DRIFT_TOL = 1e-6
# the tracked eigenvalue sits on a low Landau level; at fock_N=16 the
# truncation moves it by ~1e-11, at fock_N=12 already by ~2e-8
LEVEL_TOL = 1e-9
SUMMARY_SECTIONS = {"algebra", "invariant", "xi", "evolution"}
CONSISTENCY_THRESHOLD = 1e-2


def read_csv(path: Path) -> tuple[list[str], list[list[float]]]:
    """Header and rows; an empty field reads as NaN so it fails the NaN scan."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = [[float(v) if v != "" else math.nan for v in row] for row in reader]
    return header, rows


def read_json(path: Path):
    with open(path) as fh:
        return json.load(fh)


def column(header: list[str], rows: list[list[float]], name: str) -> list[float]:
    j = header.index(name)
    return [row[j] for row in rows]


def nan_paths(obj, where: str = "") -> list[str]:
    """Locations of every NaN or infinity inside a parsed JSON value or CSV rows."""
    if isinstance(obj, float):
        return [] if math.isfinite(obj) else [where or "value"]
    if isinstance(obj, dict):
        return [p for k, v in obj.items() for p in nan_paths(v, f"{where}.{k}")]
    if isinstance(obj, (list, tuple)):
        return [p for i, v in enumerate(obj) for p in nan_paths(v, f"{where}[{i}]")]
    return []


# -- model profiles, written out from the paper's definitions --------------------


def f_theta(p: dict, t: float) -> float:
    return 1.0 + 0.25 * p["e"] * p["B"] * p["theta"] * math.exp(p["gamma"] * t)


def f_eta(p: dict, t: float) -> float:
    return 0.5 * p["e"] * p["B"] + 0.5 * p["eta"] * math.exp(-p["gamma"] * t)


def landau_level_error(p: dict, t: float, energy: float) -> float:
    """Distance from ``energy`` to the nearest Dirac-Landau level
    +-sqrt(m^2 + 4 n f_theta f_eta) (hbar = 1), n = 0, 1, 2, ..."""
    gap = 4.0 * f_theta(p, t) * f_eta(p, t)
    n_near = max(0, round((energy * energy - p["m"] ** 2) / gap))
    return min(
        abs(abs(energy) - math.sqrt(p["m"] ** 2 + n * gap))
        for n in range(max(0, n_near - 1), n_near + 2)
    )


def xi_closed(p: dict, t: float) -> dict[str, complex]:
    """Closed forms of xi1, xi2 = xi1/i, F1 = e^{-imt+q1}, F2 = e^{imt+q2}."""
    m, g, eb = p["m"], p["gamma"], p["e"] * p["B"]
    kappa = math.exp(p["q2"] - p["q1"])
    xi1 = -1j * (
        kappa * eb / (4j * m) * cmath.exp(2j * m * t)
        + p["eta"] * kappa / (4j * m - 2.0 * g) * cmath.exp((-g + 2j * m) * t)
    )
    return {
        "xi1": xi1,
        "xi2": xi1 / 1j,
        "F1": cmath.exp(complex(p["q1"], -m * t)),
        "F2": cmath.exp(complex(p["q2"], m * t)),
    }


# -- per-artifact checks -----------------------------------------------------------


def check_algebra(p: dict, report: dict):
    problems = []
    hbar, theta, eta, gamma = p["hbar"], p["theta"], p["eta"], p["gamma"]
    heff = hbar * (1.0 + theta * eta / (4.0 * hbar * hbar))
    if abs(report["hbar_eff"] - heff) > 1e-14 * abs(heff):
        problems.append(f"hbar_eff {report['hbar_eff']!r} != {heff!r}")
    ratio = abs(theta * eta / (4.0 * hbar * hbar))
    if ratio > CONSISTENCY_THRESHOLD:
        problems.append(f"consistency ratio {ratio:.3e} leaves the small-deformation regime")
    expected = {
        "[x_nc,y_nc]": lambda t: theta * math.exp(gamma * t),
        "[px_nc,py_nc]": lambda t: eta * math.exp(-gamma * t),
        "[x_nc,px_nc]": lambda t: heff,
        "[y_nc,py_nc]": lambda t: heff,
        "[x_nc,py_nc]": lambda t: 0.0,
        "[y_nc,px_nc]": lambda t: 0.0,
    }
    checks = report["deformed_algebra"]["checks"]
    if len(checks) != 6 * p["grid_points"]:
        problems.append(f"{len(checks)} commutator checks, expected {6 * p['grid_points']}")
    for c in checks:
        want = expected[c["pair"]](c["t"])
        if c["expected_re"] != 0.0 or abs(c["expected_im"] - want) > 1e-14 * max(1.0, abs(want)):
            problems.append(f"{c['pair']} at t={c['t']}: expected i*{want!r}")
            break
    if theta == 0.0 and eta == 0.0:
        mode = "commutative"
    elif gamma == 0.0:
        mode = "stationary-deformation"
    else:
        mode = "time-dependent-deformation"
    if report["mode"] != mode:
        problems.append(f"mode {report['mode']!r}, expected {mode!r}")
    worst = max(
        report["dirac_algebra"]["max_deviation"],
        report["deformed_algebra"]["max_deviation"],
        report["dual_path_deviation"] or 0.0,
    )
    if worst > ALGEBRA_TOL or report["pass"] is not True:
        problems.append(f"algebra deviation {worst:.3e} > {ALGEBRA_TOL:g}")
    return problems, {"algebra_max_dev": worst}


def expected_nullspace_dimension(p: dict, times: list[float]) -> int:
    """2 when f_eta/f_theta is constant over the grid, else 0."""
    ratios = [f_eta(p, t) / f_theta(p, t) for t in times]
    spread = max(ratios) - min(ratios)
    return 2 if spread <= 1e-12 * max(abs(r) for r in ratios) else 0


def check_invariant(p: dict, report: dict):
    problems = []
    times = report["times"]
    if len(times) != p["grid_points"]:
        problems.append(f"{len(times)} grid times, expected {p['grid_points']}")
    want = expected_nullspace_dimension(p, times)
    if report["dimension"] != want:
        problems.append(f"nullspace dimension {report['dimension']}, expected {want}")
    if report["machine_checks_pass"] is not True:
        problems.append("invariant machine checks failed")
    return problems, {}


def constants_admissible(p: dict) -> bool:
    """The scalar constants satisfy the invariance condition at every time
    exactly when a1 f_eta + b3 f_theta = 0 and b1 f_theta - a3 f_eta = 0
    throughout; checked on a grid covering the evolve window."""
    scale = max(1.0, abs(p["a1"]), abs(p["a3"]), abs(p["b1"]), abs(p["b3"]))
    for k in range(9):
        t = p["t0"] + (p["t1"] - p["t0"]) * k / 8
        fe, ft = f_eta(p, t), f_theta(p, t)
        if abs(p["a1"] * fe + p["b3"] * ft) > 1e-12 * scale:
            return False
        if abs(p["b1"] * ft - p["a3"] * fe) > 1e-12 * scale:
            return False
    return True


def check_xi(p: dict, header: list[str], rows: list[list[float]]):
    problems = []
    n_steps = max(1, round((p["t1"] - p["t0"]) / p["dt"]))
    if len(rows) != n_steps + 1:
        problems.append(f"{len(rows)} xi rows, expected {n_steps + 1}")
    worst = 0.0
    cols = {n: (header.index(f"re_{n}"), header.index(f"im_{n}")) for n in ("xi1", "xi2", "F1", "F2")}
    for row in rows:
        closed = xi_closed(p, row[0])
        for name, (re, im) in cols.items():
            worst = max(worst, abs(complex(row[re], row[im]) - closed[name]))
    if worst > XI_TOL:
        problems.append(f"xi deviates from the closed forms by {worst:.3e} > {XI_TOL:g}")
    return problems, {"xi_max_dev": worst}


def check_evolution(p: dict, header: list[str], rows: list[list[float]]):
    problems = []
    n_steps = max(1, round((p["t1"] - p["t0"]) / p["dt"]))
    if len(rows) != n_steps + 1:
        problems.append(f"{len(rows)} evolution rows, expected {n_steps + 1}")
    times = column(header, rows, "t")
    energies = column(header, rows, "E_tracked")
    level_err = max(landau_level_error(p, t, e) for t, e in zip(times, energies))
    if level_err > LEVEL_TOL:
        problems.append(f"E_tracked is {level_err:.3e} off the Landau levels")
    min_margin = min(column(header, rows, "margin"))
    if min_margin < MARGIN_TOL:
        problems.append(f"uncertainty margin {min_margin:.3e} < {MARGIN_TOL:g}")
    re_i = column(header, rows, "re_I")
    drift_rel = max(column(header, rows, "drift")) / (abs(re_i[0]) + 1.0)
    if constants_admissible(p) and drift_rel > INVARIANT_DRIFT_TOL:
        problems.append(f"relative invariant drift {drift_rel:.3e} > {INVARIANT_DRIFT_TOL:g}")
    figures = {"level_err": level_err, "min_margin": min_margin, "invariant_drift_rel": drift_rel}
    return problems, figures


def check_summary(p: dict, summary: dict, xi_rows: int, evolution_rows: int):
    problems = []
    sections = summary.get("sections", {})
    if not SUMMARY_SECTIONS <= set(sections):
        problems.append(f"run_summary sections {sorted(sections)} lack one of {sorted(SUMMARY_SECTIONS)}")
        return problems, {}
    if sections["xi"]["rows"] != xi_rows or sections["evolution"]["rows"] != evolution_rows:
        problems.append("run_summary row counts disagree with the CSV files")
    return problems, {}


# -- session -------------------------------------------------------------------------

#: artifact file -> the command that writes it
PRODUCER = {
    "algebra_report.json": "verify-algebra",
    "nullspace_report.json": "invariant",
    "residuals.csv": "invariant",
    "xi_trajectory.csv": "xi",
    "evolution.csv": "evolve",
    "run_summary.json": "report",
}


def check_session(p: dict, commands: list[str], out: Path):
    """Check every artifact the session's commands should have written.

    Returns ``(problems, figures)``; problems maps each failing command to its
    messages.
    """
    problems: dict[str, list[str]] = {}
    figures: dict[str, float] = {}
    parsed = {}
    for name, command in PRODUCER.items():
        if command not in commands:
            continue
        path = out / name
        if not path.exists():
            problems.setdefault(command, []).append(f"{name} missing")
            continue
        try:
            parsed[name] = read_json(path) if name.endswith(".json") else read_csv(path)
        except ValueError as exc:
            problems.setdefault(command, []).append(f"{name} unreadable: {exc}")
            continue
        bad = nan_paths(parsed[name])
        if bad:
            problems.setdefault(command, []).append(f"{name} holds NaN/inf at {bad[0]}")

    def run(command, fn, *args):
        try:
            found, figs = fn(p, *args)
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            found, figs = [f"malformed artifact: {type(exc).__name__}: {exc}"], {}
        if found:
            problems.setdefault(command, []).extend(found)
        figures.update(figs)

    if "algebra_report.json" in parsed:
        run("verify-algebra", check_algebra, parsed["algebra_report.json"])
    if "nullspace_report.json" in parsed:
        run("invariant", check_invariant, parsed["nullspace_report.json"])
    if "xi_trajectory.csv" in parsed:
        run("xi", check_xi, *parsed["xi_trajectory.csv"])
    if "evolution.csv" in parsed:
        run("evolve", check_evolution, *parsed["evolution.csv"])
    if "run_summary.json" in parsed and {"xi_trajectory.csv", "evolution.csv"} <= parsed.keys():
        run(
            "report",
            check_summary,
            parsed["run_summary.json"],
            len(parsed["xi_trajectory.csv"][1]),
            len(parsed["evolution.csv"][1]),
        )
    return problems, figures
