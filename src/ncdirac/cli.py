"""Command-line surface: config ingestion, the five verification workflows,
and machine-readable reports.

Exit codes: 0 = all checks pass, 1 = a physics/verification check failed,
2 = usage or configuration error.
"""

from __future__ import annotations

import argparse
import cmath
import csv
import hashlib
import json
import sys
import typing
from dataclasses import dataclass, fields
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__, fockevolve, invariant, lrsolve, mat2, ncmodel
from .errors import SingularParameterError, UnitModeError
from .mat2 import ID2
from .phasepoly import Coord, PhasePoly, residual_norm


class ConfigError(ValueError):
    pass


@dataclass
class RunConfig:
    theta: float = 0.0
    eta: float = 0.0
    gamma: float = 0.0
    B: float = 1.0
    e: float = 1.0
    m: float = 1.0
    hbar: float = 1.0
    kappa: float | None = None
    q1: float = 0.0
    q2: float = 0.0
    unit_mode: str = "natural"
    t0: float = 0.0
    t1: float = 1.0
    dt: float = 1e-3
    grid_points: int = 16
    fock_N: int = 16
    xi3_0: complex = 0.0
    xi4_0: complex = 0.0
    a1: float = 1.0
    a3: float = 0.0
    b1: float = 0.0
    b3: float = -0.5
    c1: float = 0.0
    output_dir: str = "."
    emit: str = "csv,json"

    def validate(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, (float, complex)) and not cmath.isfinite(value):
                raise ConfigError(f"{f.name} must be finite, got {value!r}")
        if self.dt <= 0:
            raise ConfigError("dt must be positive")
        if self.t1 <= self.t0:
            raise ConfigError("t1 must exceed t0")
        if self.dt > self.t1 - self.t0:
            raise ConfigError("dt exceeds the interval t1 - t0")
        if self.fock_N < 2:
            raise ConfigError("fock_N must be at least 2")
        if self.grid_points < 2:
            raise ConfigError("grid_points must be at least 2")
        formats = self.emit_formats()
        if not formats or not formats <= {"csv", "json"}:
            raise ConfigError("emit must be a nonempty subset of {csv, json}")

    def emit_formats(self) -> set[str]:
        return {s.strip() for s in self.emit.split(",") if s.strip()}

    def params(self) -> ncmodel.NCParams:
        shared = {f.name: getattr(self, f.name) for f in fields(ncmodel.NCParams)}
        try:
            return ncmodel.NCParams(**shared)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    def canonical_hash(self) -> str:
        lines = []
        for f in fields(self):
            lines.append(f"{f.name}={getattr(self, f.name)!r}")
        return hashlib.sha256("\n".join(sorted(lines)).encode()).hexdigest()


def _parse_complex_pair(raw: str) -> complex:
    parts = raw.split(",")
    if len(parts) != 2:
        raise ConfigError(f"complex value must be 're,im', got {raw!r}")
    try:
        return complex(float(parts[0]), float(parts[1]))
    except ValueError as exc:
        raise ConfigError(f"bad complex value {raw!r}") from exc


_CONVERTERS = {
    float: lambda raw: float(raw),
    int: lambda raw: int(raw),
    complex: _parse_complex_pair,
    str: lambda raw: raw,
}


def _unwrap_optional(kind):
    """``float | None`` -> ``float``; other annotations pass through."""
    args = [a for a in typing.get_args(kind) if a is not type(None)]
    return args[0] if args else kind


_FIELD_TYPES = {
    key: _unwrap_optional(kind) for key, kind in typing.get_type_hints(RunConfig).items()
}


def _convert(key: str, raw: str):
    if key not in _FIELD_TYPES:
        raise ConfigError(f"unknown config key {key!r}")
    try:
        return _CONVERTERS[_FIELD_TYPES[key]](raw)
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"bad value for {key!r}: {raw!r}") from exc


def read_config_file(path: Path) -> dict:
    """Flat key=value file; blank lines and # comments ignored; unknown keys rejected."""
    values = {}
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        values[key] = _convert(key, raw.strip())
    return values


def load_config(args: argparse.Namespace) -> RunConfig:
    values: dict = {}
    if args.config is not None:
        values.update(read_config_file(Path(args.config)))
    for key in _FIELD_TYPES:
        raw = getattr(args, key, None)
        if raw is not None:
            values[key] = _convert(key, raw)
    if getattr(args, "out", None) is not None:
        values["output_dir"] = str(args.out)
    cfg = RunConfig(**values)
    cfg.validate()
    return cfg


def _out_dir(cfg: RunConfig) -> Path:
    d = Path(cfg.output_dir)
    d.mkdir(parents=True, exist_ok=True)
    return d


def _write_json(cfg: RunConfig, name: str, payload: dict) -> None:
    if "json" not in cfg.emit_formats():
        return
    path = _out_dir(cfg) / name
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


# -- verify-algebra ------------------------------------------------------------


def cmd_verify_algebra(cfg: RunConfig, flip_bopp_sign: bool = False) -> int:
    p = cfg.params()
    t_grid = np.linspace(cfg.t0, cfg.t1, cfg.grid_points)

    bopp = ncmodel.bopp_shift
    if flip_bopp_sign:
        def bopp(pp, which, t):  # deformation terms with the wrong sign
            return 2.0 * PhasePoly.monomial(ID2, which) - ncmodel.bopp_shift(pp, which, t)

    dirac = mat2.verify_dirac_algebra()
    deformed = ncmodel.verify_nc_algebra(p, t_grid, bopp=bopp)
    dual_dev = None
    if p.natural:
        dual_dev = ncmodel.dual_path_deviation(p)

    if p.theta == 0.0 and p.eta == 0.0:
        mode = "commutative"
    elif p.gamma == 0.0:
        mode = "stationary-deformation"
    else:
        mode = "time-dependent-deformation"

    tol = 1e-12
    worst = max(
        (c for c in deformed.checks), key=lambda c: c.deviation
    )
    ok = dirac.max_deviation <= tol and deformed.max_deviation <= tol
    if dual_dev is not None:
        ok = ok and dual_dev <= tol
    payload = {
        "mode": mode,
        "dirac_algebra": dirac.as_dict(),
        "deformed_algebra": deformed.as_dict(),
        "worst_commutator": {"pair": worst.pair, "t": worst.t, "deviation": worst.deviation},
        "dual_path_deviation": dual_dev,
        "hbar_eff": ncmodel.hbar_eff(p),
        "consistency_ratio": ncmodel.consistency_ratio(p),
        "pass": bool(ok),
    }
    _write_json(cfg, "algebra_report.json", payload)
    if not ok:
        print(
            f"algebra check failed: worst commutator {worst.pair} at t={worst.t} "
            f"deviates by {worst.deviation:.3e}",
            file=sys.stderr,
        )
        return 1
    print(f"algebra checks passed ({mode}); max deviation {max(dirac.max_deviation, deformed.max_deviation):.3e}")
    return 0


# -- invariant ------------------------------------------------------------------


def cmd_invariant(cfg: RunConfig) -> int:
    p = cfg.params()
    grid = invariant.default_constraint_grid(p, cfg.grid_points)
    ans = invariant.constant_invariant(cfg.a1, cfg.a3, cfg.b1, cfg.b3, cfg.c1)
    h = ncmodel.build_h_nc(p)
    form = ncmodel.symplectic_form(p)

    self_check_tol = 1e-13
    machine_ok = True
    rows = []
    user_residuals = []
    for t in grid:
        res_set = invariant.constraint_residuals(ans, p, float(t))
        for label in invariant.CONSTRAINT_LABELS[:-1]:
            if res_set.norm(label) > self_check_tol:
                machine_ok = False
        closing = res_set.residuals["25o"] - invariant.scalar_residual_closed_form(
            p, cfg.a1, cfg.a3, cfg.b1, cfg.b3, float(t)
        )
        if mat2.fro(closing) > self_check_tol:
            machine_ok = False
        user_res = residual_norm(invariant.invariance_residual(ans, h, form, float(t)))
        user_residuals.append(user_res)
        rows.append(
            [float(t)]
            + [res_set.norm(label) for label in invariant.CONSTRAINT_LABELS]
            + [user_res]
        )

    report = invariant.solve_constant_invariant(p, grid)
    ortho_defect = float(
        np.max(np.abs(report.nullspace.T @ report.nullspace - np.eye(report.dimension)))
    ) if report.dimension else 0.0
    if ortho_defect > 1e-12:
        machine_ok = False
    if np.any(np.diff(report.singular_values) > 0):
        machine_ok = False

    vec = np.array([cfg.a1, cfg.a3, cfg.b1, cfg.b3])
    if np.linalg.norm(vec) > 0 and report.dimension > 0:
        proj = report.nullspace @ (report.nullspace.T @ vec)
        in_null = bool(np.linalg.norm(vec - proj) <= 1e-10 * max(1.0, np.linalg.norm(vec)))
    else:
        in_null = bool(np.linalg.norm(vec) == 0.0)

    if "csv" in cfg.emit_formats():
        with open(_out_dir(cfg) / "residuals.csv", "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(
                ["t"] + list(invariant.CONSTRAINT_LABELS) + ["invariance_residual"]
            )
            for row in rows:
                w.writerow([format(v, ".17g") for v in row])

    payload = report.as_dict()
    payload.update(
        {
            "constants": {"a1": cfg.a1, "a3": cfg.a3, "b1": cfg.b1, "b3": cfg.b3, "c1": cfg.c1},
            "constants_in_nullspace": in_null,
            "constants_max_invariance_residual": float(max(user_residuals)),
            "machine_checks_pass": bool(machine_ok),
        }
    )
    _write_json(cfg, "nullspace_report.json", payload)

    print(
        f"nullspace dimension {report.dimension}; configured constants "
        f"{'lie in' if in_null else 'lie outside'} the admissible family "
        f"(max invariance residual {max(user_residuals):.3e})"
    )
    print(report.note)
    if not machine_ok:
        print("invariant machine checks failed", file=sys.stderr)
        return 1
    return 0


# -- xi ---------------------------------------------------------------------------


def cmd_xi(cfg: RunConfig) -> int:
    if cfg.m == 0:
        raise SingularParameterError(
            "m = 0: the closed-form xi coefficients involve 1/m; choose m != 0"
        )
    p = cfg.params()
    traj = lrsolve.integrate_rk4(p, cfg.t0, cfg.t1, cfg.dt, cfg.xi3_0, cfg.xi4_0)
    if "csv" in cfg.emit_formats():
        lrsolve.write_trajectory_csv(traj, _out_dir(cfg) / "xi_trajectory.csv")
    worst = max(traj.max_deviation[k] for k in ("xi1", "xi2", "F1", "F2"))
    print(f"integration vs closed form: max deviation {worst:.3e}")
    if worst > 1e-5:
        print("integration deviates from the closed forms beyond 1e-5", file=sys.stderr)
        return 1
    return 0


# -- evolve -----------------------------------------------------------------------


def cmd_evolve(cfg: RunConfig) -> int:
    p = cfg.params()
    rep = fockevolve.build_fock_rep(cfg.fock_N, lrsolve.magnetic_length(p), p.hbar)
    h = ncmodel.build_h_nc(p)
    form = ncmodel.symplectic_form(p)

    n_steps = max(1, int(round((cfg.t1 - cfg.t0) / cfg.dt)))
    times = cfg.t0 + (cfg.t1 - cfg.t0) * np.arange(n_steps + 1) / n_steps
    # displaced by one oscillator length: a centered vacuum is a near-stationary
    # state that never probes the truncation edge, so its drift measures nothing
    psi0 = fockevolve.coherent_state(rep, alpha_x=1.0)
    evolved = fockevolve.evolve(h, rep, psi0, times, track_energy=True)

    ans = invariant.constant_invariant(cfg.a1, cfg.a3, cfg.b1, cfg.b3, cfg.c1)
    i_mat = fockevolve.represent(ans.at(0.0), rep)
    drift = fockevolve.invariant_drift(i_mat, evolved)
    res_norm = max(
        residual_norm(invariant.invariance_residual(ans, h, form, float(t)))
        for t in np.linspace(cfg.t0, cfg.t1, 8)
    )
    constrained = res_norm <= 1e-10

    xm = rep.coordinate_matrix(Coord.X)
    ym = rep.coordinate_matrix(Coord.Y)
    pxm = rep.coordinate_matrix(Coord.PX)
    pym = rep.coordinate_matrix(Coord.PY)

    n_t = times.size
    dxdpx = np.zeros(n_t)
    bound_x = np.zeros(n_t)
    margins = np.zeros((n_t, 3))
    nc_bound_dev = 0.0
    heff = ncmodel.hbar_eff(p)
    for k in range(n_t):
        s = evolved.states[k]
        t = float(times[k])
        r_xp = fockevolve.uncertainty_check_matrices(s, xm, pxm)
        r_yp = fockevolve.uncertainty_check_matrices(s, ym, pym)
        st = 0.5 * ncmodel.theta_of_t(p, t) / p.hbar
        se = 0.5 * ncmodel.eta_of_t(p, t) / p.hbar
        r_nc = fockevolve.uncertainty_check_matrices(s, xm - st * pym, pxm + se * ym)
        dxdpx[k] = r_xp.product
        bound_x[k] = r_xp.bound
        margins[k] = (r_xp.margin, r_yp.margin, r_nc.margin)
        nc_bound_dev = max(nc_bound_dev, abs(r_nc.bound - 0.5 * heff))

    min_margin = float(margins.min())
    ok = evolved.norm_drift <= 1e-10 and min_margin >= -1e-9
    truncation_warning = False
    if constrained and drift.relative_max > 1e-6:
        ok = False
        truncation_warning = True

    if "csv" in cfg.emit_formats():
        fockevolve.write_evolution_csv(
            _out_dir(cfg) / "evolution.csv",
            times,
            drift.values,
            drift.drift,
            dxdpx,
            bound_x,
            margins.min(axis=1),
            evolved.energy,
        )

    print(
        f"relative invariant drift {drift.relative_max:.3e} "
        f"({'constrained' if constrained else 'unconstrained'} constants, "
        f"residual norm {res_norm:.3e}); min uncertainty margin {min_margin:.3e}; "
        f"nc-pair bound within {nc_bound_dev:.3e} of hbar_eff/2"
    )
    if truncation_warning:
        print(
            f"invariant drift {drift.relative_max:.3e} exceeds 1e-6 for an "
            f"invariant-family choice: fock_N={cfg.fock_N} truncation is too small",
            file=sys.stderr,
        )
    if not ok:
        return 1
    return 0


# -- report -----------------------------------------------------------------------


def _csv_summary(path: Path) -> dict:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = list(reader)
    out = {"rows": len(rows), "columns": header}
    if rows:
        data = np.array(rows, dtype=object)
        for j, name in enumerate(header):
            try:
                col = np.array([float(v) for v in data[:, j] if v != ""])
            except ValueError:
                continue
            if col.size and name != "t":
                out[f"max_{name}"] = float(np.max(col))
                out[f"min_{name}"] = float(np.min(col))
    return out


def cmd_report(cfg: RunConfig) -> int:
    out = _out_dir(cfg)
    needed = {
        "algebra": out / "algebra_report.json",
        "invariant": out / "nullspace_report.json",
        "xi": out / "xi_trajectory.csv",
        "evolution": out / "evolution.csv",
    }
    missing = [str(path) for path in needed.values() if not path.exists()]
    if missing:
        print(f"missing inputs for report: {', '.join(missing)}", file=sys.stderr)
        return 2
    sections = {}
    with open(needed["algebra"]) as fh:
        sections["algebra"] = json.load(fh)
    with open(needed["invariant"]) as fh:
        sections["invariant"] = json.load(fh)
    sections["xi"] = _csv_summary(needed["xi"])
    sections["evolution"] = _csv_summary(needed["evolution"])
    summary = {
        "version": __version__,
        "config_hash": cfg.canonical_hash(),
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "sections": sections,
    }
    with open(out / "run_summary.json", "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"run summary written with {len(sections)} sections")
    return 0


# -- entry point --------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="ncdirac",
        description=(
            "Verification workflows for a planar Dirac system in "
            "time-dependent noncommutative phase-space"
        ),
    )
    sub = ap.add_subparsers(dest="command", required=True)
    helps = {
        "verify-algebra": "check the matrix and deformed-operator algebras",
        "invariant": "constraint residuals and the constant-invariant nullspace",
        "xi": "integrate the envelope/phase system against its closed forms",
        "evolve": "truncated-basis evolution: drift and uncertainty measurements",
        "report": "merge the per-command outputs into run_summary.json",
    }
    for name, help_text in helps.items():
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("--config", default=None, help="key=value config file")
        sp.add_argument("--out", default=None, help="output directory (overrides output_dir)")
        for key in _FIELD_TYPES:
            sp.add_argument(f"--{key}", default=None, metavar="V")
        if name == "verify-algebra":
            sp.add_argument(
                "--debug-flip-bopp-sign",
                action="store_true",
                help=argparse.SUPPRESS,
            )
    return ap


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return 0 if code in (0, None) else 2
    try:
        cfg = load_config(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        if args.command == "verify-algebra":
            return cmd_verify_algebra(cfg, flip_bopp_sign=args.debug_flip_bopp_sign)
        if args.command == "invariant":
            return cmd_invariant(cfg)
        if args.command == "xi":
            return cmd_xi(cfg)
        if args.command == "evolve":
            return cmd_evolve(cfg)
        if args.command == "report":
            return cmd_report(cfg)
    except (UnitModeError, SingularParameterError, ConfigError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    raise AssertionError(f"unhandled command {args.command}")


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
