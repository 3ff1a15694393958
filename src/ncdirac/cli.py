"""Command-line surface: config ingestion, the five verification workflows,
and machine-readable reports.

Exit codes: 0 = all checks pass, 1 = a physics/verification check failed,
2 = usage or configuration error.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import itertools
import json
import math
import os
import sys
import typing
from dataclasses import dataclass, fields
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__, fockevolve, invariant, lrsolve, mat2, ncmodel
from .csvout import write_csv
from .errors import SingularParameterError, UnitModeError
from .phasepoly import AffineOp, residual_norms


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
    q1: float = 0.0
    q2: float = 0.0
    unit_mode: str = "natural"
    t0: float = 0.0
    t1: float = 1.0
    dt: float = 1e-3
    grid_points: int = 16
    fock_N: int = 16
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
            if isinstance(value, float) and not math.isfinite(value):
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
        shared = {f.name: getattr(self, f.name) for f in fields(ncmodel.NCParams) if f.init}
        try:
            return ncmodel.NCParams(**shared)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    def canonical_hash(self) -> str:
        """Hash of every field but output_dir: identical runs written to two
        directories share it."""
        lines = []
        for f in fields(self):
            if f.name != "output_dir":
                lines.append(f"{f.name}={getattr(self, f.name)!r}")
        return hashlib.sha256("\n".join(sorted(lines)).encode()).hexdigest()


_FIELD_TYPES = typing.get_type_hints(RunConfig)


def _convert(key: str, raw: str):
    if key not in _FIELD_TYPES:
        raise ConfigError(f"unknown config key {key!r}")
    try:
        return _FIELD_TYPES[key](raw)
    except ValueError as exc:
        raise ConfigError(f"bad value for {key!r}: {raw!r}") from exc


def read_config_file(path: Path) -> dict:
    """Flat key=value file; blank lines and # comments ignored; unknown keys rejected."""
    values = {}
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
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
    try:
        d.mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # a file stands at d or above it
        raise ConfigError(f"cannot use output directory {d}: {exc}") from exc
    return d


def _finite_or_null(value):
    """``value`` with every non-finite float replaced by None (JSON null)."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {k: _finite_or_null(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite_or_null(v) for v in value]
    return value


def _dump_json(path: Path, payload: dict) -> None:
    """Strict JSON on one line, keys sorted, a NaN or infinity written as null.
    Without ``indent`` json.dumps runs its C encoder; one write, not one per token."""
    try:
        text = json.dumps(payload, sort_keys=True, allow_nan=False)
    except ValueError:  # a non-finite float: only then walk the payload
        text = json.dumps(_finite_or_null(payload), sort_keys=True, allow_nan=False)
    with open(path, "w") as fh:
        fh.write(text + "\n")


def _write_json(cfg: RunConfig, name: str, payload: dict) -> None:
    if "json" in cfg.emit_formats():
        _dump_json(_out_dir(cfg) / name, payload)


#: peak bytes verify-algebra holds per grid point, its six report records
#: foremost (traced: 3.9 KB); invariant holds 2.3 KB per point
GRID_POINT_BYTES = 4096


def _check_memory(need: int, run: str) -> None:
    """Refuse a run whose arrays (``need`` bytes) exceed physical memory."""
    have = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if need > have:
        raise ConfigError(
            f"{run} needs about {need / 2**30:.3g} GiB of dense storage, "
            f"more than the {have / 2**30:.3g} GiB of physical memory"
        )


# -- verify-algebra ------------------------------------------------------------


def cmd_verify_algebra(cfg: RunConfig) -> int:
    p = cfg.params()
    _check_memory(GRID_POINT_BYTES * cfg.grid_points, f"verify-algebra on {cfg.grid_points} points")
    t_grid = np.linspace(cfg.t0, cfg.t1, cfg.grid_points)

    dirac = mat2.verify_dirac_algebra()
    deformed = ncmodel.verify_nc_algebra(p, t_grid)
    dual_dev = None
    if p.natural:
        ncmodel.require_h_nc_units(p)
        dual_dev = ncmodel.dual_path_deviation(p)

    if p.theta == 0.0 and p.eta == 0.0:
        mode = "commutative"
    elif p.gamma == 0.0:
        mode = "stationary-deformation"
    else:
        mode = "time-dependent-deformation"

    tol = 1e-12
    worst = deformed.worst()
    failures = []
    if not dirac.passed(tol):
        bad = max(dirac.checks, key=lambda c: c.deviation)
        failures.append(f"Dirac identity {bad.name} deviates by {bad.deviation:.3e}")
    if not deformed.passed(tol):
        failures.append(
            f"worst commutator {worst['pair']} at t={worst['t']} "
            f"deviates by {worst['deviation']:.3e}"
        )
    if dual_dev is not None and not dual_dev <= tol:
        failures.append(f"dual-path Hamiltonian deviates by {dual_dev:.3e}")
    ok = not failures
    payload = {
        "mode": mode,
        "dirac_algebra": dirac.as_dict(),
        "deformed_algebra": deformed.as_dict(),
        "worst_commutator": worst,
        "dual_path_deviation": dual_dev,
        "hbar_eff": ncmodel.hbar_eff(p),
        "consistency_ratio": ncmodel.consistency_ratio(p),
        "pass": bool(ok),
    }
    _write_json(cfg, "algebra_report.json", payload)
    if not ok:
        print(f"algebra check failed: {'; '.join(failures)}", file=sys.stderr)
        return 1
    print(f"algebra checks passed ({mode}); max deviation {max(dirac.max_deviation, deformed.max_deviation):.3e}")
    return 0


# -- invariant ------------------------------------------------------------------


def cmd_invariant(cfg: RunConfig) -> int:
    p = cfg.params()
    _check_memory(GRID_POINT_BYTES * cfg.grid_points, f"invariant on {cfg.grid_points} points")
    grid = invariant.default_constraint_grid(p, cfg.grid_points)
    ans = invariant.constant_invariant(cfg.a1, cfg.a3, cfg.b1, cfg.b3, cfg.c1)
    h = ncmodel.build_h_nc(p)

    self_check_tol = 1e-13
    report = invariant.solve_constant_invariant(p, grid)
    res = invariant.invariance_residual(ans, h, p.hbar, grid)
    norms = mat2.fro(res[:, invariant.CONSTRAINT_SLOTS])
    # the constant slot of a scalar ansatz is i*hbar*((row 2k) alpha_2 + (row 2k+1) alpha_1)
    r = (report.matrix @ np.array([cfg.a1, cfg.a3, cfg.b1, cfg.b3]))[:, None, None]
    closing = res[:, 0] - p.hbar * (1j * r[0::2] * mat2.ALPHA2 + 1j * r[1::2] * mat2.ALPHA1)
    machine_ok = not (
        np.any(norms[:, :-1] > self_check_tol) or np.any(mat2.fro(closing) > self_check_tol)
    )
    user_residuals = residual_norms(res)

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
        write_csv(
            _out_dir(cfg) / "residuals.csv",
            ["t", *invariant.CONSTRAINT_LABELS, "invariance_residual"],
            [grid, *norms.T, user_residuals],
        )

    payload = report.as_dict()
    payload.update(
        {
            "constants": {"a1": cfg.a1, "a3": cfg.a3, "b1": cfg.b1, "b3": cfg.b3, "c1": cfg.c1},
            "constants_in_nullspace": in_null,
            "constants_max_invariance_residual": float(user_residuals.max()),
            "machine_checks_pass": bool(machine_ok),
        }
    )
    _write_json(cfg, "nullspace_report.json", payload)

    print(
        f"nullspace dimension {report.dimension}; configured constants "
        f"{'lie in' if in_null else 'lie outside'} the admissible family "
        f"(max invariance residual {user_residuals.max():.3e})"
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
    ncmodel.require_h_nc_units(p)  # the flow's dressing f_eta is the natural-unit one
    n_steps = max(1, int(round((cfg.t1 - cfg.t0) / cfg.dt)))
    _check_memory(lrsolve.ROW_BYTES * (n_steps + 1), f"xi over {n_steps} steps")
    traj = lrsolve.integrate_rk4(p, cfg.t0, cfg.t1, cfg.dt)
    if "csv" in cfg.emit_formats():
        lrsolve.write_trajectory_csv(traj, _out_dir(cfg) / "xi_trajectory.csv")
    worst = max(traj.max_deviation.values())
    print(f"integration vs closed form: max deviation {worst:.3e}")
    if worst > 1e-5:
        print("integration deviates from the closed forms beyond 1e-5", file=sys.stderr)
        return 1
    return 0


# -- evolve -----------------------------------------------------------------------


class LevelTrack(typing.NamedTuple):
    """The Dirac-Landau level an evolution follows, and how far the truncated
    generator's Ritz values sit from it at the two ends of the run."""

    n: int
    sign: int
    energy: np.ndarray  # E_n(t) at every sample
    error: tuple[float, float]  # |Ritz - E_n| at t0 and t1
    residual: tuple[float, float]  # Ritz residuals of those two Ritz values
    spacing: tuple[float, float]  # distance from E_n to the nearest other level there


def track_level(
    p: ncmodel.NCParams, h: AffineOp, rep: fockevolve.FockRep, evolved: fockevolve.EvolvedState
) -> LevelTrack:
    """Follow the closed-form level that holds the largest share of the
    initial state.

    One Lanczos run from psi(t0) under H(t0) gives Ritz values and weights;
    the weights are summed by the nearest closed-form level (n, sign) and the
    largest sum names the level. Levels of different n do not cross while
    f_theta f_eta keeps its sign, so E_n(t) is the tracked energy at every
    sample. The truncation diagnostic is the distance from E_n to the nearest
    Ritz value, with that value's residual, from this run and from one
    Lanczos run from psi(t1) under H(t1); the level spacing at both ends
    says whether that distance still names one level. When one generator
    served the whole evolution and H(t0) and H(t1) are that generator,
    psi(t1) = exp(-i H (t1 - t0)) psi(t0) has the spectral measure of psi(t0)
    under the same H, so the t0 run serves t1 as well.
    """
    ends = (0, len(evolved.times) - 1)
    t0, t1 = (float(evolved.times[k]) for k in ends)

    def spectrum(k: int, t: float) -> fockevolve.Spectrum:
        return fockevolve.spectral_weights(fockevolve.operator(h.at(t), rep), evolved.state(k))

    first = spectrum(0, t0)
    constant = evolved.generator is not None and (
        evolved.generator == tuple(h.value(t0)) == tuple(h.value(t1))
    )
    spectra = [first, first if constant else spectrum(ends[1], t1)]
    shares: dict[tuple[int, int], float] = {}
    for ritz, weight in zip(spectra[0].ritz, spectra[0].weight):
        level = ncmodel.nearest_landau_level(p, t0, float(ritz))
        shares[level] = shares.get(level, 0.0) + float(weight)
    n, sign = max(shares, key=shares.get)
    energy = ncmodel.landau_level(p, n, sign, evolved.times)
    error, residual = [], []
    for k, spectrum in zip(ends, spectra):
        i = int(np.argmin(np.abs(spectrum.ritz - energy[k])))
        error.append(float(abs(spectrum.ritz[i] - energy[k])))
        residual.append(float(spectrum.residual[i]))
    spacing = tuple(ncmodel.level_spacing(p, n, float(evolved.times[k])) for k in ends)
    return LevelTrack(n, sign, energy, tuple(error), tuple(residual), spacing)


def cmd_evolve(cfg: RunConfig) -> int:
    p = cfg.params()
    n_steps = max(1, int(round((cfg.t1 - cfg.t0) / cfg.dt)))
    need = fockevolve.dense_bytes(cfg.fock_N, n_steps + 1)
    _check_memory(need, f"evolve at fock_N={cfg.fock_N} over {n_steps} steps")
    rep = fockevolve.build_fock_rep(cfg.fock_N, lrsolve.magnetic_length(p), p.hbar)
    h = ncmodel.build_h_nc(p)

    times = cfg.t0 + (cfg.t1 - cfg.t0) * np.arange(n_steps + 1) / n_steps
    # displaced by one oscillator length: a centered vacuum is a near-stationary
    # state that never probes the truncation edge, so its drift measures nothing
    psi0 = fockevolve.coherent_state(rep, alpha_x=1.0)
    evolved = fockevolve.evolve(h, rep, psi0, times)
    track = track_level(p, h, rep, evolved)

    ans = invariant.constant_invariant(cfg.a1, cfg.a3, cfg.b1, cfg.b3, cfg.c1)
    drift, r_xp, r_yp, r_nc, edge = fockevolve.measure(
        ans.at(0.0), rep, evolved, functools.partial(ncmodel.bopp_scales, p)
    )
    check_grid = np.linspace(cfg.t0, cfg.t1, 8)
    res_norm = float(
        np.max(residual_norms(invariant.invariance_residual(ans, h, p.hbar, check_grid)))
    )
    constrained = res_norm <= 1e-10

    margins = np.min([r_xp.margin, r_yp.margin, r_nc.margin], axis=0)
    nc_bound_dev = float(np.max(np.abs(r_nc.bound - 0.5 * ncmodel.hbar_eff(p))))
    min_margin = float(margins.min())
    ambiguous = any(e >= 0.5 * d for e, d in zip(track.error, track.spacing))
    ok = evolved.norm_drift <= 1e-10 and min_margin >= -1e-9 and not ambiguous
    truncation_warning = False
    if constrained and drift.relative_max > 1e-6:
        ok = False
        truncation_warning = True

    if "csv" in cfg.emit_formats():
        fockevolve.write_evolution_csv(
            _out_dir(cfg) / "evolution.csv", drift, r_xp, margins, track.energy
        )

    print(
        f"relative invariant drift {drift.relative_max:.3e} "
        f"({'constrained' if constrained else 'unconstrained'} constants, "
        f"residual norm {res_norm:.3e}); min uncertainty margin {min_margin:.3e}; "
        f"nc-pair bound within {nc_bound_dev:.3e} of hbar_eff/2; "
        f"E_tracked on Landau level n={track.n} ({'+' if track.sign > 0 else '-'}): "
        f"Ritz error {track.error[0]:.3e} (residual {track.residual[0]:.1e}) at t0, "
        f"{track.error[1]:.3e} (residual {track.residual[1]:.1e}) at t1; "
        f"max top-level weight {edge:.3e}"
    )
    gaps = ncmodel.landau_gap(p, times)
    if gaps.min() <= 0.0 <= gaps.max():
        print(
            "f_theta*f_eta changes sign on the time grid: the Landau levels close, "
            f"so the level n={track.n} picked at t0 need not be the one the state follows",
            file=sys.stderr,
        )
    if ambiguous:
        print(
            f"the Ritz error of level n={track.n} is at least half its distance "
            f"to the nearest other level ({track.spacing[0]:.3e} at t0, "
            f"{track.spacing[1]:.3e} at t1): the tracked level is not resolved",
            file=sys.stderr,
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


def _csv_summary(fh) -> dict:
    """Row count, header and the extremes of every column but t; one numpy
    call parses the rows."""
    header = fh.readline().rstrip("\r\n").split(",")
    first = fh.readline()  # a header-only file is not parsed: loadtxt warns on no rows
    data = np.empty((0, len(header)))
    if first:
        data = np.loadtxt(itertools.chain([first], fh), delimiter=",", ndmin=2)
    if not header[0] or data.shape[1] != len(header):
        raise ValueError(f"{data.shape[1]} columns of numbers under the header {header}")
    out = {"rows": len(data), "columns": header}
    for name, col in zip(header, data.T):
        if name != "t" and col.size:
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
    for name, path in needed.items():
        try:
            with open(path, encoding="utf-8", newline="") as fh:
                sections[name] = json.load(fh) if path.suffix == ".json" else _csv_summary(fh)
        except (OSError, ValueError) as exc:  # ValueError covers bad JSON, UTF-8 and numbers
            print(f"unreadable input for report: {path}: {exc}", file=sys.stderr)
            return 2
    summary = {
        "version": __version__,
        "config_hash": cfg.canonical_hash(),
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "sections": sections,
    }
    _dump_json(out / "run_summary.json", summary)
    print(f"run summary written with {len(sections)} sections")
    return 0


# -- entry point --------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parse_args keeps no
    state between calls."""
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
    return ap


def _join_values(argv: list[str]) -> list[str]:
    """``--key value`` -> ``--key=value`` for every option that takes a value,
    so a value such as -1e-3, which argparse reads as an option, stays one."""
    takes_value = {"--config", "--out", *(f"--{key}" for key in _FIELD_TYPES)}
    out = []
    tokens = iter(argv)
    for token in tokens:
        value = next(tokens, None) if token in takes_value else None
        out.append(token if value is None else f"{token}={value}")
    return out


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(_join_values(sys.argv[1:] if argv is None else list(argv)))
    except SystemExit as exc:
        code = exc.code
        return 0 if code in (0, None) else 2
    try:
        cfg = load_config(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        # numpy overflow and inf - inf raise, like math.exp does, instead of
        # writing inf or NaN into the outputs
        with np.errstate(over="raise", invalid="raise"):
            if args.command == "verify-algebra":
                return cmd_verify_algebra(cfg)
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
    except ArithmeticError as exc:  # overflow, or a divisor that underflowed to 0
        print(f"config error: the parameters leave the float range ({exc})", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"config error: the run does not fit in memory ({exc})", file=sys.stderr)
        return 2
    raise AssertionError(f"unhandled command {args.command}")


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
