"""Command-line surface: config ingestion, the five verification workflows,
and machine-readable reports.

Exit codes: 0 = all checks pass, 1 = a physics/verification check failed,
2 = usage or configuration error. A command returns its checks; ``_finish``
alone prints the failed ones and picks 0 or 1, and ``main`` alone picks 2.
A command imports the modules only it uses.
"""

from __future__ import annotations

import functools
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

from . import __version__, mat2, ncmodel
from .csvout import write_csv
from .errors import ConfigError
from .phasepoly import residual_norms


@dataclass(frozen=True)
class RunConfig(ncmodel.NCParams):
    """The model parameters with the run's window, grid, truncation,
    invariant constants and outputs; the run checks come before the model's."""

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

    def __post_init__(self):
        for key in _FIELD_TYPES:
            value = getattr(self, key)
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(f"{key} must be finite, got {value!r}")
        ncmodel.check_window(self.t0, self.t1, self.dt)
        if self.fock_N < 2:
            raise ValueError("fock_N must be at least 2")
        if self.grid_points < 2:
            raise ValueError("grid_points must be at least 2")
        formats = self.emit_formats()
        if not formats or not formats <= {"csv", "json"}:
            raise ValueError("emit must be a nonempty subset of {csv, json}")
        super().__post_init__()

    def emit_formats(self) -> set[str]:
        return {s.strip() for s in self.emit.split(",") if s.strip()}

    def canonical_hash(self) -> str:
        """Hash of every key but output_dir: identical runs written to two
        directories share it."""
        import hashlib  # report alone takes it; it loads libcrypto
        lines = [f"{key}={getattr(self, key)!r}" for key in _FIELD_TYPES if key != "output_dir"]
        return hashlib.sha256("\n".join(sorted(lines)).encode()).hexdigest()


_HINTS = typing.get_type_hints(RunConfig)
#: config key -> type: the fields a RunConfig is built from, not the derived kappa
_FIELD_TYPES = {f.name: _HINTS[f.name] for f in fields(RunConfig) if f.init}


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


def load_config(args: Args) -> RunConfig:
    """The config file, then the command-line keys over it, then ``--out``."""
    values: dict = {}
    if args.config is not None:
        values.update(read_config_file(Path(args.config)))
    values.update(args.values)
    if args.out is not None:
        values["output_dir"] = args.out
    try:
        return RunConfig(**values)
    except ValueError as exc:  # the run's checks or the model's
        raise ConfigError(str(exc)) from exc


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


class Result(typing.NamedTuple):
    """What a command produced: its files by name, in writing order (a CSV as
    (header, columns), a JSON file as its payload), its stdout lines, its checks
    and the stderr notes that fail nothing. ``emit``, when set, overrides the config's."""

    files: dict
    out: typing.Sequence[str] = ()
    checks: typing.Sequence[tuple[str, float, float]] = ()
    notes: typing.Sequence[str] = ()
    emit: set[str] | None = None


def _failed(checks) -> list:
    """The checks that fail: (what, value, bound) passes when value <= bound,
    so a NaN fails."""
    return [check for check in checks if not check[1] <= check[2]]


def _finish(cfg: RunConfig, result: Result) -> int:
    """The one output path: write the files whose format ``emit`` allows,
    making the output directory only then; print stdout, then one stderr line
    per failed check, then the notes, then the small-deformation notice when
    the parameters leave that regime; return 1 when a check failed, else 0."""
    emit = cfg.emit_formats() if result.emit is None else result.emit
    for name, content in result.files.items():
        kind = name.rpartition(".")[2]
        if kind in emit:
            path = _out_dir(cfg) / name
            if kind == "csv":
                write_csv(path, *content)
            else:
                _dump_json(path, content)
    for line in result.out:
        print(line)
    failed = _failed(result.checks)
    for what, value, bound in failed:
        print(f"check failed: {what}: {value:.3e} (bound {bound:.3g})", file=sys.stderr)
    for line in result.notes:
        print(line, file=sys.stderr)
    ratio, bound = ncmodel.consistency_ratio(cfg), ncmodel.CONSISTENCY_WARN_THRESHOLD
    if ratio > bound:
        print(
            f"|theta*eta/(4*hbar^2)| = {ratio:.3e} exceeds {bound:.0e}; "
            "outside the small-deformation regime",
            file=sys.stderr,
        )
    return int(bool(failed))


#: peak bytes verify-algebra holds per grid point, its six report records
#: foremost (traced: 3.9 KB); invariant holds 2.3 KB per point, and evolve
#: takes invariant's grid for its verdict on the constants
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


def cmd_verify_algebra(cfg: RunConfig) -> Result:
    _check_memory(GRID_POINT_BYTES * cfg.grid_points, f"verify-algebra on {cfg.grid_points} points")
    t_grid = np.linspace(cfg.t0, cfg.t1, cfg.grid_points)

    dirac = mat2.verify_dirac_algebra()
    deformed = ncmodel.verify_nc_algebra(cfg, t_grid)
    dual_dev = ncmodel.dual_path_deviation(cfg)

    if cfg.theta == 0.0 and cfg.eta == 0.0:
        mode = "commutative"
    elif cfg.gamma == 0.0:
        mode = "stationary-deformation"
    else:
        mode = "time-dependent-deformation"

    tol = 1e-12
    worst, judged = deformed.worst(), deformed.worst(relative=True)
    bad = dirac.checks[int(np.argmax([c.deviation for c in dirac.checks]))]  # the first NaN, if any
    checks = [
        (f"Dirac identity {bad.name} deviation", dirac.max_deviation, tol),
        (f"worst commutator {judged['pair']} at t={judged['t']}", judged["deviation"], tol),
        ("dual-path Hamiltonian deviation", dual_dev, tol),
    ]
    passed = not _failed(checks)
    payload = {
        "mode": mode,
        "dirac_algebra": dirac.as_dict(),
        "deformed_algebra": deformed.as_dict(),
        "worst_commutator": worst,
        "dual_path_deviation": dual_dev,
        "hbar_eff": ncmodel.hbar_eff(cfg),
        "consistency_ratio": ncmodel.consistency_ratio(cfg),
        "pass": passed,
    }
    deviation = max(dirac.max_deviation, deformed.max_deviation)
    out = [f"algebra checks passed ({mode}); max deviation {deviation:.3e}"] if passed else []
    return Result({"algebra_report.json": payload}, out, checks)


# -- invariant ------------------------------------------------------------------


def cmd_invariant(cfg: RunConfig) -> Result:
    from . import invariant
    _check_memory(GRID_POINT_BYTES * cfg.grid_points, f"invariant on {cfg.grid_points} points")
    grid = invariant.default_constraint_grid(cfg, cfg.grid_points)
    ans = invariant.constant_invariant(cfg.a1, cfg.a3, cfg.b1, cfg.b3, cfg.c1)
    h = ncmodel.build_h_nc(cfg)

    self_check_tol = 1e-13
    report = invariant.solve_constant_invariant(cfg, grid)
    res = invariant.invariance_residual(ans, h, cfg.hbar, grid)
    norms = mat2.fro(res[:, invariant.CONSTRAINT_SLOTS])
    vec = np.array([cfg.a1, cfg.a3, cfg.b1, cfg.b3])
    # the constant slot of a scalar ansatz is i*hbar*((row 2k) alpha_2 + (row 2k+1) alpha_1)
    r = (report.matrix @ vec)[:, None, None]
    closing = res[:, 0] - cfg.hbar * (1j * r[0::2] * mat2.ALPHA2 + 1j * r[1::2] * mat2.ALPHA1)
    user_residuals = residual_norms(res)

    gram = report.nullspace.T @ report.nullspace
    ortho_defect = float(np.max(np.abs(gram - np.eye(report.dimension)), initial=0.0))
    checks = [
        ("ansatz residual on relations 25a-25n", float(np.max(norms[:, :-1])), self_check_tol),
        ("constant slot off the constraint rows", float(np.max(mat2.fro(closing))), self_check_tol),
        ("nullspace orthonormality defect", ortho_defect, 1e-12),
        ("rise along the singular values", float(np.max(np.diff(report.singular_values))), 0.0),
    ]
    in_null = report.contains(vec)

    payload = report.as_dict() | {
        "constants": {"a1": cfg.a1, "a3": cfg.a3, "b1": cfg.b1, "b3": cfg.b3, "c1": cfg.c1},
        "constants_in_nullspace": in_null,
        "constants_max_invariance_residual": float(user_residuals.max()),
        "machine_checks_pass": not _failed(checks),
    }
    header = ["t", *invariant.CONSTRAINT_LABELS, "invariance_residual"]
    summary = (
        f"nullspace dimension {report.dimension}; configured constants "
        f"{'lie in' if in_null else 'lie outside'} the admissible family "
        f"(max invariance residual {user_residuals.max():.3e})"
    )
    residuals = (header, [grid, *norms.T, user_residuals])
    files = {"residuals.csv": residuals, "nullspace_report.json": payload}
    return Result(files, [summary, report.note], checks)


# -- xi ---------------------------------------------------------------------------


def cmd_xi(cfg: RunConfig) -> Result:
    from . import lrsolve
    n_steps = ncmodel.step_count(cfg.t0, cfg.t1, cfg.dt)
    _check_memory(lrsolve.ROW_BYTES * (n_steps + 1), f"xi over {n_steps:.3g} steps")
    traj = lrsolve.integrate_rk4(cfg, cfg.t0, cfg.t1, cfg.dt)
    worst = float(np.max(list(traj.max_deviation.values())))  # NaN when any is NaN
    out = [f"integration vs closed form: max deviation {worst:.3e}"]
    checks = [("RK4 deviation from the closed forms", worst, 1e-5)]
    return Result({"xi_trajectory.csv": traj.table()}, out, checks)


# -- evolve -----------------------------------------------------------------------


def cmd_evolve(cfg: RunConfig) -> Result:
    from . import fockevolve, invariant, lrsolve
    n_steps = ncmodel.step_count(cfg.t0, cfg.t1, cfg.dt)
    # the invariant verdict below takes invariant's constraint grid
    need = fockevolve.dense_bytes(cfg.fock_N, n_steps + 1) + GRID_POINT_BYTES * cfg.grid_points
    _check_memory(need, f"evolve at fock_N={cfg.fock_N} over {n_steps:.3g} steps")
    rep = fockevolve.build_fock_rep(cfg.fock_N, lrsolve.magnetic_length(cfg), cfg.hbar)
    h = ncmodel.build_h_nc(cfg)

    times = ncmodel.sample_times(cfg.t0, cfg.t1, n_steps)
    # displaced by one oscillator length: a centered vacuum is a near-stationary
    # state that never probes the truncation edge, so its drift measures nothing
    psi0 = fockevolve.coherent_state(rep, alpha_x=1.0)
    evolved = fockevolve.evolve(h, rep, psi0, times)
    gaps = ncmodel.landau_gap(cfg, times)
    track = fockevolve.track_level(cfg.m, gaps, evolved)

    ans = invariant.constant_invariant(cfg.a1, cfg.a3, cfg.b1, cfg.b3, cfg.c1)
    scales = ncmodel.bopp_scales(cfg, times)
    drift, r_xp, r_yp, r_nc, edge = fockevolve.measure(ans.at(0.0), rep, evolved, scales)
    residual = invariant.invariance_residual(ans, h, cfg.hbar, np.linspace(cfg.t0, cfg.t1, 8))
    res_norm = float(np.max(residual_norms(residual)))
    # the verdict of invariant: exact, where the residual on 8 times is not
    grid = invariant.default_constraint_grid(cfg, cfg.grid_points)
    vec = np.array([cfg.a1, cfg.a3, cfg.b1, cfg.b3])
    constrained = invariant.solve_constant_invariant(cfg, grid).contains(vec)

    margins = np.min([r_xp.margin, r_yp.margin, r_nc.margin], axis=0)
    nc_bound_dev = float(np.max(np.abs(r_nc.bound - 0.5 * ncmodel.hbar_eff(cfg))))
    min_margin = float(margins.min())
    # the level is resolved while each end's Ritz error is below half the spacing
    resolution = float(np.max(np.divide(track.error, track.spacing)))
    checks = [
        ("norm drift", evolved.norm_drift, 1e-10),
        ("uncertainty margin deficit", -min_margin, 1e-9),
        (f"level-resolution ratio of n={track.n} (Ritz error over spacing {track.spacing[0]:.3e}"
         f" at t0, {track.spacing[1]:.3e} at t1)", resolution, math.nextafter(0.5, 0.0)),
    ]
    if constrained:  # only an invariant-family choice is held to its invariance
        checks.append((f"relative invariant drift (fock_N={cfg.fock_N})", drift.relative_max, 1e-6))

    header = ["t", "re_I", "drift", "dx_dpx", "bound", "margin", "E_tracked"]
    columns = [drift.values.real, abs(drift.drift), r_xp.product, r_xp.bound, margins, track.energy]
    summary = (
        f"relative invariant drift {drift.relative_max:.3e} "
        f"({'constrained' if constrained else 'unconstrained'} constants, "
        f"residual norm {res_norm:.3e}); min uncertainty margin {min_margin:.3e}; "
        f"nc-pair bound within {nc_bound_dev:.3e} of hbar_eff/2; "
        f"E_tracked on Landau level n={track.n} ({'+' if track.sign > 0 else '-'}): "
        f"Ritz error {track.error[0]:.3e} (residual {track.residual[0]:.1e}) at t0, "
        f"{track.error[1]:.3e} (residual {track.residual[1]:.1e}) at t1; "
        f"max top-level weight {edge:.3e}"
    )
    notes = []
    if gaps.min() <= 0.0 <= gaps.max():
        notes.append(
            "f_theta*f_eta changes sign on the time grid: the Landau levels close, "
            f"so the level n={track.n} picked at t0 need not be the one the state follows"
        )
    return Result({"evolution.csv": (header, [times, *columns])}, [summary], checks, notes)


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


def cmd_report(cfg: RunConfig) -> Result:
    d = Path(cfg.output_dir)  # read only: _finish makes it when it writes the summary
    needed = {
        "algebra": d / "algebra_report.json",
        "invariant": d / "nullspace_report.json",
        "xi": d / "xi_trajectory.csv",
        "evolution": d / "evolution.csv",
    }
    missing = [str(path) for path in needed.values() if not path.exists()]
    if missing:
        found = next(a for a in (d, *d.parents) if a.exists())  # "." or "/" at the latest
        if not found.is_dir():
            raise ConfigError(f"cannot use output directory {d}: {found} is not a directory")
        raise ConfigError(f"missing inputs for report: {', '.join(missing)}")
    sections = {}
    for name, path in needed.items():
        try:
            with open(path, encoding="utf-8", newline="") as fh:
                sections[name] = json.load(fh) if path.suffix == ".json" else _csv_summary(fh)
        except (OSError, ValueError) as exc:  # ValueError covers bad JSON, UTF-8 and numbers
            raise ConfigError(f"unreadable input for report: {path}: {exc}") from exc
    summary = {
        "version": __version__,
        "config_hash": cfg.canonical_hash(),
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "sections": sections,
    }
    # the summary is all report makes: written whatever emit says
    message = f"run summary written with {len(sections)} sections"
    return Result({"run_summary.json": summary}, [message], emit={"json"})


# -- entry point --------------------------------------------------------------------


COMMANDS = ("verify-algebra", "invariant", "xi", "evolve", "report")
HELP = ("-h", "--help")
USAGE = (
    f"usage: ncdirac {{{','.join(COMMANDS)}}} [--config FILE] [--out DIR] "
    f"[--key value | --key=value ...]\nkeys: {' '.join(_FIELD_TYPES)}"
)


class Args(typing.NamedTuple):
    """One command line, read; ``command`` is None when it asks for help."""

    command: str | None
    config: str | None
    out: str | None
    values: dict  # config key -> converted value


class FlagReader:
    """Reads ``COMMAND [--key value | --key=value ...]``. A key is ``config``,
    ``out`` or a config key, spelled out in full and checked and converted as
    a config file's keys are. ``--key value`` takes the next token whatever it
    is, so ``--theta -1e-3`` reads -1e-3. A repeated key keeps its last value;
    ``-h`` or ``--help`` asks for help."""

    def parse_args(self, argv) -> Args:
        tokens = iter(argv)
        command = next(tokens, None)
        if command in HELP:
            return Args(None, None, None, {})
        if command not in COMMANDS:
            what = "no command given" if command is None else f"unknown command {command!r}"
            raise ConfigError(f"{what}: choose one of {', '.join(COMMANDS)}")
        options = {"config": None, "out": None}
        values: dict = {}
        for token in tokens:
            if token in HELP:
                return Args(None, None, None, {})
            if not token.startswith("--"):
                raise ConfigError(f"unexpected argument {token!r}: give --key value")
            key, eq, raw = token[2:].partition("=")
            if not eq and (raw := next(tokens, None)) is None:
                raise ConfigError(f"--{key} needs a value")
            if key in options:
                options[key] = raw
            else:
                values[key] = _convert(key, raw)
        return Args(command, options["config"], options["out"], values)


@functools.cache
def build_parser() -> FlagReader:
    """The command-line reader, built once per process: it keeps no state
    between calls."""
    return FlagReader()


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(sys.argv[1:] if argv is None else argv)
        if args.command is None:
            print(USAGE)
            return 0
        cfg = load_config(args)
        run = {"verify-algebra": cmd_verify_algebra, "invariant": cmd_invariant,
               "xi": cmd_xi, "evolve": cmd_evolve, "report": cmd_report}[args.command]
        # numpy overflow and inf - inf raise, like math.exp does, instead of
        # writing inf or NaN into the outputs
        with np.errstate(over="raise", invalid="raise"):
            return _finish(cfg, run(cfg))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:  # overflow, or a divisor that underflowed to 0
        print(f"config error: the parameters leave the float range ({exc})", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"config error: the run does not fit in memory ({exc})", file=sys.stderr)
        return 2


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
