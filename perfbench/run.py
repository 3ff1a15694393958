"""ncdirac benchmark: seeded verification sessions driven through
``ncdirac.cli.main`` in this process, with every artifact checked by
independent oracles.

    python3 perfbench/run.py --workload td-evolve --seed 1 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics: set-up time of a fresh
interpreter, session wall time (median and p90), time steps per second of the
stepping command and peak RSS. Times are corrected for the host's speed
drift with a reference kernel of the same kind of work (see ``hostspeed``).
``--trace 1`` spends half the time untraced and half with the layers wrapped,
and prints the per-layer metrics. The last line of standard output is one
JSON object: correct, attempted, failed, metrics.
Run from the repository root; the program is imported from ``src/``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
import warnings
from pathlib import Path

import layers
import oracles
import workloads
from tracing import Tracer

# BLAS threads are pinned before numpy is imported (in main), here and in
# every child process
THREAD_VARS = (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)
os.environ.update({var: "1" for var in THREAD_VARS})

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".perfbench_tmp"
SETUP_REPEATS = 7
SETUP_TIMEOUT_S = 120
# a fresh interpreter up to the point where the first command could run
SETUP_CODE = (
    "import sys; sys.path.insert(0, sys.argv[1]); import ncdirac.cli as cli; "
    "cli.load_config(cli.build_parser().parse_args(sys.argv[2:]))"
)
# sessions without evolve have no figure for these; 0 reads as "not exercised"
ACCURACY_DEFAULTS = {
    "accuracy.invariant_drift_rel": 0.0,
    "accuracy.level_err": 0.0,
    "accuracy.min_margin": 0.0,
}
END_TO_END = (
    ("setup_s", "s"),
    ("session_s", "s"),
    ("session_p90_s", "s"),
    ("steps_per_s", "steps/s"),
    ("peak_rss_mb", "MB"),
)


class Tally:
    """Commands attempted and failed, with the first failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def add(self, n_commands: int, failures: dict[str, list[str]]) -> None:
        self.attempted += n_commands
        self.failed += len(failures)
        for command, found in failures.items():
            if len(self.messages) < 10:
                self.messages.append(f"{command}: {'; '.join(found)}")


def call_main(cli, argv: list[str]) -> list[str]:
    """Run one command; returns why it failed (empty when it passed).

    The program's own output is captured. A raise, a non-zero exit or any
    warning is a failure: the workloads are built so that none occurs.
    """
    captured = io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured):
            try:
                code = cli.main(argv)
            except Exception:  # the session must go on; the failure is counted
                return [traceback.format_exc(limit=3).strip().splitlines()[-1]]
    problems = [f"{w.category.__name__}: {w.message}" for w in caught]
    if code != 0:
        problems.append(f"exit {code}: {captured.getvalue().strip()[-300:]}")
    return problems


def stepping(params: dict, commands: list[str]) -> tuple[str, int]:
    """The command that advances time in this session and its step count."""
    steps = max(1, round((params["t1"] - params["t0"]) / params["dt"]))
    return ("evolve" if "evolve" in commands else "xi"), steps


def run_session(cli, params, argvs, out: Path, tally: Tally) -> dict:
    """One session: its commands back to back, then the oracles (untimed)."""
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    commands = [argv[0] for argv in argvs]
    failures: dict[str, list[str]] = {}
    seconds = {}
    start = time.perf_counter()
    for argv in argvs:
        t0 = time.perf_counter()
        found = call_main(cli, argv + [f"--out={out}"])
        seconds[argv[0]] = time.perf_counter() - t0
        if found:
            failures[argv[0]] = found
    wall = time.perf_counter() - start

    found, figures = oracles.check_session(params, commands, out)
    for command, messages in found.items():
        failures.setdefault(command, []).extend(messages)
    tally.add(len(commands), failures)
    figures = {f"accuracy.{k}": v for k, v in figures.items()}
    figures["io.bytes_written"] = sum(f.stat().st_size for f in out.iterdir())
    command, steps = stepping(params, commands)
    return {"wall": wall, "steps": steps, "step_s": seconds[command], "figures": figures}


def run_phase(cli, workload, seed, seconds, out, tally, host, tracer=None) -> list[dict]:
    """Sessions from the start of the seeded stream until ``seconds`` pass.

    ``host()`` reads the host-speed index; each session gets the mean of the
    readings just before and just after it as ``host``.
    """
    results = []
    stream = workloads.sessions(workload, seed)
    deadline = time.perf_counter() + seconds
    before = host()
    while not results or time.perf_counter() < deadline:
        params, argvs = next(stream)
        if tracer is None:
            result = run_session(cli, params, argvs, out, tally)
        else:
            tracer.take()
            with tracer.span("session"):
                result = run_session(cli, params, argvs, out, tally)
            spans, counts = tracer.take()
            figures = dict(ACCURACY_DEFAULTS, **result["figures"])
            result["layers"] = layers.session_layers(spans, counts, figures)
        after = host()
        result["host"] = (before + after) / 2.0
        before = after
        results.append(result)
    return results


def time_setup(first_argv: list[str]) -> float:
    """Wall time of one fresh interpreter running ``SETUP_CODE``.

    The wait blocks until the child exits: ``wait(timeout=...)`` polls on a
    grid of up to 50 ms, which the measured time would be rounded up to. A
    watchdog kills a child that hangs.
    """
    argv = [sys.executable, "-c", SETUP_CODE, str(SRC), *first_argv]
    start = time.perf_counter()
    with subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.DEVNULL) as child:
        watchdog = threading.Timer(SETUP_TIMEOUT_S, child.kill)
        watchdog.start()
        try:
            code = child.wait()
        finally:
            watchdog.cancel()
            watchdog.join()
    elapsed = time.perf_counter() - start
    if code != 0:
        raise subprocess.CalledProcessError(code, argv)
    return elapsed


def measure_setup(first_argv: list[str], host) -> list[tuple[float, float]]:
    """``SETUP_REPEATS`` set-up times, each with the mean of the ``host()``
    readings just before and just after it."""
    samples = []
    before = host()
    for _ in range(SETUP_REPEATS):
        seconds = time_setup(first_argv)
        after = host()
        samples.append((seconds, (before + after) / 2.0))
        before = after
    return samples


def git_commit() -> str | None:
    """HEAD of the checkout when it is a git work tree, read without git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py")))


def p90(values: list[float]) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.GENERATORS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "ncdirac" / "cli.py").is_file():
        print(f"ncdirac sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy

    import hostspeed

    from ncdirac import cli, fockevolve, invariant, lrsolve, mat2, ncmodel, phasepoly

    modules = {
        "cli": cli, "fockevolve": fockevolve, "invariant": invariant, "lrsolve": lrsolve,
        "mat2": mat2, "ncmodel": ncmodel, "phasepoly": phasepoly,
    }
    out = SCRATCH / f"{args.workload}-{os.getpid()}"
    tally = Tally()
    host = hostspeed.FOR_WORKLOAD[args.workload]
    try:
        setup = []
        if not args.trace:
            _, first_argvs = next(workloads.sessions(args.workload, args.seed))
            # a fresh interpreter's set-up is imports: interpreter-bound work
            setup = measure_setup(first_argvs[0], hostspeed.interpreter)
        run_session(cli, *workloads.warmup_session(args.workload, args.seed), out, tally)
        if args.trace:
            plain = run_phase(cli, args.workload, args.seed, args.seconds / 2, out, tally, host)
            tracer = Tracer()
            layers.instrument(tracer, modules, numpy.linalg)
            try:
                traced = run_phase(
                    cli, args.workload, args.seed, args.seconds / 2, out, tally, host, tracer
                )
            finally:
                tracer.restore()
        else:
            plain = run_phase(cli, args.workload, args.seed, args.seconds, out, tally, host)
    finally:
        shutil.rmtree(out, ignore_errors=True)
        with contextlib.suppress(OSError):
            SCRATCH.rmdir()

    walls = [r["wall"] / r["host"] for r in plain]
    if args.trace:
        metrics = layers.combine([r["layers"] for r in traced])
        metrics["trace.overhead_s"] = (
            statistics.median(r["wall"] / r["host"] for r in traced) - statistics.median(walls)
        )
        metrics["repo.src_lines"] = src_lines()
        units = layers.UNITS
        samples = f"{len(traced)} traced and {len(plain)} untraced sessions"
    else:
        metrics = {
            "setup_s": statistics.median(seconds / index for seconds, index in setup),
            "session_s": statistics.median(walls),
            "session_p90_s": p90(walls),
            # work completed per second: a ratio of totals, not a median of ratios
            "steps_per_s": (
                sum(r["steps"] for r in plain) / sum(r["step_s"] / r["host"] for r in plain)
            ),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = dict(END_TO_END)
        samples = f"{len(plain)} sessions, {len(setup)} set-ups"

    stamp = {
        "workload": args.workload,
        "why": workloads.WHY[args.workload],
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "host_reference": host.__name__,
        "host_index_median": statistics.median(r["host"] for r in plain),
        "raw_session_s": statistics.median(r["wall"] for r in plain),
        "raw_setup_s": statistics.median(seconds for seconds, _ in setup) if setup else None,
        "samples": samples,
        "blas_threads": {v: os.environ[v] for v in THREAD_VARS},
        "numpy": numpy.__version__,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(),
        "src_lines": src_lines(),
    }
    for message in tally.messages:
        print(f"FAILED {message}", file=sys.stderr)
    print(f"# {args.workload} seed={args.seed}: {samples}")
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    print(f"failed_ratio = {tally.failed}/{tally.attempted} commands")
    print(json.dumps({"stamp": stamp}))
    correct = tally.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
