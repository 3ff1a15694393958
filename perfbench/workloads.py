"""Seeded verification sessions for the three benchmark workloads.

A session is a list of ncdirac commands sharing one parameter set and one
output directory. Each generator yields ``(params, commands)`` forever from
its seed: ``params`` is the plain dict the oracles check against, and each
command is the argv handed to ``ncdirac.cli.main`` (the output directory is
appended by the runner). The program never sees the seed.
"""

from __future__ import annotations

import random

FULL_SESSION = ("verify-algebra", "invariant", "xi", "evolve", "report")
SYMBOLIC_SESSION = ("verify-algebra", "invariant", "xi")

# Every session passes all of these on the command line, so the oracles never
# depend on the program's own defaults.
BASE = {
    "theta": 0.0, "eta": 0.0, "gamma": 0.0, "B": 1.0, "e": 1.0, "m": 1.0,
    "hbar": 1.0, "q1": 0.0, "q2": 0.0, "t0": 0.0, "t1": 1.0, "dt": 1e-3,
    "grid_points": 16, "fock_N": 16,
    "a1": 1.0, "a3": 0.0, "b1": 0.0, "b3": -0.5, "c1": 0.0,
}

WHY = {
    "td-evolve": (
        "time-dependent deformation at fock_N=16: the generator changes every step, "
        "so evolve runs represent and two dense eigh per step; propagation and LAPACK dominate"
    ),
    "comm-evolve": (
        "commutative limit at fock_N=16 over 500 steps: constant generator, 2 eigh per run, "
        "so per-step observables, invariant drift, stored states and CSV/report I/O dominate"
    ),
    "sweep": (
        "parameter sets mixing commutative, stationary and time-dependent modes through "
        "verify-algebra, invariant and xi: the symbolic layers and per-command fixed cost, no fockevolve"
    ),
}


def argv_for(command: str, params: dict) -> list[str]:
    """Command line for one command. Floats keep every digit via repr, and
    ``--key=value`` keeps argparse from reading a negative value as a flag."""
    return [command] + [f"--{key}={value!r}" for key, value in params.items()]


def _session(params: dict, commands) -> tuple[dict, list[list[str]]]:
    full = dict(BASE, **params)
    return full, [argv_for(c, full) for c in commands]


def td_evolve(rng: random.Random):
    """README values (0.1, 0.05, 0.2) jittered by up to 20%, gamma never 0.

    Four steps of dt = 1e-3 keep a session near 2 s at fock_N=16, so a run
    holds a dozen sessions, while every step still rebuilds and diagonalizes
    the generator.
    """
    while True:
        params = {
            "theta": 0.1 * rng.uniform(0.8, 1.2),
            "eta": 0.05 * rng.uniform(0.8, 1.2),
            "gamma": 0.2 * rng.uniform(0.8, 1.2),
            "fock_N": 16,
            "t1": 0.004,
            "dt": 1e-3,
        }
        yield _session(params, FULL_SESSION)


def comm_evolve(rng: random.Random):
    """theta = eta = 0 with invariant constants on the admissible family
    b3 = -a1*eB/2, b1 = a3*eB/2 (eB = 1), so the 1e-6 drift gate is live.

    t1 = 1 keeps fock_N=16 inside the gate: the truncation drift crosses 1e-6
    only near t = 2. The generator is constant, so dt sets only the number of
    per-step observables: 500 steps, about 3 s a session.
    """
    eb = BASE["e"] * BASE["B"]
    while True:
        a1 = rng.choice((-1.0, 1.0)) * rng.uniform(0.5, 1.5)
        a3 = rng.uniform(-1.0, 1.0)
        params = {
            "a1": a1,
            "a3": a3,
            "b1": a3 * eb / 2.0,
            "b3": -a1 * eb / 2.0,
            "c1": rng.uniform(-1.0, 1.0),
            "fock_N": 16,
            "t1": 1.0,
            "dt": 2e-3,
        }
        yield _session(params, FULL_SESSION)


# sizes a sweep session cycles through; the lengths 3, 5 and 6 are coprime, so
# every 30 sessions run each combination once and any seed does the same work
SWEEP_MODES = ("commutative", "stationary", "time-dependent")
SWEEP_T1 = (0.5, 0.75, 1.0, 1.25, 1.5)
SWEEP_GRID = (24, 32, 40, 48, 56, 64)


def sweep(rng: random.Random):
    """Commutative, stationary (gamma = 0) and time-dependent sets in turn.

    The seed draws the physics (field, mass, deformation, invariant
    constants); the window and grid follow the fixed schedule above.
    """
    k = 0
    while True:
        mode = SWEEP_MODES[k % len(SWEEP_MODES)]
        params = {
            "B": rng.uniform(0.5, 2.0),
            "m": rng.uniform(0.5, 2.0),
            "q1": rng.uniform(-0.5, 0.5),
            "q2": rng.uniform(-0.5, 0.5),
            "t1": SWEEP_T1[k % len(SWEEP_T1)],
            "dt": 2e-3,
            "grid_points": SWEEP_GRID[k % len(SWEEP_GRID)],
            "a1": rng.uniform(-1.0, 1.0),
            "a3": rng.uniform(-1.0, 1.0),
            "b1": rng.uniform(-1.0, 1.0),
            "b3": rng.uniform(-1.0, 1.0),
        }
        k += 1
        if mode != "commutative":
            # theta*eta/4 <= 0.0081, below the 1e-2 ConsistencyWarning threshold
            params.update(theta=rng.uniform(0.02, 0.18), eta=rng.uniform(0.02, 0.18))
        if mode == "time-dependent":
            params["gamma"] = rng.choice((-1.0, 1.0)) * rng.uniform(0.05, 0.5)
        yield _session(params, SYMBOLIC_SESSION)


GENERATORS = {"td-evolve": td_evolve, "comm-evolve": comm_evolve, "sweep": sweep}


def sessions(workload: str, seed: int):
    """Endless, seed-determined stream of ``(params, commands)``."""
    return GENERATORS[workload](random.Random(f"{workload}:{seed}"))


def warmup_session(workload: str, seed: int) -> tuple[dict, list[list[str]]]:
    """The workload's first session cut to one time step: it imports and
    touches every code path the workload uses, at a fraction of its cost, and
    leaves the peak RSS to the workload itself."""
    params, argvs = next(sessions(workload, seed))
    short = dict(params, t1=params["t0"] + params["dt"])
    return short, [argv_for(argv[0], short) for argv in argvs]
