"""Host-speed index: how fast this host runs a workload's kind of work right now.

The benchmark shares a few cores of a host whose speed drifts: for seconds to
minutes at a time the same work runs up to half again as long, and a process
beside the benchmark sees the same slow spells at the same moments. Which
spells slow a session, and by how much, depends on the kind of work, so each
workload is paired with a reference kernel of the kind that dominates its
sessions. Neither kernel shares code with ncdirac:

- ``interpreter``: float arithmetic in a Python loop, dicts keyed by exponent
  tuples and calls on 2x2 arrays, like the symbolic layers of a sweep session
  and the imports of a fresh interpreter's set-up;
- ``dense``: the eigendecomposition of a fixed complex Hermitian matrix of the
  evolve workloads' dimension, 2*fock_N**2 = 512, whose sessions are bound by
  LAPACK and array work on matrices of that size.

A kernel's time over its nominal time is the index. A time divided by the mean
of the readings just before and just after it is the time the host gives at
nominal speed. The kernels do not change with the program, so a change to the
program still shows in full. Over the 30 s windows of one 4-minute run per
workload on a 2-vCPU host, the correction took the spread of session_s from
19% to 3% on sweep, from 9% to 3% on td-evolve and from 11% to 4% on
comm-evolve; a kernel of the other kind made the spread worse. Over groups of
seven set-ups it took the spread of setup_s from 18% to 11%: set-up slows less
than the kernel does, so there the correction overshoots.

Import after the BLAS thread variables are set: this module imports numpy.
"""

from __future__ import annotations

import time

import numpy

# bound here so that the traced run, which wraps numpy.linalg.eigh, neither
# counts nor times the reference
_eigh = numpy.linalg.eigh
_PAIR = numpy.array([[1.0, 0.5], [0.25, 2.0]])
DENSE_DIM = 512
# the kernels' times on a 2-vCPU x86-64 host in its fast spells
INTERPRETER_NOMINAL_S = 2.2e-3
DENSE_NOMINAL_S = 0.15


def _interpreter_kernel() -> float:
    total = 0.0
    table = {}
    for i in range(5000):
        total += (i * 0.5) ** 0.5
        table[i % 97] = total
    p = {(i, j): float(i - j) for i in range(5) for j in range(5)}
    q = {(i, j): 0.5 * i + j for i in range(5) for j in range(5)}
    for _ in range(2):
        r = {}
        for (a, b), x in p.items():
            for (c, d), y in q.items():
                key = (a + c, b + d)
                r[key] = r.get(key, 0.0) + x * y
        p = {key: 1e-3 * v for key, v in list(r.items())[:25]}
    m = _PAIR
    for _ in range(350):
        m = (m @ m.T) / (1.0 + m.sum())
    return total + float(m[0, 0]) + sum(p.values())


def _dense_matrix() -> numpy.ndarray:
    rng = numpy.random.default_rng(0)
    shape = (DENSE_DIM, DENSE_DIM)
    m = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return m + m.conj().T


def _fastest(kernel, runs: int) -> float:
    best = float("inf")
    for _ in range(runs):
        start = time.perf_counter()
        kernel()
        best = min(best, time.perf_counter() - start)
    return best


def interpreter() -> float:
    """Index from the faster of two back-to-back runs of the interpreter
    kernel, so that a single interruption does not read as a slow spell."""
    return _fastest(_interpreter_kernel, 2) / INTERPRETER_NOMINAL_S


def dense() -> float:
    """Index from one run of the dense kernel, which is long enough that an
    interruption is a small share of it. The matrix is built untimed for each
    reading and dropped after it, so that it adds nothing to a session's
    memory."""
    matrix = _dense_matrix()
    return _fastest(lambda: _eigh(matrix), 1) / DENSE_NOMINAL_S


# the reference each workload's session times are divided by
FOR_WORKLOAD = {"sweep": interpreter, "td-evolve": dense, "comm-evolve": dense}
