"""Truncated two-mode oscillator (x) spinor representation of the degree-<=1
polynomial operators, unitary time evolution by Lanczos exponentials, the
spectral weights of a state (Lanczos), and one pass over the stored states
that measures invariant drift, uncertainty products and the weight the
truncation edge reaches.
Operators are only applied, never built as dense generator-sized matrices.

Full-space convention: states live on mode_x (x) mode_y (x) spinor, of
dimension 2*N^2, viewed as (rows, N, N, 2) arrays. A degree-<=1 operator is
compiled once into one (2N, 2N) block per mode, on (mode, spinor), so every
application is two per-mode block products. The canonical pair defect of the
truncation is confined to the top oscillator level n = N-1 of each mode.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import groupby
from typing import Callable, Iterator, NamedTuple, Sequence

import numpy as np

from .csvout import write_csv
from .errors import DegreeError, DimError, GridError, SizeError
from .mat2 import ID2
from .phasepoly import AffineOp, Coord, PhasePoly

#: rows of the state history processed at once by the observables pass
BLOCK_ROWS = 64
#: block-sized arrays alive at once in the observables pass ``measure``: the
#: four coordinate images, the two Bopp-pair images and a temporary, and the
#: previous block's real edge weights (half a block): at most 7.5 (traced
#: numpy peak 6.9 at fock_N=16, 6.7 at fock_N=32)
BLOCK_IMAGES = 8
#: largest Lanczos space; a run needing more restarts, a step needing more is
#: sub-stepped
KRYLOV_MAX = 40
#: error estimate, relative to |psi|, within which a Krylov sample is written
KRYLOV_TOL = 1e-14


@dataclass(frozen=True)
class FockRep:
    """Truncated representation: N levels per mode, oscillator scale ell, and
    the single-mode (N, N) matrices of the coordinate x and the momentum p."""

    N: int
    ell: float
    hbar: float
    x: np.ndarray
    p: np.ndarray
    dim: int


def dense_bytes(N: int, n_t: int) -> int:
    """Estimated storage of the complex arrays an evolve run on the N-level
    truncation (dimension 2 N^2) over n_t samples holds at its peak: the
    stored states, the KRYLOV_MAX + 1 Lanczos basis vectors and BLOCK_IMAGES
    arrays the size of a block of BLOCK_ROWS states in the observables pass."""
    return 16 * 2 * N * N * (n_t + KRYLOV_MAX + 1 + BLOCK_IMAGES * BLOCK_ROWS)


def build_fock_rep(N: int, ell: float, hbar: float = 1.0) -> FockRep:
    """Build the single-mode ladder-operator matrices.

    Per mode: x = ell (a + a^dag)/sqrt(2), p = i hbar (a^dag - a)/(sqrt(2) ell).
    """
    if N < 2:
        raise SizeError("per-mode truncation must satisfy N >= 2")
    if ell <= 0:
        raise SizeError("oscillator scale ell must be positive")
    a = np.diag(np.sqrt(np.arange(1.0, N)), 1).astype(complex)
    ad = a.conj().T
    x = ell * (a + ad) / math.sqrt(2.0)
    p = 1j * hbar * (ad - a) / (math.sqrt(2.0) * ell)
    return FockRep(N=N, ell=ell, hbar=hbar, x=x, p=p, dim=2 * N * N)


def _mode_blocks(polys: Sequence[PhasePoly], rep: FockRep) -> np.ndarray:
    """The per-mode blocks (len(polys), 2, 2N, 2N) of degree-<=1 polynomials
    with constant coefficient M_0 and linear coefficients M_c: on (mode x,
    spinor) kron(x, M_x) + kron(p, M_px), on (mode y, spinor) kron(x, M_y) +
    kron(p, M_py) + kron(1, M_0). They are linear in the coefficients."""
    if any(poly.degree() > 1 for poly in polys):
        raise DegreeError("only polynomials of degree <= 1 are applied")
    # the slot of each factor x, p, 1 per block; quadratic slot 5 is 0 here
    slots = [[1 + Coord.X, 1 + Coord.PX, 5], [1 + Coord.Y, 1 + Coord.PY, 0]]
    coeffs = np.stack([poly.slots for poly in polys])[:, slots]
    blocks = np.einsum("mij,kbmst->kbisjt", np.stack([rep.x, rep.p, np.eye(rep.N)]), coeffs)
    return blocks.reshape(len(polys), 2, 2 * rep.N, 2 * rep.N)


def _block_action(blocks: np.ndarray, rep: FockRep) -> Callable[[np.ndarray], np.ndarray]:
    """v -> G v on one state (dim,) or a block (rows, dim) for the G with
    per-mode blocks (2, 2N, 2N): one product on the rows as stored (mode y)
    and one on the rows with the mode axes swapped (mode x)."""
    n, n2 = rep.N, 2 * rep.N
    right_x, right_y = blocks[0].T, blocks[1].T

    def g(psi: np.ndarray) -> np.ndarray:
        if psi.shape[-1] != rep.dim:
            raise DimError(f"state size {psi.shape[-1]} does not match dim {rep.dim}")
        rows = psi.reshape(-1, n, n, 2)
        out = (psi.reshape(-1, n2) @ right_y).reshape(rows.shape)
        swapped = rows.transpose(0, 2, 1, 3).reshape(-1, n2) @ right_x
        out += swapped.reshape(rows.shape).transpose(0, 2, 1, 3)
        return out.reshape(psi.shape)

    return g


def operator(poly: PhasePoly, rep: FockRep) -> Callable[[np.ndarray], np.ndarray]:
    """v -> P v for a degree-<=1 polynomial P, compiled once into its two
    per-mode blocks (DegreeError here on a higher degree; the action raises
    DimError on a state of another size)."""
    return _block_action(_mode_blocks([poly], rep)[0], rep)


def coherent_state(
    rep: FockRep,
    alpha_x: complex = 0.0,
    alpha_y: complex = 0.0,
    spinor: Sequence[complex] = (1.0, 0.0),
) -> np.ndarray:
    """Normalized spinor (x) two-mode coherent state; defaults to spin-up vacuum."""

    def mode_vec(alpha: complex) -> np.ndarray:
        v = np.zeros(rep.N, dtype=complex)
        term = 1.0 + 0.0j
        for n in range(rep.N):
            v[n] = term
            term = term * alpha / math.sqrt(n + 1)
        return v / np.linalg.norm(v)

    s = np.asarray(spinor, dtype=complex)
    s = s / np.linalg.norm(s)
    full = np.kron(np.kron(mode_vec(alpha_x), mode_vec(alpha_y)), s)
    return full / np.linalg.norm(full)


@dataclass(frozen=True)
class EvolvedState:
    """Snapshots of a unitary evolution on a uniform grid."""

    times: np.ndarray
    states: np.ndarray  # (n_t, dim) complex
    norm_drift: float


def _check_uniform(t_grid: np.ndarray) -> float:
    if t_grid.size < 2:
        raise GridError("evolution grid needs at least 2 points")
    steps = np.diff(t_grid)
    dt = steps[0]
    if dt <= 0 or np.max(np.abs(steps - dt)) > 1e-12 * max(1.0, abs(dt)):
        raise GridError("evolution grid must be uniform and increasing")
    return float(dt)


def _lanczos(
    g: Callable[[np.ndarray], np.ndarray], psi: np.ndarray
) -> Iterator[tuple[np.ndarray, np.ndarray, float]]:
    """Lanczos recurrence of the Hermitian G, given by its action g, from psi.

    After step j it yields the orthonormal basis v_0..v_j (rows), the
    projected tridiagonal T = V^dag G V of size j + 1, and the norm beta of
    the next residual vector. The basis is kept orthonormal by full
    reorthogonalization (two classical Gram-Schmidt passes), so T stays
    faithful. The recurrence stops after KRYLOV_MAX vectors, after psi.size
    vectors, or when the residual keeps less than KRYLOV_TOL of the norm of
    G v_j: the space is then invariant under G.
    """
    basis = np.empty((KRYLOV_MAX + 1, psi.size), dtype=complex)
    basis[0] = psi / np.linalg.norm(psi)
    t = np.zeros((KRYLOV_MAX + 1, KRYLOV_MAX + 1))
    for j in range(min(KRYLOV_MAX, psi.size)):
        v = basis[: j + 1]
        w = g(basis[j])
        image = np.linalg.norm(w)
        for _ in range(2):
            overlap = (w.conj() @ v.T).conj()  # v^dag w, without a conjugated copy of v
            w -= overlap @ v
            t[j, j] += overlap[j].real
        beta = np.linalg.norm(w)
        yield v, t[: j + 1, : j + 1], beta
        if beta <= KRYLOV_TOL * image:
            return
        basis[j + 1] = w / beta
        t[j, j + 1] = t[j + 1, j] = beta


def _resolved(tau: float, lo: int, hi: int, lam: np.ndarray, s: np.ndarray, beta: float) -> int:
    """How many leading samples k tau, k = lo+1..hi, of exp(-i G k tau) psi
    the Lanczos space with T = s diag(lam) s^T resolves: those whose error
    estimate k tau beta |e_m^T phi1(-i k tau T) e_1|, phi1(z) = (e^z - 1)/z,
    relative to |psi|, is within KRYLOV_TOL (Saad, SIAM J. Numer. Anal. 29,
    209 (1992); Hochbruck & Lubich, SIAM J. Numer. Anal. 34, 1911 (1997)).
    The samples are scanned BLOCK_ROWS at a time."""
    for a in range(lo, hi, BLOCK_ROWS):
        tk = tau * np.arange(a + 1, min(a + BLOCK_ROWS, hi) + 1)
        z = -1j * np.multiply.outer(tk, lam)
        nonzero = np.where(z == 0, 1.0, z)
        phi1 = np.where(z == 0, 1.0, np.expm1(nonzero) / nonzero)
        bad = np.flatnonzero(~(tk * beta * np.abs(phi1 @ (s[-1] * s[0])) <= KRYLOV_TOL))
        if bad.size:
            return a - lo + int(bad[0])
    return hi - lo


def _krylov_run(
    g: Callable[[np.ndarray], np.ndarray], psi: np.ndarray, tau: float, out: np.ndarray
) -> int:
    """Write exp(-i G k tau) psi, k = 1, 2, ..., into the leading rows of out
    from one Lanczos space of psi, and return how many rows it wrote.

    The space grows until it resolves the last row and every row before it;
    a space that ends first writes the rows up to the first it leaves
    unresolved, so 0 when not even the first. The rows keep the norm of psi.
    """
    n = len(out)
    for v, t, beta in _lanczos(g, psi):
        lam, s = np.linalg.eigh(t)
        if _resolved(tau, n - 1, n, lam, s, beta):
            resolved = _resolved(tau, 0, n - 1, lam, s, beta) + 1
            if resolved == n:
                break
    else:
        resolved = _resolved(tau, 0, n - 1, lam, s, beta)
    beta0 = np.linalg.norm(psi)
    for lo in range(0, resolved, BLOCK_ROWS):
        hi = min(lo + BLOCK_ROWS, resolved)
        phase = np.exp(-1j * tau * np.multiply.outer(np.arange(lo + 1, hi + 1), lam))
        np.matmul((beta0 * phase * s[0]) @ s.T, v, out=out[lo:hi])
    return resolved


def krylov_step(
    g: Callable[[np.ndarray], np.ndarray], psi: np.ndarray, dt: float, out: np.ndarray
) -> None:
    """Write exp(-i G k dt) psi, k = 1..n, into the rows of out (n, dim) for a
    Hermitian generator given as its action g: v -> G v, by Lanczos (Park &
    Light, J. Chem. Phys. 85, 5870 (1986)). Each Lanczos space serves every
    sample it resolves and the next starts from the last of them. A step that
    no space of KRYLOV_MAX vectors resolves is split into equal sub-steps,
    halving until each converges, so any dt is reached.
    """
    done = 0
    while done < len(out):
        got = _krylov_run(g, psi, dt, out[done:])
        if not got:
            row, remaining, tau = out[done], dt, dt
            while remaining > 0.0:
                tau = min(tau, remaining)
                if _krylov_run(g, psi, tau, row[None]):
                    psi, remaining = row, remaining - tau
                elif tau > dt * 2.0**-60:  # bounded, so a NaN estimate cannot loop forever
                    tau *= 0.5
                else:
                    raise FloatingPointError("Krylov step found no convergent sub-step")
            got = 1
        done += got
        psi = out[done - 1]


class Spectrum(NamedTuple):
    """Ritz data of a Hermitian generator on the Lanczos space of a state."""

    ritz: np.ndarray  # Ritz values theta_i, ascending
    weight: np.ndarray  # |s_0i|^2, the share of the state on each Ritz vector
    residual: np.ndarray  # beta |s_ki| = |G y_i - theta_i y_i| for Ritz vector y_i


def spectral_weights(g: Callable[[np.ndarray], np.ndarray], psi: np.ndarray) -> Spectrum:
    """Ritz values of the Hermitian G, given by its action g, on the Lanczos
    space of psi, with their weights and residuals.

    The weights sum to 1: they are the Gauss quadrature of the spectral
    measure of psi, so an eigenvalue cluster the space does not resolve is
    carried by one Ritz value near its weighted mean. G has an eigenvalue
    within ``residual[i]`` of every ``ritz[i]``.
    """
    for _, t, beta in _lanczos(g, psi):
        pass
    lam, s = np.linalg.eigh(t)
    return Spectrum(lam, np.abs(s[0]) ** 2, beta * np.abs(s[-1]))


def evolve(
    h: AffineOp,
    rep: FockRep,
    psi0: np.ndarray,
    t_grid: Sequence[float],
) -> EvolvedState:
    """Midpoint-sampled exponential stepping psi_{k+1} = exp(-i H(t_mid) dt) psi_k.

    Every step is unitary to machine precision; dt controls only the
    time-ordering error. Consecutive steps with equal midpoint coefficients
    of H form a run of one generator, which ``krylov_step`` propagates from
    the run's first state straight into the history: a constant generator is
    one run over the grid, a changing one a run per step. The per-mode blocks
    of H's fixed parts are built once and combined per run; no generator-sized
    matrix is built or decomposed. The caller reads the spectral weights of
    any stored state with ``spectral_weights``.
    """
    ts = np.asarray(t_grid, dtype=float)
    dt = _check_uniform(ts)
    psi = np.asarray(psi0, dtype=complex)
    if psi.size != rep.dim:
        raise DimError(f"state size {psi.size} does not match representation dim {rep.dim}")
    nrm = np.linalg.norm(psi)
    if abs(nrm - 1.0) > 1e-10:
        raise ValueError(f"initial state must be unit norm, got {nrm}")

    parts = _mode_blocks(h.polys, rep)
    states = np.empty((ts.size, rep.dim), dtype=complex)
    states[0] = psi
    k = 0
    for coeffs, run in groupby(tuple(h.value(float(t) + 0.5 * dt)) for t in ts[:-1]):
        n = sum(1 for _ in run)
        g = _block_action(np.tensordot(coeffs, parts, 1), rep)
        krylov_step(g, states[k], dt, states[k + 1 : k + 1 + n])
        k += n

    norms = np.sqrt(np.vecdot(states, states).real)
    return EvolvedState(ts, states, norm_drift=float(np.max(np.abs(norms - 1.0))))


@dataclass(frozen=True)
class DriftSeries:
    """Expectation history of a candidate invariant along an evolution."""

    times: np.ndarray
    values: np.ndarray  # <I>(t), complex
    drift: np.ndarray  # <I>(t) - <I>(0)
    relative_max: float  # max |drift| / (|<I>(0)| + 1)


class UncertaintyResult(NamedTuple):
    """Robertson data dA*dB >= |<[A,B]>|/2, one entry per state."""

    product: np.ndarray  # dA * dB
    bound: np.ndarray  # |<[A,B]>| / 2
    margin: np.ndarray  # product - bound


def robertson(states: np.ndarray, a_psi: np.ndarray, b_psi: np.ndarray) -> UncertaintyResult:
    """Robertson data of two Hermitian observables from their images A psi and
    B psi, row by row. For Hermitian A and B, <[A,B]> = 2i Im<A psi|B psi>, so
    the bound is |Im<A psi|B psi>| exactly."""
    ea = np.vecdot(states, a_psi).real
    eb = np.vecdot(states, b_psi).real
    var_a = np.maximum(np.vecdot(a_psi, a_psi).real - ea * ea, 0.0)
    var_b = np.maximum(np.vecdot(b_psi, b_psi).real - eb * eb, 0.0)
    product = np.sqrt(var_a) * np.sqrt(var_b)
    bound = np.abs(np.vecdot(a_psi, b_psi).imag)
    return UncertaintyResult(product, bound, product - bound)


class Observables(NamedTuple):
    """What ``measure`` reads off the stored states of an evolution."""

    drift: DriftSeries  # <I>(t) of the invariant and its drift
    xp: UncertaintyResult  # (x, px)
    yp: UncertaintyResult  # (y, py)
    bopp: UncertaintyResult  # (x - s_theta py, px + s_eta y)
    edge: float  # largest weight of any state on the top level of either mode


def _pair_images(pair: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """The images z psi and p_z psi of the mode on axis 2 of states viewed as
    (rows, N, N, 2), from one matrix product with ``pair``, the (2N, 4N) right
    factor of kron([x; p], 1_2); stacked as (2, rows, N, N, 2)."""
    n, m = rows.shape[:2]
    images = rows.reshape(-1, pair.shape[0]) @ pair
    return images.reshape(n, m, 2, -1, 2).transpose(2, 0, 1, 3, 4)


def measure(
    i_op: PhasePoly,
    rep: FockRep,
    evolved: EvolvedState,
    bopp_scales: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]],
) -> Observables:
    """Measure the stored states in one pass, BLOCK_ROWS rows at a time.

    I psi for the degree-<=1 invariant I comes from ``operator`` and gives
    <I>(t) and its drift. The four coordinate images of a block come from one
    ``_pair_images`` product per mode and give the Robertson data of (x, px),
    (y, py) and the Bopp pair (x - s_theta(t) py, px + s_eta(t) y), where
    ``bopp_scales(times)`` gives (s_theta, s_eta) at the block's times. The
    amplitudes give the largest weight any state has on the top oscillator
    level n = N-1 of either mode, where the truncation defect lives.
    """
    s = evolved.states
    i_psi = operator(i_op, rep)
    factor = np.vstack([np.kron(rep.x, ID2), np.kron(rep.p, ID2)]).T
    values, parts, edge = [], [], 0.0
    for lo in range(0, len(s), BLOCK_ROWS):
        block, times = s[lo : lo + BLOCK_ROWS], evolved.times[lo : lo + BLOCK_ROWS]
        values.append(np.vecdot(block, i_psi(block)))
        n = len(block)
        rows = block.reshape(n, rep.N, rep.N, 2)
        swapped = rows.transpose(0, 2, 1, 3)  # mode x on axis 2, its images transposed back
        x, px = _pair_images(factor, swapped).transpose(0, 1, 3, 2, 4).reshape(2, n, -1)
        y, py = _pair_images(factor, rows).reshape(2, n, -1)
        st, se = (scale[:, None] for scale in bopp_scales(times))
        parts.append((
            robertson(block, x, px),
            robertson(block, y, py),
            robertson(block, x - st * py, px + se * y),
        ))
        del x, px, y, py  # so the next block's images are not built beside these
        prob = np.abs(rows) ** 2
        top = prob[:, -1].sum(axis=(1, 2)) + prob[:, :-1, -1].sum(axis=(1, 2))
        edge = max(edge, float(top.max()))
    values = np.concatenate(values)
    drift = values - values[0]
    rel = float(np.max(np.abs(drift)) / (abs(values[0]) + 1.0))
    pairs = (UncertaintyResult(*map(np.concatenate, zip(*pair))) for pair in zip(*parts))
    return Observables(DriftSeries(evolved.times, values, drift, rel), *pairs, edge)


def write_evolution_csv(
    path, drift: DriftSeries, xp: UncertaintyResult, margin: np.ndarray, e_tracked: np.ndarray
) -> None:
    """CSV export: t, Re<I>, drift, dx*dpx, bound, margin, E_tracked."""
    write_csv(
        path,
        ["t", "re_I", "drift", "dx_dpx", "bound", "margin", "E_tracked"],
        [drift.times, drift.values.real, abs(drift.drift), xp.product, xp.bound, margin, e_tracked],
    )
