"""Truncated two-mode oscillator (x) spinor representation of the degree-<=1
polynomial operators, unitary time evolution by Lanczos exponentials, the
spectral weights of a state (Lanczos) and the closed-form Dirac-Landau level
they pick, and one pass over the evolution history that measures invariant
drift, uncertainty products and the weight the truncation edge reaches.
Operators are only applied, never built as dense generator-sized matrices.

Full-space convention: states live on mode_x (x) mode_y (x) spinor, of
dimension 2*N^2, viewed as (rows, N, N, 2) arrays. A degree-<=1 operator is
compiled once into one (2N, 2N) block per mode, on (mode, spinor), so every
application is two per-mode block products. The canonical pair defect of the
truncation is confined to the top oscillator level n = N-1 of each mode.

The Hamiltonians of ``ncmodel`` have real coefficients on sigma_1 p_x,
sigma_2 p_y, sigma_1 y, sigma_2 x and sigma_3, so in the Fock basis rotated
by i^{n_y} on mode y and by diag(1, i) on the spinor every matrix element of
theirs is real. ``FockRep`` is built in that basis only. ``evolve`` runs there:
a Lanczos recurrence from a real state (the displaced probe, at t0) runs in
float64, a spectrum of a complex state a + ib on the real vector (a, b), and
only a propagation from a complex state in complex arithmetic. The history
it returns stays in that basis, with the phases that rotate it out.

The history is a list of segments. A Lanczos run that resolves more samples
than it has basis vectors is kept as its coefficients C on its basis V
(sample k is C[k] @ V) and measured in that space; every other run is stored
as rows. Every measured figure is a quadratic form in the state, <I> a sum
of coordinate means, so a segment's figures come from C and small Gram
matrices of the images of V. In the rotated basis x and p_y are real, and
p_x and y are i times real matrices, so the images of a float64 basis and
their Gram matrix are real.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from . import ncmodel
from .errors import ConfigError, DegreeError
from .phasepoly import AffineOp, Coord, PhasePoly

#: rows of the state history processed at once by the observables pass
BLOCK_ROWS = 64
#: block-sized arrays alive at once in the observables pass ``measure`` over
#: stored rows: the four coordinate images, the mode-x product (two arrays)
#: and the rows with mode x leading it came from (traced numpy peak 7.3 at
#: fock_N=16, 7.1 at fock_N=32); a Lanczos segment's images are smaller,
#: KRYLOV_MAX rows at most
BLOCK_IMAGES = 8
#: largest Lanczos space; a run needing more restarts, a step needing more is
#: sub-stepped
KRYLOV_MAX = 40
#: error estimate, relative to |psi|, within which a Krylov sample is written
KRYLOV_TOL = 1e-14
#: residual, relative to |G v_j|, within which a Lanczos space is invariant:
#: two orders above the rounding its recurrence leaves on an invariant space
#: (about 1e-14 at 24 vectors, in complex or real arithmetic alike), so every
#: arithmetic ends there. A space ended on a residual this small still
#: states it: the samples and Ritz data it gives are judged with it
KRYLOV_INVARIANT = 1e-12
#: most sub-steps the generator-norm bound may ask of one evolution; it counts
#: low: a fock_N=16 step it puts at 903 takes 2048 (about 5 s, one thread, 2 vCPUs).
#: On at most KRYLOV_MAX dimensions, where no bound is taken, most one run may take
MAX_SUBSTEPS = 1024

#: the phases i^k, k = 0..3, exact as complex numbers
_PHASES = np.array([1.0, 1j, -1.0, -1j])
#: the phases of a state and of its images under x, p_x, y and p_y in the
#: rotated basis of ``FockRep``, each that phase times a real image
_IMAGE_PHASES = np.array([1.0, 1.0, 1j, 1j, 1.0])


@dataclass(frozen=True)
class FockRep:
    """Truncated representation in the basis rotated by diag(1, i) on the
    spinor and i^n on level n of mode y: N levels per mode, oscillator scale
    ell, the real single-mode (N, N) matrices ``coords`` of x, p_x, y and
    p_y, each over its phase in _IMAGE_PHASES, ``pair_y`` the (2N, 4N) right
    factor of kron([y; p_y], 1_2) on (mode y, spinor), and the (dim,) phases
    ``frame`` that rotate a state out: psi = frame * phi."""

    N: int
    ell: float
    hbar: float
    dim: int
    coords: np.ndarray
    pair_y: np.ndarray
    frame: np.ndarray


def dense_bytes(N: int, n_t: int) -> int:
    """Estimated storage of the complex arrays an evolve run on the N-level
    truncation (dimension 2 N^2) over n_t samples holds at its peak, in the
    worst case that every sample is stored as a row: the stored states, the
    KRYLOV_MAX + 1 Lanczos basis vectors and BLOCK_IMAGES arrays the size of
    a block of BLOCK_ROWS states in the observables pass. The basis is
    charged as complex: a float64 one from a real state takes half that, one
    on the two real planes of a complex state (an end spectrum) the same.
    The worst case is reached by a generator that changes every step, and by
    a constant one whenever each Lanczos space resolves no more samples than
    it has vectors (a long dt): such spaces are stored as rows too. Only a
    space that resolves more is kept as coefficients on its basis."""
    return 16 * 2 * N * N * (n_t + KRYLOV_MAX + 1 + BLOCK_IMAGES * BLOCK_ROWS)


def build_fock_rep(N: int, ell: float, hbar: float = 1.0) -> FockRep:
    """Build the rotated representation. Per mode: x = ell (a + a^dag)/sqrt(2),
    p = i hbar (a^dag - a)/(sqrt(2) ell), on mode y between the phases i^n."""
    if N < 2:
        raise ValueError("per-mode truncation must satisfy N >= 2")
    if ell <= 0:
        raise ValueError("oscillator scale ell must be positive")
    a = np.diag(np.sqrt(np.arange(1.0, N)), 1).astype(complex)
    ad = a.conj().T
    x = ell * (a + ad) / math.sqrt(2.0)
    p = 1j * hbar * (ad - a) / (math.sqrt(2.0) * ell)
    levels = _PHASES[np.arange(N) % 4]  # mode y's rotation; the spinor's cancels
    y, py = levels.conj()[:, None] * np.stack([x, p]) * levels
    coords = (np.stack([x, p, y, py]) * _IMAGE_PHASES[1:, None, None].conj()).real
    pair_y = np.kron(coords[2:], np.eye(2)).reshape(4 * N, 2 * N).T.copy()
    frame = np.tile(np.kron(levels, _PHASES[:2]), N)
    return FockRep(N, ell, hbar, 2 * N * N, coords, pair_y, frame)


def _mode_blocks(polys: Sequence[PhasePoly], rep: FockRep) -> np.ndarray:
    """The rotated per-mode blocks (len(polys), 2, 2N, 2N) of degree-<=1
    polynomials with coefficients M_0 and M_c: on (mode x, spinor) kron(x, M_x)
    + kron(p_x, M_px), on (mode y, spinor) kron(y, M_y) + kron(p_y, M_py) +
    kron(1, M_0). Each M turns into diag(1, -i) M diag(1, i) times its
    factor's phase, contracted with the factor's real matrix in ``rep.coords``."""
    if any(poly.degree() > 1 for poly in polys):
        raise DegreeError("only polynomials of degree <= 1 are applied")
    # the slot of each factor per block; quadratic slot 5 is 0 here
    slots = [[1 + Coord.X, 1 + Coord.PX, 5], [1 + Coord.Y, 1 + Coord.PY, 0]]
    coeffs = np.stack([poly.slots for poly in polys])[:, slots]  # (k, block, factor, 2, 2)
    spin, eye = _PHASES[:2], np.eye(rep.N)
    phases = _IMAGE_PHASES[[[1, 2, 0], [3, 4, 0]], None, None]  # of each factor
    coeffs = spin.conj()[:, None] * coeffs * spin * phases
    mats = np.stack([[*rep.coords[:2], eye], [*rep.coords[2:], eye]])  # (block, factor, N, N)
    blocks = np.einsum("kbfst,bfmn->kbmsnt", coeffs, mats)
    return blocks.reshape(len(polys), 2, 2 * rep.N, 2 * rep.N)


def _block_action(blocks: np.ndarray, rep: FockRep) -> Callable[[np.ndarray], np.ndarray]:
    """v -> G v on one state (dim,) or a block (rows, dim) for the G with
    per-mode blocks (2, 2N, 2N): one product on the rows as stored (mode y)
    and one on the rows with the mode axes swapped (mode x). A complex state
    takes a complex copy of real blocks, made once: a product of mixed dtypes
    casts anew each time, and takes about 1.8 times as long as the cast and a
    complex product (23 rows at fock_N=16, one BLAS thread)."""
    n, n2 = rep.N, 2 * rep.N
    right = blocks[0].T, blocks[1].T
    right_complex = tuple(b.astype(complex, copy=False) for b in right)

    def g(psi: np.ndarray) -> np.ndarray:
        if psi.shape[-1] != rep.dim:
            raise ValueError(f"state size {psi.shape[-1]} does not match dim {rep.dim}")
        right_x, right_y = right_complex if psi.dtype.kind == "c" else right
        rows = psi.reshape(-1, n, n, 2)
        out = (psi.reshape(-1, n2) @ right_y).reshape(rows.shape)
        swapped = rows.transpose(0, 2, 1, 3).reshape(-1, n2) @ right_x
        out += swapped.reshape(rows.shape).transpose(0, 2, 1, 3)
        return out.reshape(psi.shape)

    return g


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
class Segment:
    """Consecutive samples of an evolution, in the frame of its history: the
    rows of ``coeffs @ basis``, or the rows of ``basis`` itself when
    ``coeffs`` is None."""

    basis: np.ndarray  # (m, dim) Lanczos vectors, or the stored rows
    coeffs: np.ndarray | None = None  # (samples, m) on the basis

    @property
    def size(self) -> int:
        """The number of samples."""
        return len(self.basis if self.coeffs is None else self.coeffs)

    def row(self, k: int) -> np.ndarray:
        """The state of sample k (negative k counts from the end)."""
        return self.basis[k] if self.coeffs is None else self.coeffs[k] @ self.basis

    def rows(self) -> np.ndarray:
        """All samples as rows (samples, dim)."""
        return self.basis if self.coeffs is None else self.coeffs @ self.basis


class Spectrum(NamedTuple):
    """Ritz data of a Hermitian generator on the Lanczos space of a state."""

    ritz: np.ndarray  # Ritz values theta_i, ascending
    weight: np.ndarray  # |s_0i|^2, the share of the state on each Ritz vector
    residual: np.ndarray  # beta |s_ki| = |G y_i - theta_i y_i| for Ritz vector y_i


@dataclass(frozen=True)
class EvolvedState:
    """A unitary evolution sampled on a uniform grid, held as segments in a
    rotated basis: the state of a segment row phi is ``frame * phi``. With
    ``spectra``: the Ritz data of H(t0) on the Lanczos space of psi(t0) and of
    H(t1) on that of psi(t1). When one generator served every step and is H
    at both ends, psi(t1) = exp(-i H (t1 - t0)) psi(t0) has the spectral
    measure of psi(t0) under the same H, and one run serves both entries."""

    times: np.ndarray
    segments: tuple[Segment, ...]
    spectra: tuple[Spectrum, Spectrum]
    frame: np.ndarray  # (dim,) unit phases, psi = frame * phi

    @property
    def states(self) -> np.ndarray:
        """Every state as rows (n_t, dim) in the standard basis, materialized
        on each access. The package reads the segments; the benchmark's
        tracer reads this until ROADMAP items 0 and 4 take its count into the
        package."""
        rows = np.concatenate([segment.rows() for segment in self.segments], dtype=complex)
        rows *= self.frame
        return rows

    @property
    def norm_drift(self) -> float:
        """Largest |norm - 1| of any sample, from the actual Gram matrix of
        each segment's basis (its orthonormality is not assumed); the frame's
        phases leave norms as they are."""
        norms = [
            np.vecdot(seg.basis, seg.basis)
            if seg.coeffs is None
            else np.vecdot(seg.coeffs, seg.coeffs @ _gram(seg.basis, seg.basis).T)
            for seg in self.segments
        ]
        return float(np.max(np.abs(np.sqrt(np.concatenate(norms).real) - 1.0)))


def _gram(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The matrix <a_j|b_k> of the rows of a and b, real for real rows.
    Complex rows of a are conjugated BLOCK_ROWS at a time: a conjugate is a
    copy, and the four images of a complex Lanczos basis at fock_N=48 take
    11 MB."""
    if a.dtype.kind != "c":
        return a @ b.T
    blocks = range(0, len(a), BLOCK_ROWS)
    return np.concatenate([a[lo : lo + BLOCK_ROWS].conj() @ b.T for lo in blocks])


def _forms(coeffs: np.ndarray, grams: np.ndarray, out: np.ndarray) -> None:
    """out[f, k] = c_k^dag grams[f] c_k for the rows c_k of coeffs: the
    quadratic forms of the samples psi_k = sum_j c_kj v_j of a segment, from
    the matrices grams[f] = <a_j|b_k> of images a_j = A v_j, b_k = B v_k of its
    basis. One product of BLOCK_ROWS coefficient rows with every form and one
    batched contraction per block, so no temporary grows with the samples."""
    n_forms, m = grams.shape[:2]
    right = grams.transpose(2, 0, 1).reshape(m, n_forms * m)
    for lo in range(0, len(coeffs), BLOCK_ROWS):
        c = coeffs[lo : lo + BLOCK_ROWS]
        images = (c @ right).reshape(len(c), n_forms, m)
        out[:, lo : lo + len(c)] = (images @ c.conj()[:, :, None])[..., 0].T


def _check_uniform(t_grid: np.ndarray) -> float:
    """The first step of a uniform increasing grid. Its steps may differ by
    1e-12 of max(1, dt), or by the few ulps of max |t| that rounding the
    times leaves, whichever is larger."""
    if t_grid.size < 2:
        raise ValueError("evolution grid needs at least 2 points")
    steps = np.diff(t_grid)
    dt = steps[0]
    tol = max(1e-12 * max(1.0, abs(dt)), 4.0 * np.spacing(np.max(np.abs(t_grid))))
    if dt <= 0 or np.max(np.abs(steps - dt)) > tol:
        raise ValueError("evolution grid must be uniform and increasing")
    return float(dt)


def _check_reachable(
    coeffs: np.ndarray, counts: np.ndarray, parts: np.ndarray, rep: FockRep, dt: float
) -> tuple[float, float]:
    """The step tau = dt/hbar of each exp(-i G tau) that a grid step dt takes,
    as i hbar d(psi)/dt = H psi asks, and the sub-steps a ``krylov_step`` run
    may take. Refuse a grid whose steps need more than MAX_SUBSTEPS sub-steps
    in all. Row r of ``coeffs`` holds a generator's coefficients on the
    blocks ``parts``, and ``counts[r]`` its step count. KRYLOV_MAX vectors
    resolve exp(-i G tau) only for tau |G| up to about KRYLOV_MAX (Hochbruck
    & Lubich 1997), and |G| is at most sum_k |c_k| (|B_k,x| + |B_k,y|) over
    the blocks. A space spanning the state space resolves any step, but for
    rounding: there a run may take MAX_SUBSTEPS, counted as it takes them."""
    tau = dt / rep.hbar
    if rep.dim <= KRYLOV_MAX:
        return tau, MAX_SUBSTEPS
    entries = np.abs(parts)  # |B| <= sqrt(max row sum * max column sum) of |B|
    norms = np.sqrt(entries.sum(axis=-1).max(axis=-1) * entries.sum(axis=-2).max(axis=-1))
    bound = np.abs(coeffs) @ norms.sum(axis=1)
    need = tau * bound / KRYLOV_MAX
    substeps = float(np.sum(np.multiply(counts, need), where=~(need <= 1.0)))
    if not substeps <= MAX_SUBSTEPS:
        raise ConfigError(
            f"dt={dt:.6g} (dt/hbar={tau:.6g}) needs about {substeps:.3g} Lanczos sub-steps, "
            f"more than the {MAX_SUBSTEPS} a run may take: the generator-norm bound reaches "
            f"{bound.max():.3g}, and a sub-step spans at most about {KRYLOV_MAX}/bound"
        )
    return tau, math.inf


#: one step of a Lanczos recurrence: the basis rows so far, the projected
#: tridiagonal T, the norm beta of the next residual, whether this is the last
LanczosStep = tuple[np.ndarray, np.ndarray, float, bool]


def _lanczos(g: Callable[[np.ndarray], np.ndarray], psi: np.ndarray) -> Iterator[LanczosStep]:
    """Lanczos recurrence of the Hermitian G, given by its action g, from psi.

    After step j it yields the orthonormal basis v_0..v_j (rows), the
    projected tridiagonal T = V^dag G V of size j + 1, the norm beta of the
    next residual vector, and whether v_j is the last vector. The basis is
    kept orthonormal by full reorthogonalization (two classical Gram-Schmidt
    passes), so T stays faithful. psi is one state or a stack of states, on
    each of which g applies G: a basis row is then the stack, flattened, and
    the space spans no more vectors than one state has entries, since G's
    minimal polynomial annihilates each. The recurrence stops after
    KRYLOV_MAX vectors, after psi.shape[-1] vectors, or when the residual
    keeps less than KRYLOV_INVARIANT of the norm of G v_j: the space is then
    invariant under G. A basis row or a block of T is never written after it
    is yielded, so a recorded recurrence replays bit for bit. The basis takes
    psi's dtype: a real psi under a real symmetric G runs in float64.
    """
    states = np.empty((KRYLOV_MAX + 1, *psi.shape), dtype=np.result_type(psi, 1.0))
    basis = states.reshape(KRYLOV_MAX + 1, psi.size)
    basis[0] = psi.ravel() / np.linalg.norm(psi)
    t = np.zeros((KRYLOV_MAX + 1, KRYLOV_MAX + 1))
    limit = min(KRYLOV_MAX, psi.shape[-1])
    for j in range(limit):
        v = basis[: j + 1]
        w = g(states[j]).ravel()
        image = np.linalg.norm(w)
        for _ in range(2):
            overlap = (w.conj() @ v.T).conj()  # v^dag w, without a conjugated copy of v
            w -= overlap @ v
            t[j, j] += overlap[j].real
        beta = np.linalg.norm(w)
        last = j + 1 == limit or beta <= KRYLOV_INVARIANT * image
        yield v, t[: j + 1, : j + 1], beta, last
        if last:
            return
        basis[j + 1] = w / beta
        t[j, j + 1] = t[j + 1, j] = beta


def _estimate(tk: np.ndarray, lam: np.ndarray, s: np.ndarray, beta: float) -> np.ndarray:
    """The error estimate tk beta |e_m^T phi1(-i tk T) e_1|, phi1(z) =
    (e^z - 1)/z, relative to |psi|, of exp(-i G tk) psi from the Lanczos
    space with T = s diag(lam) s^T, at each time of tk (Saad, SIAM J. Numer.
    Anal. 29, 209 (1992); Hochbruck & Lubich, SIAM J. Numer. Anal. 34, 1911
    (1997)). phi1(-i theta) = e^{-i theta/2} sin(theta/2)/(theta/2), 1 at
    theta = 0, is taken in real arithmetic."""
    weights = s[-1] * s[0]
    half = 0.5 * np.multiply.outer(tk, lam)
    sinc = np.divide(sin := np.sin(half), half, out=np.ones_like(half), where=half != 0)
    return tk * beta * np.hypot((np.cos(half) * sinc) @ weights, (sin * sinc) @ weights)


def _resolved(tau: float, lo: int, hi: int, lam: np.ndarray, s: np.ndarray, beta: float) -> int:
    """How many leading samples k tau, k = lo+1..hi, of exp(-i G k tau) psi
    the Lanczos space with T = s diag(lam) s^T resolves: those whose
    ``_estimate`` is within KRYLOV_TOL. The samples are scanned BLOCK_ROWS at
    a time."""
    for a in range(lo, hi, BLOCK_ROWS):
        tk = tau * np.arange(a + 1, min(a + BLOCK_ROWS, hi) + 1)
        bad = np.flatnonzero(~(_estimate(tk, lam, s, beta) <= KRYLOV_TOL))
        if bad.size:
            return a - lo + int(bad[0])
    return hi - lo


def _krylov_run(
    recurrence: Iterable[LanczosStep], beta0: float, tau: float, n: int, size: int
) -> Segment:
    """The samples exp(-i G k tau) psi, k = 1, 2, ..., n, that one Lanczos
    space of psi resolves, as coefficients C = (beta0 e^{-i lambda k tau} s0) s^T
    on the space's basis V: sample k is C[k - 1] @ V. ``recurrence`` is the
    Lanczos recurrence of psi under G, ``_lanczos(g, psi)`` or a recorded
    copy of it, and beta0 is the norm of psi.

    The space grows until it resolves the last sample and every sample before
    it; a space that ends first keeps the samples up to the first it leaves
    unresolved, so none when not even the first. ``size`` is the previous
    run's space size: spaces of fewer than size - 1 vectors are not checked
    (no T is diagonalized), except on the last vector the recurrence yields.
    Skipping checks can only enlarge the space, so no unresolved sample is
    kept.
    """
    for v, t, beta, last in recurrence:
        if len(v) < size - 1 and not last:
            continue
        lam, s = np.linalg.eigh(t)
        if _estimate(np.array([tau * n]), lam, s, beta)[0] <= KRYLOV_TOL:
            resolved = _resolved(tau, 0, n - 1, lam, s, beta) + 1
            if resolved == n:
                break
    else:
        resolved = _resolved(tau, 0, n - 1, lam, s, beta)
    phase = np.exp(-1j * tau * np.multiply.outer(np.arange(1, resolved + 1), lam))
    return Segment(v, (beta0 * phase * s[0]) @ s.T)


def krylov_step(
    g: Callable[[np.ndarray], np.ndarray],
    psi: np.ndarray,
    dt: float,
    n: int,
    size: int,
    first: Sequence[LanczosStep] | None = None,
    max_substeps: float = math.inf,
) -> Iterator[Segment]:
    """Yield exp(-i G k dt) psi, k = 1..n, as consecutive segments, for a
    Hermitian generator given as its action g: v -> G v, by Lanczos (Park &
    Light, J. Chem. Phys. 85, 5870 (1986)). Each Lanczos space serves every
    sample it resolves and the next starts from the last of them. ``size`` is
    the number of vectors of the Lanczos space before the first (0 for
    none); each run skips the checks of spaces more than one vector smaller
    than its predecessor's, since consecutive runs need about the same space.
    A yielded segment with coefficients carries its space as its basis. A
    step that no space of KRYLOV_MAX vectors resolves is split into equal
    sub-steps, halving from dt/2 until each converges, so any dt is reached;
    its sample is yielded as a stored row. Each sub-step is handed the size
    of the last sub-step that converged (0 before the first), as the runs
    are, and a sub-step that would leave more than ``max_substeps`` in all
    raises ConfigError. ``first``, when given, is the recorded Lanczos
    recurrence of psi under G, which the first run replays.
    """
    done = substeps = 0
    while done < n:
        recurrence = _lanczos(g, psi) if first is None else first
        first = None
        segment = _krylov_run(recurrence, np.linalg.norm(psi), dt, n - done, size)
        size = len(segment.basis)
        if not segment.size:
            remaining, tau, sub_size = dt, 0.5 * dt, 0  # dt itself just failed
            while remaining > 0.0:
                tau = min(tau, remaining)
                if substeps + remaining / tau > max_substeps:
                    raise ConfigError(
                        f"a step of dt/hbar={dt:.6g} needs more than {max_substeps:g} Lanczos "
                        f"sub-steps: at least {remaining / tau:.3g} more of {tau:.3g} or less")
                sub = _krylov_run(_lanczos(g, psi), np.linalg.norm(psi), tau, 1, sub_size)
                if sub.size:
                    psi, remaining, sub_size = sub.row(0), remaining - tau, len(sub.basis)
                    substeps += 1
                elif tau > dt * 2.0**-60:  # bounded, so a NaN estimate cannot loop forever
                    tau *= 0.5
                else:
                    raise FloatingPointError("Krylov step found no convergent sub-step")
            segment = Segment(psi[None])
        done += segment.size
        if done < n:
            psi = segment.row(-1)
        yield segment


def _ritz(recurrence: Sequence[LanczosStep]) -> Spectrum:
    """The Ritz data of a Lanczos recurrence recorded to its end."""
    _, t, beta, _ = recurrence[-1]
    lam, s = np.linalg.eigh(t)
    return Spectrum(lam, np.abs(s[0]) ** 2, beta * np.abs(s[-1]))


def spectral_weights(g: Callable[[np.ndarray], np.ndarray], psi: np.ndarray) -> Spectrum:
    """Ritz values of the Hermitian G, given by its action g, on the Lanczos
    space of psi, with their weights and residuals.

    The weights sum to 1: they are the Gauss quadrature of the spectral
    measure of psi, so an eigenvalue cluster the space does not resolve is
    carried by one Ritz value near its weighted mean. G has an eigenvalue
    within ``residual[i]`` of every ``ritz[i]``.
    """
    return _ritz(list(_lanczos(g, psi)))


def _real_planes(phi: np.ndarray) -> np.ndarray:
    """phi when real, else its real planes as the rows (a, b) of phi = a + ib.
    Under a real symmetric G their spectral measure mu_a + mu_b is that of
    phi, so their Lanczos recurrence runs in float64 with phi's tridiagonal."""
    return np.stack([phi.real, phi.imag]) if np.iscomplexobj(phi) else phi


class LevelTrack(NamedTuple):
    """The Dirac-Landau level an evolution follows, and how far the truncated
    generator's Ritz values sit from it at the two ends of the run."""

    n: int
    sign: int
    energy: np.ndarray  # E_n(t) at every sample
    error: tuple[float, float]  # |Ritz - E_n| at t0 and t1
    residual: tuple[float, float]  # Ritz residuals of those two Ritz values
    spacing: tuple[float, float]  # distance from E_n to the nearest other level there


def track_level(m: float, gaps: np.ndarray, evolved: EvolvedState) -> LevelTrack:
    """Follow the closed-form level of mass m that holds the largest share of
    the initial state; ``gaps`` is ``ncmodel.landau_gap`` at every sample.

    The Ritz values and weights of H(t0) on psi(t0) are summed by the nearest
    closed-form level (n, sign), and the largest sum names the level. Levels
    of different n do not cross while the gap keeps its sign, so E_n(t) is
    the tracked energy at every sample. The distance from E_n to the nearest
    Ritz value, with that value's residual, is the Krylov resolution of the
    level's cluster (not the fock_N truncation), at t0 and at t1 from
    ``evolved.spectra``; the level spacing at both ends says whether that
    distance still names one level.
    """
    ends = (0, len(evolved.times) - 1)
    first = evolved.spectra[0]
    ns, signs = ncmodel.nearest_landau_level(m, float(gaps[0]), first.ritz)
    shares: dict[tuple[float, int], float] = {}
    for level, weight in zip(zip(ns.tolist(), signs.tolist()), first.weight.tolist()):
        shares[level] = shares.get(level, 0.0) + weight  # in ascending Ritz order
    n, sign = map(int, max(shares, key=shares.get))
    energy = ncmodel.landau_level(m, n, sign, gaps)
    error, residual = [], []
    for k, spectrum in zip(ends, evolved.spectra):
        i = int(np.argmin(np.abs(spectrum.ritz - energy[k])))
        error.append(float(abs(spectrum.ritz[i] - energy[k])))
        residual.append(float(spectrum.residual[i]))
    spacing = tuple(ncmodel.level_spacing(m, n, float(gaps[k])) for k in ends)
    return LevelTrack(n, sign, energy, tuple(error), tuple(residual), spacing)


def evolve(
    h: AffineOp,
    rep: FockRep,
    psi0: np.ndarray,
    t_grid: Sequence[float],
) -> EvolvedState:
    """Midpoint-sampled exponential stepping psi_{k+1} = exp(-i H(t_mid) dt/hbar) psi_k.

    Every step is unitary to machine precision; dt controls only the
    time-ordering error. One evaluation of H's coefficients at every midpoint
    splits the grid into runs: consecutive steps with equal coefficients form
    a run of one generator, which ``krylov_step`` propagates from the run's
    first state: a constant generator is one run over the grid, a changing
    one a run per step. Each run is handed the Lanczos size of the
    run before it, below which ``krylov_step`` skips its checks.
    ``EvolvedState.spectra`` holds the Ritz data of H(t0) on psi(t0) and of
    H(t1) on psi(t1). When a single run's generator is H at t0 and at t1, the
    Lanczos recurrence of psi0 is run once to its end: its Ritz data serve
    both ends, and the run's first Lanczos space replays its head, so the
    propagation and the spectra share one recurrence of at most KRYLOV_MAX
    vectors; otherwise ``spectral_weights`` runs at each end after the
    propagation. A grid whose steps need more than MAX_SUBSTEPS sub-steps
    raises ConfigError first, or, on at most KRYLOV_MAX dimensions, a run
    once it would take more. The per-mode blocks of H's fixed parts are
    built once and combined per run and at the two ends, each by one product
    of a coefficient row with the flattened blocks; no generator-sized
    matrix is built or decomposed. A Lanczos space that resolves more
    samples than it has vectors is kept as a segment of coefficients on its
    basis; the samples of every other space are stored as rows, consecutive
    stored rows joined into segments of at least BLOCK_ROWS rows, so that
    joining never holds a second copy of more than a block.

    The recurrences run in the rotated basis of ``FockRep``, where H's
    blocks are real; a generator whose blocks keep an imaginary part there
    raises ValueError. psi0 is rotated in, and the history stays in the
    rotated basis, with ``rep.frame`` as ``EvolvedState.frame``: a Lanczos
    segment keeps the basis its recurrence built. A recurrence from a real
    state runs in float64: from the probe coherent(alpha_x) (x) |0>_y (x) up
    with real alpha_x, the shared recurrence of a constant generator, or the
    first step and the t0 spectrum of a changing one. The t1 spectrum of a
    complex state runs on its two real planes (``_real_planes``). A
    propagation from a complex state stays complex: its exp(-i G t) mixes V
    with i V, and stacked planes kept orthogonal to V drift from i V.
    """
    ts = np.asarray(t_grid, dtype=float)
    dt = _check_uniform(ts)
    psi = np.asarray(psi0, dtype=complex)
    if psi.size != rep.dim:
        raise ValueError(f"state size {psi.size} does not match representation dim {rep.dim}")
    nrm = np.linalg.norm(psi)
    if abs(nrm - 1.0) > 1e-10:
        raise ValueError(f"initial state must be unit norm, got {nrm}")

    parts = _mode_blocks(h.polys, rep)
    if np.any(parts.imag):
        raise ValueError(
            "H is not real in the rotated Fock basis (i^n_y on mode y, diag(1, i) on the "
            f"spinor): its imaginary part reaches {np.max(np.abs(parts.imag)):.3g}"
        )
    parts = parts.real.copy()
    flat = parts.reshape(len(parts), -1)
    midpoints = h.value(ts[:-1] + 0.5 * dt)
    # a run starts at the first midpoint and wherever the coefficients change
    starts = np.flatnonzero(np.r_[True, np.any(midpoints[1:] != midpoints[:-1], axis=1)])
    coeffs, counts = midpoints[starts], np.diff(np.r_[starts, len(midpoints)])
    tau, max_substeps = _check_reachable(coeffs, counts, parts, rep, dt)
    ends = h.value(ts[[0, -1]])
    shared = len(starts) == 1 and bool(np.all(ends == coeffs[0]))

    def generator(c: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
        return _block_action((c @ flat).reshape(parts.shape[1:]), rep)

    phi = rep.frame.conj() * psi
    phi = start = phi if np.any(phi.imag) else phi.real.copy()
    segments, stored = [], [phi[None]]
    size, first = 0, None
    for c, n in zip(coeffs, counts.tolist()):
        g = generator(c)
        if shared:
            first = list(_lanczos(g, phi))
            spectra = (_ritz(first),) * 2
        for segment in krylov_step(g, phi, tau, n, size, first, max_substeps):
            if segment.coeffs is not None:
                size = len(segment.basis)
            projected = segment.coeffs is not None and segment.size > len(segment.basis)
            if projected:
                phi = segment.row(-1)
            else:
                rows = segment.rows()
                phi = rows[-1]
                stored.append(rows)
            if stored and (projected or sum(map(len, stored)) >= BLOCK_ROWS):
                segments.append(Segment(np.concatenate(stored)))
                stored = []
            if projected:
                segments.append(segment)
    if stored:
        segments.append(Segment(np.concatenate(stored)))
    if not shared:
        spectra = tuple(
            spectral_weights(generator(c), _real_planes(end)) for c, end in zip(ends, (start, phi))
        )
    return EvolvedState(ts, tuple(segments), spectra, rep.frame)


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


def robertson(
    ea: np.ndarray, eb: np.ndarray, aa: np.ndarray, bb: np.ndarray, ab: np.ndarray
) -> UncertaintyResult:
    """Robertson data of two Hermitian observables from the moments of each
    state: the means <A> and <B>, the squared norms <A psi|A psi> and
    <B psi|B psi>, and the overlap <A psi|B psi>. For Hermitian A and B,
    <[A,B]> = 2i Im<A psi|B psi>, so the bound is |Im<A psi|B psi>| exactly."""
    var_a = np.maximum(aa - ea * ea, 0.0)
    var_b = np.maximum(bb - eb * eb, 0.0)
    product = np.sqrt(var_a) * np.sqrt(var_b)
    bound = np.abs(ab.imag)
    return UncertaintyResult(product, bound, product - bound)


class Observables(NamedTuple):
    """What ``measure`` reads off the history of an evolution."""

    drift: DriftSeries  # <I>(t) of the invariant and its drift
    xp: UncertaintyResult  # (x, px)
    yp: UncertaintyResult  # (y, py)
    bopp: UncertaintyResult  # (x - s_theta py, px + s_eta y)
    edge: float  # largest weight of any state on the top level of either mode


def _images(rep: FockRep, rows: np.ndarray) -> np.ndarray:
    """The images of rows (n, dim) in the rotated basis under x, p_x, y and
    p_y, each over its phase in _IMAGE_PHASES, stacked as (4, n, dim): one
    product per mode, the (2N, N) stack [x; p_x] of ``rep.coords`` on the
    left of the rows with mode x leading, ``rep.pair_y`` on the right. Real
    rows have real images."""
    n, m = len(rows), rep.N
    out = np.empty((4, n, m, 2 * m), dtype=rows.dtype)
    rows = rows.reshape(n, m, 2 * m)
    images = rep.coords[:2].reshape(2 * m, m) @ rows.transpose(1, 0, 2).reshape(m, -1)
    out[:2] = images.reshape(2, m, n, 2 * m).transpose(0, 2, 1, 3)
    del images
    images = rows.reshape(-1, 2 * m) @ rep.pair_y
    out[2:] = images.reshape(n, m, 2, 2 * m).transpose(2, 0, 1, 3)
    return out.reshape(4, n, rep.dim)


#: the Gram entries <z psi|w psi> of the coordinate images that ``measure``
#: takes, z before w in the order x, px, y, py
_GRAM = tuple((i, j) for i in range(4) for j in range(i, 4))
#: the forms <a|b> that ``measure`` takes, a and b numbering the state (0)
#: and its ``_images`` (1-4): the means of x, px, y and py, then _GRAM
_FORMS = np.array([(0, 1 + z) for z in range(4)] + [(1 + z, 1 + w) for z, w in _GRAM]).T


def measure(
    i_op: PhasePoly, rep: FockRep, evolved: EvolvedState, scales: tuple[np.ndarray, np.ndarray]
) -> Observables:
    """Measure the history in one pass over its segments, in the rotated
    basis ``evolve`` holds it in: a stored segment BLOCK_ROWS rows at a time,
    a Lanczos segment in its basis.

    Each piece gives per-sample moments: the means of x, px, y and py and the
    Gram entries of their images (one ``_images`` product per mode), and the
    weight on the top oscillator level n = N-1 of either mode, where the
    truncation defect lives. A stored row gives them as inner products. A
    Lanczos segment gives them as quadratic forms in its coefficients
    (``_forms``), from the Gram matrices of the basis and of its images
    against its images, real for a float64 basis. The moments give
    <I>(t) = c_1 + b_1 <x> + a_1 <px> + b_3 <y> + a_3 <py> and its drift for
    the scalar degree-<=1 invariant I, the Robertson data of (x, px) and
    (y, py), and, expanded, those of the Bopp pair (x - s_theta(t) py,
    px + s_eta(t) y), where ``scales`` holds the arrays (s_theta, s_eta) at
    the samples. A quadratic I raises DegreeError, a spinful one ValueError.
    """
    if i_op.degree() > 1:
        raise DegreeError("only invariants of degree <= 1 are measured")
    # the constant slot, then the coordinates in the order of _images
    c = i_op.slots[[0, 1 + Coord.X, 1 + Coord.PX, 1 + Coord.Y, 1 + Coord.PY]]
    if np.any(c != c[:, :1, :1] * np.eye(2)):
        raise ValueError("only a scalar invariant is measured: I has a spinful coefficient")
    left, right = _FORMS
    top = np.zeros((rep.N, rep.N, 2), dtype=bool)
    top[-1] = top[:, -1] = True
    top = top.ravel()
    moments = np.empty((1 + len(left), len(evolved.times)), dtype=complex)
    k = 0
    for segment in evolved.segments:
        basis = segment.basis
        if basis.shape[-1] != rep.dim:
            raise ValueError(f"state size {basis.shape[-1]} does not match dim {rep.dim}")
        if segment.coeffs is None:
            for lo in range(0, len(basis), BLOCK_ROWS):
                rows = basis[lo : lo + BLOCK_ROWS]
                out = moments[:, k + lo : k + lo + len(rows)]
                images = (rows, *_images(rep, rows))
                for row, a, b in zip(out[:-1], left, right):
                    row[:] = np.vecdot(images[a], images[b])
                edge = rows[:, top]
                out[-1] = np.vecdot(edge, edge)
                del images  # not kept beside the next block's
        else:
            m = len(basis)
            images = _images(rep, basis).reshape(4 * m, -1)
            coords = np.concatenate([_gram(basis, images), _gram(images, images)])
            coords = coords.reshape(5, m, 4, m)[left, :, right - 1]
            edge = basis[:, top]
            forms = np.concatenate([coords, _gram(edge, edge)[None]])
            _forms(segment.coeffs, forms, moments[:, k : k + segment.size])
            del images, coords, forms  # not kept beside the next segment's
        k += segment.size
    moments[:-1] *= (_IMAGE_PHASES.conj()[left] * _IMAGE_PHASES[right])[:, None]
    mean, weight = moments[:4].real, moments[-1].real
    gram = dict(zip(_GRAM, moments[4:-1]))
    values = c[0, 0, 0] + c[1:, 0, 0] @ mean
    drift = values - values[0]
    rel = float(np.max(np.abs(drift)) / (abs(values[0]) + 1.0))

    X, PX, Y, PY = range(4)

    def pair(a: int, b: int) -> UncertaintyResult:
        return robertson(mean[a], mean[b], gram[a, a].real, gram[b, b].real, gram[a, b])

    st, se = scales
    # <X psi|P psi> for X = x - st py, P = px + se y, with <w|z> = conj(<z|w>)
    bopp = robertson(
        mean[X] - st * mean[PY],
        mean[PX] + se * mean[Y],
        gram[X, X].real - 2.0 * st * gram[X, PY].real + st * st * gram[PY, PY].real,
        gram[PX, PX].real + 2.0 * se * gram[PX, Y].real + se * se * gram[Y, Y].real,
        gram[X, PX] + se * gram[X, Y] - st * gram[PX, PY].conj() - st * se * gram[Y, PY].conj(),
    )
    drift_series = DriftSeries(evolved.times, values, drift, rel)
    return Observables(drift_series, pair(X, PX), pair(Y, PY), bopp, float(weight.max()))

