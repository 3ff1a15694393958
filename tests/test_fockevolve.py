"""Truncated representation, unitary evolution, and the observables pass."""

import cmath
import math
import tracemalloc
from functools import partial
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ncdirac import fockevolve, invariant, lrsolve, ncmodel
from ncdirac.errors import DegreeError
from ncdirac.fockevolve import (
    BLOCK_ROWS,
    KRYLOV_MAX,
    EvolvedState,
    Moments,
    Segment,
    Spectrum,
    UncertaintyResult,
    build_fock_rep,
    coherent_state,
    evolve,
    measure,
    robertson,
    spectral_weights,
    track_level,
)
from ncdirac.mat2 import ID2, SIGMA1
from ncdirac.ncmodel import NCParams
from ncdirac.phasepoly import AffineOp, Coord, PhasePoly, commutator
from oracle import ehrenfest_drift, f_eta, f_theta, represent, resolved_expm1

COMMUTATIVE = NCParams()
README = NCParams(theta=0.1, eta=0.05, gamma=0.2)


def coordinate(c, rep):
    return represent(PhasePoly.monomial(ID2, c), rep)


def bopp_op(p, c, t):
    """The shifted coordinate c at time t, a PhasePoly from ``bopp_shift``."""
    return ncmodel.bopp_shift(p)[c].at(t)


class Observed(NamedTuple):
    """What ``cmd_evolve`` reads off the moments of a history."""

    values: np.ndarray  # <I>(t)
    drift: np.ndarray  # <I>(t) - <I>(0)
    relative_max: float  # max |drift| / (|<I>(0)| + 1)
    xp: UncertaintyResult  # (x, px)
    yp: UncertaintyResult  # (y, py)
    bopp: UncertaintyResult  # (x_nc, px_nc) of p
    edge: float


def observe(rep, ev, i_op=PhasePoly.constant(ID2), p=COMMUTATIVE):
    """``measure``, then as ``cmd_evolve`` goes on: <I> of the scalar
    degree-<=1 I from the coordinate means, and the Robertson data of unit
    rows and of the Bopp rows of p."""
    moments = measure(rep, ev)
    c = i_op.slots[:5, 0, 0]
    values = c[0] + c[1:] @ moments.mean
    drift = values - values[0]
    unit = np.eye(4)
    bopp = ncmodel.bopp_shift(p)
    x_nc, px_nc = (bopp[c].coordinate_rows(ev.times) for c in (Coord.X, Coord.PX))
    return Observed(
        values,
        drift,
        float(np.max(np.abs(drift)) / (abs(values[0]) + 1.0)),
        robertson(moments, unit[Coord.X], unit[Coord.PX]),
        robertson(moments, unit[Coord.Y], unit[Coord.PY]),
        robertson(moments, x_nc, px_nc),
        moments.edge,
    )


#: the spectra of a history built by hand, which ``measure`` does not read
NO_SPECTRA = (Spectrum(np.empty(0), np.empty(0), np.empty(0)),) * 2


def history(rep, times, basis, coeffs=None):
    """An evolution history of one segment, given in the standard basis and
    held, as evolve holds it, in the rotated one: stored rows when coeffs is
    None, else coefficients on the rows of basis."""
    segment = Segment(rep.frame.conj() * np.asarray(basis), coeffs)
    return EvolvedState(np.asarray(times, dtype=float), (segment,), NO_SPECTRA, rep.frame)


def dense(poly, rep):
    """v -> P v by the dense matrix of a degree-<=1 polynomial P."""
    return partial(np.matmul, represent(poly, rep))


def frame_phases(n):
    """The full-space phases R of the rotated basis, psi = R phi: i^n_y on
    oscillator level n_y of mode y and diag(1, i) on the spinor."""
    return np.tile(np.kron(1j ** np.arange(n), [1.0, 1j]), n)


def rotated(poly, rep):
    """The dense matrix of P in the rotated basis, R^dag P R."""
    frame = frame_phases(rep.N)
    return frame.conj()[:, None] * represent(poly, rep) * frame


def apply(poly, rep):
    """v -> P v in the rotated basis by the per-mode blocks evolve applies."""
    return fockevolve._block_action(fockevolve._mode_blocks([poly], rep)[0], rep)


def track(p, ev):
    """The level ``track_level`` picks for p on the evolution ev."""
    return track_level(p.m, ncmodel.landau_gap(p, ev.times), ev)


def test_build_rep_validation():
    with pytest.raises(ValueError, match="per-mode truncation must satisfy N >= 2"):
        build_fock_rep(1, 1.0)
    with pytest.raises(ValueError, match="oscillator scale ell must be positive"):
        build_fock_rep(4, 0.0)
    assert build_fock_rep(5, 1.0).dim == 2 * 5 * 5


def test_tracked_energy_feeds_phase_integral():
    # the tracked level plugs straight into the phase formula
    rep = build_fock_rep(6, 1.0)
    h = ncmodel.build_h_nc(COMMUTATIVE)
    psi0 = coherent_state(rep)
    times = np.linspace(0.0, 1.0, 101)
    ev = evolve(h, rep, psi0, times)
    energy = track(COMMUTATIVE, ev).energy
    theta = lrsolve.theta_phase(COMMUTATIVE, 0.5, -0.5, 1.0)
    alpha = lrsolve.lr_phase(theta, ev.times, energy, 1.0)
    # the spin-up vacuum sits on the n = 0 level E = m, constant in time
    assert np.all(energy == COMMUTATIVE.m)
    assert alpha == pytest.approx(theta - COMMUTATIVE.m * 1.0, abs=1e-10)


def test_coordinate_matrices_hermitian():
    rep = build_fock_rep(5, 0.7, 1.3)
    for c in Coord:
        m = coordinate(c, rep)
        assert np.max(np.abs(m - m.conj().T)) <= 1e-15


def test_vacuum_moments():
    rep = build_fock_rep(6, 0.7)
    vac = coherent_state(rep)
    x_mat = coordinate(Coord.X, rep)
    assert abs(np.vdot(vac, x_mat @ vac)) <= 1e-15
    # <0|x^2|0> = ell^2 / 2, ladder-algebra oracle
    assert np.vdot(vac, x_mat @ x_mat @ vac).real == pytest.approx(0.7**2 / 2.0, abs=1e-14)
    # diagonal of px vanishes in the number basis
    px_mat = coordinate(Coord.PX, rep)
    assert np.max(np.abs(np.diag(px_mat))) == 0.0


def test_canonical_defect_confined_to_top_level():
    n = 5
    rep = build_fock_rep(n, 1.0, 1.0)
    x_mat = coordinate(Coord.X, rep)
    px_mat = coordinate(Coord.PX, rep)
    defect = x_mat @ px_mat - px_mat @ x_mat - 1j * np.eye(rep.dim)
    # nonzero rows/cols only where n_x = N-1
    nx = np.repeat(np.arange(n), 2 * n)
    bad = np.argwhere(np.abs(defect) > 1e-13)
    assert bad.size > 0
    for i, j in bad:
        assert nx[i] == n - 1 and nx[j] == n - 1


def test_represent_tensor_structure():
    rep = build_fock_rep(4, 1.0)
    # mode x is not rotated, and x carries phase 1 there: coords[0] is x
    got = represent(PhasePoly.monomial(ID2, Coord.X), rep)
    assert np.array_equal(got, np.kron(np.kron(rep.coords[0], np.eye(rep.N)), ID2))
    const = represent(PhasePoly.constant(2.5 * ID2), rep)
    assert np.array_equal(const, 2.5 * np.eye(rep.dim))


def test_represent_hermitian_invariant():
    rep = build_fock_rep(6, 1.0)
    ans = invariant.constant_invariant(1.0, 0.3, -0.2, 0.7, 0.1)
    m = represent(ans.at(0.0), rep)
    assert np.max(np.abs(m - m.conj().T)) <= 1e-13


def test_represent_is_homomorphism_on_interior():
    rep = build_fock_rep(6, 1.0)
    p = PhasePoly.monomial(ID2, Coord.X)
    q = PhasePoly.monomial(ID2, Coord.PX)
    comm = commutator(AffineOp.time_constant(p), AffineOp.time_constant(q), 1.0)
    poly_comm = represent(comm.at(0.0), rep)
    mat_comm = represent(p, rep) @ represent(q, rep) - represent(q, rep) @ represent(p, rep)
    pi = interior_projector(rep)
    assert np.max(np.abs(pi @ (poly_comm - mat_comm) @ pi)) <= 1e-13


def interior_projector(rep):
    """Projector onto states with n_x < N-1 and n_y < N-1 (both modes below
    the truncation edge), spinor untouched."""
    keep = np.ones(rep.N)
    keep[-1] = 0.0
    return np.diag(np.kron(np.kron(keep, keep), np.ones(2)).astype(complex))


def random_linear_poly(rng):
    """A degree-1 polynomial with random non-Hermitian 2x2 slots."""
    slots = np.zeros((15, 2, 2), dtype=complex)
    slots[:5] = rng.normal(size=(5, 2, 2)) + 1j * rng.normal(size=(5, 2, 2))
    return PhasePoly(slots)


@pytest.mark.parametrize("rows", [None, 7], ids=["one-state", "block"])
@pytest.mark.parametrize("n", [2, 5])
def test_apply_matches_dense_oracle(n, rows):
    # in the rotated basis: the dense matrix of P between the phases R
    rng = np.random.default_rng(11 * n)
    rep = build_fock_rep(n, 0.8, 1.3)
    shape = (rep.dim,) if rows is None else (rows, rep.dim)
    states = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    for _ in range(3):
        poly = random_linear_poly(rng)
        want = states @ rotated(poly, rep).T
        got = apply(poly, rep)(states)
        assert got.shape == shape
        assert np.max(np.abs(got - want)) <= 1e-13


def test_apply_rejects_quadratic_slot_and_wrong_size():
    # the degree is checked when the blocks are built, the size on every call
    rep = build_fock_rep(3, 1.0)
    quadratic = PhasePoly.monomial(ID2, Coord.X, Coord.PX)
    with pytest.raises(DegreeError):
        apply(quadratic, rep)
    with pytest.raises(DegreeError):
        represent(quadratic, rep)
    g = apply(PhasePoly.monomial(ID2, Coord.X), rep)
    with pytest.raises(ValueError, match="state size 20 does not match dim 18"):
        g(np.ones(rep.dim + 2))
    with pytest.raises(ValueError, match="state size 16 does not match dim 18"):
        g(np.ones((4, rep.dim - 2)))


def test_evolve_stationary_state():
    rep = build_fock_rep(6, 1.0)
    h = ncmodel.build_h_nc(COMMUTATIVE)
    g = represent(h.at(0.0), rep)
    w, v = np.linalg.eigh(g)
    psi0 = v[:, 3]
    times = np.linspace(0.0, 1.0, 201)
    ev = evolve(h, rep, psi0, times)
    overlaps = np.abs(ev.states @ psi0.conj())
    assert np.max(np.abs(overlaps - 1.0)) <= 1e-10


def test_evolve_zero_momentum_rest_phase():
    # B -> 0 with a huge oscillator scale emulates a zero-momentum spinor:
    # the up component should rotate as e^{-i m t}
    p = NCParams(B=1.0)
    h_free = AffineOp.time_constant(
        PhasePoly.monomial(np.array([[0, 1], [1, 0]], complex), Coord.PX)
        + PhasePoly.monomial(np.array([[0, -1j], [1j, 0]], complex), Coord.PY)
        + PhasePoly.constant(np.array([[1, 0], [0, -1]], complex) * p.m)
    )
    rep = build_fock_rep(4, 1e4)
    psi0 = coherent_state(rep)
    times = np.linspace(0.0, 1.0, 101)
    ev = evolve(h_free, rep, psi0, times)
    for k, t in enumerate(times):
        amp = np.vdot(psi0, ev.states[k])
        assert abs(amp - cmath.exp(-1j * p.m * t)) <= 1e-8


def count_calls(monkeypatch, rep):
    """Record the full-size eigh and eigvalsh calls, the number of samples
    each Lanczos space is asked for (``_krylov_run``) and the Lanczos
    recurrences started. A run of one generator asks its first space for all
    its samples, and each later space for those left."""
    full_eigh, runs, spaces = [], [], []
    eigh, eigvalsh = np.linalg.eigh, np.linalg.eigvalsh
    krylov_run, lanczos = fockevolve._krylov_run, fockevolve._lanczos

    def counting(decompose):
        def wrapped(m):
            if m.shape == (rep.dim, rep.dim):
                full_eigh.append(decompose.__name__)
            return decompose(m)

        return wrapped

    def counting_run(recurrence, beta0, tau, n, size):
        runs.append(n)
        return krylov_run(recurrence, beta0, tau, n, size)

    def counting_lanczos(g, psi):
        spaces.append(psi.size)
        return lanczos(g, psi)

    monkeypatch.setattr(np.linalg, "eigh", counting(eigh))
    monkeypatch.setattr(np.linalg, "eigvalsh", counting(eigvalsh))
    monkeypatch.setattr(fockevolve, "_krylov_run", counting_run)
    monkeypatch.setattr(fockevolve, "_lanczos", counting_lanczos)
    return full_eigh, runs, spaces


def counting_value(h, sizes):
    """h whose coefficient profile records the number of times of each call."""

    def value(ts):
        sizes.append(len(ts))
        return h.value(ts)

    return AffineOp(h.polys, value, h.derivative)


@pytest.mark.parametrize("negative_t0", [True, False])
@pytest.mark.parametrize(
    "h",
    [ncmodel.build_h_commutative(COMMUTATIVE), ncmodel.build_h_nc(NCParams(theta=0.1, eta=0.05))],
    ids=["commutative", "stationary"],
)
def test_time_constant_generator_takes_one_lanczos_run(monkeypatch, h, negative_t0):
    # one run of the generator over the whole grid, wherever it starts, served
    # by a single Lanczos space; nothing of generator size is decomposed. H's
    # coefficients are evaluated once at the 50 midpoints and once at both ends
    rep = build_fock_rep(6, 1.0)
    full_eigh, runs, spaces = count_calls(monkeypatch, rep)
    t0 = -0.25 if negative_t0 else 0.0
    values = []
    evolve(counting_value(h, values), rep, coherent_state(rep), np.linspace(t0, t0 + 0.5, 51))
    assert values == [50, 2]
    assert full_eigh == []
    assert runs == [50]
    assert len(spaces) == 1


def test_changing_generator_takes_one_krylov_step_per_step(monkeypatch):
    # H is applied matrix-free in the steps and in the end spectra: no
    # decomposition of generator size in the whole run. evolve evaluates H's
    # coefficients once at the 50 midpoints, then once at both ends, and the
    # level tracker evaluates none
    p = NCParams(theta=0.1, eta=0.05, gamma=0.2)
    rep = build_fock_rep(6, 1.0)
    full_eigh, runs, _ = count_calls(monkeypatch, rep)
    values = []
    h = counting_value(ncmodel.build_h_nc(p), values)
    ev = evolve(h, rep, coherent_state(rep), np.linspace(0.0, 0.5, 51))
    assert values == [50, 2]
    track(p, ev)
    assert values == [50, 2]
    assert full_eigh == []
    assert runs == [1] * 50
    # one stored row per step, joined into segments of BLOCK_ROWS rows
    assert all(seg.coeffs is None for seg in ev.segments)
    assert [seg.size for seg in ev.segments] == [51]
    long = evolve(h, rep, coherent_state(rep), np.linspace(0.0, 1.5, 151))
    assert [seg.size for seg in long.segments] == [BLOCK_ROWS, BLOCK_ROWS, 23]


def test_constant_generator_matches_exact_propagator_across_restarts(monkeypatch):
    # every sample against V exp(-i w (t_k - t0)) V^dag psi0; the grid is long
    # enough that one space of KRYLOV_MAX vectors does not cover it
    p = NCParams(theta=0.1, eta=0.05)
    rep = build_fock_rep(8, ncmodel.magnetic_length(p))
    h = ncmodel.build_h_nc(p)
    psi = coherent_state(rep, alpha_x=1.0)
    times = np.linspace(-1.0, 9.0, 1001)
    _, runs, spaces = count_calls(monkeypatch, rep)
    ev = evolve(h, rep, psi, times)
    w, v = np.linalg.eigh(represent(h.at(0.0), rep))
    exact = (np.exp(-1j * np.outer(times - times[0], w)) * (v.conj().T @ psi)) @ v.T
    assert runs[0] == 1000 and all(a > b for a, b in zip(runs, runs[1:]))
    assert len(spaces) == len(runs) >= 2
    assert np.max(np.abs(ev.states - exact)) <= 1e-13


def rotate_after(polys, rep):
    """The per-mode blocks of polys built in the standard basis from the
    complex single-mode x and p, then rotated by the phases of each block:
    diag(1, i) on the spinor of both, i^n on level n of mode y."""
    n = rep.N
    a = np.diag(np.sqrt(np.arange(1.0, n)), 1).astype(complex)
    x = rep.ell * (a + a.T) / math.sqrt(2.0)
    p = 1j * rep.hbar * (a.T - a) / (math.sqrt(2.0) * rep.ell)
    slots = [[1 + Coord.X, 1 + Coord.PX, 5], [1 + Coord.Y, 1 + Coord.PY, 0]]
    coeffs = np.stack([poly.slots for poly in polys])[:, slots]
    blocks = np.tensordot(coeffs, np.stack([x, p, np.eye(n)]), (2, 0))
    blocks = blocks.transpose(0, 1, 4, 2, 5, 3).reshape(len(polys), 2, 2 * n, 2 * n)
    spin = np.array([1.0, 1j])
    r = np.stack([np.tile(spin, n), np.kron(1j ** np.arange(n), spin)])
    return r.conj()[:, :, None] * blocks * r[:, None, :]


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(
    st.builds(
        NCParams,
        theta=st.floats(-1.0, 1.0),
        eta=st.floats(-1.0, 1.0),
        gamma=st.floats(-1.0, 1.0),
        B=st.floats(-2.0, 2.0),
        e=st.floats(-2.0, 2.0),
        m=st.floats(0.1, 2.0),
    ),
    st.floats(-2.0, 2.0),
    st.integers(2, 9),
)
def test_hamiltonians_are_real_in_the_rotated_basis(p, t, n):
    # the rotation multiplies by +-1 and +-i only: the fixed parts and H(t)
    # of both Hamiltonians have an imaginary part of exactly 0.0 there, and
    # their blocks, built in the rotated basis, are those of the standard
    # basis rotated afterwards, entry for entry
    rep = build_fock_rep(n, 0.7, 1.3)
    assert np.array_equal(rep.frame, frame_phases(n))
    for h in (ncmodel.build_h_nc(p), ncmodel.build_h_commutative(p)):
        for polys in (h.polys, [h.at(t)]):
            blocks = fockevolve._mode_blocks(polys, rep)
            assert np.all(blocks.imag == 0.0)
            assert np.array_equal(blocks, rotate_after(polys, rep))


@pytest.mark.parametrize(
    "build", [ncmodel.build_h_nc, ncmodel.build_h_commutative], ids=["deformed", "commutative"]
)
@pytest.mark.parametrize("n", [2, 3, 5])
def test_mode_blocks_act_as_the_rotated_dense_oracle(build, n):
    # the dense matrix of the block action, column j the image of e_j, is the
    # oracle's matrix of H(t) between the frame's phases, entry for entry
    rep = build_fock_rep(n, 0.8, 1.3)
    poly = build(README).at(0.37)
    got = apply(poly, rep)(np.eye(rep.dim, dtype=complex)).T
    assert np.array_equal(got, rotated(poly, rep))


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(st.integers(2, 12), st.integers(0, 2**32 - 1), st.floats(-3.0, 3.0))
def test_states_rotate_out_and_back_exactly(n, seed, alpha):
    # a random complex state rotated in and back out is the same bits, and
    # the displaced probe of cmd_evolve (real alpha_x, vacuum y, spin up) is
    # real in the rotated basis
    rep = build_fock_rep(n, 1.0)
    phase = rep.frame
    rng = np.random.default_rng(seed)
    psi = rng.normal(size=rep.dim) + 1j * rng.normal(size=rep.dim)
    assert (phase * (phase.conj() * psi)).tobytes() == psi.tobytes()
    assert (phase.conj() * (phase * psi)).tobytes() == psi.tobytes()
    assert np.all((phase.conj() * coherent_state(rep, alpha_x=alpha)).imag == 0.0)


def test_evolve_refuses_a_generator_that_is_not_real_in_the_rotated_basis():
    # sigma_1 x: sigma_1 turns imaginary and x stays real, so the rotated
    # block keeps the entries of x, up to sqrt(5/2) at fock_N=6
    rep = build_fock_rep(6, 1.0)
    h = AffineOp.time_constant(PhasePoly.monomial(SIGMA1, Coord.X))
    assert np.max(np.abs(fockevolve._mode_blocks(h.polys, rep).imag)) == pytest.approx(math.sqrt(2.5))
    with pytest.raises(ValueError, match="not real in the rotated Fock basis.* reaches 1.58"):
        evolve(h, rep, coherent_state(rep), np.linspace(0.0, 1.0, 3))


def record_lanczos(monkeypatch):
    """Record the dtype and size of the start vector of each Lanczos recurrence."""
    starts = []
    lanczos = fockevolve._lanczos

    def recording(g, psi):
        starts.append((psi.dtype, psi.size))
        return lanczos(g, psi)

    monkeypatch.setattr(fockevolve, "_lanczos", recording)
    return starts


def test_recurrences_from_real_states_run_in_float64(monkeypatch):
    # the displaced probe is real in the rotated basis: a changing generator's
    # first step and t0 spectrum run in float64, its t1 spectrum on the two
    # real planes of the complex psi(t1), and its other steps in complex
    real, cplx = np.dtype(float), np.dtype(complex)
    starts = record_lanczos(monkeypatch)

    def run(p):
        rep = build_fock_rep(8, ncmodel.magnetic_length(p))
        probe = coherent_state(rep, alpha_x=1.0)
        evolve(ncmodel.build_h_nc(p), rep, probe, np.linspace(0.0, 0.5, 51))
        return rep.dim

    dim = run(README)
    assert starts == [(real, dim)] + [(cplx, dim)] * 49 + [(real, dim), (real, 2 * dim)]
    # a constant generator: one float64 recurrence serves propagation and spectra
    starts.clear()
    dim = run(COMMUTATIVE)
    assert starts == [(real, dim)]


@pytest.mark.parametrize("n", [3, 4])
def test_a_spectrum_on_real_planes_spans_no_more_than_the_state_space(n):
    # below KRYLOV_MAX dimensions the complex recurrence of psi(t1) ends once
    # it spans the state space; the recurrence of its real planes (Re, Im),
    # twice as long, ends there too and not on rounding noise past it
    rep = build_fock_rep(n, ncmodel.magnetic_length(README))
    h = ncmodel.build_h_nc(README)
    ev = evolve(h, rep, coherent_state(rep, alpha_x=1.0), np.linspace(0.0, 0.5, 51))
    want = spectral_weights(dense(h.at(0.5), rep), ev.states[-1])
    assert len(ev.spectra[1].ritz) == len(want.ritz) == rep.dim
    assert np.max(np.abs(ev.spectra[1].ritz - want.ritz)) <= 1e-12
    assert np.max(np.abs(ev.spectra[1].weight - want.weight)) <= 1e-12


def switching(h, before, after, inside):
    """h's parts with the coefficients ``after`` at the times where the array
    ``inside(ts)`` is true, else ``before``."""
    return AffineOp(
        h.polys,
        value=lambda ts: np.where(inside(ts)[:, None], after, before),
        derivative=lambda ts: np.zeros((len(ts), len(before))),
    )


def test_piecewise_constant_generator_restarts_at_the_switch(monkeypatch):
    # the coefficients jump at t = 1, a grid point: each side is one run, and
    # the second starts from the state the first reaches there
    rep = build_fock_rep(6, 1.0)
    h_nc = ncmodel.build_h_nc(NCParams(theta=0.1, eta=0.05))
    before = h_nc.value(np.zeros(1))[0]
    after = 1.5 * before
    h = switching(h_nc, before, after, lambda t: t >= 1.0)
    psi = coherent_state(rep, alpha_x=0.5, spinor=(1.0, 0.5j))
    times = np.linspace(0.0, 2.0, 41)
    _, runs, _ = count_calls(monkeypatch, rep)
    ev = evolve(h, rep, psi, times)
    g1, g2 = (represent(PhasePoly(h_nc.stack(c[None])[0]), rep) for c in (before, after))
    switch = dense_exponential(g1, psi, 1.0)
    want = [dense_exponential(g1, psi, t) for t in times[:21]]
    want += [dense_exponential(g2, switch, t - 1.0) for t in times[21:]]
    assert runs == [20, 20]
    assert np.max(np.abs(ev.states - np.array(want))) <= 1e-12


def dense_exponential(g, psi, dt):
    w, v = np.linalg.eigh(g)
    return v @ (np.exp(-1j * w * dt) * (v.conj().T @ psi))


def td_generator():
    p = NCParams(theta=0.1, eta=0.05, gamma=0.2)
    rep = build_fock_rep(8, ncmodel.magnetic_length(p))
    return represent(ncmodel.build_h_nc(p).at(0.37), rep), coherent_state(rep, alpha_x=1.0)


def random_hermitian():
    rng = np.random.default_rng(7)
    a = rng.normal(size=(120, 120)) + 1j * rng.normal(size=(120, 120))
    psi = rng.normal(size=120) + 1j * rng.normal(size=120)
    return a + a.conj().T, psi / np.linalg.norm(psi)


@pytest.mark.parametrize(
    "case, norm_dt",
    [(td_generator, 1e-2), (random_hermitian, 100.0)],
)
def test_krylov_step_matches_dense_exponential(case, norm_dt):
    # the second case needs far more than KRYLOV_MAX vectors in one step,
    # so it exercises the sub-stepping
    g, psi = case()
    dt = norm_dt / np.linalg.norm(g, 2)
    apply_g = partial(np.matmul, g)
    run = fockevolve._krylov_run(fockevolve._lanczos(apply_g, psi), np.linalg.norm(psi), dt, 1, 0)
    assert (run.size == 0) == (case is random_hermitian)
    got = run.row(0) if run.size else fockevolve._substep(apply_g, psi, dt, math.inf)[0]
    assert np.max(np.abs(got - dense_exponential(g, psi, dt))) <= 1e-12
    assert abs(np.linalg.norm(got) - 1.0) <= 1e-13


def test_spectral_weights_match_dense_decomposition():
    # fewer dimensions than KRYLOV_MAX: the Lanczos space exhausts the
    # generator, so Ritz pairs are eigenpairs and the weights are exact
    rng = np.random.default_rng(5)
    a = rng.normal(size=(24, 24)) + 1j * rng.normal(size=(24, 24))
    g = a + a.conj().T
    psi = rng.normal(size=24) + 1j * rng.normal(size=24)
    psi /= np.linalg.norm(psi)
    spectrum = spectral_weights(partial(np.matmul, g), psi)
    w, v = np.linalg.eigh(g)
    assert np.max(np.abs(spectrum.ritz - w)) <= 1e-12
    assert np.max(np.abs(spectrum.weight - np.abs(v.conj().T @ psi) ** 2)) <= 1e-12
    assert np.max(spectrum.residual) <= 1e-12


def test_spectral_weights_residual_bounds_distance_to_spectrum():
    # a truncated generator larger than the Krylov space: every Ritz value
    # lies within its residual of an eigenvalue, and the weights sum to 1
    g, psi = td_generator()
    spectrum = spectral_weights(partial(np.matmul, g), psi)
    w = np.linalg.eigvalsh(g)
    assert len(spectrum.ritz) == fockevolve.KRYLOV_MAX
    assert abs(spectrum.weight.sum() - 1.0) <= 1e-13
    for ritz, residual in zip(spectrum.ritz, spectrum.residual):
        assert np.min(np.abs(w - ritz)) <= residual + 1e-12


def count_spectral_runs(monkeypatch):
    """Record the state size of each spectral_weights call."""
    runs = []
    spectral = fockevolve.spectral_weights

    def counting(g, psi):
        runs.append(psi.size)
        return spectral(g, psi)

    monkeypatch.setattr(fockevolve, "spectral_weights", counting)
    return runs


STATIONARY = NCParams(theta=0.1, eta=0.05)
H_STATIONARY = ncmodel.build_h_nc(STATIONARY)
START = H_STATIONARY.value(np.zeros(1))[0]
SCALED = 1.5 * START


ONE_GENERATOR = pytest.mark.parametrize(
    "p, h, t0",
    [
        (COMMUTATIVE, ncmodel.build_h_nc(COMMUTATIVE), 0.0),
        (STATIONARY, H_STATIONARY, 0.0),
        (STATIONARY, H_STATIONARY, -0.25),
    ],
    ids=["commutative", "stationary", "negative-t0"],
)


@ONE_GENERATOR
def test_track_level_reuses_the_t0_spectrum_for_a_constant_generator(monkeypatch, p, h, t0):
    # psi(t1) = exp(-i H (t1 - t0)) psi(t0) has psi(t0)'s spectral measure
    # under the one H: the Lanczos run evolve shares with the propagation
    # gives both ends' spectra, and evolve runs no spectral_weights
    rep = build_fock_rep(8, ncmodel.magnetic_length(p))
    runs = count_spectral_runs(monkeypatch)
    ev = evolve(h, rep, coherent_state(rep, alpha_x=1.0), np.linspace(t0, t0 + 0.5, 51))
    assert runs == []
    assert ev.spectra[0] is ev.spectra[1]
    level = track(p, ev)
    assert level.error[0] == level.error[1] and level.residual[0] == level.residual[1]
    # a second run from psi(t1) gives the same spectrum up to rounding
    again = spectral_weights(dense(h.at(t0 + 0.5), rep), ev.states[50])
    first = spectral_weights(dense(h.at(t0), rep), ev.states[0])
    assert np.max(np.abs(again.ritz - first.ritz)) <= 1e-11
    assert np.max(np.abs(again.weight - first.weight)) <= 1e-12


@ONE_GENERATOR
def test_one_generator_evolve_and_level_pick_share_one_lanczos_recurrence(monkeypatch, p, h, t0):
    # the propagation replays the head of the spectral run: one recurrence,
    # of at most KRYLOV_MAX applications of H, serves evolve and track_level
    rep = build_fock_rep(8, ncmodel.magnetic_length(p))
    psi0 = coherent_state(rep, alpha_x=1.0)
    _, runs, spaces = count_calls(monkeypatch, rep)
    ev = evolve(h, rep, psi0, np.linspace(t0, t0 + 0.5, 51))
    track(p, ev)
    assert runs == [50] and len(spaces) == 1
    # and that run is the independent t0 spectral run, up to the rounding of
    # building H(t0) by another summation order
    monkeypatch.undo()
    want = spectral_weights(dense(h.at(t0), rep), psi0)
    assert len(ev.spectra[0].ritz) == len(want.ritz) == KRYLOV_MAX
    assert np.max(np.abs(ev.spectra[0].ritz - want.ritz)) <= 1e-12
    assert np.max(np.abs(ev.spectra[0].weight - want.weight)) <= 1e-12


@pytest.mark.parametrize("n", [1, 20, 400])
def test_a_replayed_krylov_run_equals_a_fresh_one(n):
    # _lanczos writes no yielded row or block afterwards, so a recurrence
    # recorded to its end replays bit for bit: the same space and the same
    # coefficients, whether the run stops early (n = 1, 20) or takes every
    # vector (n = 400 is more than one space resolves)
    g, psi = td_generator()
    g = partial(np.matmul, g)
    recorded = list(fockevolve._lanczos(g, psi))
    assert len(recorded) == KRYLOV_MAX
    beta0 = np.linalg.norm(psi)
    fresh = fockevolve._krylov_run(fockevolve._lanczos(g, psi), beta0, 0.05, n, 0)
    replayed = fockevolve._krylov_run(recorded, beta0, 0.05, n, 0)
    assert np.array_equal(fresh.basis, replayed.basis)
    assert np.array_equal(fresh.coeffs, replayed.coeffs)
    assert 0 < len(fresh.basis) <= KRYLOV_MAX and 0 < fresh.size <= n


@pytest.mark.parametrize("n", [8, 12])
def test_ritz_error_measures_the_lanczos_space_not_the_truncation(n):
    # on the README deformation the truncated H(t0) itself has an eigenvalue
    # far closer to the tracked level E_0 than the Ritz value of a 40-vector
    # Lanczos space is: the t0 Ritz error is the space's resolution of the
    # level's cluster (at fock_N=16: 1.4e-6 against 7.7e-13 dense)
    h = ncmodel.build_h_nc(README)
    rep = build_fock_rep(n, ncmodel.magnetic_length(README))
    ev = evolve(h, rep, coherent_state(rep, alpha_x=1.0), np.linspace(0.0, 0.01, 2))
    level = track(README, ev)
    dense = np.min(np.abs(np.linalg.eigvalsh(represent(h.at(0.0), rep)) - level.energy[0]))
    assert (level.n, level.sign) == (0, 1)
    assert dense <= 0.1 * level.error[0]


@pytest.mark.parametrize(
    "p, h",
    [
        (README, ncmodel.build_h_nc(README)),
        (STATIONARY, switching(H_STATIONARY, START, SCALED, lambda t: (0.2 < t) & (t < 0.4))),
        (STATIONARY, switching(H_STATIONARY, START, SCALED, lambda t: t >= 0.5)),
    ],
    ids=["readme", "ends-agree-midpoints-change", "one-run-other-end"],
)
def test_track_level_runs_at_both_ends_unless_one_generator_holds_throughout(monkeypatch, p, h):
    # a changing generator, three runs whose ends agree, and one run whose
    # last grid point has other coefficients: evolve runs spectral_weights
    # at psi(t0) and at psi(t1), and track_level runs none
    rep = build_fock_rep(8, ncmodel.magnetic_length(p))
    runs = count_spectral_runs(monkeypatch)
    ev = evolve(h, rep, coherent_state(rep, alpha_x=1.0), np.linspace(0.0, 0.5, 51))
    assert len(runs) == 2
    track(p, ev)
    assert len(runs) == 2
    # each entry is the independent spectral run of H(t) on the state at t
    monkeypatch.undo()
    for spectrum, k in zip(ev.spectra, (0, 50)):
        want = spectral_weights(dense(h.at(ev.times[k]), rep), ev.states[k])
        assert len(spectrum.ritz) == len(want.ritz)
        assert np.max(np.abs(spectrum.ritz - want.ritz)) <= 1e-12
        assert np.max(np.abs(spectrum.weight - want.weight)) <= 1e-12


def test_changing_steps_check_from_the_previous_lanczos_size(monkeypatch):
    # the first step checks every vector; each later step starts checking one
    # vector below the previous step's size (6 of 6 or 7 here), and every
    # sample still matches the dense midpoint propagator
    rep = build_fock_rep(8, ncmodel.magnetic_length(README))
    h = ncmodel.build_h_nc(README)
    psi = coherent_state(rep, alpha_x=1.0)
    times = np.linspace(0.0, 0.5, 51)
    sizes = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda m: sizes.append(len(m)) or eigh(m))
    ev = evolve(h, rep, psi, times)
    monkeypatch.undo()
    # then the spectral runs at the two ends, each of KRYLOV_MAX vectors
    assert sizes == [1, 2, 3, 4, 5, 6, 7] + [6, 7] * 49 + [KRYLOV_MAX] * 2
    dt = times[1] - times[0]
    want = [psi]
    for t in times[:-1]:
        want.append(dense_exponential(represent(h.at(t + 0.5 * dt), rep), want[-1], dt))
    assert np.max(np.abs(ev.states - np.array(want))) <= 1e-12


def test_sub_steps_check_from_the_previous_sub_step_size(monkeypatch):
    # gamma = 50 puts one step of 0.5 out of reach of 40 vectors: it fails
    # at 0.5 and, halving from 0.25 (0.5 is not tried again), at 0.25 to
    # 0.0625, each checking all 40 vectors; the first of 16 sub-steps of 1/32
    # checks every vector up to its 38, each later one only 37 and 38; the
    # spectral runs at the two ends take KRYLOV_MAX vectors each. The
    # sample still matches the dense propagator
    p = NCParams(theta=0.1, eta=0.05, gamma=50.0)
    rep = build_fock_rep(5, ncmodel.magnetic_length(p))
    h = ncmodel.build_h_nc(p)
    psi = coherent_state(rep, alpha_x=1.0)
    sizes = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda m: sizes.append(len(m)) or eigh(m))
    ev = evolve(h, rep, psi, [0.0, 0.5])
    monkeypatch.undo()
    full = list(range(1, KRYLOV_MAX + 1))
    assert sizes == full * 4 + full[:38] + [37, 38] * 15 + [KRYLOV_MAX] * 2
    want = dense_exponential(represent(h.at(0.25), rep), psi, 0.5)
    assert np.max(np.abs(ev.states[1] - want)) <= 1e-10


def eigenstate():
    g = np.diag(np.arange(1.0, 9.0)).astype(complex)
    return g, np.eye(8, dtype=complex)[3]


def fock_2():
    # dimension 8 < KRYLOV_MAX; H has four doubly degenerate levels, so the
    # Krylov space of a generic state is invariant after four vectors
    rep = build_fock_rep(2, ncmodel.magnetic_length(README))
    psi = np.array([1.0, 1j]) @ np.random.default_rng(3).normal(size=(2, rep.dim))
    return represent(ncmodel.build_h_nc(README).at(0.3), rep), psi / np.linalg.norm(psi)


def random_8():
    rng = np.random.default_rng(11)
    a = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    psi = rng.normal(size=8) + 1j * rng.normal(size=8)
    return a + a.conj().T, psi / np.linalg.norm(psi)


@pytest.mark.parametrize(
    "case, vectors", [(eigenstate, 1), (fock_2, 4), (random_8, 8), (td_generator, KRYLOV_MAX)]
)
def test_lanczos_says_which_vector_is_last(case, vectors):
    g, psi = case()
    last = [flag for *_, flag in fockevolve._lanczos(partial(np.matmul, g), psi)]
    assert last == [False] * (vectors - 1) + [True]


def test_an_invariant_space_ends_alike_in_every_arithmetic():
    # the t1 state of the gamma = 50 one-step run at fock_N=6 spans a space
    # of 24 vectors invariant under H(t1). Its residual there is rounding,
    # 1.0, 1.2 and 1.0 x 1e-14 of |G v_j| in complex arithmetic in the
    # standard basis (dense H), complex in the rotated one and on the real planes;
    # the smallest ratio before it is 5.9e-9, at vector 12. All three end at
    # vector 24
    p = NCParams(theta=0.1, eta=0.05, gamma=50.0)
    rep = build_fock_rep(6, ncmodel.magnetic_length(p))
    h = ncmodel.build_h_nc(p)
    ev = evolve(h, rep, coherent_state(rep, alpha_x=1.0), np.array([0.0, 0.5]))
    psi = ev.states[-1]
    phi = rep.frame.conj() * psi
    rotated = fockevolve._block_action(fockevolve._mode_blocks([h.at(0.5)], rep)[0].real.copy(), rep)
    runs = [(dense(h.at(0.5), rep), psi), (rotated, phi), (rotated, np.stack([phi.real, phi.imag]))]
    for g, start in runs:
        assert [last for *_, last in fockevolve._lanczos(g, start)] == [False] * 23 + [True]
    assert len(ev.spectra[1].ritz) == 24


def test_real_krylov_estimate_gives_the_complex_forms_verdicts():
    # 3000 random tridiagonals of 1 to KRYLOV_MAX rows, some Ritz values
    # exactly 0, beta from 1e-20 to 10 and tau from 1e-5 to 1: the real
    # sin/cos form of phi1 resolves as many samples as the expm1 form
    rng = np.random.default_rng(25)
    outcomes = set()
    for _ in range(3000):
        m = int(rng.integers(1, KRYLOV_MAX + 1))
        off = rng.random(m - 1)
        lam, s = np.linalg.eigh(np.diag(rng.standard_normal(m)) + np.diag(off, 1) + np.diag(off, -1))
        lam[rng.random(m) < 0.2] = 0.0
        beta, tau = 10.0 ** rng.uniform(-20, 1), 10.0 ** rng.uniform(-5, 0)
        lo = int(rng.integers(0, 100))
        hi = lo + int(rng.integers(1, 200))
        got = fockevolve._resolved(tau, lo, hi, lam, s, beta)
        assert got == resolved_expm1(tau, lo, hi, lam, s, beta, fockevolve.KRYLOV_TOL, BLOCK_ROWS)
        outcomes.add("none" if got == 0 else "all" if got == hi - lo else "some")
    assert outcomes == {"none", "some", "all"}


@pytest.mark.parametrize("case", [eigenstate, fock_2, random_8])
def test_a_run_that_ends_early_checks_its_last_vector(monkeypatch, case):
    # a previous size above any space this recurrence reaches: every check but
    # the one on the last vector is skipped, and all samples are resolved
    g, psi = case()
    dt = 0.05
    sizes = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda m: sizes.append(len(m)) or eigh(m))
    recurrence = fockevolve._lanczos(partial(np.matmul, g), psi)
    segment = fockevolve._krylov_run(recurrence, np.linalg.norm(psi), dt, 20, KRYLOV_MAX + 1)
    monkeypatch.undo()
    assert len(sizes) == 1 and segment.size == 20
    want = [dense_exponential(g, psi, k * dt) for k in range(1, 21)]
    assert np.max(np.abs(segment.rows() - np.array(want))) <= 1e-12


def test_edge_weight_matches_interior_projector():
    rep = build_fock_rep(5, 1.0)
    pi = interior_projector(rep)
    states = np.array([
        coherent_state(rep, alpha_x=a, alpha_y=0.5j * a, spinor=(1.0, a))
        for a in (0.1, 0.8, 1.5)
    ])
    want = max(1.0 - np.vdot(s, pi @ s).real for s in states)
    assert abs(observe(rep, history(rep, np.arange(3.0), states)).edge - want) <= 1e-14
    assert observe(rep, history(rep, np.zeros(1), states[:1])).edge < want


def test_landau_length_puts_truncated_level_on_closed_form():
    # commutative, hbar = 2: with the oscillator scale sqrt(hbar/(e B)) the
    # truncated H has an eigenvalue on E_0 = m to 1e-9 at fock_N=16; the
    # scale 1/sqrt(e B) left the nearest one 5.9e-5 away
    p = NCParams(hbar=2.0)
    rep = build_fock_rep(16, ncmodel.magnetic_length(p), p.hbar)
    w = np.linalg.eigvalsh(represent(ncmodel.build_h_nc(p).at(0.0), rep))
    assert np.min(np.abs(w - p.m)) <= 1e-9


def dense_level_pick(p, rep, h, psi):
    """(n, sign) of the closed-form level nearest the eigenvalue of largest
    overlap with psi, from a full decomposition and a brute-force search."""
    w, v = np.linalg.eigh(represent(h.at(0.0), rep))
    e = w[np.argmax(np.abs(v.conj().T @ psi) ** 2)]
    gap = 4.0 * p.hbar * abs(f_theta(p, 0.0) * f_eta(p, 0.0))
    levels = [(n, s) for n in range(4 * rep.N) for s in (1, -1)]
    return min(levels, key=lambda ns: abs(e - ns[1] * math.sqrt(p.m**2 + ns[0] * gap)))



@pytest.mark.parametrize("n", [8, 10, 12])
@pytest.mark.parametrize(
    "p, alpha, spinor, want",
    [
        (README, 1.0, (1.0, 0.0), (0, 1)),
        (COMMUTATIVE, 1.0, (1.0, 0.0), (0, 1)),
        (NCParams(theta=0.1, eta=0.05, gamma=-0.3), 1.0, (1.0, 0.0), (0, 1)),
        (README, 0.3, (1.0, 0.0), (0, 1)),
        (README, 1.0, (0.0, 1.0), (1, -1)),
        (NCParams(hbar=2.0), 1.0, (1.0, 0.0), (0, 1)),
    ],
    ids=["readme", "commutative", "gamma-0.3", "displacement-0.3", "spin-down", "hbar-2"],
)
def test_level_pick_matches_dense_overlap_rule(p, alpha, spinor, want, n):
    rep = build_fock_rep(n, ncmodel.magnetic_length(p), p.hbar)
    h = ncmodel.build_h_nc(p)
    psi = coherent_state(rep, alpha_x=alpha, spinor=spinor)
    ev = evolve(h, rep, psi, [0.0, 1e-3])
    level = track(p, ev)
    assert (level.n, level.sign) == dense_level_pick(p, rep, h, psi) == want


def test_time_dependent_evolve_matches_dense_reference():
    # oracle: dense V exp(-i w dt) V^dag at every midpoint and the
    # nearest-eigenvalue rule on full decompositions, written out here
    p = NCParams(theta=0.1, eta=0.05, gamma=0.2)
    rep = build_fock_rep(8, ncmodel.magnetic_length(p))
    h = ncmodel.build_h_nc(p)
    psi = coherent_state(rep, alpha_x=1.0)
    times = np.linspace(0.0, 1.0, 21)
    dt = times[1] - times[0]
    ev = evolve(h, rep, psi, times)

    w, v = np.linalg.eigh(represent(h.at(0.0), rep))
    energy = [w[np.argmax(np.abs(v.conj().T @ psi) ** 2)]]
    states = [psi]
    for t in times[:-1]:
        psi = dense_exponential(represent(h.at(t + 0.5 * dt), rep), psi, dt)
        states.append(psi)
        w = np.linalg.eigh(represent(h.at(t + dt), rep))[0]
        energy.append(w[np.argmin(np.abs(w - energy[-1]))])
    assert np.max(np.abs(ev.states - np.array(states))) <= 1e-12

    # the reported level error at t0 and t1 is the dense tracked eigenvalue's
    # distance from E_n, up to the Ritz residual that bounds the Ritz value's
    # distance from that eigenvalue
    level = track(p, ev)
    for k, error, residual in zip((0, -1), level.error, level.residual):
        dense_error = abs(energy[k] - level.energy[k])
        assert abs(error - dense_error) <= residual
        assert dense_error <= 1e-3 and residual <= 1e-2


def test_evolve_norm_preservation():
    rep = build_fock_rep(8, 1.0)
    h = ncmodel.build_h_nc(NCParams(theta=0.1, eta=0.05, gamma=0.2))
    psi0 = coherent_state(rep, alpha_x=0.5, alpha_y=-0.3j)
    times = np.linspace(0.0, 1.0, 1001)
    ev = evolve(h, rep, psi0, times)
    assert ev.norm_drift <= 1e-10
    norms = np.linalg.norm(ev.states, axis=1)
    assert np.max(np.abs(np.diff(norms))) <= 1e-12  # per-step unitarity budget


def test_evolve_grid_and_state_validation():
    rep = build_fock_rep(3, 1.0)
    h = ncmodel.build_h_nc(COMMUTATIVE)
    psi0 = coherent_state(rep)
    with pytest.raises(ValueError, match="evolution grid must be uniform and increasing"):
        evolve(h, rep, psi0, [0.0, 0.1, 0.3])
    with pytest.raises(ValueError, match="evolution grid needs at least 2 points"):
        evolve(h, rep, psi0, [0.0])
    with pytest.raises(ValueError, match="state size 5 does not match representation dim 18"):
        evolve(h, rep, np.ones(5) / np.sqrt(5), [0.0, 0.1])
    with pytest.raises(ValueError):
        evolve(h, rep, 2.0 * psi0, [0.0, 0.1])


def test_evolve_takes_the_sample_grid_at_large_t0():
    # at t0 = 1e4 the steps of t0 + (t1 - t0) k/n differ by the float
    # spacing there, 1.8e-12, beyond 1e-12 of dt; the step taken is the first
    rep = build_fock_rep(3, 1.0)
    h = ncmodel.build_h_nc(NCParams(theta=0.1, eta=0.05, gamma=1e-4))
    psi0 = coherent_state(rep)
    times = ncmodel.sample_times(1e4, 10000.01, 10)
    assert np.ptp(np.diff(times)) > 1e-12
    ev = evolve(h, rep, psi0, times)
    dt = times[1] - times[0]
    want = dense_exponential(represent(h.at(times[0] + 0.5 * dt), rep), psi0, dt)
    assert np.max(np.abs(ev.states[1] - want)) <= 1e-13
    # a grid that is not uniform still raises there
    with pytest.raises(ValueError, match="evolution grid must be uniform and increasing"):
        evolve(h, rep, psi0, [1e4, 1e4 + 0.1, 1e4 + 0.3])


def test_invariant_drift_identity_is_zero():
    rep = build_fock_rep(4, 1.0)
    h = ncmodel.build_h_nc(COMMUTATIVE)
    psi0 = coherent_state(rep)
    ev = evolve(h, rep, psi0, np.linspace(0.0, 0.5, 51))
    assert np.max(np.abs(observe(rep, ev).drift)) <= 1e-12


def test_measure_keeps_no_view_of_its_moment_table():
    # a view of the (15, n_t) moment table would keep the whole table alive
    # as long as the result
    rep = build_fock_rep(4, 1.0)
    h = ncmodel.build_h_nc(COMMUTATIVE)
    moments = measure(rep, evolve(h, rep, coherent_state(rep), np.linspace(0.0, 0.5, 51)))
    assert moments.mean.base is None and moments.gram.base is None


def test_invariant_drift_constrained_small():
    rep = build_fock_rep(12, 1.0)
    h = ncmodel.build_h_nc(COMMUTATIVE)
    psi0 = coherent_state(rep)
    ev = evolve(h, rep, psi0, np.linspace(0.0, 1.0, 501))
    ans = invariant.constant_invariant(1.0, 0.0, 0.0, -0.5, 0.0)
    assert observe(rep, ev, ans.at(0.0)).relative_max <= 1e-6


def test_invariant_drift_checks_dimension():
    rep = build_fock_rep(3, 1.0)
    h = ncmodel.build_h_nc(COMMUTATIVE)
    ev = evolve(h, rep, coherent_state(rep), np.linspace(0.0, 0.1, 11))
    with pytest.raises(ValueError, match="state size 18 does not match dim 32"):
        observe(build_fock_rep(4, 1.0), ev)


def test_unconstrained_drift_matches_ehrenfest_rate():
    p = COMMUTATIVE
    rep = build_fock_rep(12, 1.0)
    h = ncmodel.build_h_nc(p)
    psi0 = coherent_state(rep, alpha_x=1.0, spinor=(1.0, 1.0j))
    times = np.linspace(0.0, 1.0, 501)
    ev = evolve(h, rep, psi0, times)
    ans = invariant.constant_invariant(1.0, 0.0, 0.0, 0.0, 0.0)
    measured = observe(rep, ev, ans.at(0.0)).drift.real
    res_poly = PhasePoly(invariant.invariance_residual(ans, h, p.hbar, [0.0])[0])
    predicted = ehrenfest_drift(res_poly, rep, times, ev.states)
    m_max = np.max(np.abs(measured))
    p_max = np.max(np.abs(predicted))
    assert m_max > 1e-4
    assert 0.8 <= m_max / p_max <= 1.25


def test_uncertainty_ground_state_saturation():
    rep = build_fock_rep(8, 1.3)
    vac = coherent_state(rep)
    r = observe(rep, history(rep, np.zeros(1), vac[None])).xp
    assert r.product == pytest.approx(0.5, abs=1e-12)
    assert r.bound == pytest.approx(0.5, abs=1e-12)
    assert abs(r.margin) <= 1e-12


def test_uncertainty_commuting_pair():
    rep = build_fock_rep(6, 1.0)
    psi = coherent_state(rep, alpha_x=0.3, alpha_y=0.4)
    images = np.array([coordinate(c, rep) @ psi for c in Coord])
    mean = (images @ psi.conj()).real
    moments = Moments(mean[:, None], (images.conj() @ images.T)[:, :, None], 0.0)
    r = robertson(moments, np.eye(4)[Coord.X], np.eye(4)[Coord.Y])
    assert r.bound <= 1e-13
    assert r.margin >= -1e-13


def dense_robertson(psi, a, b):
    """Robertson data straight from the matrices: (product, bound) from the
    variances <A^2> - <A>^2 and the commutator matrix AB - BA."""
    var_a = np.vdot(psi, a @ a @ psi).real - np.vdot(psi, a @ psi).real ** 2
    var_b = np.vdot(psi, b @ b @ psi).real - np.vdot(psi, b @ psi).real ** 2
    product = math.sqrt(max(var_a, 0.0)) * math.sqrt(max(var_b, 0.0))
    return product, 0.5 * abs(np.vdot(psi, (a @ b - b @ a) @ psi))


def test_uncertainty_bopp_pair_bound_matches_hbar_eff():
    # the blocked image pass against the dense route, which shares no code
    # with it: represent each shifted operator on its own and take moments
    p = NCParams(theta=0.1, eta=0.05, gamma=0.2)
    rep = build_fock_rep(10, ncmodel.magnetic_length(p))
    h = ncmodel.build_h_nc(p)
    psi0 = coherent_state(rep)
    times = np.linspace(0.0, 1.0, 101)
    ev = evolve(h, rep, psi0, times)
    obs = observe(rep, ev, p=p)
    pairs = (obs.xp, obs.yp, obs.bopp)
    heff = ncmodel.hbar_eff(p)
    for k in (0, 20, 40, 63, 64, 80, 100):  # both sides of the first block edge
        t = float(times[k])
        s = ev.states[k]
        dense_pairs = (
            (coordinate(Coord.X, rep), coordinate(Coord.PX, rep)),
            (coordinate(Coord.Y, rep), coordinate(Coord.PY, rep)),
            (
                represent(bopp_op(p, Coord.X, t), rep),
                represent(bopp_op(p, Coord.PX, t), rep),
            ),
        )
        for got, (a, b) in zip(pairs, dense_pairs):
            product, bound = dense_robertson(s, a, b)
            assert abs(got.bound[k] - bound) <= 1e-12
            assert abs(got.margin[k] - (product - bound)) <= 1e-12
        assert pairs[2].bound[k] == pytest.approx(0.5 * heff, abs=1e-6)
        assert pairs[2].margin[k] >= -1e-9


def test_truncation_scaling_of_constrained_drift():
    h = ncmodel.build_h_nc(COMMUTATIVE)
    ans = invariant.constant_invariant(1.0, 0.0, 0.0, -0.5, 0.0)
    drifts = []
    for n in (4, 6, 8):
        rep = build_fock_rep(n, 1.0)
        psi0 = coherent_state(rep)
        ev = evolve(h, rep, psi0, np.linspace(0.0, 1.0, 251))
        drifts.append(observe(rep, ev, ans.at(0.0)).relative_max)
    for small, large in zip(drifts[1:], drifts[:-1]):
        assert small <= max(1.1 * large, 1e-12)


def random_scalar_invariant(rng):
    """A scalar degree-1 I, the ansatz of ``invariant.constant_invariant``:
    a random real multiple of the identity on the constant slot and on each
    linear slot."""
    slots = np.zeros((15, 2, 2), dtype=complex)
    slots[:5] = rng.normal(size=5)[:, None, None] * ID2
    return PhasePoly(slots)


def test_measure_matches_dense_oracle():
    # the one pass against dense matrices that share no code with it, over
    # BLOCK_ROWS + 1 samples, so the last sample sits in a second block
    p = NCParams(theta=0.1, eta=0.05, gamma=0.2)
    rep = build_fock_rep(5, ncmodel.magnetic_length(p))
    h = ncmodel.build_h_nc(p)
    psi0 = coherent_state(rep, alpha_x=0.8, alpha_y=0.3j, spinor=(1.0, 0.5j))
    times = np.linspace(0.0, 0.5, BLOCK_ROWS + 1)
    ev = evolve(h, rep, psi0, times)
    i_op = random_scalar_invariant(np.random.default_rng(5))
    obs = observe(rep, ev, i_op, p)

    values = np.array([np.vdot(s, represent(i_op, rep) @ s) for s in ev.states])
    drift = values - values[0]
    assert np.max(np.abs(obs.values - values)) <= 1e-12
    assert np.max(np.abs(obs.drift - drift)) <= 1e-12
    assert np.max(np.abs(drift)) > 1e-3  # I is no invariant of H: the drift is seen
    relative = np.max(np.abs(drift)) / (abs(values[0]) + 1.0)
    assert obs.relative_max == pytest.approx(relative, abs=1e-12)

    pi = interior_projector(rep)
    edge = max(1.0 - np.vdot(s, pi @ s).real for s in ev.states)
    assert edge > 1e-3
    assert abs(obs.edge - edge) <= 1e-14

    for k, (s, t) in enumerate(zip(ev.states, times)):
        dense_pairs = (
            (coordinate(Coord.X, rep), coordinate(Coord.PX, rep)),
            (coordinate(Coord.Y, rep), coordinate(Coord.PY, rep)),
            (
                represent(bopp_op(p, Coord.X, t), rep),
                represent(bopp_op(p, Coord.PX, t), rep),
            ),
        )
        for got, (a, b) in zip((obs.xp, obs.yp, obs.bopp), dense_pairs):
            product, bound = dense_robertson(s, a, b)
            assert abs(got.product[k] - product) <= 1e-12
            assert abs(got.bound[k] - bound) <= 1e-12
            assert abs(got.margin[k] - (product - bound)) <= 1e-12


def test_measure_images_each_block_once(monkeypatch):
    # the three pairs share the four coordinate images of a block of stored
    # rows, or of a Lanczos segment's basis, which come from one ``_images``
    # call: one product per mode
    sizes = []
    images = fockevolve._images

    def counted(rep, rows):
        sizes.append(len(rows))
        return images(rep, rows)

    monkeypatch.setattr(fockevolve, "_images", counted)
    rep = build_fock_rep(4, 1.0)
    n_t = 2 * BLOCK_ROWS + 1
    states = np.tile(coherent_state(rep, alpha_x=0.5), (n_t, 1))
    i_op = random_scalar_invariant(np.random.default_rng(1))
    observe(rep, history(rep, np.linspace(0.0, 1.0, n_t), states), i_op)
    assert sizes == [BLOCK_ROWS, BLOCK_ROWS, 1]
    # a Lanczos segment of 3 vectors is imaged once, however many samples
    sizes.clear()
    basis = np.linalg.qr(states[:3].T + np.eye(rep.dim, 3))[0].T
    coeffs = np.full((n_t, 3), 1 / np.sqrt(3), dtype=complex)
    observe(rep, history(rep, np.linspace(0.0, 1.0, n_t), basis, coeffs), i_op)
    assert sizes == [3]


@pytest.mark.parametrize(
    "p, h",
    [(README, ncmodel.build_h_nc(README)), (COMMUTATIVE, ncmodel.build_h_commutative(COMMUTATIVE))],
    ids=["changing", "constant"],
)
def test_evolve_builds_the_mode_blocks_once_per_run(monkeypatch, p, h):
    # the per-mode blocks of H's fixed parts are built in one call per
    # evolve, however many steps or runs of one generator it takes; the end
    # spectra reuse them, and the level pick builds none
    built = []
    blocks = fockevolve._mode_blocks

    def counted(polys, rep):
        built.append(len(polys))
        return blocks(polys, rep)

    monkeypatch.setattr(fockevolve, "_mode_blocks", counted)
    rep = build_fock_rep(5, 1.0)
    ev = evolve(h, rep, coherent_state(rep, alpha_x=0.5), np.linspace(0.0, 0.5, 51))
    track(p, ev)
    assert built == [len(h.polys)]
    # and each run's combination acts as the dense H at its midpoint
    want = dense_exponential(represent(h.at(0.005), rep), ev.states[0], 0.01)
    assert np.max(np.abs(ev.states[1] - want)) <= 1e-13


def expectation(states, m):
    """<psi|M|psi> of every row of states for a dense matrix M."""
    return np.einsum("ki,ki->k", states.conj(), states @ m.T)


def dense_pair(states, a, b):
    """(product, bound) of every row straight from the matrices: variances
    from <A^2> - <A>^2 and the bound from the commutator matrix AB - BA."""
    var_a = expectation(states, a @ a).real - expectation(states, a).real ** 2
    var_b = expectation(states, b @ b).real - expectation(states, b).real ** 2
    product = np.sqrt(np.maximum(var_a, 0.0)) * np.sqrt(np.maximum(var_b, 0.0))
    return product, 0.5 * np.abs(expectation(states, a @ b - b @ a))


def assert_measure_matches_dense(obs, states, i_op, p, rep, tol=1e-12):
    """Every figure of ``measure`` against dense matrices of a stationary p,
    whose Bopp pair is the same at every time."""
    assert p.gamma == 0.0
    values = expectation(states, represent(i_op, rep))
    assert np.max(np.abs(obs.values - values)) <= tol
    assert np.max(np.abs(obs.drift - (values - values[0]))) <= tol
    pi = interior_projector(rep)
    assert abs(obs.edge - np.max(1.0 - expectation(states, pi).real)) <= tol
    dense_pairs = (
        (coordinate(Coord.X, rep), coordinate(Coord.PX, rep)),
        (coordinate(Coord.Y, rep), coordinate(Coord.PY, rep)),
        (represent(bopp_op(p, Coord.X, 0.0), rep), represent(bopp_op(p, Coord.PX, 0.0), rep)),
    )
    for got, (a, b) in zip((obs.xp, obs.yp, obs.bopp), dense_pairs):
        product, bound = dense_pair(states, a, b)
        assert np.max(np.abs(got.product - product)) <= tol
        assert np.max(np.abs(got.bound - bound)) <= tol
        assert np.max(np.abs(got.margin - (product - bound))) <= tol


def test_constant_generator_across_restarts_measured_in_its_lanczos_spaces():
    # four Lanczos spaces over 1000 samples, each resolving more samples than
    # BLOCK_ROWS and than it has vectors: kept as coefficients and measured in
    # their bases, against the dense propagator and dense observables
    p = NCParams(theta=0.1, eta=0.05)
    rep = build_fock_rep(8, ncmodel.magnetic_length(p))
    h = ncmodel.build_h_nc(p)
    psi = coherent_state(rep, alpha_x=1.0)
    times = np.linspace(-1.0, 9.0, 1001)
    ev = evolve(h, rep, psi, times)
    projected = [seg for seg in ev.segments if seg.coeffs is not None]
    assert len(projected) >= 3
    assert any(seg.size > BLOCK_ROWS and seg.size % BLOCK_ROWS for seg in projected)
    w, v = np.linalg.eigh(represent(h.at(0.0), rep))
    exact = (np.exp(-1j * np.outer(times - times[0], w)) * (v.conj().T @ psi)) @ v.T
    assert np.max(np.abs(ev.states - exact)) <= 1e-12
    assert ev.norm_drift <= 1e-12
    i_op = random_scalar_invariant(np.random.default_rng(3))
    assert_measure_matches_dense(observe(rep, ev, i_op, p), exact, i_op, p, rep)


def test_piecewise_history_alternates_stored_and_projected_segments():
    # a constant stretch, ten steps of a changing generator, a constant
    # stretch again: the history is the initial row, a Lanczos segment, ten
    # stored rows joined into one segment, a Lanczos segment
    p = NCParams(theta=0.1, eta=0.05)
    rep = build_fock_rep(6, 1.0)
    h_nc = ncmodel.build_h_nc(p)
    base = h_nc.value(np.zeros(1))[0]

    def scale(t):
        return np.where(t < 0.5, 1.0, np.where(t < 0.6, 1.0 + t, 1.5))

    h = AffineOp(
        h_nc.polys,
        value=lambda ts: scale(ts)[:, None] * base,
        derivative=lambda ts: np.zeros((len(ts), len(base))),
    )
    psi = coherent_state(rep, alpha_x=0.5, spinor=(1.0, 0.5j))
    times = np.linspace(0.0, 1.2, 121)
    dt = times[1] - times[0]
    ev = evolve(h, rep, psi, times)
    kinds = [(seg.coeffs is None, seg.size) for seg in ev.segments]
    assert kinds == [(True, 1), (False, 50), (True, 10), (False, 60)]
    want = [psi]
    for t in times[:-1]:
        g = represent(h.at(t + 0.5 * dt), rep)
        want.append(dense_exponential(g, want[-1], dt))
    want = np.array(want)
    assert np.max(np.abs(ev.states - want)) <= 1e-12
    for k in (0, 1, 50, 51, 60, 61, 120):
        assert np.max(np.abs(ev.states[k] - want[k])) <= 1e-12
    i_op = random_scalar_invariant(np.random.default_rng(4))
    assert_measure_matches_dense(observe(rep, ev, i_op, p), want, i_op, p, rep)


def test_constant_run_holds_coefficients_not_states():
    # 2000 samples at dimension 512: at most KRYLOV_MAX + 1 coefficients per
    # sample and one basis per Lanczos space, instead of 512 amplitudes each
    p = NCParams(theta=0.1, eta=0.05)
    rep = build_fock_rep(16, ncmodel.magnetic_length(p))
    n_t = 2000
    ev = evolve(ncmodel.build_h_nc(p), rep, coherent_state(rep, alpha_x=1.0),
                np.linspace(0.0, 2.0, n_t))
    coeffs = sum(seg.coeffs.size for seg in ev.segments if seg.coeffs is not None)
    bases = sum(len(seg.basis) for seg in ev.segments)
    assert coeffs <= (KRYLOV_MAX + 1) * n_t
    assert bases <= (KRYLOV_MAX + 1) * len(ev.segments)
    held = sum(seg.basis.nbytes + (0 if seg.coeffs is None else seg.coeffs.nbytes)
               for seg in ev.segments)
    assert held <= 16 * ((KRYLOV_MAX + 1) * n_t + bases * rep.dim)
    assert held < 0.1 * 16 * n_t * rep.dim
    assert ev.states.shape == (n_t, rep.dim)


def test_a_constant_run_is_held_and_measured_in_its_real_frame(monkeypatch):
    # the probe is real in the rotated basis, so a constant generator's
    # Lanczos bases are float64 there: evolve keeps them, with the frame's
    # phases, and measure takes the Gram entries of each basis and its
    # coordinate images in float64; states rotates out
    p = NCParams(theta=0.1, eta=0.05)
    rep = build_fock_rep(8, ncmodel.magnetic_length(p))
    h = ncmodel.build_h_nc(p)
    psi = coherent_state(rep, alpha_x=1.0)
    times = np.linspace(0.0, 2.0, 401)
    ev = evolve(h, rep, psi, times)
    projected = [seg for seg in ev.segments if seg.coeffs is not None]
    assert projected and all(seg.basis.dtype == np.float64 for seg in projected)
    frame = frame_phases(rep.N)
    assert np.array_equal(ev.frame, frame)
    assert np.array_equal(ev.states, frame * np.concatenate([seg.rows() for seg in ev.segments]))
    w, v = np.linalg.eigh(represent(h.at(0.0), rep))
    exact = (np.exp(-1j * np.outer(times, w)) * (v.conj().T @ psi)) @ v.T
    assert np.max(np.abs(ev.states - exact)) <= 1e-12

    products = []
    gram = fockevolve._gram

    def recording(a, b):
        out = gram(a, b)
        products.append((a.dtype, b.dtype, out.dtype))
        return out

    monkeypatch.setattr(fockevolve, "_gram", recording)
    i_op = random_scalar_invariant(np.random.default_rng(6))
    obs = observe(rep, ev, i_op, p)
    real = np.dtype(float)
    # per basis: the basis and its coordinate images against those images,
    # the top-level rows; the invariant takes none of its own
    assert products == [(real, real, real)] * 3 * len(projected)
    assert_measure_matches_dense(obs, exact, i_op, p, rep)


def test_measure_holds_no_temporary_of_every_sample():
    # a stationary history of 100 000 samples on one Lanczos space of 4
    # vectors: the coefficient stage takes BLOCK_ROWS samples at a time, so
    # the peak of measure stays within 4 MB of its moment table and the
    # arrays it returns; one product over every sample would hold 15 forms
    # of 4 complex entries per sample, 96 MB, at once
    p = NCParams(theta=0.1, eta=0.05)
    rep = build_fock_rep(2, ncmodel.magnetic_length(p))
    times = np.linspace(0.0, 100.0, 100_000)
    ev = evolve(ncmodel.build_h_nc(p), rep, coherent_state(rep, alpha_x=1.0), times)
    assert max(seg.size for seg in ev.segments) == len(times) - 1
    tracemalloc.start()
    try:
        moments = measure(rep, ev)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    table = 15 * 16 * len(times)  # 4 means, 10 Gram entries, the edge weight
    assert peak <= table + moments.mean.nbytes + moments.gram.nbytes + 4 * 2**20


def test_segment_moments_use_the_gram_of_its_basis():
    # a Lanczos segment measured on a basis that is not orthonormal: the norm
    # and every figure come from the actual Gram matrix of its images
    rng = np.random.default_rng(8)
    p = NCParams(theta=0.1, eta=0.05)
    rep = build_fock_rep(4, 1.0)
    basis = rng.normal(size=(3, rep.dim)) + 1j * rng.normal(size=(3, rep.dim))
    coeffs = rng.normal(size=(7, 3)) + 1j * rng.normal(size=(7, 3))
    states = coeffs @ basis
    coeffs /= np.linalg.norm(states, axis=1)[:, None]
    states = coeffs @ basis
    ev = history(rep, np.linspace(0.0, 1.0, 7), basis, coeffs)
    assert ev.norm_drift <= 1e-13
    assert np.max(np.abs(ev.states - states)) == 0.0
    i_op = random_scalar_invariant(rng)
    assert_measure_matches_dense(observe(rep, ev, i_op, p), states, i_op, p, rep)
