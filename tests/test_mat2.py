"""2x2 algebra: basis properties, commutators, algebra report."""

import numpy as np
import pytest

from ncdirac import mat2
from ncdirac.mat2 import ALPHA1, ALPHA2, BETA, ID2, SIGMA1, SIGMA2, SIGMA3
from oracle import mat_commutator

RNG = np.random.default_rng(20260810)


def rand2():
    return RNG.standard_normal((2, 2)) + 1j * RNG.standard_normal((2, 2))


def test_ring_axioms_random_samples():
    for _ in range(200):
        a, b, c = rand2(), rand2(), rand2()
        assert np.allclose((a @ b) @ c, a @ (b @ c), atol=1e-12)
        assert np.allclose(a @ (b + c), a @ b + a @ c, atol=1e-12)
        assert np.allclose((a + b) @ c, a @ c + b @ c, atol=1e-12)


def test_commutator_identity_cases():
    assert mat2.fro(mat_commutator(SIGMA1, SIGMA1)) == 0.0
    for _ in range(20):
        m = rand2()
        assert mat2.fro(mat_commutator(ID2, m)) == 0.0


def test_commutator_sigma1_sigma2():
    # direct multiplication oracle
    expected = SIGMA1 @ SIGMA2 - SIGMA2 @ SIGMA1
    got = mat_commutator(SIGMA1, SIGMA2)
    assert np.array_equal(got, expected)
    assert np.allclose(got, 2j * SIGMA3, atol=1e-15)


def test_anticommutators():
    assert mat2.fro(mat2.anticommutator(ALPHA1, ALPHA2)) == 0.0
    assert mat2.fro(mat2.anticommutator(ALPHA1, BETA)) == 0.0
    assert np.allclose(mat2.anticommutator(ALPHA1, ALPHA1), 2.0 * ID2, atol=0)


def test_basis_hermitian_and_trace_orthogonal():
    sigmas = (SIGMA1, SIGMA2, SIGMA3)
    for s in sigmas:
        assert mat2.fro(s - s.conj().T) == 0.0
        assert abs(np.trace(s)) == 0.0
    for i, a in enumerate(sigmas):
        for j, b in enumerate(sigmas):
            expected = 2.0 if i == j else 0.0
            assert abs(np.trace(a @ b) - expected) <= 1e-15


def test_dirac_algebra_default():
    rep = mat2.verify_dirac_algebra()
    assert len(rep.checks) == 9
    assert rep.max_deviation == 0.0
    assert rep.max_deviation <= 1e-14


def test_dirac_algebra_perturbed_flags_failure():
    bad = np.array(ALPHA1)
    bad[0, 1] += 1e-3
    rep = mat2.verify_dirac_algebra(alpha1=bad)
    assert not rep.max_deviation <= 1e-14
    assert rep.max_deviation > 1e-4


def test_dirac_algebra_beta_squared():
    rep = mat2.verify_dirac_algebra()
    beta_sq = [c for c in rep.checks if c.name == "beta^2"]
    assert len(beta_sq) == 1 and beta_sq[0].deviation == 0.0



def test_fro_of_a_stack_equals_fro_of_each_matrix():
    stack = RNG.standard_normal((5, 3, 2, 2)) + 1j * RNG.standard_normal((5, 3, 2, 2))
    norms = mat2.fro(stack)
    assert norms.shape == (5, 3)
    for k in np.ndindex(5, 3):
        assert norms[k] == mat2.fro(stack[k])
        assert norms[k] == pytest.approx(float(np.linalg.norm(stack[k])), rel=1e-15)
