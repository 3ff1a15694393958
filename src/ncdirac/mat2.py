"""Complex 2x2 matrix algebra: Pauli basis, Dirac-algebra checks."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

Mat2 = np.ndarray  # 2x2 complex array

ID2 = np.eye(2, dtype=complex)
ZERO2 = np.zeros((2, 2), dtype=complex)
SIGMA1 = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA2 = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA3 = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)

# planar Dirac basis: alpha_1 = sigma_1, alpha_2 = sigma_2, beta = sigma_3
ALPHA1 = SIGMA1
ALPHA2 = SIGMA2
BETA = SIGMA3

for _m in (ID2, ZERO2, SIGMA1, SIGMA2, SIGMA3):
    _m.setflags(write=False)


def fro(m: Mat2):
    """Frobenius norm: a float for one matrix, an array for a stack (..., 2, 2)."""
    flat = m.reshape(m.shape[:-2] + (-1,))
    norm = np.sqrt(np.vecdot(flat.real, flat.real) + np.vecdot(flat.imag, flat.imag))
    return float(norm) if norm.ndim == 0 else norm


def anticommutator(a: Mat2, b: Mat2) -> Mat2:
    return a @ b + b @ a


@dataclass(frozen=True)
class AlgebraCheck:
    name: str
    deviation: float


@dataclass(frozen=True)
class DiracAlgebraReport:
    checks: tuple[AlgebraCheck, ...]

    @property
    def max_deviation(self) -> float:
        return max(c.deviation for c in self.checks)

    def passed(self, tol: float = 1e-14) -> bool:
        return self.max_deviation <= tol

    def as_dict(self) -> dict:
        return {
            "checks": [{"name": c.name, "deviation": c.deviation} for c in self.checks],
            "max_deviation": self.max_deviation,
        }


def verify_dirac_algebra(
    alpha1: Mat2 = ALPHA1, alpha2: Mat2 = ALPHA2, beta: Mat2 = BETA
) -> DiracAlgebraReport:
    """Check the nine anticommutation identities of the planar Dirac basis.

    {alpha_i, alpha_j} = 2*delta_ij, {alpha_i, beta} = 0, and
    alpha_1^2 = alpha_2^2 = beta^2 = I. Each check records the Frobenius
    deviation; failures are reported, never raised.
    """
    alphas = {"a1": alpha1, "a2": alpha2}
    checks = []
    for ni, ai in alphas.items():
        for nj, aj in alphas.items():
            target = 2.0 * ID2 if ni == nj else ZERO2
            checks.append(
                AlgebraCheck(f"{{{ni},{nj}}}", fro(anticommutator(ai, aj) - target))
            )
    for ni, ai in alphas.items():
        checks.append(AlgebraCheck(f"{{{ni},beta}}", fro(anticommutator(ai, beta))))
    checks.append(AlgebraCheck("a1^2", fro(alpha1 @ alpha1 - ID2)))
    checks.append(AlgebraCheck("a2^2", fro(alpha2 @ alpha2 - ID2)))
    checks.append(AlgebraCheck("beta^2", fro(beta @ beta - ID2)))
    return DiracAlgebraReport(checks=tuple(checks))
