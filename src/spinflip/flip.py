"""Spin-flipping matrices, their powers, and the local-congruence check.

The power-1 matrix of a state for a partition with row qubits q_1..q_i is

    Omega = C v^{(x)(n-i)} C^T,     v = [[0, 1], [-1, 0]]

with C the coefficient matrix. Higher powers follow the recursion
Omega^(.l) = Omega^(.(l-1)) v^{(x)i} Omega. Applying a local operator
A_1 (x) ... (x) A_n to the state maps Omega^(.l) to
alpha^(l-1) beta^l P Omega^(.l) P^T with P = A_{q_1} (x) ... (x) A_{q_i},
alpha the product of row-qubit determinants and beta the product of
column-qubit determinants.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce

import numpy as np

from .coeffmat import QubitPartition, coeff_matrix
from .errors import ValidationError
from .states import LocalOperator, PureState, apply_local, parity_signs

SYMMETRY_ATOL = 1e-12


@dataclass(frozen=True)
class OmegaMatrix:
    partition: QubitPartition
    power: int
    entries: np.ndarray = field(repr=False)

    def __post_init__(self):
        if self.power < 1:
            raise ValidationError(f"power must be >= 1, got {self.power}")
        dim = 2**self.partition.size
        mat = np.asarray(self.entries, dtype=complex)
        if mat.shape != (dim, dim):
            raise ValidationError(f"entries must be {dim}x{dim}, got {mat.shape}")
        mat.setflags(write=False)
        object.__setattr__(self, "entries", mat)
        if self.power == 1:
            # power 1 is symmetric for even n-i, skew-symmetric for odd n-i
            sign = -1.0 if (self.partition.n - self.partition.size) % 2 else 1.0
            defect = np.max(np.abs(mat.T - sign * mat))
            scale = max(float(np.max(np.abs(mat))), 1.0)
            if defect > SYMMETRY_ATOL * scale:
                kind = "skew-symmetric" if sign < 0 else "symmetric"
                raise ValidationError(
                    f"power-1 matrix fails its {kind} invariant: defect {defect:.3e}"
                )


@dataclass(frozen=True)
class CongruenceReport:
    """Outcome of checking the local-transformation congruence identity."""

    alpha: complex
    beta: complex
    residual: float

    def __post_init__(self):
        if not self.residual >= 0:
            raise ValidationError(f"residual must be >= 0, got {self.residual}")


def _times_kernel(mat: np.ndarray, k: int) -> np.ndarray:
    """mat @ v^{(x)k} without materializing the kernel.

    v^{(x)k} has a single nonzero per row: entry (j, 2^k-1-j) with sign
    (-1)^{parity(j)}, so M v^{(x)k} = M[:, ::-1] * signs with
    signs[c] = (-1)^{parity(2^k-1-c)}, the reversed parity table.
    """
    return mat[:, ::-1] * parity_signs(k)[::-1]


def _power_one(state: PureState, partition: QubitPartition) -> np.ndarray:
    """C v^{(x)(n-i)} C^T, before its symmetry check."""
    cmat = coeff_matrix(state, partition)
    return _times_kernel(cmat, state.n - partition.size) @ cmat.T


def omega(state: PureState, partition: QubitPartition) -> OmegaMatrix:
    """Power-1 spin-flipping matrix C v^{(x)(n-i)} C^T."""
    return OmegaMatrix(partition, 1, _power_one(state, partition))


def _stack_powers(
    base: np.ndarray, partition: QubitPartition, max_power: int
) -> np.ndarray:
    """Powers 1..max_power of the power-1 matrix base as one read-only
    (max_power, d, d) stack. Each later row is written in place by the
    recursion, so the whole stack can go to LAPACK in one call."""
    if max_power < 1:
        raise ValidationError(f"max_power must be >= 1, got {max_power}")
    stack = np.empty((max_power,) + base.shape, dtype=complex)
    stack[0] = base
    for ell in range(1, max_power):
        np.matmul(_times_kernel(stack[ell - 1], partition.size), base, out=stack[ell])
    stack.setflags(write=False)
    return stack


def _omega_powers(
    state: PureState, partition: QubitPartition, max_power: int
) -> np.ndarray:
    """The power stack with row 0 from omega(), which checks power 1."""
    return _stack_powers(omega(state, partition).entries, partition, max_power)


def omega_power_sequence(
    state: PureState, partition: QubitPartition, max_power: int
) -> list[OmegaMatrix]:
    """Powers 1..max_power, sharing one pass of the recursion. Each entry
    views one row of the stack; power 1 is checked once, on row 0."""
    stack = _stack_powers(_power_one(state, partition), partition, max_power)
    return [OmegaMatrix(partition, ell, mat) for ell, mat in enumerate(stack, start=1)]


# Relative residuals fall back to absolute when the reference side is
# essentially zero.
ZERO_LHS_FLOOR = 1e-14


def verify_congruence(
    state: PureState,
    op: LocalOperator,
    partition: QubitPartition,
    ell: int = 1,
) -> CongruenceReport:
    """Check the congruence identity for one state, operator, and power.

    LHS is the power-l matrix of the transformed state; RHS is
    alpha^(l-1) beta^l P Omega^(.l) P^T built from the original state. The
    residual is max |LHS - RHS| over max |LHS|, absolute when LHS vanishes.
    """
    if partition.n != state.n or op.n != state.n:
        raise ValidationError("state, operator, and partition sizes must agree")
    if ell < 1:
        raise ValidationError(f"power must be >= 1, got {ell}")
    lhs = _omega_powers(apply_local(state, op), partition, ell)[-1]

    dets = op.determinants()
    alpha = complex(np.prod([dets[q - 1] for q in partition.rows]))
    beta = complex(np.prod([dets[q - 1] for q in partition.columns()]))
    p_mat = reduce(np.kron, [op.factors[q - 1] for q in partition.rows])
    core = _omega_powers(state, partition, ell)[-1]
    rhs = alpha ** (ell - 1) * beta**ell * (p_mat @ core @ p_mat.T)

    denom = float(np.max(np.abs(lhs)))
    diff = float(np.max(np.abs(lhs - rhs)))
    residual = diff if denom < ZERO_LHS_FLOOR else diff / denom
    return CongruenceReport(alpha=alpha, beta=beta, residual=residual)
