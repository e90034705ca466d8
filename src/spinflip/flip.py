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

from .coeffmat import QubitPartition, _coeff_matrices
from .errors import ValidationError
from .states import (LocalOperator, PureState, _frozen, _rays, _require_power, apply_local,
                     parity_signs)

# a power-1 entry's rounding stays below NOISE_FLOOR * sum |a_i|^2: the bound
# of the parity check and the base of each power's noise floor (rank 0 below)
NOISE_FLOOR = 1e-12


def _require_power_one(mats: np.ndarray, partition: QubitPartition, scale) -> None:
    """Refuse power-1 matrices (a (..., d, d) stack) that break their parity
    symmetry: symmetric for even n-i, skew-symmetric for odd n-i. scale,
    one per matrix, is the magnitude its rounding error is relative to."""
    sign = -1.0 if (partition.n - partition.size) % 2 else 1.0
    entries = mats.shape[-1] ** 2
    defect = np.abs(mats.swapaxes(-1, -2) - sign * mats).reshape(-1, entries).max(axis=1)
    bad = defect > NOISE_FLOOR * np.maximum(scale, 1.0)
    if bad.any():
        kind = "skew-symmetric" if sign < 0 else "symmetric"
        raise ValidationError(
            f"power-1 matrix fails its {kind} invariant: defect {defect[bad][0]:.3e}"
        )


@dataclass(frozen=True, eq=False)
class OmegaMatrix:
    partition: QubitPartition
    power: int
    entries: np.ndarray = field(repr=False)

    def __post_init__(self):
        object.__setattr__(self, "power", _require_power(self.power, "power"))
        mat = _frozen(self.entries, (2**self.partition.size,) * 2, "entries")
        object.__setattr__(self, "entries", mat)


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
    """mat @ v^{(x)k} without materializing the kernel, for a matrix or a
    stack of them.

    v^{(x)k} has a single nonzero per row: entry (j, 2^k-1-j) with sign
    (-1)^{parity(j)}, so M v^{(x)k} = M[:, ::-1] * signs with
    signs[c] = (-1)^{parity(2^k-1-c)}, the reversed parity table.
    """
    return mat[..., ::-1] * parity_signs(k)[::-1]


def _power_stacks(amps, norms, partition: QubitPartition, max_power: int) -> np.ndarray:
    """Powers 1..max_power of the spin-flipping matrices of an (S, 2^n)
    amplitude stack with S norms, as one read-only (S, max_power, d, d)
    array, from one batched recursion.
    Power 1 is checked for its parity symmetry; each later power is
    written in place, so the whole array can go to LAPACK in one call, and
    each state's rows are the same bit for bit alone or in a batch. A
    product that leaves floating-point range is refused once it is built,
    not warned about: a huge state can still have an exactly zero power."""
    max_power = _require_power(max_power, "max_power")
    cmats = _coeff_matrices(amps, partition)
    d = cmats.shape[1]
    try:
        stack = np.empty((len(cmats), max_power, d, d), dtype=complex)
    except (ValueError, MemoryError) as exc:
        raise ValidationError(f"{max_power} powers of d x d matrices, d = {d}, "
                              f"cannot be allocated: {exc}") from exc
    with np.errstate(over="ignore", invalid="ignore"):
        base = _times_kernel(cmats, partition.n - partition.size) @ cmats.swapaxes(-1, -2)
        stack[:, 0] = base
        for ell in range(1, max_power):
            np.matmul(_times_kernel(stack[:, ell - 1], partition.size), base, out=stack[:, ell])
    if not np.isfinite(stack).all():
        ell = np.isfinite(stack).all(axis=(0, 2, 3)).argmin() + 1
        raise ValidationError(f"power {ell} of Omega leaves floating-point range")
    # an entry sums amplitude products: its rounding scales with ||a||^2, a
    # product of floats that reads inf on overflow, so refuses nothing
    _require_power_one(base, partition, [norm * norm for norm in norms])
    stack.setflags(write=False)
    return stack


def omega(state: PureState, partition: QubitPartition) -> OmegaMatrix:
    """Power-1 spin-flipping matrix C v^{(x)(n-i)} C^T."""
    stack = _power_stacks(state.amplitudes[None], [state.norm()], partition, 1)
    return OmegaMatrix(partition, 1, stack[0, 0])


def omega_power_sequence(
    state: PureState, partition: QubitPartition, max_power: int
) -> list[OmegaMatrix]:
    """Powers 1..max_power from one pass of the recursion, a copy of each
    stack row."""
    stack = _power_stacks(state.amplitudes[None], [state.norm()], partition, max_power)[0]
    return [OmegaMatrix(partition, ell, mat) for ell, mat in enumerate(stack, start=1)]


def verify_congruence(
    state: PureState,
    op: LocalOperator,
    partition: QubitPartition,
    ell: int = 1,
) -> CongruenceReport:
    """Check the congruence identity for one state, operator, and power.

    Both sides have degree 2l in the state's scale, so the state is read as
    its ray and transformed from there: LHS is the power-l matrix of the
    transformed ray, RHS alpha^(l-1) beta^l P Omega^(.l) P^T of the ray.
    When both states' power l has rank 0 by the rank rule's noise floor,
    both sides are rounding noise and the residual is 0.0; otherwise it is
    max |LHS - RHS| over the larger of max |LHS| and max |RHS|.
    """
    # deferred import: invariants depends on this module
    from .invariants import _noise_floors, _rank, singular_values

    if partition.n != state.n or op.n != state.n:
        raise ValidationError("state, operator, and partition sizes must agree")
    ell = _require_power(ell, "power")
    (ray,), (norm,) = _rays([state])
    dets = op.determinants()
    alpha = complex(np.prod([dets[q - 1] for q in partition.rows]))
    beta = complex(np.prod([dets[q - 1] for q in partition.columns()]))
    p_mat = reduce(np.kron, [op.factors[q - 1] for q in partition.rows])
    moved = apply_local(PureState(state.n, ray), op)
    norms = (moved.norm(), norm)
    stacks = _power_stacks(np.stack((moved.amplitudes, ray)), norms, partition, ell)
    lhs = stacks[0, -1]
    with np.errstate(over="ignore", invalid="ignore"):  # refused below, not warned about
        try:
            prefactor = alpha ** (ell - 1) * beta**ell
        except OverflowError:
            prefactor = np.inf
        rhs = prefactor * (p_mat @ stacks[1, -1] @ p_mat.T)
    if not np.isfinite(rhs).all():
        raise ValidationError(f"power {ell} puts the congruence sides out of floating-point range")

    # P is invertible and the prefactor nonzero, so the RHS has the rank of
    # the original state's power l: only powers 1 and l need a spectrum
    sigmas = singular_values(stacks[:, sorted({0, ell - 1})])
    with np.errstate(over="ignore"):  # an infinite floor reads the power as vanished
        floors = _noise_floors(norms, sigmas[:, 0, 0], ell)[:, -1]
    if not _rank(sigmas[:, -1], floors).any():
        return CongruenceReport(alpha=alpha, beta=beta, residual=0.0)
    scale = max(np.max(np.abs(lhs)), np.max(np.abs(rhs)))
    residual = float(np.max(np.abs(lhs - rhs)) / scale)
    return CongruenceReport(alpha=alpha, beta=beta, residual=residual)
