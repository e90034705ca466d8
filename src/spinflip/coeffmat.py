"""Coefficient matrices of a pure state for an ordered qubit partition.

The coefficient matrix C_{q1..ql} puts the bits of the chosen row qubits
q_1..q_l (in the given order, most significant first) on the row index and
the bits of the remaining qubits, in ascending label order, on the column
index. Entry (r, c) is the amplitude whose index combines those bits.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ValidationError
from .states import PureState, _integer, _rays, _require_qubits


@dataclass(frozen=True)
class QubitPartition:
    """Ordered choice of row qubits q_1..q_l out of n, labels in 1..n."""

    rows: tuple[int, ...]
    n: int

    def __post_init__(self):
        n = _require_qubits(self.n)
        try:
            rows = tuple(_integer(q, "qubit label") for q in self.rows)
        except TypeError:  # not a sequence, such as a bare label
            raise ValidationError(f"rows must be a sequence of labels, got {self.rows!r}") from None
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "n", n)
        if not 1 <= len(rows) <= n - 1:
            raise ValidationError(
                f"partition must pick between 1 and n-1 qubits, got {len(rows)} of {n}"
            )
        if len(set(rows)) != len(rows):
            raise ValidationError(f"row qubits must be distinct, got {rows}")
        for q in rows:
            if not 1 <= q <= n:
                raise ValidationError(f"qubit label {q} out of range 1..{n}")

    @property
    def size(self) -> int:
        """Number of row qubits (the partition size i)."""
        return len(self.rows)

    def columns(self) -> tuple[int, ...]:
        """Column qubits in ascending label order."""
        return tuple(q for q in range(1, self.n + 1) if q not in self.rows)


def _coeff_matrices(amps: np.ndarray, partition: QubitPartition) -> np.ndarray:
    """The partition's coefficient matrices of an (S, 2^n) amplitude stack,
    one (S, 2^i, 2^(n-i)) array from one transpose.

    Axis k+1 of the reshaped amplitude stack is qubit k+1 (most significant
    bit first), so moving the row-qubit axes to the front of each state and
    flattening gives the matrices directly.
    """
    n, ell = partition.n, partition.size
    if amps.shape[-1] != 2**n:
        raise ValidationError(
            f"partition is for n={n} but state has n={amps.shape[-1].bit_length() - 1}"
        )
    order = [0] + list(partition.rows) + list(partition.columns())
    return amps.reshape([-1] + [2] * n).transpose(order).reshape(-1, 2**ell, 2 ** (n - ell))


def coeff_matrix(state: PureState, partition: QubitPartition) -> np.ndarray:
    """The partition's coefficient matrix, a read-only (2^i, 2^(n-i)) array."""
    mat = _coeff_matrices(state.amplitudes[None], partition)[0]
    mat.setflags(write=False)
    return mat


@lru_cache(maxsize=None)
def _local_index(n: int) -> np.ndarray:
    """Read-only (n, 2, 2^(n-1)) table of amplitude indices: entry [k, r, c]
    of the stack of single-qubit coefficient matrices C_1..C_n.

    Moving qubit k's axis to the front keeps the other qubits in ascending
    label order, which is coeff_matrix's column order for the partition (k,).
    """
    index = np.arange(2**n).reshape([2] * n)
    table = np.stack([np.moveaxis(index, k, 0).reshape(2, -1) for k in range(n)])
    table.setflags(write=False)
    return table


def _local_ranks(states) -> list[tuple[int, ...]]:
    """Ranks of all n single-qubit coefficient matrices C_1..C_n of each
    state's ray, from one gather and one stacked SVD."""
    # deferred import: invariants depends on this module
    from .invariants import _rank, singular_values

    n = states[0].n
    # no noise floor: sigma_1(C_k) >= ||a|| / sqrt(2) for every nonzero state
    stack = _rays(states)[0][:, _local_index(n)]
    ranks = _rank(singular_values(stack.reshape(-1, 2, 2 ** (n - 1))), 0.0)
    return [tuple(row) for row in ranks.reshape(len(states), n).tolist()]


def local_rank(state: PureState, qubit: int) -> int:
    """Numerical rank of the single-qubit coefficient matrix C_qubit.

    Rank 1 certifies the qubit factors out of the rest of the state.
    """
    (qubit,) = QubitPartition((qubit,), state.n).rows
    return _local_ranks([state])[0][qubit - 1]
