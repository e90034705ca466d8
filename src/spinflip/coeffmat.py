"""Coefficient matrices of a pure state for an ordered qubit partition.

The coefficient matrix C_{q1..ql} puts the bits of the chosen row qubits
q_1..q_l (in the given order, most significant first) on the row index and
the bits of the remaining qubits, in ascending label order, on the column
index. Entry (r, c) is the amplitude whose index combines those bits.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ValidationError
from .states import PureState, _peak_scaled


@dataclass(frozen=True)
class QubitPartition:
    """Ordered choice of row qubits q_1..q_l out of n, labels in 1..n."""

    rows: tuple[int, ...]
    n: int

    def __post_init__(self):
        try:
            rows, n = tuple(operator.index(q) for q in self.rows), operator.index(self.n)
        except TypeError:
            raise ValidationError(
                f"qubit labels and n must be integers, got {self.rows!r} of {self.n!r}"
            ) from None
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


def coeff_matrix(state: PureState, partition: QubitPartition) -> np.ndarray:
    """The partition's coefficient matrix, a read-only (2^i, 2^(n-i)) array.

    Axis k of the reshaped tensor is qubit k+1 (most significant bit first),
    so moving the row-qubit axes to the front and flattening gives the
    matrix directly.
    """
    if partition.n != state.n:
        raise ValidationError(
            f"partition is for n={partition.n} but state has n={state.n}"
        )
    n, ell = state.n, partition.size
    tensor = state.amplitudes.reshape([2] * n)
    order = [q - 1 for q in partition.rows] + [q - 1 for q in partition.columns()]
    mat = tensor.transpose(order).reshape(2**ell, 2 ** (n - ell))
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


def _local_ranks(state: PureState) -> tuple[int, ...]:
    """Ranks of all n single-qubit coefficient matrices C_1..C_n, from one
    gather and one stacked SVD."""
    # deferred import: invariants depends on this module
    from .invariants import _rank, singular_values

    # no noise floor: sigma_1(C_k) >= ||a|| / sqrt(2) for every nonzero state
    stack = state.amplitudes[_local_index(state.n)]
    return tuple(_rank(singular_values(stack), 0.0).tolist())


def local_rank(state: PureState, qubit: int) -> int:
    """Numerical rank of the single-qubit coefficient matrix C_qubit.

    Rank 1 certifies the qubit factors out of the rest of the state.
    """
    if state.n < 2:
        raise ValidationError("local_rank needs at least 2 qubits")
    if not 1 <= qubit <= state.n:
        raise ValidationError(f"qubit label {qubit} out of range 1..{state.n}")
    return _local_ranks(_peak_scaled(state))[qubit - 1]
