"""Tests for coefficient matrices, partitions, and local ranks."""

import math
import warnings

import numpy as np
import pytest

from spinflip import (
    PureState,
    QubitPartition,
    ValidationError,
    apply_local,
    coeff_matrix,
    local_rank,
    random_local,
    random_state,
    standard_state,
)
from spinflip.coeffmat import _local_index

import oracles

RT2 = math.sqrt(2.0)


def int_state(n):
    """Unnormalized state whose amplitude at index i is i, for layout tests."""
    return PureState(n, np.arange(2**n, dtype=complex))


def test_partition_basics():
    p = QubitPartition((2, 4), 5)
    assert p.size == 2
    assert p.columns() == (1, 3, 5)


def test_partition_validation():
    with pytest.raises(ValidationError):
        QubitPartition((), 3)
    with pytest.raises(ValidationError):
        QubitPartition((1, 2, 3), 3)  # must leave at least one column qubit
    with pytest.raises(ValidationError):
        QubitPartition((1, 1), 3)
    with pytest.raises(ValidationError):
        QubitPartition((0,), 3)
    with pytest.raises(ValidationError):
        QubitPartition((4,), 3)
    # labels and n are integers, never truncated
    for rows, n in (((1.9, 2.7), 3), ((1,), 3.0), (("1",), 3), (1, 3)):
        with pytest.raises(ValidationError, match="must be integers"):
            QubitPartition(rows, n)
    assert QubitPartition((np.int64(2),), np.int64(3)) == QubitPartition((2,), 3)


def test_row_qubit_one_layout():
    # rows={1} puts a_0..a_3 on the first row and a_4..a_7 on the second
    state = int_state(3)
    mat = coeff_matrix(state, QubitPartition((1,), 3))
    assert np.array_equal(mat, [[0, 1, 2, 3], [4, 5, 6, 7]])


def test_ghz_rows_12_layout():
    mat = coeff_matrix(standard_state("ghz", 3), QubitPartition((1, 2), 3))
    expected = np.array([[1 / RT2, 0], [0, 0], [0, 0], [0, 1 / RT2]])
    assert np.allclose(mat, expected)


def test_nonleading_rows_layout_frozen():
    # rows = (2, 4) on four qubits; frozen from the index-enumeration oracle:
    # row bits are (qubit2, qubit4), column bits (qubit1, qubit3) ascending
    state = int_state(4)
    part = QubitPartition((2, 4), 4)
    mat = coeff_matrix(state, part)
    expected = np.array(
        [[0, 2, 8, 10], [1, 3, 9, 11], [4, 6, 12, 14], [5, 7, 13, 15]]
    )
    assert np.array_equal(mat, expected)
    assert np.array_equal(
        mat, oracles.oracle_coeff_matrix(state.amplitudes, 4, (2, 4))
    )


def test_row_order_matters():
    # (4, 2) reverses which qubit supplies the most significant row bit
    state = int_state(4)
    swapped = coeff_matrix(state, QubitPartition((4, 2), 4))
    expected = np.array(
        [[0, 2, 8, 10], [4, 6, 12, 14], [1, 3, 9, 11], [5, 7, 13, 15]]
    )
    assert np.array_equal(swapped, expected)


def test_matches_oracle_on_random_states():
    cases = [
        (3, (1,)), (3, (2,)), (3, (3,)), (3, (1, 2)), (3, (2, 3)),
        (4, (1, 2)), (4, (2, 4)), (4, (3, 1)), (5, (2, 4)), (5, (5, 1, 3)),
    ]
    for seed, (n, rows) in enumerate(cases):
        state = random_state(n, 900 + seed)
        mat = coeff_matrix(state, QubitPartition(rows, n))
        assert np.allclose(
            mat, oracles.oracle_coeff_matrix(state.amplitudes, n, rows),
            atol=1e-15,
        )


def test_flatten_bijectivity():
    # leading contiguous rows + ascending columns is a plain reshape
    for n in (2, 3, 4, 5):
        state = random_state(n, 40 + n)
        for ell in range(1, n):
            part = QubitPartition(tuple(range(1, ell + 1)), n)
            flat = coeff_matrix(state, part).reshape(-1)
            assert np.array_equal(flat, state.amplitudes)


def test_entries_are_permutation_of_amplitudes():
    state = int_state(4)
    for rows in ((2,), (3, 1), (4, 2, 1)):
        mat = coeff_matrix(state, QubitPartition(rows, 4))
        assert sorted(mat.reshape(-1).real.astype(int)) == list(range(16))


def test_single_qubit_rank_at_most_two():
    for i in range(20):
        n = 2 + i % 4
        state = random_state(n, 60 + i)
        for q in range(1, n + 1):
            assert local_rank(state, q) <= 2


def test_local_rank_examples():
    assert local_rank(standard_state("zeros", 3), 1) == 1
    assert local_rank(standard_state("ghz", 3), 2) == 2
    # canonical form with l2 = 0, l3 != 0: qubit 3 stays in |0>
    from spinflip import AcinForm, acin_state

    form = AcinForm(0.6, 0.2, 0.0, math.sqrt(1 - 0.36 - 0.04), 0.0)
    assert local_rank(acin_state(form), 3) == 1
    assert local_rank(acin_state(form), 1) == 2


def test_local_rank_has_no_zero_state():
    # PureState refuses the zero vector, so local_rank keeps no zero branch
    # and no warning; the tiniest nonzero state factors on every qubit
    with pytest.raises(ValidationError, match="all zero"):
        PureState(2, np.zeros(4, dtype=complex))
    tiniest = PureState(2, np.array([5e-324, 0, 0, 0]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert [local_rank(tiniest, q) for q in (1, 2)] == [1, 1]


def test_local_rank_of_a_subnormal_vector_is_a_property_of_its_ray():
    # rounding to subnormals leaves this product vector with
    # sigma_2 / sigma_1 = 1.8e-4; read at its raw scale, sigma_2 ~ 1.8e-324
    # comes back 0 from the SVD, so the rank is read at the norm scale
    tiny = PureState(2, np.kron([0.6, 0.8], [0.6, 0.8j]) * 1e-320)
    exact = PureState(2, tiny.amplitudes * 2.0**1000)
    for q in (1, 2):
        assert local_rank(tiny, q) == local_rank(exact, q) == 2


def test_local_rank_validation():
    state = standard_state("ghz", 3)
    with pytest.raises(ValidationError):
        local_rank(state, 0)
    with pytest.raises(ValidationError):
        local_rank(state, 4)
    one_qubit = PureState(1, np.array([1.0, 0.0], dtype=complex))
    with pytest.raises(ValidationError):
        local_rank(one_qubit, 1)


def test_local_rank_unitary_invariance():
    for i in range(50):
        n = 3 + i % 2
        state = random_state(n, 1000 + i)
        op = random_local(n, "unitary", 2000 + i)
        moved = apply_local(state, op)
        for q in range(1, n + 1):
            assert local_rank(moved, q) == local_rank(state, q)


def test_partition_state_mismatch():
    with pytest.raises(ValidationError):
        coeff_matrix(standard_state("ghz", 3), QubitPartition((1,), 4))


def test_coeff_matrix_type_validation():
    # a read-only complex array of the partition's shape, whether the
    # reshape returns a view of the amplitudes (rows {1}) or a copy
    state = random_state(4, 4600)
    for rows in ((1,), (3, 1, 4)):
        mat = coeff_matrix(state, QubitPartition(rows, 4))
        assert type(mat) is np.ndarray
        assert mat.dtype == complex
        assert mat.shape == (2 ** len(rows), 2 ** (4 - len(rows)))
        with pytest.raises(ValueError):
            mat[0, 0] = 1.0


def test_local_index_gathers_single_qubit_matrices():
    # one gather gives every C_k, bit for bit, from a cached read-only table
    for n in range(2, 9):
        state = random_state(n, 4500 + n)
        table = _local_index(n)
        assert table.shape == (n, 2, 2 ** (n - 1))
        assert not table.flags.writeable
        assert _local_index(n) is table
        stack = state.amplitudes[table]
        for k in range(n):
            want = coeff_matrix(state, QubitPartition((k + 1,), n))
            assert np.array_equal(stack[k], want)
