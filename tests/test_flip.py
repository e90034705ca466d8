"""Tests for kernels, spin-flipping matrices, powers, and the congruence."""

import itertools
import math
import warnings

import numpy as np
import pytest

from spinflip import (
    CongruenceReport,
    LocalOperator,
    OmegaMatrix,
    PureState,
    QubitPartition,
    ValidationError,
    apply_local,
    invariant_profile,
    omega,
    omega_power_sequence,
    random_local,
    random_state,
    rank_profile,
    standard_state,
    verify_congruence,
)
from spinflip.flip import _power_stacks, _require_power_one, _times_kernel
from spinflip.states import parity_signs

import helpers
import oracles

RT2 = math.sqrt(2.0)
RT3 = math.sqrt(3.0)


def kernel(k):
    """v^{(x)k} as the fast right-multiplication applies it."""
    return _times_kernel(np.eye(2**k), k)


def test_kernel_order_zero_is_identity():
    assert np.array_equal(kernel(0), [[1.0]])
    assert np.array_equal(kernel(0), oracles.oracle_kernel(0))


def test_kernel_order_one():
    assert np.array_equal(kernel(1), [[0, 1], [-1, 0]])
    assert np.array_equal(kernel(1), oracles.oracle_kron_kernel(1))


def test_kernel_order_two_frozen():
    # one nonzero per row on the anti-diagonal, sign (-1)^{parity(row)};
    # cross-checked against the Kronecker-product oracle
    expected = np.array(
        [[0, 0, 0, 1], [0, 0, -1, 0], [0, -1, 0, 0], [1, 0, 0, 0]]
    )
    assert np.array_equal(kernel(2), expected)
    assert np.array_equal(kernel(2), oracles.oracle_kron_kernel(2))


def test_kernel_closed_form_matches_kron():
    for k in range(7):
        mat = kernel(k)
        assert np.array_equal(mat, oracles.oracle_kernel(k))
        assert np.array_equal(mat, oracles.oracle_kron_kernel(k))


def test_kernel_is_orthogonal_with_unit_entries():
    for k in range(7):
        mat = kernel(k)
        assert set(np.unique(mat)) <= {-1.0, 0.0, 1.0}
        assert np.array_equal(mat.T @ mat, np.eye(2**k))


def test_kernel_matrix_immutable():
    # the cached sign table behind the kernel is shared, so it is read-only
    with pytest.raises(ValueError):
        parity_signs(2)[0] = 5.0
    assert parity_signs(2) is parity_signs(2)


def test_two_qubit_omega_formula():
    # power-1 matrix of any 2-qubit state is (a0 a3 - a1 a2) v
    for seed in range(5):
        state = random_state(2, 7100 + seed)
        a = state.amplitudes
        got = omega(state, QubitPartition((1,), 2)).entries
        factor = a[0] * a[3] - a[1] * a[2]
        assert np.allclose(got, factor * np.array([[0, 1], [-1, 0]]), atol=1e-15)


def test_ghz3_omega_frozen():
    got = omega(standard_state("ghz", 3), QubitPartition((1, 2), 3)).entries
    expected = np.zeros((4, 4))
    expected[0, 3] = 0.5
    expected[3, 0] = -0.5
    assert np.allclose(got, expected, atol=1e-15)


def test_zeros_omega_is_zero():
    got = omega(standard_state("zeros", 3), QubitPartition((1, 2), 3)).entries
    assert np.array_equal(got, np.zeros((4, 4)))


def test_w_omega_frozen():
    # hand-multiplied from C = (1/sqrt3) [[0,1],[1,0],[1,0],[0,0]]
    got = omega(standard_state("w", 3), QubitPartition((1, 2), 3)).entries
    expected = np.array(
        [[0, -1, -1, 0], [1, 0, 0, 0], [1, 0, 0, 0], [0, 0, 0, 0]]
    ) / 3.0
    assert np.allclose(got, expected, atol=1e-15)


def test_vartheta_omega_frozen():
    got = omega(standard_state("vartheta"), QubitPartition((1, 2), 3)).entries
    expected = np.array(
        [[0, 0, 1, 0], [0, 0, 0, 0], [-1, 0, 0, -1], [0, 0, 1, 0]]
    ) / 3.0
    assert np.allclose(got, expected, atol=1e-15)


def test_xi_omega_frozen():
    got = omega(standard_state("xi"), QubitPartition((1, 2), 3)).entries
    expected = np.array(
        [[0, 0, 0, -1], [0, 0, 0, -1], [0, 0, 0, -1], [1, 1, 1, 0]]
    ) / 4.0
    assert np.allclose(got, expected, atol=1e-15)


def test_omega_matches_dense_oracle():
    for i, (state, part) in enumerate(helpers.state_partition_cases(30)):
        got = omega(state, part).entries
        want = oracles.oracle_omega(state.amplitudes, state.n, part.rows)
        assert np.allclose(got, want, atol=1e-13), f"case {i}"


def test_omega_power_one_equals_omega():
    state = random_state(3, 71)
    part = QubitPartition((1, 2), 3)
    assert np.array_equal(
        omega_power_sequence(state, part, 1)[-1].entries, omega(state, part).entries
    )


def test_ghz3_power_sequence_frozen():
    # power 2 = (1/4)(E03 + E30), power 3 = (1/8)(E03 - E30)
    seq = omega_power_sequence(
        standard_state("ghz", 3), QubitPartition((1, 2), 3), 3
    )
    p2 = np.zeros((4, 4))
    p2[0, 3] = p2[3, 0] = 0.25
    p3 = np.zeros((4, 4))
    p3[0, 3], p3[3, 0] = 0.125, -0.125
    assert np.allclose(seq[1].entries, p2, atol=1e-15)
    assert np.allclose(seq[2].entries, p3, atol=1e-15)
    assert [m.power for m in seq] == [1, 2, 3]


def test_w_power_two_rank_one_and_power_three_zero():
    w = standard_state("w", 3)
    part = QubitPartition((1, 2), 3)
    p2 = omega_power_sequence(w, part, 2)[-1].entries
    expected = np.zeros((4, 4))
    expected[0, 0] = 2.0 / 9.0
    assert np.allclose(p2, expected, atol=1e-15)
    assert np.linalg.matrix_rank(p2) == 1
    # the recursion hits an exact zero at power 3
    p3 = omega_power_sequence(w, part, 3)[-1].entries
    assert np.array_equal(p3, np.zeros((4, 4)))


def test_ghz3_power_three_rank_two():
    seq = omega_power_sequence(standard_state("ghz", 3), QubitPartition((1, 2), 3), 3)
    p3 = seq[-1]
    assert np.linalg.matrix_rank(p3.entries) == 2


def test_w1_power_two_frozen():
    # the recursion collapses W1's power-2 matrix to a single entry -1/8
    seq = omega_power_sequence(standard_state("w1"), QubitPartition((1, 2), 3), 2)
    p2 = seq[-1].entries
    expected = np.zeros((4, 4))
    expected[2, 2] = -0.125
    assert np.allclose(p2, expected, atol=1e-15)


def test_w2_power_two_frozen():
    # single entry -2 l0 l2^2 l3 = -sqrt(3)/16
    seq = omega_power_sequence(standard_state("w2"), QubitPartition((1, 2), 3), 2)
    p2 = seq[-1].entries
    expected = np.zeros((4, 4))
    expected[2, 2] = -math.sqrt(3.0) / 16.0
    assert np.allclose(p2, expected, atol=1e-15)


def test_power_two_variant_sweep():
    """Regression freezing what the power-2 recursion actually yields for W1
    and W2, and that no rescaled or kernel-free variant produces two equal
    nonzero singular values that still distinguish the pair.

    The recursion gives squared singular values (1/64, 0, 0, 0) for W1 and
    (3/256, 0, 0, 0) for W2: single nonzero values whose 1/64 multiples are
    1/4096 and 3/16384, the superseded criterion-2 targets, which also had
    two equal nonzero values. Squaring without the kernel does produce a
    doubled pair, but its value is the fourth power of S and W1, W2 share S,
    so that variant cannot tell them apart.
    """
    part = QubitPartition((1, 2), 3)
    w1 = standard_state("w1")
    w2 = standard_state("w2")
    om1 = omega(w1, part).entries
    om2 = omega(w2, part).entries

    p2_1 = omega_power_sequence(w1, part, 2)[-1].entries
    p2_2 = omega_power_sequence(w2, part, 2)[-1].entries
    sq1 = np.linalg.svd(p2_1, compute_uv=False) ** 2
    sq2 = np.linalg.svd(p2_2, compute_uv=False) ** 2
    assert np.allclose(sq1, [1 / 64, 0, 0, 0], atol=1e-15)
    assert np.allclose(sq2, [3 / 256, 0, 0, 0], atol=1e-15)
    # the superseded criterion-2 targets are exactly 1/64 of these
    assert np.isclose(sq1[0] / 64, 1 / 4096)
    assert np.isclose(sq2[0] / 64, 3 / 16384)

    plain1 = np.linalg.svd(om1 @ om1, compute_uv=False) ** 2
    plain2 = np.linalg.svd(om2 @ om2, compute_uv=False) ** 2
    assert np.allclose(plain1, [1 / 64, 1 / 64, 0, 0], atol=1e-15)
    assert np.allclose(plain1, plain2, atol=1e-15)  # indistinguishable


def test_omega_power_matches_dense_oracle():
    for i, (state, part) in enumerate(helpers.state_partition_cases(20)):
        for ell in (2, 3):
            got = omega_power_sequence(state, part, ell)[-1].entries
            want = oracles.oracle_omega_power(
                state.amplitudes, state.n, part.rows, ell
            )
            assert np.allclose(got, want, atol=1e-12), f"case {i} power {ell}"


def test_omega_power_sequence_consistent():
    state = random_state(4, 77)
    part = QubitPartition((2, 3), 4)
    seq = omega_power_sequence(state, part, 3)
    for ell, item in enumerate(seq, start=1):
        last = omega_power_sequence(state, part, ell)[-1]
        assert np.array_equal(item.entries, last.entries)


def test_omega_power_sequence_matches_the_stack():
    # the sequence's entries are read-only copies of the stacked recursion's
    # rows, and each row is exactly the two-step recursion product
    rng = np.random.default_rng(4100)
    for n in range(3, 7):
        state = random_state(n, 4100 + n)
        part = helpers.random_partition(rng, n)
        stack = _power_stacks(state.amplitudes[None], [state.norm()], part, 4)[0]
        seq = omega_power_sequence(state, part, 4)
        assert stack.shape == (4,) + seq[0].entries.shape
        assert not stack.flags.writeable
        with pytest.raises(ValueError):
            stack[1, 0, 0] = 1.0
        base = omega(state, part).entries
        current = base
        for ell, item in enumerate(seq, start=1):
            assert item.power == ell
            assert not item.entries.flags.writeable
            assert np.array_equal(item.entries, stack[ell - 1])
            assert np.array_equal(item.entries, current)
            current = _times_kernel(current, part.size) @ base


def test_omega_matrix_copies_the_callers_array():
    # freezing the entries must not freeze the array the caller passed in
    part = QubitPartition((1,), 2)
    mat = omega(standard_state("bell"), part).entries.copy()
    om = OmegaMatrix(part, 1, mat)
    mat[0, 0] = 7.0
    assert mat.flags.writeable and om.entries[0, 0] != 7.0
    assert not om.entries.flags.writeable


def test_power_one_checked_once_per_sequence(monkeypatch):
    # one OmegaMatrix per power of a sequence, each a copy of a stack row
    built = []
    post_init = OmegaMatrix.__post_init__

    def counting(self):
        built.append(self.power)
        post_init(self)

    monkeypatch.setattr(OmegaMatrix, "__post_init__", counting)
    state = random_state(4, 4200)
    part = QubitPartition((1, 3), 4)
    for max_power in (1, 3):
        built.clear()
        seq = omega_power_sequence(state, part, max_power)
        assert built == list(range(1, max_power + 1))
        stack = _power_stacks(state.amplitudes[None], [state.norm()], part, max_power)[0]
        for ell, item in enumerate(seq, start=1):
            assert np.array_equal(item.entries, stack[ell - 1])
            assert not item.entries.flags.writeable
    # verify_congruence checks both states' power 1 in one batch
    checked = []

    def recording(mats, partition, scale):
        checked.append(mats.shape)
        _require_power_one(mats, partition, scale)

    monkeypatch.setattr("spinflip.flip._require_power_one", recording)
    op = random_local(4, "invertible", 4201)
    built.clear()
    assert verify_congruence(state, op, part, 1).residual < 1e-10
    assert (built, checked) == ([], [(2, 4, 4)])


def test_congruence_decomposes_powers_one_and_ell_once(monkeypatch):
    # one stacked SVD of both sides' powers 1 and l; at l = 1 that is one
    # matrix per side, not power 1 twice
    state = standard_state("ghz", 3)
    op = random_local(3, "invertible", 4210)
    part = QubitPartition((1, 2), 3)
    calls = helpers.count_svd_calls(monkeypatch)
    for ell, shape in ((1, (2, 1, 4, 4)), (3, (2, 2, 4, 4))):
        calls.clear()
        assert verify_congruence(state, op, part, ell).residual < 1e-12
        assert calls == [shape]


def test_power_validation():
    state = random_state(2, 3)
    part = QubitPartition((1,), 2)
    op = random_local(2, "unitary", 4)
    with pytest.raises(ValidationError, match="power must be >= 1, got 0"):
        verify_congruence(state, op, part, 0)
    with pytest.raises(ValidationError):
        omega_power_sequence(state, part, 0)
    with pytest.raises(ValidationError):
        _power_stacks(state.amplitudes[None], [state.norm()], part, 0)
    # a non-integer power is refused, not truncated or left to numpy
    ghz3, w3 = standard_state("ghz", 3), standard_state("w", 3)
    op3 = random_local(3, "unitary", 5)
    for call in (
        lambda: rank_profile(ghz3, QubitPartition((1, 2), 3), 2.5),
        lambda: invariant_profile(w3, None, 2.5),
        lambda: verify_congruence(w3, op3, QubitPartition((1,), 3), 2.5),
        lambda: omega_power_sequence(w3, QubitPartition((1,), 3), 2.5),
    ):
        with pytest.raises(ValidationError, match="must be an integer, got 2.5"):
            call()
    with pytest.raises(ValidationError, match="power must be >= 1, got 0"):
        OmegaMatrix(part, 0, omega(state, part).entries)
    with pytest.raises(ValidationError, match="power must be an integer, got 2.5"):
        OmegaMatrix(part, 2.5, omega(state, part).entries)
    for residual in (-1.0, math.nan):
        with pytest.raises(ValidationError, match="residual must be >= 0"):
            CongruenceReport(alpha=1.0, beta=1.0, residual=residual)


def test_parity_symmetry_property():
    # omega is symmetric when n-i is even, skew-symmetric when odd
    for state, part in helpers.state_partition_cases(200, seed=7300):
        mat = omega(state, part).entries
        sign = -1.0 if (state.n - part.size) % 2 else 1.0
        scale = max(float(np.max(np.abs(mat))), 1.0)
        assert np.max(np.abs(mat.T - sign * mat)) <= 1e-12 * scale


def test_omega_matrix_symmetry_enforced():
    part = QubitPartition((1,), 3)  # n - i = 2, so power 1 must be symmetric
    bad = np.array([[0.0, 1.0], [-1.0, 0.0]])
    # the parity check runs where power 1 is built, against the state's norm
    with pytest.raises(ValidationError, match="fails its symmetric invariant"):
        _require_power_one(bad[None], part, np.ones(1))
    # a hand-built matrix carries no norm to judge it by: a plain record
    assert np.array_equal(OmegaMatrix(part, 1, bad).entries, bad)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("power", [1, 2])
def test_omega_matrix_rejects_non_finite_entries(power, bad):
    # refused as entries, without a warning, at any power
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match="^entries must be finite$"):
            OmegaMatrix(QubitPartition((1,), 3), power, [[bad, 0.0], [0.0, 1.0]])


def test_congruence_identity_operator():
    state = random_state(3, 500)
    op = LocalOperator((np.eye(2),) * 3)
    report = verify_congruence(state, op, QubitPartition((1, 2), 3), 2)
    assert report.alpha == pytest.approx(1.0)
    assert report.beta == pytest.approx(1.0)
    assert report.residual < 1e-12


def test_congruence_property_suite():
    # residual < 1e-8 over 100 seeded trials, n in {2,3,4}, powers 1..3,
    # both operator kinds
    for state, op, part, ell in helpers.congruence_cases(100):
        report = verify_congruence(state, op, part, ell)
        assert report.residual < 1e-8
    # W over every row subset, n = 2..5, powers 1..4: a power the exact
    # oracle finds zero is zero on both sides and reads 0.0, any other < 1e-12
    vanished = set()
    for n in range(2, 6):
        w, w_int = standard_state("w", n), oracles.integer_class_seeds(n)["W"]
        op = random_local(n, "invertible", 8200 + n)
        for size in range(1, n):
            for rows in itertools.combinations(range(1, n + 1), size):
                part = QubitPartition(rows, n)
                for ell in range(1, 5):
                    residual = verify_congruence(w, op, part, ell).residual
                    if oracles.exact_rank(oracles.exact_omega_power(w_int, n, rows, ell)):
                        assert residual < 1e-12, (n, rows, ell)
                    else:
                        assert residual == 0.0, (n, rows, ell)
                        vanished.add((n, rows, ell))
    assert {(3, (1,), 2), (3, (1, 2), 3)} <= vanished


def test_exact_oracle_ranks_and_vanishing_powers():
    # Gaussian-integer SLOCC images of integer class seeds: their floats are
    # the exact states, so the float ranks must be the exact ones. A second
    # such operator takes the congruence sides past 2^53, where rounding
    # noise fills a power that is exactly zero: it must read residual 0.0
    vanished = 0
    for n in (3, 4):
        part = QubitPartition((1, 2), n)
        for name, seed in oracles.integer_class_seeds(n).items():
            for trial in range(5):
                image = oracles.exact_apply_local(
                    seed, oracles.gaussian_integer_factors(n, 8300 + 10 * n + trial)
                )
                exact = [
                    oracles.exact_rank(oracles.exact_omega_power(amps, n, (1, 2), ell))
                    for amps in (seed, image) for ell in (1, 2, 3)
                ]
                assert exact[:3] == exact[3:], name  # SLOCC keeps every rank
                state = PureState(n, image.astype(complex))
                assert list(rank_profile(state, part, 3).ranks) == exact[3:], name
                factors = oracles.gaussian_integer_factors(n, 8400 + 10 * n + trial)
                op = LocalOperator(np.array(factors, dtype=complex), "invertible")
                for ell, rank in enumerate(exact[3:], start=1):
                    residual = verify_congruence(state, op, part, ell).residual
                    if rank:
                        assert residual < 1e-12, (name, trial, ell)
                    else:
                        assert residual == 0.0, (name, trial, ell)
                        vanished += 1
    assert vanished == 65


def test_congruence_reads_any_scale():
    # both sides scale as c^(2l): read at raw scale, power 1 of GHZ3 x 1e-160
    # sits in subnormals (a relative residual of 2.6e-3), and power 2 of
    # GHZ3 x 1e100 overflows
    ghz = standard_state("ghz", 3)
    op = random_local(3, "unitary", 5)
    part = QubitPartition((1, 2), 3)
    for scale in (1e-160, 1e100):
        scaled = PureState(3, scale * ghz.amplitudes)
        for ell in (1, 2, 3):
            assert verify_congruence(scaled, op, part, ell).residual < 1e-12


def test_power_one_check_scales_with_the_state_norm():
    # this operator moves a normalized state to norm^2 32,055, whose power-1
    # entries cancel to max |Omega| 1.14: a defect of 4.2e-17 norm^2 is
    # rounding, not a broken symmetry
    state = random_state(7, 4743)
    op = random_local(7, "invertible", 4744)
    report = verify_congruence(state, op, QubitPartition((3, 2), 7), 1)
    assert report.residual < 1e-11
    # omega of the moved state passes the same check: its skew defect,
    # 1.35e-12 where this test was written, is above 1e-12 max |Omega| but
    # far below 1e-12 norm^2
    moved = apply_local(state, op)
    mat = omega(moved, QubitPartition((3, 2), 7)).entries
    assert mat.shape == (4, 4)
    assert np.abs(mat + mat.T).max() < 1e-12 * np.sum(np.abs(moved.amplitudes) ** 2)
    # a peak of 1e155 overflows sum |a_i|^2, but no entry of this power 1,
    # which must come out without a warning
    lone = PureState(2, np.array([1e155, 0, 0, 0], dtype=complex))
    assert not omega(lone, QubitPartition((1,), 2)).entries.any()


def test_congruence_of_a_flat_unnormalized_state_at_a_high_power():
    # a unitary operator keeps every power in range, so the unnormalized
    # state reads its normalized copy's residual, not an out-of-range power
    flat, unit = helpers.flat8()
    op = random_local(8, "unitary", 7)
    part = QubitPartition((1, 2, 3, 4), 8)
    assert verify_congruence(unit, op, part, 300).residual == 0.0
    assert verify_congruence(flat, op, part, 300).residual == 0.0


def test_congruence_alpha_beta_are_det_products():
    state = random_state(4, 41)
    op = random_local(4, "invertible", 42)
    part = QubitPartition((2, 4), 4)
    report = verify_congruence(state, op, part, 1)
    dets = [np.linalg.det(f) for f in op.factors]
    assert report.alpha == pytest.approx(dets[1] * dets[3])
    assert report.beta == pytest.approx(dets[0] * dets[2])


def test_scale_covariance():
    # a -> s a multiplies the power-l matrix by s^(2l)
    s = 1.7 - 0.3j
    for i, (state, part) in enumerate(helpers.state_partition_cases(20, seed=7500)):
        scaled = PureState(state.n, s * state.amplitudes)
        for ell in (1, 2, 3):
            base = omega_power_sequence(state, part, ell)[-1].entries
            got = omega_power_sequence(scaled, part, ell)[-1].entries
            assert np.allclose(got, s ** (2 * ell) * base, rtol=1e-12, atol=1e-12)


def test_rank_equality_under_invertible_transform():
    # congruence by invertible factors preserves rank; same trial set
    for state, op, part, _ in helpers.congruence_cases(100):
        before = rank_profile(state, part, 3).ranks
        after = rank_profile(apply_local(state, op), part, 3).ranks
        assert before == after


def test_size_mismatch_errors():
    state = random_state(3, 1)
    with pytest.raises(ValidationError):
        verify_congruence(
            state, random_local(2, "unitary", 2), QubitPartition((1,), 3), 1
        )
    with pytest.raises(ValidationError):
        verify_congruence(
            state, random_local(3, "unitary", 2), QubitPartition((1,), 2), 1
        )
