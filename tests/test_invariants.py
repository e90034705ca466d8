"""Tests for ranks, singular values, determinants, and closed forms."""

import math

import numpy as np
import pytest

from spinflip import (
    AcinForm,
    OddInvariants,
    PureState,
    QubitPartition,
    RankProfile,
    ToleranceInconsistency,
    ValidationError,
    acin_state,
    apply_local,
    concurrence_even,
    default_rows,
    invariant_profile,
    odd_invariants,
    omega,
    omega_power_sequence,
    random_local,
    random_state,
    rank_profile,
    singular_values,
    standard_state,
    three_qubit_S,
)
from spinflip.invariants import (
    DEFAULT_RANK_TOL,
    NOISE_FLOOR,
    _partition_invariants,
    _peak_scaled,
    _rank,
)

import helpers
import oracles

RT2 = math.sqrt(2.0)
P12_3 = QubitPartition((1, 2), 3)


def test_default_rows():
    assert default_rows(2) == (1,)
    assert default_rows(3) == (1, 2)
    assert default_rows(5) == (1, 2)


def test_singular_values_zero_matrix():
    assert np.array_equal(singular_values(np.zeros((3, 3))), np.zeros(3))


def test_singular_values_w1_frozen():
    # squared singular values of the power-1 matrix are (1/8, 1/8, 0, 0)
    mat = omega(standard_state("w1"), P12_3).entries
    assert np.allclose(singular_values(mat) ** 2, [0.125, 0.125, 0, 0], atol=1e-15)


def test_singular_values_match_eigh_oracle():
    rng = np.random.default_rng(3100)
    for _ in range(20):
        mat = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        got = singular_values(mat)
        want = oracles.oracle_singular_values(mat)
        assert np.allclose(got, want, atol=1e-10)
        assert np.all(np.diff(got) <= 1e-14)  # descending


def test_singular_values_rejects_nonfinite():
    with pytest.raises(ValidationError):
        singular_values(np.array([[1.0, np.inf], [0.0, 1.0]]))


# The rank rule on one matrix m: _rank over its spectrum, with the noise
# floor NOISE_FLOOR * max |m| (the floor is 0 for the zero matrix).


def test_numerical_rank_bell_and_product():
    bell_omega = omega(standard_state("bell"), QubitPartition((1,), 2)).entries
    floor = NOISE_FLOOR * np.max(np.abs(bell_omega))
    assert _rank(singular_values(bell_omega), DEFAULT_RANK_TOL, floor) == 2
    zz = omega(standard_state("zeros", 2), QubitPartition((1,), 2)).entries
    floor = NOISE_FLOOR * np.max(np.abs(zz))
    assert _rank(singular_values(zz), DEFAULT_RANK_TOL, floor) == 0


def test_numerical_rank_threshold_contract():
    cases = [
        (np.diag([1.0, 1e-13, 0.0, 0.0]), 1),
        (np.diag([1.0, 1e-7, 0.0, 0.0]), 2),
        # relative semantics: a uniformly tiny but clean matrix keeps full rank
        (1e-20 * np.eye(3), 3),
        (np.zeros((2, 2)), 0),
    ]
    for m, rank in cases:
        floor = NOISE_FLOOR * np.max(np.abs(m))
        assert _rank(singular_values(m), DEFAULT_RANK_TOL, floor) == rank


def test_numerical_rank_validation():
    with pytest.raises(ValidationError):
        _rank(singular_values(np.eye(2)), 0.0, NOISE_FLOOR)
    nan_matrix = np.array([[np.nan, 0.0], [0.0, 1.0]])
    with pytest.raises(ValidationError):
        _rank(singular_values(nan_matrix), DEFAULT_RANK_TOL, 0.0)


def test_rank_profile_table_rows():
    assert rank_profile(standard_state("ghz", 3), P12_3, 3).ranks == (2, 2, 2)
    assert rank_profile(standard_state("w", 3), P12_3, 3).ranks == (2, 1, 0)
    assert rank_profile(standard_state("xi"), P12_3, 3).ranks == (2, 2, 2)


def test_rank_profile_records_tolerance():
    profile = rank_profile(standard_state("ghz", 3), P12_3, 2, tol=1e-8)
    assert profile.tolerance == 1e-8
    assert profile.ranks == (2, 2)


def test_rank_profile_monotonicity_enforced():
    with pytest.raises(ToleranceInconsistency):
        RankProfile(P12_3, (1, 2, 0), 1e-10)


def test_concurrence_bell():
    assert concurrence_even(standard_state("bell")) == pytest.approx(0.5, abs=1e-15)


def test_concurrence_zeta():
    # |zeta> = (1/sqrt3)|00> + (sqrt2/sqrt3)|11>
    amps = np.array([1 / math.sqrt(3), 0, 0, math.sqrt(2.0 / 3.0)], dtype=complex)
    zeta = PureState(2, amps)
    assert concurrence_even(zeta) == pytest.approx(RT2 / 3, abs=1e-15)


def test_concurrence_product_state():
    assert concurrence_even(standard_state("zeros", 4)) == 0.0


def test_concurrence_ghz_even_n():
    for n in (2, 4, 6, 8):
        assert concurrence_even(standard_state("ghz", n)) == pytest.approx(
            0.5, abs=1e-12
        )


def test_concurrence_rejects_odd_n():
    with pytest.raises(ValidationError):
        concurrence_even(standard_state("ghz", 3))


def test_concurrence_requires_normalized():
    bad = PureState(2, np.array([1.0, 1.0, 0, 0], dtype=complex), normalized=False)
    with pytest.raises(ValidationError):
        concurrence_even(bad)


def test_concurrence_matches_pair_sum_oracle():
    for seed in range(10):
        state = random_state(4, 3300 + seed)
        want = abs(oracles.oracle_pair_sum(state.amplitudes))
        assert concurrence_even(state) == pytest.approx(want, abs=1e-14)


def test_odd_invariants_ghz3():
    inv = odd_invariants(standard_state("ghz", 3))
    assert inv.e11 == pytest.approx(0.0, abs=1e-15)
    assert inv.e22 == pytest.approx(0.0, abs=1e-15)
    assert inv.e12 == pytest.approx(0.5, abs=1e-15)
    assert inv.delta == pytest.approx(0.5, abs=1e-15)
    assert inv.dee == pytest.approx(1 / 16, abs=1e-15)
    assert inv.t1 == pytest.approx(0.5, abs=1e-12)
    assert inv.t2 == pytest.approx(0.5, abs=1e-12)
    assert inv.ntangle == pytest.approx(0.25, abs=1e-15)


def test_odd_invariants_product_state():
    inv = odd_invariants(standard_state("zeros", 3))
    assert inv.e11 == inv.e12 == inv.e22 == 0.0
    assert inv.delta == inv.dee == inv.ntangle == 0.0
    assert inv.t1 == inv.t2 == 0.0


def test_odd_invariants_w_frozen():
    # hand evaluation: e11 = 2(a0 a3 - a1 a2) = -2/3, the other sums vanish
    inv = odd_invariants(standard_state("w", 3))
    assert inv.e11 == pytest.approx(-2.0 / 3.0, abs=1e-15)
    assert inv.e12 == pytest.approx(0.0, abs=1e-15)
    assert inv.e22 == pytest.approx(0.0, abs=1e-15)
    assert inv.delta == pytest.approx(4.0 / 9.0, abs=1e-15)
    assert inv.ntangle == pytest.approx(0.0, abs=1e-15)
    assert inv.t1 == pytest.approx(2.0 / 3.0, abs=1e-12)
    assert inv.t2 == pytest.approx(0.0, abs=1e-12)


def test_odd_invariants_w1_w2_delta():
    # Delta separates W1 from W2: 1/4 vs 3/8
    assert odd_invariants(standard_state("w1")).delta == pytest.approx(
        0.25, abs=1e-14
    )
    assert odd_invariants(standard_state("w2")).delta == pytest.approx(
        0.375, abs=1e-14
    )


def test_odd_invariants_ghz_odd_n():
    for n in (3, 5, 7):
        assert odd_invariants(standard_state("ghz", n)).ntangle == pytest.approx(
            0.25, abs=1e-12
        )


def test_odd_invariants_rejects_even_n():
    with pytest.raises(ValidationError):
        odd_invariants(standard_state("bell"))


def test_odd_invariants_type_validation():
    with pytest.raises(ValidationError):
        OddInvariants(
            e11=0j, e12=0.5 + 0j, e22=0j, delta=0.5, dee=1 / 16,
            t1=0.9, t2=0.5, ntangle=0.25,
        )


def test_three_qubit_s_examples():
    assert three_qubit_S(standard_state("w1")) ** 2 == pytest.approx(
        0.125, abs=1e-15
    )
    assert three_qubit_S(standard_state("w", 3)) == pytest.approx(
        RT2 / 3, abs=1e-15
    )
    assert three_qubit_S(standard_state("xi")) == pytest.approx(
        math.sqrt(3.0) / 4.0, abs=1e-15
    )
    assert three_qubit_S(standard_state("zeros", 3)) == 0.0


def test_three_qubit_s_acin_formula():
    # S^2 = l0^2 l2^2 + l0^2 l4^2 + |l1 l4 e^{i phi} - l2 l3|^2
    rng = np.random.default_rng(3400)
    for _ in range(25):
        raw = rng.uniform(0.1, 1.0, size=5)
        raw /= np.linalg.norm(raw)
        phi = float(rng.uniform(0, np.pi))
        form = AcinForm(*(float(x) for x in raw), phi=phi)
        l0, l1, l2, l3, l4 = form.lambdas()
        want = (
            l0**2 * l2**2
            + l0**2 * l4**2
            + abs(l1 * l4 * np.exp(1j * phi) - l2 * l3) ** 2
        )
        got = three_qubit_S(acin_state(form)) ** 2
        assert got == pytest.approx(want, abs=1e-12)


def test_three_qubit_s_rejects_other_n():
    with pytest.raises(ValidationError):
        three_qubit_S(standard_state("bell"))


def test_abs_det_ghz4_is_singular_value_product():
    state = standard_state("ghz", 4)
    part = QubitPartition((1, 2), 4)
    sigma = singular_values(omega(state, part).entries)
    assert np.allclose(sigma, [0.5, 0.5, 0, 0], atol=1e-15)
    got = _partition_invariants(state, part, 1).abs_dets[0]
    assert got == pytest.approx(float(np.prod(sigma)), abs=1e-15)
    assert got == 0.0


def test_abs_det_zero_state():
    zeros = standard_state("zeros", 4)
    assert _partition_invariants(zeros, QubitPartition((1, 2), 4), 1).abs_dets[0] == 0.0


def test_abs_det_matches_sigma_product():
    for seed in range(10):
        state = random_state(3, 3500 + seed)
        got = _partition_invariants(state, P12_3, 1).abs_dets[0]
        sigma = singular_values(omega(state, P12_3).entries)
        assert got == pytest.approx(float(np.prod(sigma)), rel=1e-10, abs=1e-14)


def la4_state(a):
    # a(|0000> + |0101> + |1010> + |1111>) + i|0001> + |0110> - i|1011>:
    # its rows {1,2} coefficient matrix is upper triangular with diagonal a
    amps = np.zeros(16, dtype=complex)
    amps[0] = amps[5] = amps[10] = amps[15] = a
    amps[1] = 1j
    amps[6] = 1.0
    amps[11] = -1j
    return PureState(4, amps, normalized=False)


def test_abs_dets_of_higher_powers_are_derived():
    # |det Omega^(l)| = |det Omega|^l, against the determinant of each power
    rng = np.random.default_rng(3900)
    for n in range(3, 7):
        for k in range(4):
            state = random_state(n, 3900 + 10 * n + k)
            part = helpers.random_partition(rng, n)
            dets = _partition_invariants(state, part, 3).abs_dets
            for ell in (2, 3):
                power = omega_power_sequence(state, part, ell)[-1]
                want = abs(np.linalg.det(power.entries))
                assert dets[ell - 1] == pytest.approx(want, rel=1e-10, abs=1e-15)


def test_abs_det_la4_family():
    part = QubitPartition((1, 2), 4)
    for a in (0.8, 0.6 + 0.3j, 1.5 - 0.2j):
        got = _partition_invariants(la4_state(a), part, 1).abs_dets[0]
        assert got == pytest.approx(abs(a) ** 8, rel=1e-12)


def test_even_concurrence_cross_check():
    # concurrence equals both singular values of the single-row-qubit matrix
    for i in range(50):
        n = 2 if i % 2 == 0 else 4
        state = random_state(n, 3600 + i)
        c = concurrence_even(state)
        sigma = singular_values(omega(state, QubitPartition((1,), n)).entries)
        assert abs(sigma[0] - sigma[1]) < 1e-12
        assert abs(c - sigma[0]) < 1e-10
        assert abs(c - sigma[1]) < 1e-10


def test_odd_t1_t2_cross_check():
    for i in range(50):
        n = 3 if i % 2 == 0 else 5
        state = random_state(n, 3700 + i)
        inv = odd_invariants(state)
        sigma = singular_values(omega(state, QubitPartition((1,), n)).entries)
        assert abs(inv.t1 - sigma[0]) < 1e-10
        assert abs(inv.t2 - sigma[1]) < 1e-10
        assert abs(inv.t1 * inv.t2 - inv.ntangle) < 1e-10


def test_three_qubit_degeneracy_pattern():
    # singular values of the rows {1,2} matrix are (S, S, 0, 0)
    for i in range(50):
        state = random_state(3, 3800 + i)
        s = three_qubit_S(state)
        sigma = singular_values(omega(state, P12_3).entries)
        assert np.allclose(sigma, [s, s, 0, 0], atol=1e-10)


def test_lu_invariance_of_singular_values_and_det():
    for i in range(50):
        n = 3 + i % 2
        state = random_state(n, 3900 + i)
        op = random_local(n, "unitary", 4000 + i)
        moved = apply_local(state, op)
        part = QubitPartition(default_rows(n), n)
        for ell in (1, 2, 3):
            sa = singular_values(omega_power_sequence(state, part, ell)[-1].entries)
            sb = singular_values(omega_power_sequence(moved, part, ell)[-1].entries)
            assert np.allclose(sa, sb, atol=1e-9)
        assert _partition_invariants(state, part, 1).abs_dets[0] == pytest.approx(
            _partition_invariants(moved, part, 1).abs_dets[0], abs=1e-9
        )


def test_rank_profile_invariant_under_invertible():
    for i in range(50):
        n = 3 + i % 2
        state = random_state(n, 4100 + i)
        op = random_local(n, "invertible", 4200 + i)
        part = QubitPartition(default_rows(n), n)
        before = rank_profile(state, part, 3).ranks
        after = rank_profile(apply_local(state, op), part, 3).ranks
        assert before == after


def test_closed_form_ranges():
    for i in range(50):
        c = concurrence_even(random_state(4, 4300 + i))
        assert 0.0 <= c <= 0.5 + 1e-12
        t = odd_invariants(random_state(3, 4400 + i)).ntangle
        assert 0.0 <= t <= 0.25 + 1e-12


def test_invariant_profile_shapes():
    prof3 = invariant_profile(standard_state("ghz", 3))
    assert prof3.n == 3
    assert prof3.concurrence is None
    assert prof3.odd is not None
    assert prof3.s_value == pytest.approx(0.5, abs=1e-15)
    assert prof3.partitions[0].rank_profile.ranks == (2, 2, 2)
    assert len(prof3.partitions[0].singular_values) == 3
    assert len(prof3.partitions[0].abs_dets) == 3

    prof4 = invariant_profile(standard_state("ghz", 4))
    assert prof4.concurrence == pytest.approx(0.5, abs=1e-12)
    assert prof4.odd is None
    assert prof4.s_value is None

    prof2 = invariant_profile(standard_state("bell"))
    assert prof2.concurrence == pytest.approx(0.5, abs=1e-15)
    assert prof2.partitions[0].rank_profile.partition.rows == (1,)


def test_invariant_profile_multiple_partitions():
    state = random_state(4, 4500)
    parts = [QubitPartition((1, 2), 4), QubitPartition((1, 3), 4)]
    prof = invariant_profile(state, parts, max_power=2)
    assert len(prof.partitions) == 2
    assert prof.partitions[1].rank_profile.partition.rows == (1, 3)
    assert len(prof.partitions[0].singular_values) == 2


def test_rank_tol_validation():
    with pytest.raises(ValidationError):
        rank_profile(standard_state("ghz", 3), P12_3, 3, tol=-1.0)


@pytest.mark.parametrize("max_power", [1, 3, 5])
def test_partition_invariants_one_svd_call(monkeypatch, max_power):
    calls = helpers.count_svd_calls(monkeypatch)
    for state, part in helpers.state_partition_cases(6, max_n=6, seed=4200):
        calls.clear()
        inv = _partition_invariants(state, part, max_power)
        d = 2**part.size
        assert calls == [(max_power, d, d)]
        assert len(inv.singular_values) == len(inv.abs_dets) == max_power


def test_stacked_spectra_bit_identical_to_per_power():
    # one stacked SVD gives, bit for bit, the spectra of per-power calls
    rng = np.random.default_rng(4300)
    for n in range(3, 9):
        rows = tuple(range(1, n // 2 + 1))
        parts = [QubitPartition(rows, n), QubitPartition(rows[::-1], n),
                 QubitPartition(tuple(range(n - 1, 0, -1)), n),
                 helpers.random_partition(rng, n)]
        for k, part in enumerate(parts):
            state = random_state(n, 4300 + 10 * n + k)
            inv = _partition_invariants(state, part, 3)
            seq = omega_power_sequence(state, part, 3)
            for got, om in zip(inv.singular_values, seq):
                assert got.ndim == 1
                assert np.array_equal(got, singular_values(om.entries))


def test_rank_rule_vectorised_matches_rowwise():
    rng = np.random.default_rng(4400)
    sigma = np.sort(rng.uniform(0, 1, (5, 4)), axis=-1)[:, ::-1]
    sigma[1, 2:] = 1e-13 * sigma[1, 0]
    sigma[2] = 0.0
    sigma[3] = [1e-20, 1e-21, 0.0, 0.0]
    floors = np.array([1e-12, 1e-12, 1e-12, 1e-12, 2.0])
    got = _rank(sigma, DEFAULT_RANK_TOL, floors)
    assert got.tolist() == [4, 2, 0, 0, 0]
    for row, floor, rank in zip(sigma, floors, got):
        assert int(_rank(row, DEFAULT_RANK_TOL, floor)) == rank
    # one spectrum gives one scalar rank
    rank = _rank(singular_values(np.eye(3)), DEFAULT_RANK_TOL, NOISE_FLOOR)
    assert rank.shape == () and rank == 3


SCALES = [1e-150, 1e-100, 1e-50, 1e50, 1e100, 1e150]


@pytest.mark.parametrize("scale", SCALES)
@pytest.mark.parametrize("name", ["GHZ", "W", "C-AB"])
def test_rank_profile_at_any_scale(name, scale):
    # ranks are properties of the ray; raw scales would underflow or
    # overflow Omega^(l), which scales as c^(2l)
    seed = helpers.class_seeds()[name]
    scaled = PureState(3, scale * seed.amplitudes, normalized=False)
    assert rank_profile(scaled, P12_3, 3).ranks == rank_profile(seed, P12_3, 3).ranks


def test_peak_scaled_is_exact_and_handles_subnormal_peaks():
    ghz = standard_state("ghz", 3)
    for scale in (1e-310, 3e-200, 1e250):
        raw = PureState(3, scale * (1 + 2j) * ghz.amplitudes, normalized=False)
        out = _peak_scaled(raw)
        peak = float(np.max(np.abs(out.amplitudes)))
        assert 0.5 <= peak < 1.0
        _, exp = math.frexp(float(np.max(np.abs(raw.amplitudes))))
        assert np.array_equal(out.amplitudes * 2.0**exp, raw.amplitudes)
        assert rank_profile(raw, P12_3, 3).ranks == (2, 2, 2)
    assert _peak_scaled(ghz) is ghz
