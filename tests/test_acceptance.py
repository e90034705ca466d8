"""Acceptance checklist: one numbered criterion per test, tolerances pinned.

Criterion 2 is split into its three claims so each gets its own pass/fail
line. Its power-2 reference spectra for the w1/w2 pair are the hand-reduced
values (1/64, 0, 0, 0) and (3/256, 0, 0, 0). They replace earlier targets of
(1/4096, 1/4096, 0, 0) and (3/16384, 3/16384, 0, 0), which cannot hold: the
hand reduction, the dense Kronecker oracle and the checklist's own W rank
triple (2, 1, 0) all give a single nonzero value (see the comment there).
"""

import math
import time

import numpy as np
import pytest

from spinflip import (
    PureState,
    QubitPartition,
    acin_state,
    apply_local,
    classify_acin,
    classify_three,
    concurrence_even,
    default_rows,
    lu_compare,
    odd_invariants,
    omega,
    omega_power_sequence,
    random_local,
    random_state,
    rank_profile,
    singular_values,
    standard_state,
    three_qubit_S,
    verify_congruence,
)
from spinflip.invariants import _partition_invariants

import helpers

P12_3 = QubitPartition((1, 2), 3)


def test_criterion_1_rank_triples():
    start = time.monotonic()
    expected = {
        "GHZ": (2, 2, 2),
        "W": (2, 1, 0),
        "A-BC": (2, 0, 0),
        "B-AC": (2, 0, 0),
        "C-AB": (0, 0, 0),
        "A-B-C": (0, 0, 0),
    }
    for label, state in helpers.class_seeds().items():
        assert rank_profile(state, P12_3, 3).ranks == expected[label], label
    assert time.monotonic() - start < 1.0


def test_criterion_2_power_one_singular_values():
    for name in ("w1", "w2"):
        sq = singular_values(omega(standard_state(name), P12_3).entries) ** 2
        assert np.allclose(sq, [0.125, 0.125, 0.0, 0.0], atol=1e-10), name


def test_criterion_2_power_two_singular_values():
    # Hand reduction with K = v (x) v, the two-qubit kernel:
    #   w1 = (|000> + |100> + |101> + |110>)/2 gives
    #   Omega = (E02 - E20 - E23 + E32)/4 and Omega K Omega = -E22/8,
    #   so sigma^2 = 1/64;
    #   w2 leaves the single entry -2 l0 l2^2 l3 = -sqrt(3)/16, so
    #   sigma^2 = 3/256.
    # The dense oracle tests/oracles.py::oracle_omega_power read through
    # eigvalsh of M^H M gives the same spectra. Both states are W, whose
    # power-2 rank is 1 (criterion 1), and rank is invariant under the
    # congruence of criterion 4, so exactly one squared singular value is
    # nonzero. The superseded targets (1/4096, 1/4096, 0, 0) and
    # (3/16384, 3/16384, 0, 0) had two equal nonzero values, which no rank-1
    # matrix has, and were 1/64 of the true magnitudes.
    w1 = standard_state("w1")
    w2 = standard_state("w2")
    sq1 = singular_values(omega_power_sequence(w1, P12_3, 2)[-1].entries) ** 2
    sq2 = singular_values(omega_power_sequence(w2, P12_3, 2)[-1].entries) ** 2
    assert np.allclose(sq1, [1 / 64, 0.0, 0.0, 0.0], atol=1e-10)
    assert np.allclose(sq2, [3 / 256, 0.0, 0.0, 0.0], atol=1e-10)
    # multiplicity of the nonzero values is the power-2 rank
    for state, sq in ((w1, sq1), (w2, sq2)):
        power_two_rank = rank_profile(state, P12_3, 3).ranks[1]
        assert np.count_nonzero(sq > 1e-10) == power_two_rank == 1
    # the power-2 spectra are LU invariants that separate w1 from w2
    assert not np.isclose(sq1[0], sq2[0], rtol=0.0, atol=1e-10)


def test_criterion_2_lu_compare_distinguishes():
    verdict = lu_compare(standard_state("w1"), standard_state("w2"))
    assert verdict.relation == "inequivalent"


def test_criterion_3_closed_forms():
    start = time.monotonic()
    assert concurrence_even(standard_state("bell")) == pytest.approx(0.5, abs=1e-12)
    zeta = PureState(
        2, np.array([3**-0.5, 0, 0, math.sqrt(2 / 3)], dtype=complex)
    )
    assert concurrence_even(zeta) == pytest.approx(math.sqrt(2) / 3, abs=1e-12)
    ghz3 = standard_state("ghz", 3)
    assert odd_invariants(ghz3).ntangle == pytest.approx(0.25, abs=1e-12)
    for n in range(4, 13, 2):
        c = concurrence_even(standard_state("ghz", n))
        assert c == pytest.approx(0.5, abs=1e-10), n
    for n in range(5, 12, 2):
        t = odd_invariants(standard_state("ghz", n)).ntangle
        assert t == pytest.approx(0.25, abs=1e-10), n
    assert time.monotonic() - start < 10.0


def test_criterion_4_congruence_and_prefactor_sensitivity():
    bare_failures = 0
    invertible_total = 0
    for state, op, partition, power in helpers.congruence_cases(100):
        report = verify_congruence(state, op, partition, power)
        assert report.residual < 1e-8

        if op.kind != "invertible":
            continue
        invertible_total += 1
        # recompute the right side without the alpha^(l-1) beta^l prefactor;
        # dropping it must break the identity for nearly every invertible draw
        lhs = omega_power_sequence(apply_local(state, op), partition, power)[-1].entries
        base = omega_power_sequence(state, partition, power)[-1].entries
        p_mat = np.eye(1, dtype=complex)
        for q in partition.rows:
            p_mat = np.kron(p_mat, op.factors[q - 1])
        bare = p_mat @ base @ p_mat.T
        scale = max(float(np.max(np.abs(lhs))), 1e-14)
        if float(np.max(np.abs(lhs - bare))) / scale > 1e-8:
            bare_failures += 1
    assert invertible_total == 50
    assert bare_failures >= 0.9 * invertible_total


def test_criterion_5_rank_and_singular_value_invariance():
    for i in range(50):
        n = 3 + i % 2
        partition = QubitPartition(default_rows(n), n)
        state = random_state(n, 9500 + i)
        moved = apply_local(state, random_local(n, "invertible", 9600 + i))
        assert (
            rank_profile(state, partition, 3).ranks
            == rank_profile(moved, partition, 3).ranks
        ), i
    for i in range(50):
        n = 3 + i % 2
        partition = QubitPartition(default_rows(n), n)
        state = random_state(n, 9700 + i)
        rotated = apply_local(state, random_local(n, "unitary", 9800 + i))
        for power in (1, 2, 3):
            sa = np.sort(singular_values(
                omega_power_sequence(state, partition, power)[-1].entries
            ))
            sb = np.sort(singular_values(
                omega_power_sequence(rotated, partition, power)[-1].entries
            ))
            assert np.allclose(sa, sb, atol=1e-9), (i, power)
        assert _partition_invariants([state], partition, 1)[0].abs_dets[0] == pytest.approx(
            _partition_invariants([rotated], partition, 1)[0].abs_dets[0], abs=1e-9
        )


def test_criterion_6_cross_formula_oracles():
    # even n: both singular values of the one-row-qubit matrix equal the
    # concurrence
    for i in range(50):
        n = (2, 4)[i % 2]
        state = random_state(n, 10_000 + i)
        sig = singular_values(omega(state, QubitPartition((1,), n)).entries)
        c = concurrence_even(state)
        assert sig[0] == pytest.approx(c, abs=1e-10)
        assert sig[1] == pytest.approx(c, abs=1e-10)
    # odd n: t1 and t2 are exactly the two singular values
    for i in range(50):
        n = (3, 5)[i % 2]
        state = random_state(n, 10_100 + i)
        sig = singular_values(omega(state, QubitPartition((1,), n)).entries)
        inv = odd_invariants(state)
        assert sig[0] == pytest.approx(inv.t1, abs=1e-10)
        assert sig[1] == pytest.approx(inv.t2, abs=1e-10)
    # n = 3: the rows {1,2} spectrum is (S, S, 0, 0)
    for i in range(50):
        state = random_state(3, 10_200 + i)
        sig = singular_values(omega(state, P12_3).entries)
        s = three_qubit_S(state)
        assert np.allclose(sig, [s, s, 0.0, 0.0], atol=1e-10), i


def test_criterion_7_canonical_form_agreement():
    for i, form in enumerate(helpers.acin_samples(500)):
        label, _, _ = classify_acin(form)
        assert label == classify_three(acin_state(form)), f"sample {i}"
    assert classify_three(standard_state("xi")).label == "GHZ"
    assert classify_three(standard_state("vartheta")).label == "W"


def test_criterion_8_symmetry_parity():
    for state, partition in helpers.state_partition_cases(200):
        om = omega(state, partition).entries
        if (state.n - partition.size) % 2 == 0:
            assert float(np.max(np.abs(om - om.T))) <= 1e-12
        else:
            assert float(np.max(np.abs(om + om.T))) <= 1e-12
