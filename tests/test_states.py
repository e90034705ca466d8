"""Tests for state construction, local operators, and file formats."""

import json
import math
import re
import warnings

import numpy as np
import pytest

from spinflip import (
    AcinForm,
    InvariantProfile,
    LocalOperator,
    PureState,
    ValidationError,
    acin_state,
    apply_local,
    parse_operator,
    parse_state,
    random_local,
    random_state,
    serialize_operator,
    serialize_state,
    standard_state,
    invariant_profile,
    local_rank,
    lu_compare,
    omega,
    omega_power_sequence,
    rank_profile,
    verify_congruence,
)
from spinflip import states as states_module
from spinflip.coeffmat import QubitPartition
from spinflip.invariants import PartitionInvariants
from spinflip.states import parity_signs

import oracles

RT2 = math.sqrt(2.0)
RT3 = math.sqrt(3.0)

HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]]) / RT2
SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]])
EYE2 = np.eye(2)


SEEDED_GENERATORS = pytest.mark.parametrize("make", [
    lambda seed: random_state(3, seed),
    lambda seed: random_local(3, "unitary", seed),
    lambda seed: random_local(3, "invertible", seed),
], ids=["state", "unitary", "invertible"])


@SEEDED_GENERATORS
def test_random_generators_reject_negative_seeds(make):
    make(0)
    with pytest.raises(ValidationError, match="seed"):
        make(-1)


@SEEDED_GENERATORS
def test_random_generators_reject_non_integer_seeds(make):
    for seed in (2.5, "3"):
        with pytest.raises(ValidationError, match=f"seed must be an integer, got {seed!r}"):
            make(seed)
    with pytest.raises(ValidationError, match="seed must be a non-negative integer, got -1"):
        make(-1)


def test_parity_signs_table():
    for bits in range(15):
        table = parity_signs(bits)
        expected = [1 - 2 * oracles.bit_parity(i) for i in range(2**bits)]
        assert np.array_equal(table, expected)
        with pytest.raises(ValueError):
            table[0] = 0.0


def test_bell_amplitudes():
    bell = standard_state("bell")
    assert bell.n == 2
    assert np.allclose(bell.amplitudes, [1 / RT2, 0, 0, 1 / RT2])


def test_ghz_amplitudes():
    ghz = standard_state("ghz", 3)
    expected = np.zeros(8)
    expected[0] = expected[7] = 1 / RT2
    assert np.allclose(ghz.amplitudes, expected)


def test_w_amplitudes():
    w = standard_state("w", 3)
    expected = np.zeros(8)
    expected[1] = expected[2] = expected[4] = 1 / RT3
    assert np.allclose(w.amplitudes, expected)


def test_zeros_amplitudes():
    z = standard_state("zeros", 4)
    assert z.n == 4
    assert z.amplitudes[0] == 1.0
    assert np.count_nonzero(z.amplitudes) == 1


def test_xi_amplitudes():
    xi = standard_state("xi")
    expected = np.full(8, 1 / (2 * RT2))
    expected[7] = -expected[7]
    assert np.allclose(xi.amplitudes, expected)


def test_vartheta_amplitudes():
    v = standard_state("vartheta")
    expected = np.zeros(8)
    expected[0] = expected[5] = expected[6] = 1 / RT3
    assert np.allclose(v.amplitudes, expected)


def test_w1_amplitudes():
    w1 = standard_state("w1")
    expected = np.zeros(8)
    expected[0] = expected[4] = expected[5] = expected[6] = 0.5
    assert np.allclose(w1.amplitudes, expected)


def test_w2_amplitudes():
    w2 = standard_state("w2")
    # weights: l0^2 = (2 - sqrt 2)/16, l2^2 = (2 + sqrt 2)/4,
    # l3^2 = 3 (2 - sqrt 2)/16; support on |000>, |101>, |110>
    assert np.isclose(abs(w2.amplitudes[0]) ** 2, (2 - RT2) / 16)
    assert np.isclose(abs(w2.amplitudes[5]) ** 2, (2 + RT2) / 4)
    assert np.isclose(abs(w2.amplitudes[6]) ** 2, 3 * (2 - RT2) / 16)
    assert np.count_nonzero(w2.amplitudes) == 3
    assert np.isclose(w2.norm(), 1.0)


def test_standard_state_ghz_any_n():
    for n in (2, 5, 10):
        ghz = standard_state("ghz", n)
        assert ghz.amplitudes[0] == ghz.amplitudes[-1] == pytest.approx(1 / RT2)
    # without n, ghz and w are the three-qubit states
    for name in ("ghz", "w"):
        assert standard_state(name).n == 3
        assert np.array_equal(standard_state(name).amplitudes, standard_state(name, 3).amplitudes)


def test_standard_state_errors():
    with pytest.raises(ValidationError):
        standard_state("nope")
    with pytest.raises(ValidationError):
        standard_state("bell", 3)
    with pytest.raises(ValidationError):
        standard_state("xi", 2)
    with pytest.raises(ValidationError):
        standard_state("ghz", 1)
    with pytest.raises(ValidationError):
        standard_state("zeros")


@pytest.mark.parametrize("name", ["zeros", "ghz", "w", "bell", "xi"])
def test_standard_state_refuses_a_non_integer_n(name):
    for n in (2.0, 2.5):
        with pytest.raises(ValidationError, match=f"n must be an integer, got {n}"):
            standard_state(name, n)


def test_acin_state_slot_mapping():
    # not normalized on purpose: the form itself must reject it
    with pytest.raises(ValidationError):
        AcinForm(0.5, 0.5, 0.5, 0.3, 0.3)
    form = AcinForm(0.5, 0.5, 0.5, 0.5, 0.0, phi=1.0)
    state = acin_state(form)
    assert state.amplitudes[0] == 0.5
    assert state.amplitudes[4] == pytest.approx(0.5 * np.exp(1j))
    assert state.amplitudes[5] == 0.5
    assert state.amplitudes[6] == 0.5
    assert state.amplitudes[7] == 0.0
    assert np.count_nonzero(state.amplitudes) == 4


def test_acin_state_ghz_and_product():
    ghz = acin_state(AcinForm(1 / RT2, 0, 0, 0, 1 / RT2))
    assert np.allclose(ghz.amplitudes, standard_state("ghz", 3).amplitudes)
    zeros = acin_state(AcinForm(1, 0, 0, 0, 0))
    assert np.allclose(zeros.amplitudes, standard_state("zeros", 3).amplitudes)


def test_acin_state_matches_w2():
    l0 = math.sqrt((2 - RT2) / 16)
    l2 = math.sqrt((2 + RT2) / 4)
    l3 = math.sqrt(3 * (2 - RT2) / 16)
    state = acin_state(AcinForm(l0, 0.0, l2, l3, 0.0))
    assert np.allclose(state.amplitudes, standard_state("w2").amplitudes)


def test_acin_form_validation():
    with pytest.raises(ValidationError):
        AcinForm(-0.5, 0.5, 0.5, 0.5, 0.0)
    with pytest.raises(ValidationError):
        AcinForm(0.5, 0.5, 0.5, 0.5, 0.0, phi=-0.1)
    with pytest.raises(ValidationError):
        AcinForm(0.5, 0.5, 0.5, 0.5, 0.0, phi=3.5)
    with pytest.raises(ValidationError):
        AcinForm(1.0, 1.0, 0.0, 0.0, 0.0)


def test_pure_state_validation():
    with pytest.raises(ValidationError):
        PureState(2, np.zeros(3, dtype=complex))
    # norm 2: a valid state that measures itself unnormalized
    assert PureState(2, np.ones(4, dtype=complex)).normalized is False
    with pytest.raises(ValidationError):
        PureState(0, np.ones(1, dtype=complex))
    with pytest.raises(ValidationError):
        PureState(15, np.zeros(2**15, dtype=complex))
    for n in (3.0, 2.5, "3"):
        with pytest.raises(ValidationError, match="n must be an integer"):
            PureState(n, np.ones(8, dtype=complex))


def test_pure_state_keeps_the_int_it_checked():
    # a numpy integer n is stored as the Python int it stands for, so the
    # state serializes and parses back
    state = random_state(np.int64(3), 1)
    assert parse_state(serialize_state(state)).n == 3
    assert type(state.n) is int


def test_a_bool_is_not_a_qubit_count():
    # bool subclasses int, but True would serialize as {"n": true}, which
    # parse_state refuses; both refuse it with one text
    with pytest.raises(ValidationError, match="^n must be an integer, got True$"):
        PureState(True, [1, 0])
    with pytest.raises(ValidationError, match="^n must be an integer, got True$"):
        parse_state('{"n": true, "amplitudes": [[1, 0], [0, 0]]}')


_GHZ3 = standard_state("ghz", 3)
_ROWS12 = QubitPartition((1, 2), 3)

# every integer argument and how to feed it one value, valid at 2
INTEGER_ARGUMENTS = {
    "partition label": lambda v: QubitPartition((v,), 3),
    "partition n": lambda v: QubitPartition((1,), v),
    "local_rank qubit": lambda v: local_rank(_GHZ3, v),
    "standard_state n": lambda v: standard_state("ghz", v),
    "PureState n": lambda v: PureState(v, np.ones(4)),
    "rank_profile max_power": lambda v: rank_profile(_GHZ3, _ROWS12, v),
    "omega_power_sequence max_power": lambda v: omega_power_sequence(_GHZ3, _ROWS12, v),
    "lu_compare max_power": lambda v: lu_compare(_GHZ3, _GHZ3, None, v),
    "verify_congruence power":
        lambda v: verify_congruence(_GHZ3, random_local(3, "unitary", 1), _ROWS12, v),
    "random_state seed": lambda v: random_state(3, v),
}


@pytest.mark.parametrize("call", INTEGER_ARGUMENTS.values(), ids=INTEGER_ARGUMENTS.keys())
def test_every_integer_argument_has_one_rule(call):
    # states._integer is the one rule: a bool, a float (even a whole numpy
    # one) and a numeric string are refused alike; a numpy integer is not
    for value in (True, 1.5, "2", np.float64(2.0)):
        with pytest.raises(ValidationError, match=re.escape(f"must be an integer, got {value!r}")):
            call(value)
    call(np.int64(2))


@pytest.mark.parametrize("n", range(1, 15))
def test_pure_state_refuses_the_zero_vector(n):
    # the zero vector is no ray, so no rank or comparison ever sees it
    with pytest.raises(ValidationError, match="^amplitudes are all zero; a state needs a nonzero norm$"):
        PureState(n, np.zeros(2**n, dtype=complex))
    tiniest = np.zeros(2**n, dtype=complex)
    tiniest[-1] = 5e-324
    assert PureState(n, tiniest).norm() == 5e-324


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, complex(0, math.nan)])
def test_pure_state_rejects_non_finite_amplitudes(bad):
    amps = np.array([bad, 0, 0, 0], dtype=complex)
    with pytest.raises(ValidationError, match="finite"):
        PureState(2, amps)
    # the check runs before the norm is measured, for any construction
    with pytest.raises(ValidationError, match="finite"):
        PureState(n=2, amplitudes=amps)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_acin_form_rejects_non_finite_weights(bad):
    for slot in range(5):
        lams = [0.0] * 5
        lams[slot] = bad
        with pytest.raises(ValidationError, match="finite"):
            AcinForm(*lams)
    with pytest.raises(ValidationError):
        AcinForm(1.0, 0.0, 0.0, 0.0, 0.0, phi=bad)


def test_pure_state_is_immutable():
    state = standard_state("bell")
    with pytest.raises(ValueError):
        state.amplitudes[0] = 0.0


def test_pure_state_copies_the_callers_array():
    amps = np.zeros(4, complex)
    amps[0] = 1
    state = PureState(2, amps)
    amps[1] = 2
    assert state.amplitudes.tolist() == [1, 0, 0, 0]
    assert not state.amplitudes.flags.writeable


def test_local_operator_copies_the_callers_factors():
    factor = HADAMARD.astype(complex)
    op = LocalOperator((factor, EYE2))
    factor[0, 0] = 0.0
    assert np.array_equal(op.factors[0], HADAMARD)
    assert not op.factors[0].flags.writeable


def test_apply_local_identity_is_exact():
    state = random_state(3, 11)
    op = LocalOperator((EYE2, EYE2, EYE2))
    out = apply_local(state, op)
    assert np.array_equal(out.amplitudes, state.amplitudes)


def test_apply_local_msb_is_qubit_one():
    zeros = standard_state("zeros", 3)
    flipped = apply_local(zeros, LocalOperator((SIGMA_X, EYE2, EYE2)))
    # flipping qubit 1 of |000> lands on index 4 = binary 100
    assert flipped.amplitudes[4] == pytest.approx(1.0)
    assert np.count_nonzero(flipped.amplitudes) == 1


def test_apply_local_vartheta_to_w():
    # sigma_x (x) I (x) I maps vartheta to the W state
    out = apply_local(
        standard_state("vartheta"), LocalOperator((SIGMA_X, EYE2, EYE2))
    )
    assert np.allclose(out.amplitudes, standard_state("w", 3).amplitudes)


def test_apply_local_hadamard_ghz_frozen():
    # H^(x)3 GHZ_3 = (|000> + |011> + |101> + |110>)/2, checked against the
    # dense Kronecker-product oracle and against the hand value
    ghz = standard_state("ghz", 3)
    op = LocalOperator((HADAMARD, HADAMARD, HADAMARD))
    out = apply_local(ghz, op)
    expected = np.zeros(8)
    expected[0] = expected[3] = expected[5] = expected[6] = 0.5
    assert np.allclose(out.amplitudes, expected, atol=1e-15)
    dense = oracles.oracle_apply_local(ghz.amplitudes, op.factors)
    assert np.allclose(out.amplitudes, dense, atol=1e-15)


def test_apply_local_matches_dense_oracle():
    for i in range(50):
        n = 2 + i % 3
        state = random_state(n, 300 + i)
        kind = "unitary" if i % 2 == 0 else "invertible"
        op = random_local(n, kind, 400 + i)
        out = apply_local(state, op)
        dense = oracles.oracle_apply_local(state.amplitudes, op.factors)
        assert np.allclose(out.amplitudes, dense, atol=1e-12)


def test_apply_local_unitary_preserves_norm():
    for i in range(10):
        state = random_state(4, 500 + i)
        op = random_local(4, "unitary", 600 + i)
        out = apply_local(state, op)
        assert out.normalized
        assert abs(out.norm() - 1.0) < 1e-12


def test_apply_local_invertible_flags_unnormalized():
    state = random_state(3, 17)
    op = random_local(3, "invertible", 18)
    assert not apply_local(state, op).normalized


def test_apply_local_unitary_keeps_unnormalized_flag():
    # a unitary preserves whatever norm the input had; it must not stamp an
    # unnormalized state as normalized
    state = PureState(2, 2.0 * standard_state("bell").amplitudes)
    out = apply_local(state, LocalOperator((SIGMA_X, EYE2)))
    assert not out.normalized
    assert out.norm() == pytest.approx(2.0)


def test_apply_local_size_mismatch():
    with pytest.raises(ValidationError):
        apply_local(standard_state("bell"), LocalOperator((EYE2, EYE2, EYE2)))


def test_random_state_deterministic_and_normalized():
    a = random_state(3, 123)
    b = random_state(3, 123)
    assert np.array_equal(a.amplitudes, b.amplitudes)
    assert abs(sum(abs(x) ** 2 for x in a.amplitudes) - 1.0) < 1e-12
    c = random_state(3, 124)
    assert not np.allclose(a.amplitudes, c.amplitudes)


def test_random_state_length_and_range():
    assert random_state(4, 1).amplitudes.shape == (16,)
    with pytest.raises(ValidationError):
        random_state(0, 1)
    with pytest.raises(ValidationError):
        random_state(15, 1)


def test_random_local_unitary_contract():
    op = random_local(3, "unitary", 42)
    for factor in op.factors:
        assert np.max(np.abs(factor.conj().T @ factor - EYE2)) < 1e-10


def test_random_local_invertible_contract():
    op = random_local(3, "invertible", 42)
    for factor in op.factors:
        assert abs(np.linalg.det(factor)) >= 1e-3
        assert np.linalg.cond(factor) <= 1e3


def test_random_local_deterministic():
    a = random_local(2, "unitary", 9)
    b = random_local(2, "unitary", 9)
    for fa, fb in zip(a.factors, b.factors):
        assert np.array_equal(fa, fb)


def test_random_local_bad_kind():
    with pytest.raises(ValidationError):
        random_local(2, "hermitian", 1)


def test_local_operator_validation():
    not_unitary = np.array([[1.0, 1.0], [0.0, 1.0]])
    with pytest.raises(ValidationError):
        LocalOperator((not_unitary,), kind="unitary")
    LocalOperator((not_unitary,), kind="invertible")  # fine: det = 1
    singular = np.array([[1.0, 1.0], [1.0, 1.0]])
    with pytest.raises(ValidationError):
        LocalOperator((singular,), kind="invertible")
    with pytest.raises(ValidationError):
        LocalOperator((np.eye(3),), kind="unitary")
    with pytest.raises(ValidationError):
        LocalOperator((EYE2,), kind="special")
    # a bare number is no list of factors, refused like any malformed one
    for factors in (5, np.array(5.0), None):
        with pytest.raises(ValidationError, match="^factors must be a list, got "):
            LocalOperator(factors)


def test_local_operator_determinants():
    op = LocalOperator((2 * EYE2, SIGMA_X), kind="invertible")
    assert np.allclose(op.determinants(), [4.0, -1.0])
    assert op.n == 2


def test_state_serialization_round_trip():
    for seed in range(5):
        state = random_state(3, 700 + seed)
        text = serialize_state(state)
        back = parse_state(text)
        assert back.n == state.n
        assert np.array_equal(back.amplitudes, state.amplitudes)
        assert back.normalized
        # serializing again is byte-identical (17 digits round-trip doubles)
        assert serialize_state(back) == text


def test_parse_state_sets_normalized_flag():
    doc = {"n": 1, "amplitudes": [[3.0, 0.0], [4.0, 0.0]]}
    state = parse_state(json.dumps(doc))
    assert not state.normalized
    assert state.norm() == pytest.approx(5.0)


def test_parse_state_errors():
    with pytest.raises(ValidationError):
        parse_state("not json")
    with pytest.raises(ValidationError):
        parse_state('{"amplitudes": [[1, 0], [0, 0]]}')
    with pytest.raises(ValidationError):
        parse_state('{"n": 2, "amplitudes": [[1, 0], [0, 0]]}')
    with pytest.raises(ValidationError):
        parse_state('{"n": 1.5, "amplitudes": [[1, 0], [0, 0]]}')
    # bool subclasses int, so a bare isinstance check would read true as n = 1
    for flag in ("true", "false"):
        with pytest.raises(ValidationError, match="n must be an integer"):
            parse_state(f'{{"n": {flag}, "amplitudes": [[1, 0], [0, 0]]}}')
    with pytest.raises(ValidationError):
        parse_state('{"n": 0, "amplitudes": [[1, 0]]}')
    with pytest.raises(ValidationError):
        parse_state('{"n": 1, "amplitudes": [[NaN, 0], [0, 0]]}')
    with pytest.raises(ValidationError):
        parse_state('{"n": 1, "amplitudes": [1, 0]}')
    with pytest.raises(ValidationError):
        parse_state('{"n": 1, "amplitudes": [["a", 0], [0, 0]]}')
    with pytest.raises(ValidationError, match="all zero"):
        parse_state('{"n": 2, "amplitudes": [[0, 0], [0, 0], [0, -0.0], [0, 0]]}')
    # any nonzero norm is accepted, even one whose square underflows
    assert not parse_state('{"n": 1, "amplitudes": [[1e-200, 0], [0, 0]]}').normalized


def test_operator_serialization_round_trip():
    op = random_local(3, "invertible", 55)
    back = parse_operator(serialize_operator(op))
    assert back.kind == "invertible"
    for fa, fb in zip(op.factors, back.factors):
        assert np.array_equal(fa, fb)


def test_parse_operator_errors():
    with pytest.raises(ValidationError, match="operator file is not valid JSON"):
        parse_operator("{")
    with pytest.raises(ValidationError):
        parse_operator("[]")
    with pytest.raises(ValidationError):
        parse_operator('{"kind": "unitary"}')
    with pytest.raises(ValidationError):
        parse_operator('{"kind": "unitary", "factors": [[[1, 0], [0, 1]]]}')
    bad = {
        "kind": "unitary",
        "factors": [[[[1, 0], [0, 0]], [[0, 0], ["x", 0]]]],
    }
    with pytest.raises(ValidationError):
        parse_operator(json.dumps(bad).replace('"x"', "Infinity"))


def test_parse_operator_rejects_non_list_factors():
    for factors in (5, "ab", {"0": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]}, None):
        doc = json.dumps({"kind": "unitary", "factors": factors})
        with pytest.raises(ValidationError, match="factors must be a list"):
            parse_operator(doc)


def test_state_and_operator_files_are_one_line():
    state = random_state(4, 710)
    state_text = serialize_state(state)
    op_text = serialize_operator(random_local(4, "invertible", 711))
    for text in (state_text, op_text):
        assert text.endswith("\n") and text.count("\n") == 1
    # floats are written as Python's shortest round-trip repr
    a0 = complex(state.amplitudes[0])
    assert state_text.startswith(f'{{"n": 4, "amplitudes": [[{a0.real!r}, {a0.imag!r}], ')


def test_index_convention_round_trip():
    # qubit k holds bit n-k of the index: reassembling bits recovers i
    n = 4
    for i in range(2**n):
        bits = [(i >> (n - k)) & 1 for k in range(1, n + 1)]
        rebuilt = 0
        for b in bits:
            rebuilt = (rebuilt << 1) | b
        assert rebuilt == i


# --- local operators as one (n, 2, 2) stack -------------------------------

KINDS = ("unitary", "invertible")


@pytest.mark.parametrize("n", range(1, 15))
@pytest.mark.parametrize("kind", KINDS)
def test_random_local_matches_the_stream_oracle(kind, n):
    # seeded orbit points stay what the per-factor samplers drew
    for seed in range(20):
        factors = random_local(n, kind, seed).factors
        assert np.array_equal(factors, oracles.stream_random_local(n, kind, seed))


@pytest.mark.parametrize("n", range(1, 15))
@pytest.mark.parametrize("kind", KINDS)
def test_apply_local_matches_the_stream_oracle(kind, n):
    for seed in range(20):
        state = random_state(n, seed)
        factors = oracles.stream_random_local(n, kind, seed)
        out = apply_local(state, LocalOperator(factors, kind))
        assert np.array_equal(out.amplitudes, oracles.stream_apply_local(state.amplitudes, factors))


def test_invertible_rejection_keeps_the_draw_order(monkeypatch):
    # bounds this tight reject most candidates, so blocks of draws are
    # needed and the accepted ones must come out in draw order
    monkeypatch.setattr(states_module, "_INVERTIBLE_COND_MAX", 2.0)
    monkeypatch.setattr(states_module, "_INVERTIBLE_DET_MIN", 0.5)
    draws = []
    normals = states_module._complex_normals

    def counted(rng, count):
        draws.append(count)
        return normals(rng, count)

    monkeypatch.setattr(states_module, "_complex_normals", counted)
    for n in (1, 3, 7, 14):
        for seed in range(5):
            draws.clear()
            factors = random_local(n, "invertible", seed).factors
            assert np.array_equal(factors, oracles.stream_random_local(n, "invertible", seed))
            assert len(draws) > 1
            assert np.all(np.linalg.cond(factors) <= 2.0)


def test_invertible_sampling_gives_up(monkeypatch):
    monkeypatch.setattr(states_module, "_INVERTIBLE_DET_MIN", math.inf)
    monkeypatch.setattr(states_module, "_INVERTIBLE_MAX_TRIES", 5)
    with pytest.raises(RuntimeError, match="invertible"):
        random_local(3, "invertible", 1)


def test_local_operator_factors_are_one_read_only_stack():
    op = LocalOperator([HADAMARD, SIGMA_X, EYE2])
    assert isinstance(op.factors, np.ndarray)
    assert op.factors.shape == (3, 2, 2) and op.factors.dtype == complex
    assert not op.factors.flags.writeable
    assert len(op.factors) == op.n == 3
    for got, want in zip(op.factors, (HADAMARD, SIGMA_X, EYE2)):
        assert np.array_equal(got, want)
    assert np.array_equal(op.factors[1], SIGMA_X)
    with pytest.raises(ValueError):
        op.factors[0, 0, 0] = 2.0
    assert np.allclose(op.determinants(), [-1.0, -1.0, 1.0], rtol=0, atol=1e-15)


def test_local_operator_errors_name_the_first_bad_factor():
    shear = np.array([[1.0, 1.0], [0.0, 1.0]])
    with pytest.raises(ValidationError, match=r"^factor 1 is not unitary: \|\|U\^H U - I\|\|_max = 1\.000e\+00$"):
        LocalOperator((EYE2, shear, 2 * EYE2, shear))
    singular = np.ones((2, 2))
    with pytest.raises(ValidationError, match=r"^factor 2 is numerically singular: \|det\| = 0\.000e\+00$"):
        LocalOperator((EYE2, shear, singular, singular), kind="invertible")
    with pytest.raises(ValidationError, match=r"^factor 1 must be 2x2, got shape \(3, 3\)$"):
        LocalOperator((EYE2, np.eye(3), EYE2, np.eye(4)))
    with pytest.raises(ValidationError, match=r"^factor 0 must be 2x2, got shape \(2,\)$"):
        LocalOperator(EYE2)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, complex(0, math.nan)])
@pytest.mark.parametrize("kind", KINDS)
def test_local_operator_rejects_non_finite_factors(kind, bad):
    # NaN passes both comparison tests (every comparison with it is false)
    # and inf makes det warn, so finiteness is checked before either; a file
    # gets the same check and message as a direct construction
    factors = np.array([EYE2, EYE2], dtype=complex)
    factors[1, 1, 1] = bad
    pairs = np.stack([factors.real, factors.imag], -1).tolist()
    doc = json.dumps({"kind": kind, "factors": pairs})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match="^factors must be finite$") as direct:
            LocalOperator(factors, kind)
        with pytest.raises(ValidationError) as parsed:
            parse_operator(doc)
    assert str(parsed.value) == str(direct.value)


@pytest.mark.parametrize("n", [0, -1, 15, 100])
@pytest.mark.parametrize("kind", KINDS)
def test_random_local_rejects_sizes_out_of_range(kind, n):
    with pytest.raises(ValidationError, match="n must be in 1..14"):
        random_local(n, kind, 1)


def test_local_operator_rejects_sizes_out_of_range():
    for factors in ((), [], np.empty((0, 2, 2)), [EYE2] * 15):
        with pytest.raises(ValidationError, match="n must be in 1..14"):
            LocalOperator(factors)
    with pytest.raises(ValidationError):
        parse_operator('{"kind": "unitary", "factors": []}')
    LocalOperator([EYE2] * 14)


def test_boolean_entries_are_rejected():
    for amps in ("[[true, 0], [false, 0]]", "[[1, 0], [0, false]]", "[[0.6, 0], [0.8, true]]"):
        with pytest.raises(ValidationError, match="true or false"):
            parse_state(f'{{"n": 1, "amplitudes": {amps}}}')
    # the numbers 1 and 0, integer or float, stay valid entries, also when
    # the words true and false occur elsewhere in the file
    assert parse_state('{"n": 1, "amplitudes": [[1, 0], [0.0, 0.0]]}').normalized
    assert parse_state('{"n": 1, "note": "true", "amplitudes": [[1, 0], [0, 0]]}').normalized
    one, zero = "[true, false]", "[false, false]"
    doc = f'{{"kind": "unitary", "factors": [[[{one}, {zero}], [{zero}, {one}]]]}}'
    with pytest.raises(ValidationError, match="true or false"):
        parse_operator(doc)
    assert parse_operator(doc.replace("true", "1").replace("false", "0")).n == 1


def _array_holding_values():
    state = random_state(3, 1)
    part = QubitPartition((1,), 3)
    profile = invariant_profile(state, [part])
    return {
        "PureState": (state, random_state(3, 1)),
        "LocalOperator": (random_local(3, "unitary", 1), random_local(3, "unitary", 1)),
        "OmegaMatrix": (omega(state, part), omega(state, part)),
        "PartitionInvariants": (profile.partitions[0], invariant_profile(state, [part]).partitions[0]),
        "InvariantProfile": (profile, invariant_profile(state, [part])),
    }


@pytest.mark.parametrize("name", [
    "PureState", "LocalOperator", "OmegaMatrix", "PartitionInvariants", "InvariantProfile",
])
def test_array_holding_types_compare_by_identity(name):
    value, twin = _array_holding_values()[name]
    assert type(value).__name__ == name
    assert value == value and not value == twin and value != twin
    assert value in [twin, value] and twin not in [value]
    assert hash(value) == hash(value)
    assert len({value, twin, value}) == 2
