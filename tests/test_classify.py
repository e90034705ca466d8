"""Tests for SLOCC classification, comparison verdicts, and family labels."""

import math

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from spinflip import (
    AcinForm,
    CompareVerdict,
    FamilyLabel,
    PureState,
    QubitPartition,
    SloccClass,
    ToleranceInconsistency,
    ValidationError,
    Witness,
    acin_state,
    apply_local,
    classify_acin,
    classify_three,
    classify_two,
    family_label,
    lu_compare,
    omega_power_sequence,
    random_local,
    random_state,
    slocc_compare,
    singular_values,
    local_rank,
    rank_profile,
    standard_state,
)
from spinflip.classify import _TRIPLES

import helpers

RT2 = math.sqrt(2.0)
P12_3 = QubitPartition((1, 2), 3)


def zeta():
    amps = np.array([1 / math.sqrt(3), 0, 0, math.sqrt(2.0 / 3.0)], dtype=complex)
    return PureState(2, amps)


def test_classify_two_examples():
    assert classify_two(standard_state("bell")).label == "entangled"
    ket01 = PureState(2, np.array([0, 1, 0, 0], dtype=complex))
    assert classify_two(ket01).label == "product"
    assert classify_two(zeta()).label == "entangled"


def test_classify_two_wrong_n():
    with pytest.raises(ValidationError):
        classify_two(standard_state("ghz", 3))


def test_classify_three_named_states():
    assert classify_three(standard_state("ghz", 3)).label == "GHZ"
    assert classify_three(standard_state("xi")).label == "GHZ"
    assert classify_three(standard_state("vartheta")).label == "W"
    assert classify_three(standard_state("w", 3)).label == "W"
    assert classify_three(standard_state("w1")).label == "W"
    assert classify_three(standard_state("w2")).label == "W"


def test_classify_three_all_six_seeds():
    for label, seed in helpers.class_seeds().items():
        assert classify_three(seed).label == label


@pytest.mark.parametrize(
    "scale", [1e-150, 1e-100, 1e-50, 1e50, 1e100, 1e150, 1e-310]
)
def test_classify_three_at_any_scale(scale):
    # a class is a property of the ray, subnormal amplitudes included
    for label in ("GHZ", "W", "C-AB"):
        seed = helpers.class_seeds()[label]
        scaled = PureState(3, scale * seed.amplitudes, normalized=False)
        got = classify_three(scaled)
        assert got.label == label
        assert got.ranks == classify_three(seed).ranks
        assert got.local_ranks == classify_three(seed).local_ranks


def test_classify_three_two_svd_calls(monkeypatch):
    # one stacked SVD for the rank triple, one for the three local ranks
    calls = helpers.count_svd_calls(monkeypatch)
    for label, seed in helpers.class_seeds().items():
        calls.clear()
        assert classify_three(seed).label == label
        assert sorted(calls) == [(3, 2, 4), (3, 4, 4)]


def test_classify_two_carries_its_ranks_in_one_svd_call(monkeypatch):
    # one stacked SVD gives the powers 1..3 ranks; the label reads power 1
    calls = helpers.count_svd_calls(monkeypatch)
    got = classify_two(standard_state("bell"))
    assert calls == [(3, 2, 2)]
    assert (got.label, got.ranks, got.local_ranks) == ("entangled", (2, 2, 2), None)
    calls.clear()
    ket01 = PureState(2, np.array([0, 1, 0, 0], dtype=complex))
    assert classify_two(ket01).ranks == (0, 0, 0)
    assert calls == [(3, 2, 2)]


def test_slocc_compare_two_qubits_reuses_class_ranks(monkeypatch):
    bell = standard_state("bell")
    moved = apply_local(bell, random_local(2, "invertible", 6950))
    calls = helpers.count_svd_calls(monkeypatch)
    assert slocc_compare(bell, moved).relation == "not-distinguished"
    assert calls == [(3, 2, 2)] * 2


def test_classify_two_concurrence_sweep():
    # cos t |00> + sin t |11> has concurrence sin 2t; the three ranks move
    # together, so the sweep never trips RankProfile's monotonicity check
    for c in np.logspace(-14, 0, 801):
        t = math.asin(c) / 2
        state = PureState(2, np.array([math.cos(t), 0, 0, math.sin(t)], dtype=complex))
        got = classify_two(state)
        assert got.ranks in ((2, 2, 2), (0, 0, 0)), (c, got.ranks)
        assert got.label == ("entangled" if got.ranks[0] == 2 else "product")


def test_classify_three_carries_its_evidence():
    # the attached triple and local ranks are what the separate routes give,
    # on the six seeds and on their LU and SLOCC orbits
    for i, (label, seed) in enumerate(helpers.class_seeds().items()):
        orbit = [seed] + [
            apply_local(seed, random_local(3, kind, 6800 + 10 * i + k))
            for k, kind in enumerate(("unitary", "invertible") * 3)
        ]
        for state in orbit:
            got = classify_three(state)
            assert got.label == label
            assert got.ranks == rank_profile(state, P12_3, 3).ranks
            assert got.local_ranks == tuple(local_rank(state, q) for q in (1, 2, 3))


def test_slocc_class_equality_ignores_evidence():
    assert SloccClass("GHZ", (2, 2, 2)) == SloccClass("GHZ")
    assert SloccClass("GHZ", (2, 2, 2), (2, 2, 2)) != SloccClass("W", (2, 2, 2))


def test_classify_three_wrong_n():
    with pytest.raises(ValidationError):
        classify_three(standard_state("bell"))


def test_classify_three_totality():
    # 1000 states: random plus random invertible transforms of all six seeds
    labels = set()
    seeds = list(helpers.class_seeds().values())
    for i in range(600):
        got = classify_three(random_state(3, 5000 + i))
        labels.add(got.label)
    for i in range(400):
        base = seeds[i % 6]
        moved = apply_local(base, random_local(3, "invertible", 6000 + i))
        labels.add(classify_three(moved).label)
    assert labels <= {"GHZ", "W", "A-BC", "B-AC", "C-AB", "A-B-C"}
    # random pure states are almost surely GHZ class
    assert "GHZ" in labels


def test_classify_three_slocc_stability():
    # the class is invariant under invertible local transforms, 200 trials
    seeds = helpers.class_seeds()
    items = list(seeds.items())
    for i in range(200):
        label, state = items[i % 6]
        kind = "invertible" if i % 2 == 0 else "unitary"
        moved = apply_local(state, random_local(3, kind, 6500 + i))
        assert classify_three(moved).label == label, f"trial {i} from {label}"


def test_classify_acin_table_rows():
    ghz_form = AcinForm(0.5, 0.5, 0.5, 0.4, 0.3)
    label, triple, s = classify_acin(ghz_form)
    assert label.label == "GHZ"
    assert triple == (2, 2, 2)
    assert s > 0

    w_form = AcinForm(0.5, 0.5, 0.5, 0.5, 0.0)
    label, triple, s = classify_acin(w_form)
    assert label.label == "W"
    assert triple == (2, 1, 0)

    product = AcinForm(1.0, 0.0, 0.0, 0.0, 0.0)
    label, triple, s = classify_acin(product)
    assert label.label == "A-B-C"
    assert triple == (0, 0, 0)
    assert s == 0.0


def test_classify_acin_lambda0_zero_branch():
    # l0 = 0, l4 != 0: the 2x2 block determinant decides A-BC vs A-B-C
    u = np.array([0.0, 0.5, 0.6, 0.4, 0.6 * 0.4 / 0.5])
    u /= np.linalg.norm(u)
    lams = tuple(float(x) for x in u)
    label, triple, _ = classify_acin(AcinForm(*lams, phi=0.0))
    assert label.label == "A-B-C"
    assert triple == (0, 0, 0)
    # same weights with phi = pi: the determinant no longer cancels
    label, triple, _ = classify_acin(AcinForm(*lams, phi=math.pi))
    assert label.label == "A-BC"
    assert triple == (2, 0, 0)


def test_classify_acin_sample_sweep():
    # the decision tree agrees with the numerical classifier on every branch
    for i, form in enumerate(helpers.acin_samples(200)):
        label, triple, s = classify_acin(form)
        numeric = classify_three(acin_state(form))
        assert label == numeric, f"sample {i}"
        assert s >= 0.0


def test_classify_acin_near_boundary_raises():
    # l2 barely above the tree's weight threshold with l3 small: the tree
    # says W, but the power-2 top singular value 2 l0 l3 l2^2 sinks below
    # the rank noise floor, so the numerical triple reads (2,0,0) while
    # every single-qubit rank is still 2: no class fits
    l2, l3 = 2e-10, 1e-3
    l0 = math.sqrt(1.0 - l2 * l2 - l3 * l3)
    with pytest.raises(ToleranceInconsistency):
        classify_acin(AcinForm(l0, 0.0, l2, l3, 0.0))


def test_lu_compare_w1_w2():
    verdict = lu_compare(standard_state("w1"), standard_state("w2"))
    assert verdict.relation == "inequivalent"
    assert verdict.witness is not None
    # the closed-form route fires first: Delta = 1/4 vs 3/8
    assert verdict.witness.kind == "delta"
    assert verdict.witness.value_a == pytest.approx(0.25, abs=1e-12)
    assert verdict.witness.value_b == pytest.approx(0.375, abs=1e-12)


def test_w1_w2_power_two_singular_route():
    # the singular-value route also separates the pair, as it must
    s1, s2 = (
        singular_values(omega_power_sequence(w, P12_3, 2)[-1].entries)
        for w in (standard_state("w1"), standard_state("w2"))
    )
    assert abs(s1[0] - s2[0]) > 1e-3
    only_sigma = lu_compare(
        standard_state("w1"), standard_state("w2"), [P12_3], 2, 1e-9
    )
    assert only_sigma.relation == "inequivalent"


def test_lu_compare_same_state():
    state = random_state(3, 71)
    assert lu_compare(state, state).relation == "not-distinguished"


def test_lu_compare_bell_zeta():
    verdict = lu_compare(standard_state("bell"), zeta())
    assert verdict.relation == "inequivalent"
    assert verdict.witness.kind == "concurrence"
    assert verdict.witness.value_a == pytest.approx(0.5, abs=1e-12)
    assert verdict.witness.value_b == pytest.approx(RT2 / 3, abs=1e-12)


def test_lu_compare_stability_under_unitaries():
    for i in range(100):
        n = 3 + i % 3
        state = random_state(n, 7000 + i)
        moved = apply_local(state, random_local(n, "unitary", 7100 + i))
        assert lu_compare(state, moved).relation == "not-distinguished"


def test_lu_compare_validation():
    with pytest.raises(ValidationError):
        lu_compare(standard_state("bell"), standard_state("ghz", 3))
    lopsided = PureState(2, np.array([2.0, 0, 0, 0], dtype=complex), normalized=False)
    with pytest.raises(ValidationError):
        lu_compare(standard_state("bell"), lopsided)


def test_slocc_compare_ghz_w():
    verdict = slocc_compare(standard_state("ghz", 3), standard_state("w", 3))
    assert verdict.relation == "inequivalent"
    # the zero-pattern check fires first: n-tangle 1/4 vs 0; the rank
    # triples (2,2,2) vs (2,1,0) stand behind it
    assert verdict.witness.kind == "ntangle"
    assert verdict.witness.value_a == pytest.approx(0.25, abs=1e-12)
    assert verdict.witness.value_b == pytest.approx(0.0, abs=1e-12)


def test_slocc_compare_accepts_unnormalized_transforms():
    for i in range(40):
        n = 2 + i % 4
        state = random_state(n, 7200 + i)
        moved = apply_local(state, random_local(n, "invertible", 7300 + i))
        assert slocc_compare(state, moved).relation == "not-distinguished"


@pytest.mark.parametrize(
    "scale", [1e-300, 1e-160, 1e-100, 1e100, 1e200, 1e300, 1e-310]
)
def test_slocc_compare_extreme_scales(scale):
    # SLOCC verdicts are statements about rays: c * GHZ answers as GHZ does,
    # also when c * GHZ has subnormal amplitudes
    ghz, w = standard_state("ghz", 3), standard_state("w", 3)
    scaled = PureState(3, scale * ghz.amplitudes, normalized=False)
    for other, relation in ((w, "inequivalent"), (ghz, "not-distinguished")):
        verdict, reference = slocc_compare(scaled, other), slocc_compare(ghz, other)
        assert verdict.relation == reference.relation == relation
        assert (verdict.witness is None) == (reference.witness is None)
        if verdict.witness is not None:
            assert verdict.witness.kind == reference.witness.kind


def test_slocc_compare_ghz5_product():
    verdict = slocc_compare(standard_state("ghz", 5), standard_state("zeros", 5))
    assert verdict.relation == "inequivalent"
    assert verdict.witness.kind == "ntangle"
    assert verdict.witness.value_a == pytest.approx(0.25, abs=1e-12)
    assert verdict.witness.value_b == 0.0


def test_slocc_compare_rank_witness():
    # GHZ_4 and a product of two Bell pairs share concurrence 1/2, so the
    # zero-pattern check is silent and the rank profiles must decide:
    # (2,2,2) against (1,1,1)
    ghz = standard_state("ghz", 4)
    amps = np.zeros(16, dtype=complex)
    amps[[0, 3, 12, 15]] = 0.5
    bell_pair_product = PureState(4, amps)
    verdict = slocc_compare(ghz, bell_pair_product)
    assert verdict.relation == "inequivalent"
    assert verdict.witness.kind == "ranks"
    assert verdict.witness.value_a == (2, 2, 2)
    assert verdict.witness.value_b == (1, 1, 1)


def test_slocc_compare_dimension_mismatch():
    with pytest.raises(ValidationError):
        slocc_compare(standard_state("bell"), standard_state("ghz", 3))


def test_witness_soundness():
    # numeric witnesses must separate by more than 10x the tolerance
    pairs = [
        (standard_state("w1"), standard_state("w2"), 1e-9),
        (standard_state("bell"), zeta(), 1e-9),
        (standard_state("ghz", 3), standard_state("w", 3), 1e-10),
        (standard_state("ghz", 5), standard_state("zeros", 5), 1e-10),
    ]
    for a, b, tol in pairs[:2]:
        verdict = lu_compare(a, b, tol=tol)
        assert verdict.relation == "inequivalent"
        gap = abs(verdict.witness.value_a - verdict.witness.value_b)
        assert gap > 10 * tol
    for a, b, tol in pairs[2:]:
        verdict = slocc_compare(a, b, tol=tol)
        assert verdict.relation == "inequivalent"
        gap = abs(verdict.witness.value_a - verdict.witness.value_b)
        assert gap > 10 * tol


def test_verdict_type_validation():
    with pytest.raises(ValidationError):
        CompareVerdict("inequivalent")  # witness required
    with pytest.raises(ValidationError):
        CompareVerdict("equal")
    CompareVerdict("inequivalent", Witness("concurrence", 0.5, 0.0))
    with pytest.raises(ValidationError):
        SloccClass("Bell")


def test_family_label_even_n():
    label = family_label(standard_state("ghz", 4))
    assert label.kind == "F_c"
    assert label.value == pytest.approx(0.5, abs=1e-12)
    assert label.slocc_class is None

    label = family_label(standard_state("zeros", 4))
    assert label.kind == "F_c"
    assert label.value == 0.0

    label = family_label(standard_state("bell"))
    assert label.kind == "F_c"
    assert label.value == pytest.approx(0.5, abs=1e-15)


def test_family_label_odd_n_beyond_three():
    label = family_label(standard_state("ghz", 5))
    assert label.kind == "F_g"
    assert label.value == pytest.approx(0.25, abs=1e-12)

    label = family_label(standard_state("zeros", 5))
    assert label.kind == "F_g"
    assert label.value == 0.0


def test_family_label_three_qubit_classes():
    label = family_label(standard_state("ghz", 3))
    assert (label.kind, label.slocc_class) == ("F_S", "GHZ")
    assert label.value == pytest.approx(0.5, abs=1e-12)

    label = family_label(standard_state("w", 3))
    assert (label.kind, label.slocc_class) == ("F_S", "W")
    assert label.value == pytest.approx(RT2 / 3, abs=1e-12)

    label = family_label(standard_state("zeros", 3))
    assert (label.kind, label.slocc_class) == ("F_S", "A-B-C")
    assert label.value == 0.0


def test_family_label_biseparable_values():
    # B-AC states carry S = l0 l2; A-BC states S = |l1 l4 e^{i phi} - l2 l3|
    b_ac = AcinForm(0.6, 0.2, math.sqrt(1 - 0.36 - 0.04), 0.0, 0.0)
    label = family_label(acin_state(b_ac))
    assert (label.kind, label.slocc_class) == ("F_S", "B-AC")
    assert label.value == pytest.approx(0.6 * b_ac.lambda2, abs=1e-12)

    raw = np.array([0.0, 0.0, 0.7, 0.5, 0.4])
    raw /= np.linalg.norm(raw)
    a_bc = AcinForm(*(float(x) for x in raw))
    label = family_label(acin_state(a_bc))
    assert (label.kind, label.slocc_class) == ("F_S", "A-BC")
    assert label.value == pytest.approx(a_bc.lambda2 * a_bc.lambda3, abs=1e-12)


def test_family_label_c_ab_pair_concurrence():
    # C-AB states get an F_c label from the entangled {1,2} pair; for the
    # canonical form the value reduces to l0 l3 even with l1 present
    form = AcinForm(0.6, 0.2, 0.0, math.sqrt(1 - 0.36 - 0.04), 0.0)
    label = family_label(acin_state(form))
    assert (label.kind, label.slocc_class) == ("F_c", "C-AB")
    assert label.value == pytest.approx(0.6 * form.lambda3, abs=1e-12)


def test_family_label_w_class_upper_range():
    # a W-class state reaching S = 1/2 is legitimate and must be accepted
    form = AcinForm(0.5, 0.0, 1 / RT2, 0.5, 0.0)
    label = family_label(acin_state(form))
    assert (label.kind, label.slocc_class) == ("F_S", "W")
    assert label.value == pytest.approx(0.5, abs=1e-12)


def test_family_label_validation():
    unscaled = PureState(
        3, np.array([1.0, 1, 0, 0, 0, 0, 0, 0], dtype=complex), normalized=False
    )
    with pytest.raises(ValidationError):
        family_label(unscaled)
    one_qubit = PureState(1, np.array([1.0, 0.0], dtype=complex))
    with pytest.raises(ValidationError):
        family_label(one_qubit)


def test_family_label_type_intervals():
    with pytest.raises(ValidationError):
        FamilyLabel("F_c", 0.6)
    with pytest.raises(ValidationError):
        FamilyLabel("F_g", 0.3)
    with pytest.raises(ValidationError):
        FamilyLabel("F_S", 0.6, slocc_class="GHZ")
    with pytest.raises(ValidationError):
        FamilyLabel("F_S", 0.1, slocc_class="A-B-C")
    with pytest.raises(ValidationError):
        FamilyLabel("F_x", 0.1)
    FamilyLabel("F_c", 0.5)
    FamilyLabel("F_g", 0.25)
    FamilyLabel("F_S", 0.5, slocc_class="W")


# local ranks each label implies: 1 on the qubits it separates, else 2
LABEL_LOCAL_RANKS = {
    "GHZ": (2, 2, 2),
    "W": (2, 2, 2),
    "A-BC": (1, 2, 2),
    "B-AC": (2, 1, 2),
    "C-AB": (2, 2, 1),
    "A-B-C": (1, 1, 1),
}


@given(
    family=st.sampled_from(["GHZ + eps W", "W + eps|111>", "|000> + eps|111>"]),
    k=st.floats(min_value=-14.0, max_value=0.0),
)
@example(family="|000> + eps|111>", k=-10.0)
def test_no_label_contradicts_its_evidence(family, k):
    # near a class boundary the classifier may refuse, but a label it
    # returns must agree with both its rank triple and its local ranks
    eps = 10.0**k
    ghz, w = standard_state("ghz", 3).amplitudes, standard_state("w", 3).amplitudes
    e000, e111 = np.eye(8)[0], np.eye(8)[7]
    amps = {
        "GHZ + eps W": ghz + eps * w,
        "W + eps|111>": w + eps * e111,
        "|000> + eps|111>": e000 + eps * e111,
    }[family]
    state = PureState(3, amps / np.linalg.norm(amps))
    try:
        found = classify_three(state)
    except ToleranceInconsistency:
        return
    assert found.ranks == _TRIPLES[found.label]
    assert found.local_ranks == LABEL_LOCAL_RANKS[found.label]
