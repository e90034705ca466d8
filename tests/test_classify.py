"""Tests for SLOCC classification, comparison verdicts, and family labels."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

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
    default_rows,
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
from spinflip.classify import COMPARE_TOL, THREE_QUBIT_LABELS, _TRIPLES
from spinflip.invariants import _partition_invariants

import helpers
import oracles

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
    "scale", [1e-150, 1e-100, 1e-50, 1e50, 1e100, 1e150, 1e-310, 1e-320]
)
def test_classify_three_at_any_scale(scale):
    # a class is a property of the ray, subnormal amplitudes included
    for label in ("GHZ", "W", "C-AB"):
        seed = helpers.class_seeds()[label]
        scaled = PureState(3, scale * seed.amplitudes)
        got = classify_three(scaled)
        assert got.label == label
        assert got.ranks == classify_three(seed).ranks
        assert got.local_ranks == classify_three(seed).local_ranks
        for q in (1, 2, 3):
            assert local_rank(scaled, q) == got.local_ranks[q - 1]


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
    assert calls == [(6, 2, 2)]


def test_slocc_compare_sends_both_states_to_one_svd_per_partition(monkeypatch):
    # from four qubits up, each partition decomposes both states' power
    # stacks in one call: rows {1} (2 x 2), then the default rows {1,2}
    state = random_state(4, 6960)
    moved = apply_local(state, random_local(4, "invertible", 6961))
    calls = helpers.count_svd_calls(monkeypatch)
    assert slocc_compare(state, moved).relation == "not-distinguished"
    assert calls == [(6, 2, 2), (6, 4, 4)]


def test_unnormalized_rank_verdicts_build_no_state(monkeypatch):
    # the rank kernels rescale the amplitude stack they build, so a verdict
    # on an unnormalized ray makes no rescaled copy of its state
    def image(n, seed):
        return apply_local(random_state(n, seed), random_local(n, "invertible", seed))

    u3, v3, u4, v4 = image(3, 6970), image(3, 6971), image(4, 6972), image(4, 6973)
    assert not any(s.normalized for s in (u3, v3, u4, v4))
    built = []
    post_init = PureState.__post_init__

    def counting(self):
        built.append(self.n)
        post_init(self)

    monkeypatch.setattr(PureState, "__post_init__", counting)
    counts = []
    for verdict in (lambda: classify_three(u3), lambda: slocc_compare(u3, v3),
                    lambda: slocc_compare(u4, v4),
                    lambda: rank_profile(u4, QubitPartition((1, 2), 4)),
                    lambda: local_rank(u4, 2)):
        built.clear()
        verdict()
        counts.append(len(built))
    assert counts == [0, 0, 0, 0, 0]


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


KINDS = st.sampled_from(["unitary", "invertible"])
SEEDS = st.integers(0, 2**32 - 1)


@given(label=st.sampled_from(THREE_QUBIT_LABELS), kind=KINDS, seed=SEEDS)
def test_local_orbits_keep_the_class_and_triple(label, kind, seed):
    state = helpers.class_seeds()[label]
    moved = apply_local(state, random_local(3, kind, seed))
    got = classify_three(moved)
    assert got.label == label
    assert got.ranks == classify_three(state).ranks


@settings(max_examples=50)
@given(n=st.integers(4, 6), kind=KINDS, state_seed=SEEDS, op_seed=SEEDS)
def test_local_orbits_keep_the_rank_profiles(n, kind, state_seed, op_seed):
    state = random_state(n, state_seed)
    moved = apply_local(state, random_local(n, kind, op_seed))
    for rows in ((1,), default_rows(n)):
        part = QubitPartition(rows, n)
        assert rank_profile(moved, part, 3).ranks == rank_profile(state, part, 3).ranks


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


def test_classify_three_labels_exact_images():
    # Gaussian-integer SLOCC images of integer seeds of all six classes:
    # their floats are the exact states, so the label is the seed's and the
    # local ranks are the exact ranks of the single-qubit coefficient matrices
    seeds = oracles.integer_class_seeds(3)
    seeds["B-AC"] = [int(i in (0, 0b101)) for i in range(8)]
    seeds["C-AB"] = [int(i in (0, 0b110)) for i in range(8)]
    assert sorted(seeds) == sorted(THREE_QUBIT_LABELS)
    for k, (label, seed) in enumerate(seeds.items()):
        for trial in range(5):
            factors = oracles.gaussian_integer_factors(3, 9100 + 5 * k + trial)
            image = oracles.exact_apply_local(seed, factors)
            got = classify_three(PureState(3, image.astype(complex)))
            assert got.label == label, (label, trial)
            assert got.local_ranks == tuple(
                oracles.exact_rank(oracles.oracle_coeff_matrix(image, 3, (q,), dtype=object))
                for q in (1, 2, 3)
            ), (label, trial)


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
    only_sigma = lu_compare(standard_state("w1"), standard_state("w2"), [P12_3], 2)
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


def all_partitions(n):
    return [QubitPartition(rows, n) for size in range(1, n)
            for rows in itertools.combinations(range(1, n + 1), size)]


def w_plus(eps, n=3):
    """W + eps|1...1>, normalized: GHZ class at n = 3, a hair from W."""
    amps = standard_state("w", n).amplitudes.copy()
    amps[-1] = eps
    return PureState(n, amps / np.linalg.norm(amps))


def tilted_ghz(eps, n):
    """sqrt(1 - eps^2)|0...0> + eps|1...1>: every spectrum scales with eps."""
    amps = np.zeros(2**n, dtype=complex)
    amps[0], amps[-1] = math.sqrt(1 - eps * eps), eps
    return PureState(n, amps)


def test_lu_compare_stability_under_unitaries():
    for i in range(100):
        n = 3 + i % 3
        state = random_state(n, 7000 + i)
        moved = apply_local(state, random_local(n, "unitary", 7100 + i))
        assert lu_compare(state, moved).relation == "not-distinguished"
    # powers that vanish or sit near their noise floor take the floor
    # branch of the threshold; an LU image must still read as its source
    for n in (3, 4, 5):
        states = [standard_state("w", n), standard_state("ghz", n)]
        states += [w_plus(eps, n) for eps in (1e-4, 1e-8, 1e-12, 1e-15)]
        states += [tilted_ghz(eps, n) for eps in (1e-4, 1e-10, 1e-15)]
        for k, state in enumerate(states):
            moved = apply_local(state, random_local(n, "unitary", 7400 + 10 * n + k))
            verdict = lu_compare(state, moved, all_partitions(n), 6)
            assert verdict.relation == "not-distinguished", (n, k, verdict)


@pytest.mark.parametrize("n", [3, 4, 5, 14])
def test_lu_compare_reads_spectra_at_their_own_scale(n):
    # every spectrum of this pair lies below 1e-9; a threshold relative to
    # the top singular value of each power still sees them differ
    verdict = lu_compare(tilted_ghz(1e-10, n), tilted_ghz(3e-10, n))
    assert verdict.relation == "inequivalent"
    assert verdict.witness.kind == "singular-value"
    assert verdict.witness.power == 1


@pytest.mark.parametrize("eps", [1e-9, 1e-10, 1e-11, 1e-12, 1e-13, 1e-14])
def test_lu_compare_reads_spectra_only(eps):
    # the power 1..3 ranks of this pair come out non-monotone; lu_compare
    # compares spectra and never ranks them, so it still gives a verdict.
    # W's rows {1,2} power 3 vanishes; W + eps|111>'s stands above both
    # noise floors down to eps = 1e-12, and below that sits at the rank
    # rule's floor, so the pair is not distinguished
    verdict = lu_compare(w_plus(eps), standard_state("w", 3))
    assert verdict.relation == ("inequivalent" if eps >= 1e-12 else "not-distinguished")


# Two Acin forms LU-inequivalent by the Kempe invariant. B's five weights
# were solved by least squares at fixed phi so that every spin-flip
# spectrum of B (each row subset, powers 1..6) matches A's to 3e-16.
BLIND_A = AcinForm(0.3574170960401311, 0.4717401267594195, 0.559053150220956,
                   0.32224108658812506, 0.4830471297976795, phi=2.187)
BLIND_B = AcinForm(0.3466945612760944, 0.43506153384556984, 0.5763434902139583,
                   0.3322073267293729, 0.49798676318234925, phi=2.191197)


def kempe(state):
    """3 Tr[(rho_A x rho_B) rho_AB] - Tr rho_A^3 - Tr rho_B^3, a three-qubit
    LU invariant (Kempe, PRA 60, 910, 1999)."""
    psi = state.amplitudes.reshape(2, 2, 2)
    rho = np.einsum("abc,xyc->abxy", psi, psi.conj())
    rho_a, rho_b = np.einsum("abxb->ax", rho), np.einsum("abay->by", rho)
    mixed = np.einsum("ax,by,xyab->", rho_a, rho_b, rho)
    cubes = np.trace(rho_a @ rho_a @ rho_a) + np.trace(rho_b @ rho_b @ rho_b)
    return float((3 * mixed - cubes).real)


def test_lu_compare_n3_blind_spot():
    # at n = 3 the spectra miss one of the five LU parameters: this pair
    # agrees on every spectrum and closed form, yet the Kempe invariant
    # (which an LU image keeps) separates it
    a, b = acin_state(BLIND_A), acin_state(BLIND_B)
    assert lu_compare(a, b, all_partitions(3), 6).relation == "not-distinguished"
    ka, kb = kempe(a), kempe(b)
    assert ka == pytest.approx(0.398572, abs=1e-6)
    assert kb == pytest.approx(0.399342, abs=1e-6)
    assert kb - ka > 5e-4
    moved = apply_local(b, random_local(3, "unitary", 7500))
    assert kempe(moved) == pytest.approx(kb, abs=1e-12)


def test_lu_compare_validation():
    with pytest.raises(ValidationError):
        lu_compare(standard_state("bell"), standard_state("ghz", 3))
    lopsided = PureState(2, np.array([2.0, 0, 0, 0], dtype=complex))
    with pytest.raises(ValidationError):
        lu_compare(standard_state("bell"), lopsided)
    # refused even where the closed forms alone would decide the verdict
    ghz, w = standard_state("ghz", 3), standard_state("w", 3)
    assert lu_compare(ghz, w).witness.kind == "ntangle"
    for a, b in ((ghz, w), (ghz, ghz)):
        for max_power in (0, -5):
            with pytest.raises(ValidationError, match=f"max_power must be >= 1, got {max_power}"):
                lu_compare(a, b, max_power=max_power)
        with pytest.raises(ValidationError, match="max_power must be an integer, got 2.5"):
            lu_compare(a, b, max_power=2.5)


def test_slocc_compare_ghz_w():
    verdict = slocc_compare(standard_state("ghz", 3), standard_state("w", 3))
    assert verdict.relation == "inequivalent"
    # the classes stand on the rank triples (2,2,2) and (2,1,0)
    assert verdict.witness == Witness("class", "GHZ", "W")


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
    scaled = PureState(3, scale * ghz.amplitudes)
    for other, relation in ((w, "inequivalent"), (ghz, "not-distinguished")):
        verdict, reference = slocc_compare(scaled, other), slocc_compare(ghz, other)
        assert verdict.relation == reference.relation == relation
        assert (verdict.witness is None) == (reference.witness is None)
        if verdict.witness is not None:
            assert verdict.witness.kind == reference.witness.kind


def test_slocc_compare_ghz5_product():
    verdict = slocc_compare(standard_state("ghz", 5), standard_state("zeros", 5))
    assert verdict.relation == "inequivalent"
    # rows {1} decide first: their 2x2 matrix carries t1, t2 = 1/2, 1/2
    # for GHZ_5 and nothing for the product
    assert verdict.witness == Witness("ranks", (2, 2, 2), (0, 0, 0), rows=(1,))


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
    # numeric witnesses must separate by more than 10x the tolerance; a
    # SLOCC witness is a class or a rank profile, and its values differ
    for a, b in [(standard_state("w1"), standard_state("w2")),
                 (standard_state("bell"), zeta())]:
        verdict = lu_compare(a, b)
        assert verdict.relation == "inequivalent"
        gap = abs(verdict.witness.value_a - verdict.witness.value_b)
        assert gap > 10 * COMPARE_TOL
    for a, b in [(standard_state("ghz", 3), standard_state("w", 3)),
                 (standard_state("ghz", 5), standard_state("zeros", 5))]:
        verdict = slocc_compare(a, b)
        assert verdict.relation == "inequivalent"
        assert verdict.witness.kind in ("class", "ranks")
        assert verdict.witness.value_a != verdict.witness.value_b


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
        3, np.array([1.0, 1, 0, 0, 0, 0, 0, 0], dtype=complex)
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


def test_slocc_compare_is_the_label_comparison_on_seed_orbits():
    # both states are classified in one pass; the verdict and witness are
    # those of comparing the labels each state gets alone
    for n, classify, seeds in ((2, classify_two, TWO_QUBIT_SEEDS),
                               (3, classify_three, helpers.class_seeds())):
        orbit = [apply_local(seed, random_local(n, "invertible", 9700 + 10 * k + j))
                 for k, seed in enumerate(seeds.values()) for j in range(3)]
        labels = [classify(state).label for state in orbit]
        assert set(labels) == set(seeds)
        for (a, la), (b, lb) in itertools.product(zip(orbit, labels), repeat=2):
            want = (CompareVerdict("not-distinguished") if la == lb
                    else CompareVerdict("inequivalent", Witness("class", la, lb)))
            assert slocc_compare(a, b) == want


@given(
    family=st.sampled_from([
        "GHZ + eps W", "W + eps|111>", "|000> + eps|111>",
        "sqrt(eps)|001> + |010> + |100>", "GHZ form, l4 = eps",
    ]),
    k=st.floats(min_value=-14.0, max_value=0.0),
)
@example(family="|000> + eps|111>", k=-10.0)
def test_no_label_contradicts_its_evidence(family, k):
    # near a class boundary the classifier may refuse, but a label it
    # returns must agree with both its rank triple and its local ranks;
    # the last two families degenerate from W to C-AB and from a GHZ
    # canonical form to W as eps -> 0
    eps = 10.0**k
    ghz, w = standard_state("ghz", 3).amplitudes, standard_state("w", 3).amplitudes
    e = np.eye(8)
    try:
        if family == "GHZ form, l4 = eps":
            lams = np.array([1.0, 0.5, 0.5, 0.5, eps])
            found = classify_acin(AcinForm(*(lams / np.linalg.norm(lams)).tolist()))[0]
        else:
            amps = {
                "GHZ + eps W": ghz + eps * w,
                "W + eps|111>": w + eps * e[7],
                "|000> + eps|111>": e[0] + eps * e[7],
                "sqrt(eps)|001> + |010> + |100>": math.sqrt(eps) * e[1] + e[2] + e[4],
            }[family]
            found = classify_three(PureState(3, amps / np.linalg.norm(amps)))
    except ToleranceInconsistency:
        return
    assert found.ranks == _TRIPLES[found.label]
    assert found.local_ranks == LABEL_LOCAL_RANKS[found.label]


@given(
    label=st.sampled_from(THREE_QUBIT_LABELS),
    seed=st.integers(0, 2**32 - 1),
    mantissa=st.floats(1.0, 10.0, exclude_max=True),
    k=st.integers(-150, 150),
)
def test_classify_three_scale_sweep(label, seed, mantissa, k):
    # class, rank triple and local ranks belong to the ray: scaling an
    # SLOCC image of a class seed by mantissa * 10^k changes none of them
    state = apply_local(helpers.class_seeds()[label], random_local(3, "invertible", seed))
    scaled = PureState(3, mantissa * 10.0**k * state.amplitudes)
    want, got = classify_three(state), classify_three(scaled)
    assert want.label == label
    assert (got.label, got.ranks, got.local_ranks) == (label, want.ranks, want.local_ranks)


def test_spectral_routes_make_no_det_call(monkeypatch):
    # |det| is the product of the singular values from the one SVD
    calls = helpers.count_linalg_calls(monkeypatch)
    for label, seed in helpers.class_seeds().items():
        assert classify_three(seed).label == label
        family_label(seed)
        lu_compare(seed, standard_state("w", 3))
        _partition_invariants([seed], P12_3, 3)[0]
    for n in (2, 4, 5):
        state = random_state(n, 7400 + n)
        _partition_invariants([state], QubitPartition((1,), n), 3)[0]
        lu_compare(state, state)
        family_label(state)
    assert calls["svd"] and calls["det"] == []


def test_family_label_c_ab_takes_values_only(monkeypatch):
    # two SVDs classify, the third gives the pair concurrence from C_1;
    # none computes singular vectors
    calls = helpers.count_linalg_calls(monkeypatch)
    label = family_label(helpers.class_seeds()["C-AB"])
    assert (label.kind, label.slocc_class) == ("F_c", "C-AB")
    assert label.value == pytest.approx(0.5, abs=1e-15)
    assert len(calls["svd"]) == 3
    assert all(compute_uv is False for _, compute_uv in calls["svd"])


TWO_QUBIT_SEEDS = {
    "entangled": standard_state("bell"),
    "product": standard_state("zeros", 2),
}


def _family_state(family, eps):
    ghz, w = standard_state("ghz", 3).amplitudes, standard_state("w", 3).amplitudes
    e000, e111 = np.eye(8)[0], np.eye(8)[7]
    amps = {
        "cos t|00> + sin t|11>": np.array([math.cos(eps), 0, 0, math.sin(eps)]),
        "GHZ + eps W": ghz + eps * w,
        "W + eps|111>": w + eps * e111,
        "|000> + eps|111>": e000 + eps * e111,
    }[family]
    return PureState(int(math.log2(len(amps))), amps / np.linalg.norm(amps))


@given(
    family=st.sampled_from(
        ["cos t|00> + sin t|11>", "GHZ + eps W", "W + eps|111>", "|000> + eps|111>"]
    ),
    k=st.floats(min_value=-14.0, max_value=0.0),
)
@example(family="cos t|00> + sin t|11>", k=math.log10(5e-11))
def test_slocc_verdict_agrees_with_the_classifier(family, k):
    # the verdict against each class seed is the classifier's label: the
    # seed of that label is not distinguished, every other seed is
    # inequivalent, and an input the classifier refuses is refused here too
    state = _family_state(family, 10.0**k)
    classify, seeds = (
        (classify_two, TWO_QUBIT_SEEDS) if state.n == 2
        else (classify_three, helpers.class_seeds())
    )
    try:
        label = classify(state).label
    except ToleranceInconsistency:
        for seed in seeds.values():
            with pytest.raises(ToleranceInconsistency):
                slocc_compare(state, seed)
        return
    for name, seed in seeds.items():
        relation = "not-distinguished" if name == label else "inequivalent"
        assert slocc_compare(state, seed).relation == relation


@given(k=st.floats(min_value=-14.0, max_value=0.0))
@example(k=math.log10(2e-11))
def test_slocc_verdict_picks_one_seed_along_ghz4(k):
    # |0000> + c|1111> is GHZ-class for every c != 0; whatever the rank
    # rule reads at small c, exactly one of GHZ_4 and |0000> matches it
    amps = np.zeros(16)
    amps[[0, 15]] = 1.0, 10.0**k
    state = PureState(4, amps / np.linalg.norm(amps))
    seeds = (standard_state("ghz", 4), standard_state("zeros", 4))
    matches = [slocc_compare(state, seed).relation == "not-distinguished" for seed in seeds]
    assert matches.count(True) == 1


def test_slocc_compare_decides_by_ranks_alone(monkeypatch):
    # no closed form and no det: two value-only SVDs classify both states
    # for n = 3, stacked rank profiles from n = 4 up
    def unreachable(state):
        raise AssertionError("slocc_compare reached a closed form")

    monkeypatch.setattr("spinflip.classify.concurrence_even", unreachable)
    monkeypatch.setattr("spinflip.classify.odd_invariants", unreachable)
    # invariants._closed_forms reads its own module's names
    monkeypatch.setattr("spinflip.invariants.concurrence_even", unreachable)
    monkeypatch.setattr("spinflip.invariants.odd_invariants", unreachable)
    orbit_pairs = []
    for n in (2, 4, 5, 6):
        state = random_state(n, 7500 + n)
        moved = apply_local(state, random_local(n, "invertible", 7600 + n))
        orbit_pairs.append((state, moved, standard_state("zeros", n)))
    calls = helpers.count_linalg_calls(monkeypatch)
    verdict = slocc_compare(standard_state("ghz", 3), standard_state("w", 3))
    assert verdict.witness == Witness("class", "GHZ", "W")
    assert len(calls["svd"]) == 2
    assert all(compute_uv is False for _, compute_uv in calls["svd"])
    for state, moved, product in orbit_pairs:
        assert slocc_compare(state, moved).relation == "not-distinguished"
        assert slocc_compare(state, product).relation == "inequivalent"
    assert calls["det"] == []


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_slocc_compare_rejects_a_zero_state(n):
    # the refusal is PureState's, so no zero state reaches the compare; the
    # tiniest nonzero state is a product ray like any other
    with pytest.raises(ValidationError, match="all zero"):
        PureState(n, np.zeros(2**n))
    tiniest = PureState(n, np.eye(1, 2**n).ravel() * 5e-324)
    ghz = standard_state("ghz", n)
    assert slocc_compare(tiniest, standard_state("zeros", n)).relation == "not-distinguished"
    for a, b in ((tiniest, ghz), (ghz, tiniest)):
        assert slocc_compare(a, b).relation == "inequivalent"


def test_slocc_compare_matches_exact_rank_signatures():
    # Gaussian-integer SLOCC images of the integer class seeds are exact
    # floats, so a pair reads not-distinguished exactly when its exact rank
    # signatures (rows {1} then {1,2}, powers 1..3) agree, and a ranks
    # witness carries the exact ranks of the first partition that differs
    rows_order = ((1,), (1, 2))
    relations = []
    for n in (4, 5):
        images, signatures = [], []
        for k, seed in enumerate(oracles.integer_class_seeds(n).values()):
            for trial in range(2):
                factors = oracles.gaussian_integer_factors(n, 8500 + 10 * n + 2 * k + trial)
                image = oracles.exact_apply_local(seed, factors)
                images.append(PureState(n, image.astype(complex)))
                signatures.append([
                    tuple(oracles.exact_rank(m) for m in oracles.exact_omega_powers(image, n, rows, 3))
                    for rows in rows_order
                ])
        for i, j in itertools.combinations(range(len(images)), 2):
            verdict = slocc_compare(images[i], images[j])
            relations.append(verdict.relation)
            differ = [k for k in range(2) if signatures[i][k] != signatures[j][k]]
            if not differ:
                assert verdict.relation == "not-distinguished", (n, i, j)
                continue
            k = differ[0]
            assert verdict.witness == Witness(
                "ranks", signatures[i][k], signatures[j][k], rows=rows_order[k]
            ), (n, i, j)
    assert 8 <= relations.count("not-distinguished") < len(relations)
