"""SLOCC classification, LU comparison verdicts, and LU family labels.

Classification for three qubits works from the rank triple of the rows
{1,2} spin-flipping matrix, disambiguating the two biseparable pairs that
share a triple via single-qubit local ranks. Comparisons are necessary
conditions only: a not-distinguished verdict never asserts equivalence.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .coeffmat import QubitPartition, _local_ranks, coeff_matrix
from .errors import ToleranceInconsistency, ValidationError
from .invariants import (
    RANK_TOL,
    _closed_forms,
    _partition_invariants,
    _require_normalized,
    _spectra,
    concurrence_even,
    default_rows,
    odd_invariants,
    singular_values,
    three_qubit_S,
)
from .states import AcinForm, PureState, _require_power, acin_state

THREE_QUBIT_LABELS = ("GHZ", "W", "A-BC", "B-AC", "C-AB", "A-B-C")
TWO_QUBIT_LABELS = ("entangled", "product")

# the float slack of a closed form in [0, 1/2]: FamilyLabel's interval margin
# and lu_compare's one threshold, there also relative on each power's spectra
COMPARE_TOL = 1e-9


@dataclass(frozen=True)
class SloccClass:
    """SLOCC class label with its evidence, which takes no part in
    equality: the powers 1..3 ranks of the default partition (rows {1} for
    two qubits, {1,2} for three) and, from classify_three, the single-qubit
    local ranks."""

    label: str
    ranks: tuple[int, ...] | None = field(default=None, compare=False)
    local_ranks: tuple[int, ...] | None = field(default=None, compare=False)

    def __post_init__(self):
        if self.label not in THREE_QUBIT_LABELS + TWO_QUBIT_LABELS:
            raise ValidationError(f"unknown SLOCC class label {self.label!r}")


@dataclass(frozen=True)
class Witness:
    """First invariant found to differ: what it was and both values."""

    kind: str
    value_a: object
    value_b: object
    rows: tuple[int, ...] | None = None
    power: int | None = None


@dataclass(frozen=True)
class CompareVerdict:
    relation: str
    witness: Witness | None = None

    def __post_init__(self):
        if self.relation not in ("inequivalent", "not-distinguished"):
            raise ValidationError(f"unknown relation {self.relation!r}")
        if self.relation == "inequivalent" and self.witness is None:
            raise ValidationError("inequivalent verdicts need a witness")


@dataclass(frozen=True)
class FamilyLabel:
    """LU family tag: kind F_c, F_g, or F_S plus the real family parameter."""

    kind: str
    value: float
    slocc_class: str | None = None

    def __post_init__(self):
        if self.kind not in ("F_c", "F_g", "F_S"):
            raise ValidationError(f"unknown family kind {self.kind!r}")
        upper = {"F_c": 0.5, "F_g": 0.25}.get(self.kind)
        if upper is None:
            # S is the product of the two coefficient-matrix singular
            # values, so 1/2 bounds it for every class of normalized
            # states; the product class is the one family S = 0
            upper = 0.0 if self.slocc_class == "A-B-C" else 0.5
        if not -COMPARE_TOL <= self.value <= upper + COMPARE_TOL:
            raise ValidationError(
                f"{self.kind} value {self.value} outside [0, {upper}]"
            )


_TRIPLES = {
    "GHZ": (2, 2, 2),
    "W": (2, 1, 0),
    "A-BC": (2, 0, 0),
    "B-AC": (2, 0, 0),
    "C-AB": (0, 0, 0),
    "A-B-C": (0, 0, 0),
}

# labels by the qubits whose local rank is 1, i.e. that factor out
_SEPARATED = {(1,): "A-BC", (2,): "B-AC", (3,): "C-AB", (1, 2, 3): "A-B-C"}


def _two_qubit_class(ranks: tuple[int, ...]) -> SloccClass:
    """The two-qubit class of the powers 1..3 ranks of rows {1}."""
    rank = ranks[0]
    if rank == 2:
        return SloccClass("entangled", ranks)
    if rank == 0:
        return SloccClass("product", ranks)
    raise ToleranceInconsistency(
        f"two-qubit power-1 matrix has rank {rank}; expected 0 or 2",
        details={"rank": rank, "tol": RANK_TOL},
    )


def _three_qubit_class(triple: tuple[int, ...], local: tuple[int, ...]) -> SloccClass:
    """The three-qubit class of the rows {1,2} rank triple and the local ranks."""
    if local == (2, 2, 2):
        label = {_TRIPLES["GHZ"]: "GHZ", _TRIPLES["W"]: "W"}.get(triple)
    else:
        label = _SEPARATED.get(tuple(q for q in (1, 2, 3) if local[q - 1] == 1))
    if label is None:
        raise ToleranceInconsistency(
            f"rank triple {triple} with local ranks {local} matches no class",
            details={"triple": triple, "local_ranks": local, "tol": RANK_TOL},
        )
    if triple != _TRIPLES[label]:
        raise ToleranceInconsistency(
            f"local ranks {local} point to {label} but the rank triple is {triple}",
            details={"triple": triple, "local_ranks": local, "label": label},
        )
    return SloccClass(label, triple, local)


def _classes(states) -> list[SloccClass]:
    """SLOCC classes of two- or three-qubit states from one pass: the ranks
    of every state's default rows from one SVD call and, for three qubits,
    every single-qubit local rank from one more."""
    n = states[0].n
    profiles = _partition_invariants(states, QubitPartition(default_rows(n), n))
    ranks = [p.rank_profile.ranks for p in profiles]
    if n == 2:
        return [_two_qubit_class(r) for r in ranks]
    return [_three_qubit_class(r, local) for r, local in zip(ranks, _local_ranks(states))]


def classify_two(state: PureState) -> SloccClass:
    """Two-qubit classes: the power-1 matrix has rank 2 (entangled) or 0.
    The powers 1..3 ranks ride along as evidence."""
    if state.n != 2:
        raise ValidationError("classify_two requires exactly 2 qubits")
    return _classes([state])[0]


def classify_three(state: PureState) -> SloccClass:
    """Six-class SLOCC classification of a three-qubit state.

    The single-qubit local ranks name the qubits that factor out: none
    (all at 2) for GHZ and W, which the rank triple then tells apart; one
    for the biseparable classes and all three for the product class, whose
    triples (2,0,0)/(0,0,0) are shared. The triple and the local ranks must
    tell a consistent story or the input sits on a rank boundary.
    """
    if state.n != 3:
        raise ValidationError("classify_three requires exactly 3 qubits")
    return _classes([state])[0]


def _acin_tree(form: AcinForm) -> str:
    """Decision tree over the canonical-form weights, thresholded at RANK_TOL."""
    l0, l1, l2, l3, l4 = form.lambdas()
    if l0 * l4 > RANK_TOL:
        return "GHZ"
    if l4 <= RANK_TOL:
        if l0 <= RANK_TOL:
            # both ends vanish: qubit 1 factors out
            return "A-B-C" if l2 * l3 <= RANK_TOL else "A-BC"
        if l2 <= RANK_TOL and l3 <= RANK_TOL:
            return "A-B-C"
        if l2 <= RANK_TOL:
            return "C-AB"
        if l3 <= RANK_TOL:
            return "B-AC"
        return "W"
    # l0 vanishes, l4 does not: qubit 1 factors; the rest is entangled
    # unless the 2x2 block determinant l2 l3 - l1 l4 e^{i phi} vanishes
    det = l2 * l3 - l1 * l4 * np.exp(1j * form.phi)
    return "A-B-C" if abs(det) <= RANK_TOL else "A-BC"


def classify_acin(form: AcinForm) -> tuple[SloccClass, tuple[int, int, int], float]:
    """Class of a canonical form via the decision tree, cross-checked
    against the numerical classifier; returns (class, rank triple, S)."""
    tree_label = _acin_tree(form)
    state = acin_state(form)
    numeric = classify_three(state)
    if numeric.label != tree_label:
        raise ToleranceInconsistency(
            f"decision tree says {tree_label} but numerical ranks say "
            f"{numeric.label}; input is near a rank boundary",
            details={"tree": tree_label, "numeric": numeric.label,
                     "lambdas": form.lambdas(), "phi": form.phi},
        )
    return numeric, numeric.ranks, three_qubit_S(state)


def lu_compare(
    a: PureState,
    b: PureState,
    partitions: list[QubitPartition] | None = None,
    max_power: int = 3,
) -> CompareVerdict:
    """Necessary-condition comparison of two states under local unitaries.

    Checks, in order: the parity-appropriate closed form (concurrence, or
    n-tangle and delta), then per partition and power the sorted
    singular-value lists. A closed form, which lies in [0, 1/2], differs
    beyond COMPARE_TOL. A gap at power l differs beyond COMPARE_TOL times
    the larger top singular value of power l and beyond both states' noise
    floors of power l, so a power that vanishes on both sides compares
    equal. The first difference is the witness; agreement everywhere is
    merely not-distinguished.
    """
    if a.n != b.n:
        raise ValidationError(f"states have different sizes: {a.n} vs {b.n}")
    # checked here, or a closed-form verdict would skip it
    max_power = _require_power(max_power, "max_power")
    _require_normalized(a, "lu_compare")
    _require_normalized(b, "lu_compare")
    (ca, oa), (cb, ob) = _closed_forms(a), _closed_forms(b)
    witnesses = [("concurrence", ca, cb)] if ca is not None else []
    if oa is not None:
        witnesses = [("ntangle", oa.ntangle, ob.ntangle), ("delta", oa.delta, ob.delta)]
    for kind, va, vb in witnesses:
        if abs(va - vb) > COMPARE_TOL:
            return CompareVerdict("inequivalent", Witness(kind, va, vb))
    if partitions is None:
        partitions = [QubitPartition(default_rows(a.n), a.n)]
    for partition in partitions:
        spectra, floors = _spectra((a, b), partition, max_power)
        thresholds = np.maximum(COMPARE_TOL * spectra[:, :, 0].max(axis=0), floors.max(axis=0))
        for idx in range(max_power):
            # spectra descend, so reversing a row sorts it ascending
            sa, sb = spectra[0, idx, ::-1], spectra[1, idx, ::-1]
            gaps = np.abs(sa - sb)
            if np.any(gaps > thresholds[idx]):
                k = int(np.argmax(gaps))
                return CompareVerdict(
                    "inequivalent",
                    Witness(
                        "singular-value",
                        float(sa[k]),
                        float(sb[k]),
                        rows=partition.rows,
                        power=idx + 1,
                    ),
                )
    return CompareVerdict("not-distinguished")


def slocc_compare(a: PureState, b: PureState) -> CompareVerdict:
    """Necessary-condition comparison under invertible local operators.

    Every decision is a rank, so the verdict is a statement about rays and
    accepts unnormalized input (invertible transforms break the norm). Two
    and three qubits compare their classes. From four qubits up the powers
    1..3 ranks of rows {1} come first: that 2x2 matrix has the concurrence
    (even n) or t1, t2 (odd n) as its singular values, so its rank is zero
    exactly when the closed form is. The default rows follow.
    """
    if a.n != b.n:
        raise ValidationError(f"states have different sizes: {a.n} vs {b.n}")
    if a.n in (2, 3):
        la, lb = _classes([a, b])
        if la != lb:
            return CompareVerdict("inequivalent", Witness("class", la.label, lb.label))
        return CompareVerdict("not-distinguished")
    for rows in ((1,), default_rows(a.n)):
        pa, pb = _partition_invariants((a, b), QubitPartition(rows, a.n))
        ra, rb = pa.rank_profile.ranks, pb.rank_profile.ranks
        if ra != rb:
            return CompareVerdict("inequivalent", Witness("ranks", ra, rb, rows=rows))
    return CompareVerdict("not-distinguished")


def family_label(state: PureState) -> FamilyLabel:
    """LU family: F_c by concurrence (even n), F_g by n-tangle (odd n > 3),
    F_S by S within each three-qubit class, except C-AB which is an F_c
    family of its entangled pair and the full product class, a single
    family written F_S with value 0."""
    _require_normalized(state, "family_label")
    if state.n < 2:
        raise ValidationError("family_label needs at least 2 qubits")
    if state.n % 2 == 0:
        return FamilyLabel("F_c", concurrence_even(state))
    if state.n != 3:
        return FamilyLabel("F_g", odd_invariants(state).ntangle)
    label = classify_three(state).label
    if label == "C-AB":
        # C_1 of chi (x) phi is the Kronecker product of the pair's 2x2
        # amplitude matrix chi with the unit vector phi, so the product of
        # its singular values is |det chi|, the pair's concurrence
        pair = np.prod(singular_values(coeff_matrix(state, QubitPartition((1,), 3))))
        return FamilyLabel("F_c", float(pair), slocc_class=label)
    if label == "A-B-C":
        return FamilyLabel("F_S", 0.0, slocc_class=label)
    return FamilyLabel("F_S", three_qubit_S(state), slocc_class=label)
