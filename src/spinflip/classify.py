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
    DEFAULT_RANK_TOL,
    _partition_invariants,
    _peak_scaled,
    _require_normalized,
    concurrence_even,
    default_rows,
    odd_invariants,
    rank_profile,
    three_qubit_S,
)
from .states import AcinForm, PureState, _norm, acin_state

THREE_QUBIT_LABELS = ("GHZ", "W", "A-BC", "B-AC", "C-AB", "A-B-C")
TWO_QUBIT_LABELS = ("entangled", "product")

DEFAULT_COMPARE_TOL = 1e-9


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


# family-parameter upper bounds by kind and three-qubit class; S is the
# product of the two coefficient-matrix singular values, so 1/2 bounds it
# for every class of normalized states
_FS_UPPER = {
    "GHZ": 0.5,
    "W": 0.5,
    "B-AC": 0.5,
    "A-BC": 0.5,
    "A-B-C": 0.0,
}
_INTERVAL_SLOP = 1e-9


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
            upper = _FS_UPPER.get(self.slocc_class or "", 0.5)
        if not -_INTERVAL_SLOP <= self.value <= upper + _INTERVAL_SLOP:
            raise ValidationError(
                f"{self.kind} value {self.value} outside [0, {upper}]"
            )


def classify_two(state: PureState, tol: float = DEFAULT_RANK_TOL) -> SloccClass:
    """Two-qubit classes: the power-1 matrix has rank 2 (entangled) or 0.
    The powers 1..3 ranks ride along as evidence."""
    if state.n != 2:
        raise ValidationError("classify_two requires exactly 2 qubits")
    ranks = rank_profile(state, QubitPartition((1,), 2), 3, tol).ranks
    rank = ranks[0]
    if rank == 2:
        return SloccClass("entangled", ranks)
    if rank == 0:
        return SloccClass("product", ranks)
    raise ToleranceInconsistency(
        f"two-qubit power-1 matrix has rank {rank}; expected 0 or 2",
        details={"rank": rank, "tol": tol},
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


def classify_three(state: PureState, tol: float = DEFAULT_RANK_TOL) -> SloccClass:
    """Six-class SLOCC classification of a three-qubit state.

    The single-qubit local ranks name the qubits that factor out: none
    (all at 2) for GHZ and W, which the rank triple then tells apart; one
    for the biseparable classes and all three for the product class, whose
    triples (2,0,0)/(0,0,0) are shared. The triple and the local ranks must
    tell a consistent story or the input sits on a tolerance boundary.
    """
    if state.n != 3:
        raise ValidationError("classify_three requires exactly 3 qubits")
    # local ranks, like rank_profile, read the ray at the exact peak scale
    state = _peak_scaled(state)
    triple = rank_profile(state, QubitPartition((1, 2), 3), 3, tol).ranks
    local = _local_ranks(state, tol)
    if local == (2, 2, 2):
        label = {_TRIPLES["GHZ"]: "GHZ", _TRIPLES["W"]: "W"}.get(triple)
    else:
        label = _SEPARATED.get(tuple(q for q in (1, 2, 3) if local[q - 1] == 1))
    if label is None:
        raise ToleranceInconsistency(
            f"rank triple {triple} with local ranks {local} matches no class",
            details={"triple": triple, "local_ranks": local, "tol": tol},
        )
    if triple != _TRIPLES[label]:
        raise ToleranceInconsistency(
            f"local ranks {local} point to {label} but the rank triple is {triple}",
            details={"triple": triple, "local_ranks": local, "label": label},
        )
    return SloccClass(label, triple, local)


def _acin_tree(form: AcinForm, tol: float) -> str:
    """Decision tree over the canonical-form weights, thresholded at tol."""
    l0, l1, l2, l3, l4 = form.lambdas()
    if l0 * l4 > tol:
        return "GHZ"
    if l4 <= tol:
        if l0 <= tol:
            # both ends vanish: qubit 1 factors out
            return "A-B-C" if l2 * l3 <= tol else "A-BC"
        if l2 <= tol and l3 <= tol:
            return "A-B-C"
        if l2 <= tol:
            return "C-AB"
        if l3 <= tol:
            return "B-AC"
        return "W"
    # l0 vanishes, l4 does not: qubit 1 factors; the rest is entangled
    # unless the 2x2 block determinant l2 l3 - l1 l4 e^{i phi} vanishes
    det = l2 * l3 - l1 * l4 * np.exp(1j * form.phi)
    return "A-B-C" if abs(det) <= tol else "A-BC"


def classify_acin(
    form: AcinForm, tol: float = DEFAULT_RANK_TOL
) -> tuple[SloccClass, tuple[int, int, int], float]:
    """Class of a canonical form via the decision tree, cross-checked
    against the numerical classifier; returns (class, rank triple, S)."""
    tree_label = _acin_tree(form, tol)
    state = acin_state(form)
    numeric = classify_three(state, tol)
    if numeric.label != tree_label:
        raise ToleranceInconsistency(
            f"decision tree says {tree_label} but numerical ranks say "
            f"{numeric.label}; input is near a tolerance boundary",
            details={"tree": tree_label, "numeric": numeric.label,
                     "lambdas": form.lambdas(), "phi": form.phi},
        )
    return numeric, numeric.ranks, three_qubit_S(state)


def _sorted_ascending(sigma: np.ndarray) -> np.ndarray:
    return np.sort(np.asarray(sigma, dtype=float))


def lu_compare(
    a: PureState,
    b: PureState,
    partitions: list[QubitPartition] | None = None,
    max_power: int = 3,
    tol: float = DEFAULT_COMPARE_TOL,
    rank_tol: float = DEFAULT_RANK_TOL,
) -> CompareVerdict:
    """Necessary-condition comparison of two states under local unitaries.

    Checks, in order: the parity-appropriate closed form (concurrence, or
    n-tangle and delta), then per partition and power the sorted
    singular-value lists and |det|. The first difference beyond tol is the
    witness; agreement everywhere is merely not-distinguished.
    """
    if a.n != b.n:
        raise ValidationError(f"states have different sizes: {a.n} vs {b.n}")
    _require_normalized(a, "lu_compare")
    _require_normalized(b, "lu_compare")
    if a.n % 2 == 0:
        ca, cb = concurrence_even(a), concurrence_even(b)
        if abs(ca - cb) > tol:
            return CompareVerdict(
                "inequivalent", Witness("concurrence", ca, cb)
            )
    elif a.n >= 3:
        oa, ob = odd_invariants(a), odd_invariants(b)
        if abs(oa.ntangle - ob.ntangle) > tol:
            return CompareVerdict(
                "inequivalent", Witness("ntangle", oa.ntangle, ob.ntangle)
            )
        if abs(oa.delta - ob.delta) > tol:
            return CompareVerdict(
                "inequivalent", Witness("delta", oa.delta, ob.delta)
            )
    if partitions is None:
        partitions = [QubitPartition(default_rows(a.n), a.n)]
    for partition in partitions:
        inv_a = _partition_invariants(a, partition, max_power, rank_tol)
        inv_b = _partition_invariants(b, partition, max_power, rank_tol)
        for idx in range(max_power):
            sa = _sorted_ascending(inv_a.singular_values[idx])
            sb = _sorted_ascending(inv_b.singular_values[idx])
            gaps = np.abs(sa - sb)
            if np.any(gaps > tol):
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
            da, db = inv_a.abs_dets[idx], inv_b.abs_dets[idx]
            if abs(da - db) > tol:
                return CompareVerdict(
                    "inequivalent",
                    Witness("abs-det", da, db, rows=partition.rows, power=idx + 1),
                )
    return CompareVerdict("not-distinguished")


def _unit(state: PureState) -> PureState:
    """Rescale to unit norm; SLOCC comparisons are statements about rays.

    The exact power-of-two rescaling of _peak_scaled comes first, so the
    norm never divides by a subnormal or huge number and cannot overflow.
    """
    if state.normalized:
        return state
    if not np.any(state.amplitudes):
        raise ValidationError("cannot compare a zero state")
    amps = _peak_scaled(state).amplitudes
    return PureState(state.n, amps / _norm(amps))


def slocc_compare(
    a: PureState, b: PureState, tol: float = DEFAULT_RANK_TOL
) -> CompareVerdict:
    """Necessary-condition comparison under invertible local operators.

    Accepts unnormalized input (invertible transforms break the norm);
    every quantity compared is either scale-invariant or computed on the
    normalized representative of the ray.
    """
    if a.n != b.n:
        raise ValidationError(f"states have different sizes: {a.n} vs {b.n}")
    a, b = _unit(a), _unit(b)
    if a.n % 2 == 0:
        ca, cb = concurrence_even(a), concurrence_even(b)
        if (ca <= tol) != (cb <= tol):
            return CompareVerdict("inequivalent", Witness("concurrence", ca, cb))
    elif a.n >= 3:
        ta, tb = odd_invariants(a).ntangle, odd_invariants(b).ntangle
        if (ta <= tol) != (tb <= tol):
            return CompareVerdict("inequivalent", Witness("ntangle", ta, tb))
    classify = {2: classify_two, 3: classify_three}.get(a.n)
    if classify is not None:
        la, lb = classify(a, tol), classify(b, tol)
        if la != lb:
            return CompareVerdict("inequivalent", Witness("class", la.label, lb.label))
        ra, rb = la.ranks, lb.ranks
    else:
        partition = QubitPartition(default_rows(a.n), a.n)
        ra = rank_profile(a, partition, 3, tol).ranks
        rb = rank_profile(b, partition, 3, tol).ranks
    if ra != rb:
        return CompareVerdict(
            "inequivalent", Witness("ranks", ra, rb, rows=default_rows(a.n))
        )
    return CompareVerdict("not-distinguished")


def _pair_concurrence_of_ab(state: PureState) -> float:
    """Concurrence of the entangled {1,2} pair of a C-AB state.

    The rows {1,2} coefficient matrix of such a state is rank 1; its top
    left singular vector scaled by the top singular value is the pair's
    two-qubit amplitude vector (unit norm, phase-immaterial).
    """
    cmat = coeff_matrix(state, QubitPartition((1, 2), 3))
    u, sigma, _ = np.linalg.svd(cmat)
    chi = sigma[0] * u[:, 0]
    return float(abs(chi[0] * chi[3] - chi[1] * chi[2]))


def family_label(state: PureState, tol: float = DEFAULT_RANK_TOL) -> FamilyLabel:
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
    label = classify_three(state, tol).label
    if label == "C-AB":
        return FamilyLabel("F_c", _pair_concurrence_of_ab(state), slocc_class=label)
    if label == "A-B-C":
        return FamilyLabel("F_S", 0.0, slocc_class=label)
    return FamilyLabel("F_S", three_qubit_S(state), slocc_class=label)
