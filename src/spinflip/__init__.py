"""Spin-flipping matrices of n-qubit pure states and their invariants.

Public surface: state and operator types with generators, coefficient
matrices for arbitrary qubit partitions, the spin-flipping matrix family
with its congruence check, rank/singular-value/closed-form invariants, and
SLOCC/LU classification.
"""

from .classify import (
    CompareVerdict,
    FamilyLabel,
    SloccClass,
    Witness,
    classify_acin,
    classify_three,
    classify_two,
    family_label,
    lu_compare,
    slocc_compare,
)
from .coeffmat import QubitPartition, coeff_matrix, local_rank
from .errors import ToleranceInconsistency, ValidationError
from .flip import (
    CongruenceReport,
    OmegaMatrix,
    omega,
    omega_power_sequence,
    verify_congruence,
)
from .invariants import (
    InvariantProfile,
    OddInvariants,
    RankProfile,
    concurrence_even,
    default_rows,
    invariant_profile,
    odd_invariants,
    rank_profile,
    singular_values,
    three_qubit_S,
)
from .states import (
    AcinForm,
    LocalOperator,
    PureState,
    acin_state,
    apply_local,
    parse_operator,
    parse_state,
    random_local,
    random_state,
    serialize_operator,
    serialize_state,
    standard_state,
)

__version__ = "0.1.0"

__all__ = [
    "AcinForm",
    "CompareVerdict",
    "CongruenceReport",
    "FamilyLabel",
    "InvariantProfile",
    "LocalOperator",
    "OddInvariants",
    "OmegaMatrix",
    "PureState",
    "QubitPartition",
    "RankProfile",
    "SloccClass",
    "ToleranceInconsistency",
    "ValidationError",
    "Witness",
    "acin_state",
    "apply_local",
    "classify_acin",
    "classify_three",
    "classify_two",
    "coeff_matrix",
    "concurrence_even",
    "default_rows",
    "family_label",
    "invariant_profile",
    "local_rank",
    "lu_compare",
    "odd_invariants",
    "omega",
    "omega_power_sequence",
    "parse_operator",
    "parse_state",
    "random_local",
    "random_state",
    "rank_profile",
    "serialize_operator",
    "serialize_state",
    "singular_values",
    "slocc_compare",
    "standard_state",
    "three_qubit_S",
    "verify_congruence",
]
