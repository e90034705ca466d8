"""Ranks, singular values, determinants, and closed-form invariants.

The closed forms (concurrence for even n, the e11/e12/e22 family for odd n,
and the three-qubit S) are computed straight from the amplitudes with
additions and multiplications only; singular-value decompositions are kept
as an independent cross-check route and for the general invariant profile.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .coeffmat import QubitPartition
from .errors import ToleranceInconsistency, ValidationError
from .flip import _omega_powers
from .states import NORM_ATOL, PureState, _norm, parity_signs

DEFAULT_RANK_TOL = 1e-10

# absolute floor keeping relative thresholds meaningful near zero
TINY = 1e-300

# a power matrix whose top singular value falls below this fraction of its
# a-priori magnitude is treated as accumulated rounding noise (rank 0)
NOISE_FLOOR = 1e-12


def default_rows(n: int) -> tuple[int, ...]:
    """Default row qubits: {1,2} from three qubits up, {1} for two."""
    return (1, 2) if n >= 3 else (1,)


def singular_values(m) -> np.ndarray:
    """Singular values of a complex matrix, or of each matrix in a stack,
    descending along the last axis."""
    mat = np.asarray(m, dtype=complex)
    if not np.all(np.isfinite(mat)):
        raise ValidationError("matrix has non-finite entries")
    return np.linalg.svd(mat, compute_uv=False)


def _rank(sigma: np.ndarray, tol: float, floor) -> np.ndarray:
    """The one rank rule, over a stack of descending spectra (last axis):
    0 when the top singular value is at or below the noise floor, else the
    count above tol relative to the top value. floor broadcasts against
    the leading axes."""
    if not tol > 0:
        raise ValidationError(f"tol must be positive, got {tol}")
    if sigma.shape[-1] == 0:
        return np.zeros(sigma.shape[:-1], dtype=int)
    top = sigma[..., :1]
    counts = np.sum(sigma > tol * np.maximum(top, TINY), axis=-1)
    return np.where(top[..., 0] > floor, counts, 0)


@dataclass(frozen=True)
class RankProfile:
    """Ranks of the power-1..K spin-flipping matrices for one partition."""

    partition: QubitPartition
    ranks: tuple[int, ...]
    tolerance: float

    def __post_init__(self):
        ranks = tuple(int(r) for r in self.ranks)
        object.__setattr__(self, "ranks", ranks)
        if any(a < b for a, b in zip(ranks, ranks[1:])):
            raise ToleranceInconsistency(
                f"rank sequence {ranks} is not non-increasing; "
                f"tolerance {self.tolerance} is misconfigured for this input",
                details={"ranks": ranks, "tolerance": self.tolerance},
            )


@dataclass(frozen=True)
class OddInvariants:
    """Closed-form quantities of an odd-n state: e11, e12, e22 and friends.

    delta = 2|e12|^2 + |e11|^2 + |e22|^2, dee = |e11 e22 - e12^2|^2, and
    (t1, t2) are the two singular values of the power-1 single-row-qubit
    matrix; ntangle = t1 * t2 = |e11 e22 - e12^2|.
    """

    e11: complex
    e12: complex
    e22: complex
    delta: float
    dee: float
    t1: float
    t2: float
    ntangle: float

    def __post_init__(self):
        t1_sq = (self.delta + math.sqrt(max(self.delta**2 - 4 * self.dee, 0.0))) / 2
        t2_sq = (self.delta - math.sqrt(max(self.delta**2 - 4 * self.dee, 0.0))) / 2
        if abs(self.t1**2 - t1_sq) > 1e-12 or abs(self.t2**2 - t2_sq) > 1e-12:
            raise ValidationError("t1/t2 do not match delta and dee")
        if abs(self.t1 * self.t2 - self.ntangle) > 1e-10:
            raise ValidationError("t1*t2 does not match ntangle")


@dataclass(frozen=True)
class PartitionInvariants:
    """Everything computed for one partition: ranks, singular values, |det|."""

    rank_profile: RankProfile
    singular_values: tuple[np.ndarray, ...] = field(repr=False)
    abs_dets: tuple[float, ...]


@dataclass(frozen=True)
class InvariantProfile:
    n: int
    partitions: tuple[PartitionInvariants, ...]
    concurrence: float | None = None
    odd: OddInvariants | None = None
    s_value: float | None = None


def _require_normalized(state: PureState, what: str) -> None:
    if state.normalized:
        return
    norm = _norm(state.amplitudes)
    if not abs(norm * norm - 1.0) <= NORM_ATOL:
        raise ValidationError(f"{what} requires a normalized state")


def _partition_invariants(
    state: PureState,
    partition: QubitPartition,
    max_power: int = 3,
    tol: float = DEFAULT_RANK_TOL,
) -> PartitionInvariants:
    stack = _omega_powers(state, partition, max_power)
    sigmas = singular_values(stack)
    # Ranks are relative to each power's own top singular value (the
    # per-matrix convention; a scalar prefactor then cannot change the
    # count), but a matrix whose top value sits below an a-priori noise
    # floor is all rounding noise and has rank 0. The floor for power l is
    # the entry scale sum |a_i|^2 times sigma_1 of power 1 raised to l-1:
    # that is the magnitude the recursion multiplies in per step, so
    # accumulated rounding error stays orders of magnitude below it.
    norm = _norm(state.amplitudes)
    base = max(norm * norm, TINY)
    scale1 = float(sigmas[0, 0])
    floors = [NOISE_FLOOR * base * scale1**ell for ell in range(max_power)]
    ranks = _rank(sigmas, tol, np.array(floors))
    # det v^{(x)i} = 1, so the recursion gives |det Omega^(l)| = |det Omega|^l
    abs_det = abs(np.linalg.det(stack[0]))
    dets = tuple(float(abs_det**ell) for ell in range(1, max_power + 1))
    profile = RankProfile(partition, tuple(ranks.tolist()), tol)
    return PartitionInvariants(profile, tuple(sigmas), dets)


def rank_profile(
    state: PureState,
    partition: QubitPartition,
    max_power: int = 3,
    tol: float = DEFAULT_RANK_TOL,
) -> RankProfile:
    """Ranks of the power-1..max_power matrices, non-increasing by contract;
    properties of the ray, so any nonzero scale gives the same ranks."""
    state = _peak_scaled(state)
    return _partition_invariants(state, partition, max_power, tol).rank_profile


def _peak_scaled(state: PureState) -> PureState:
    """An unnormalized state divided by 2^e, which puts its peak magnitude
    in [1/2, 1). Omega^(l) scales as c^(2l), so raw extreme scales underflow
    or overflow the recursion and its noise floors. ldexp keeps the division
    exact and, unlike multiplying by 2.0**-e, cannot overflow for a
    subnormal peak."""
    if state.normalized:
        return state
    _, exp = math.frexp(float(np.max(np.abs(state.amplitudes))))
    amps = state.amplitudes
    scaled = np.empty_like(amps)
    scaled.real = np.ldexp(amps.real, -exp)
    scaled.imag = np.ldexp(amps.imag, -exp)
    return PureState(state.n, scaled, normalized=False)


def concurrence_even(state: PureState) -> float:
    """|sum_i (-1)^{parity(i)} a_i a_{2^n-1-i}| over the lower index half.

    Equals both singular values of the single-row-qubit power-1 matrix for
    even n; ranges over [0, 1/2] on normalized states.
"""
    if state.n % 2:
        raise ValidationError("concurrence_even requires an even number of qubits")
    _require_normalized(state, "concurrence_even")
    amps = state.amplitudes
    half = 2 ** (state.n - 1)
    signs = parity_signs(state.n - 1)
    return float(abs(np.sum(signs * amps[:half] * amps[::-1][:half])))


def odd_invariants(state: PureState) -> OddInvariants:
    """The e11/e12/e22 sums and derived quantities for odd n >= 3."""
    if state.n % 2 == 0 or state.n < 3:
        raise ValidationError("odd_invariants requires odd n >= 3")
    _require_normalized(state, "odd_invariants")
    amps = state.amplitudes
    half, quarter = 2 ** (state.n - 1), 2 ** (state.n - 2)
    sq = parity_signs(state.n - 2)
    sh = parity_signs(state.n - 1)
    lower, upper = amps[:half], amps[half:]
    e11 = 2 * complex(np.sum(sq * lower[:quarter] * lower[::-1][:quarter]))
    e22 = 2 * complex(np.sum(sq * upper[:quarter] * upper[::-1][:quarter]))
    e12 = complex(np.sum(sh * lower * upper[::-1]))
    delta = 2 * abs(e12) ** 2 + abs(e11) ** 2 + abs(e22) ** 2
    hyper = e11 * e22 - e12**2
    dee = abs(hyper) ** 2
    radicand = max(delta**2 - 4 * dee, 0.0)
    t1 = math.sqrt((delta + math.sqrt(radicand)) / 2)
    t2 = math.sqrt(max((delta - math.sqrt(radicand)) / 2, 0.0))
    return OddInvariants(
        e11=e11, e12=e12, e22=e22, delta=delta, dee=dee,
        t1=t1, t2=t2, ntangle=abs(hyper),
    )


def three_qubit_S(state: PureState) -> float:
    """Square root of the six-minor sum; the doubled singular value of the
    rows {1,2} power-1 matrix of a three-qubit state."""
    if state.n != 3:
        raise ValidationError("three_qubit_S requires exactly 3 qubits")
    _require_normalized(state, "three_qubit_S")
    a = state.amplitudes
    terms = (
        a[0] * a[3] - a[1] * a[2],
        a[0] * a[5] - a[1] * a[4],
        a[0] * a[7] - a[1] * a[6],
        a[2] * a[5] - a[3] * a[4],
        a[2] * a[7] - a[3] * a[6],
        a[4] * a[7] - a[5] * a[6],
    )
    return math.sqrt(sum(abs(t) ** 2 for t in terms))


def invariant_profile(
    state: PureState,
    partitions: list[QubitPartition] | None = None,
    max_power: int = 3,
    tol: float = DEFAULT_RANK_TOL,
) -> InvariantProfile:
    """Full profile: per-partition ranks, singular values, |det| per power,
    plus the parity-appropriate closed forms."""
    if partitions is None:
        partitions = [QubitPartition(default_rows(state.n), state.n)]
    per_partition = tuple(
        _partition_invariants(state, p, max_power, tol) for p in partitions
    )
    concurrence = odd = s_value = None
    if state.n % 2 == 0:
        concurrence = concurrence_even(state)
    elif state.n >= 3:
        odd = odd_invariants(state)
    if state.n == 3:
        s_value = three_qubit_S(state)
    return InvariantProfile(
        n=state.n,
        partitions=per_partition,
        concurrence=concurrence,
        odd=odd,
        s_value=s_value,
    )
