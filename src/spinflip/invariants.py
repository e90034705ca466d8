"""Ranks, singular values, and closed-form invariants.

Every spectral threshold lives here: the one rank rule with the spin-flip
rank profiles, the single-qubit local ranks and the local-congruence check
of the spin-flipping matrices, and lu_compare's gap rule. The closed forms
(concurrence for even n, the e11/e12/e22 family for odd n, and the
three-qubit S) are computed straight from the amplitudes with additions
and multiplications only; singular-value decompositions are kept as an
independent cross-check route and for the general invariant profile.
"""

from __future__ import annotations

import ctypes
import functools
import math
import os
import threading
from dataclasses import dataclass, field

import numpy as np

from .coeffmat import QubitPartition, _local_index
from .errors import ToleranceInconsistency, ValidationError
from .flip import NOISE_FLOOR, _power_stacks
from .states import (MAX_QUBITS, LocalOperator, PureState, _rays, _require_power, apply_local,
                     parity_signs)

# the one rank threshold: a singular value counts toward the rank when it
# exceeds this fraction of its spectrum's top value
RANK_TOL = 1e-10

# the float slack of a closed form in [0, 1/2]: FamilyLabel's interval margin
# and lu_compare's one threshold, there also relative on each power's spectra
COMPARE_TOL = 1e-9


def default_rows(n: int) -> tuple[int, ...]:
    """Default row qubits: {1,2} from three qubits up, {1} for two."""
    if n < 2:
        raise ValidationError(f"a partition needs at least 2 qubits, got n = {n}")
    return (1, 2) if n >= 3 else (1,)


# the widest matrix a balanced or narrower partition produces. Up to this
# width OpenBLAS's threaded zgemv in the bidiagonalization spends more on
# synchronisation than a second thread gives back; wider, threads win.
_SERIAL_SVD_WIDTH = 2 ** (MAX_QUBITS // 2)

# OpenBLAS threads no part of the SVD of a matrix with at most 64 x 64
# entries (0.3.31: spectra on 1 and 2 threads agree bit for bit up to 64 x 64
# and differ from 72 x 72), so there the scope would only add 1.5-2 us per
# call (2-vCPU x86 VM): 3% of a three-qubit classification, which makes two
_SERIAL_SVD_MIN_ENTRIES = 64 * 64

# (prefix, suffix) of the thread-count symbols an OpenBLAS build exports
_OPENBLAS_SYMBOLS = (("scipy_openblas_", "64_"), ("openblas_", "64_"), ("openblas_", ""))


@functools.cache
def _openblas_threads():
    """(get, set) of the thread count of the OpenBLAS numpy's LAPACK module
    links, or None when it links none (MKL, Accelerate)."""
    # a symbol lookup on a loaded library also searches the libraries it links
    lib = ctypes.CDLL(np.linalg._umath_linalg.__file__)
    for prefix, suffix in _OPENBLAS_SYMBOLS:
        get = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
        put = getattr(lib, f"{prefix}set_num_threads{suffix}", None)
        if get is not None and put is not None:
            get.argtypes, get.restype = [], ctypes.c_int
            put.argtypes, put.restype = [ctypes.c_int], None
            return get, put
    return None


# OpenBLAS's thread count is process-wide: each scoped SVD holds this lock
# while it runs at one thread, so the saved count is always the caller's
_SERIAL_LOCK = threading.Lock()
if hasattr(os, "register_at_fork"):  # a child forked mid-SVD would inherit it held
    os.register_at_fork(after_in_child=_SERIAL_LOCK._at_fork_reinit)


def singular_values(m) -> np.ndarray:
    """Singular values of a complex matrix, or of each matrix in a stack,
    descending along the last axis. On an OpenBLAS, matrices up to
    2^(MAX_QUBITS // 2) wide are decomposed on one thread, so their spectra
    do not depend on the host's core count."""
    try:
        mat = np.asarray(m, dtype=complex)
    except (TypeError, ValueError) as exc:  # a ragged nesting or a non-number
        raise ValidationError(f"not a complex matrix: {exc}") from None
    if not np.all(np.isfinite(mat)):
        raise ValidationError("matrix has non-finite entries")
    shape = mat.shape[-2:]
    try:
        if (math.prod(shape) <= _SERIAL_SVD_MIN_ENTRIES or min(shape) > _SERIAL_SVD_WIDTH
                or _openblas_threads() is None):
            return np.linalg.svd(mat, compute_uv=False)
        get, put = _openblas_threads()
        with _SERIAL_LOCK:
            saved = get()
            put(1)
            try:
                return np.linalg.svd(mat, compute_uv=False)
            finally:
                put(saved)
    except np.linalg.LinAlgError:
        if mat.ndim >= 2:  # read only on failure, so a matrix pays nothing for it
            raise
        raise ValidationError(f"need a matrix or a stack of them, got {mat.ndim} axes") from None


def _rank(sigma: np.ndarray, floor) -> np.ndarray:
    """The one rank rule, over a stack of descending spectra (last axis):
    0 when the top singular value is at or below the noise floor, else the
    count above RANK_TOL relative to the top value. floor broadcasts
    against the leading axes."""
    top = sigma[..., :1]
    counts = np.sum(sigma > RANK_TOL * top, axis=-1)
    return np.where(top[..., 0] > floor, counts, 0)


@dataclass(frozen=True)
class RankProfile:
    """Ranks of the power-1..K spin-flipping matrices for one partition."""

    partition: QubitPartition
    ranks: tuple[int, ...]

    def __post_init__(self):
        ranks = tuple(int(r) for r in self.ranks)
        object.__setattr__(self, "ranks", ranks)
        if any(a < b for a, b in zip(ranks, ranks[1:])):
            raise ToleranceInconsistency(
                f"rank sequence {ranks} is not non-increasing; "
                "the input sits on a rank boundary",
                details={"ranks": ranks, "tolerance": RANK_TOL},
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
    delta: float = field(init=False)
    dee: float = field(init=False)
    t1: float = field(init=False)
    t2: float = field(init=False)
    ntangle: float = field(init=False)

    def __post_init__(self):
        delta = 2 * abs(self.e12) ** 2 + abs(self.e11) ** 2 + abs(self.e22) ** 2
        hyper = self.e11 * self.e22 - self.e12**2
        dee, ntangle = abs(hyper) ** 2, abs(hyper)
        t1 = math.sqrt((delta + math.sqrt(max(delta**2 - 4 * dee, 0.0))) / 2)
        # t1 t2 = ntangle; the difference form of t2 cancels its digits away
        t2 = ntangle / t1 if t1 else 0.0
        derived = {"delta": delta, "dee": dee, "t1": t1, "t2": t2, "ntangle": ntangle}
        for name, value in derived.items():
            object.__setattr__(self, name, value)


@dataclass(frozen=True, eq=False)
class PartitionInvariants:
    """Everything computed for one partition: ranks and singular values."""

    rank_profile: RankProfile
    singular_values: tuple[np.ndarray, ...] = field(repr=False)

    @property
    def abs_dets(self) -> tuple[float, ...]:
        """|det| per power, the product of its singular values. Only
        benchmarks/stages.py reads it; it goes when that stops doing so."""
        return tuple(float(np.prod(sigma)) for sigma in self.singular_values)


@dataclass(frozen=True)
class CongruenceReport:
    """Outcome of checking the local-transformation congruence identity."""

    alpha: complex
    beta: complex
    residual: float

    def __post_init__(self):
        if not self.residual >= 0:
            raise ValidationError(f"residual must be >= 0, got {self.residual}")


@dataclass(frozen=True, eq=False)
class InvariantProfile:
    n: int
    partitions: tuple[PartitionInvariants, ...]
    concurrence: float | None = None
    odd: OddInvariants | None = None
    s_value: float | None = None


def _require_normalized(state: PureState, what: str) -> None:
    if not state.normalized:
        raise ValidationError(f"{what} requires a normalized state")


def _noise_floors(norms, tops, max_power: int) -> np.ndarray:
    """(S, max_power) floors NOISE_FLOOR * ||a||^2 * top^(l-1), l = 1..max_power,
    top being sigma_1 of power 1: the magnitude the recursion multiplies in
    per step, so its rounding error stays orders below it. Power l at or
    below its floor is noise, of rank 0. The floor has power l's degree 2l
    in the state's scale, so any scale reads the ray."""
    return np.array([[NOISE_FLOOR * (norm * norm) * top**ell for ell in range(max_power)]
                     for norm, top in zip(norms, tops)])


def _spectra(states, partition: QubitPartition, max_power: int) -> tuple[np.ndarray, np.ndarray]:
    """Spectra (S, K, d) and noise floors (S, K) of powers 1..K of S
    states' rays. All S power stacks come from one recursion and go to one
    singular_values call as one (S*K, d, d) stack; LAPACK decomposes each
    matrix on its own, so a state's spectra ignore its company."""
    amps, norms = _rays(states)
    stacks = _power_stacks(amps, norms, partition, max_power)
    sigmas = singular_values(stacks.reshape((-1,) + stacks.shape[2:])).reshape(stacks.shape[:3])
    return sigmas, _noise_floors(norms, sigmas[:, 0, 0], max_power)


def _first_gap(a, b, partition: QubitPartition, max_power: int) -> tuple[int, float, float] | None:
    """(power, sigma_a, sigma_b) at the largest gap of the first power whose
    ascending spectra differ, or None. A gap at power l counts beyond
    COMPARE_TOL times the larger top singular value of power l and beyond
    both states' noise floors of power l, so noise on both sides is equal."""
    spectra, floors = _spectra((a, b), partition, max_power)
    thresholds = np.maximum(COMPARE_TOL * spectra[:, :, 0].max(axis=0), floors.max(axis=0))
    # spectra descend, so reversing a row sorts it ascending
    for idx, (sa, sb) in enumerate(zip(spectra[0, :, ::-1], spectra[1, :, ::-1])):
        gaps = np.abs(sa - sb)
        if np.any(gaps > thresholds[idx]):
            k = int(np.argmax(gaps))
            return idx + 1, float(sa[k]), float(sb[k])
    return None


def _partition_invariants(states, partition: QubitPartition,
                          max_power: int = 3) -> list[PartitionInvariants]:
    """Ranks and spectra of S states, one entry each, from one _spectra
    call: the one place spectra become a checked RankProfile
    (_local_ranks and verify_congruence, below, apply the same _rank rule
    to their own). A rank counts against its power's own top singular
    value, so a scalar prefactor cannot change it, and is 0 at or below the
    power's noise floor."""
    sigmas, floors = _spectra(states, partition, max_power)
    return [PartitionInvariants(RankProfile(partition, tuple(ranks.tolist())), tuple(sigma))
            for ranks, sigma in zip(_rank(sigmas, floors), sigmas)]


def _local_ranks(states) -> list[tuple[int, ...]]:
    """Ranks of all n single-qubit coefficient matrices C_1..C_n of each
    state's ray, from one gather and one stacked SVD."""
    n = states[0].n
    # no noise floor: sigma_1(C_k) >= ||a|| / sqrt(2) for every nonzero state
    stack = _rays(states)[0][:, _local_index(n)]
    ranks = _rank(singular_values(stack.reshape(-1, 2, 2 ** (n - 1))), 0.0)
    return [tuple(row) for row in ranks.reshape(len(states), n).tolist()]


def rank_profile(
    state: PureState,
    partition: QubitPartition,
    max_power: int = 3,
) -> RankProfile:
    """Ranks of the power-1..max_power matrices, non-increasing by contract;
    properties of the ray, so any nonzero scale gives the same ranks."""
    return _partition_invariants([state], partition, max_power)[0].rank_profile


def verify_congruence(
    state: PureState,
    op: LocalOperator,
    partition: QubitPartition,
    ell: int = 1,
) -> CongruenceReport:
    """Check the congruence identity for one state, operator, and power.

    Both sides have degree 2l in the state's scale, so the state is read as
    its ray and transformed from there: LHS is the power-l matrix of the
    transformed ray, RHS alpha^(l-1) beta^l P Omega^(.l) P^T of the ray.
    When both states' power l has rank 0 by the rank rule's noise floor,
    both sides are rounding noise and the residual is 0.0; otherwise it is
    max |LHS - RHS| over the larger of max |LHS| and max |RHS|.
    """
    if partition.n != state.n or op.n != state.n:
        raise ValidationError("state, operator, and partition sizes must agree")
    ell = _require_power(ell, "power")
    (ray,), (norm,) = _rays([state])
    dets = op.determinants()
    alpha = complex(np.prod([dets[q - 1] for q in partition.rows]))
    beta = complex(np.prod([dets[q - 1] for q in partition.columns()]))
    p_mat = functools.reduce(np.kron, [op.factors[q - 1] for q in partition.rows])
    moved = apply_local(PureState(state.n, ray), op)
    norms = (moved.norm(), norm)
    stacks = _power_stacks(np.stack((moved.amplitudes, ray)), norms, partition, ell)
    lhs = stacks[0, -1]
    with np.errstate(over="ignore", invalid="ignore"):  # refused below, not warned about
        try:
            prefactor = alpha ** (ell - 1) * beta**ell
        except OverflowError:
            prefactor = np.inf
        rhs = prefactor * (p_mat @ stacks[1, -1] @ p_mat.T)
    if not np.isfinite(rhs).all():
        raise ValidationError(f"power {ell} puts the congruence sides out of floating-point range")

    # P is invertible and the prefactor nonzero, so the RHS has the rank of
    # the original state's power l: only powers 1 and l need a spectrum
    sigmas = singular_values(stacks[:, sorted({0, ell - 1})])
    with np.errstate(over="ignore"):  # an infinite floor reads the power as vanished
        floors = _noise_floors(norms, sigmas[:, 0, 0], ell)[:, -1]
    if not _rank(sigmas[:, -1], floors).any():
        return CongruenceReport(alpha=alpha, beta=beta, residual=0.0)
    scale = max(np.max(np.abs(lhs)), np.max(np.abs(rhs)))
    residual = float(np.max(np.abs(lhs - rhs)) / scale)
    return CongruenceReport(alpha=alpha, beta=beta, residual=residual)


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
    return OddInvariants(e11, e12, e22)


def _closed_forms(state: PureState) -> tuple[float | None, OddInvariants | None]:
    """(concurrence, odd invariants), each None where n's parity has none."""
    if state.n % 2 == 0:
        return concurrence_even(state), None
    return None, odd_invariants(state) if state.n >= 3 else None


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
) -> InvariantProfile:
    """Full profile: per-partition ranks and singular values per power,
    plus the parity-appropriate closed forms."""
    _require_normalized(state, "invariant_profile")
    if partitions is None:
        partitions = [QubitPartition(default_rows(state.n), state.n)]
    per_partition = tuple(_partition_invariants([state], p, max_power)[0] for p in partitions)
    return InvariantProfile(state.n, per_partition, *_closed_forms(state),
                            three_qubit_S(state) if state.n == 3 else None)
