"""Ranks, singular values, and closed-form invariants.

The closed forms (concurrence for even n, the e11/e12/e22 family for odd n,
and the three-qubit S) are computed straight from the amplitudes with
additions and multiplications only; singular-value decompositions are kept
as an independent cross-check route and for the general invariant profile.
"""

from __future__ import annotations

import ctypes
import functools
import math
import os
import threading
from dataclasses import dataclass, field

import numpy as np

from .coeffmat import QubitPartition
from .errors import ToleranceInconsistency, ValidationError
from .flip import NOISE_FLOOR, _power_stacks
from .states import MAX_QUBITS, PureState, _rays, parity_signs

# the one rank threshold: a singular value counts toward the rank when it
# exceeds this fraction of its spectrum's top value
RANK_TOL = 1e-10


def default_rows(n: int) -> tuple[int, ...]:
    """Default row qubits: {1,2} from three qubits up, {1} for two."""
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
    mat = np.asarray(m, dtype=complex)
    if not np.all(np.isfinite(mat)):
        raise ValidationError("matrix has non-finite entries")
    shape = mat.shape[-2:]
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


def _partition_invariants(states, partition: QubitPartition,
                          max_power: int = 3) -> list[PartitionInvariants]:
    """Ranks and spectra of S states, one entry each, from one _spectra
    call: the one place spectra become a checked RankProfile
    (verify_congruence and _local_ranks apply the same _rank rule to their
    own). A rank counts against its power's own top singular value, so a
    scalar prefactor cannot change it, and is 0 at or below the power's
    noise floor."""
    sigmas, floors = _spectra(states, partition, max_power)
    return [PartitionInvariants(RankProfile(partition, tuple(ranks.tolist())), tuple(sigma))
            for ranks, sigma in zip(_rank(sigmas, floors), sigmas)]


def rank_profile(
    state: PureState,
    partition: QubitPartition,
    max_power: int = 3,
) -> RankProfile:
    """Ranks of the power-1..max_power matrices, non-increasing by contract;
    properties of the ray, so any nonzero scale gives the same ranks."""
    return _partition_invariants([state], partition, max_power)[0].rank_profile


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
