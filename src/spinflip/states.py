"""Pure n-qubit states, local operators, and generators for both.

Amplitude convention: a state on n qubits is a vector of 2**n complex
amplitudes indexed so that the binary expansion of the index lists qubit 1
at the most significant bit and qubit n at the least significant bit.
For n = 3 the amplitude a_5 = a_{101} multiplies |1>_1 |0>_2 |1>_3.
"""

from __future__ import annotations

import cmath
import json
import math
import operator
from dataclasses import dataclass, field
from functools import lru_cache, reduce
from itertools import chain

import numpy as np

from .errors import ValidationError

MAX_QUBITS = 14

NORM_ATOL = 1e-12
UNITARY_ATOL = 1e-8
INVERTIBLE_MIN_DET = 1e-12


@lru_cache(maxsize=None)
def parity_signs(bits: int) -> np.ndarray:
    """Read-only table of (-1)^{parity(i)} for i in 0..2^bits-1, parity(i)
    being the parity of the bit count of i."""
    signs = reduce(np.kron, [np.array([1.0, -1.0])] * bits, np.ones(1))
    signs.setflags(write=False)
    return signs


def _integer(value, name: str) -> int:
    """value through operator.index, so 2.5, 3.0, "3" and True are refused."""
    try:
        if isinstance(value, bool):
            raise TypeError
        return operator.index(value)
    except TypeError:
        raise ValidationError(f"{name} must be an integer, got {value!r}") from None


def _require_qubits(n: int) -> int:
    """n as a Python int in 1..MAX_QUBITS."""
    n = _integer(n, "n")
    if not 1 <= n <= MAX_QUBITS:
        raise ValidationError(f"n must be in 1..{MAX_QUBITS}, got {n}")
    return n


def _frozen(values, shape: tuple[int, ...], what: str) -> np.ndarray:
    """A read-only complex copy of values, so the caller's array stays
    writable, after checking its shape and that every entry is finite."""
    try:
        arr = np.array(values, dtype=complex)
    except (TypeError, ValueError) as exc:  # ragged, or not numbers
        raise ValidationError(f"{what} must be numeric") from exc
    if arr.shape != shape:
        raise ValidationError(f"{what} must have shape {shape}, got {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValidationError(f"{what} must be finite")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class PureState:
    """Immutable pure state of n qubits.

    norm() and `normalized` are measured once, here, not passed: the latter
    says whether ||a||^2 lies within NORM_ATOL of 1. Every generator in this
    module produces normalized states; nothing is silently renormalized. The
    zero vector is no ray and is refused. == is identity.
    """

    n: int
    amplitudes: np.ndarray = field(repr=False)
    normalized: bool = field(init=False)
    _norm: float = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "n", _require_qubits(self.n))
        object.__setattr__(self, "amplitudes", _frozen(self.amplitudes, (2**self.n,), "amplitudes"))
        # squares of magnitudes over the peak neither overflow nor underflow
        mags = np.abs(self.amplitudes)
        peak = float(mags.max())
        if not peak:
            raise ValidationError("amplitudes are all zero; a state needs a nonzero norm")
        mags /= peak
        norm = peak * math.sqrt(float(mags @ mags))
        object.__setattr__(self, "_norm", norm)
        object.__setattr__(self, "normalized", abs(norm * norm - 1.0) <= NORM_ATOL)

    def norm(self) -> float:
        return self._norm


def _rays(states) -> tuple[np.ndarray, list[float]]:
    """The (S, 2^n) amplitude stack of S states and their S norms, each
    unnormalized row divided by 2^e, which puts its norm in [1/2, 1).
    Omega^(l) scales as c^(2l), so raw extreme scales underflow or overflow
    the recursion and its noise floors; at this scale sigma_1(Omega^(1)) <=
    ||a||^2 < 1 bounds every power and floor by 1. ldexp keeps the division
    exact and, unlike multiplying by 2.0**-e, cannot overflow."""
    amps = np.array([state.amplitudes for state in states])
    norms = [state.norm() for state in states]
    for k, state in enumerate(states):
        if not state.normalized:
            _, exp = math.frexp(norms[k])
            norms[k] = math.ldexp(norms[k], -exp)
            amps[k].real = np.ldexp(amps[k].real, -exp)
            amps[k].imag = np.ldexp(amps[k].imag, -exp)
    return amps, norms


@dataclass(frozen=True, eq=False)
class LocalOperator:
    """Tensor product of n single-qubit 2x2 operators, factor k acting on qubit k+1.

    `factors` is one read-only (n, 2, 2) complex array. kind "unitary"
    requires U^dagger U = I of each factor, kind "invertible" only a nonzero
    determinant. The full 2^n x 2^n matrix is never materialized.
    """

    factors: np.ndarray
    kind: str = "unitary"

    def __post_init__(self):
        if self.kind not in ("unitary", "invertible"):
            raise ValidationError(f"unknown operator kind {self.kind!r}")
        _require_qubits(self.n)
        try:
            mats = _frozen(self.factors, (self.n, 2, 2), "factors")
        except ValidationError:
            # only on failure: name the first factor that is not 2x2
            for k, factor in enumerate(self.factors):
                if np.shape(factor) != (2, 2):
                    raise ValidationError(f"factor {k} must be 2x2, got shape {np.shape(factor)}")
            raise
        if self.kind == "unitary":
            gram = mats.conj().swapaxes(1, 2) @ mats
            values = np.max(np.abs(gram - np.eye(2)), axis=(1, 2))
            bad, what = values >= UNITARY_ATOL, "is not unitary: ||U^H U - I||_max"
        else:
            values = np.abs(np.linalg.det(mats))
            bad, what = values <= INVERTIBLE_MIN_DET, "is numerically singular: |det|"
        if bad.any():
            k = int(np.argmax(bad))
            raise ValidationError(f"factor {k} {what} = {values[k]:.3e}")
        object.__setattr__(self, "factors", mats)

    @property
    def n(self) -> int:
        return len(self.factors)

    def determinants(self) -> np.ndarray:
        """Determinant of each factor, in qubit order."""
        return np.linalg.det(self.factors)


@dataclass(frozen=True)
class AcinForm:
    """Canonical three-qubit form: five nonnegative weights and one phase.

    The corresponding state is
    l0|000> + l1 e^{i phi}|100> + l2|101> + l3|110> + l4|111>.
    """

    lambda0: float
    lambda1: float
    lambda2: float
    lambda3: float
    lambda4: float
    phi: float = 0.0

    def __post_init__(self):
        lams = self.lambdas()
        # written so that NaN fails every test
        if not all(0.0 <= l < math.inf for l in lams):
            raise ValidationError(f"lambdas must be finite and nonnegative, got {lams}")
        if not 0.0 <= self.phi <= math.pi:
            raise ValidationError(f"phi must lie in [0, pi], got {self.phi}")
        norm_sq = sum(l * l for l in lams)
        if not abs(norm_sq - 1.0) <= NORM_ATOL:
            raise ValidationError(f"sum lambda_i^2 = {norm_sq!r}, expected 1")

    def lambdas(self) -> tuple[float, float, float, float, float]:
        return (self.lambda0, self.lambda1, self.lambda2, self.lambda3, self.lambda4)


def acin_state(form: AcinForm) -> PureState:
    """State vector of a canonical form, in the standard amplitude ordering."""
    amps = np.zeros(8, dtype=complex)
    amps[0] = form.lambda0
    amps[4] = form.lambda1 * cmath.exp(1j * form.phi)
    amps[5] = form.lambda2
    amps[6] = form.lambda3
    amps[7] = form.lambda4
    return PureState(3, amps)


def _ghz(n: int) -> np.ndarray:
    amps = np.zeros(2**n, dtype=complex)
    amps[0] = amps[-1] = 1 / math.sqrt(2)
    return amps


def _w(n: int) -> np.ndarray:
    amps = np.zeros(2**n, dtype=complex)
    for k in range(n):
        amps[1 << k] = 1 / math.sqrt(n)
    return amps


def standard_state(name: str, n: int | None = None) -> PureState:
    """Named reference states.

    ghz and w accept any n in range; bell is the two-qubit ghz; zeros is
    |0...0>; xi and vartheta are specific three-qubit states; w1 and w2 are
    three-qubit states given by canonical-form weights.
    """
    name = name.lower()
    if n is not None:
        n = _integer(n, "n")
    if name == "bell":
        if n not in (None, 2):
            raise ValidationError("bell is a two-qubit state")
        return PureState(2, _ghz(2))
    if name in ("ghz", "w"):
        if n is None:
            n = 3
        if not 2 <= n <= MAX_QUBITS:
            raise ValidationError(f"{name} requires 2 <= n <= {MAX_QUBITS}")
        return PureState(n, _ghz(n) if name == "ghz" else _w(n))
    if name == "zeros":
        if n is None or not 1 <= n <= MAX_QUBITS:
            raise ValidationError(f"zeros requires 1 <= n <= {MAX_QUBITS}")
        amps = np.zeros(2**n, dtype=complex)
        amps[0] = 1.0
        return PureState(n, amps)
    if n not in (None, 3):
        raise ValidationError(f"{name} is a three-qubit state")
    if name == "xi":
        # (1/(2 sqrt 2)) (sum_{i=0}^{6} |i> - |7>)
        amps = np.full(8, 1 / (2 * math.sqrt(2)), dtype=complex)
        amps[7] = -amps[7]
        return PureState(3, amps)
    if name == "vartheta":
        # (|000> + |101> + |110>) / sqrt 3
        amps = np.zeros(8, dtype=complex)
        amps[0] = amps[5] = amps[6] = 1 / math.sqrt(3)
        return PureState(3, amps)
    if name == "w1":
        # (|000> + |100> + |101> + |110>) / 2
        form = AcinForm(0.5, 0.5, 0.5, 0.5, 0.0)
        return acin_state(form)
    if name == "w2":
        l0 = math.sqrt((2.0 - math.sqrt(2.0)) / 16.0)
        l2 = math.sqrt((2.0 + math.sqrt(2.0)) / 4.0)
        l3 = math.sqrt(3.0 * (2.0 - math.sqrt(2.0)) / 16.0)
        form = AcinForm(l0, 0.0, l2, l3, 0.0)
        return acin_state(form)
    raise ValidationError(f"unknown standard state {name!r}")


def apply_local(state: PureState, op: LocalOperator) -> PureState:
    """Apply a tensor product of single-qubit operators to a state, one
    (2, 2) @ (2, 2^(n-1)) product per qubit. The result measures its own
    norm: unitary kinds keep it up to rounding, invertible ones change it."""
    if op.n != state.n:
        raise ValidationError(f"operator acts on {op.n} qubits but state has {state.n}")
    psi = state.amplitudes
    for k, factor in enumerate(op.factors):
        # qubit k+1's axis first, then the rest in order, as np.tensordot does
        out = factor @ psi.reshape(2**k, 2, -1).swapaxes(0, 1).reshape(2, -1)
        psi = out.reshape(2, 2**k, -1).swapaxes(0, 1)
    return PureState(state.n, psi.reshape(-1))


def random_state(n: int, seed: int | None = None) -> PureState:
    """Haar-random pure state: normalized vector of iid complex Gaussians."""
    _require_qubits(n)
    rng = _rng(seed)
    vec = rng.standard_normal(2**n) + 1j * rng.standard_normal(2**n)
    return PureState(n, vec / np.linalg.norm(vec))


def _rng(seed: int | None) -> np.random.Generator:
    if seed is not None and _integer(seed, "seed") < 0:
        raise ValidationError(f"seed must be a non-negative integer, got {seed}")
    return np.random.default_rng(seed)


def _complex_normals(rng: np.random.Generator, count: int) -> np.ndarray:
    """count 2x2 complex Gaussians, each drawn real block first."""
    draw = rng.standard_normal((count, 2, 2, 2))
    return draw[:, 0] + 1j * draw[:, 1]


# Rejection bounds for random invertible factors keep congruence-residual
# denominators well away from underflow.
_INVERTIBLE_COND_MAX = 1e3
_INVERTIBLE_DET_MIN = 1e-3
_INVERTIBLE_MAX_TRIES = 1000


def random_local(n: int, kind: str = "unitary", seed: int | None = None) -> LocalOperator:
    """Random local operator: Haar unitaries, or as invertibles the first n
    Gaussian candidates, in draw order, within both conditioning bounds."""
    _require_qubits(n)
    rng = _rng(seed)
    if kind == "unitary":
        q, r = np.linalg.qr(_complex_normals(rng, n) / math.sqrt(2))
        d = np.diagonal(r, axis1=1, axis2=2)
        return LocalOperator(q * (d / np.abs(d))[:, None, :], kind=kind)
    found = np.empty((0, 2, 2), dtype=complex)
    for _ in range(_INVERTIBLE_MAX_TRIES):
        cand = _complex_normals(rng, n)
        keep = np.abs(np.linalg.det(cand)) >= _INVERTIBLE_DET_MIN
        keep &= np.linalg.cond(cand) <= _INVERTIBLE_COND_MAX
        found = np.concatenate((found, cand[keep]))
        if len(found) >= n:
            return LocalOperator(found[:n], kind=kind)
    raise RuntimeError("failed to sample well-conditioned invertible factors")


def _pairs_to_complex(pairs, what: str, text: str) -> np.ndarray:
    """Complex array from nested [re, im] pairs parsed from text, shaped as they nest."""
    try:
        arr = np.asarray(pairs, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{what} must be numeric [re, im] pairs") from exc
    if arr.ndim < 2 or arr.shape[-1] != 2:
        raise ValidationError(f"{what} must be [re, im] pairs, got shape {arr.shape}")
    # JSON true/false read as 1.0/0.0; entry types are read only if both occur
    if ((arr == 0.0) | (arr == 1.0)).any() and ("true" in text or "false" in text):
        entries = reduce(lambda items, _: chain.from_iterable(items), range(arr.ndim - 1), pairs)
        if bool in set(map(type, entries)):
            raise ValidationError(f"{what} must be numbers, not true or false")
    # a view, not re + 1j * im, which turns -0.0 into 0.0
    return arr.view(complex)[..., 0]


def _complex_to_pairs(values: np.ndarray) -> list:
    return np.stack([values.real, values.imag], -1).tolist()


def parse_state(text: str) -> PureState:
    """Parse the JSON state-file format: {"n": int, "amplitudes": [[re, im], ...]}."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"state file is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict) or "n" not in doc or "amplitudes" not in doc:
        raise ValidationError('state file must be {"n": ..., "amplitudes": ...}')
    return PureState(doc["n"], _pairs_to_complex(doc["amplitudes"], "amplitudes", text))


def serialize_state(state: PureState) -> str:
    """Serialize to the one-line JSON state-file format; floats are written
    as their shortest round-trip repr, so parsing restores every bit."""
    doc = {"n": state.n, "amplitudes": _complex_to_pairs(state.amplitudes)}
    return json.dumps(doc) + "\n"


def parse_operator(text: str) -> LocalOperator:
    """Parse the JSON operator-file format: kind plus a list of 2x2 factors."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"operator file is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict) or "kind" not in doc or "factors" not in doc:
        raise ValidationError('operator file must be {"kind": ..., "factors": ...}')
    if not isinstance(doc["factors"], list):
        raise ValidationError("factors must be a list of 2x2 matrices")
    factors = _pairs_to_complex(doc["factors"], "factors", text)
    return LocalOperator(factors, kind=doc["kind"])


def serialize_operator(op: LocalOperator) -> str:
    """Serialize to the one-line JSON operator-file format, floats as in
    serialize_state."""
    doc = {"kind": op.kind, "factors": _complex_to_pairs(op.factors)}
    return json.dumps(doc) + "\n"
