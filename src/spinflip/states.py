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
from dataclasses import dataclass, field
from functools import lru_cache, reduce

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


def _norm(amps: np.ndarray) -> float:
    """2-norm of an amplitude vector. Each square is taken after dividing
    by the peak magnitude, so none overflows or underflows; a NaN or
    infinite entry gives a NaN or infinite norm, the zero vector 0.0."""
    mags = np.abs(amps)
    peak = float(mags.max())
    if not 0.0 < peak < math.inf:
        return peak
    mags /= peak
    return peak * math.sqrt(float(mags @ mags))


def _as_state_vector(amplitudes, n: int) -> np.ndarray:
    vec = np.asarray(amplitudes, dtype=complex)
    if vec.shape != (2**n,):
        raise ValidationError(
            f"expected {2**n} amplitudes for n={n}, got shape {vec.shape}"
        )
    return vec


@dataclass(frozen=True)
class PureState:
    """Immutable pure state of n qubits.

    `normalized` records whether the constructor checked the 2-norm; every
    generator in this module produces normalized states. Norm failures raise
    rather than silently renormalizing.
    """

    n: int
    amplitudes: np.ndarray = field(repr=False)
    normalized: bool = True

    def __post_init__(self):
        if not 1 <= self.n <= MAX_QUBITS:
            raise ValidationError(f"n must be in 1..{MAX_QUBITS}, got {self.n}")
        vec = _as_state_vector(self.amplitudes, self.n)
        vec.setflags(write=False)
        object.__setattr__(self, "amplitudes", vec)
        if self.normalized:
            # a NaN or infinite amplitude makes norm_sq NaN or infinite,
            # and both fail this test
            norm = _norm(vec)
            norm_sq = norm * norm
            if not abs(norm_sq - 1.0) <= NORM_ATOL:
                raise ValidationError(
                    f"state marked normalized but sum |a_i|^2 = {norm_sq!r}"
                )
        elif not np.isfinite(vec).all():
            raise ValidationError("amplitudes must be finite")

    def norm(self) -> float:
        return _norm(self.amplitudes)


@dataclass(frozen=True)
class LocalOperator:
    """Tensor product of n single-qubit 2x2 operators, factor k acting on qubit k+1.

    kind "unitary" requires each factor to satisfy U^dagger U = I; kind
    "invertible" only requires nonzero determinant. The full 2^n x 2^n matrix
    is never materialized.
    """

    factors: tuple[np.ndarray, ...]
    kind: str = "unitary"

    def __post_init__(self):
        if self.kind not in ("unitary", "invertible"):
            raise ValidationError(f"unknown operator kind {self.kind!r}")
        checked = []
        for k, factor in enumerate(self.factors):
            mat = np.asarray(factor, dtype=complex)
            if mat.shape != (2, 2):
                raise ValidationError(
                    f"factor {k} must be 2x2, got shape {mat.shape}"
                )
            if self.kind == "unitary":
                defect = np.max(np.abs(mat.conj().T @ mat - np.eye(2)))
                if defect >= UNITARY_ATOL:
                    raise ValidationError(
                        f"factor {k} is not unitary: ||U^H U - I||_max = {defect:.3e}"
                    )
            else:
                det = abs(np.linalg.det(mat))
                if det <= INVERTIBLE_MIN_DET:
                    raise ValidationError(
                        f"factor {k} is numerically singular: |det| = {det:.3e}"
                    )
            mat.setflags(write=False)
            checked.append(mat)
        object.__setattr__(self, "factors", tuple(checked))

    @property
    def n(self) -> int:
        return len(self.factors)

    def determinants(self) -> np.ndarray:
        """Determinant of each factor, in qubit order."""
        return np.array([np.linalg.det(f) for f in self.factors])


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
        if n is None:
            raise ValidationError("zeros requires n")
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
    """Apply a tensor product of single-qubit operators to a state.

    Works on the reshaped amplitude tensor one axis at a time; never builds
    the 2^n x 2^n matrix. Unitary kinds preserve the norm, so the normalized
    flag carries over; invertible operators break it.
    """
    if op.n != state.n:
        raise ValidationError(
            f"operator acts on {op.n} qubits but state has {state.n}"
        )
    psi = state.amplitudes.reshape([2] * state.n)
    for axis, factor in enumerate(op.factors):
        psi = np.tensordot(factor, psi, axes=(1, axis))
        psi = np.moveaxis(psi, 0, axis)
    return PureState(
        state.n,
        psi.reshape(-1),
        normalized=state.normalized and op.kind == "unitary",
    )


def random_state(n: int, seed: int | None = None) -> PureState:
    """Haar-random pure state: normalized vector of iid complex Gaussians."""
    if not 1 <= n <= MAX_QUBITS:
        raise ValidationError(f"n must be in 1..{MAX_QUBITS}, got {n}")
    rng = np.random.default_rng(seed)
    vec = rng.standard_normal(2**n) + 1j * rng.standard_normal(2**n)
    return PureState(n, vec / np.linalg.norm(vec))


def _haar_unitary_2x2(rng: np.random.Generator) -> np.ndarray:
    z = (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))) / math.sqrt(2)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


# Rejection bounds for random invertible factors keep congruence-residual
# denominators well away from underflow.
_INVERTIBLE_COND_MAX = 1e3
_INVERTIBLE_DET_MIN = 1e-3
_INVERTIBLE_MAX_TRIES = 1000


def _random_invertible_2x2(rng: np.random.Generator) -> np.ndarray:
    for _ in range(_INVERTIBLE_MAX_TRIES):
        mat = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        if abs(np.linalg.det(mat)) < _INVERTIBLE_DET_MIN:
            continue
        if np.linalg.cond(mat) > _INVERTIBLE_COND_MAX:
            continue
        return mat
    raise RuntimeError("failed to sample a well-conditioned invertible factor")


def random_local(n: int, kind: str = "unitary", seed: int | None = None) -> LocalOperator:
    """Random local operator: Haar unitaries or well-conditioned invertibles."""
    if kind not in ("unitary", "invertible"):
        raise ValidationError(f"unknown operator kind {kind!r}")
    rng = np.random.default_rng(seed)
    if kind == "unitary":
        factors = [_haar_unitary_2x2(rng) for _ in range(n)]
    else:
        factors = [_random_invertible_2x2(rng) for _ in range(n)]
    return LocalOperator(tuple(factors), kind=kind)


def _pairs_to_complex(pairs, what: str, shape: tuple[int, ...]) -> np.ndarray:
    """Complex array of the given shape from nested [re, im] pairs."""
    try:
        arr = np.asarray(pairs, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{what} must be numeric [re, im] pairs") from exc
    if arr.shape != shape + (2,):
        raise ValidationError(
            f"{what} must have shape {shape + (2,)} ([re, im] pairs), got {arr.shape}"
        )
    if not np.isfinite(arr).all():
        raise ValidationError(f"{what} contain non-finite numbers")
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
    n = doc["n"]
    if not isinstance(n, int):
        raise ValidationError(f"n must be an integer, got {n!r}")
    if not 1 <= n <= MAX_QUBITS:
        raise ValidationError(f"n must be in 1..{MAX_QUBITS}, got {n}")
    amps = _pairs_to_complex(doc["amplitudes"], "amplitudes", (2**n,))
    if not np.any(amps):
        raise ValidationError("amplitudes are all zero; a state needs a nonzero norm")
    norm = _norm(amps)
    return PureState(n, amps, normalized=abs(norm * norm - 1.0) <= NORM_ATOL)


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
    factors = tuple(
        _pairs_to_complex(raw, f"factor {k}", (2, 2))
        for k, raw in enumerate(doc["factors"])
    )
    return LocalOperator(factors, kind=doc["kind"])


def serialize_operator(op: LocalOperator) -> str:
    """Serialize to the one-line JSON operator-file format, floats as in
    serialize_state."""
    doc = {"kind": op.kind, "factors": _complex_to_pairs(np.array(op.factors))}
    return json.dumps(doc) + "\n"
