"""Independent reference implementations used to freeze expected values.

Everything here is deliberately written by a different route than the
package: coefficient matrices by explicit index enumeration over binary
strings, kernels from their entrywise closed form, omega products with
dense matrices, singular values through the Hermitian eigenproblem of
m^H m, and local operators as the full 2^n x 2^n Kronecker matrix.
Unit tests freeze values computed by these routes as literals.

The stream oracles are the exception: they keep the per-factor samplers
and the tensordot application that random_local and apply_local replaced,
and the package must reproduce them bit for bit, so that seeded orbit
points stay what they were.

A note on the power-2 singular values of the W1/W2 pair: the literal
recursion gives a single nonzero singular value (sigma^2 = 1/64 for W1,
3/256 for W2), consistent with both states' power-2 rank of 1, and
oracle_omega_power read through oracle_singular_values agrees. A sweep
over kernel transposes, conjugates, sign flips, scalar rescalings, and
squaring without the kernel (test_flip.py::test_power_two_variant_sweep)
confirms no variant produces two equal nonzero singular values that still
separate the pair, so the superseded criterion-2 targets (1/4096, 1/4096,
0, 0) and (3/16384, 3/16384, 0, 0) are not reachable by any such
definition; the literal recursion is authoritative here.
"""

from __future__ import annotations

import math
from functools import reduce

import numpy as np

from spinflip import states

V = np.array([[0.0, 1.0], [-1.0, 0.0]])


def bit_parity(i: int) -> int:
    return bin(i).count("1") & 1


def oracle_coeff_matrix(amps, n: int, rows) -> np.ndarray:
    """Entry-by-entry coefficient matrix via binary index strings."""
    rows = list(rows)
    cols = [q for q in range(1, n + 1) if q not in rows]
    mat = np.zeros((2 ** len(rows), 2 ** len(cols)), dtype=complex)
    for i in range(2**n):
        bits = format(i, f"0{n}b")
        r = int("".join(bits[q - 1] for q in rows), 2)
        c = int("".join(bits[q - 1] for q in cols), 2) if cols else 0
        mat[r, c] = amps[i]
    return mat


def oracle_kernel(k: int) -> np.ndarray:
    """v^{(x)k} from its closed form: one nonzero per row, on the
    anti-diagonal, with sign (-1)^{parity(row)}."""
    dim = 2**k
    mat = np.zeros((dim, dim))
    for j in range(dim):
        mat[j, dim - 1 - j] = -1.0 if bit_parity(j) else 1.0
    return mat


def oracle_kron_kernel(k: int) -> np.ndarray:
    """v^{(x)k} by repeated Kronecker products, for cross-checking."""
    return reduce(np.kron, [V] * k, np.eye(1))


def oracle_omega(amps, n: int, rows) -> np.ndarray:
    cmat = oracle_coeff_matrix(amps, n, rows)
    return cmat @ oracle_kernel(n - len(rows)) @ cmat.T


def oracle_omega_power(amps, n: int, rows, ell: int) -> np.ndarray:
    base = oracle_omega(amps, n, rows)
    kern = oracle_kernel(len(rows))
    out = base
    for _ in range(ell - 1):
        out = out @ kern @ base
    return out


def oracle_singular_values(mat) -> np.ndarray:
    """Square roots of the eigenvalues of m^H m, descending."""
    mat = np.asarray(mat, dtype=complex)
    eigs = np.linalg.eigvalsh(mat.conj().T @ mat)
    return np.sqrt(np.clip(eigs, 0.0, None))[::-1]


def oracle_apply_local(amps, factors) -> np.ndarray:
    """Act with the fully materialized tensor-product matrix."""
    full = reduce(np.kron, [np.asarray(f, dtype=complex) for f in factors])
    return full @ np.asarray(amps, dtype=complex)


def oracle_pair_sum(amps) -> complex:
    """sum_i (-1)^{parity(i)} a_i a_{N-1-i} over the lower half."""
    amps = np.asarray(amps, dtype=complex)
    total = 0.0 + 0.0j
    size = len(amps)
    for i in range(size // 2):
        sign = -1.0 if bit_parity(i) else 1.0
        total += sign * amps[i] * amps[size - 1 - i]
    return total


def oracle_local_matrix_rank(amps, n: int, qubit: int, tol: float = 1e-10) -> int:
    mat = oracle_coeff_matrix(amps, n, [qubit])
    sigma = oracle_singular_values(mat)
    if sigma[0] == 0.0:
        return 0
    return int(np.sum(sigma > tol * sigma[0]))


def _stream_unitary_2x2(rng: np.random.Generator) -> np.ndarray:
    z = (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))) / math.sqrt(2)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def _stream_invertible_2x2(rng: np.random.Generator) -> np.ndarray:
    # the bounds are read at call time, so a test can tighten them
    for _ in range(states._INVERTIBLE_MAX_TRIES):
        mat = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        if abs(np.linalg.det(mat)) < states._INVERTIBLE_DET_MIN:
            continue
        if np.linalg.cond(mat) > states._INVERTIBLE_COND_MAX:
            continue
        return mat
    raise RuntimeError("failed to sample a well-conditioned invertible factor")


def stream_random_local(n: int, kind: str, seed: int) -> np.ndarray:
    """random_local's factors drawn one 2x2 at a time, as an (n, 2, 2) array."""
    rng = np.random.default_rng(seed)
    draw = _stream_unitary_2x2 if kind == "unitary" else _stream_invertible_2x2
    return np.array([draw(rng) for _ in range(n)])


def stream_apply_local(amps, factors) -> np.ndarray:
    """apply_local by one tensordot and one moveaxis per qubit."""
    psi = np.asarray(amps, dtype=complex).reshape([2] * len(factors))
    for axis, factor in enumerate(factors):
        psi = np.tensordot(factor, psi, axes=(1, axis))
        psi = np.moveaxis(psi, 0, axis)
    return psi.reshape(-1)
