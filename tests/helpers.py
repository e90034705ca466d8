"""Deterministic sample generators shared across the test modules.

Everything here is seeded; running the suite twice exercises the identical
inputs. Generators avoid tolerance boundaries on purpose: boundary behavior
gets its own dedicated tests.
"""

import numpy as np

from spinflip import (
    AcinForm,
    PureState,
    QubitPartition,
    random_local,
    random_state,
    standard_state,
)


def bisep3(indices):
    """Three-qubit state with weight 1/sqrt(2) on two basis kets."""
    amps = np.zeros(8, dtype=complex)
    for i in indices:
        amps[i] = 2 ** -0.5
    return PureState(3, amps)


def class_seeds():
    """One representative per three-qubit SLOCC class."""
    return {
        "GHZ": standard_state("ghz", 3),
        "W": standard_state("w", 3),
        "A-BC": bisep3((0, 3)),   # |0> (x) Bell on qubits 2,3
        "B-AC": bisep3((0, 5)),   # Bell on qubits 1,3, |0> in the middle
        "C-AB": bisep3((0, 6)),   # Bell on qubits 1,2 (x) |0>
        "A-B-C": standard_state("zeros", 3),
    }


def random_partition(rng, n):
    """Uniformly sized row set in random order (orders beyond ascending
    are legal and must work)."""
    size = int(rng.integers(1, n))
    rows = rng.permutation(np.arange(1, n + 1))[:size]
    return QubitPartition(tuple(int(q) for q in rows), n)


def state_partition_cases(count, max_n=5, seed=7000):
    """Seeded (state, partition) pairs covering n in 2..max_n."""
    cases = []
    for i in range(count):
        n = 2 + i % (max_n - 1)
        rng = np.random.default_rng(seed + i)
        state = random_state(n, seed + i)
        cases.append((state, random_partition(rng, n)))
    return cases


def flat8():
    """An unnormalized n = 8 state with ||a||^2 = 230.4 whose peak, 0.949,
    already lies in [1/2, 1), and its normalized copy. Rows (1, 2, 3, 4)
    read ranks (16, 16, 16, 16, 16, 15, ...) and 0 from power 42."""
    rng = np.random.default_rng(1)
    amps = 0.9 * rng.choice([-1.0, 1.0], 256) + 0.3j * rng.choice([-1.0, 1.0], 256)
    flat = PureState(8, amps)
    return flat, PureState(8, amps / flat.norm())


def congruence_cases(count, seed=8000):
    """Seeded (state, operator, partition, power) trials covering
    n in {2,3,4}, powers 1..3, and both operator kinds."""
    cases = []
    for i in range(count):
        n = (2, 3, 4)[i % 3]
        ell = 1 + (i // 3) % 3
        kind = ("unitary", "invertible")[i % 2]
        rng = np.random.default_rng(seed + i)
        state = random_state(n, seed + i)
        op = random_local(n, kind, seed + 50_000 + i)
        cases.append((state, op, random_partition(rng, n), ell))
    return cases


def _normalized_acin(raw, phi=0.0):
    lams = np.asarray(raw, dtype=float)
    lams = lams / np.linalg.norm(lams)
    return AcinForm(*(float(l) for l in lams), phi=phi)


def sample_acin(rng, branch):
    """One canonical form from the given branch of the weight space.

    Branch ids cycle through every structural case: all weights on, each
    boundary pattern of vanishing weights, and the degenerate
    product-within-the-l0=0 branch where l2 l3 = l1 l4 at phi = 0.
    """
    u = rng.uniform(0.25, 1.0, size=5)
    b = branch % 10
    if b == 0:
        raw = u                                     # generic: GHZ
    elif b == 1:
        raw = (u[0], u[1], u[2], u[3], 0.0)         # W (l1 present)
    elif b == 2:
        raw = (u[0], 0.0, u[2], u[3], 0.0)          # W (l1 absent)
    elif b == 3:
        raw = (u[0], u[1], u[2], 0.0, 0.0)          # B-AC
    elif b == 4:
        raw = (u[0], u[1], 0.0, u[3], 0.0)          # C-AB
    elif b == 5:
        raw = (u[0], u[1], 0.0, 0.0, 0.0)           # A-B-C (left block)
    elif b == 6:
        raw = (0.0, 0.0, u[2], u[3], u[4])          # A-BC, l2 l3 > 0
    elif b == 7:
        raw = (0.0, u[1], 0.0, u[3], u[4])          # A-BC via l1 l4 > 0
    elif b == 8:
        # l2 l3 = l1 l4 exactly at phi = 0: three qubits all factor
        raw = (0.0, u[1], u[2], u[3], u[2] * u[3] / u[1])
    else:
        raw = (0.0, u[1], u[2], 0.0, 0.0)           # A-B-C (l0 = l4 = 0)
    phi = 0.0
    if b in (0, 1, 6):
        phi = float(rng.uniform(0.0, np.pi))
    return _normalized_acin(raw, phi)


def acin_samples(count, seed=9000):
    """Seeded canonical forms cycling through all structural branches."""
    return [
        sample_acin(np.random.default_rng(seed + i), i) for i in range(count)
    ]


def count_svd_calls(monkeypatch):
    """Record the input shape of every np.linalg.svd call from now on."""
    calls = []
    svd = np.linalg.svd

    def counting(*args, **kwargs):
        calls.append(np.shape(args[0]))
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting)
    return calls


def count_linalg_calls(monkeypatch):
    """Record every np.linalg.svd and np.linalg.det call from now on: an
    svd call as (input shape, compute_uv), a det call as its input shape."""
    calls = {"svd": [], "det": []}
    svd, det = np.linalg.svd, np.linalg.det

    def counting_svd(a, *args, **kwargs):
        calls["svd"].append((np.shape(a), kwargs.get("compute_uv", True)))
        return svd(a, *args, **kwargs)

    def counting_det(a):
        calls["det"].append(np.shape(a))
        return det(a)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    monkeypatch.setattr(np.linalg, "det", counting_det)
    return calls
