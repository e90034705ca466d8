"""Tests for ranks, singular values, determinants, and closed forms."""

import dataclasses
import itertools
import math
import os
import signal
import sys
import threading
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spinflip import (
    AcinForm,
    OddInvariants,
    PureState,
    QubitPartition,
    RankProfile,
    ToleranceInconsistency,
    ValidationError,
    acin_state,
    apply_local,
    concurrence_even,
    default_rows,
    invariant_profile,
    odd_invariants,
    omega,
    omega_power_sequence,
    random_local,
    random_state,
    rank_profile,
    singular_values,
    standard_state,
    three_qubit_S,
)
from spinflip.flip import _power_stacks
from spinflip.invariants import (
    NOISE_FLOOR,
    RANK_TOL,
    _SERIAL_LOCK,
    _local_ranks,
    _openblas_threads,
    _partition_invariants,
    _rank,
    _spectra,
)
from spinflip.states import _rays

import helpers
import oracles

RT2 = math.sqrt(2.0)
P12_3 = QubitPartition((1, 2), 3)


def test_default_rows():
    assert default_rows(2) == (1,)
    assert default_rows(3) == (1, 2)
    assert default_rows(5) == (1, 2)


def test_singular_values_zero_matrix():
    assert np.array_equal(singular_values(np.zeros((3, 3))), np.zeros(3))


def test_singular_values_w1_frozen():
    # squared singular values of the power-1 matrix are (1/8, 1/8, 0, 0)
    mat = omega(standard_state("w1"), P12_3).entries
    assert np.allclose(singular_values(mat) ** 2, [0.125, 0.125, 0, 0], atol=1e-15)


def test_singular_values_match_eigh_oracle():
    rng = np.random.default_rng(3100)
    for _ in range(20):
        mat = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        got = singular_values(mat)
        want = oracles.oracle_singular_values(mat)
        assert np.allclose(got, want, atol=1e-10)
        assert np.all(np.diff(got) <= 1e-14)  # descending


def test_singular_values_rejects_nonfinite():
    with pytest.raises(ValidationError):
        singular_values(np.array([[1.0, np.inf], [0.0, 1.0]]))


@pytest.mark.parametrize("value", [np.ones(3), 1.0, "abc", [[1, 2], [3]], [[1, "a"]], object()],
                         ids=["vector", "scalar", "string", "ragged", "mixed", "object"])
def test_singular_values_refuses_what_is_not_a_matrix(value):
    # numpy's LinAlgError, ValueError or TypeError once escaped here
    with pytest.raises(ValidationError):
        singular_values(value)


@pytest.fixture
def blas_threads():
    """(get, set) of the loaded OpenBLAS's thread count, which starts at 2
    and is put back to the caller's count afterwards."""
    threads = _openblas_threads()
    if threads is None:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]["name"]
        # a Linux numpy built on OpenBLAS must be found, or the scope is dead code
        assert not ("openblas" in blas and sys.platform.startswith("linux")), blas
        pytest.skip(f"numpy's BLAS ({blas}) is not an OpenBLAS found at run time")
    get, put = threads
    before = get()
    put(2)
    assert get() == 2
    yield get, put
    put(before)


def _complex_stack(shape, seed=0):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


@pytest.fixture
def svd_spy(monkeypatch, blas_threads):
    """Records the OpenBLAS thread count each np.linalg.svd call runs on."""
    get, _ = blas_threads
    real_svd, seen = np.linalg.svd, []

    def spy(*args, **kwargs):
        seen.append(get())
        return real_svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", spy)
    return seen


def test_serial_scope_above_64x64_entries_up_to_128_wide(svd_spy, blas_threads):
    get, _ = blas_threads
    shapes = ((3, 128, 128), (1, 128, 256), (1, 65, 64), (1, 256, 256), (1, 256, 129),
              (2, 64, 64), (5, 2, 8))
    for shape in shapes:
        singular_values(_complex_stack(shape))
        assert get() == 2
    assert svd_spy == [1, 1, 1, 2, 2, 2, 2]


def test_serial_scope_restores_after_an_exception(monkeypatch, blas_threads):
    get, _ = blas_threads

    def broken_svd(*args, **kwargs):
        assert get() == 1
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(np.linalg, "svd", broken_svd)
    with pytest.raises(np.linalg.LinAlgError):
        singular_values(_complex_stack((3, 128, 128)))
    assert get() == 2
    assert not _SERIAL_LOCK.locked()


def test_serial_scope_restores_after_concurrent_calls(svd_spy, blas_threads):
    get, _ = blas_threads
    stacks = [_complex_stack((3, 72, 72), 1), _complex_stack((2, 65, 80), 2)]
    want = [singular_values(m) for m in stacks]
    svd_spy.clear()
    barrier, errors = threading.Barrier(4), []

    def worker(k):
        try:
            barrier.wait(timeout=30)
            for i in range(50):
                got = singular_values(stacks[(i + k) % 2])
                assert np.array_equal(got, want[(i + k) % 2])
        except Exception as exc:  # reported by the main thread
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=worker, args=(k,)) for k in range(4)]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(w.is_alive() for w in workers)
    assert errors == []
    assert svd_spy == [1] * 200
    assert get() == 2
    assert not _SERIAL_LOCK.locked()


@pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork on this platform")
def test_child_forked_while_the_scope_is_held_runs_a_scoped_svd(blas_threads):
    stack = _complex_stack((3, 128, 128))
    with warnings.catch_warnings():
        # forking a process that runs threads warns; the test forks on purpose
        warnings.simplefilter("ignore", DeprecationWarning)
        with _SERIAL_LOCK:
            pid = os.fork()
            if pid == 0:
                code = 1
                try:
                    singular_values(stack)
                    code = 0
                finally:
                    os._exit(code)
    deadline = time.monotonic() + 30
    while (reaped := os.waitpid(pid, os.WNOHANG))[0] == 0:
        if time.monotonic() > deadline:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pytest.fail("the forked child deadlocked on the SVD lock")
        time.sleep(0.01)
    assert os.waitstatus_to_exitcode(reaped[1]) == 0


def test_openblas_found_without_proc(monkeypatch, blas_threads):
    # the lookup goes through numpy's own LAPACK module, so a host whose
    # /proc cannot be read still finds the OpenBLAS numpy's SVD calls
    real_open = open

    def no_proc(file, *args, **kwargs):
        if str(file).startswith("/proc"):
            raise PermissionError(f"{file} cannot be read")
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr("builtins.open", no_proc)
    _openblas_threads.cache_clear()
    try:
        threads = _openblas_threads()
    finally:
        _openblas_threads.cache_clear()
    assert threads is not None
    get, put = threads
    put(1)
    assert get() == blas_threads[0]() == 1


def test_openblas_lookup_finds_none_without_the_symbols(monkeypatch):
    # a LAPACK module that links no OpenBLAS (MKL, Accelerate) exports none
    # of the thread-count symbols
    monkeypatch.setattr("spinflip.invariants.ctypes.CDLL", lambda path: object())
    assert _openblas_threads.__wrapped__() is None


def test_singular_values_without_an_openblas(monkeypatch, blas_threads):
    # with no thread count to scope, the SVD runs on the caller's threads and
    # gives the scoped spectra up to rounding (1.2e-15 sigma_1 measured)
    get, _ = blas_threads
    stack = _complex_stack((3, 128, 128), seed=7)
    scoped = singular_values(stack)
    monkeypatch.setattr("spinflip.invariants._openblas_threads", lambda: None)
    got = singular_values(stack)
    assert get() == 2
    assert np.all(np.abs(got - scoped) <= 1e-13 * scoped[:, :1])


@pytest.mark.parametrize("n, rows, width", [(14, 7, 128), (12, 6, 64), (3, 2, 4)])
def test_spectra_up_to_128_wide_do_not_depend_on_the_thread_count(blas_threads, n, rows, width):
    # threaded OpenBLAS sums in another order: at n = 14 the two counts gave
    # spectra up to 5e-15 sigma_1 apart; at most 64 x 64 it never threads
    _, put = blas_threads
    part = QubitPartition(tuple(range(1, rows + 1)), n)
    for seed in range(3):
        state = random_state(n, seed)
        stack = _power_stacks(state.amplitudes[None], [state.norm()], part, 3)[0]
        assert stack.shape == (3, width, width)
        spectra = []
        for count in (1, 2):
            put(count)
            spectra.append(singular_values(stack))
        assert np.array_equal(spectra[0], spectra[1])


# The rank rule on one matrix m: _rank over its spectrum, with the noise
# floor NOISE_FLOOR * max |m| (the floor is 0 for the zero matrix).


def test_numerical_rank_bell_and_product():
    bell_omega = omega(standard_state("bell"), QubitPartition((1,), 2)).entries
    floor = NOISE_FLOOR * np.max(np.abs(bell_omega))
    assert _rank(singular_values(bell_omega), floor) == 2
    zz = omega(standard_state("zeros", 2), QubitPartition((1,), 2)).entries
    floor = NOISE_FLOOR * np.max(np.abs(zz))
    assert _rank(singular_values(zz), floor) == 0


def test_numerical_rank_threshold_contract():
    cases = [
        (np.diag([1.0, 1e-13, 0.0, 0.0]), 1),
        (np.diag([1.0, 1e-7, 0.0, 0.0]), 2),
        # relative semantics: a uniformly tiny but clean matrix keeps full rank
        (1e-20 * np.eye(3), 3),
        (np.zeros((2, 2)), 0),
    ]
    for m, rank in cases:
        floor = NOISE_FLOOR * np.max(np.abs(m))
        assert _rank(singular_values(m), floor) == rank


def test_numerical_rank_validation():
    nan_matrix = np.array([[np.nan, 0.0], [0.0, 1.0]])
    with pytest.raises(ValidationError):
        _rank(singular_values(nan_matrix), 0.0)


def test_rank_profile_table_rows():
    assert rank_profile(standard_state("ghz", 3), P12_3, 3).ranks == (2, 2, 2)
    assert rank_profile(standard_state("w", 3), P12_3, 3).ranks == (2, 1, 0)
    assert rank_profile(standard_state("xi"), P12_3, 3).ranks == (2, 2, 2)


def test_rank_profile_holds_only_partition_and_ranks():
    # the threshold is the library's RANK_TOL, not a per-profile field
    assert [f.name for f in dataclasses.fields(RankProfile)] == ["partition", "ranks"]


def test_rank_profile_monotonicity_enforced():
    with pytest.raises(ToleranceInconsistency) as exc:
        RankProfile(P12_3, (1, 2, 0))
    assert "rank boundary" in str(exc.value)
    assert exc.value.details == {"ranks": (1, 2, 0), "tolerance": RANK_TOL}
    assert RANK_TOL == 1e-10


def test_concurrence_bell():
    assert concurrence_even(standard_state("bell")) == pytest.approx(0.5, abs=1e-15)


def test_concurrence_zeta():
    # |zeta> = (1/sqrt3)|00> + (sqrt2/sqrt3)|11>
    amps = np.array([1 / math.sqrt(3), 0, 0, math.sqrt(2.0 / 3.0)], dtype=complex)
    zeta = PureState(2, amps)
    assert concurrence_even(zeta) == pytest.approx(RT2 / 3, abs=1e-15)


def test_concurrence_product_state():
    assert concurrence_even(standard_state("zeros", 4)) == 0.0


def test_concurrence_ghz_even_n():
    for n in (2, 4, 6, 8):
        assert concurrence_even(standard_state("ghz", n)) == pytest.approx(
            0.5, abs=1e-12
        )


def test_concurrence_rejects_odd_n():
    with pytest.raises(ValidationError):
        concurrence_even(standard_state("ghz", 3))


def test_concurrence_requires_normalized():
    bad = PureState(2, np.array([1.0, 1.0, 0, 0], dtype=complex))
    with pytest.raises(ValidationError):
        concurrence_even(bad)


def test_concurrence_matches_pair_sum_oracle():
    for seed in range(10):
        state = random_state(4, 3300 + seed)
        want = abs(oracles.oracle_pair_sum(state.amplitudes))
        assert concurrence_even(state) == pytest.approx(want, abs=1e-14)


def test_odd_invariants_ghz3():
    inv = odd_invariants(standard_state("ghz", 3))
    assert inv.e11 == pytest.approx(0.0, abs=1e-15)
    assert inv.e22 == pytest.approx(0.0, abs=1e-15)
    assert inv.e12 == pytest.approx(0.5, abs=1e-15)
    assert inv.delta == pytest.approx(0.5, abs=1e-15)
    assert inv.dee == pytest.approx(1 / 16, abs=1e-15)
    assert inv.t1 == pytest.approx(0.5, abs=1e-12)
    assert inv.t2 == pytest.approx(0.5, abs=1e-12)
    assert inv.ntangle == pytest.approx(0.25, abs=1e-15)


def test_odd_invariants_product_state():
    inv = odd_invariants(standard_state("zeros", 3))
    assert inv.e11 == inv.e12 == inv.e22 == 0.0
    assert inv.delta == inv.dee == inv.ntangle == 0.0
    assert inv.t1 == inv.t2 == 0.0


def test_odd_invariants_w_frozen():
    # hand evaluation: e11 = 2(a0 a3 - a1 a2) = -2/3, the other sums vanish
    inv = odd_invariants(standard_state("w", 3))
    assert inv.e11 == pytest.approx(-2.0 / 3.0, abs=1e-15)
    assert inv.e12 == pytest.approx(0.0, abs=1e-15)
    assert inv.e22 == pytest.approx(0.0, abs=1e-15)
    assert inv.delta == pytest.approx(4.0 / 9.0, abs=1e-15)
    assert inv.ntangle == pytest.approx(0.0, abs=1e-15)
    assert inv.t1 == pytest.approx(2.0 / 3.0, abs=1e-12)
    assert inv.t2 == pytest.approx(0.0, abs=1e-12)


def test_odd_invariants_w1_w2_delta():
    # Delta separates W1 from W2: 1/4 vs 3/8
    assert odd_invariants(standard_state("w1")).delta == pytest.approx(
        0.25, abs=1e-14
    )
    assert odd_invariants(standard_state("w2")).delta == pytest.approx(
        0.375, abs=1e-14
    )


def test_odd_invariants_ghz_odd_n():
    for n in (3, 5, 7):
        assert odd_invariants(standard_state("ghz", n)).ntangle == pytest.approx(
            0.25, abs=1e-12
        )


def test_odd_invariants_rejects_even_n():
    with pytest.raises(ValidationError):
        odd_invariants(standard_state("bell"))


def test_odd_invariants_type_validation():
    # e11, e12 and e22 are the only inputs; the rest is derived from them
    odd = OddInvariants(0j, 0.5 + 0j, 0j)
    assert (odd.delta, odd.dee, odd.t1, odd.t2, odd.ntangle) == (0.5, 1 / 16, 0.5, 0.5, 0.25)
    for name in ("delta", "dee", "t1", "t2", "ntangle"):
        with pytest.raises(TypeError):
            OddInvariants(0j, 0.5 + 0j, 0j, **{name: 0.5})


def test_three_qubit_s_examples():
    assert three_qubit_S(standard_state("w1")) ** 2 == pytest.approx(
        0.125, abs=1e-15
    )
    assert three_qubit_S(standard_state("w", 3)) == pytest.approx(
        RT2 / 3, abs=1e-15
    )
    assert three_qubit_S(standard_state("xi")) == pytest.approx(
        math.sqrt(3.0) / 4.0, abs=1e-15
    )
    assert three_qubit_S(standard_state("zeros", 3)) == 0.0


def test_three_qubit_s_acin_formula():
    # S^2 = l0^2 l2^2 + l0^2 l4^2 + |l1 l4 e^{i phi} - l2 l3|^2
    rng = np.random.default_rng(3400)
    for _ in range(25):
        raw = rng.uniform(0.1, 1.0, size=5)
        raw /= np.linalg.norm(raw)
        phi = float(rng.uniform(0, np.pi))
        form = AcinForm(*(float(x) for x in raw), phi=phi)
        l0, l1, l2, l3, l4 = form.lambdas()
        want = (
            l0**2 * l2**2
            + l0**2 * l4**2
            + abs(l1 * l4 * np.exp(1j * phi) - l2 * l3) ** 2
        )
        got = three_qubit_S(acin_state(form)) ** 2
        assert got == pytest.approx(want, abs=1e-12)


def test_three_qubit_s_rejects_other_n():
    with pytest.raises(ValidationError):
        three_qubit_S(standard_state("bell"))


def test_abs_det_ghz4_is_singular_value_product():
    state = standard_state("ghz", 4)
    part = QubitPartition((1, 2), 4)
    sigma = singular_values(omega(state, part).entries)
    assert np.allclose(sigma, [0.5, 0.5, 0, 0], atol=1e-15)
    got = _partition_invariants([state], part, 1)[0].abs_dets[0]
    assert got == pytest.approx(float(np.prod(sigma)), abs=1e-15)
    assert got == 0.0


def test_abs_det_zero_state():
    zeros = standard_state("zeros", 4)
    assert _partition_invariants([zeros], QubitPartition((1, 2), 4), 1)[0].abs_dets[0] == 0.0


def test_abs_det_matches_sigma_product():
    for seed in range(10):
        state = random_state(3, 3500 + seed)
        got = _partition_invariants([state], P12_3, 1)[0].abs_dets[0]
        sigma = singular_values(omega(state, P12_3).entries)
        assert got == pytest.approx(float(np.prod(sigma)), rel=1e-10, abs=1e-14)


def la4_state(a):
    # a(|0000> + |0101> + |1010> + |1111>) + i|0001> + |0110> - i|1011>:
    # its rows {1,2} coefficient matrix is upper triangular with diagonal a
    amps = np.zeros(16, dtype=complex)
    amps[0] = amps[5] = amps[10] = amps[15] = a
    amps[1] = 1j
    amps[6] = 1.0
    amps[11] = -1j
    return PureState(4, amps)


def test_abs_dets_of_higher_powers_are_derived():
    # |det Omega^(l)| = |det Omega|^l, against the determinant of each power
    rng = np.random.default_rng(3900)
    for n in range(3, 7):
        for k in range(4):
            state = random_state(n, 3900 + 10 * n + k)
            part = helpers.random_partition(rng, n)
            dets = _partition_invariants([state], part, 3)[0].abs_dets
            for ell in (2, 3):
                power = omega_power_sequence(state, part, ell)[-1]
                want = abs(np.linalg.det(power.entries))
                assert dets[ell - 1] == pytest.approx(want, rel=1e-10, abs=1e-15)


def test_abs_det_la4_family():
    part = QubitPartition((1, 2), 4)
    for a in (0.8, 0.6 + 0.3j, 1.5 - 0.2j):
        # the state is unnormalized, so |det Omega^(1)| is read at its raw scale
        got = np.prod(singular_values(omega(la4_state(a), part).entries))
        assert got == pytest.approx(abs(a) ** 8, rel=1e-12)


def test_even_concurrence_cross_check():
    # concurrence equals both singular values of the single-row-qubit matrix
    for i in range(50):
        n = 2 if i % 2 == 0 else 4
        state = random_state(n, 3600 + i)
        c = concurrence_even(state)
        sigma = singular_values(omega(state, QubitPartition((1,), n)).entries)
        assert abs(sigma[0] - sigma[1]) < 1e-12
        assert abs(c - sigma[0]) < 1e-10
        assert abs(c - sigma[1]) < 1e-10


def test_odd_t1_t2_cross_check():
    for i in range(50):
        n = 3 if i % 2 == 0 else 5
        state = random_state(n, 3700 + i)
        inv = odd_invariants(state)
        sigma = singular_values(omega(state, QubitPartition((1,), n)).entries)
        assert abs(inv.t1 - sigma[0]) < 1e-10
        assert abs(inv.t2 - sigma[1]) < 1e-10
        assert abs(inv.t1 * inv.t2 - inv.ntangle) < 1e-10


@pytest.mark.parametrize("k", np.arange(-2.0, -16.5, -0.5))
def test_odd_t2_survives_near_product_inputs(k):
    # W + eps|111>: t2 ~ eps sits far below t1 ~ 0.8, where the difference
    # form (delta - sqrt(delta^2 - 4 dee)) / 2 loses every digit of t2^2
    amps = standard_state("w", 3).amplitudes + 10.0**k * np.eye(8)[7]
    state = PureState(3, amps / np.linalg.norm(amps))
    inv = odd_invariants(state)
    sigma = singular_values(omega(state, QubitPartition((1,), 3)).entries)
    np.testing.assert_allclose((inv.t1, inv.t2), sigma, rtol=0, atol=1e-14)


def test_three_qubit_degeneracy_pattern():
    # singular values of the rows {1,2} matrix are (S, S, 0, 0)
    for i in range(50):
        state = random_state(3, 3800 + i)
        s = three_qubit_S(state)
        sigma = singular_values(omega(state, P12_3).entries)
        assert np.allclose(sigma, [s, s, 0, 0], atol=1e-10)


def test_lu_invariance_of_singular_values_and_det():
    for i in range(50):
        n = 3 + i % 2
        state = random_state(n, 3900 + i)
        op = random_local(n, "unitary", 4000 + i)
        moved = apply_local(state, op)
        part = QubitPartition(default_rows(n), n)
        for ell in (1, 2, 3):
            sa = singular_values(omega_power_sequence(state, part, ell)[-1].entries)
            sb = singular_values(omega_power_sequence(moved, part, ell)[-1].entries)
            assert np.allclose(sa, sb, atol=1e-9)
        assert _partition_invariants([state], part, 1)[0].abs_dets[0] == pytest.approx(
            _partition_invariants([moved], part, 1)[0].abs_dets[0], abs=1e-9
        )


@st.composite
def permuted_rows(draw):
    """A seeded random state and a row subset in two orders: ascending and
    one random permutation of it."""
    n = draw(st.integers(3, 8))
    order = draw(st.permutations(range(1, n + 1)))
    rows = tuple(order[: draw(st.integers(1, n - 1))])
    return random_state(n, draw(st.integers(0, 2**32 - 1))), tuple(sorted(rows)), rows


@settings(max_examples=50)
@given(permuted_rows())
def test_permuted_row_order_changes_nothing(case):
    # reordering the row qubits permutes the rows and columns of every
    # Omega^(l), which leaves ranks and singular values as they were
    state, ascending, permuted = case
    a = _partition_invariants([state], QubitPartition(ascending, state.n), 3)[0]
    b = _partition_invariants([state], QubitPartition(permuted, state.n), 3)[0]
    assert a.rank_profile.ranks == b.rank_profile.ranks
    for sa, sb in zip(a.singular_values, b.singular_values):
        np.testing.assert_allclose(sb, sa, rtol=0, atol=1e-12 * sa[0])


def test_rank_profile_invariant_under_invertible():
    for i in range(50):
        n = 3 + i % 2
        state = random_state(n, 4100 + i)
        op = random_local(n, "invertible", 4200 + i)
        part = QubitPartition(default_rows(n), n)
        before = rank_profile(state, part, 3).ranks
        after = rank_profile(apply_local(state, op), part, 3).ranks
        assert before == after


def test_complementary_ranks_obey_the_ab_ba_bound():
    # A = v_S C and B = v_c C^T give v_S Omega_S = AB and v_c Omega_{S^c} = BA,
    # whose l-th powers have the ranks of power l; so rank Omega_{S^c}^(l+1)
    # = rank B (AB)^l A <= rank Omega_S^(l), and the same with S and S^c
    # swapped. Exact at every power; checked at the default powers, since
    # from power 4 the float ranks break it
    checked = 0
    for n in range(3, 8):
        subsets = [(1,) + rest for size in range(n - 1)
                   for rest in itertools.combinations(range(2, n + 1), size)]
        for k in range(6):
            state = random_state(n, 1000 * n + k)
            for s in (state, apply_local(state, random_local(n, "invertible", 500 + k))):
                for rows in subsets:
                    part = QubitPartition(rows, n)
                    r = rank_profile(s, part, 3).ranks
                    rc = rank_profile(s, QubitPartition(part.columns(), n), 3).ranks
                    for ell in (1, 2):
                        assert rc[ell] <= r[ell - 1] and r[ell] <= rc[ell - 1], (n, k, rows)
                        checked += 2
    assert checked == 5712


def test_rank_profile_matches_exact_ranks_on_every_partition():
    # a Gaussian-integer SLOCC image of an integer class seed is an exact
    # float state, so on each of the 14 row subsets at n = 4 the float ranks
    # of powers 1..3 must be the exact ones
    n, profiles = 4, set()
    for k, seed in enumerate(oracles.integer_class_seeds(n).values()):
        image = oracles.exact_apply_local(seed, oracles.gaussian_integer_factors(n, 8600 + k))
        state = PureState(n, image.astype(complex))
        for size in range(1, n):
            for rows in itertools.combinations(range(1, n + 1), size):
                powers = oracles.exact_omega_powers(image, n, rows, 3)
                exact = tuple(oracles.exact_rank(m) for m in powers)
                assert rank_profile(state, QubitPartition(rows, n), 3).ranks == exact, (k, rows)
                profiles.add(exact)
    assert len(profiles) > 2  # the cases span more than full and zero rank


def test_closed_form_ranges():
    for i in range(50):
        c = concurrence_even(random_state(4, 4300 + i))
        assert 0.0 <= c <= 0.5 + 1e-12
        t = odd_invariants(random_state(3, 4400 + i)).ntangle
        assert 0.0 <= t <= 0.25 + 1e-12


def test_invariant_profile_shapes():
    prof3 = invariant_profile(standard_state("ghz", 3))
    assert prof3.n == 3
    assert prof3.concurrence is None
    assert prof3.odd is not None
    assert prof3.s_value == pytest.approx(0.5, abs=1e-15)
    assert prof3.partitions[0].rank_profile.ranks == (2, 2, 2)
    assert len(prof3.partitions[0].singular_values) == 3
    assert len(prof3.partitions[0].abs_dets) == 3

    prof4 = invariant_profile(standard_state("ghz", 4))
    assert prof4.concurrence == pytest.approx(0.5, abs=1e-12)
    assert prof4.odd is None
    assert prof4.s_value is None

    prof2 = invariant_profile(standard_state("bell"))
    assert prof2.concurrence == pytest.approx(0.5, abs=1e-15)
    assert prof2.partitions[0].rank_profile.partition.rows == (1,)


@pytest.mark.parametrize("scale", [1e-100, 1e60])
def test_invariant_profile_refuses_unnormalized_before_any_matrix(monkeypatch, scale):
    # at 1e60 the power recursion would overflow; at 1e-100 every SVD would
    # run before a closed form refused the state
    calls = helpers.count_svd_calls(monkeypatch)
    state = PureState(3, standard_state("ghz", 3).amplitudes * scale)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match="^invariant_profile requires a normalized state$"):
            invariant_profile(state)
    assert calls == []


def test_invariant_profile_multiple_partitions():
    state = random_state(4, 4500)
    parts = [QubitPartition((1, 2), 4), QubitPartition((1, 3), 4)]
    prof = invariant_profile(state, parts, max_power=2)
    assert len(prof.partitions) == 2
    assert prof.partitions[1].rank_profile.partition.rows == (1, 3)
    assert len(prof.partitions[0].singular_values) == 2


@pytest.mark.parametrize("max_power", [1, 3, 5])
def test_partition_invariants_one_svd_call(monkeypatch, max_power):
    calls = helpers.count_svd_calls(monkeypatch)
    for state, part in helpers.state_partition_cases(6, max_n=6, seed=4200):
        calls.clear()
        inv = _partition_invariants([state], part, max_power)[0]
        d = 2**part.size
        assert calls == [(max_power, d, d)]
        assert len(inv.singular_values) == len(inv.abs_dets) == max_power


def test_stacked_spectra_bit_identical_to_per_power():
    # one stacked SVD gives, bit for bit, the spectra of per-power calls
    rng = np.random.default_rng(4300)
    for n in range(3, 9):
        rows = tuple(range(1, n // 2 + 1))
        parts = [QubitPartition(rows, n), QubitPartition(rows[::-1], n),
                 QubitPartition(tuple(range(n - 1, 0, -1)), n),
                 helpers.random_partition(rng, n)]
        for k, part in enumerate(parts):
            state = random_state(n, 4300 + 10 * n + k)
            inv = _partition_invariants([state], part, 3)[0]
            seq = omega_power_sequence(state, part, 3)
            for got, om in zip(inv.singular_values, seq):
                assert got.ndim == 1
                assert np.array_equal(got, singular_values(om.entries))


def _batch_cases():
    """Every partition for n = 2..8, each in ascending, reversed and one
    random row order, then n = 14 rows 1..7."""
    rng = np.random.default_rng(4350)
    for n in range(2, 9):
        for size in range(1, n):
            for rows in itertools.combinations(range(1, n + 1), size):
                for order in (rows, rows[::-1], tuple(rng.permutation(rows).tolist())):
                    yield QubitPartition(order, n)
    yield QubitPartition(tuple(range(1, 8)), 14)


def test_spectra_do_not_depend_on_their_batch():
    # one recursion and one SVD over a pair give each state, bit for bit,
    # the spectra, floors and ranks it has alone, raw and through the checked
    # route; one gather and one SVD give it the same local ranks
    for k, part in enumerate(_batch_cases()):
        n = part.n
        a = random_state(n, 4360 + k)
        # an unnormalized SLOCC image, whose rows _spectra rescales
        b = (apply_local(a, random_local(n, "invertible", 4361 + k)) if k % 2
             else random_state(n, 4362 + k))
        pair_sigmas, pair_floors = _spectra([a, b], part, 3)
        pair = _partition_invariants([a, b], part, 3)
        for idx, state in enumerate((a, b)):
            sigmas, floors = _spectra([state], part, 3)
            assert pair_sigmas[idx].tobytes() == sigmas[0].tobytes()
            assert pair_floors[idx].tobytes() == floors[0].tobytes()
            assert np.array_equal(_rank(pair_sigmas[idx], pair_floors[idx]), _rank(sigmas[0], floors[0]))
            # a lone _partition_invariants call is this _spectra call, ranked
            assert pair[idx].rank_profile.ranks == tuple(_rank(sigmas[0], floors[0]).tolist())
            assert np.array(pair[idx].singular_values).tobytes() == sigmas[0].tobytes()
        assert _local_ranks([a, b]) == _local_ranks([a]) + _local_ranks([b])


def test_rank_rule_vectorised_matches_rowwise():
    rng = np.random.default_rng(4400)
    sigma = np.sort(rng.uniform(0, 1, (5, 4)), axis=-1)[:, ::-1]
    sigma[1, 2:] = 1e-13 * sigma[1, 0]
    sigma[2] = 0.0
    sigma[3] = [1e-20, 1e-21, 0.0, 0.0]
    floors = np.array([1e-12, 1e-12, 1e-12, 1e-12, 2.0])
    got = _rank(sigma, floors)
    assert got.tolist() == [4, 2, 0, 0, 0]
    for row, floor, rank in zip(sigma, floors, got):
        assert int(_rank(row, floor)) == rank
    # one spectrum gives one scalar rank
    rank = _rank(singular_values(np.eye(3)), NOISE_FLOOR)
    assert rank.shape == () and rank == 3


SCALES = [1e-150, 1e-100, 1e-50, 1e50, 1e100, 1e150]


@pytest.mark.parametrize("scale", SCALES)
@pytest.mark.parametrize("name", ["GHZ", "W", "C-AB"])
def test_rank_profile_at_any_scale(name, scale):
    # ranks are properties of the ray; raw scales would underflow or
    # overflow Omega^(l), which scales as c^(2l)
    seed = helpers.class_seeds()[name]
    scaled = PureState(3, scale * seed.amplitudes)
    assert rank_profile(scaled, P12_3, 3).ranks == rank_profile(seed, P12_3, 3).ranks


@given(
    n=st.integers(4, 7),
    kind=st.sampled_from(["random", "ghz", "w"]),
    seed=st.integers(0, 2**32 - 1),
    mantissa=st.floats(1.0, 10.0, exclude_max=True),
    k=st.integers(-150, 150),
)
def test_rank_profile_scale_sweep(n, kind, seed, mantissa, k):
    # on a random partition, ranks read at mantissa * 10^k match unit norm
    rng = np.random.default_rng(seed)
    state = random_state(n, seed) if kind == "random" else standard_state(kind, n)
    part = helpers.random_partition(rng, n)
    scaled = PureState(n, mantissa * 10.0**k * state.amplitudes)
    assert rank_profile(scaled, part, 3).ranks == rank_profile(state, part, 3).ranks


def test_a_flat_unnormalized_state_reads_like_its_normalized_copy():
    # scaled by its peak, which leaves ||a||^2 = 230.4, this state's high
    # powers overflowed; scaled by its norm, every power stays below 1
    flat, unit = helpers.flat8()
    part = QubitPartition((1, 2, 3, 4), 8)
    ranks = rank_profile(unit, part, 300).ranks
    assert ranks[:6] == (16, 16, 16, 16, 16, 15)
    assert ranks.index(0) == 41 and not any(ranks[41:])
    assert rank_profile(flat, part, 300).ranks == ranks


def test_rays_are_exact_and_handle_subnormal_norms():
    ghz = standard_state("ghz", 3)
    for scale in (1e-310, 3e-200, 1e250):
        raw = PureState(3, scale * (1 + 2j) * ghz.amplitudes)
        (ray,), (norm,) = _rays([raw])
        assert 0.5 <= norm < 1.0 and type(norm) is float
        _, exp = math.frexp(raw.norm())
        if scale > 1e-300:  # a normal stored norm carries over exactly
            assert norm * 2.0**exp == raw.norm()
        assert np.array_equal(ray * 2.0**exp, raw.amplitudes)
        assert rank_profile(raw, P12_3, 3).ranks == (2, 2, 2)
    # normalized rows pass through untouched, beside a rescaled one
    amps, norms = _rays([ghz, raw, ghz])
    assert np.array_equal(amps[0], ghz.amplitudes) and np.array_equal(amps[2], ghz.amplitudes)
    assert norms[0] == norms[2] == ghz.norm() and np.array_equal(amps[1], ray)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_rays_measure_a_subnormal_norm_at_the_ray_scale(seed):
    # a norm stored at 1e-320 keeps about 11 bits and once read 0.98828125
    # against a ray norm of 0.98805856 (seed 0); the ray's ranks are its
    # normalized copy's
    unit = random_state(5, seed)
    tiny = PureState(5, 1e-320 * unit.amplitudes)
    (ray,), (norm,) = _rays([tiny])
    assert norm == pytest.approx(np.linalg.norm(ray), rel=1e-15, abs=0)
    for rows in ((1,), (1, 2), (3, 1, 5)):
        part = QubitPartition(rows, 5)
        assert rank_profile(tiny, part, 5).ranks == rank_profile(unit, part, 5).ranks
