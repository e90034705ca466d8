"""Stage run: each pipeline stage timed on its own over a workload's inputs.

The stage names are the ones the program's planned `--timings` output
uses, so a stage figure here and a timing line there compare directly:
parse, coeff, omega1, recursion, svd, det, closed_forms, emit. Each stage
is a call into the program on prepared arguments; `recursion` is the
power 1..3 sequence minus the power-1 matrix it starts from, the two timed
back to back per item so that slow phases of the machine cancel.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

import spinflip
import spinflip.cli

STAGES = ("parse", "coeff", "omega1", "recursion", "svd", "det", "closed_forms", "emit")
MAX_POWER = 3


def _closed_forms(state):
    out = []
    if state.n % 2 == 0:
        out.append(spinflip.concurrence_even(state))
    elif state.n >= 3:
        out.append(spinflip.odd_invariants(state))
    if state.n == 3:
        out.append(spinflip.three_qubit_S(state))
    return out


def _report(state, partition) -> dict:
    """The data of an `invariants` report for one (state, partition)."""
    profile = spinflip.invariant_profile(state, [partition], MAX_POWER)
    part = profile.partitions[0]
    report = {
        "n": state.n,
        "ranks": list(part.rank_profile.ranks),
        "partitions": [{
            "rows": list(partition.rows),
            "ranks": list(part.rank_profile.ranks),
            "powers": [{"power": i + 1, "singular_values": part.singular_values[i],
                        "abs_det": part.abs_dets[i]} for i in range(MAX_POWER)],
        }],
    }
    if profile.concurrence is not None:
        report["concurrence"] = profile.concurrence
    if profile.odd is not None:
        report["odd"] = {"e11": profile.odd.e11, "e12": profile.odd.e12,
                         "e22": profile.odd.e22, "t1": profile.odd.t1, "t2": profile.odd.t2}
    if profile.s_value is not None:
        report["s"] = profile.s_value
    return report


def _calls(items) -> dict[str, list]:
    """Per stage, the zero-argument calls that make one pass over the items;
    `recursion` holds (sequence, power-1) pairs."""
    calls = {name: [] for name in STAGES}
    for state, part in items:
        text = spinflip.serialize_state(state)
        mats = [om.entries for om in spinflip.omega_power_sequence(state, part, MAX_POWER)]
        report = _report(state, part)
        calls["parse"].append(lambda t=text: spinflip.parse_state(t))
        calls["coeff"].append(lambda s=state, p=part: spinflip.coeff_matrix(s, p))
        calls["omega1"].append(lambda s=state, p=part: spinflip.omega(s, p))
        calls["recursion"].append(
            (lambda s=state, p=part: spinflip.omega_power_sequence(s, p, MAX_POWER),
             calls["omega1"][-1]))
        calls["svd"].append(
            lambda m=mats: [np.linalg.svd(x, compute_uv=False) for x in m])
        calls["det"].append(lambda m=mats: [np.linalg.det(x) for x in m])
        calls["closed_forms"].append(lambda s=state: _closed_forms(s))
        calls["emit"].append(lambda r=report: spinflip.cli._emit_json(r))
    return calls


def _pass_seconds(calls, budget_s: float) -> float:
    """Median time of one pass over calls, repeating passes for budget_s.
    A pair (a, b) counts as the time of a minus the time of b."""
    times = []
    deadline = time.perf_counter() + budget_s
    clock = time.perf_counter_ns
    while not times or time.perf_counter() < deadline:
        total = 0
        for call in calls:
            if isinstance(call, tuple):
                t0 = clock()
                call[0]()
                t1 = clock()
                call[1]()
                total += (t1 - t0) - (clock() - t1)
            else:
                t0 = clock()
                call()
                total += clock() - t0
        times.append(total / 1e9)
    return statistics.median(times)


def stage_run(items, budget_s: float) -> dict[str, float]:
    """Microseconds per item for each stage."""
    calls = _calls(items)
    per_stage = budget_s / len(calls)
    return {name: _pass_seconds(c, per_stage) * 1e6 / len(items) for name, c in calls.items()}
