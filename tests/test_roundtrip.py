"""Property tests of the JSON codec: state files, operator files and reports
read back bit for bit."""

import json

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from spinflip import (
    LocalOperator,
    PureState,
    parse_operator,
    parse_state,
    serialize_operator,
    serialize_state,
)
from spinflip.cli import _emit_json, _jsonable

# -0.0, subnormals, the smallest normal and magnitudes up to 1e300
EDGES = [-0.0, 5e-324, -2.5e-320, 2.2250738585072014e-308, 1e300, -1e300, 0.1]
reals = st.one_of(
    st.sampled_from(EDGES),
    st.floats(min_value=-1e300, max_value=1e300, allow_nan=False, allow_infinity=False),
)
complexes = st.builds(complex, reals, reals)


def bits(values) -> bytes:
    """The exact bytes of a complex array: tells -0.0 from 0.0."""
    return np.ascontiguousarray(values, dtype=complex).tobytes()


@st.composite
def states(draw):
    n = draw(st.integers(1, 6))
    amps = draw(st.lists(complexes, min_size=2**n, max_size=2**n))
    assume(any(amps))
    return PureState(n, np.array(amps))


@given(states())
def test_state_file_round_trip_is_bit_identical(state):
    with np.errstate(over="ignore"):
        back = parse_state(serialize_state(state))
    assert back.n == state.n
    assert bits(back.amplitudes) == bits(state.amplitudes)


def _invertible(entries) -> bool:
    a, b, c, d = entries
    return abs(a * d - b * c) > 1e-9


factor_entries = st.lists(
    st.builds(complex, *[st.one_of(st.sampled_from([-0.0, 5e-324, 0.1]),
                                   st.floats(-1e3, 1e3))] * 2),
    min_size=4, max_size=4,
).filter(_invertible)


@given(st.lists(factor_entries, min_size=1, max_size=6))
def test_operator_file_round_trip_is_bit_identical(raw):
    op = LocalOperator(tuple(np.array(e).reshape(2, 2) for e in raw), kind="invertible")
    back = parse_operator(serialize_operator(op))
    assert back.kind == op.kind
    assert bits(back.factors) == bits(op.factors)


def plain(value):
    """What a report value reads back as: [re, im] for each complex, lists
    for tuples and arrays, Python scalars for numpy ones."""
    if isinstance(value, (complex, np.complexfloating)):
        return [float(value.real), float(value.imag)]
    if isinstance(value, (np.ndarray, np.generic)):
        return plain(value.tolist())
    if isinstance(value, dict):
        return {key: plain(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [plain(item) for item in value]
    return value


scalars = st.one_of(
    st.none(), st.booleans(), st.integers(-2**63, 2**63 - 1), st.text(max_size=8),
    reals, complexes,
    reals.map(np.float64), complexes.map(np.complex128),
    st.integers(-2**31, 2**31 - 1).map(np.int64), st.booleans().map(np.bool_),
    st.lists(reals, max_size=4).map(np.array),
    st.lists(complexes, max_size=4).map(lambda zs: np.array(zs, dtype=complex)),
)
reports = st.recursive(
    scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(st.text(max_size=8), inner, max_size=4),
    ),
    max_leaves=20,
)


@given(st.dictionaries(st.text(max_size=8), reports, max_size=6))
def test_report_round_trip(report):
    back = json.loads(_emit_json(report))
    assert back == plain(report)
    # repr tells -0.0 from 0.0 and 1 from 1.0, which == does not
    assert repr(back) == repr(plain(report))


@pytest.mark.parametrize("value", [object(), {1, 2}, b"bytes"])
def test_jsonable_rejects_other_types(value):
    with pytest.raises(TypeError, match="cannot serialize"):
        _jsonable(value)
