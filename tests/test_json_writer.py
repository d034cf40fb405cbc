"""The CLI's JSON writer against the json module.

The reference below is the output path that the writer replaced, kept
verbatim: every float rounded through %.12g, then json.dumps with an
indent of two. The writer must give the same bytes for any payload the
CLI can build, including the floats whose %.12g text JSON spells
differently (integers, -0, NaN and the infinities, exponents 12 to 15,
subnormals).
"""

import json
import math

from hypothesis import given, strategies as st

from photon_darwinism.cli import _json


def _fmt(value):
    if value is None:
        return ""
    return "%.12g" % value


def _round12(obj):
    """Recursively round floats to the 12-significant-digit contract."""
    if isinstance(obj, float):
        return float(_fmt(obj))
    if isinstance(obj, dict):
        return {k: _round12(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round12(v) for v in obj]
    return obj


def reference(obj) -> str:
    return json.dumps(_round12(obj), indent=2)


def write(obj) -> str:
    return _json(obj, "\n", {})


EDGE_FLOATS = [
    0.0, -0.0, math.nan, math.inf, -math.inf,
    5e-324, -5e-324, 1e-310, 5e-311, 2.2250738585072014e-308,
    2.225073858507e-308, 1e-300, 1.5e-30,
    1e-5, 1e-4, 9.99999999999949e-5, 9.9999999999995e-5, 0.0001234,
    1.0, -3.0, 123456789012.0, 999999999999.4, 999999999999.5,
    1e12, 5.47744843922e14, 1e15, 9.999999999995e15, 1e16, 1.5e16,
    1.7976931348623157e308, -1.7976931348623157e308, 1 / 3, 2 / 3,
]

floats = st.one_of(
    st.sampled_from(EDGE_FLOATS),
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.floats(min_value=1e11, max_value=1e17),
    st.floats(min_value=1e-6, max_value=1e-3),
)
leaves = st.one_of(
    floats,
    st.integers(min_value=-10**20, max_value=10**20),
    st.booleans(),
    st.none(),
    st.text(),
)
payloads = st.recursive(
    leaves,
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=3).map(tuple),
        st.dictionaries(st.text(max_size=6), children, max_size=5),
    ),
    max_leaves=40,
)


@given(payloads)
def test_payloads_match_the_json_module(payload):
    assert write(payload) == reference(payload)


@given(floats)
def test_floats_match_the_json_module(value):
    assert write(value) == reference(value)
    assert write([value, -value]) == reference([value, -value])


def test_floats_across_the_whole_double_range():
    # Four mantissas in every decade from the smallest subnormal up, with
    # both signs and the neighbours of each value.
    values = []
    for exponent in range(-324, 309):
        for mantissa in (1.0, 1.5, 4.9406564584124654, 9.99999999999951):
            value = mantissa * 10.0 ** exponent if exponent > -300 else (
                float(f"{mantissa}e{exponent}"))
            if math.isfinite(value):
                values += [value, -value, math.nextafter(value, math.inf),
                           math.nextafter(value, 0.0)]
    assert write(values) == reference(values)


def test_empty_containers_strings_and_scalars():
    payload = {"": [], "e": {}, "t": True, "f": False, "n": None,
               "i": -7, "s": "café α \U0001d4d0 \"q\" \\ \n",
               "é": [[], {}, [[]]]}
    assert write(payload) == reference(payload)
    for leaf in ([], {}, (), "x", 0, None, True):
        assert write(leaf) == reference(leaf)


def test_a_shared_list_is_written_at_every_depth():
    # The pip blocks share one fragment grid; here it also appears at a
    # second depth, where its indentation differs.
    grid = [0.0, 0.5, 1.0]
    payload = {"blocks": [{"f": grid}, {"f": grid}], "f": grid, "g": [grid]}
    assert write(payload) == reference(payload)
