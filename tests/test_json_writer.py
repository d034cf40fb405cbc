"""The CLI's table writers against per-value references.

The JSON reference below is the output path that the writer replaced,
kept verbatim: every float rounded through %.12g, then json.dumps with an
indent of two; float arrays and tables are handed to it as the lists and
row objects they stand for. The writer must give the same bytes for any
payload the CLI can build, including the floats whose %.12g text JSON
spells differently (integers, -0, NaN and the infinities, exponents 12 to
15, subnormals), on both sides of the length from which an array is
formatted in one pass. The CSV writers must give the text of formatting
each value alone with "%.12g".
"""

import json
import math

import numpy as np
from hypothesis import given, strategies as st

from photon_darwinism.cli import _BULK_MIN, _Table, _json, _pip_lines


def _fmt(value):
    if value is None:
        return ""
    return "%.12g" % value


def _rows(table):
    """A _Table as the lists or dicts it stands for, None where missing."""
    missing = np.broadcast_to(table.missing, table.cells.shape[1:]).tolist()
    rows = [[None if gap and math.isnan(v) else v for v, gap in zip(row, missing)]
            for row in table.cells.tolist()]
    if table.names is None:
        return rows
    return [dict(zip(table.names, row)) for row in rows]


def _round12(obj):
    """Recursively round floats to the 12-significant-digit contract."""
    if isinstance(obj, float):
        return float(_fmt(obj))
    if isinstance(obj, dict):
        return {k: _round12(v) for k, v in obj.items()}
    if isinstance(obj, _Table):
        return _round12(_rows(obj))
    if isinstance(obj, np.ndarray):
        return _round12(obj.tolist())
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


def _mixed(seed, n):
    """n floats drawn from EDGE_FLOATS, random bit patterns (subnormals,
    NaNs and the infinities among them), decimals of many magnitudes and
    whole numbers."""
    rng = np.random.default_rng(seed)
    pool = np.concatenate([
        EDGE_FLOATS,
        rng.integers(0, 2**64, n, dtype=np.uint64, endpoint=False).view(float),
        rng.uniform(-1.0, 1.0, n) * 10.0 ** rng.integers(-30, 30, n),
        np.round(rng.uniform(-1e13, 1e13, n) / 10.0 ** rng.integers(0, 13, n))])
    return rng.choice(pool, n)


def _columns(n_columns):
    """Tuples of n_columns equal-length float arrays, from one row to
    several times the length from which they are formatted in one pass."""
    return st.builds(
        lambda seed, n: tuple(_mixed([seed, i], n) for i in range(n_columns)),
        st.integers(0, 2**32), st.integers(1, 4 * _BULK_MIN))


arrays = st.one_of(st.lists(floats, max_size=2 * _BULK_MIN).map(np.array),
                   _columns(1).map(lambda columns: columns[0]))


@given(arrays)
def test_arrays_match_the_json_module(values):
    assert write(values) == reference(values)
    assert write({"v": values, "w": [values]}) == reference(
        {"v": values, "w": [values]})


def test_arrays_across_the_whole_double_range():
    values = [mantissa * 10.0 ** exponent
              for exponent in range(-300, 309)
              for mantissa in (1.0, 1.5, 9.99999999999951, 9.9999999999995)]
    values = [v for v in values if math.isfinite(v)]
    values += [5e-324, 1e-310, 2.225073858507e-308, 0.5, 2.9999999999999,
               -3.0000000000001, 2.5, 1e11 + 0.5, 999999999999.4]
    values += [math.nextafter(v, d) for v in values[:] for d in (0.0, math.inf)]
    values = np.array(values + [-v for v in values] + EDGE_FLOATS)
    assert len(values) >= _BULK_MIN
    assert write(values) == reference(values)


@given(st.lists(floats, min_size=1, max_size=4),
       st.floats(min_value=0.0, max_value=1.0), st.integers(2, 3 * _BULK_MIN))
def test_pip_blocks_share_one_fragment_grid(times, alpha, f_count):
    f = np.linspace(0.0, 1.0, f_count)
    mi = np.outer(times, f) * alpha
    payload = {"alpha": alpha, "blocks": [
        {"t_over_tauD": t, "f": f, "mi_nats": row} for t, row in zip(times, mi)]}
    assert write(payload) == reference(payload)


NAMES = ("t_over_tauD", "R_exact", "R_estimate", "R_lower")


@given(_columns(4))
def test_redundancy_rows_write_missing_values_as_null(columns):
    cells = np.column_stack(columns)
    table = _Table(cells, NAMES, (False, True, False, True))
    assert write(table) == reference(table)
    assert write(_Table(cells, NAMES)) == reference(_Table(cells, NAMES))


@given(_columns(2), st.booleans())
def test_sweep_points_are_pairs(columns, redundancy):
    payload = {"quantity": "q", "points": _Table(
        np.column_stack(columns), missing=(False, redundancy))}
    assert write(payload) == reference(payload)


# ---------------------------------------------------------------------------
# CSV

@given(st.integers(2, 5).flatmap(_columns))
def test_pip_csv_blocks(columns):
    # One fragment grid and a block per remaining column, each block's time
    # its first value.
    f, *mi = columns
    times = [row[0] for row in mi]
    got = "\n".join(_pip_lines(times, f, np.array(mi)))
    blocks = ["# t_over_tauD = %s\nf,mi_nats\n" % _fmt(t) + "\n".join(
        f"{_fmt(x)},{_fmt(y)}" for x, y in zip(f.tolist(), row.tolist()))
        for t, row in zip(times, mi)]
    assert got == "\n\n".join(blocks)


@given(st.integers(2, 4).flatmap(_columns), st.data())
def test_table_csv_rows(columns, data):
    missing = tuple(data.draw(st.booleans()) for _ in columns)
    table = _Table(np.column_stack(columns), missing=missing)
    lines = ["h"] + [",".join(map(_fmt, row)) for row in _rows(table)]
    assert "\n".join(table.csv_lines("h")) == "\n".join(lines)


def test_csv_edge_values():
    values = np.array(EDGE_FLOATS)
    table = _Table(np.column_stack((values, values[::-1], -values)),
                   missing=(False, True, False))
    want = ["h"] + [",".join(map(_fmt, row)) for row in _rows(table)]
    assert "\n".join(table.csv_lines("h")) == "\n".join(want)
