"""Random command lines and scenario files: main() never ends in a traceback.

Argvs are drawn from the parser's own option table, each option given edge
values (signed zeros, infinities, NaN, an overflowing literal, the least
subnormal, a small negative) or in-domain ones; scenario files take
extreme temperatures, sizes and irradiances over disk, point and isotropic
skies. Every outcome must be an exit code of the CLI's contract, returned
or raised by argparse as SystemExit, and no other exception. Counts stay
at 50 or below so that each call takes milliseconds.
"""

import contextlib
import io
import warnings

import pytest
from hypothesis import example, given, settings, strategies as st

from photon_darwinism.cli import (
    EXIT_CAP,
    EXIT_CHECK,
    EXIT_CONFIG,
    EXIT_OK,
    _SWEEP_TABLE,
    _build_parser,
    _comma_floats,
    _positive_int,
    _quadrature_order,
    main,
)

EDGES = ["0", "-0", "inf", "-inf", "nan", "1e400", "5e-324", "-1e-3"]
# Two in-domain draws to one edge, so that calls with several numbers
# still reach the computation.
IN_DOMAIN = st.one_of(st.floats(0.0, 1.0), st.floats(1.0, 1e3)).map(repr)
NUMBERS = st.one_of(st.sampled_from(EDGES), IN_DOMAIN, IN_DOMAIN)
COUNTS = st.integers(-1, 50).map(str)
ORDERS = st.sampled_from(["1", "2", "3", "16", "64", "1025"])
KEYS = sorted({key for spec in _SWEEP_TABLE.values() for key in spec["fixed"]})
FIXES = st.builds("{}={}".format, st.sampled_from(KEYS + ["bogus"]),
                  st.one_of(NUMBERS, st.just("x")))
CONFIGS = ["disk.cfg", "point.cfg", "isotropic.cfg", "missing.cfg"]

BASE = "radius_m = 1e-6\npermittivity = 4.0\ndx_m = 1e-6\ntemperature_K = 2.725\n"
FILES = {
    "disk.cfg": BASE + "region = disk:60:0\n",
    "point.cfg": BASE + "region = point:45\nirradiance_W_m2 = 1e-5\n",
    "isotropic.cfg": BASE + "region = isotropic\n",
}

# Positive extremes from the least subnormal to past the largest double,
# with the values that are refused by name.
EXTREMES = st.one_of(
    st.sampled_from(["1e-305", "5e-324", "1e-40", "1e-6", "2.725", "1e30",
                     "1e300", "1e400", "inf", "nan", "0", "-1e-3"]),
    st.floats(5e-324, 1e308).map(repr))
ANGLES = st.one_of(st.sampled_from(["0", "90", "180", "-1e-3", "nan", "inf"]),
                   st.floats(0.0, 180.0).map(repr))
REGIONS = st.one_of(st.builds("disk:{}:{}".format, ANGLES, ANGLES),
                    st.builds("point:{}".format, ANGLES), st.just("isotropic"))
COLD_DISK = BASE.replace("2.725", "1e-305") + "region = disk:60:0\n"


def _values(action, quantity):
    """A strategy for one option's value, or None for options not drawn;
    quantity is the sweep's, drawn before its axis."""
    if action.dest in ("help", "out"):
        return None
    if action.choices is not None:
        return st.sampled_from(sorted(action.choices))
    if action.dest == "config":
        return st.sampled_from(CONFIGS).map("{{tmp}}/{}".format)
    if action.dest == "axis":
        return st.sampled_from(_SWEEP_TABLE[quantity]["axes"] + ("bogus",))
    if action.dest == "fix":
        return FIXES
    return {float: NUMBERS, int: COUNTS, _positive_int: COUNTS,
            _quadrature_order: ORDERS,
            _comma_floats: st.lists(NUMBERS, max_size=3).map(",".join),
            }[action.type]


@st.composite
def argvs(draw):
    """One argv of a command, each required option given, others maybe."""
    commands = _build_parser()[1]
    command = draw(st.sampled_from(sorted(commands)))
    argv, quantity = [command], None
    for action in commands[command]._actions:
        values = _values(action, quantity)
        if values is None or not (action.required or draw(st.booleans())):
            continue
        repeats = draw(st.integers(1, 2)) if action.dest == "fix" else 1
        for _ in range(repeats):
            argv += [action.option_strings[-1], draw(values)]
        if action.dest == "quantity":
            quantity = argv[-1]
    return argv


def _outcome(argv):
    """main(argv)'s exit code, with library warnings shown as the CLI shows
    them and its output discarded."""
    sink = io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(sink), \
            contextlib.redirect_stderr(sink):
        warnings.simplefilter("default")
        try:
            return main(argv)
        except SystemExit as exc:
            assert exc.code in (EXIT_OK, EXIT_CONFIG), (argv, sink.getvalue())
            return exc.code


@pytest.fixture(scope="module")
def tmp(tmp_path_factory):
    path = tmp_path_factory.mktemp("probe")
    for name, text in FILES.items():
        (path / name).write_text(text)
    return path


@settings(max_examples=300, deadline=None)
@given(argv=argvs())
def test_no_argv_ends_in_a_traceback(tmp, argv):
    argv = [arg.replace("{tmp}", str(tmp)) for arg in argv]
    assert _outcome(argv) in (EXIT_OK, EXIT_CONFIG, EXIT_CAP, EXIT_CHECK)


@settings(max_examples=200, deadline=None)
@given(command=st.sampled_from(["rate", "alpha", "pip"]),
       scenario=st.builds(
           "radius_m = {}\npermittivity = 4.0\ndx_m = {}\ntemperature_K = {}\n"
           "region = {}\n{}".format, EXTREMES, EXTREMES, EXTREMES, REGIONS,
           st.one_of(st.just(""), EXTREMES.map("irradiance_W_m2 = {}\n".format))))
@example(command="rate", scenario=COLD_DISK)
@example(command="pip", scenario=COLD_DISK)
def test_no_scenario_file_ends_in_a_traceback(tmp, command, scenario):
    path = tmp / "drawn.cfg"
    path.write_text(scenario)
    argv = [command, "--config", str(path), "--order", "16"]
    if command == "pip":
        argv += ["--times", "1,10", "--f-count", "3"]
    assert _outcome(argv) in (EXIT_OK, EXIT_CONFIG)
