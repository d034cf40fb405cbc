"""Command-line front end.

Subcommands: rate, alpha, pip, redundancy, oracle, sweep. Scenario files
feed the SI-valued commands; the dimensionless sweeps need no physical
constants at all. Output is CSV or JSON with 12 significant digits, and
identical inputs (plus seed, where randomness exists) give identical
bytes.

Exit codes: 0 success, 2 configuration error, 3 resource cap exceeded,
4 oracle check failure.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import itertools
import math
import re
import sys
import warnings
from json.encoder import encode_basestring_ascii
from typing import NamedTuple

import numpy as np

from .discrete_oracle import (
    DEFAULT_CAP,
    OracleCapError,
    analytic_entropy_change,
    fragment_entropy_change_exact,
    oracle_battery,
)
from .entropy_kernels import InputError, _libm
from .information import (
    _check_time,
    mutual_information_at_time,
    redundancy_estimate,
    redundancy_exact,
    redundancy_lower_bound,
)
from .radiometry import (
    ScenarioError,
    decoherence_rate,
    disk_rate,
    parse_scenario,
    photon_number_density,
)
from .receptivity import (alpha_closed_form, alpha_disk, alpha_numeric,
                          redundancy_rate)
from .sky import FULL_SPHERE, _region_moment_pair
from .superpositions import mi_mway, mi_unbalanced

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_CAP = 3
EXIT_CHECK = 4


class CliError(Exception):
    """User-facing input problem; maps to the configuration exit code."""


_JSON_SPECIAL = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
# Endings of %.12g text that JSON spells differently: exponents 12 to 15,
# which JSON prints positionally, and the three-digit negative exponents,
# whose subnormal values JSON may print in fewer digits.
_JSON_RESPELL = frozenset(["e+12", "e+13", "e+14", "e+15"]
                          + ["-3%02d" % e for e in range(25)])


def _json_float(value) -> str:
    """JSON text of value rounded to 12 significant digits.

    The %.12g text is already the shortest round-trip text of the rounded
    double, which is what JSON prints, except where it has neither "." nor
    an exponent (integers, -0, nan, inf) or ends in an exponent of
    _JSON_RESPELL; there the rounded double is printed again by repr.
    """
    text = "%.12g" % value
    if ("." in text or "e" in text) and text[-4:] not in _JSON_RESPELL:
        return text
    return _JSON_SPECIAL.get(text) or repr(float(text))


_BULK_MIN = 48  # below it, numpy's cost per call exceeds what one % pass saves


def _json_texts(values) -> list[str]:
    """_json_float of each value of a 1-d float array. From _BULK_MIN on, one
    %.12g pass, redone where JSON may respell: NaN, inf, near-integers, tiny."""
    floats = values.tolist()
    if len(floats) < _BULK_MIN:
        return [_json_float(v) for v in floats]
    texts = ("\n".join(["%.12g"] * len(floats)) % tuple(floats)).split("\n")
    with np.errstate(invalid="ignore"):  # NaN and the infinities are odd
        odd = ~(np.abs(values - np.rint(values)) > 1e-11 * np.abs(values))
    for i in np.flatnonzero(odd | (np.abs(values) < 1e-298)).tolist():
        texts[i] = _json_float(floats[i])
    return texts


class _Table(NamedTuple):
    """Rows of float cells (a 2-d array), written a CSV line or a JSON list
    item each: an object keyed by names, else a list. missing flags each
    column in which a NaN is no value, empty in CSV and null in JSON."""
    cells: np.ndarray
    names: tuple = None
    missing: tuple = (False,)

    def json(self, indent: str) -> str:
        """JSON text of a table of at least one row; indent as for _json."""
        inner, cell = indent + "  ", indent + "    "
        texts = _json_texts(self.cells.ravel())
        for i in np.flatnonzero(np.isnan(self.cells) & self.missing).tolist():
            texts[i] = "null"
        fields = ([encode_basestring_ascii(name) + ": %s" for name in self.names]
                  if self.names else ["%s"] * self.cells.shape[1])
        brackets = "{}" if self.names else "[]"
        row = brackets[0] + cell + ("," + cell).join(fields) + inner + brackets[1]
        rows = ("," + inner).join([row] * len(self.cells))
        return "[" + inner + rows % tuple(texts) + indent + "]"

    def csv_lines(self, header):
        """CSV lines under header, all cells in one %.12g pass."""
        yield header
        if not any(self.missing):
            template = [",".join(["%.12g"] * self.cells.shape[1])] * len(self.cells)
            values = self.cells.ravel()
        else:
            blank = np.isnan(self.cells) & self.missing
            # One template per blank pattern, keyed by bit j = column j blank.
            cols = range(blank.shape[1])
            codes = (blank @ (1 << np.arange(len(cols)))).tolist()
            texts = {c: ",".join(["" if c >> j & 1 else "%.12g" for j in cols])
                     for c in set(codes)}
            template = map(texts.__getitem__, codes)
            values = self.cells[~blank]
        yield "\n".join(template) % tuple(values.tolist())


def _json(obj, indent: str, memo: dict) -> str:
    """JSON text of obj with its floats at 12 significant digits.

    The bytes are those of json.dumps(obj, indent=2) after rounding every
    float through %.12g; a 1-d float ndarray is a list, a _Table its rows.
    Dict keys must be strings. indent is the newline and indentation that
    precede obj's closing bracket. A list, tuple or array that appears more
    than once at one depth, like the fragment grid shared by pip blocks, is
    formatted once: memo maps (id, indent) to its text for one call.
    """
    if isinstance(obj, float):
        return _json_float(obj)
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    inner = indent + "  "
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [encode_basestring_ascii(key) + ": " + _json(value, inner, memo)
                 for key, value in obj.items()]
        return "{" + inner + ("," + inner).join(items) + indent + "}"
    if isinstance(obj, _Table):
        return obj.json(indent)
    if isinstance(obj, (list, tuple, np.ndarray)):
        if not len(obj):
            return "[]"
        key = (id(obj), indent)
        if key not in memo:
            items = (_json_texts(obj) if isinstance(obj, np.ndarray) else
                     [_json_float(v) if type(v) is float else _json(v, inner, memo)
                      for v in obj])
            memo[key] = "[" + inner + ("," + inner).join(items) + indent + "]"
        return memo[key]
    raise TypeError(f"cannot write {type(obj).__name__} as JSON")


def _emit(args, payload, csv_lines) -> None:
    """Write one command's table to --out, or to stdout without one.

    The only reader of --format and --out: JSON prints payload, CSV prints
    csv_lines, which is iterated only for CSV output.
    """
    if args.format == "json":
        text = _json(payload, "\n", {}) + "\n"
    else:
        text = "\n".join(csv_lines) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _pip_lines(times, f_grid, mi):
    """pip's CSV blocks, one per time: the f texts are formatted once, into
    a row template that each block's values fill in one % pass."""
    rows = "\n".join(["%.12g,%%.12g"] * len(f_grid)) % tuple(f_grid.tolist())
    yield "\n\n".join("# t_over_tauD = %.12g\nf,mi_nats\n" % t + rows % tuple(row)
                      for t, row in zip(times, mi.tolist()))


def _report_lines(report: dict):
    """A flat quantity -> value report as two-column CSV lines."""
    yield "quantity,value"
    yield from (key + ("," if val is None else ",%.12g" % val)
                for key, val in report.items())


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text}")
    return value


# Report integrands have degree <= 4, so a disk's rule is exact from order
# 3 and higher orders add only rounding, while computing the Gauss-Legendre
# rule takes about the cube of the order; the one-node rule of order 1 is
# not a quadrature at all.
MAX_ORDER = 1024


def _quadrature_order(text: str) -> int:
    value = int(text)
    if not 2 <= value <= MAX_ORDER:
        raise argparse.ArgumentTypeError(
            f"expected a quadrature order in [2, {MAX_ORDER}], got {text}")
    return value


def _require_finite(flag: str, *values: float) -> None:
    for value in values:
        if not math.isfinite(value):
            raise CliError(f"{flag} must be finite, got {value}")


def _comma_floats(text: str) -> list[float]:
    try:
        return [float(part) for part in text.split(",") if part.strip() != ""]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad number list {text!r}") from exc


# ---------------------------------------------------------------------------
# rate / alpha: scenario-driven SI reports


@contextlib.contextmanager
def _region_errors(config):
    """A library error about the scenario's region, as a config error."""
    try:
        yield
    except (ValueError, ArithmeticError) as exc:
        raise ScenarioError(f"{config}: {exc}") from exc


def cmd_rate(args) -> int:
    scenario = parse_scenario(args.config)
    with _region_errors(args.config):
        result = decoherence_rate(scenario, order=args.order)
    report = {
        "tau_D_inv_per_s": result.tau_D_inv,
        "ratio_to_isotropic": result.ratio,
        "T_D_inv_per_s": result.T_D_inv,
        "photon_density_per_m3": photon_number_density(
            scenario.temperature_K, FULL_SPHERE
        ),
    }
    _emit(args, report, _report_lines(report))
    return EXIT_OK


def cmd_alpha(args) -> int:
    scenario = parse_scenario(args.config)
    region = scenario.region
    # A point has no quadrature, and no full-sky rate ratio: its rate
    # comes from an irradiance, when one is given.
    point = region.kind == "point"
    with _region_errors(args.config):
        closed = alpha_closed_form(region)
        moments = None if point else _region_moment_pair(region, args.order)
        quad = None if point else alpha_numeric(region, args.order, moments=moments)
        alpha = closed if closed is not None else quad

        tau_r_inv = tau_r_over_big = None
        if not point or scenario.irradiance_W_m2 is not None:
            result = decoherence_rate(scenario, args.order, moments=moments)
            tau_r_inv = redundancy_rate(alpha, result.tau_D_inv)
            if not point:
                tau_r_over_big = alpha * result.ratio
    report = {
        "alpha": alpha,
        "alpha_closed_form": closed,
        "alpha_quadrature": quad,
        "closed_quadrature_gap": (
            abs(closed - quad) if closed is not None and quad is not None else None
        ),
        "tau_R_inv_per_s": tau_r_inv,
        "tau_R_inv_over_T_D_inv": tau_r_over_big,
    }
    _emit(args, report, _report_lines(report))
    return EXIT_OK


# ---------------------------------------------------------------------------
# pip: partial information plot grids


def cmd_pip(args) -> int:
    times = args.times
    if not times:
        raise CliError("--times needs at least one value")
    if args.f_count < 2:
        raise CliError("--f-count must be at least 2")
    if not 0.0 < args.f_max <= 1.0:
        raise CliError("--f-max must be in (0, 1]")

    if args.alpha is not None:
        alpha = args.alpha
    elif args.config:
        region = parse_scenario(args.config).region
        with _region_errors(args.config):
            alpha = alpha_closed_form(region)
            if alpha is None:
                alpha = alpha_numeric(region, order=args.order)
    else:
        alpha = 1.0

    f_grid = np.linspace(0.0, args.f_max, args.f_count)
    mi = mutual_information_at_time(np.array(times)[:, None], alpha, f_grid)
    blocks = [{"t_over_tauD": t, "f": f_grid, "mi_nats": row}
              for t, row in zip(times, mi)]
    _emit(args, {"alpha": alpha, "blocks": blocks}, _pip_lines(times, f_grid, mi))
    return EXIT_OK


# ---------------------------------------------------------------------------
# redundancy: growth curves over time


def cmd_redundancy(args) -> int:
    if args.t_count < 2:
        raise CliError("--t-count must be at least 2")
    _require_finite("--t-start", args.t_start)
    _require_finite("--t-stop", args.t_stop)
    if args.t_start >= args.t_stop:
        raise CliError("--t-start must be below --t-stop")
    if args.spacing == "log" and args.t_start <= 0.0:
        raise CliError("log spacing needs a positive --t-start")
    space = np.geomspace if args.spacing == "log" else np.linspace
    times = space(args.t_start, args.t_stop, args.t_count)

    # The estimate first: it refuses delta >= 1/(2 ln 2) before any bisection.
    with warnings.catch_warnings():
        # The estimate's crossover warning is useful interactively but
        # noise inside a sweep that deliberately starts at t ~ 1.
        warnings.simplefilter("ignore")
        estimate = redundancy_estimate(times, args.alpha, args.delta)
    exact = redundancy_exact(None, args.alpha, args.delta, t_over_tauD=times)
    # The bound holds only after t = ln(2/delta); earlier rows print none.
    late = times > math.log(2.0 / args.delta)
    lower = np.full(times.shape, math.nan)
    lower[late] = redundancy_lower_bound(times[late], args.delta)
    table = _Table(np.column_stack((times, exact, estimate, lower)),
                   ("t_over_tauD", "R_exact", "R_estimate", "R_lower"),
                   (False, True, False, True))
    _emit(args, table, table.csv_lines(",".join(table.names)))
    return EXIT_OK


# ---------------------------------------------------------------------------
# oracle: the cross-check battery


def cmd_oracle(args) -> int:
    if args.seed < 0:
        raise CliError(f"--seed must be nonnegative, got {args.seed}")
    if (args.db is None) != (args.fn is None):
        raise CliError("--db and --fn must be given together")
    # The model's eigenvalues b = -|b-scale| need 1 + b >= 0; NaN fails too.
    if not abs(args.b_scale) <= 1.0:
        raise CliError(
            f"--b-scale must be finite and at most 1 in magnitude, "
            f"got {args.b_scale}"
        )
    report = oracle_battery(seed=args.seed)
    if args.db is not None:
        b = np.full(args.db, -abs(args.b_scale))
        try:
            exact = fragment_entropy_change_exact(b, args.fn, cap=args.cap)
        except OverflowError as exc:  # a multiplicity past int64
            raise OracleCapError(str(exc)) from exc
        report["model"] = {
            "D_B": args.db,
            "fN": args.fn,
            "b": -abs(args.b_scale),
            "entropy_change_exact": exact,
            "entropy_change_analytic": analytic_entropy_change(b, args.fn),
        }
    for check in report["checks"]:
        verdict = "ok  " if check["passed"] else "FAIL"
        print(f"{verdict} {check['name']}", file=sys.stderr)
    lines = itertools.chain(["check,passed"], (
        f"{c['name']},{int(c['passed'])}" for c in report["checks"]))
    if "model" in report:
        lines = itertools.chain(lines, [""], _report_lines(report["model"]))
    _emit(args, report, lines)
    return EXIT_OK if report["all_passed"] else EXIT_CHECK


# ---------------------------------------------------------------------------
# sweep: one quantity against one axis


def _over_disks(closed_form):
    """An evaluator mapping a disk closed form over (theta0, chi) in degrees."""
    return lambda p: np.array([
        closed_form(math.radians(theta0), math.radians(chi))
        for theta0, chi in np.broadcast(p["theta0"], p["chi"])])


# Each quantity's axes, fixed defaults and evaluator. An evaluator returns
# one value per element of an array parameter; the information quantities
# broadcast. Not-redundant points of "redundancy" are NaN.
_DISK_AXES = {"axes": ("theta0", "chi"), "fixed": {"theta0": 90.0, "chi": 0.0}}
_SWEEP_TABLE = {
    "alpha": {**_DISK_AXES, "evaluate": _over_disks(alpha_disk)},
    "rate_ratio": {**_DISK_AXES, "evaluate": _over_disks(disk_rate)},
    "mi": {"axes": ("t_over_tauD", "f"),
           "fixed": {"t_over_tauD": 10.0, "f": 0.2, "alpha": 1.0},
           "evaluate": lambda p: mutual_information_at_time(
               p["t_over_tauD"], p["alpha"], p["f"])},
    "mi_unbalanced": {"axes": ("t_over_tauD", "f", "mu"),
                      "fixed": {"t_over_tauD": 10.0, "f": 0.2, "mu": 0.5},
                      "evaluate": lambda p: mi_unbalanced(
                          _libm(math.exp, -_check_time(p["t_over_tauD"])),
                          p["f"], p["mu"])},
    "mi_mway": {"axes": ("t_over_tauD", "f", "M"),
                "fixed": {"t_over_tauD": 10.0, "f": 0.2, "M": 3.0},
                "evaluate": lambda p: mi_mway(
                    _libm(math.exp, -_check_time(p["t_over_tauD"])),
                    p["f"], p["M"])},
    "redundancy": {"axes": ("t_over_tauD", "delta"),
                   "fixed": {"t_over_tauD": 100.0, "delta": 0.01, "alpha": 1.0},
                   "evaluate": lambda p: redundancy_exact(
                       None, p["alpha"], p["delta"],
                       t_over_tauD=p["t_over_tauD"])},
}


def cmd_sweep(args) -> int:
    spec = _SWEEP_TABLE[args.quantity]
    if args.axis not in spec["axes"]:
        raise CliError(
            f"quantity {args.quantity!r} sweeps over {', '.join(spec['axes'])}; "
            f"got axis {args.axis!r}"
        )
    if args.count < 2:
        raise CliError("--count must be at least 2")
    fixed = dict(spec["fixed"])
    for assignment in args.fix or []:
        key, sep, raw = assignment.partition("=")
        if not sep:
            raise CliError(f"--fix expects key=value, got {assignment!r}")
        if key not in fixed:
            raise CliError(
                f"{key!r} is not a parameter of {args.quantity!r} "
                f"(have: {', '.join(sorted(fixed))})"
            )
        try:
            fixed[key] = float(raw)
        except ValueError as exc:
            raise CliError(f"--fix {assignment!r}: {exc}") from exc
    _require_finite("--start", args.start)
    _require_finite("--stop", args.stop)
    if args.spacing == "log" and (args.start <= 0.0 or args.stop <= 0.0):
        raise CliError("log spacing needs positive endpoints")
    space = np.geomspace if args.spacing == "log" else np.linspace
    values = space(args.start, args.stop, args.count)
    if args.axis == "M":
        values = np.array([float(max(2, int(round(v)))) for v in values])

    results = spec["evaluate"]({**fixed, args.axis: values})
    points = _Table(np.column_stack((values, results)),
                    missing=(False, args.quantity == "redundancy"))
    payload = {"quantity": args.quantity, "axis": args.axis, "fixed": fixed,
               "points": points}
    _emit(args, payload, points.csv_lines(f"{args.axis},{args.quantity}"))
    return EXIT_OK


# ---------------------------------------------------------------------------
# wiring


def _io_arguments(sub, default: str) -> None:
    sub.add_argument("--out", help="write output to this path instead of stdout")
    sub.add_argument("--format", choices=("csv", "json"), default=default,
                     help=f"output format (default {default})")


def _order_argument(sub) -> None:
    sub.add_argument("--order", type=_quadrature_order, default=64,
                     help=f"quadrature order, 2 to {MAX_ORDER} (default 64)")


# As in newer CPython's argparse, "-", optional ".", digit starts a negative
# number, so -1e-3 is a value; 3.11's takes only forms like -1 and -0.5.
# So do -inf, -infinity and -nan in any case, which float() reads.
_NEGATIVE_NUMBER = re.compile(r"-(\.?\d|inf|nan)", re.IGNORECASE)
# Usage and help wrap at 78 columns, as in an 80-column terminal, always.
_FORMATTER = functools.partial(argparse.HelpFormatter, width=78)


@functools.cache
def _build_parser():
    """(the argument parser, its {command: subparser} table), built once
    per process.

    Parsing leaves both unchanged, so main() reuses them across calls.
    """
    parser = argparse.ArgumentParser(
        prog="photon-darwinism",
        formatter_class=_FORMATTER,
        description="Decoherence, receptivity and information redundancy "
                    "for a sphere illuminated by a blackbody sky patch.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {}

    def command(name, func, help):
        commands[name] = subparser = sub.add_parser(
            name, help=help, formatter_class=_FORMATTER)
        subparser._negative_number_matcher = _NEGATIVE_NUMBER
        subparser.set_defaults(func=func)
        return subparser

    rate = command("rate", cmd_rate, "decoherence rates for a scenario")
    rate.add_argument("--config", required=True, help="scenario file")
    _order_argument(rate)
    _io_arguments(rate, "json")

    alpha = command("alpha", cmd_alpha, "receptivity for a scenario")
    alpha.add_argument("--config", required=True, help="scenario file")
    _order_argument(alpha)
    _io_arguments(alpha, "json")

    pip = command("pip", cmd_pip, "partial information plot data")
    pip.add_argument("--times", type=_comma_floats, required=True,
                     help="comma-separated t/tau_D values, one block each")
    pip.add_argument("--alpha", type=float,
                     help="receptivity (overrides --config)")
    pip.add_argument("--config", help="scenario file to take alpha from")
    pip.add_argument("--f-count", type=_positive_int, default=101,
                     help="fragment-fraction grid size (default 101)")
    pip.add_argument("--f-max", type=float, default=1.0)
    _order_argument(pip)
    _io_arguments(pip, "csv")

    red = command("redundancy", cmd_redundancy, "redundancy growth over time")
    red.add_argument("--alpha", type=float, default=1.0)
    red.add_argument("--delta", type=float, default=0.01,
                     help="information deficit (default 0.01)")
    red.add_argument("--t-start", type=float, default=1.0)
    red.add_argument("--t-stop", type=float, default=1000.0)
    red.add_argument("--t-count", type=_positive_int, default=61)
    red.add_argument("--spacing", choices=("linear", "log"), default="log")
    _io_arguments(red, "csv")

    oracle = command("oracle", cmd_oracle, "run the cross-check battery")
    oracle.add_argument("--seed", type=int, default=0,
                        help="seed for the random trials (recorded in output)")
    oracle.add_argument("--db", type=_positive_int,
                        help="also report one finite model: direction count")
    oracle.add_argument("--fn", type=_positive_int,
                        help="photon count of the reported model")
    oracle.add_argument("--b-scale", type=float, default=0.01,
                        help="uniform |b| of the reported model")
    oracle.add_argument("--cap", type=_positive_int, default=DEFAULT_CAP,
                        help="enumeration cap on D_B^fN")
    _io_arguments(oracle, "json")

    sweep = command("sweep", cmd_sweep, "tabulate one quantity along one axis")
    sweep.add_argument("--quantity", required=True,
                       choices=sorted(_SWEEP_TABLE))
    sweep.add_argument("--axis", required=True,
                       help="t_over_tauD, f, theta0, chi, delta, mu or M "
                            "(angles in degrees)")
    sweep.add_argument("--start", type=float, required=True)
    sweep.add_argument("--stop", type=float, required=True)
    sweep.add_argument("--count", type=_positive_int, required=True)
    sweep.add_argument("--spacing", choices=("linear", "log"),
                       default="linear")
    sweep.add_argument("--fix", action="append", metavar="KEY=VALUE",
                       help="override a fixed parameter (repeatable)")
    _io_arguments(sweep, "csv")

    return parser, commands


def _parse(argv):
    """The Namespace that the full parser makes of argv, parsed once.

    An argv that starts with a command goes to that command's parser
    alone, and its leftovers are refused by the top-level parser, as
    argparse's own two-stage parse does; any other argv goes through the
    full parser. Usage, error text and exit status are the full parser's.
    """
    parser, commands = _build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    if not argv or argv[0] not in commands:
        return parser.parse_args(argv)
    args, extras = commands[argv[0]].parse_known_args(
        argv[1:], argparse.Namespace(command=argv[0]))
    if extras:
        parser.error("unrecognized arguments: " + " ".join(extras))
    return args


def _show_warning(message, *_) -> None:
    print(f"warning: {message}", file=sys.stderr)


def main(argv=None) -> int:
    """Run one command line, argv or else sys.argv[1:]; returns the exit code.

    The argv is parsed once, by its command's own parser (see _parse).
    """
    args = _parse(argv)
    # A library warning that the filters let through is shown as one line.
    # The filters stay as they are, but catch_warnings resets which warnings
    # count as already shown, so each call prints its own.
    with warnings.catch_warnings():
        warnings.showwarning = _show_warning
        try:
            return args.func(args)
        except (ScenarioError, OSError) as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return EXIT_CONFIG
        except (CliError, InputError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_CONFIG
        except OracleCapError as exc:
            print(f"cap exceeded: {exc}", file=sys.stderr)
            return EXIT_CAP


if __name__ == "__main__":
    sys.exit(main())
