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
import functools
import json
import math
import sys
import warnings
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from .discrete_oracle import (
    DEFAULT_CAP,
    OracleCapError,
    analytic_entropy_change,
    fragment_entropy_change_exact,
    oracle_battery,
)
from .information import (
    MAX_DEFICIT,
    mutual_information_at_time,
    redundancy_estimate,
    redundancy_exact,
    redundancy_lower_bound,
)
from .radiometry import (
    ScenarioError,
    decoherence_rate,
    disk_rate,
    isotropic_rate,
    parse_scenario,
    photon_number_density,
    point_source_rate,
)
from .receptivity import alpha_disk, alpha_numeric
from .sky import FULL_SPHERE
from .superpositions import mi_mway, mi_unbalanced

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_CAP = 3
EXIT_CHECK = 4


class CliError(Exception):
    """User-facing input problem; maps to the configuration exit code."""


def _fmt(value) -> str:
    """One number, 12 significant digits, empty string for missing."""
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


def _write_text(text: str, out_path) -> None:
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_report(report: dict, fmt: str, out_path) -> None:
    """A flat quantity -> value report, as JSON object or two-column CSV."""
    if fmt == "json":
        _write_text(json.dumps(_round12(report), indent=2) + "\n", out_path)
    else:
        lines = ["quantity,value"]
        lines += [f"{key},{_fmt(val)}" for key, val in report.items()]
        _write_text("\n".join(lines) + "\n", out_path)


def _parallel_map(worker, items, jobs):
    if jobs and jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            # map() preserves input order no matter which worker finishes
            # first, which is what keeps the emitted grid deterministic.
            return list(pool.map(worker, items))
    return [worker(item) for item in items]


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text}")
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


def cmd_rate(args) -> int:
    scenario = parse_scenario(args.config)
    big_rate = isotropic_rate(scenario)
    if scenario.region.kind == "point":
        theta = math.acos(scenario.region.direction.cos_theta)
        try:
            tau_inv = point_source_rate(scenario, theta)
        except ValueError as exc:
            raise ScenarioError(f"{args.config}: {exc}") from exc
        ratio = tau_inv / big_rate
    else:
        result = decoherence_rate(scenario, order=args.order)
        tau_inv = result.tau_D_inv
        ratio = result.ratio
    report = {
        "tau_D_inv_per_s": tau_inv,
        "ratio_to_isotropic": ratio,
        "T_D_inv_per_s": big_rate,
        "photon_density_per_m3": photon_number_density(
            scenario.temperature_K, FULL_SPHERE
        ),
    }
    _emit_report(report, args.format or "json", args.out)
    return EXIT_OK


def cmd_alpha(args) -> int:
    scenario = parse_scenario(args.config)
    region = scenario.region
    closed = None
    quad = None
    if region.kind == "disk":
        closed = alpha_disk(region.theta0, region.chi)
        quad = alpha_numeric(region, order=args.order)
    elif region.kind == "point":
        closed = 1.0
    elif region.kind == "isotropic":
        closed = 0.0
        quad = alpha_numeric(region, order=args.order)
    else:
        quad = alpha_numeric(region, order=args.order)
    alpha = closed if closed is not None else quad

    tau_r_inv = None
    tau_r_over_big = None
    if region.kind == "point":
        if scenario.irradiance_W_m2 is not None:
            theta = math.acos(region.direction.cos_theta)
            tau_r_inv = alpha * point_source_rate(scenario, theta)
    else:
        result = decoherence_rate(scenario, order=args.order)
        tau_r_inv = alpha * result.tau_D_inv
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
    _emit_report(report, args.format or "json", args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# pip: partial information plot grids


def _pip_point(item) -> float:
    t_over_tauD, alpha, f = item
    return mutual_information_at_time(t_over_tauD, alpha, f)


def cmd_pip(args) -> int:
    times = args.times
    if not times:
        raise CliError("--times needs at least one value")
    _require_finite("--times", *times)
    if any(t < 0.0 for t in times):
        raise CliError("times must be nonnegative")
    if args.f_count < 2:
        raise CliError("--f-count must be at least 2")
    if not 0.0 < args.f_max <= 1.0:
        raise CliError("--f-max must be in (0, 1]")

    if args.alpha is not None:
        alpha = args.alpha
    elif args.config:
        scenario = parse_scenario(args.config)
        region = scenario.region
        if region.kind == "disk":
            alpha = alpha_disk(region.theta0, region.chi)
        elif region.kind == "point":
            alpha = 1.0
        else:
            alpha = alpha_numeric(region, order=args.order)
    else:
        alpha = 1.0
    if not 0.0 <= alpha <= 1.0:
        raise CliError(f"alpha must be in [0, 1], got {alpha}")

    f_grid = np.linspace(0.0, args.f_max, args.f_count)
    items = [(t, alpha, float(f)) for t in times for f in f_grid]
    mi = _parallel_map(_pip_point, items, args.jobs)

    if (args.format or "csv") == "json":
        blocks = []
        for i, t in enumerate(times):
            chunk = mi[i * len(f_grid):(i + 1) * len(f_grid)]
            blocks.append({
                "t_over_tauD": t,
                "f": list(f_grid),
                "mi_nats": list(chunk),
            })
        payload = {"alpha": alpha, "blocks": blocks}
        _write_text(json.dumps(_round12(payload), indent=2) + "\n", args.out)
    else:
        lines = []
        for i, t in enumerate(times):
            if i:
                lines.append("")
            lines.append(f"# t_over_tauD = {_fmt(t)}")
            lines.append("f,mi_nats")
            chunk = mi[i * len(f_grid):(i + 1) * len(f_grid)]
            lines += [f"{_fmt(f)},{_fmt(v)}" for f, v in zip(f_grid, chunk)]
        _write_text("\n".join(lines) + "\n", args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# redundancy: growth curves over time


def _redundancy_row(item):
    t_over_tauD, alpha, delta = item
    exact = redundancy_exact(None, alpha, delta, t_over_tauD=t_over_tauD)
    with warnings.catch_warnings():
        # The estimate's crossover warning is useful interactively but
        # noise inside a sweep that deliberately starts at t ~ 1.
        warnings.simplefilter("ignore")
        estimate = redundancy_estimate(t_over_tauD, alpha, delta)
    lower = None
    if t_over_tauD > math.log(2.0 / delta):
        lower = redundancy_lower_bound(t_over_tauD, delta)
    return exact, estimate, lower


def cmd_redundancy(args) -> int:
    if not 0.0 < args.delta < MAX_DEFICIT:
        raise CliError(
            f"--delta must be in (0, {MAX_DEFICIT:.6g}), got {args.delta}"
        )
    if not 0.0 < args.alpha <= 1.0:
        raise CliError(f"--alpha must be in (0, 1], got {args.alpha}")
    if args.t_count < 2:
        raise CliError("--t-count must be at least 2")
    _require_finite("--t-start", args.t_start)
    _require_finite("--t-stop", args.t_stop)
    if args.t_start >= args.t_stop:
        raise CliError("--t-start must be below --t-stop")
    if args.spacing == "log":
        if args.t_start <= 0.0:
            raise CliError("log spacing needs a positive --t-start")
        times = np.geomspace(args.t_start, args.t_stop, args.t_count)
    else:
        times = np.linspace(args.t_start, args.t_stop, args.t_count)

    items = [(float(t), args.alpha, args.delta) for t in times]
    rows = _parallel_map(_redundancy_row, items, args.jobs)

    if (args.format or "csv") == "json":
        payload = [
            {"t_over_tauD": t, "R_exact": ex, "R_estimate": est, "R_lower": low}
            for (t, _, _), (ex, est, low) in zip(items, rows)
        ]
        _write_text(json.dumps(_round12(payload), indent=2) + "\n", args.out)
    else:
        lines = ["t_over_tauD,R_exact,R_estimate,R_lower"]
        for (t, _, _), (ex, est, low) in zip(items, rows):
            lines.append(f"{_fmt(t)},{_fmt(ex)},{_fmt(est)},{_fmt(low)}")
        _write_text("\n".join(lines) + "\n", args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# oracle: the cross-check battery


def cmd_oracle(args) -> int:
    report = oracle_battery(seed=args.seed)
    if (args.db is None) != (args.fn is None):
        raise CliError("--db and --fn must be given together")
    if args.db is not None:
        b = np.full(args.db, -abs(args.b_scale))
        report["model"] = {
            "D_B": args.db,
            "fN": args.fn,
            "b": -abs(args.b_scale),
            "entropy_change_exact": fragment_entropy_change_exact(
                b, args.fn, cap=args.cap
            ),
            "entropy_change_analytic": analytic_entropy_change(b, args.fn),
        }
    for check in report["checks"]:
        verdict = "ok  " if check["passed"] else "FAIL"
        print(f"{verdict} {check['name']}", file=sys.stderr)
    if (args.format or "json") == "json":
        _write_text(json.dumps(_round12(report), indent=2) + "\n", args.out)
    else:
        lines = ["check,passed"]
        lines += [f"{c['name']},{int(c['passed'])}" for c in report["checks"]]
        _write_text("\n".join(lines) + "\n", args.out)
    return EXIT_OK if report["all_passed"] else EXIT_CHECK


# ---------------------------------------------------------------------------
# sweep: one quantity against one axis

_SWEEP_TABLE = {
    "alpha": {
        "axes": ("theta0", "chi"),
        "fixed": {"theta0": 90.0, "chi": 0.0},
    },
    "rate_ratio": {
        "axes": ("theta0", "chi"),
        "fixed": {"theta0": 90.0, "chi": 0.0},
    },
    "mi": {
        "axes": ("t_over_tauD", "f"),
        "fixed": {"t_over_tauD": 10.0, "f": 0.2, "alpha": 1.0},
    },
    "mi_unbalanced": {
        "axes": ("t_over_tauD", "f", "mu"),
        "fixed": {"t_over_tauD": 10.0, "f": 0.2, "mu": 0.5},
    },
    "mi_mway": {
        "axes": ("t_over_tauD", "f", "M"),
        "fixed": {"t_over_tauD": 10.0, "f": 0.2, "M": 3.0},
    },
    "redundancy": {
        "axes": ("t_over_tauD", "delta"),
        "fixed": {"t_over_tauD": 100.0, "delta": 0.01, "alpha": 1.0},
    },
}


def _sweep_point(item):
    quantity, params = item
    if quantity == "alpha":
        return alpha_disk(math.radians(params["theta0"]),
                          math.radians(params["chi"]))
    if quantity == "rate_ratio":
        return disk_rate(math.radians(params["theta0"]),
                         math.radians(params["chi"]))
    if quantity == "mi":
        return mutual_information_at_time(
            params["t_over_tauD"], params["alpha"], params["f"]
        )
    if quantity == "mi_unbalanced":
        return mi_unbalanced(
            math.exp(-params["t_over_tauD"]), params["f"], params["mu"]
        )
    if quantity == "mi_mway":
        return mi_mway(
            math.exp(-params["t_over_tauD"]), params["f"],
            int(round(params["M"]))
        )
    if quantity == "redundancy":
        return redundancy_exact(
            None, params["alpha"], params["delta"],
            t_over_tauD=params["t_over_tauD"],
        )
    raise ValueError(f"unknown sweep quantity {quantity!r}")


def cmd_sweep(args) -> int:
    spec = _SWEEP_TABLE.get(args.quantity)
    if spec is None:
        raise CliError(f"unknown quantity {args.quantity!r}")
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
        _require_finite(f"--fix {key}", fixed[key])
    _require_finite("--start", args.start)
    _require_finite("--stop", args.stop)
    if args.spacing == "log":
        if args.start <= 0.0 or args.stop <= 0.0:
            raise CliError("log spacing needs positive endpoints")
        values = np.geomspace(args.start, args.stop, args.count)
    else:
        values = np.linspace(args.start, args.stop, args.count)
    if args.axis == "M":
        values = np.array([float(max(2, int(round(v)))) for v in values])

    items = []
    for value in values:
        params = dict(fixed)
        params[args.axis] = float(value)
        items.append((args.quantity, params))
    results = _parallel_map(_sweep_point, items, args.jobs)

    if (args.format or "csv") == "json":
        payload = {
            "quantity": args.quantity,
            "axis": args.axis,
            "fixed": fixed,
            "points": [[float(x), y] for x, y in zip(values, results)],
        }
        _write_text(json.dumps(_round12(payload), indent=2) + "\n", args.out)
    else:
        lines = [f"{args.axis},{args.quantity}"]
        lines += [f"{_fmt(float(x))},{_fmt(y)}"
                  for x, y in zip(values, results)]
        _write_text("\n".join(lines) + "\n", args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# wiring


def _io_arguments(sub) -> None:
    sub.add_argument("--out", help="write output to this path instead of stdout")
    sub.add_argument("--format", choices=("csv", "json"),
                     help="output format (default depends on the command)")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process.

    Parsing leaves the parser unchanged, so main() reuses it across calls.
    """
    parser = argparse.ArgumentParser(
        prog="photon-darwinism",
        description="Decoherence, receptivity and information redundancy "
                    "for a sphere illuminated by a blackbody sky patch.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    rate = sub.add_parser("rate", help="decoherence rates for a scenario")
    rate.add_argument("--config", required=True, help="scenario file")
    rate.add_argument("--order", type=_positive_int, default=64,
                      help="quadrature order (default 64)")
    _io_arguments(rate)
    rate.set_defaults(func=cmd_rate)

    alpha = sub.add_parser("alpha", help="receptivity for a scenario")
    alpha.add_argument("--config", required=True, help="scenario file")
    alpha.add_argument("--order", type=_positive_int, default=64)
    _io_arguments(alpha)
    alpha.set_defaults(func=cmd_alpha)

    pip = sub.add_parser("pip", help="partial information plot data")
    pip.add_argument("--times", type=_comma_floats, required=True,
                     help="comma-separated t/tau_D values, one block each")
    pip.add_argument("--alpha", type=float,
                     help="receptivity (overrides --config)")
    pip.add_argument("--config", help="scenario file to take alpha from")
    pip.add_argument("--f-count", type=_positive_int, default=101,
                     help="fragment-fraction grid size (default 101)")
    pip.add_argument("--f-max", type=float, default=1.0)
    pip.add_argument("--order", type=_positive_int, default=64)
    pip.add_argument("--jobs", type=_positive_int, default=1,
                     help="parallel worker processes")
    _io_arguments(pip)
    pip.set_defaults(func=cmd_pip)

    red = sub.add_parser("redundancy", help="redundancy growth over time")
    red.add_argument("--alpha", type=float, default=1.0)
    red.add_argument("--delta", type=float, default=0.01,
                     help="information deficit (default 0.01)")
    red.add_argument("--t-start", type=float, default=1.0)
    red.add_argument("--t-stop", type=float, default=1000.0)
    red.add_argument("--t-count", type=_positive_int, default=61)
    red.add_argument("--spacing", choices=("linear", "log"), default="log")
    red.add_argument("--jobs", type=_positive_int, default=1)
    _io_arguments(red)
    red.set_defaults(func=cmd_redundancy)

    oracle = sub.add_parser("oracle", help="run the cross-check battery")
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
    _io_arguments(oracle)
    oracle.set_defaults(func=cmd_oracle)

    sweep = sub.add_parser("sweep", help="tabulate one quantity along one axis")
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
    sweep.add_argument("--jobs", type=_positive_int, default=1)
    _io_arguments(sweep)
    sweep.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ScenarioError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OracleCapError as exc:
        print(f"cap exceeded: {exc}", file=sys.stderr)
        return EXIT_CAP


if __name__ == "__main__":
    sys.exit(main())
