"""Seeded workloads: the CLI calls each workload makes and how each is checked.

A workload is a list of calls, each an argv for ``photon_darwinism.cli.main``
plus a check that compares the call's output with references from
``reference``. Inputs depend only on the seed. Parameters are drawn by
stratified sampling (one draw per equal-probability stratum, in seeded
order), so every seed covers the same ranges in the same proportions and
a run's mix of cheap and expensive calls does not drift with the seed.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import reference as ref
from reference import Verdict

WORKLOADS = ("info_tables", "sky_scenarios", "oracle_crosscheck")

# Why each workload exists; BENCHMARK.json carries the same lines.
WHY = {
    "info_tables": "entropy_kernels and information do the work: pip, "
                   "redundancy and sweep tables with alpha given, over the "
                   "accuracy-contract domain",
    "sky_scenarios": "sky, receptivity and radiometry do the work: rate, "
                     "alpha, pip --config and angle sweeps on seeded disks, "
                     "points, isotropic skies and indicator-grid files",
    "oracle_crosscheck": "discrete_oracle does the work: seeded cross-check "
                         "batteries and finite models; 2048x2048 probability "
                         "matrices set peak memory",
}


@dataclass
class Call:
    argv: list
    check: Callable[[str], Verdict]
    label: str


@dataclass
class Workload:
    name: str
    warmup: list
    # The pool of distinct calls; the timed phase cycles through it.
    calls: list
    trace_calls: int
    files: list = field(default_factory=list)


def _g(x, digits=6):
    """Short decimal spelling of a drawn value; the CLI parses the same text."""
    return "%.*g" % (digits, x)


def _fmt12(x):
    return float("%.12g" % x)


def _check_axis(v: Verdict, got, expected):
    v.require("grid values", len(got) == len(expected) and all(
        g == _fmt12(e) for g, e in zip(got, expected)))


# ---------------------------------------------------------------------------
# info_tables


def _pip_call(times, alpha, f_count, f_max, fmt):
    argv = ["pip", "--times", ",".join(times), "--alpha", alpha,
            "--f-count", str(f_count), "--f-max", f_max, "--format", fmt]

    def check(out):
        v = Verdict()
        blocks, _ = ref.parse_pip(out, fmt)
        f_grid = np.linspace(0.0, float(f_max), f_count)
        v.require("one block per time", len(blocks) == len(times))
        for t_text, (t_got, f_got, mi_got) in zip(times, blocks):
            t = float(t_text)
            v.require("block time", t_got == _fmt12(t))
            _check_axis(v, f_got, f_grid)
            for f, got in zip(f_grid, mi_got):
                value, budget = ref.mi_at_time(t_text, alpha, float(f))
                v.value(f"I(t={t_text}, f={f!r})", got, value, budget=budget)
        return v

    return Call(argv, check, "pip")


def _redundancy_call(alpha, delta, t_start, t_stop, t_count, fmt):
    argv = ["redundancy", "--alpha", alpha, "--delta", delta,
            "--t-start", t_start, "--t-stop", t_stop,
            "--t-count", str(t_count), "--spacing", "log", "--format", fmt]

    def check(out):
        v = Verdict()
        rows = ref.parse_redundancy(out, fmt)
        times = np.geomspace(float(t_start), float(t_stop), t_count)
        _check_axis(v, [r[0] for r in rows], times)
        for t, (_, exact, est, low) in zip(times, rows):
            t = float(t)
            ref.check_redundancy_exact(v, f"R_exact(t={t!r})", exact, t,
                                       alpha, delta)
            r_est = ref.redundancy_estimate(t, alpha, delta)
            v.value("R_estimate", est, r_est, budget=16 * ref.EPS * float(r_est))
            _check_lower(v, low, t, delta)
        return v

    return Call(argv, check, "redundancy")


def _check_lower(v, got, t, delta_text):
    r_low = ref.redundancy_lower(t, delta_text)
    delta = float(delta_text)
    if abs(t - math.log(2.0 / delta)) <= 1e-12 * t:
        return  # on the validity edge either verdict is right
    if r_low is None:
        v.points += 1
        v.require("R_lower absent before ln(2/delta)", got is None)
        return
    gap = delta - math.exp(-t)
    cond = 4.0 * (delta + math.exp(-t)) / (gap * abs(math.log(gap)))
    v.value("R_lower", got, r_low, budget=(16.0 + cond) * ref.EPS * float(r_low))


_SWEEP_FIXED = {
    "mi": {"t_over_tauD": 10.0, "f": 0.2, "alpha": 1.0},
    "mi_unbalanced": {"t_over_tauD": 10.0, "f": 0.2, "mu": 0.5},
    "mi_mway": {"t_over_tauD": 10.0, "f": 0.2, "M": 3.0},
    "redundancy": {"t_over_tauD": 100.0, "delta": 0.01, "alpha": 1.0},
    "alpha": {"theta0": 90.0, "chi": 0.0},
    "rate_ratio": {"theta0": 90.0, "chi": 0.0},
}


def _sweep_call(quantity, axis, start, stop, count, spacing, fix, fmt):
    argv = ["sweep", "--quantity", quantity, "--axis", axis,
            "--start", start, "--stop", stop, "--count", str(count),
            "--spacing", spacing, "--format", fmt]
    for key, val in fix.items():
        argv += ["--fix", f"{key}={val}"]

    def check(out):
        v = Verdict()
        points = ref.parse_sweep(out, fmt)
        space = np.geomspace if spacing == "log" else np.linspace
        xs = space(float(start), float(stop), count)
        if axis == "M":
            xs = np.array([float(max(2, int(round(x)))) for x in xs])
        _check_axis(v, [p[0] for p in points], xs)
        params = dict(_SWEEP_FIXED[quantity])
        params.update(fix)
        for x, (_, got) in zip(xs, points):
            params[axis] = float(x)
            _check_sweep_point(v, quantity, params, got)
        return v

    return Call(argv, check, "sweep_" + quantity)


def _check_sweep_point(v, quantity, p, got):
    label = f"{quantity}({p})"
    if quantity == "redundancy":
        ref.check_redundancy_exact(v, label, got, p["t_over_tauD"],
                                   p["alpha"], p["delta"])
        return
    if quantity == "mi":
        value, budget = ref.mi_at_time(p["t_over_tauD"], p["alpha"], p["f"])
    elif quantity == "mi_unbalanced":
        value, budget = ref.mi_unbalanced(p["t_over_tauD"], p["f"], p["mu"])
    elif quantity == "mi_mway":
        value, budget = ref.mi_mway(p["t_over_tauD"], p["f"],
                                    int(round(float(p["M"]))))
    elif quantity == "alpha":
        value = ref.alpha_disk(ref.radians(p["theta0"]), ref.radians(p["chi"]))
        budget = 128 * ref.EPS
    else:
        value = ref.disk_rate(ref.radians(p["theta0"]), ref.radians(p["chi"]))
        budget = 16 * ref.EPS
    v.value(label, got, value, budget=budget)


# Share of its stratum over which a seeded value may move: wide enough
# that no two seeds share an input, narrow enough that every seed's pool
# costs about the same to run.
JITTER = 0.25


def _draw(rng, design, n, lo, hi, log=True):
    """n values over [lo, hi], one per equal stratum (log scale if log).

    The fixed design generator decides which call gets which stratum, so
    every seed pairs sizes and parameters alike; the seeded rng moves each
    value by up to JITTER/2 of a stratum about the stratum's centre.
    """
    pos = (design.permutation(n) + 0.5 + JITTER * (rng.random(n) - 0.5)) / n
    return lo * (hi / lo) ** pos if log else lo + (hi - lo) * pos


def _sizes(design, n, lo, hi):
    """n integer sizes on a fixed log ladder from lo to hi, in design order."""
    ladder = lo * (hi / lo) ** ((np.arange(n) + 0.5) / n)
    return design.permutation(np.round(ladder).astype(int))


def build_info_tables(seed, tmpdir):
    """A pool of 32 distinct table calls.

    Ten pip tables, ten redundancy tables and twelve sweeps (three each
    of mi, mi_unbalanced, mi_mway and redundancy). Table sizes and the
    pairing of parameter strata are fixed; the seed places every value
    inside its stratum. So each seed costs about the same, but no two
    seeds share an input. Checking a table at 60 digits costs tens of
    times more than producing it, so each distinct call is checked once
    and each repeat must reproduce its bytes exactly.
    """
    rng = np.random.default_rng([seed, 1])
    design = np.random.default_rng(0)
    calls = []

    n_pip = 10
    n_times = np.array([1, 2, 3, 4, 1, 2, 3, 4, 2, 3])
    t_all = iter(_draw(rng, design, int(n_times.sum()), 1e-3, 1e4))
    alphas = _draw(rng, design, n_pip, 1e-8, 1.0)
    f_counts = _sizes(design, n_pip, 101, 1001)
    tiny = design.permutation(n_pip) < 3
    fmts = np.where(design.permutation(n_pip) < 3, "json", "csv")
    f_tiny = _draw(rng, design, n_pip, 1e-6, 1e-2)
    for i in range(n_pip):
        times = [_g(next(t_all)) for _ in range(n_times[i])]
        f_max = _g(f_tiny[i]) if tiny[i] else "1"
        calls.append(_pip_call(times, _g(alphas[i]), int(f_counts[i]), f_max,
                               str(fmts[i])))

    n_red = 10
    alphas = _draw(rng, design, n_red, 1e-8, 1.0)
    deltas = _draw(rng, design, n_red, 1e-15, 0.3)
    starts = _draw(rng, design, n_red, 1e-3, 1.0)
    stops = _draw(rng, design, n_red, 1e2, 1e5)
    t_counts = _sizes(design, n_red, 50, 400)
    fmts = np.where(design.permutation(n_red) < 3, "json", "csv")
    for i in range(n_red):
        calls.append(_redundancy_call(
            _g(alphas[i]), _g(deltas[i]), _g(starts[i]), _g(stops[i]),
            int(t_counts[i]), str(fmts[i])))

    sweeps = [("mi", "f"), ("mi", "t_over_tauD"), ("mi", "f"),
              ("mi_unbalanced", "f"), ("mi_unbalanced", "t_over_tauD"),
              ("mi_unbalanced", "mu"), ("mi_mway", "f"),
              ("mi_mway", "t_over_tauD"), ("mi_mway", "M"),
              ("redundancy", "t_over_tauD"), ("redundancy", "delta"),
              ("redundancy", "t_over_tauD")]
    n = len(sweeps)
    draws = {
        "count": _sizes(design, n, 50, 200),
        "alpha": _draw(rng, design, n, 1e-8, 1.0),
        "t": _draw(rng, design, n, 1e-3, 1e4),
        "t_red": _draw(rng, design, n, 1.0, 1e5),
        "f": _draw(rng, design, n, 0.0, 1.0, log=False),
        "mu": _draw(rng, design, n, 0.0, 1.0, log=False),
        "delta": _draw(rng, design, n, 1e-15, 0.3),
        "lo": _draw(rng, design, n, 0.0, 1.0, log=False),
        "hi": _draw(rng, design, n, 0.0, 1.0, log=False),
    }
    fmts = np.where(design.permutation(n) < 3, "json", "csv")
    for i, (quantity, axis) in enumerate(sweeps):
        calls.append(_info_sweep(quantity, axis, {k: v[i] for k, v in draws.items()},
                                 str(fmts[i])))
    order = rng.permutation(len(calls))
    calls = [calls[i] for i in order]
    warmup = ["pip", "--times", "1", "--alpha", "0.5", "--f-count", "11"]
    return Workload("info_tables", warmup, calls, trace_calls=len(calls))


def _info_sweep(quantity, axis, d, fmt):
    """One sweep over the contract domain; redundancy times run out to 1e5."""
    t_lo, t_hi = (0, 5) if quantity == "redundancy" else (-3, 4)
    fix = {}
    if quantity in ("mi", "redundancy"):
        fix["alpha"] = _g(d["alpha"])
    if axis != "t_over_tauD":
        fix["t_over_tauD"] = _g(d["t_red"] if quantity == "redundancy" else d["t"])
    if quantity != "redundancy" and axis != "f":
        fix["f"] = _g(d["f"])
    if quantity == "mi_unbalanced" and axis != "mu":
        fix["mu"] = _g(d["mu"])
    if quantity == "mi_mway" and axis != "M":
        fix["M"] = str(2 + int(7 * d["mu"]))
    if quantity == "redundancy" and axis != "delta":
        fix["delta"] = _g(d["delta"])
    if axis in ("f", "mu"):
        start, stop, spacing = "0", "1", "linear"
    elif axis == "M":
        start, stop, spacing = "2", str(8 + int(9 * d["hi"])), "linear"
    elif axis == "delta":
        start, stop, spacing = "1e-15", "0.3", "log"
    else:
        start = _g(10 ** (t_lo + 2 * d["lo"]))
        stop = _g(10 ** (t_hi - 2 * d["hi"]))
        spacing = "log"
    return _sweep_call(quantity, axis, start, stop, int(d["count"]), spacing,
                       fix, fmt)


# ---------------------------------------------------------------------------
# sky_scenarios

# Disk orders of one block's four alpha and four rate reports, swapped
# every other block, so over two blocks each report kind gets the same
# orders, weighted to the CLI default of 64.
_DISK_ORDERS = ((16, 64, 64, 128), (32, 64, 64, 64))
_GRID_ROWS = (50, 100, 150, 200)
_PIP_SIZES = (6, 11, 16, 21)
_SWEEP_SIZES = (11, 21, 31, 41, 51)


def _quad_rel(order):
    """Rounding bound of a product rule with order x 2*order nodes."""
    return 2.0 * order * order * ref.EPS


class _Sky:
    """Scenario-file writer and the checks of the reports they produce."""

    def __init__(self, rng, tmpdir):
        self.rng = rng
        self.tmpdir = tmpdir
        self.files = []
        self.n = 0
        self._prefix = {}

    def scenario(self, region, point=False):
        rng = self.rng
        scn = {
            "radius_m": _g(10 ** rng.uniform(-8, -6)),
            "permittivity": _g(rng.uniform(1.5, 12.0)),
            "dx_m": _g(10 ** rng.uniform(-9, -6)),
            "temperature_K": _g(10 ** rng.uniform(math.log10(2.725), 2.3)),
            "region": region,
        }
        if point:
            scn["irradiance_W_m2"] = _g(10 ** rng.uniform(-6, 3))
        path = self._path("scn")
        with open(path, "w") as fh:
            fh.writelines(f"{k} = {val}\n" for k, val in scn.items())
        return path, scn

    def _path(self, ext):
        self.n += 1
        path = os.path.join(self.tmpdir, f"{self.n:05d}.{ext}")
        self.files.append(path)
        return path

    def grid(self, rows):
        """A random indicator grid (cap about a random axis plus a wedge)."""
        rng = self.rng
        cols = 2 * rows
        u = -1.0 + (np.arange(rows) + 0.5) * (2.0 / rows)
        phi = (np.arange(cols) + 0.5) * (2.0 * math.pi / cols)
        uu, pp = np.meshgrid(u, phi, indexing="ij")
        s = np.sqrt(1.0 - uu ** 2)
        while True:
            axis_u = rng.uniform(-1.0, 1.0)
            axis_phi = rng.uniform(0.0, 2.0 * math.pi)
            axis_s = math.sqrt(1.0 - axis_u ** 2)
            dot = s * axis_s * np.cos(pp - axis_phi) + uu * axis_u
            cap = dot >= math.cos(rng.uniform(0.2, 2.5))
            lo = rng.uniform(0.0, 2.0 * math.pi)
            wedge = ((pp - lo) % (2.0 * math.pi) < rng.uniform(0.1, 1.0)) \
                & (uu > rng.uniform(-1.0, 0.5))
            mask = cap | wedge
            if 0.05 < mask.mean() < 0.95:
                break
        if rows not in self._prefix:
            self._prefix[rows] = [f"{a!r} {b!r} " for a, b in
                                  zip(uu.ravel().tolist(), pp.ravel().tolist())]
        flags = np.where(mask.ravel(), "1\n", "0\n").tolist()
        path = self._path("grid")
        with open(path, "w") as fh:
            fh.write(f"# {rows} {cols}\n")
            fh.write("".join(p + c for p, c in zip(self._prefix[rows], flags)))
        return path, (u, phi, mask)

    # -- expected reports --------------------------------------------------

    @staticmethod
    def region_rate(kind, geo, order):
        """(ratio, relative tolerance, input-rounding budget) of the region's rate."""
        if kind == "disk":
            ratio, moved = geo.rate()
            return ratio, _quad_rel(order), moved
        if kind == "isotropic":
            return ref.mp.mpf(1), _quad_rel(order), 0.0
        u, phi, mask = geo
        return (ref.mp.mpf(ref.grid_rate_ratio(u, phi, mask)),
                4.0 * mask.size * ref.EPS, 0.0)

    def rate_call(self, kind, geo, path, scn, order):
        argv = ["rate", "--config", path, "--order", str(order)]

        def check(out):
            v = Verdict()
            rep = json.loads(out)
            big = ref.isotropic_rate(scn)
            if kind == "point":
                tau = ref.point_rate(scn, geo)
                ratio, rel, moved = tau / big, 0.0, 0.0
            else:
                ratio, rel, moved = self.region_rate(kind, geo, order)
                tau = ratio * big
            v.value("T_D_inv_per_s", rep["T_D_inv_per_s"], big,
                    budget=64 * ref.EPS * float(big))
            v.value("photon_density_per_m3", rep["photon_density_per_m3"],
                    ref.photon_density(scn["temperature_K"]),
                    budget=64 * ref.EPS * rep["photon_density_per_m3"])
            budget = 64 * ref.EPS + moved / float(ratio)
            v.value("ratio_to_isotropic", rep["ratio_to_isotropic"], ratio,
                    tol=rel * float(ratio), budget=budget * float(ratio))
            v.value("tau_D_inv_per_s", rep["tau_D_inv_per_s"], tau,
                    tol=rel * float(tau), budget=budget * float(tau))
            v.points = 1
            return v

        return Call(argv, check, f"rate_{kind}")

    def alpha_call(self, kind, geo, path, scn, order):
        argv = ["alpha", "--config", path, "--order", str(order)]

        def check(out):
            v = Verdict()
            rep = json.loads(out)
            big = ref.isotropic_rate(scn)
            closed = quad = None
            quad_tol = moved = 0.0
            if kind == "disk":
                closed, moved = geo.alpha()
                quad = closed
                quad_tol = 4.0 * _quad_rel(order)
            elif kind == "point":
                closed = 1
            elif kind == "isotropic":
                closed = quad = 0
            else:
                quad = ref.grid_alpha(*geo)
                quad_tol = 16.0 * geo[2].size * ref.EPS
            alpha = closed if closed is not None else quad
            tol = 0.0 if closed is not None else quad_tol
            budget = 128 * ref.EPS + moved
            v.value("alpha", rep["alpha"], alpha, tol=tol, budget=budget)
            _maybe(v, "alpha_closed_form", rep["alpha_closed_form"], closed,
                   budget=budget)
            _maybe(v, "alpha_quadrature", rep["alpha_quadrature"], quad,
                   tol=quad_tol, budget=budget)
            if closed is not None and quad is not None:
                v.require("closed_quadrature_gap within the quadrature bound",
                          rep["closed_quadrature_gap"] is not None
                          and rep["closed_quadrature_gap"] <= quad_tol
                          + 128 * ref.EPS + ref.ulp12(quad_tol))
            else:
                v.require("no closed_quadrature_gap",
                          rep["closed_quadrature_gap"] is None)
            if kind == "point":
                tau_r = ref.point_rate(scn, geo)
                _maybe(v, "tau_R_inv_per_s", rep["tau_R_inv_per_s"], tau_r,
                       budget=64 * ref.EPS * float(tau_r))
                v.require("no tau_R_inv_over_T_D_inv",
                          rep["tau_R_inv_over_T_D_inv"] is None)
            else:
                ratio, rel, moved_rate = self.region_rate(kind, geo, order)
                a = max(float(alpha), 1e-300)
                rel += quad_tol / a
                rel_budget = 128 * ref.EPS + moved / a + moved_rate / float(ratio)
                for key, want in (("tau_R_inv_per_s", alpha * ratio * big),
                                  ("tau_R_inv_over_T_D_inv", alpha * ratio)):
                    _maybe(v, key, rep[key], want, tol=rel * float(want),
                           budget=rel_budget * float(want))
            v.points = 1
            return v

        return Call(argv, check, f"alpha_{kind}")

    def pip_call(self, kind, geo, path, times, f_count):
        argv = ["pip", "--config", path, "--times", ",".join(times),
                "--f-count", str(f_count), "--format", "json"]

        def check(out):
            v = Verdict()
            blocks, alpha_got = ref.parse_pip(out, "json")
            alpha, moved = geo.alpha() if kind == "disk" else (ref.mp.mpf(1), 0.0)
            # alpha_disk's rounding, and the angles', move the argument of
            # h(Gamma^(alpha f)); the MI budgets allow for it.
            alpha_err = 128 * ref.EPS + moved
            v.value("alpha", alpha_got, alpha, budget=alpha_err)
            f_grid = np.linspace(0.0, 1.0, f_count)
            v.require("one block per time", len(blocks) == len(times))
            for t_text, (t_got, f_got, mi_got) in zip(times, blocks):
                t = float(t_text)
                v.require("block time", t_got == _fmt12(t))
                _check_axis(v, f_got, f_grid)
                for f, got in zip(f_grid, mi_got):
                    value, budget = ref.mi_at_time(t_text, alpha, float(f))
                    x_b = math.exp(-t * float(alpha) * f)
                    budget += ref.u_atanh(x_b) * t * float(f) * alpha_err
                    v.value(f"I(t={t_text}, f={f!r})", got, value, budget=budget)
            return v

        return Call(argv, check, f"pip_{kind}")


def _maybe(v, label, got, want, tol=0.0, budget=0.0):
    if want is None:
        v.points += 1
        v.require(f"{label} is null", got is None)
    else:
        v.value(label, got, want, tol=tol, budget=budget)


# Blocks in the sky_scenarios pool: a pass over it takes about 0.7 s at
# the seed commit, so a run gives each call about forty tries spread over
# the whole run. Every other block adds a grid report, so the pool holds
# one grid of each size in _GRID_ROWS.
SKY_BLOCKS = 2 * len(_GRID_ROWS)


def build_sky_scenarios(seed, tmpdir):
    """SKY_BLOCKS blocks of 15 calls, plus a grid-file report every other block.

    Per block: eight disk reports (four alpha, four rate) at the orders
    of _DISK_ORDERS, alpha and rate for an isotropic sky and a point
    source, one pip --config, and one alpha and one rate_ratio sweep.
    Every other block adds a report on a fresh indicator grid, alternately
    rate and alpha, with sizes in the order of _GRID_ROWS. Orders, sizes and report kinds
    follow the block number, so the cost and points of the pool do not
    depend on the seed. Every disk, point and grid is drawn anew, so no
    two calls of the pool share a region.
    """
    rng = np.random.default_rng([seed, 2])
    sky = _Sky(rng, tmpdir)
    calls = []
    for b in range(SKY_BLOCKS):
        block = []
        for make, orders in ((sky.alpha_call, _DISK_ORDERS[b % 2]),
                             (sky.rate_call, _DISK_ORDERS[1 - b % 2])):
            for order in orders:
                th_deg = _g(rng.uniform(0.5, 179.5))
                chi_deg = _g(rng.uniform(0.0, 180.0))
                path, scn = sky.scenario(f"disk:{th_deg}:{chi_deg}")
                block.append(make("disk", ref.Disk(th_deg, chi_deg), path, scn,
                                  order))
        for make in (sky.alpha_call, sky.rate_call):
            path, scn = sky.scenario("isotropic")
            block.append(make("isotropic", None, path, scn, 64))
            deg = _g(rng.uniform(0.0, 180.0))
            path, scn = sky.scenario(f"point:{deg}", point=True)
            block.append(make("point", ref.radians(deg), path, scn, 64))
        times = [_g(10 ** rng.uniform(-1, 2)) for _ in range(1 + b % 2)]
        f_count = _PIP_SIZES[b % len(_PIP_SIZES)]
        if b % 2:
            deg = _g(rng.uniform(0.0, 180.0))
            path, _ = sky.scenario(f"point:{deg}", point=True)
            block.append(sky.pip_call("point", None, path, times, f_count))
        else:
            th_deg, chi_deg = _g(rng.uniform(0.5, 179.5)), _g(rng.uniform(0.0, 180.0))
            path, _ = sky.scenario(f"disk:{th_deg}:{chi_deg}")
            block.append(sky.pip_call("disk", ref.Disk(th_deg, chi_deg), path,
                                      times, f_count))
        for j, quantity in enumerate(("alpha", "rate_ratio")):
            axis = "theta0" if (b + j) % 2 else "chi"
            other = "chi" if axis == "theta0" else "theta0"
            block.append(_sweep_call(
                quantity, axis, "0", "180",
                _SWEEP_SIZES[(b + len(block)) % len(_SWEEP_SIZES)],
                "linear", {other: _g(rng.uniform(0.0, 180.0))}, "csv"))
        if b % 2 == 0:
            g = b // 2
            gpath, geo = sky.grid(_GRID_ROWS[g])
            path, scn = sky.scenario(f"custom:{gpath}")
            make = sky.alpha_call if g % 2 else sky.rate_call
            block.append(make("custom", geo, path, scn, 64))
        calls += [block[i] for i in rng.permutation(len(block))]
    wpath, _ = sky.scenario("disk:30:20")
    warmup = ["alpha", "--config", wpath]
    return Workload("sky_scenarios", warmup, calls, trace_calls=64,
                    files=sky.files)


# ---------------------------------------------------------------------------
# oracle_crosscheck

# (D_B, fN) finite models: D_B^fN stays far below the enumeration cap and
# the multiset count stays small enough that the battery dominates.
_MODELS = ((3, 6), (10, 2))


def _oracle_call(seed, model=None):
    argv = ["oracle", "--seed", str(seed)]
    if model is not None:
        db, fn, b_scale = model
        argv += ["--db", str(db), "--fn", str(fn), "--b-scale", b_scale]

    def check(out):
        v = Verdict()
        rep = json.loads(out)
        v.points = len(rep["checks"])
        v.require("seed echoed", rep["seed"] == seed)
        v.require("all_passed", rep["all_passed"] is True
                  and all(c["passed"] for c in rep["checks"]))
        if model is not None:
            v.points += 1
            m = rep.get("model", {})
            v.require("model echoed", m.get("D_B") == model[0]
                      and m.get("fN") == model[1])
            v.require("model entropies finite", all(
                isinstance(m.get(k), float) and math.isfinite(m[k])
                for k in ("entropy_change_exact", "entropy_change_analytic")))
        return v

    return Call(argv, check, "oracle_model" if model else "oracle")


# Calls in the oracle_crosscheck pool: a pass over it takes about 0.6 s
# at the seed commit, so a run gives each call about forty tries spread
# over the whole run.
ORACLE_CALLS = 2 * len(_MODELS)


def build_oracle_crosscheck(seed, tmpdir):
    """ORACLE_CALLS batteries with distinct seeds; every other one also
    reports one of the finite models of _MODELS.
    """
    rng = np.random.default_rng([seed, 3])
    seeds = rng.integers(0, 2 ** 31, size=ORACLE_CALLS + 1)
    calls = []
    for i, s in enumerate(seeds[1:]):
        model = None
        if i % 2:
            db, fn = _MODELS[(i // 2) % len(_MODELS)]
            model = (db, fn, _g(10 ** rng.uniform(-4, math.log10(0.05))))
        calls.append(_oracle_call(int(s), model))
    warmup = ["oracle", "--seed", str(int(seeds[0]))]
    return Workload("oracle_crosscheck", warmup, calls, trace_calls=6)


BUILDERS = {
    "info_tables": build_info_tables,
    "sky_scenarios": build_sky_scenarios,
    "oracle_crosscheck": build_oracle_crosscheck,
}
