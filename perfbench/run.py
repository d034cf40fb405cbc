"""The repository benchmark: seeded CLI workloads, checked and timed.

Usage (from the repository root):

    python3 perfbench/run.py --workload info_tables --seed 1 --seconds 30 --trace 0

Workloads (see workloads.WHY): info_tables, sky_scenarios,
oracle_crosscheck. Each drives ``photon_darwinism.cli.main(argv)``
in-process, one client in a closed loop, in a fresh interpreter with BLAS
pinned to one thread; no call passes ``--jobs``. The timed phase cycles
through the workload's pool of distinct calls, so each call runs several
times, and a call's time is its best (shortest) run, as timeit takes it:
on a shared host, other tenants only ever add time to a call.

With ``--trace 0`` the run reports the end-to-end metrics:

* setup_s: fresh interpreter to imported CLI plus the untimed warm-up
  call, median over SETUP_SAMPLES interpreters, half started before the
  timed phase and half after it;
* points_per_s: emitted rows or values of one pass over the pool divided
  by the sum of the calls' best times;
* call_ms_p50, call_ms_p90: quantiles over the pool's calls of each
  call's best wall time of ``main(argv)``;
* peak_rss_mb: ru_maxrss of the process that ran the workload.

With ``--trace 1`` it runs a fixed slice of the workload untraced and then
under tracer.Tracer, and reports the per-layer metrics plus
trace.overhead_s. Spans are written under perfbench/out/.

Every call's output is checked against references that do not run the
package (reference.py). A call fails when it exits non-zero, raises,
does not reproduce its own bytes, or misses its reference by more than
the double-precision error budget; ``failed`` counts those calls.
``error_rate``, printed above the result line, is the share of calls
missing the stricter 12-significant-digit contract.

The last stdout line is one JSON object: correct, attempted, failed and
metrics (each a value with its unit). Sample counts, the error rate and
the software versions are printed before it and saved with the raw
per-call numbers in perfbench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import traceback
from importlib import metadata
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"

DEFAULT_SEED = 1
# Seed kept out of tuning, for checking a claimed gain.
HELD_OUT_SEED = 20260917
SETUP_SAMPLES = 8
WORKER_TIMEOUT_S = 150

END_TO_END_UNITS = {
    "setup_s": "s",
    "points_per_s": "points/s",
    "call_ms_p50": "ms",
    "call_ms_p90": "ms",
    "peak_rss_mb": "MB",
}


def per_layer_units():
    """Per-layer metric name -> unit, as BENCHMARK.json lists them."""
    with open(ROOT / "BENCHMARK.json") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}


def worker_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def start_worker(plan, tmpdir, tag):
    """Spawn a worker on plan; return (process, seconds until it was ready).

    A watchdog kills the worker after WORKER_TIMEOUT_S, so no wait below
    can hang; finish() always reaps the process.
    """
    plan_path = os.path.join(tmpdir, f"plan-{tag}.json")
    with open(plan_path, "w") as fh:
        json.dump(plan, fh)
    begin = perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(BENCH_DIR / "worker.py"), plan_path],
        env=worker_env(), cwd=str(ROOT), stdout=subprocess.PIPE, text=True)
    proc.watchdog = threading.Timer(WORKER_TIMEOUT_S, proc.kill)
    proc.watchdog.daemon = True
    proc.watchdog.start()
    line = proc.stdout.readline()
    ready = perf_counter() - begin
    if line.strip() != "ready":
        finish(proc)
        raise RuntimeError(f"worker did not start (exit {proc.returncode})")
    return proc, ready


def finish(proc):
    """Wait for a worker and fail unless it exited cleanly."""
    proc.communicate()
    proc.watchdog.cancel()
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")


def run_worker(plan, tmpdir, tag):
    plan["result"] = os.path.join(tmpdir, f"result-{tag}.json")
    proc, _ = start_worker(plan, tmpdir, tag)
    finish(proc)
    with open(plan["result"]) as fh:
        return json.load(fh)


def quantile(values, q):
    """Linear-interpolated q-quantile of a non-empty list."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1] \
        if len(values) > 1 else values[0]


def check_outputs(calls, result):
    """Check each distinct call once; return per-call-index verdict flags."""
    verdicts = {}
    for key, out in result["outputs"].items():
        k = int(key)
        call = calls[k]
        try:
            v = call.check(out)
        except Exception:  # unparseable or malformed output fails the call
            verdicts[k] = (0, False, False, traceback.format_exc(limit=1))
            continue
        verdicts[k] = (v.points, v.strict_ok, v.gate_ok, "; ".join(v.notes))
    return verdicts


def tally(calls, result, verdicts):
    """Attempted, failed and strict misses over the executed calls.

    Also returns, per call kind, [strict misses, calls, first strict note],
    the first failure note, and the points of one pass over the pool (each
    distinct call counted once, and only if every run of it was good).
    """
    n = len(calls)
    bad_index = set(result["repeat_differs"]) | {int(i) for i in result["errors"]}
    attempted = len(result["rcs"])
    failed = strict = 0
    notes, kinds, good = {}, {}, {}
    for i, rc in enumerate(result["rcs"]):
        k = i % n
        pts, strict_ok, gate_ok, note = verdicts.get(k, (0, False, False, "no output"))
        ok = rc == 0 and i not in bad_index
        kind = kinds.setdefault(calls[k].label, [0, 0, ""])
        kind[1] += 1
        if not (ok and gate_ok):
            failed += 1
            notes.setdefault(calls[k].label, f"call {i}: rc={rc} {note} "
                             f"{result['errors'].get(str(i), '')}".strip())
        if not (ok and strict_ok):
            strict += 1
            kind[0] += 1
            kind[2] = kind[2] or note
        good[k] = good.get(k, True) and ok
    points = sum(verdicts[k][0] for k, ok in good.items() if ok)
    return attempted, failed, strict, points, notes, kinds


def best_times(n, seconds):
    """Each distinct call's shortest run, in pool order, from the runs'
    seconds in execution order (the worker cycles the pool of n calls)."""
    best = seconds[:n]
    for i in range(n, len(seconds)):
        best[i % n] = min(best[i % n], seconds[i])
    return best


def environment():
    digest = hashlib.sha256()
    for path in sorted((SRC / "photon_darwinism").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "mpmath": metadata.version("mpmath"),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": git_commit(),
        "src_sha256": digest.hexdigest(),
    }


def git_commit():
    """HEAD's commit when the checkout is a git work tree, else None."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    target = ROOT / ".git" / ref[5:]
    if target.is_file():
        return target.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def setup_times(wl, tmpdir, count, tag):
    """Seconds from spawning a worker until its warm-up call returned."""
    times = []
    for i in range(count):
        proc, ready = start_worker({"mode": "setup", "warmup": wl.warmup},
                                   tmpdir, f"setup-{tag}{i}")
        finish(proc)
        times.append(ready)
    return times


def measure(workload, seed, seconds, trace, tmpdir):
    from workloads import BUILDERS

    wl = BUILDERS[workload](seed, tmpdir)
    record = {"workload": workload, "seed": seed, "seconds": seconds,
              "trace": trace, "env": environment()}
    lines = []
    if trace:
        calls = wl.calls[:wl.trace_calls]
        plan = {"mode": "traced", "warmup": wl.warmup,
                "calls": [c.argv for c in calls],
                "spans": str(OUT / f"spans-{workload}.npz")}
        result = run_worker(plan, tmpdir, "traced")
        verdicts = check_outputs(calls, result)
        attempted, failed, strict, points, notes, kinds = tally(calls, result, verdicts)
        units = per_layer_units()
        metrics = {name: {"value": result["metrics"][name], "unit": unit}
                   for name, unit in units.items()}
        lines.append(f"traced {attempted} calls: untraced {result['plain_s']:.4f} s, "
                     f"traced {result['traced_s']:.4f} s; output bytes "
                     + ("identical" if not result["repeat_differs"] else
                        f"differ on {len(result['repeat_differs'])} calls"))
        record["per_call_s"] = result["seconds"]
    else:
        calls = wl.calls
        setup = setup_times(wl, tmpdir, SETUP_SAMPLES // 2, "before")
        plan = {"mode": "timed", "warmup": wl.warmup, "seconds": seconds,
                "calls": [c.argv for c in calls]}
        result = run_worker(plan, tmpdir, "timed")
        setup += setup_times(wl, tmpdir, SETUP_SAMPLES - len(setup), "after")
        verdicts = check_outputs(calls, result)
        attempted, failed, strict, points, notes, kinds = tally(calls, result, verdicts)
        best = best_times(len(calls), result["seconds"])
        ms = [s * 1e3 for s in best]
        runs_each = attempted / len(best)
        values = {
            "setup_s": statistics.median(setup),
            "points_per_s": points / sum(best),
            "call_ms_p50": statistics.median(ms),
            "call_ms_p90": quantile(ms, 90),
            "peak_rss_mb": result["peak_rss_kb"] / 1024.0,
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}
        sample = (f"(n = {len(best)} calls, best of {runs_each:.1f} runs "
                  "each on average)")
        lines += [
            f"timed phase: {attempted} runs of {len(best)} distinct calls in "
            f"{result['phase_s']:.3f} s",
            f"setup_s       {values['setup_s']:.4f} s  (median of "
            f"{SETUP_SAMPLES} fresh interpreters)",
            f"points_per_s  {values['points_per_s']:.1f} points/s  "
            f"({points} points in {sum(best):.4f} s of best call times)",
            f"call_ms_p50   {values['call_ms_p50']:.4f} ms  {sample}",
            f"call_ms_p90   {values['call_ms_p90']:.4f} ms  {sample}",
            f"peak_rss_mb   {values['peak_rss_mb']:.2f} MB  (1 process)",
        ]
        record.update(setup_s=setup, per_call_s=result["seconds"],
                      best_s=best, phase_s=result["phase_s"], points=points)
    error_rate = strict / attempted
    lines += [
        f"error_rate    {error_rate:.4f} fraction  ({strict} of {attempted} "
        "calls miss the 12-significant-digit contract)",
        f"failed        {failed} of {attempted} calls  (error, changed bytes, "
        "or a miss beyond the double-precision error budget)",
        "  by kind: " + ", ".join(f"{label} {m}/{c}"
                                  for label, (m, c, _) in sorted(kinds.items())),
        "env: " + json.dumps(record["env"]),
    ]
    for label, note in sorted(notes.items()):
        print(f"failed {label}: {note}", file=sys.stderr)
    record.update(attempted=attempted, failed=failed, strict_misses=strict,
                  strict_by_kind=kinds,
                  error_rate=error_rate, metrics=metrics)
    with open(OUT / f"run-{workload}-seed{seed}-trace{int(trace)}.json", "w") as fh:
        json.dump(record, fh)
    return lines, {"correct": failed == 0, "attempted": attempted,
                   "failed": failed, "metrics": metrics}


def parse_args(argv=None):
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "photon_darwinism" / "cli.py").is_file():
        print(f"error: no photon_darwinism sources under {SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    tmpdir = tempfile.mkdtemp(prefix="inputs-", dir=OUT)
    try:
        lines, result = measure(args.workload, args.seed, args.seconds,
                                bool(args.trace), tmpdir)
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
