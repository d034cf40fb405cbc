"""Runs one workload's CLI calls in a fresh interpreter.

Usage: python worker.py PLAN.json

The plan names a mode, a warm-up argv and the call argvs. The worker
imports ``photon_darwinism.cli``, makes the warm-up call and prints
``ready`` so the parent can time set-up. Then, by mode:

* ``setup``: exit.
* ``timed``: call ``cli.main`` in a closed loop, cycling through the
  calls in order until ``seconds`` pass, timing each call.
* ``traced``: run the calls once to warm up, once untraced and once under
  the tracer, and compare the last two passes' output bytes.

Results go to the plan's ``result`` path as JSON.
"""

from __future__ import annotations

import io
import json
import resource
import sys
from time import perf_counter

import photon_darwinism.cli as cli


def run_one(argv):
    """(stdout text, exit code or None, exception text or None, seconds)."""
    saved = sys.stdout, sys.stderr
    out = io.StringIO()
    sys.stdout, sys.stderr = out, io.StringIO()
    error = rc = None
    start = perf_counter()
    try:
        rc = cli.main(argv)  # looked up per call, so the tracer sees it
    except SystemExit as exc:
        error = f"SystemExit({exc.code!r})"
    except Exception as exc:  # a failed call is recorded, not fatal
        error = repr(exc)
    finally:
        elapsed = perf_counter() - start
        sys.stdout, sys.stderr = saved
    return out.getvalue(), rc, error, elapsed


def timed(plan):
    calls = plan["calls"]
    n = len(calls)
    seconds, rcs, errors, outputs, repeat_differs = [], [], {}, {}, []
    begin = perf_counter()
    deadline = begin + plan["seconds"]
    i = 0
    while i == 0 or perf_counter() < deadline:
        k = i % n
        out, rc, error, elapsed = run_one(calls[k])
        seconds.append(elapsed)
        rcs.append(rc)
        if error:
            errors[i] = error
        if k not in outputs:
            outputs[k] = out
        elif out != outputs[k]:
            repeat_differs.append(i)
        i += 1
    phase = perf_counter() - begin
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {"seconds": seconds, "rcs": rcs, "errors": errors,
            "outputs": outputs, "repeat_differs": repeat_differs,
            "phase_s": phase, "peak_rss_kb": rss_kb}


def one_pass(calls):
    results = [run_one(argv) for argv in calls]
    return results, sum(r[3] for r in results)


def traced(plan):
    from tracer import Tracer

    calls = plan["calls"]
    one_pass(calls)
    plain, plain_s = one_pass(calls)
    tracer = Tracer()
    tracer.install()
    try:
        traced_results, traced_s = one_pass(calls)
    finally:
        tracer.uninstall()
    tracer.save(plan["spans"])
    metrics = tracer.metrics()
    metrics["cli.bytes_out"] = sum(len(r[0].encode()) for r in traced_results)
    metrics["trace.overhead_s"] = traced_s - plain_s
    return {
        "seconds": [r[3] for r in plain],
        "rcs": [r[1] for r in plain],
        "errors": {i: r[2] for i, r in enumerate(plain) if r[2]},
        "outputs": {i: r[0] for i, r in enumerate(plain)},
        "repeat_differs": [i for i, (a, b) in enumerate(zip(plain, traced_results))
                           if a[0] != b[0] or a[1] != b[1]],
        "plain_s": plain_s,
        "traced_s": traced_s,
        "metrics": metrics,
    }


def worker(plan_path):
    with open(plan_path) as fh:
        plan = json.load(fh)
    run_one(plan["warmup"])
    print("ready", flush=True)
    if plan["mode"] == "setup":
        return
    result = timed(plan) if plan["mode"] == "timed" else traced(plan)
    with open(plan["result"], "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    worker(sys.argv[1])
