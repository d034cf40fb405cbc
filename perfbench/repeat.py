"""Run the benchmark over several seeds and summarise each metric.

Usage (from the repository root):

    python3 perfbench/repeat.py --runs 10 [--workload NAME ...] [--trace 1]
        [--first-seed 1] [--out perfbench/out/summary.json]

Each run uses its own seed (first-seed, first-seed + 1, ...). For every
metric the summary gives the median, the quartiles from
``statistics.quantiles(values, n=4)``, the spread (quartile distance over
the median) and n, next to each end-to-end metric's bound from
BENCHMARK.json, plus the software versions of the last run.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def run_once(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=str(ROOT), capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n"
                           + proc.stderr[-2000:])
    lines = proc.stdout.strip().split("\n")
    return json.loads(lines[-1]), lines[:-1]


def summarise(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else None,
            "n": len(values), "values": values}


def main(argv=None):
    with open(ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--out", type=Path,
                        default=BENCH_DIR / "out" / "summary.json")
    args = parser.parse_args(argv)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    summary = {"runs": args.runs, "seconds": args.seconds, "trace": args.trace,
               "workloads": {}}
    for workload in args.workload or names:
        results, env_line = [], None
        for i in range(args.runs):
            result, lines = run_once(workload, args.first_seed + i,
                                     args.seconds, args.trace)
            results.append(result)
            env_line = next(line for line in lines if line.startswith("env: "))
            print(f"{workload} seed {args.first_seed + i}: "
                  + json.dumps({k: round(v["value"], 4)
                                for k, v in result["metrics"].items()}),
                  flush=True)
        entry = {"attempted": [r["attempted"] for r in results],
                 "failed": [r["failed"] for r in results],
                 "correct": all(r["correct"] for r in results),
                 "env": json.loads(env_line[5:]), "metrics": {}}
        for name in results[0]["metrics"]:
            stats = summarise([r["metrics"][name]["value"] for r in results])
            stats["unit"] = results[0]["metrics"][name]["unit"]
            stats["bound"] = bounds.get(name)
            entry["metrics"][name] = stats
            if stats["bound"] is not None:
                print(f"  {name:14s} median {stats['median']:.4f} "
                      f"{stats['unit']}  spread {stats['spread']:.4f}  "
                      f"bound {stats['bound']}", flush=True)
        summary["workloads"][workload] = entry
    args.out.parent.mkdir(exist_ok=True)
    with open(args.out, "w") as fh:
        json.dump(summary, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
