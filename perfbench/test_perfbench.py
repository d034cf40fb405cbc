"""Tests of the benchmark itself: python3 -m pytest perfbench"""

from __future__ import annotations

import io
import json
import shutil
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(BENCH_DIR), str(ROOT / "src")]

import photon_darwinism.cli as cli  # noqa: E402
import reference as ref  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import LAYERS, Tracer  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(workload, trace, cwd=ROOT, script=BENCH_DIR / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", "3",
         "--seconds", "0.3", "--trace", str(trace)],
        cwd=str(cwd), capture_output=True, text=True, timeout=170)


def call(argv):
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        rc = cli.main(argv)
    return rc, out.getvalue()


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", (0, 1))
def test_tiny_run_prints_every_metric_with_its_unit(workload, trace):
    proc = run_bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().split("\n")
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    listed = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in listed}
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float))
    assert any(line.startswith("error_rate") for line in lines)
    if not trace:
        assert any(line.startswith("call_ms_p90") and "(n = " in line
                   and "runs each" in line for line in lines)


def test_benchmark_json_matches_the_code():
    assert [w["name"] for w in BENCH["workloads"]] == list(workloads.WORKLOADS)
    assert {w["name"]: w["why"] for w in BENCH["workloads"]} == workloads.WHY
    assert [m["name"] for m in BENCH["end_to_end"]] == list(run.END_TO_END_UNITS)
    setup = BENCH["end_to_end"][0]
    assert setup["name"] == "setup_s"
    assert setup["bound"] == max(m["bound"] for m in BENCH["end_to_end"])


def test_without_the_package_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench("info_tables", 0, cwd=tmp_path,
                     script=tmp_path / "perfbench" / "run.py")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_inputs_depend_only_on_the_seed(workload, tmp_path):
    build = workloads.BUILDERS[workload]
    dirs = [tmp_path / d for d in "abc"]
    for d in dirs:
        d.mkdir()
    one = build(5, str(dirs[0]))
    two = build(5, str(dirs[1]))
    other = build(6, str(dirs[2]))

    def argvs(wl, d):
        return [[arg.replace(str(d), "") for arg in c.argv] for c in wl.calls]

    assert argvs(one, dirs[0]) == argvs(two, dirs[1])
    assert argvs(one, dirs[0]) != argvs(other, dirs[2])
    for f1, f2 in zip(one.files, two.files):
        assert Path(f1).read_text().replace(str(dirs[0]), "") == \
            Path(f2).read_text().replace(str(dirs[1]), "")
    assert run.HELD_OUT_SEED not in range(1, 11)


def test_best_times_take_each_calls_shortest_run():
    # Three calls cycled in order; the run was cut during the third pass.
    assert run.best_times(3, [5.0, 1.0, 2.0, 4.0, 3.0, 1.0, 0.5]) == [0.5, 1.0, 1.0]
    assert run.best_times(3, [5.0, 1.0]) == [5.0, 1.0]


def test_sky_pool_cost_does_not_depend_on_the_seed(tmp_path):
    def kinds(seed):
        d = tmp_path / str(seed)
        d.mkdir()
        wl = workloads.build_sky_scenarios(seed, str(d))
        return sorted((c.label, c.argv[c.argv.index("--order") + 1]
                       if "--order" in c.argv else "") for c in wl.calls)

    assert kinds(1) == kinds(2)


def test_layer_self_times_add_up_to_the_traced_wall_time():
    argv = ["redundancy", "--alpha", "0.3", "--delta", "1e-6",
            "--t-start", "1", "--t-stop", "1e4", "--t-count", "60"]
    rc, plain = call(argv)
    tracer = Tracer()
    tracer.install()
    try:
        start = perf_counter()
        rc_traced, traced = call(argv)
        wall = perf_counter() - start
    finally:
        tracer.uninstall()
    assert rc == rc_traced == 0 and traced == plain
    self_total = sum(tracer.self_s[layer] for layer in LAYERS)
    # Only the redirect and the outermost wrapper's bookkeeping lie
    # outside the cli.main span.
    assert abs(wall - self_total) <= 0.02 * wall + 2e-4
    metrics = tracer.metrics()
    assert metrics["information.redundancy_exact.calls"] == 60
    assert metrics["information.mi_evals_per_root"] > 1
    assert metrics["entropy_kernels.h.calls"] >= 3 * metrics["information.mi.calls"]


def test_uninstall_restores_every_binding():
    import photon_darwinism.information as information
    import photon_darwinism.sky as sky
    import numpy as np

    before = (information.h, sky.integrate_sphere, cli.main,
              np.polynomial.legendre.leggauss)
    tracer = Tracer()
    tracer.install()
    assert information.h is not before[0] and cli.main is not before[2]
    tracer.uninstall()
    assert (information.h, sky.integrate_sphere, cli.main,
            np.polynomial.legendre.leggauss) == before


def test_sky_counters_under_the_tracer(tmp_path):
    scn = tmp_path / "disk.scn"
    scn.write_text("radius_m = 1e-6\npermittivity = 4\ndx_m = 1e-6\n"
                   "temperature_K = 2.725\nregion = disk:30:20\n")
    tracer = Tracer()
    tracer.install()
    try:
        rc, _ = call(["alpha", "--config", str(scn), "--order", "16"])
    finally:
        tracer.uninstall()
    metrics = tracer.metrics()
    assert rc == 0
    assert metrics["receptivity.alpha_numeric.calls"] == 1
    assert metrics["sky.leggauss_calls"] >= 2
    assert metrics["sky.leggauss_distinct_ratio"] == 1 / metrics["sky.leggauss_calls"]
    assert metrics["sky.nodes"] > 0
    assert metrics["sky.node_bytes"] == 32 * metrics["sky.nodes"]


def test_checks_catch_a_wrong_value():
    wl = workloads.build_info_tables(2, "")
    pip = next(c for c in wl.calls if c.label == "pip"
               and c.argv[c.argv.index("--f-max") + 1] == "1"
               and c.argv[-1] == "csv")
    rc, out = call(pip.argv)
    assert rc == 0 and pip.check(out).gate_ok
    lines = out.split("\n")
    row = lines.index("f,mi_nats") + 50
    f, mi = lines[row].split(",")
    lines[row] = f"{f},{float(mi) * (1 + 1e-9):.12g}"
    assert not pip.check("\n".join(lines)).gate_ok


def test_redundancy_check_reads_r_as_one_over_f():
    v = ref.Verdict()
    rc, out = call(["sweep", "--quantity", "redundancy", "--axis", "t_over_tauD",
                    "--start", "50", "--stop", "60", "--count", "2"])
    assert rc == 0
    value = float(out.strip().split("\n")[1].split(",")[1])
    ref.check_redundancy_exact(v, "R", value, 50.0, "1", "0.01")
    assert v.strict_ok
    ref.check_redundancy_exact(v, "R", value * (1 + 1e-6), 50.0, "1", "0.01")
    assert not v.gate_ok
