"""Print one sha256 digest per benchmark pool of CLI calls, one per demo,
and one for the CLI's error paths.

Usage: python tools/pool_digest.py [--records DIR]

For each workload of perfbench/workloads.py at seeds 1 and 20260917, the
pool is built in a fresh temporary directory and every call in it runs
through photon_darwinism.cli.main in this process, from the src/ tree of
the checkout that holds this script. A digest covers each call's argv,
exit code and stdout, in pool order, with the temporary directory's path
replaced by a fixed token. Two checkouts whose CLI prints the same bytes
print the same digests, so comparing the output of this script before and
after a change checks that the change kept every byte of every pool.

Then each script under demos/ runs in this process, as tests/test_demos.py
runs it, and one line `demo=<name> sha256=<hex>` gives the digest of its
stdout; an error that escapes a demo is appended to that stdout. Last, the
fixed malformed and edge invocations of ERROR_CALLS run in-process, and
one line `errors calls=<n> sha256=<hex>` digests each one's argv, exit
status, stdout and stderr, the temporary path replaced by the same token. The pool lines come first
and keep their format, so digests recorded before the demo and error
lines existed stay comparable.

With --records DIR, the text behind each digest is also written to DIR:
one file per pool, `<workload>-seed<seed>.txt`, holding for each call a
line `$ <argv> -> <exit status>` and then its stdout, with the temporary
path replaced by the same token, one `demo-<name>.txt` per demo holding
its stdout, and `errors.txt`, which holds each error call's record line,
its stdout and its stderr lines prefixed `stderr: `. `diff -r` between
the directories of two checkouts then shows, and `diff -r ... | grep -c
'^>'` counts, the lines that moved.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import runpy
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.dont_write_bytecode = True  # leave perfbench/ as checked out
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import photon_darwinism.cli as cli  # noqa: E402
from workloads import BUILDERS  # noqa: E402

SEEDS = (1, 20260917)
TMP_TOKEN = "<tmp>"

# The files that ERROR_CALLS name, written to a temporary directory that
# "{tmp}" stands for.
_SCENARIO = ("radius_m = 1e-6\npermittivity = 4.0\ndx_m = 1e-6\n"
             "temperature_K = 2.725\n")
ERROR_FILES = {
    "disk.cfg": _SCENARIO + "region = disk:60:0\n",
    "dark-point.cfg": _SCENARIO + "region = point:45\n",
    "unknown-key.cfg": _SCENARIO + "region = disk:60:0\ncolour = red\n",
    "nan-radius.cfg": _SCENARIO.replace("1e-6", "nan", 1)
    + "region = disk:60:0\n",
    "half-grid.cfg": _SCENARIO + "region = custom:{tmp}/half-grid.txt\n",
    "half-grid.txt": "# 2 2\n-0.5 1.5707963267948966 0\n"
    "-0.5 4.71238898038469 0\n0.5 1.5707963267948966 0\n"
    "0.5 4.71238898038469 0.5\n",
    # k_B T underflows to 0 below about 1e-301 K, and the full-sky rate
    # below about 1e-35 K.
    "cold-disk.cfg": _SCENARIO.replace("2.725", "1e-305")
    + "region = disk:60:0\n",
    "cold-point.cfg": _SCENARIO.replace("2.725", "1e-40")
    + "region = point:45\nirradiance_W_m2 = 1e-5\n",
}
_RATE = ["rate", "--config", "{tmp}/disk.cfg"]
_SWEEP = ["sweep", "--quantity", "mi", "--axis", "f", "--start", "0",
          "--stop", "1", "--count", "3"]
ERROR_CALLS = [
    # argparse: no command, help, unknown or misplaced words, bad values
    [], ["-h"], ["--help"], ["--version"], ["nope"], ["-x", "rate"],
    ["rate"], ["rate", "--config"], _RATE + ["--bogus"], _RATE + ["extra"],
    ["rate", "--conf", "{tmp}/disk.cfg"],
    _RATE + ["--config", "{tmp}/disk.cfg"],
    ["rate", "--config", "--", "{tmp}/disk.cfg"], _SWEEP + ["--fix"],
    _RATE + ["--order", "1"], ["rate", "-h"], ["oracle", "--seed", "x"],
    ["oracle", "--f", "csv"], ["oracle", "--b-scale", "-inf"],
    # negative numbers written with an exponent
    ["oracle", "--db", "2", "--fn", "1", "--b-scale", "-1e-3", "--format",
     "csv"],
    ["pip", "--times", "1", "--alpha", "-1e-3"],
    ["sweep", "--quantity", "alpha", "--axis", "chi", "--start", "-1e-3",
     "--stop", "1", "--count", "2"],
    # the program's own checks
    ["pip", "--times", "1,nan"], ["pip", "--times", "1", "--f-count", "1"],
    ["redundancy", "--delta", "0.9"],
    ["redundancy", "--t-start", "-5", "--t-stop", "10", "--t-count", "3",
     "--spacing", "linear"],
    ["oracle", "--db", "3"], ["oracle", "--seed", "-1"],
    ["oracle", "--db", "10", "--fn", "10"],
    ["sweep", "--quantity", "mi", "--axis", "theta0", "--start", "0",
     "--stop", "1", "--count", "3"],
    ["sweep", "--quantity", "redundancy", "--axis", "delta", "--start",
     "0.5", "--stop", "2", "--count", "3"],
    ["sweep", "--quantity", "mi_mway", "--axis", "f", "--start", "0",
     "--stop", "1", "--count", "3", "--fix", "M=2.5"],
    # times past t = 745, where exp(-t) underflows to 0
    ["sweep", "--quantity", "mi_mway", "--axis", "t_over_tauD", "--start",
     "700", "--stop", "800", "--count", "3", "--fix", "f=0.001"],
    ["sweep", "--quantity", "mi_unbalanced", "--axis", "t_over_tauD",
     "--start", "700", "--stop", "1000", "--count", "3", "--fix", "f=0.001"],
    # scenario files
    ["rate", "--config", "{tmp}/missing.cfg"],
    ["rate", "--config", "{tmp}/dark-point.cfg"],
    ["alpha", "--config", "{tmp}/unknown-key.cfg"],
    ["rate", "--config", "{tmp}/nan-radius.cfg"],
    ["pip", "--times", "1", "--config", "{tmp}/half-grid.cfg"],
    *([command, "--config", "{tmp}/" + name] + extra
      for name in ("cold-disk.cfg", "cold-point.cfg")
      for command, extra in (("rate", []), ("alpha", []),
                             ("pip", ["--times", "1", "--f-count", "3"]))),
]


def run(argv):
    """(exit status, stdout, stderr) of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            status = cli.main(argv)
        except SystemExit as exc:
            status = exc.code
        except Exception as exc:  # an escaped error is part of the record
            status = repr(exc)
    return status, out.getvalue(), err.getvalue()


def pool_digest(workload: str, seed: int) -> tuple[int, str, str]:
    """(number of calls, sha256 hex, record text) of one workload's pool at
    one seed; the text holds each call's argv, status and stdout."""
    digest = hashlib.sha256()
    records = []
    with tempfile.TemporaryDirectory() as tmpdir:
        calls = BUILDERS[workload](seed, tmpdir).calls
        for call in calls:
            status, stdout, _ = run(call.argv)
            record = repr((call.argv, status, stdout))
            digest.update(record.replace(tmpdir, TMP_TOKEN).encode())
            records.append(f"$ {call.argv!r} -> {status!r}\n{stdout}"
                           .replace(tmpdir, TMP_TOKEN))
    return len(calls), digest.hexdigest(), "".join(records)


def errors_digest() -> tuple[int, str, str]:
    """(number of calls, sha256 hex, record text) of ERROR_CALLS; the text
    holds each call's argv, status, stdout and stderr."""
    digest = hashlib.sha256()
    records = []
    with tempfile.TemporaryDirectory() as tmpdir:
        for name, text in ERROR_FILES.items():
            Path(tmpdir, name).write_text(text.format(tmp=tmpdir))
        for template in ERROR_CALLS:
            argv = [arg.format(tmp=tmpdir) for arg in template]
            status, stdout, stderr = run(argv)
            record = repr((argv, status, stdout, stderr))
            digest.update(record.replace(tmpdir, TMP_TOKEN).encode())
            records.append((f"$ {argv!r} -> {status!r}\n{stdout}" + "".join(
                "stderr: " + line for line in stderr.splitlines(True)))
                .replace(tmpdir, TMP_TOKEN))
    return len(ERROR_CALLS), digest.hexdigest(), "".join(records)


def demo_stdout(script: Path) -> str:
    """One demo's stdout; stderr is dropped."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            runpy.run_path(str(script), run_name="__main__")
        except Exception as exc:  # an escaped error is part of the record
            print(repr(exc))
    return out.getvalue()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.partition("\n")[0])
    parser.add_argument("--records", type=Path, metavar="DIR",
                        help="also write the text behind each digest to DIR")
    records_dir = parser.parse_args(argv).records
    if records_dir is not None:
        records_dir.mkdir(parents=True, exist_ok=True)
    for workload in BUILDERS:
        for seed in SEEDS:
            count, hexdigest, records = pool_digest(workload, seed)
            if records_dir is not None:
                (records_dir / f"{workload}-seed{seed}.txt").write_text(records)
            print(f"{workload} seed={seed} calls={count} sha256={hexdigest}")
    for script in sorted((ROOT / "demos").glob("*.py")):
        stdout = demo_stdout(script)
        if records_dir is not None:
            (records_dir / f"demo-{script.stem}.txt").write_text(stdout)
        digest = hashlib.sha256(stdout.encode()).hexdigest()
        print(f"demo={script.stem} sha256={digest}")
    count, hexdigest, records = errors_digest()
    if records_dir is not None:
        (records_dir / "errors.txt").write_text(records)
    print(f"errors calls={count} sha256={hexdigest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
