"""Print one sha256 digest per benchmark pool of CLI calls, and one per demo.

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
stdout; an error that escapes a demo is appended to that stdout. The pool
lines come first and keep their format, so digests recorded before the
demo lines existed stay comparable.

With --records DIR, the text behind each digest is also written to DIR:
one file per pool, `<workload>-seed<seed>.txt`, holding for each call a
line `$ <argv> -> <exit status>` and then its stdout, with the temporary
path replaced by the same token, and one `demo-<name>.txt` per demo
holding its stdout. `diff -r` between the directories of two checkouts
then shows, and `diff -r ... | grep -c '^>'` counts, the lines that moved.
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


def run(argv):
    """(exit status, stdout) of one in-process CLI call; stderr is dropped."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            status = cli.main(argv)
        except SystemExit as exc:
            status = exc.code
        except Exception as exc:  # an escaped error is part of the record
            status = repr(exc)
    return status, out.getvalue()


def pool_digest(workload: str, seed: int) -> tuple[int, str, str]:
    """(number of calls, sha256 hex, record text) of one workload's pool at
    one seed; the text holds each call's argv, status and stdout."""
    digest = hashlib.sha256()
    records = []
    with tempfile.TemporaryDirectory() as tmpdir:
        calls = BUILDERS[workload](seed, tmpdir).calls
        for call in calls:
            status, stdout = run(call.argv)
            record = repr((call.argv, status, stdout))
            digest.update(record.replace(tmpdir, TMP_TOKEN).encode())
            records.append(f"$ {call.argv!r} -> {status!r}\n{stdout}"
                           .replace(tmpdir, TMP_TOKEN))
    return len(calls), digest.hexdigest(), "".join(records)


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
    return 0


if __name__ == "__main__":
    sys.exit(main())
