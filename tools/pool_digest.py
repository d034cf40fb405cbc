"""Print one sha256 digest per benchmark pool of CLI calls.

Usage: python tools/pool_digest.py

For each workload of perfbench/workloads.py at seeds 1 and 20260917, the
pool is built in a fresh temporary directory and every call in it runs
through photon_darwinism.cli.main in this process, from the src/ tree of
the checkout that holds this script. A digest covers each call's argv,
exit code and stdout, in pool order, with the temporary directory's path
replaced by a fixed token. Two checkouts whose CLI prints the same bytes
print the same digests, so comparing the output of this script before and
after a change checks that the change kept every byte of every pool.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
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


def pool_digest(workload: str, seed: int) -> tuple[int, str]:
    """(number of calls, sha256 hex) of one workload's pool at one seed."""
    digest = hashlib.sha256()
    with tempfile.TemporaryDirectory() as tmpdir:
        calls = BUILDERS[workload](seed, tmpdir).calls
        for call in calls:
            status, stdout = run(call.argv)
            record = repr((call.argv, status, stdout))
            digest.update(record.replace(tmpdir, TMP_TOKEN).encode())
    return len(calls), digest.hexdigest()


def main() -> int:
    for workload in BUILDERS:
        for seed in SEEDS:
            count, hexdigest = pool_digest(workload, seed)
            print(f"{workload} seed={seed} calls={count} sha256={hexdigest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
