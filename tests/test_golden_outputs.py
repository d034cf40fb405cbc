"""Golden CLI outputs: exact stdout bytes for a fixed set of invocations.

Quadrature-backed reports (rate, alpha, pip --config) and one closed-form
sweep are pinned byte for byte, so a refactor or speed-up of the sky
quadrature cannot move a printed digit unnoticed. The expected bytes live
in golden/cli_outputs.json. After a deliberate change of output, rewrite
that file with

    PYTHONPATH=src python tests/test_golden_outputs.py

and review the diff.
"""

import contextlib
import io
import json
import math
import sys
import tempfile
from pathlib import Path

import pytest

from photon_darwinism.cli import EXIT_OK, main

GOLDEN_PATH = Path(__file__).with_name("golden") / "cli_outputs.json"

BASE_CFG = (
    "radius_m = 1e-6\n"
    "permittivity = 4.0\n"
    "dx_m = 1e-6\n"
    "temperature_K = 2.725\n"
)

SCENARIOS = {
    "disk": "region = disk:60:0\n",
    "tilted": "region = disk:40:35\n",
    "isotropic": "region = isotropic\n",
    "point": "region = point:45\nirradiance_W_m2 = 1e-5\n",
    "custom": "region = custom:{grid}\n",
}


def _grid_text(rows: int = 8, cols: int = 16) -> str:
    """A small indicator grid: the cap u > 0.3 over half the azimuths."""
    lines = [f"# {rows} {cols}"]
    for i in range(rows):
        u = -1.0 + (i + 0.5) * 2.0 / rows
        for j in range(cols):
            phi = (j + 0.5) * 2.0 * math.pi / cols
            lines.append(f"{u!r} {phi!r} {int(u > 0.3 and phi < math.pi)}")
    return "\n".join(lines) + "\n"


def write_inputs(directory: Path) -> dict:
    """Write the scenario files (and the grid) and return name -> path."""
    grid = directory / "grid.txt"
    grid.write_text(_grid_text())
    paths = {}
    for name, region in SCENARIOS.items():
        path = directory / f"{name}.cfg"
        path.write_text(BASE_CFG + region.format(grid=grid))
        paths[name] = str(path)
    return paths


def _cases() -> dict:
    """Case id -> argv, with {name} standing for a scenario path."""
    cases = {}
    for command in ("rate", "alpha"):
        for name in SCENARIOS:
            for order in (16, 64, 128):
                cases[f"{command}-{name}-{order}"] = [
                    command, "--config", "{%s}" % name, "--order", str(order)
                ]
    cases["pip-disk"] = ["pip", "--config", "{tilted}", "--times", "1,10",
                         "--f-count", "11"]
    cases["pip-custom"] = ["pip", "--config", "{custom}", "--times", "5",
                           "--f-count", "6", "--order", "32"]
    cases["sweep-alpha"] = ["sweep", "--quantity", "alpha", "--axis", "theta0",
                            "--start", "0", "--stop", "180", "--count", "7"]
    return cases


CASES = _cases()


def _argv(case_id: str, paths: dict) -> list:
    return [arg.format(**paths) for arg in CASES[case_id]]


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    return write_inputs(tmp_path_factory.mktemp("golden"))


def test_every_case_has_a_golden(golden):
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("case_id", sorted(CASES))
def test_stdout_matches_golden(case_id, golden, inputs, capsys):
    assert main(_argv(case_id, inputs)) == EXIT_OK
    assert capsys.readouterr().out == golden[case_id]


def _regenerate() -> None:
    outputs = {}
    with tempfile.TemporaryDirectory() as tmp:
        paths = write_inputs(Path(tmp))
        for case_id in sorted(CASES):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                rc = main(_argv(case_id, paths))
            if rc != EXIT_OK:
                sys.exit(f"{case_id}: exit code {rc}")
            outputs[case_id] = buf.getvalue()
    GOLDEN_PATH.parent.mkdir(exist_ok=True)
    GOLDEN_PATH.write_text(json.dumps(outputs, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(outputs)} cases to {GOLDEN_PATH}")


if __name__ == "__main__":
    _regenerate()
