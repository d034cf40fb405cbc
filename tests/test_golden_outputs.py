"""Golden CLI outputs: exact stdout bytes for a fixed set of invocations.

Quadrature-backed reports (rate, alpha, pip --config for every region
kind, alpha on a point without an irradiance, rate and alpha on a point
as CSV), the information tables (pip --alpha, redundancy and the mi,
mi_unbalanced, mi_mway and redundancy sweeps), the two closed-form disk
sweeps and the oracle report (CSV, the full JSON report, JSON with
finite models up to the enumeration cap, and CSV with one model) are
pinned byte for byte, as are two edges of JSON number text (a 300 K
photon density that JSON prints positionally and a subnormal fragment
fraction), so a refactor or speed-up of the sky quadrature, of the
information layer, of the discrete oracle or of the output path cannot
move a printed digit unnoticed. The expected bytes live in
golden/cli_outputs.json. After a deliberate change of output, rewrite
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

# Written alongside SCENARIOS but left out of the rate/alpha matrix: rate
# refuses a point source without an irradiance.
EXTRA_SCENARIOS = {
    "point_dark": "region = point:45\n",
}

# A 300 K disk, for rate and alpha as JSON only: its photon density,
# 5.477e14 per m^3, is where %.12g prints an exponent but JSON prints the
# number positionally.
WARM_CFG = BASE_CFG.replace("temperature_K = 2.725", "temperature_K = 300")
WARM_SCENARIOS = {
    "disk_300K": "region = disk:60:0\n",
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
    for name, region in {**SCENARIOS, **EXTRA_SCENARIOS}.items():
        path = directory / f"{name}.cfg"
        path.write_text(BASE_CFG + region.format(grid=grid))
        paths[name] = str(path)
    for name, region in WARM_SCENARIOS.items():
        path = directory / f"{name}.cfg"
        path.write_text(WARM_CFG + region)
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
    for command in ("rate", "alpha"):
        cases[f"{command}-disk_300K-json"] = [command, "--config",
                                              "{disk_300K}"]
    cases["pip-disk"] = ["pip", "--config", "{tilted}", "--times", "1,10",
                         "--f-count", "11"]
    cases["pip-custom"] = ["pip", "--config", "{custom}", "--times", "5",
                           "--f-count", "6", "--order", "32"]
    cases["pip-point"] = ["pip", "--config", "{point}", "--times", "0.5,20",
                          "--f-count", "6"]
    cases["pip-isotropic"] = ["pip", "--config", "{isotropic}", "--times",
                              "3", "--f-count", "6", "--format", "json"]
    cases["alpha-point-no-irradiance"] = ["alpha", "--config", "{point_dark}"]
    cases["sweep-alpha"] = ["sweep", "--quantity", "alpha", "--axis", "theta0",
                            "--start", "0", "--stop", "180", "--count", "7"]
    # theta0 is fixed because the default hemisphere is 0.5 at every chi.
    cases["sweep-rate_ratio-chi"] = ["sweep", "--quantity", "rate_ratio",
                                     "--axis", "chi", "--start", "0",
                                     "--stop", "180", "--count", "7",
                                     "--fix", "theta0=40"]
    cases["rate-point-csv"] = ["rate", "--config", "{point}",
                               "--format", "csv"]
    # A point has no quadrature: its CSV prints blanks for those fields.
    cases["alpha-point-csv"] = ["alpha", "--config", "{point}",
                                "--format", "csv"]
    cases["oracle-csv"] = ["oracle", "--seed", "0", "--format", "csv"]
    cases["oracle-model-json"] = ["oracle", "--seed", "0", "--db", "3",
                                  "--fn", "2", "--format", "json"]
    # CSV prints the model's quantity,value block after the checks.
    cases["oracle-model-csv"] = ["oracle", "--seed", "0", "--db", "3",
                                 "--fn", "2", "--format", "csv"]
    cases["oracle-seed1-json"] = ["oracle", "--seed", "1", "--format", "json"]
    # 2^23 = 8.4M sits just under the enumeration cap, and 23! overflows
    # int64, so the multiplicities must be counted without forming fN!.
    cases["oracle-model-db2-fn23-json"] = ["oracle", "--seed", "0", "--db",
                                           "2", "--fn", "23", "--format",
                                           "json"]
    cases["oracle-model-db10-fn2-json"] = ["oracle", "--seed", "0", "--db",
                                           "10", "--fn", "2", "--format",
                                           "json"]
    cases.update(_information_cases())
    return cases


def _information_cases() -> dict:
    """pip --alpha, redundancy and the information sweeps, CSV and JSON."""
    cases = {}
    pip = {
        "pip-alpha": ["--alpha", "0.3", "--times", "0,0.5,10,1000",
                      "--f-count", "21"],
        "pip-alpha0": ["--alpha", "0", "--times", "0,2,50", "--f-count", "11"],
        "pip-alpha1": ["--alpha", "1", "--times", "1e-3,3,1e4",
                       "--f-count", "11"],
        "pip-fmax-tiny": ["--alpha", "0.7", "--times", "1,100",
                          "--f-count", "11", "--f-max", "1e-4"],
        # The middle fraction, 5e-311, is subnormal.
        "pip-fmax-subnormal": ["--alpha", "0.5", "--times", "1",
                               "--f-count", "3", "--f-max", "1e-310"],
    }
    red = {
        "redundancy-log": ["--alpha", "0.6", "--t-start", "1",
                           "--t-stop", "1000", "--t-count", "25"],
        "redundancy-linear": ["--t-start", "0", "--t-stop", "60",
                              "--t-count", "13", "--spacing", "linear"],
        "redundancy-delta-tiny": ["--alpha", "0.25", "--delta", "1e-15",
                                  "--t-start", "10", "--t-stop", "1e4",
                                  "--t-count", "9"],
    }
    for command, table in (("pip", pip), ("redundancy", red)):
        for case_id, args in table.items():
            for fmt in ("csv", "json"):
                cases[f"{case_id}-{fmt}"] = [command, *args, "--format", fmt]
    sweeps = [
        ("mi", "t_over_tauD", "0", "40", "linear", ["alpha=0.4", "f=0.3"]),
        ("mi", "f", "0", "1", "linear", ["t_over_tauD=7"]),
        ("mi", "f", "0", "1", "linear", ["alpha=0"]),
        ("mi_unbalanced", "t_over_tauD", "1e-3", "1e3", "log", []),
        ("mi_unbalanced", "f", "0", "1", "linear", ["mu=0.2"]),
        ("mi_unbalanced", "mu", "0", "1", "linear", ["t_over_tauD=3"]),
        ("mi_mway", "t_over_tauD", "1e-3", "1e3", "log", ["M=5"]),
        ("mi_mway", "f", "0", "1", "linear", ["t_over_tauD=4"]),
        ("mi_mway", "M", "2", "9", "linear", ["f=0.35"]),
        ("redundancy", "t_over_tauD", "0", "60", "linear", ["alpha=0.7"]),
        ("redundancy", "delta", "1e-15", "0.3", "log", ["t_over_tauD=40"]),
    ]
    for i, (quantity, axis, start, stop, spacing, fix) in enumerate(sweeps):
        argv = ["sweep", "--quantity", quantity, "--axis", axis,
                "--start", start, "--stop", stop, "--count", "15",
                "--spacing", spacing]
        for assignment in fix:
            argv += ["--fix", assignment]
        fmt = "json" if i % 3 == 0 else "csv"
        cases[f"sweep-{quantity}-{axis}-{i}-{fmt}"] = argv + ["--format", fmt]
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


@pytest.mark.parametrize("case_id", sorted(CASES))
def test_out_file_receives_the_golden_bytes(case_id, golden, inputs, tmp_path,
                                            capsys):
    out = tmp_path / "table.out"
    assert main(_argv(case_id, inputs) + ["--out", str(out)]) == EXIT_OK
    assert capsys.readouterr().out == ""
    assert out.read_text() == golden[case_id]


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
