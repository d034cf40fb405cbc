"""End-to-end tests for the command line front end.

Everything but the import check runs in-process through main(argv), so
exit codes and output bytes are checked without shelling out.
"""

import argparse
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import photon_darwinism
from photon_darwinism.cli import (
    EXIT_CAP,
    EXIT_CHECK,
    EXIT_CONFIG,
    EXIT_OK,
    _build_parser,
    _parse,
    _quadrature_order,
    main,
)
from photon_darwinism.receptivity import alpha_disk
from photon_darwinism.superpositions import mi_mway
from test_golden_outputs import CASES as GOLDEN_CASES

BASE_CFG = (
    "radius_m = 1e-6\n"
    "permittivity = 4.0\n"
    "dx_m = 1e-6\n"
    "temperature_K = 2.725\n"
)


@pytest.fixture
def disk_config(tmp_path):
    path = tmp_path / "disk.cfg"
    path.write_text(BASE_CFG + "region = disk:60:0\n")
    return str(path)


@pytest.fixture
def point_config(tmp_path):
    path = tmp_path / "point.cfg"
    path.write_text(BASE_CFG + "region = point:45\nirradiance_W_m2 = 1e-5\n")
    return str(path)


class TestRate:
    def test_disk_json_report(self, disk_config, capsys):
        assert main(["rate", "--config", disk_config]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["ratio_to_isotropic"] == pytest.approx(0.353125, rel=1e-9)
        assert report["tau_D_inv_per_s"] == pytest.approx(
            0.353125 * report["T_D_inv_per_s"], rel=1e-9
        )
        assert report["photon_density_per_m3"] == pytest.approx(4.105e8, rel=1e-3)

    def test_csv_format(self, disk_config, capsys):
        assert main(["rate", "--config", disk_config, "--format", "csv"]) == EXIT_OK
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "quantity,value"
        table = dict(line.split(",") for line in lines[1:])
        assert float(table["ratio_to_isotropic"]) == pytest.approx(0.353125,
                                                                   rel=1e-9)

    def test_a_tiny_cap_has_its_rate(self, tmp_path, capsys):
        # A cap of 1e-8 rad, where 1 - cos(theta0) rounds to 0: its rate
        # printed 0 with a false "region has zero solid angle" warning.
        path = tmp_path / "tiny.cfg"
        path.write_text(BASE_CFG + "region = disk:5.7e-7:30\n")
        assert main(["rate", "--config", str(path)]) == EXIT_OK
        captured = capsys.readouterr()
        assert captured.err == ""
        # disk_rate's closed form at 40 digits: 4.17530529936710e-17.
        assert json.loads(captured.out)["ratio_to_isotropic"] == pytest.approx(
            4.17530529936710e-17, rel=1e-11)

    def test_point_source(self, point_config, capsys):
        assert main(["rate", "--config", point_config]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["tau_D_inv_per_s"] > 0.0

    def test_point_without_irradiance_is_a_config_error(self, tmp_path, capsys):
        path = tmp_path / "pt.cfg"
        path.write_text(BASE_CFG + "region = point:45\n")
        assert main(["rate", "--config", str(path)]) == EXIT_CONFIG
        assert "irradiance" in capsys.readouterr().err

    def test_unknown_key_is_reported(self, tmp_path, capsys):
        path = tmp_path / "typo.cfg"
        path.write_text(BASE_CFG + "region = isotropic\npermitivity = 4\n")
        assert main(["rate", "--config", str(path)]) == EXIT_CONFIG
        assert "permitivity" in capsys.readouterr().err

    def test_missing_file(self, tmp_path, capsys):
        missing = str(tmp_path / "nope.cfg")
        assert main(["rate", "--config", missing]) == EXIT_CONFIG
        assert "config error" in capsys.readouterr().err

    def test_out_writes_a_file(self, disk_config, tmp_path, capsys):
        out = tmp_path / "rate.json"
        assert main(["rate", "--config", disk_config, "--out", str(out)]) == EXIT_OK
        assert capsys.readouterr().out == ""
        assert json.loads(out.read_text())["ratio_to_isotropic"] > 0.0


class TestAlpha:
    def test_disk_closed_form_and_quadrature_agree(self, disk_config, capsys):
        assert main(["alpha", "--config", disk_config]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        expected = alpha_disk(math.radians(60.0), 0.0)
        assert report["alpha"] == pytest.approx(expected, rel=1e-9)
        assert report["alpha_closed_form"] == pytest.approx(expected, rel=1e-9)
        assert report["closed_quadrature_gap"] < 1e-9
        assert report["tau_R_inv_over_T_D_inv"] == pytest.approx(
            expected * 0.353125, rel=1e-8
        )

    def test_point_region_is_unit_alpha(self, point_config, capsys):
        assert main(["alpha", "--config", point_config]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["alpha"] == 1.0
        assert report["alpha_quadrature"] is None
        assert report["tau_R_inv_per_s"] > 0.0


class TestPip:
    def test_csv_blocks(self, capsys):
        rc = main(["pip", "--times", "0,10", "--f-count", "6"])
        assert rc == EXIT_OK
        blocks = capsys.readouterr().out.strip().split("\n\n")
        assert len(blocks) == 2
        first = blocks[0].splitlines()
        assert first[0] == "# t_over_tauD = 0"
        assert first[1] == "f,mi_nats"
        # at t = 0 nothing has been learned at any fragment size
        assert all(line.endswith(",0") for line in first[2:])
        second = blocks[1].splitlines()
        assert second[0] == "# t_over_tauD = 10"
        row = dict(line.split(",") for line in second[2:])
        assert float(row["0.2"]) == pytest.approx(0.6240091046964, rel=1e-9)
        assert float(row["1"]) == pytest.approx(1.38624896085, rel=1e-9)

    def test_json_payload(self, capsys):
        rc = main(["pip", "--times", "10", "--f-count", "3", "--format", "json"])
        assert rc == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["alpha"] == 1.0
        assert len(payload["blocks"]) == 1
        assert payload["blocks"][0]["f"] == [0.0, 0.5, 1.0]

    def test_alpha_from_config(self, disk_config, capsys):
        rc = main(["pip", "--times", "10", "--f-count", "3", "--format", "json",
                   "--config", disk_config])
        assert rc == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["alpha"] == pytest.approx(
            alpha_disk(math.radians(60.0), 0.0), rel=1e-9
        )

    def test_explicit_alpha_wins_over_config(self, disk_config, capsys):
        rc = main(["pip", "--times", "10", "--f-count", "3", "--format", "json",
                   "--config", disk_config, "--alpha", "0.25"])
        assert rc == EXIT_OK
        assert json.loads(capsys.readouterr().out)["alpha"] == 0.25

    def test_bad_inputs(self, capsys):
        assert main(["pip", "--times=-1,3"]) == EXIT_CONFIG
        assert main(["pip", "--times", "10", "--f-max", "0"]) == EXIT_CONFIG
        assert main(["pip", "--times", "10", "--alpha", "1.5"]) == EXIT_CONFIG
        capsys.readouterr()


class TestRedundancy:
    def test_growth_table(self, capsys):
        rc = main(["redundancy", "--t-start", "1", "--t-stop", "1000",
                   "--t-count", "4", "--spacing", "log"])
        assert rc == EXIT_OK
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "t_over_tauD,R_exact,R_estimate,R_lower"
        rows = [line.split(",") for line in lines[1:]]
        assert [r[0] for r in rows] == ["1", "10", "100", "1000"]
        # the plateau is not deep enough at t = 1 for an exact answer or
        # the footnote bound
        assert rows[0][1] == "" and rows[0][3] == ""
        assert float(rows[2][1]) == pytest.approx(23.35983999794, rel=1e-9)
        assert float(rows[2][2]) == pytest.approx(23.3724810845, rel=1e-9)
        assert float(rows[2][3]) == pytest.approx(21.71472409516, rel=1e-9)

    def test_json_rows(self, capsys):
        rc = main(["redundancy", "--t-start", "50", "--t-stop", "100",
                   "--t-count", "2", "--spacing", "linear", "--format", "json"])
        assert rc == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload[0]["t_over_tauD"] == 50.0
        assert payload[1]["R_exact"] == pytest.approx(23.35983999794, rel=1e-9)

    def test_delta_bounds(self, capsys):
        assert main(["redundancy", "--delta", "0.9"]) == EXIT_CONFIG
        assert "delta" in capsys.readouterr().err
        assert main(["redundancy", "--t-start", "0", "--t-stop", "10",
                     "--t-count", "3"]) == EXIT_CONFIG
        capsys.readouterr()


class TestOracle:
    def test_battery_passes_and_reports(self, capsys):
        assert main(["oracle", "--seed", "7"]) == EXIT_OK
        captured = capsys.readouterr()
        report = json.loads(captured.out)
        assert report["seed"] == 7
        assert report["all_passed"] is True
        assert len(report["checks"]) == 18
        assert captured.err.count("ok  ") == 18
        assert "FAIL" not in captured.err

    def test_finite_model_section(self, capsys):
        rc = main(["oracle", "--db", "4", "--fn", "3", "--b-scale", "0.005"])
        assert rc == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        model = report["model"]
        assert model["D_B"] == 4 and model["fN"] == 3
        assert model["entropy_change_exact"] == pytest.approx(
            model["entropy_change_analytic"], rel=1e-2
        )

    def test_model_flags_come_in_pairs(self, capsys):
        assert main(["oracle", "--db", "4"]) == EXIT_CONFIG
        capsys.readouterr()

    @pytest.mark.parametrize("argv,flag", [
        (["--db", "3"], "--db and --fn"),
        (["--fn", "2"], "--db and --fn"),
        (["--db", "3", "--fn", "2", "--b-scale", "nan"], "--b-scale"),
        (["--db", "3", "--fn", "2", "--b-scale", "2"], "--b-scale"),
        (["--db", "3", "--fn", "2", "--b-scale=-1.5"], "--b-scale"),
        (["--b-scale", "inf"], "--b-scale"),
        (["--seed=-1"], "--seed"),
    ])
    def test_inputs_checked_before_the_battery(self, argv, flag, capsys,
                                               monkeypatch):
        def battery(seed=0):
            raise AssertionError("the battery ran before input checks")

        monkeypatch.setattr("photon_darwinism.cli.oracle_battery", battery)
        assert main(["oracle"] + argv) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert flag in captured.err

    def test_unit_b_scale_is_accepted(self, capsys, monkeypatch):
        monkeypatch.setattr("photon_darwinism.cli.oracle_battery",
                            lambda seed=0: {"seed": seed, "all_passed": True,
                                            "checks": []})
        assert main(["oracle", "--db", "2", "--fn", "1",
                     "--b-scale", "1"]) == EXIT_OK
        model = json.loads(capsys.readouterr().out)["model"]
        assert model["b"] == -1.0

    def test_cap_exit_code(self, capsys):
        assert main(["oracle", "--db", "10", "--fn", "10"]) == EXIT_CAP
        assert "cap exceeded" in capsys.readouterr().err

    def test_int64_multiplicities_are_a_cap(self, capsys):
        # Within the cap, but 2^70's multiplicities overflow int64: this
        # ended in an OverflowError traceback with exit 1.
        argv = ["oracle", "--db", "2", "--fn", "70", "--cap", str(10 ** 26)]
        assert main(argv) == EXIT_CAP
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("cap exceeded: multiplicities of D_B^fN = "
                                "2^70 do not fit in int64\n")

    def test_check_failure_exit_code(self, capsys, monkeypatch):
        fake = {"seed": 0, "all_passed": False,
                "checks": [{"name": "broken", "passed": False}]}
        monkeypatch.setattr("photon_darwinism.cli.oracle_battery",
                            lambda seed=0: dict(fake))
        assert main(["oracle"]) == EXIT_CHECK
        assert "FAIL broken" in capsys.readouterr().err

    def test_csv_format(self, capsys):
        assert main(["oracle", "--format", "csv"]) == EXIT_OK
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "check,passed"
        assert all(line.endswith(",1") for line in lines[1:])


class TestSweep:
    def test_alpha_against_aperture(self, capsys):
        rc = main(["sweep", "--quantity", "alpha", "--axis", "theta0",
                   "--start", "10", "--stop", "170", "--count", "9"])
        assert rc == EXIT_OK
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "theta0,alpha"
        for line in lines[1:]:
            theta0, value = (float(x) for x in line.split(","))
            assert value == pytest.approx(
                alpha_disk(math.radians(theta0), 0.0), rel=1e-9
            )

    def test_fix_overrides(self, capsys):
        rc = main(["sweep", "--quantity", "mi", "--axis", "f",
                   "--start", "0", "--stop", "1", "--count", "3",
                   "--fix", "t_over_tauD=10", "--fix", "alpha=0.5"])
        assert rc == EXIT_OK
        lines = capsys.readouterr().out.strip().splitlines()
        from photon_darwinism.information import mutual_information_at_time

        mid = float(lines[2].split(",")[1])
        assert mid == pytest.approx(mutual_information_at_time(10.0, 0.5, 0.5),
                                    rel=1e-9)

    def test_branch_axis_snaps_to_integers(self, capsys):
        rc = main(["sweep", "--quantity", "mi_mway", "--axis", "M",
                   "--start", "2", "--stop", "6", "--count", "5"])
        assert rc == EXIT_OK
        lines = capsys.readouterr().out.strip().splitlines()
        for line in lines[1:]:
            m_val, value = line.split(",")
            M = int(float(m_val))
            assert value == "%.12g" % mi_mway(math.exp(-10.0), 0.2, M)

    def test_json_output(self, capsys):
        rc = main(["sweep", "--quantity", "redundancy", "--axis", "t_over_tauD",
                   "--start", "10", "--stop", "1000", "--count", "3",
                   "--spacing", "log", "--format", "json"])
        assert rc == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["axis"] == "t_over_tauD"
        assert payload["points"][1][0] == 100.0
        assert payload["points"][1][1] == pytest.approx(23.35983999794, rel=1e-9)

    def test_deterministic_bytes(self, capsys):
        argv = ["sweep", "--quantity", "rate_ratio", "--axis", "chi",
                "--start", "0", "--stop", "90", "--count", "7"]
        assert main(argv) == EXIT_OK
        first = capsys.readouterr().out
        assert main(argv) == EXIT_OK
        assert capsys.readouterr().out == first

    def test_bad_requests(self, capsys):
        assert main(["sweep", "--quantity", "alpha", "--axis", "f",
                     "--start", "0", "--stop", "1", "--count", "3"]) == EXIT_CONFIG
        assert main(["sweep", "--quantity", "mi", "--axis", "f",
                     "--start", "0", "--stop", "1", "--count", "3",
                     "--fix", "bogus=1"]) == EXIT_CONFIG
        assert main(["sweep", "--quantity", "mi", "--axis", "t_over_tauD",
                     "--start", "0", "--stop", "10", "--count", "3",
                     "--spacing", "log"]) == EXIT_CONFIG
        capsys.readouterr()

    # A domain error is the library's, printed as it was raised: it names
    # the parameter and its first bad value, an angle in radians.
    @pytest.mark.parametrize("argv,message", [
        (["--quantity", "mi", "--axis", "t_over_tauD", "--start", "-5",
          "--stop", "5"], "t_over_tauD must be finite and nonnegative, got -5.0"),
        (["--quantity", "mi", "--axis", "f", "--start", "0", "--stop", "2"],
         "f must be in [0, 1], got 2.0"),
        (["--quantity", "redundancy", "--axis", "delta",
          "--start", "0.5", "--stop", "2"], "delta must be in (0, 1), got 1.25"),
        (["--quantity", "mi_unbalanced", "--axis", "t_over_tauD",
          "--start", "-1000", "--stop", "1"],
         "t_over_tauD must be finite and nonnegative, got -1000.0"),
        (["--quantity", "mi_mway", "--axis", "f", "--start", "0",
          "--stop", "1", "--fix", "M=1"],
         "branch count must be an integer >= 2, got 1.0"),
        (["--quantity", "mi_mway", "--axis", "f", "--start", "0",
          "--stop", "1", "--fix", "M=2.5"],
         "branch count must be an integer >= 2, got 2.5"),
        # The two cat sweeps checked no time before exp(-t), so a negative
        # one blamed gamma = exp(1) or raised "math range error".
        (["--quantity", "mi_unbalanced", "--axis", "t_over_tauD",
          "--start", "-1", "--stop", "1"],
         "t_over_tauD must be finite and nonnegative, got -1.0"),
        (["--quantity", "mi_mway", "--axis", "t_over_tauD",
          "--start", "-1000", "--stop", "1"],
         "t_over_tauD must be finite and nonnegative, got -1000.0"),
        (["--quantity", "mi_unbalanced", "--axis", "f", "--start", "0",
          "--stop", "1", "--fix", "t_over_tauD=-2"],
         "t_over_tauD must be finite and nonnegative, got -2.0"),
        (["--quantity", "mi_mway", "--axis", "f", "--start", "0",
          "--stop", "1", "--fix", "t_over_tauD=-2"],
         "t_over_tauD must be finite and nonnegative, got -2.0"),
        (["--quantity", "mi", "--axis", "f", "--start", "0", "--stop", "1",
          "--fix", "t_over_tauD=5", "--fix", "alpha=2"],
         "alpha must be in [0, 1], got 2.0"),
        (["--quantity", "alpha", "--axis", "theta0", "--start", "0",
          "--stop", "270"], "theta0 must be in [0, pi], got 4.71238898038469"),
    ])
    def test_domain_errors_name_the_input(self, argv, message, capsys):
        assert main(["sweep", "--count", "3"] + argv) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize("argv", [
    ["pip", "--times", "10"],
    ["redundancy"],
    ["sweep", "--quantity", "mi", "--axis", "f", "--start", "0", "--stop", "1",
     "--count", "3"],
], ids=["pip", "redundancy", "sweep"])
def test_jobs_is_rejected(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--jobs", "1"])
    assert exc.value.code == EXIT_CONFIG
    assert "unrecognized arguments: --jobs 1" in capsys.readouterr().err


def test_cli_import_loads_no_scipy_or_process_pool():
    # A fresh interpreter, so modules imported by other tests do not count.
    src = str(Path(photon_darwinism.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    code = (
        "import sys, photon_darwinism.cli\n"
        "banned = ('scipy', 'multiprocessing', 'concurrent.futures.process')\n"
        "print(' '.join(m for m in banned if m in sys.modules))\n"
    )
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == ""


@pytest.mark.parametrize("command,default", [
    ("rate", "json"), ("alpha", "json"), ("pip", "csv"),
    ("redundancy", "csv"), ("oracle", "json"), ("sweep", "csv"),
])
def test_help_states_the_format_default(command, default, capsys):
    with pytest.raises(SystemExit):
        main([command, "--help"])
    assert f"output format (default {default})" in capsys.readouterr().out


def test_argparse_rejections_use_the_config_exit_code(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["rate"])  # missing required --config
    assert excinfo.value.code == 2
    # The sweep table's keys are the parser's choices: no later check exists.
    with pytest.raises(SystemExit) as excinfo:
        main(["sweep", "--quantity", "nonsense", "--axis", "f",
              "--start", "0", "--stop", "1", "--count", "3"])
    assert excinfo.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "invalid choice: 'nonsense'" in captured.err


# The CLI checks the grid endpoints it spaces itself; a time or a --fix
# value goes to the library as typed, and the library names it.
@pytest.mark.parametrize("argv,name", [
    (["pip", "--times", "1,nan"], "t_over_tauD"),
    (["pip", "--times", "inf"], "t_over_tauD"),
    (["redundancy", "--t-start", "nan"], "--t-start"),
    (["redundancy", "--t-stop", "nan"], "--t-stop"),
    (["redundancy", "--t-stop", "inf"], "--t-stop"),
    (["sweep", "--quantity", "alpha", "--axis", "theta0",
      "--start", "nan", "--stop", "90", "--count", "3"], "--start"),
    (["sweep", "--quantity", "alpha", "--axis", "theta0",
      "--start", "0", "--stop", "inf", "--count", "3"], "--stop"),
    (["sweep", "--quantity", "mi", "--axis", "f", "--start", "0",
      "--stop", "0.5", "--count", "3", "--fix", "t_over_tauD=nan"],
     "t_over_tauD"),
])
def test_non_finite_numbers_are_config_errors(argv, name, capsys):
    assert main(argv) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {name} must be finite")


@pytest.mark.parametrize("command,extra,key", [
    ("rate", "region = disk:60:0\n", "radius_m = nan\n"),
    ("rate", "region = isotropic\n", "permittivity = inf\n"),
    ("alpha", "region = point:45\n", "irradiance_W_m2 = 0\n"),
    ("alpha", "region = point:45\n", "irradiance_W_m2 = -1\n"),
    ("pip", "region = disk:30:0\n", "temperature_K = nan\n"),
], ids=["rate-nan-radius", "rate-inf-permittivity", "alpha-zero-irradiance",
        "alpha-negative-irradiance", "pip-nan-temperature"])
def test_scenario_values_out_of_domain_are_named(command, extra, key,
                                                 tmp_path, capsys):
    name = key.split(" = ")[0]
    base = "".join(line + "\n" for line in BASE_CFG.splitlines()
                   if not line.startswith(name))
    path = tmp_path / "bad.cfg"
    path.write_text(base + extra + key)
    argv = [command, "--config", str(path)]
    if command == "pip":
        argv += ["--times", "1"]
    assert main(argv) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"config error: {path}: {name} must be finite and above" in captured.err


# At 7e35 K the full-sky rate overflowed to Infinity and printed with exit
# 0; at 1e36 K y**8 raised "(34, 'Numerical result out of range')", which
# named no input.
@pytest.mark.filterwarnings("ignore:thermal wavelength")
@pytest.mark.parametrize("temperature", ["7e35", "1e36"])
@pytest.mark.parametrize("command", ["rate", "alpha"])
def test_overflowing_rate_names_the_temperature(command, temperature,
                                                 tmp_path, capsys):
    path = tmp_path / "hot.cfg"
    path.write_text(BASE_CFG.replace("2.725", temperature)
                    + "region = disk:30:0\n")
    assert main([command, "--config", str(path)]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"config error: {path}: decoherence rate is not a finite double at "
        f"temperature_K = {float(temperature)} (radius_m = 1e-06, "
        "dx_m = 1e-06)\n")


# A point beam at 1e300 W/m^2 and 1e30 K: the full-sky rate is finite,
# but rate printed an Infinity rate with exit 0 and alpha named neither
# input.
@pytest.mark.filterwarnings("ignore:thermal wavelength")
@pytest.mark.parametrize("command", ["rate", "alpha"])
def test_overflowing_point_rate_names_its_inputs(command, tmp_path, capsys):
    path = tmp_path / "beam.cfg"
    path.write_text(BASE_CFG.replace("2.725", "1e30")
                    + "region = point:45\nirradiance_W_m2 = 1e300\n")
    assert main([command, "--config", str(path)]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"config error: {path}: decoherence rate is not a finite double at "
        "irradiance_W_m2 = 1e+300 and temperature_K = 1e+30 (radius_m = "
        "1e-06, dx_m = 1e-06)\n")


# Below about 1e-301 K, k_B T underflows to 0, and the thermal wavelength
# divided by it: rate, alpha and pip --config ended in a ZeroDivisionError
# traceback. The rates underflow to 0 too, which a disk prints.
@pytest.mark.parametrize("temperature", ["1e-305", "5e-324"])
@pytest.mark.parametrize("command", ["rate", "alpha", "pip"])
def test_cold_disk_prints_zero_rates(command, temperature, tmp_path, capsys):
    path = tmp_path / "cold.cfg"
    path.write_text(BASE_CFG.replace("2.725", temperature)
                    + "region = disk:60:0\n")
    argv = [command, "--config", str(path), "--format", "json"]
    if command == "pip":
        argv += ["--times", "1", "--f-count", "3"]
    assert main(argv) == EXIT_OK
    captured = capsys.readouterr()
    assert captured.err == ""
    report = json.loads(captured.out)
    if command == "rate":
        assert report["tau_D_inv_per_s"] == report["T_D_inv_per_s"] == 0.0
        assert report["ratio_to_isotropic"] == pytest.approx(0.353125)
    elif command == "alpha":
        assert report["tau_R_inv_per_s"] == 0.0
        assert math.isfinite(report["tau_R_inv_over_T_D_inv"])
    else:
        assert report["alpha"] == pytest.approx(alpha_disk(math.radians(60), 0))


# A point beam's rate ratio divides by the full-sky rate, which underflows
# to 0 at 1e-40 K; the message named no input ("float division by zero").
# pip --config takes only alpha from the scenario, and needs no rate.
@pytest.mark.parametrize("command", ["rate", "alpha", "pip"])
def test_cold_point_beam_names_the_temperature(command, tmp_path, capsys):
    path = tmp_path / "cold-beam.cfg"
    path.write_text(BASE_CFG.replace("2.725", "1e-40")
                    + "region = point:45\nirradiance_W_m2 = 1e-5\n")
    argv = [command, "--config", str(path)]
    if command == "pip":
        assert main(argv + ["--times", "1"]) == EXIT_OK
        assert capsys.readouterr().err == ""
        return
    assert main(argv) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"config error: {path}: full-sky decoherence rate underflows to 0 at "
        "temperature_K = 1e-40 (radius_m = 1e-06, dx_m = 1e-06), so a point "
        "beam has no ratio to it\n")


@pytest.mark.parametrize("command", ["alpha", "pip"])
def test_degenerate_custom_region_is_a_config_error(command, tmp_path, capsys):
    # Every lit cell sits at the pole, so the receptivity's overlap
    # integral vanishes; this ended in a traceback with exit 1.
    grid = tmp_path / "pole.txt"
    grid.write_text("# 1 2\n1.0 1.0 1\n1.0 2.0 0\n")
    path = tmp_path / "pole.cfg"
    path.write_text(BASE_CFG + f"region = custom:{grid}\n")
    argv = [command, "--config", str(path)]
    if command == "pip":
        argv += ["--times", "1"]
    assert main(argv) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"config error: {path}: degenerate region: "
                            "overlap integral vanished\n")


# A fully lit 3 x 4 band over cos(theta) in [0.7, 1] leaves no cells for the
# rest of the sky, and a fully lit 2 x 4 grid at u = -1, 1 prices 24 sr, more
# than the sphere; alpha printed 0 for both. The rate needs no complement and
# still prices the band, but refuses the grid that prices more than the sphere
# (it printed ratio_to_isotropic 4.01).
NON_TILING_GRIDS = {
    "band": ("# 3 4\n" + "".join(
        f"{u} {(j + 0.5) * math.pi / 2.0:.6f} 1\n"
        for u in (0.75, 0.85, 0.95) for j in range(4)),
        "0.3 in cos(theta) and 6.28319 in phi"),
    "over-sphere": ("# 2 4\n" + "".join(
        f"{u} {phi} 1\n" for u in (-1.0, 1.0) for phi in (0.5, 2.0, 3.5, 5.0)),
        "4 in cos(theta) and 6 in phi"),
}


@pytest.mark.parametrize("grid_name", sorted(NON_TILING_GRIDS))
@pytest.mark.parametrize("command,code", [
    ("alpha", EXIT_CONFIG), ("pip", EXIT_CONFIG), ("rate", EXIT_OK)])
def test_grid_that_does_not_tile_the_sphere(command, code, grid_name,
                                            tmp_path, capsys):
    text, spans = NON_TILING_GRIDS[grid_name]
    grid = tmp_path / "grid.txt"
    grid.write_text(text)
    path = tmp_path / "grid.cfg"
    path.write_text(BASE_CFG + f"region = custom:{grid}\n")
    argv = [command, "--config", str(path)]
    if command == "pip":
        argv += ["--times", "1"]
    over = command == "rate" and grid_name == "over-sphere"
    assert main(argv) == (EXIT_CONFIG if over else code)
    captured = capsys.readouterr()
    if over:
        assert captured.out == ""
        assert captured.err == (f"config error: {path}: custom grid prices "
                                "24 sr, more than the sphere (4 pi)\n")
    elif code == EXIT_OK:
        assert captured.err == ""
        assert json.loads(captured.out)["ratio_to_isotropic"] > 0.0
    else:
        assert captured.out == ""
        assert captured.err == (
            f"config error: {path}: custom grid spans {spans}; alpha needs "
            "a grid that tiles the sphere (2 and 2 pi)\n")


@pytest.mark.parametrize("argv", [
    *(["rate", "--order", order] for order in ("16", "64", "128")),
    *(["alpha", "--order", order] for order in ("16", "64", "128")),
    ["pip", "--times", "0.5,3", "--f-count", "6"],
], ids=["rate-16", "rate-64", "rate-128", "alpha-16", "alpha-64", "alpha-128",
        "pip"])
def test_isotropic_sky_prints_the_bytes_of_the_180_degree_disk(argv, tmp_path,
                                                                capsys):
    printed = []
    for region in ("isotropic", "disk:180:0"):
        path = tmp_path / "sky.cfg"
        path.write_text(BASE_CFG + f"region = {region}\n")
        assert main([*argv, "--config", str(path)]) == EXIT_OK
        printed.append(capsys.readouterr())
    assert printed[0].out != "" and printed[0].err == ""
    assert printed[0] == printed[1]


# A warning used to reach stderr in Python's own format: the file and line
# that raised it ("<string>:9" for the dataclass-generated __init__), then
# that line's source.
@pytest.mark.filterwarnings("default")
@pytest.mark.parametrize("scenario, message", [
    (BASE_CFG + "region = disk:0:30\n",
     "region has zero solid angle; decoherence rate is 0"),
    (BASE_CFG.replace("1e-6", "1e-3", 1).replace("2.725", "300")
     + "region = isotropic\n",
     "thermal wavelength 4.8e-05 m is not large compared to the sphere "
     "(0.001 m) or the separation (1e-06 m); dipole-regime formulas are "
     "being extrapolated"),
], ids=["zero-solid-angle", "dipole-regime"])
def test_library_warnings_are_one_line_on_stderr(scenario, message, tmp_path,
                                                 capsys):
    path = tmp_path / "warn.cfg"
    path.write_text(scenario)
    shown = warnings.showwarning
    # A second call in the same process prints the warning again.
    for _ in range(2):
        assert main(["rate", "--config", str(path)]) == EXIT_OK
        assert warnings.showwarning is shown
        captured = capsys.readouterr()
        assert captured.err == f"warning: {message}\n"
        assert json.loads(captured.out)["T_D_inv_per_s"] > 0.0


def test_warning_filters_still_apply_inside_main(tmp_path):
    path = tmp_path / "zero.cfg"
    path.write_text(BASE_CFG + "region = disk:0:30\n")
    with pytest.raises(UserWarning, match="zero solid angle"):
        main(["rate", "--config", str(path)])


@pytest.mark.parametrize("command", ["rate", "alpha", "pip"])
@pytest.mark.parametrize("order", ["1", "0", "1025", "5000"])
def test_order_outside_its_range_is_a_config_error(command, order,
                                                   disk_config, capsys):
    # Order 1 printed a full-sky ratio_to_isotropic of 0.45 with exit 0, and
    # node memory grows as the square of the order.
    argv = [command, "--config", disk_config, "--order", order]
    if command == "pip":
        argv += ["--times", "1"]
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert (f"argument --order: expected a quadrature order in [2, 1024], "
            f"got {order}") in captured.err


def test_order_range_endpoints_are_accepted(disk_config, capsys):
    assert _quadrature_order("1024") == 1024
    assert main(["rate", "--config", disk_config, "--order", "2"]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["ratio_to_isotropic"] > 0.0


def test_negative_start_time_is_a_config_error(capsys):
    argv = ["redundancy", "--t-start", "-5", "--t-stop", "10",
            "--t-count", "3", "--spacing", "linear"]
    assert main(argv) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: t_over_tauD must be finite and nonnegative, got -5.0\n")


class TestParserReuse:
    """main() builds its parser once; earlier calls must not leak state."""

    SWEEP = ["sweep", "--quantity", "mi", "--axis", "f",
             "--start", "0", "--stop", "0.5", "--count", "4"]

    def _run(self, argv, capsys):
        rc = main(argv)
        captured = capsys.readouterr()
        return rc, captured.out, captured.err

    def test_after_an_argparse_rejection(self, disk_config, capsys):
        argv = ["alpha", "--config", disk_config, "--order", "16"]
        first = self._run(argv, capsys)
        with pytest.raises(SystemExit):
            main(["alpha", "--order", "16"])
        capsys.readouterr()
        assert self._run(argv, capsys) == first

    def test_after_a_cli_error(self, capsys):
        argv = ["pip", "--times", "1,10", "--f-count", "5"]
        first = self._run(argv, capsys)
        assert main(["pip", "--times", "1", "--f-count", "1"]) == EXIT_CONFIG
        capsys.readouterr()
        assert self._run(argv, capsys) == first

    def test_fix_does_not_stick(self, capsys):
        default = self._run(self.SWEEP, capsys)
        fixed = self._run(self.SWEEP + ["--fix", "f=0.3",
                                        "--fix", "t_over_tauD=2"], capsys)
        assert fixed != default
        assert self._run(self.SWEEP, capsys) == default
        payload = self._run(self.SWEEP + ["--format", "json"], capsys)[1]
        assert json.loads(payload)["fixed"] == {
            "t_over_tauD": 10.0, "f": 0.2, "alpha": 1.0
        }


# main() parses an argv that starts with a command by that command's parser
# alone; these argvs probe where that could part from the full parser.
RATE = ["rate", "--config", "scn.cfg"]
SWEEP_MI = ["sweep", "--quantity", "mi", "--axis", "f", "--start", "0",
            "--stop", "1", "--count", "3"]
DISPATCH_ARGVS = {
    "empty": [],
    "short-help": ["-h"],
    "long-help": ["--help"],
    "unknown-command": ["nope"],
    "option-before-command": ["-x", "rate"],
    "missing-config": ["rate"],
    "config-without-value": ["rate", "--config"],
    "unknown-option": RATE + ["--bogus"],
    "extra-positional": RATE + ["extra"],
    "abbreviation": ["rate", "--conf", "scn.cfg"],
    "repeated-option": RATE + ["--config", "other.cfg"],
    "double-dash-value": ["rate", "--config", "--", "scn.cfg"],
    "double-dash-after-command": ["rate", "--", "scn.cfg"],
    "bare-fix": SWEEP_MI + ["--fix"],
    "order-out-of-range": RATE + ["--order", "1"],
    "command-help": ["rate", "-h"],
    "command-help-abbreviated": ["rate", "--he"],
    "version": ["--version"],
    "bad-seed": ["oracle", "--seed", "x"],
    "ambiguous-abbreviation": ["oracle", "--f", "csv"],
    "explicit-value": ["rate", "--config=scn.cfg", "--format=csv"],
    "negative-exponent": ["oracle", "--db", "2", "--fn", "1",
                          "--b-scale", "-1e-3"],
    "negative-exponent-start": ["sweep", "--quantity", "alpha", "--axis",
                                "chi", "--start", "-1e-3", "--stop", "1",
                                "--count", "2"],
    "negative-infinity": ["oracle", "--b-scale", "-inf"],
    "negative-before-command": ["-1", "oracle"],
    "negative-after-command": ["oracle", "-1"],
    "fix-repeated": SWEEP_MI + ["--fix", "f=0.3", "--fix", "alpha=0.5"],
}
# Every golden invocation too; its scenario placeholders such as {disk}
# stay as written, since parsing opens no file.
DISPATCH_ARGVS.update((f"golden-{case_id}", argv)
                      for case_id, argv in GOLDEN_CASES.items())


def _outcome(parse, argv, capsys):
    """(Namespace or exit code, stdout, stderr) of one parse of argv."""
    try:
        result = parse(argv)
    except SystemExit as exc:
        result = exc.code
    captured = capsys.readouterr()
    return result, captured.out, captured.err


@pytest.mark.parametrize("argv", DISPATCH_ARGVS.values(),
                         ids=DISPATCH_ARGVS.keys())
def test_main_parses_as_the_full_parser(argv, capsys):
    full = _outcome(_build_parser()[0].parse_args, argv, capsys)
    if isinstance(full[0], argparse.Namespace):
        # command and func included: Namespaces compare all attributes.
        assert _outcome(_parse, argv, capsys) == full
        assert full[0].command == argv[0] and callable(full[0].func)
    else:
        assert _outcome(main, argv, capsys) == full


class TestNegativeExponents:
    """A negative number written with an exponent is a value, not a flag."""

    def test_b_scale_prints_the_bytes_of_its_decimal_form(self, capsys):
        model = ["oracle", "--db", "2", "--fn", "1", "--format", "csv"]
        assert main(model + ["--b-scale", "-0.001"]) == EXIT_OK
        decimal = capsys.readouterr()
        assert main(model + ["--b-scale", "-1e-3"]) == EXIT_OK
        assert capsys.readouterr() == decimal

    def test_pip_alpha_reaches_the_programs_check(self, capsys):
        assert main(["pip", "--times", "1", "--alpha", "-1e-3"]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: alpha must be in [0, 1], got -0.001\n"

    def test_sweep_start(self, capsys):
        argv = ["sweep", "--quantity", "alpha", "--axis", "chi",
                "--start", "-1e-3", "--stop", "1", "--count", "2"]
        assert main(argv) == EXIT_OK
        assert capsys.readouterr().out.startswith("chi,alpha\n-0.001,")

    @pytest.mark.parametrize("argv, message", [
        (["oracle", "--b-scale", "-inf"],
         "--b-scale must be finite and at most 1 in magnitude, got -inf"),
        (["oracle", "--b-scale", "-NaN"],
         "--b-scale must be finite and at most 1 in magnitude, got nan"),
        (["sweep", "--quantity", "mi", "--axis", "f", "--start", "-inf",
          "--stop", "1", "--count", "2"], "--start must be finite, got -inf"),
        (["redundancy", "--t-stop", "-Infinity"],
         "--t-stop must be finite, got -inf"),
        (["redundancy", "--t-start", "-nan"],
         "--t-start must be finite, got nan"),
        (["pip", "--times", "1", "--alpha", "-INF"],
         "alpha must be in [0, 1], got -inf"),
        (["pip", "--times", "-inf,1"],
         "t_over_tauD must be finite and nonnegative, got -inf"),
    ])
    def test_negative_infinity_and_nan_reach_the_programs_check(
            self, argv, message, capsys):
        assert main(argv) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    def test_a_word_that_is_not_a_number_is_still_refused(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["oracle", "--b-scale", "-x"])
        assert exc.value.code == EXIT_CONFIG
        assert capsys.readouterr().err.endswith(
            "error: argument --b-scale: expected one argument\n")


class TestUsageWidth:
    """Usage and help text do not depend on the terminal's width."""

    @pytest.mark.parametrize("argv", [SWEEP_MI + ["--fix"], ["rate", "-h"],
                                      ["-h"], []])
    def test_same_bytes_at_every_width(self, argv, monkeypatch, capsys):
        outcomes = set()
        for columns in ("40", "80", "200"):
            monkeypatch.setenv("COLUMNS", columns)
            outcomes.add(_outcome(main, argv, capsys))
        assert len(outcomes) == 1

    def test_width_is_that_of_an_80_column_terminal(self, capsys):
        code, out, err = _outcome(main, ["rate", "-h"], capsys)
        assert code == EXIT_OK and err == ""
        assert max(map(len, out.splitlines())) <= 78
        assert "  --order ORDER" in out
