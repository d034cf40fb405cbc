"""End-to-end tests for the command line front end.

Everything but the import check runs in-process through main(argv), so
exit codes and output bytes are checked without shelling out.
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import photon_darwinism
from photon_darwinism.cli import (
    EXIT_CAP,
    EXIT_CHECK,
    EXIT_CONFIG,
    EXIT_OK,
    _quadrature_order,
    main,
)
from photon_darwinism.receptivity import alpha_disk
from photon_darwinism.superpositions import mi_mway

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

    @pytest.mark.parametrize("argv,culprit", [
        (["--quantity", "mi", "--axis", "t_over_tauD",
          "--start", "-5", "--stop", "5"], "--axis t_over_tauD at -5:"),
        (["--quantity", "mi", "--axis", "f", "--start", "0", "--stop", "2"],
         "--axis f at 2:"),
        (["--quantity", "redundancy", "--axis", "delta",
          "--start", "0.5", "--stop", "2"], "--axis delta at 1.25:"),
        (["--quantity", "mi_unbalanced", "--axis", "t_over_tauD",
          "--start", "-1000", "--stop", "1"], "--axis t_over_tauD at -1000:"),
        (["--quantity", "mi_mway", "--axis", "f", "--start", "0",
          "--stop", "1", "--fix", "M=1"], "--fix M=1:"),
        (["--quantity", "mi_mway", "--axis", "f", "--start", "0",
          "--stop", "1", "--fix", "M=2.5"],
         "--fix M=2.5: branch count must be an integer >= 2, got 2.5"),
        # The two cat sweeps checked no time before exp(-t), so a negative
        # one blamed gamma = exp(1) or raised "math range error".
        (["--quantity", "mi_unbalanced", "--axis", "t_over_tauD",
          "--start", "-1", "--stop", "1"], "--axis t_over_tauD at -1: "
         "t_over_tauD must be finite and nonnegative, got -1.0\n"),
        (["--quantity", "mi_mway", "--axis", "t_over_tauD",
          "--start", "-1000", "--stop", "1"], "--axis t_over_tauD at -1000: "
         "t_over_tauD must be finite and nonnegative, got -1000.0\n"),
        (["--quantity", "mi_unbalanced", "--axis", "f", "--start", "0",
          "--stop", "1", "--fix", "t_over_tauD=-2"], "--fix t_over_tauD=-2: "
         "t_over_tauD must be finite and nonnegative, got -2.0\n"),
        (["--quantity", "mi_mway", "--axis", "f", "--start", "0",
          "--stop", "1", "--fix", "t_over_tauD=-2"], "--fix t_over_tauD=-2: "
         "t_over_tauD must be finite and nonnegative, got -2.0\n"),
        (["--quantity", "mi", "--axis", "f", "--start", "0", "--stop", "1",
          "--fix", "t_over_tauD=5", "--fix", "alpha=2"], "--fix alpha=2:"),
    ])
    def test_domain_errors_name_the_input(self, argv, culprit, capsys):
        assert main(["sweep", "--count", "3"] + argv) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {culprit}")


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


@pytest.mark.parametrize("argv,flag", [
    (["pip", "--times", "1,nan"], "--times"),
    (["pip", "--times", "inf"], "--times"),
    (["redundancy", "--t-start", "nan"], "--t-start"),
    (["redundancy", "--t-stop", "nan"], "--t-stop"),
    (["redundancy", "--t-stop", "inf"], "--t-stop"),
    (["sweep", "--quantity", "alpha", "--axis", "theta0",
      "--start", "nan", "--stop", "90", "--count", "3"], "--start"),
    (["sweep", "--quantity", "alpha", "--axis", "theta0",
      "--start", "0", "--stop", "inf", "--count", "3"], "--stop"),
    (["sweep", "--quantity", "mi", "--axis", "f", "--start", "0",
      "--stop", "0.5", "--count", "3", "--fix", "t_over_tauD=nan"],
     "--fix t_over_tauD"),
])
def test_non_finite_numbers_are_config_errors(argv, flag, capsys):
    assert main(argv) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"{flag} must be finite" in captured.err


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
# still prices them.
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
    assert main(argv) == code
    captured = capsys.readouterr()
    if code == EXIT_OK:
        assert captured.err == ""
        assert json.loads(captured.out)["ratio_to_isotropic"] > 0.0
    else:
        assert captured.out == ""
        assert captured.err == (
            f"config error: {path}: custom grid spans {spans}; alpha needs "
            "a grid that tiles the sphere (2 and 2 pi)\n")


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
    assert captured.err == "error: --t-start must be nonnegative, got -5.0\n"


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
