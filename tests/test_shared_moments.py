"""One alpha report prices its region once.

cli.cmd_alpha builds the region's and the complement's AngularMoments once
(sky._region_moment_pair) and hands them to alpha_numeric and to
decoherence_rate.
Three groups of checks:

* the report's alpha and rate fields equal separate library calls, which
  build their own moments, bit for bit, on caps from zero to the full
  sky, tilted and not, and on two custom grids;
* the work is done once: a disk report takes two panel moments, not three;
  a custom report computes no Gauss-Legendre rule, since its moments come
  from the grid's row and column tables;
* no report takes a quadrature order: passing one is a TypeError;
* a quadrature order that is not an integer of at least 2, and an indicator
  value that is not 0 or 1, are refused by name.
"""

import contextlib
import io
import math
import warnings

import numpy as np
import pytest

from photon_darwinism import cli, radiometry, receptivity, sky
from photon_darwinism.cli import main
from photon_darwinism.radiometry import decoherence_rate, parse_scenario
from photon_darwinism.receptivity import (alpha_closed_form, alpha_numeric,
                                          redundancy_rate)
from photon_darwinism.sky import (SkyRegion, integrate_sphere,
                                  load_indicator_grid)
from sky_nodes_reference import complement_nodes, region_nodes

BASE_CFG = ("radius_m = 1e-6\npermittivity = 4.0\ndx_m = 1e-6\n"
            "temperature_K = 300\n")
THETA0 = [0.0, 1e-3, math.pi / 2, math.pi - 1e-3, math.pi]
CHI = [0.0, 0.9, math.pi]


def _write_grid(path, rows, cols, mask):
    u = -1.0 + (np.arange(rows) + 0.5) * (2.0 / rows)
    phi = (np.arange(cols) + 0.5) * (2.0 * math.pi / cols)
    with open(path, "w") as fh:
        fh.write(f"# {rows} {cols}\n")
        for i in range(rows):
            for j in range(cols):
                fh.write(f"{float(u[i])!r} {float(phi[j])!r} {int(mask[i, j])}\n")
    return path


def _grids(directory):
    """Two indicator files that tile the sphere: a random 30% mask and a
    tilted cap cut by a wedge."""
    rng = np.random.default_rng(24)
    random = rng.random((20, 40)) < 0.3
    rows, cols = 30, 60
    u = -1.0 + (np.arange(rows) + 0.5) * (2.0 / rows)
    phi = (np.arange(cols) + 0.5) * (2.0 * math.pi / cols)
    s = np.sqrt(1.0 - u**2)[:, None]
    axis = (math.sin(0.7), 0.0, math.cos(0.7))
    cap = s * np.cos(phi) * axis[0] + u[:, None] * axis[2] > 0.4
    wedge = cap & ~((phi > 1.0) & (phi < 2.0))[None, :]
    return {"random": _write_grid(directory / "random.txt", 20, 40, random),
            "cap-wedge": _write_grid(directory / "wedge.txt", rows, cols, wedge)}


def _config(directory, region):
    path = directory / "scn.cfg"
    path.write_text(BASE_CFG + f"region = {region}\n")
    return path


def _report(path, monkeypatch):
    """cmd_alpha's exit status, the report dict it prints, and its JSON
    stdout and stderr."""
    payloads = []
    emit = cli._emit

    def keep(args, payload, lines):
        payloads.append(dict(payload))
        emit(args, payload, lines)

    monkeypatch.setattr(cli, "_emit", keep)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings():
        warnings.simplefilter("always")  # the CLI shows the zero-cap warning
        status = main(["alpha", "--config", str(path), "--format", "json"])
    return status, payloads, out.getvalue(), err.getvalue()


def _library_report(path):
    """The same fields from separate library calls, each building its own
    moments."""
    scenario = parse_scenario(path)
    region = scenario.region
    closed = alpha_closed_form(region)
    quad = alpha_numeric(region)
    alpha = closed if closed is not None else quad
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the zero-measure cap's rate is 0
        result = decoherence_rate(scenario)
    return {
        "alpha": alpha,
        "alpha_closed_form": closed,
        "alpha_quadrature": quad,
        "closed_quadrature_gap": None if closed is None else abs(closed - quad),
        "tau_R_inv_per_s": redundancy_rate(alpha, result.tau_D_inv),
        "tau_R_inv_over_T_D_inv": alpha * result.ratio,
    }


def _assert_same_report(path, monkeypatch):
    status, printed, stdout, _ = _report(path, monkeypatch)
    expected = _library_report(path)
    assert status == 0
    printed = printed[0]
    assert printed.keys() == expected.keys()
    for key, value in expected.items():
        got = printed[key]
        assert (got is None) == (value is None), key
        if value is not None:
            assert float(got).hex() == float(value).hex(), key
    assert stdout == cli._json(expected, "\n", {}) + "\n"


@pytest.mark.parametrize("chi", CHI)
def test_disk_report_equals_separate_library_calls(chi, tmp_path, monkeypatch):
    for theta0 in THETA0:
        region = f"disk:{math.degrees(theta0)!r}:{math.degrees(chi)!r}"
        _assert_same_report(_config(tmp_path, region), monkeypatch)


def test_isotropic_report_equals_separate_library_calls(tmp_path, monkeypatch):
    _assert_same_report(_config(tmp_path, "isotropic"), monkeypatch)


@pytest.mark.parametrize("grid", ["random", "cap-wedge"])
def test_custom_report_equals_separate_library_calls(grid, tmp_path,
                                                     monkeypatch):
    path = _grids(tmp_path)[grid]
    _assert_same_report(_config(tmp_path, f"custom:{path}"), monkeypatch)


def _run(command, path):
    with contextlib.redirect_stdout(io.StringIO()):
        assert main([command, "--config", str(path)]) == 0


def _count_calls(monkeypatch, name, *modules):
    """Count calls of the function `name` through each module that binds it."""
    calls = []
    original = getattr(sky, name)

    def counted(*args, **kwargs):
        calls.append((args, kwargs))
        return original(*args, **kwargs)

    for module in modules:
        monkeypatch.setattr(module, name, counted, raising=False)
    return calls


@pytest.mark.parametrize("region", ["disk:60:0", "disk:40:35"])
def test_disk_alpha_report_takes_two_panel_moments(region, tmp_path,
                                                   monkeypatch):
    calls = _count_calls(monkeypatch, "_region_moments",
                         sky, receptivity, radiometry)
    _run("alpha", _config(tmp_path, region))
    assert len(calls) == 2
    assert [kw.get("inside", args[-1]) for args, kw in calls] == [True, False]


@pytest.mark.parametrize("command", ["alpha", "rate"])
def test_custom_report_computes_no_rule(command, tmp_path, monkeypatch):
    path = _grids(tmp_path)["random"]
    calls = _count_calls(monkeypatch, "_gauss_legendre", sky)
    _run(command, _config(tmp_path, f"custom:{path}"))
    assert len(calls) == 0


def test_library_alpha_of_a_custom_grid_computes_no_rule(tmp_path,
                                                         monkeypatch):
    region = load_indicator_grid(_grids(tmp_path)["cap-wedge"])
    calls = _count_calls(monkeypatch, "_gauss_legendre", sky)
    alpha_numeric(region)
    assert len(calls) == 0


@pytest.mark.parametrize("argv", [["alpha"], ["pip", "--times", "1,10"]],
                         ids=["alpha", "pip"])
def test_a_tiny_aligned_cap_is_reported(argv, tmp_path):
    # alpha_disk used to round to 1.0000000000000004 on this cap of 1e-3
    # rad, which the record rate and pip's alpha check refused (exit 2).
    path = _config(tmp_path, "disk:0.05729577951308232:0")
    with contextlib.redirect_stdout(io.StringIO()):
        assert main([*argv, "--config", str(path)]) == 0


DISK = SkyRegion.disk(1.0, 0.3)
DISK_SCENARIO = radiometry.Scenario(radius_m=1e-6, permittivity=4.0,
                                    dx_m=1e-6, temperature_K=300.0, region=DISK)


@pytest.mark.parametrize("call", [
    lambda: alpha_numeric(DISK, 64),
    lambda: alpha_numeric(DISK, order=64),
    lambda: decoherence_rate(DISK_SCENARIO, 64),
    lambda: decoherence_rate(DISK_SCENARIO, order=64),
], ids=["alpha_numeric-positional", "alpha_numeric-keyword",
        "decoherence_rate-positional", "decoherence_rate-keyword"])
def test_no_report_takes_an_order(call):
    with pytest.raises(TypeError):
        call()


ORDER_MESSAGE = "quadrature order must be >= 2 and an int, got "
BAD_ORDERS = [16.5, 16.0, "16", 1, 0, True, None]


def _entry_points():
    grid = SkyRegion.custom(-1.0 + (np.arange(4) + 0.5) * 0.5,
                            (np.arange(8) + 0.5) * (math.pi / 4),
                            np.eye(4, 8, dtype=bool))
    return {
        "integrate_sphere": lambda o: integrate_sphere(lambda p: p[:, 2] ** 2, o),
        # The node references (sky_nodes_reference) keep their own copy of
        # integrate_sphere's order check and of its panel, on a part of the
        # u range for a disk.
        "region_nodes-disk": lambda o: region_nodes(DISK, o),
        "region_nodes-custom": lambda o: region_nodes(grid, o),
        "complement_nodes-point": lambda o: complement_nodes(SkyRegion.point(), o),
    }


@pytest.mark.parametrize("entry", list(_entry_points()))
@pytest.mark.parametrize("order", BAD_ORDERS, ids=repr)
def test_a_bad_order_is_named(entry, order):
    with pytest.raises(ValueError) as info:
        _entry_points()[entry](order)
    assert str(info.value) == ORDER_MESSAGE + repr(order)


@pytest.mark.parametrize("entry", list(_entry_points()))
@pytest.mark.parametrize("integer", [np.int64, np.int32, np.uint16, np.int8])
@pytest.mark.parametrize("order", [16, 64])
def test_numpy_integer_orders_are_integers(entry, integer, order):
    # 2 * np.int8(64) would wrap around to -128 phi points.
    call = _entry_points()[entry]
    got, want = call(integer(order)), call(order)
    if isinstance(want, float):
        assert got.hex() == want.hex()
    else:
        for a, b in zip(got, want):
            assert a.tobytes() == b.tobytes()


U2, PHI2 = [-0.5, 0.5], [math.pi / 2, 3 * math.pi / 2]


@pytest.mark.parametrize("mask, first", [
    ([[0.5, 0], [0, 1]], 0.5),
    ([[1, 0], [0, 0.999]], 0.999),
    ([[np.nan, 0], [0, 1]], "nan"),
    ([[2, 0], [0, -1]], 2),
    ([[1, 0], [-1, 2]], -1),
    ([["1", "0"], ["0", "1"]], "'1'"),
    ([[None, 0], [0, 1]], None),
    ([[1, 0], [0, math.inf]], "inf"),
], ids=["half", "nearly-one", "nan", "two", "minus-one", "strings", "none",
        "inf"])
def test_indicator_values_other_than_0_or_1_are_named(mask, first):
    text = first if isinstance(first, str) else repr(first)
    with pytest.raises(ValueError) as info:
        SkyRegion.custom(U2, PHI2, mask)
    assert str(info.value) == f"indicator values must be 0 or 1, got {text}"


@pytest.mark.parametrize("mask", [
    [[1, 0], [0, 1]], [[1.0, 0.0], [0.0, 1.0]], [[True, False], [False, True]],
    np.array([[1, 0], [0, 1]], dtype=np.uint8), [[-0.0, 1.0], [1.0, 0.0]],
], ids=["int", "float", "bool", "uint8", "negative-zero"])
def test_zeros_ones_and_bools_are_accepted(mask):
    region = SkyRegion.custom(U2, PHI2, mask)
    assert region.grid_mask.dtype == bool
    assert region.grid_mask.tolist() == (np.asarray(mask) == 1).tolist()


def test_grid_file_names_its_first_bad_value(tmp_path):
    path = tmp_path / "frac.txt"
    path.write_text("# 1 3\n0.0 1.0 1\n0.0 2.0 0.25\n0.0 3.0 7\n")
    with pytest.raises(ValueError) as info:
        load_indicator_grid(path)
    assert str(info.value) == (f"{path}: indicator values must be 0 or 1, "
                               "got 0.25")


def test_cli_names_the_grid_file_and_its_bad_value(tmp_path, capsys):
    grid = tmp_path / "frac.txt"
    grid.write_text("# 1 2\n0.0 1.0 0.5\n0.0 2.0 1\n")
    cfg = _config(tmp_path, f"custom:{grid}")
    assert main(["rate", "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"config error: {cfg}: region: {grid}: indicator "
                            "values must be 0 or 1, got 0.5\n")
