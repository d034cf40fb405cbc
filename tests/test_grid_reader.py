"""sky.load_indicator_grid against the np.loadtxt loader it keeps as a fallback.

A grid file in README's exact layout (single spaces, bare 0/1 flags, each
row's cos(theta) text repeated on its lines, row 0's phi texts repeated on
every row) is read by parsing its distinct texts once; any other file goes
through np.loadtxt. grid_loader_reference keeps the all-np.loadtxt loader.
Four checks:

* seeded grids in that layout, in repr and %.6f spellings, from 1 x 1 to
  60 x 120 and with all-0, all-1 and mixed masks, load to bit-identical
  grid_u, grid_phi and grid_mask;
* every variant outside the layout, and every bad number or flag in it,
  loads to the same region or fails with the same message (the numbers
  np.loadtxt refuses and Python float takes, which the library's line
  check now refuses too, are in test_sky's TestIndicatorFiles);
* a file in the layout loads without np.loadtxt, and a header is not used
  to size anything before the lines are counted;
* sky._grid_number takes exactly the texts np.loadtxt takes, to the bit.
"""

import io
import math
import tracemalloc

import numpy as np
import pytest

import grid_loader_reference as ref
from photon_darwinism import sky
from photon_darwinism.sky import load_indicator_grid

SPELLINGS = {"repr": repr, "6f": "{:.6f}".format}
SIZES = [(1, 1), (1, 5), (5, 1), (2, 3), (7, 13), (30, 60), (60, 120)]


def _grid_text(rows, cols, mask, spell=repr):
    """A grid file in README's layout: cell centers, row-major."""
    u = -1.0 + (np.arange(rows) + 0.5) * (2.0 / rows)
    phi = (np.arange(cols) + 0.5) * (2.0 * math.pi / cols)
    us = [spell(float(x)) for x in u]
    ps = [spell(float(x)) for x in phi]
    return f"# {rows} {cols}\n" + "".join(
        f"{us[i]} {ps[j]} {int(mask[i, j])}\n"
        for i in range(rows) for j in range(cols))


def _mask(rows, cols, fill):
    if fill == "mixed":
        return np.random.default_rng([rows, cols]).random((rows, cols)) < 0.5
    return np.full((rows, cols), fill == "ones")


def _outcome(load, path):
    """The region a loader returns, or its error as 'Type: message'."""
    try:
        return load(path)
    except ValueError as exc:
        return f"{type(exc).__name__}: {exc}"


def _assert_same(got, want):
    if isinstance(want, str) or isinstance(got, str):
        assert got == want
        return
    for name in ("grid_u", "grid_phi", "grid_mask"):
        a, b = getattr(got, name), getattr(want, name)
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())


@pytest.mark.parametrize("fill", ["zeros", "ones", "mixed"])
@pytest.mark.parametrize("spell", list(SPELLINGS))
@pytest.mark.parametrize("rows, cols", SIZES, ids=[f"{r}x{c}" for r, c in SIZES])
def test_layout_files_load_bit_identical(tmp_path, rows, cols, spell, fill):
    path = tmp_path / "grid.txt"
    mask = _mask(rows, cols, fill)
    path.write_text(_grid_text(rows, cols, mask, SPELLINGS[spell]))
    assert sky._row_major_grid(bytearray(path.read_bytes())) is not None
    region = load_indicator_grid(path)
    _assert_same(region, ref.load_indicator_grid(path))
    assert np.array_equal(region.grid_mask, mask)


@pytest.mark.parametrize("spell", list(SPELLINGS))
def test_rows_of_differing_byte_length_load_bit_identical(tmp_path, spell):
    text = _grid_text(7, 13, _mask(7, 13, "mixed"), SPELLINGS[spell])
    lines = text.splitlines(keepends=True)[1:]
    assert len({sum(map(len, lines[i:i + 13])) for i in range(0, 91, 13)}) > 1
    path = tmp_path / "grid.txt"
    path.write_text(text)
    assert sky._row_major_grid(bytearray(path.read_bytes())) is not None
    _assert_same(load_indicator_grid(path), ref.load_indicator_grid(path))


# A 3 x 4 grid in README's layout, short spellings, mixed flags.
BASE = ("# 3 4\n"
        "-0.5 0.5 1\n-0.5 1.5 0\n-0.5 2.5 1\n-0.5 3.5 0\n"
        "0.0 0.5 0\n0.0 1.5 1\n0.0 2.5 1\n0.0 3.5 0\n"
        "0.5 0.5 1\n0.5 1.5 1\n0.5 2.5 0\n0.5 3.5 1\n")
HEADER, *LINES = BASE.splitlines(keepends=True)


def _edit(index, old, new):
    """BASE with one replacement in data line `index`."""
    lines = list(LINES)
    lines[index] = lines[index].replace(old, new, 1)
    return HEADER + "".join(lines)


def _every_row(old, new):
    """BASE with `old` replaced in every data line (the layout kept)."""
    return HEADER + "".join(line.replace(old, new, 1) for line in LINES)


VARIANTS = {
    "crlf": BASE.replace("\n", "\r\n"),
    "crlf-body-only": HEADER + "".join(LINES).replace("\n", "\r\n"),
    "comment-line": HEADER + "# a note\n" + "".join(LINES),
    "trailing-comment": _edit(5, "\n", " # note\n"),
    "tabs": HEADER + "".join(LINES).replace(" ", "\t"),
    "one-tab": _edit(2, " ", "\t"),
    "blank-line": HEADER + "".join(LINES[:6]) + "\n" + "".join(LINES[6:]),
    "double-space": _edit(3, " ", "  "),
    "leading-space": _edit(7, "", " "),
    "trailing-space": _edit(11, "\n", " \n"),
    "u-respelled": _edit(9, "0.5 ", "0.50 "),
    "u-respelled-row": _every_row("0.0 ", "0.00 "),
    "phi-respelled": _edit(6, "2.5", "2.50"),
    "phi-exponent": _edit(10, "2.5", "25e-1"),
    "plus-sign-row": HEADER + "".join(LINES[:4]) + "".join(
        line.replace("0.0", "+0.0", 1) for line in LINES[4:8]) + "".join(LINES[8:]),
    "flag-1.0": _edit(0, " 1\n", " 1.0\n"),
    "flag-0.0": _edit(1, " 0\n", " 0.0\n"),
    "flag-2": _edit(4, " 0\n", " 2\n"),
    "flag-10": _edit(2, " 1\n", " 10\n"),
    "flag-minus": _edit(1, " 0\n", " -0\n"),
    "flag-nan": _edit(1, " 0\n", " nan\n"),
    "no-final-newline": BASE[:-1],
    "short": HEADER + "".join(LINES[:-1]),
    "long": BASE + LINES[-1],
    "header-only": HEADER,
    "empty-file": "",
    "no-header": "".join(LINES),
    "header-spaces": "#  3 4\n" + "".join(LINES),
    "header-zero-padded": "# 03 4\n" + "".join(LINES),
    "header-swapped": "# 4 3\n" + "".join(LINES),
    "header-zero": "# 0 4\n" + "".join(LINES),
    "bom": "\ufeff" + BASE,
    "nan-u": _every_row("0.0 ", "nan "),
    "NaN-u-one-line": _edit(4, "0.0 ", "NaN "),
    "inf-phi": HEADER + "".join(line.replace(" 3.5 ", " inf ") for line in LINES),
    "Infinity-phi": HEADER + "".join(
        line.replace(" 0.5 ", " -Infinity ") for line in LINES),
    "u-above-one": _every_row("0.5 ", "1.5 "),
    "descending-u": HEADER + "".join(LINES[8:] + LINES[4:8] + LINES[:4]),
    "unequal-phi-steps": HEADER + "".join(
        line.replace(" 3.5 ", " 3.9 ") for line in LINES),
    "not-rectangular-phi": _edit(6, "2.5", "2.6"),
    "not-rectangular-u": _edit(5, "0.0 ", "0.1 "),
    "word": _edit(3, "3.5", "abc"),
    "hex": _edit(3, "3.5", "0x3"),
    "nul-byte": _edit(3, "3.5", "3.5\0"),
    "two-columns": _edit(3, " 0\n", "\n"),
    "four-columns": _edit(3, " 0\n", " 0 0\n"),
    "empty-u": _edit(0, "-0.5", ""),
    "not-utf-8": BASE.encode()[:-2] + b"\xff\n",
}


@pytest.mark.parametrize("name", list(VARIANTS))
def test_other_files_load_as_loadtxt_reads_them(tmp_path, name):
    text = VARIANTS[name]
    path = tmp_path / "grid.txt"
    path.write_bytes(text if isinstance(text, bytes) else text.encode())
    _assert_same(_outcome(load_indicator_grid, path),
                 _outcome(ref.load_indicator_grid, path))


@pytest.mark.parametrize("name", ["flag-1.0", "tabs", "crlf", "u-respelled",
                                  "comment-line", "no-final-newline"])
def test_other_layouts_take_the_loadtxt_path(tmp_path, name):
    path = tmp_path / "grid.txt"
    path.write_bytes(VARIANTS[name].encode())
    assert sky._row_major_grid(bytearray(path.read_bytes())) is None
    assert load_indicator_grid(path) == ref.load_indicator_grid(path)


def test_a_layout_file_never_reaches_loadtxt(tmp_path, monkeypatch):
    path = tmp_path / "grid.txt"
    path.write_text(_grid_text(30, 60, _mask(30, 60, "mixed")))
    want = ref.load_indicator_grid(path)

    def refuse(*args, **kwargs):
        raise AssertionError("np.loadtxt was called")

    monkeypatch.setattr(np, "loadtxt", refuse)
    _assert_same(load_indicator_grid(path), want)


def test_a_huge_header_sizes_nothing(tmp_path):
    path = tmp_path / "grid.txt"
    path.write_text("# 100000 100000\n0.5 1.0 1\n0.5 2.0 0\n")
    tracemalloc.start()
    try:
        with pytest.raises(ValueError) as info:
            load_indicator_grid(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(info.value) == f"{path}: expected 10000000000 grid rows, found 2"
    assert peak < 1 << 20


@pytest.mark.parametrize("text", [
    "0.5", "-0.75", "+.5e-3", "5.", "1e400", "-1e-400", "nan", "-NaN", "inf",
    "-Infinity", "0.1000000000000000055511151231257827", "1e", "e5", "0x10",
    "1_0", "-0_0.75", "\u0660.5", "\uff11", "abc", "1.0.0", "--1", "+",
])
def test_grid_numbers_are_what_loadtxt_reads(text):
    try:
        want = np.loadtxt(io.StringIO(text + "\n"), ndmin=1)[0]
    except ValueError:
        with pytest.raises(ValueError):
            sky._grid_number(text)
        return
    got = sky._grid_number(text)
    assert np.float64(got).tobytes() == want.tobytes()
