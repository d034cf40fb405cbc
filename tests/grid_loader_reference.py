"""The np.loadtxt indicator-grid loader, kept as a test reference.

sky.load_indicator_grid reads a file in README's exact layout by parsing
each distinct cos(theta) and phi text once, and sends any other file
through np.loadtxt. This is the loader as it was before that split: every
file through np.loadtxt, every grid point checked, then the rectangular
check. The tests hold the library to it, region for region and message
for message. Its _bad_line judges a field with Python float, which also
takes '_' digit separators and non-ASCII digits that np.loadtxt refuses;
the library's does not, so those two inputs are where the messages part.
"""

import warnings

import numpy as np

from photon_darwinism.sky import SkyRegion, _check_grid_axes


def _bad_line(path) -> str | None:
    """Error naming the first grid line that is not 3 numbers, or None."""
    with open(path) as fh:
        for n, line in enumerate(fh, 1):
            fields = line.partition("#")[0].split()
            try:
                if n == 1 or not fields or len(list(map(float, fields))) == 3:
                    continue
            except ValueError:
                pass
            return (f"{path}: line {n}: expected three numbers "
                    f"'cos_theta phi value', got '{line.strip()}'")


def load_indicator_grid(path) -> SkyRegion:
    """Read a custom region from a plain-text indicator file."""
    with open(path) as fh:
        header = fh.readline().split()
        if len(header) != 3 or header[0] != "#":
            raise ValueError(f"{path}: expected header '# rows cols'")
        try:
            rows, cols = int(header[1]), int(header[2])
        except ValueError:
            rows = cols = 0
        if rows < 1 or cols < 1:
            raise ValueError(f"{path}: header '# rows cols' needs positive "
                             f"integers, got {' '.join(header)!r}")
        with warnings.catch_warnings():
            # A header-only file is reported below as a row-count error.
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            try:
                data = np.loadtxt(fh, ndmin=2)
            except ValueError as exc:
                raise ValueError(_bad_line(path) or f"{path}: {exc}") from exc
    if data.shape != (rows * cols, 3):
        raise ValueError(_bad_line(path) or f"{path}: expected {rows * cols} "
                         f"grid rows, found {data.shape[0]}")
    try:
        _check_grid_axes(data[:, 0], data[:, 1])
        u, phi, val = data.T.reshape(3, rows, cols)
        if not (np.isclose(u, u[:, :1]).all() and np.isclose(phi, phi[:1]).all()):
            raise ValueError("grid is not rectangular")
        return SkyRegion.custom(u[:, 0], phi[0, :], val)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
