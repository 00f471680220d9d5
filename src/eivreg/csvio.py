"""CSV and manifest I/O with reproducibility-grade formatting.

Numbers are written with 17 significant digits (lossless round-trip for
doubles), so reruns with the same seed produce byte-identical files.
"""

from __future__ import annotations

import csv
import io
import itertools
import warnings
from pathlib import Path

import numpy as np

from .exceptions import ConfigError


def fmt(x: float) -> str:
    return format(float(x), ".17g")


def open_output(path, newline: str | None = None):
    """Open an output file for writing; one that cannot be written is
    reported as a bad output location naming the file."""
    path = Path(path)
    try:
        return path.open("w", encoding="utf-8", newline=newline)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc.strerror or exc}") from exc


def write_matrix_csv(path, arr: np.ndarray, header=None) -> None:
    """`arr` under `header` (col_1, ... if None), each number as `fmt` writes it,
    formatted one row at a time."""
    arr = np.atleast_2d(np.asarray(arr, dtype=float))
    header = header or [f"col_{j + 1}" for j in range(arr.shape[1])]
    row = ",".join(["%.17g"] * arr.shape[1]) + "\n"
    with open_output(path, newline="") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(row % tuple(r.tolist()) for r in arr)


def read_matrix_csv(path) -> np.ndarray:
    """Parse a numeric CSV matrix; a non-numeric first row is a header, and a
    leading UTF-8 byte-order mark is dropped.  The file is read once, with
    `np.loadtxt` streaming its rows; only a file that is not a plain grid of
    finite numbers is then read whole, for `_parse_cells` to accept or to
    name its bad row, cell or byte.  Both round each cell correctly, so they
    return the same array bit for bit."""
    path = Path(path)
    try:
        # utf-8-sig: a byte-order mark glued to the first cell makes a header
        with path.open("r", encoding="utf-8-sig", newline="") as fh:
            try:
                return _stream_grid(fh)
            except ValueError:  # a decode error too: read() raises it again
                fh.seek(0)
                text = fh.read()
    except UnicodeDecodeError as exc:
        # read() decodes the whole file at once: exc.start indexes exc.object
        row = exc.object.count(b"\n", 0, exc.start) + 1
        raise ConfigError(f"{path}: row {row}: byte 0x{exc.object[exc.start]:02x} "
                          "is not UTF-8") from exc
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    return _parse_cells(path, text)


def _stream_grid(fh) -> np.ndarray:
    """The rows of the open file `fh` in one numpy call, the header decided
    from the first line alone.  Raises ValueError for anything but a plain
    grid of finite numbers under an optional header line."""
    first = fh.readline()
    if '"' in first:  # quotes change how csv splits cells
        raise ValueError("quoted cells")
    rows = itertools.chain([first], fh) if _numeric(first.split(",")) else fh
    with warnings.catch_warnings():  # a header alone: "no data" is raised below
        warnings.simplefilter("ignore", UserWarning)
        out = np.loadtxt(rows, delimiter=",", comments=None, ndmin=2)
    if not out.size or not np.isfinite(out).all():
        raise ValueError("no data rows or a non-finite cell")
    return out


def _parse_cells(path: Path, text: str) -> np.ndarray:
    """Cell-by-cell parse that reports the first bad row or cell.  Rows are
    numbered by csv record, blank records included."""
    records = csv.reader(io.StringIO(text, newline=""))
    rows = [(k, r) for k, r in enumerate(records, start=1)
            if any(c.strip() for c in r)]
    if not rows:
        raise ConfigError(f"{path}: no data rows")
    start = 0 if _numeric(rows[0][1]) else 1
    if start == len(rows):
        raise ConfigError(f"{path}: header but no data rows")
    width = len(rows[start][1])
    out = np.empty((len(rows) - start, width))
    for i, (k, row) in enumerate(rows[start:]):
        if len(row) != width:
            raise ConfigError(
                f"{path}: row {k} has {len(row)} fields, expected {width}")
        for j, cell in enumerate(row):
            try:
                out[i, j] = float(cell)
            except ValueError as exc:
                raise ConfigError(f"{path}: row {k}, column {j + 1}: "
                                  f"could not parse {cell.strip()!r}") from exc
    if not np.isfinite(out).all():
        i, j = np.argwhere(~np.isfinite(out))[0]
        k, row = rows[start + i]
        raise ConfigError(f"{path}: row {k}, column {j + 1}: "
                          f"non-finite value {row[j].strip()!r}")
    return out


def _numeric(cells: list[str]) -> bool:
    """Whether every cell is a number: a first row that is not is a header."""
    try:
        [float(c) for c in cells]
    except ValueError:
        return False
    return True


def write_manifest(path, entries: dict) -> None:
    """Plain key=value manifest; values stringified deterministically."""
    with open_output(path) as fh:
        for key, value in entries.items():
            if isinstance(value, (list, tuple)):
                value = ";".join(str(v) for v in value)
            fh.write(f"{key}={value}\n")


def write_rows_csv(path, header: list[str], rows: list[list]) -> None:
    with open_output(path, newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([fmt(v) if isinstance(v, float) else str(v)
                             for v in row])
