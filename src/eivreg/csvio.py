"""CSV and manifest I/O with reproducibility-grade formatting.

Numbers are written with 17 significant digits (lossless round-trip for
doubles), so reruns with the same seed produce byte-identical files.
"""

from __future__ import annotations

import csv
import io
import re
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
    """`arr` under `header` (col_1, ... if None), each number as `fmt` writes it."""
    arr = np.atleast_2d(np.asarray(arr, dtype=float))
    header = header or [f"col_{j + 1}" for j in range(arr.shape[1])]
    row = ",".join(["%.17g"] * arr.shape[1]) + "\n"
    with open_output(path, newline="") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(row % tuple(r) for r in arr.tolist())


def read_matrix_csv(path) -> np.ndarray:
    """Parse a numeric CSV matrix; a non-numeric first row is treated as a
    header, and a leading UTF-8 byte-order mark is dropped.  Malformed and
    non-finite cells report their row and column, a byte that is not UTF-8
    its row.

    The text is read once for the checks of `_parse_grid`, which then lets
    `np.loadtxt` stream the rows from the file itself."""
    path = Path(path)
    try:
        # utf-8-sig: a byte-order mark glued to the first cell makes a header
        with path.open("r", encoding="utf-8-sig", newline="") as fh:
            text = fh.read()
        try:
            return _parse_grid(path, text)
        except ValueError:
            pass
    except UnicodeDecodeError as exc:
        # read() decodes the whole file at once: exc.start indexes exc.object
        row = exc.object.count(b"\n", 0, exc.start) + 1
        raise ConfigError(f"{path}: row {row}: byte 0x{exc.object[exc.start]:02x} "
                          "is not UTF-8") from exc
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    return _parse_cells(path, text)


_NONBLANK = re.compile(r"\S")


def _parse_grid(path: Path, text: str) -> np.ndarray:
    """The whole body in one numpy call, streamed from the file at `path`
    whose contents are `text`.  Raises ValueError for anything but a plain
    grid of finite numbers under an optional header line; the cell parser
    then names the problem.  Both convert each cell with correct rounding,
    so they return the same array bit for bit."""
    # quotes and bare carriage returns change how csv splits rows and cells
    if '"' in text or ("\r" in text
                       and text.count("\r") != text.count("\r\n")):
        raise ValueError("quoted cells or bare carriage returns")
    end = text.find("\n")
    end = len(text) if end < 0 else end
    cells = text[:end].split(",")
    if not all(c.strip() for c in cells):
        raise ValueError("blank cell in the first row")
    try:
        [float(c) for c in cells]
        header = 0
    except ValueError:
        header = 1
    if not _NONBLANK.search(text, end + 1 if header else 0):
        raise ValueError("no data rows")
    with path.open("r", encoding="utf-8-sig", newline="") as fh:
        out = np.loadtxt(fh, delimiter=",", comments=None, ndmin=2,
                         skiprows=header)
    if not np.isfinite(out).all():
        raise ValueError("non-finite cell")
    return out


def _parse_cells(path: Path, text: str) -> np.ndarray:
    """Cell-by-cell parse that reports the first bad row or cell.  Rows are
    numbered by csv record, blank records included."""
    records = csv.reader(io.StringIO(text, newline=""))
    rows = [(k, r) for k, r in enumerate(records, start=1)
            if r and any(c.strip() for c in r)]
    if not rows:
        raise ConfigError(f"{path}: no data rows")
    start = 0
    try:
        [float(c) for c in rows[0][1]]
    except ValueError:
        start = 1
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
                raise ConfigError(
                    f"{path}: row {k}, column {j + 1}: "
                    f"could not parse {cell.strip()!r}") from exc
    if not np.isfinite(out).all():
        i, j = np.argwhere(~np.isfinite(out))[0]
        k, row = rows[start + i]
        raise ConfigError(
            f"{path}: row {k}, column {j + 1}: "
            f"non-finite value {row[j].strip()!r}")
    return out


def write_manifest(path, entries: dict) -> None:
    """Plain key=value manifest; values stringified deterministically."""
    with open_output(path) as fh:
        for key, value in entries.items():
            if isinstance(value, float):
                value = fmt(value)
            elif isinstance(value, (list, tuple)):
                value = ";".join(str(v) for v in value)
            fh.write(f"{key}={value}\n")


def write_rows_csv(path, header: list[str], rows: list[list]) -> None:
    with open_output(path, newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([fmt(v) if isinstance(v, float) else str(v)
                             for v in row])
