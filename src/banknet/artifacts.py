"""The byte format of every CSV and JSON artifact the package reads or writes.

Run manifests hash these bytes, so the format lives here and nowhere else.
CSV is UTF-8 in the csv module's default dialect (comma separated, minimal
quoting, CRLF line ends) with a header row, written without a byte-order mark
and read with or without one, and travels as columns: the reader gives one
tuple of cells per header name and the writer takes one sequence per header
name. A float cell is written as the repr of its Python float, which reads
back to the same double. JSON is UTF-8 with an indent of 2, sorted keys and
a trailing newline.
"""

from __future__ import annotations

import csv
import json
from itertools import chain, repeat, zip_longest
from pathlib import Path

import numpy as np

from .errors import ParseError, SchemaError


def create(path, mode="w", **kwargs):
    """``open(path, mode)`` for writing, after creating the parent directory."""
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    return open(path, mode, **kwargs)


def write_csv(path, header, columns) -> None:
    """Write ``header`` and then one row per position of ``columns``, one
    equal-length sequence per header name (else ValueError)."""
    # A numpy column becomes Python values once; the csv module writes a numpy
    # scalar as its str, for float64 the digits of the Python float's repr.
    columns = [c.tolist() if isinstance(c, np.ndarray) else c for c in columns]
    rows = list(zip(*columns, strict=True))  # before the file is created
    with create(path, newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def write_json(path, payload) -> None:
    with create(path, encoding="utf-8") as fh:
        fh.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _header(reader, path, required) -> list[str]:
    """The header row of ``reader``: SchemaError for an empty file or for a
    header that lacks any ``required`` column, naming every one."""
    header = next(reader, None)
    if header is None:
        raise SchemaError(f"{path}: empty file, no header row")
    missing = [c for c in required if c not in header]
    if missing:
        raise SchemaError(f"{path}: missing required column(s): {', '.join(missing)}")
    return header


def read_csv(path, required) -> dict[str, tuple[str, ...]]:
    """Each header name's column of cells, after the ``_header`` check. A
    blank line is skipped, a short row's missing cells read as "" and a long
    row's extra cells are dropped."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        header = _header(reader, path, required)
        rows = list(filter(None, reader))
    columns = zip_longest(*rows, fillvalue="")
    return dict(zip(header, chain(columns, repeat(("",) * len(rows)))))


def read_first_row(path, required) -> dict[str, str] | None:
    """The first row alone, by header name (None if there is none), under the
    same header check and row rules; the rest of the file is not read."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        header = _header(reader, path, required)
        row = next(filter(None, reader), None)
    return None if row is None else dict(zip(header, chain(row, repeat(""))))


def float_columns(path, table, names) -> dict[str, np.ndarray]:
    """Float64 arrays of ``table``'s ``names`` columns; the first cell, row by
    row, that is not a number is a ParseError naming its row and column."""
    try:
        return {c: np.fromiter(map(float, table[c]), float, len(table[c])) for c in names}
    except ValueError:
        for line, row in enumerate(zip(*(table[c] for c in names)), start=2):
            for name, raw in zip(names, row):
                try:
                    float(raw)
                except ValueError:
                    message = f"{path}: row {line}: non-numeric {name}={raw!r}"
                    raise ParseError(message, row=line) from None
        raise


def label_column(path, table, name) -> np.ndarray:
    """Int array of ``table``'s 0/1 column ``name``; the first cell that is
    not 0 or 1 is a ParseError naming its row and column."""
    values = float_columns(path, table, (name,))[name]
    bad = np.flatnonzero((values != 0.0) & (values != 1.0))
    if bad.size:
        line = int(bad[0]) + 2
        message = f"{path}: row {line}: {name}={table[name][bad[0]]!r} is not 0 or 1"
        raise ParseError(message, row=line)
    return values.astype(int)


def read_json(path):
    """The decoded payload; SchemaError if the file is not valid JSON."""
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"{path} is not valid JSON: {exc}") from None
