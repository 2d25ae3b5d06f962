"""The byte format of every CSV and JSON artifact the package reads or writes.

Run manifests hash these bytes, so the format lives here and nowhere else.
CSV is UTF-8 in the csv module's default dialect (comma separated, minimal
quoting, CRLF line ends) with a header row; every float cell, Python or
numpy, is written as ``repr(float(v))``, which reads back to the same
double. JSON is UTF-8 with an indent of 2, sorted keys and a trailing
newline.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

from .errors import SchemaError


def create(path, mode="w", **kwargs):
    """``open(path, mode)`` for writing, after creating the parent directory."""
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    return open(path, mode, **kwargs)


def write_csv(path, header, rows) -> None:
    """Write ``header`` and then each row of ``rows``."""
    with create(path, newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        # The csv module writes a Python float as its repr; a numpy float is
        # turned into one first (its own repr reads ``np.float64(...)``).
        writer.writerows(
            [float(v) if isinstance(v, np.floating) else v for v in row] for row in rows
        )


def write_json(path, payload) -> None:
    with create(path, encoding="utf-8") as fh:
        fh.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _checked(reader: csv.DictReader, path, required) -> csv.DictReader:
    """``reader`` once its header is checked: SchemaError for an empty file or
    for a header that lacks any ``required`` column, naming every one."""
    if reader.fieldnames is None:
        raise SchemaError(f"{path}: empty file, no header row")
    missing = [c for c in required if c not in reader.fieldnames]
    if missing:
        raise SchemaError(f"{path}: missing required column(s): {', '.join(missing)}")
    return reader


def read_csv(path, required) -> list[dict[str, str]]:
    """Rows as dicts keyed by the header, after the ``_checked`` header check."""
    with open(path, newline="", encoding="utf-8") as fh:
        return list(_checked(csv.DictReader(fh), path, required))


def read_first_row(path, required) -> dict[str, str] | None:
    """The first row alone (None if there is none), after the same header
    check; the rest of the file is not read."""
    with open(path, newline="", encoding="utf-8") as fh:
        return next(_checked(csv.DictReader(fh), path, required), None)


def read_json(path):
    """The decoded payload; SchemaError if the file is not valid JSON."""
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"{path} is not valid JSON: {exc}") from None
