"""Quarterly balance-sheet panel ingestion, validation and derived labels.

Panels arrive as plain CSV, one row per bank. Structural problems (missing
columns, duplicate ids, unparseable numbers) abort the load; rows that merely
violate record invariants are quarantined into a rejection report so large
real-world panels degrade gracefully.

A panel is columnar: its bank ids, sorted and unique, and one read-only
float64 array per numeric column, and every step works on those arrays.
``BankRecord`` is the boundary type, one bank-quarter as a row: a panel can
be built from records and hands them out on request.
"""

from __future__ import annotations

import math
import re
import warnings
from dataclasses import dataclass, fields
from itertools import compress
from operator import attrgetter
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .artifacts import float_columns, read_csv, read_first_row, write_csv
from .errors import DataError, InfeasibilityError, IntegrityError, SchemaError, name_some

FAILED_LIST_COLUMNS = ("bank_id", "failure_date")

_QUARTER_RE = re.compile(r"^(\d{4})Q([1-4])$")


def validate_quarter(tag: str) -> str:
    if not _QUARTER_RE.match(tag):
        raise ValueError(f"not a quarter tag (expected e.g. 2009Q1): {tag!r}")
    return tag


def quarter_tag(path) -> str:
    """A panel file's quarter: the ``_<YYYYQn>`` ending of its name
    (panel_2009Q1.csv), else the ``quarter`` of its first row."""
    tail = Path(path).stem.rsplit("_", 1)[-1]
    if _QUARTER_RE.match(tail):
        return tail
    row = read_first_row(path, ("quarter",))
    if row is None:
        raise SchemaError(f"{path}: empty panel, cannot determine quarter")
    try:
        return validate_quarter(row["quarter"])
    except ValueError as exc:
        raise SchemaError(f"{path}: {exc}") from None


def next_quarter(tag: str) -> str:
    """2009Q4 -> 2010Q1."""
    m = _QUARTER_RE.match(tag)
    if not m:
        raise ValueError(f"not a quarter tag: {tag!r}")
    year, q = int(m.group(1)), int(m.group(2))
    return f"{year + 1}Q1" if q == 4 else f"{year}Q{q + 1}"


@dataclass(frozen=True)
class BankRecord:
    """One bank-quarter of balance-sheet aggregates and financial ratios; the
    fields are the panel CSV's columns, in order.

    Currency fields are carried in whatever unit the input uses; nothing is
    converted. Equity is derived, never stored.
    """

    bank_id: str
    quarter: str
    total_assets: float
    total_liabilities: float
    interbank_assets: float
    interbank_liabilities: float
    roa: float
    roe: float
    stpd_ratio: float  # short-term past-due loans
    tier1_ratio: float  # Tier 1 capital
    tier1_leverage_ratio: float

    @property
    def equity(self) -> float:
        return self.total_assets - self.total_liabilities


PANEL_COLUMNS = tuple(f.name for f in fields(BankRecord))
NUMERIC_COLUMNS = PANEL_COLUMNS[2:]


@dataclass(frozen=True)
class RejectedRow:
    row_number: int  # 1-based line in the CSV (header is line 1)
    values: tuple[str, ...]  # raw fields in PANEL_COLUMNS order
    reason: str


def _sort_order(bank_ids, where: str = "") -> list[int]:
    """The indices that put ``bank_ids`` in sorted order; a repeated id is an
    IntegrityError naming the repeated ids."""
    order = sorted(range(len(bank_ids)), key=bank_ids.__getitem__)
    if len(set(bank_ids)) < len(bank_ids):
        ordered = [bank_ids[i] for i in order]
        dupes = sorted({a for a, b in zip(ordered, ordered[1:]) if a == b})
        raise IntegrityError(f"{where}duplicate bank_id(s): {name_some(dupes)}")
    return order


class QuarterlyPanel:
    """All banks of one quarter: ``bank_ids`` sorted and unique, and
    ``columns``, one read-only float64 array per NUMERIC_COLUMNS name.

    ``QuarterlyPanel(quarter, records)`` takes BankRecords in any order, the
    boundary form (``.records`` gives them back). Else ``bank_ids`` and
    ``columns`` are sequences in one order, sorted and checked here unless
    ``rows`` picks rows already sorted and unique (a panel's subset)."""

    def __init__(
        self, quarter, records=(), rejections=(), closure_factor=None, *,
        bank_ids=None, columns=None, rows=None,
    ):
        if columns is None:
            records = tuple(records)
            bank_ids = [r.bank_id for r in records]
            columns = {c: [getattr(r, c) for r in records] for c in NUMERIC_COLUMNS}
        rows = _sort_order(bank_ids) if rows is None else rows
        self.quarter, self.closure_factor = quarter, closure_factor
        self.rejections = tuple(rejections)
        self.bank_ids = tuple(np.asarray(bank_ids, dtype=object)[rows])
        self.columns = {c: np.asarray(columns[c], dtype=float)[rows] for c in NUMERIC_COLUMNS}
        for values in self.columns.values():
            values.flags.writeable = False

    def __len__(self) -> int:
        return len(self.bank_ids)

    def __eq__(self, other):
        key = attrgetter("quarter", "bank_ids", "rejections", "closure_factor")
        return isinstance(other, QuarterlyPanel) and key(self) == key(other) and all(
            np.array_equal(self.columns[c], other.columns[c]) for c in NUMERIC_COLUMNS
        )

    @property
    def records(self) -> tuple[BankRecord, ...]:
        """The rows as BankRecords of the panel's quarter, built on each read."""
        values = (self.columns[c].tolist() for c in NUMERIC_COLUMNS)
        return tuple(BankRecord(b, self.quarter, *v) for b, *v in zip(self.bank_ids, *values))

    def interbank_assets(self) -> np.ndarray:
        return self.columns["interbank_assets"]

    def interbank_liabilities(self) -> np.ndarray:
        return self.columns["interbank_liabilities"]

    def equity(self) -> np.ndarray:
        return self.columns["total_assets"] - self.columns["total_liabilities"]


def load_panel(path, quarter: str) -> QuarterlyPanel:
    """Load and validate one quarter's panel CSV.

    Rows violating record invariants (and rows tagged with a different
    quarter) land in ``panel.rejections`` rather than aborting the load.
    """
    validate_quarter(quarter)
    table = read_csv(path, PANEL_COLUMNS)
    ids, quarters = table["bank_id"], table["quarter"]
    order = np.array(_sort_order(ids, f"{path}: "), dtype=np.intp)
    columns = float_columns(path, table, NUMERIC_COLUMNS)
    ta, tl, ia, il = (columns[c] for c in NUMERIC_COLUMNS[:4])
    checks = [(f"non-finite {c}", ~np.isfinite(columns[c])) for c in NUMERIC_COLUMNS]
    finite = ~np.logical_or.reduce([mask for _, mask in checks])
    checks += [
        ("interbank_assets < 0", finite & (ia < 0)),
        ("interbank_assets > total_assets", finite & (ia >= 0) & (ia > ta)),
        ("interbank_liabilities < 0", finite & (il < 0)),
        ("interbank_liabilities > total_liabilities", finite & (il >= 0) & (il > tl)),
    ]
    wrong_quarter = np.array([q != quarter for q in quarters], dtype=bool)
    bad = np.logical_or.reduce([mask for _, mask in checks] + [wrong_quarter])
    rejections = []
    for i in np.flatnonzero(bad).tolist():
        reasons = [reason for reason, mask in checks if mask[i]]
        if wrong_quarter[i]:
            reasons.append(f"quarter {quarters[i]!r} does not match requested {quarter!r}")
        values = tuple(table[c][i] for c in PANEL_COLUMNS)
        rejections.append(RejectedRow(i + 2, values, "; ".join(reasons)))
    return QuarterlyPanel(
        quarter, rejections=rejections, bank_ids=ids, columns=columns, rows=order[~bad[order]]
    )


def write_panel_csv(panel: QuarterlyPanel, path) -> None:
    """Write a panel back out in the ingestion schema (repr-exact floats)."""
    values = [panel.columns[c] for c in NUMERIC_COLUMNS]
    write_csv(path, PANEL_COLUMNS, [panel.bank_ids, (panel.quarter,) * len(panel), *values])


def write_rejection_report(path, rejections: Sequence[RejectedRow]) -> None:
    columns = [[r.values[j] for r in rejections] for j in range(len(PANEL_COLUMNS))]
    write_csv(path, PANEL_COLUMNS + ("reason",), [*columns, [r.reason for r in rejections]])


def close_system(panel: QuarterlyPanel) -> QuarterlyPanel:
    """Rescale the liability side so total interbank assets and liabilities match.

    The proportional factor sum(IA)/sum(IL) is the minimal-distortion closure;
    it is stored on the returned panel for run metadata.
    """
    il = panel.interbank_liabilities()
    ia_sum, il_sum = math.fsum(panel.interbank_assets()), math.fsum(il)
    if il_sum == 0.0 and ia_sum > 0.0:
        raise InfeasibilityError(
            "total interbank liabilities are zero while assets are "
            f"{ia_sum:g}; no closed system exists"
        )
    factor = 1.0 if il_sum == 0.0 else ia_sum / il_sum
    columns = {**panel.columns, "interbank_liabilities": il if factor == 1.0 else il * factor}
    return QuarterlyPanel(
        panel.quarter, rejections=panel.rejections, closure_factor=factor,
        bank_ids=panel.bank_ids, columns=columns, rows=slice(None),
    )


def live_subsystem(panel: QuarterlyPanel) -> tuple[QuarterlyPanel, tuple[tuple[str, str], ...]]:
    """Drop banks with non-positive equity and close what is left.

    Returns the closed subsystem and the excluded ``(bank_id, reason)``
    pairs. The survivors are re-closed because exclusions unbalance the
    interbank aggregates. Raises DataError when no bank has positive equity.
    """
    equity = panel.equity()
    out = equity <= 0
    reasons = (f"non-positive starting equity ({e:g})" for e in equity[out].tolist())
    excluded = tuple(zip(compress(panel.bank_ids, out), reasons))
    live = np.flatnonzero(equity > 0)
    if not live.size:
        raise DataError(f"panel {panel.quarter}: no banks with positive equity")
    sub = QuarterlyPanel(panel.quarter, bank_ids=panel.bank_ids, columns=panel.columns, rows=live)
    return close_system(sub), excluded


@dataclass(frozen=True)
class DefaultLabelSet:
    """bank_id -> label, with 0 = failed by the horizon and 1 = still solvent."""

    horizon: str
    labels: Mapping[str, int]
    unmatched: tuple[str, ...] = ()  # failed-list ids absent from the universe

    def __len__(self) -> int:
        return len(self.labels)


def derive_labels(universe: QuarterlyPanel, failed_list) -> DefaultLabelSet:
    """Label every bank in the universe from a failed-bank list, at the next quarter.

    Failed-list entries not present in the universe are reported via
    ``unmatched`` (and a warning), never raised.
    """
    failed_ids = set(read_csv(failed_list, FAILED_LIST_COLUMNS)["bank_id"])
    labels = {b: (0 if b in failed_ids else 1) for b in universe.bank_ids}
    unmatched = tuple(sorted(failed_ids.difference(universe.bank_ids)))
    if unmatched:
        warnings.warn(
            f"failed-bank list names {len(unmatched)} bank(s) outside the universe: "
            + name_some(unmatched),
            stacklevel=2,
        )
    horizon = next_quarter(universe.quarter)
    return DefaultLabelSet(horizon=horizon, labels=labels, unmatched=unmatched)
