"""Quarterly balance-sheet panel ingestion, validation and derived labels.

Panels arrive as plain CSV, one row per bank. Structural problems (missing
columns, duplicate ids, unparseable numbers) abort the load; rows that merely
violate record invariants are quarantined into a rejection report so large
real-world panels degrade gracefully.
"""

from __future__ import annotations

import csv
import math
import re
import warnings
from collections import Counter
from dataclasses import dataclass, replace
from typing import Iterable, Mapping

import numpy as np

from .errors import DataError, InfeasibilityError, IntegrityError, ParseError, SchemaError

PANEL_COLUMNS = (
    "bank_id",
    "quarter",
    "total_assets",
    "total_liabilities",
    "interbank_assets",
    "interbank_liabilities",
    "roa",
    "roe",
    "stpd_ratio",
    "tier1_ratio",
    "tier1_leverage_ratio",
)
NUMERIC_COLUMNS = PANEL_COLUMNS[2:]
FAILED_LIST_COLUMNS = ("bank_id", "failure_date")

_QUARTER_RE = re.compile(r"^(\d{4})Q([1-4])$")


def validate_quarter(tag: str) -> str:
    if not _QUARTER_RE.match(tag):
        raise ValueError(f"not a quarter tag (expected e.g. 2009Q1): {tag!r}")
    return tag


def next_quarter(tag: str) -> str:
    """2009Q4 -> 2010Q1."""
    m = _QUARTER_RE.match(tag)
    if not m:
        raise ValueError(f"not a quarter tag: {tag!r}")
    year, q = int(m.group(1)), int(m.group(2))
    return f"{year + 1}Q1" if q == 4 else f"{year}Q{q + 1}"


@dataclass(frozen=True)
class BankRecord:
    """One bank-quarter of balance-sheet aggregates and financial ratios.

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
    short_term_past_due_ratio: float
    tier1_capital_ratio: float
    tier1_leverage_ratio: float

    @property
    def equity(self) -> float:
        return self.total_assets - self.total_liabilities


# CSV column -> BankRecord attribute
_FIELD_FOR_COLUMN = {
    "stpd_ratio": "short_term_past_due_ratio",
    "tier1_ratio": "tier1_capital_ratio",
}


def record_violations(rec: BankRecord) -> list[str]:
    """Invariant violations of a record; empty list means the row is clean."""
    reasons = []
    for col in NUMERIC_COLUMNS:
        if not math.isfinite(getattr(rec, _FIELD_FOR_COLUMN.get(col, col))):
            reasons.append(f"non-finite {col}")
    if reasons:
        return reasons
    if rec.interbank_assets < 0:
        reasons.append("interbank_assets < 0")
    elif rec.interbank_assets > rec.total_assets:
        reasons.append("interbank_assets > total_assets")
    if rec.interbank_liabilities < 0:
        reasons.append("interbank_liabilities < 0")
    elif rec.interbank_liabilities > rec.total_liabilities:
        reasons.append("interbank_liabilities > total_liabilities")
    return reasons


@dataclass(frozen=True)
class RejectedRow:
    row_number: int  # 1-based line in the CSV (header is line 1)
    values: tuple[str, ...]  # raw fields in PANEL_COLUMNS order
    reason: str


@dataclass(frozen=True)
class QuarterlyPanel:
    """All banks of one quarter, sorted by bank_id for reproducible indexing."""

    quarter: str
    records: tuple[BankRecord, ...]
    rejections: tuple[RejectedRow, ...] = ()
    closure_factor: float | None = None

    def __post_init__(self):
        ordered = tuple(sorted(self.records, key=lambda r: r.bank_id))
        object.__setattr__(self, "records", ordered)
        counts = Counter(r.bank_id for r in ordered)
        dupes = sorted(b for b, c in counts.items() if c > 1)
        if dupes:
            raise IntegrityError(f"duplicate bank_id(s): {', '.join(dupes)}")

    def __len__(self) -> int:
        return len(self.records)

    @property
    def bank_ids(self) -> tuple[str, ...]:
        return tuple(r.bank_id for r in self.records)

    def interbank_assets(self) -> np.ndarray:
        return np.array([r.interbank_assets for r in self.records], dtype=float)

    def interbank_liabilities(self) -> np.ndarray:
        return np.array([r.interbank_liabilities for r in self.records], dtype=float)

    def equity(self) -> np.ndarray:
        return np.array([r.equity for r in self.records], dtype=float)


def load_panel(path, quarter: str) -> QuarterlyPanel:
    """Load and validate one quarter's panel CSV.

    Rows violating record invariants (and rows tagged with a different
    quarter) land in ``panel.rejections`` rather than aborting the load.
    """
    validate_quarter(quarter)
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise SchemaError(f"{path}: empty file, no header row")
        missing = [c for c in PANEL_COLUMNS if c not in reader.fieldnames]
        if missing:
            raise SchemaError(f"{path}: missing required column(s): {', '.join(missing)}")
        rows = list(reader)

    counts = Counter(row["bank_id"] for row in rows)
    dupes = sorted(b for b, c in counts.items() if c > 1)
    if dupes:
        raise IntegrityError(f"{path}: duplicate bank_id(s): {', '.join(dupes)}")

    kept: list[BankRecord] = []
    rejected: list[RejectedRow] = []
    for line, row in enumerate(rows, start=2):
        values = {}
        for col in NUMERIC_COLUMNS:
            raw = (row[col] or "").strip()
            try:
                values[_FIELD_FOR_COLUMN.get(col, col)] = float(raw)
            except ValueError:
                raise ParseError(
                    f"{path}: row {line}: non-numeric {col}={raw!r}", row=line
                ) from None
        rec = BankRecord(bank_id=row["bank_id"], quarter=row["quarter"], **values)
        reasons = record_violations(rec)
        if rec.quarter != quarter:
            reasons.append(f"quarter {rec.quarter!r} does not match requested {quarter!r}")
        if reasons:
            rejected.append(
                RejectedRow(line, tuple(row[c] for c in PANEL_COLUMNS), "; ".join(reasons))
            )
        else:
            kept.append(rec)
    return QuarterlyPanel(quarter=quarter, records=tuple(kept), rejections=tuple(rejected))


def write_panel_csv(panel: QuarterlyPanel, path) -> None:
    """Write a panel back out in the ingestion schema (repr-exact floats)."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(PANEL_COLUMNS)
        for r in panel.records:
            writer.writerow(
                (
                    r.bank_id,
                    r.quarter,
                    repr(r.total_assets),
                    repr(r.total_liabilities),
                    repr(r.interbank_assets),
                    repr(r.interbank_liabilities),
                    repr(r.roa),
                    repr(r.roe),
                    repr(r.short_term_past_due_ratio),
                    repr(r.tier1_capital_ratio),
                    repr(r.tier1_leverage_ratio),
                )
            )


def write_rejection_report(path, rejections: Iterable[RejectedRow]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(PANEL_COLUMNS + ("reason",))
        for rej in rejections:
            writer.writerow(rej.values + (rej.reason,))


def close_system(panel: QuarterlyPanel) -> QuarterlyPanel:
    """Rescale the liability side so total interbank assets and liabilities match.

    The proportional factor sum(IA)/sum(IL) is the minimal-distortion closure;
    it is stored on the returned panel for run metadata.
    """
    ia_sum = math.fsum(r.interbank_assets for r in panel.records)
    il_sum = math.fsum(r.interbank_liabilities for r in panel.records)
    if il_sum == 0.0:
        if ia_sum > 0.0:
            raise InfeasibilityError(
                "total interbank liabilities are zero while assets are "
                f"{ia_sum:g}; no closed system exists"
            )
        return replace(panel, closure_factor=1.0)
    factor = ia_sum / il_sum
    if factor == 1.0:
        return replace(panel, closure_factor=1.0)
    records = tuple(
        replace(r, interbank_liabilities=r.interbank_liabilities * factor)
        for r in panel.records
    )
    return replace(panel, records=records, closure_factor=factor)


def live_subsystem(
    panel: QuarterlyPanel,
) -> tuple[QuarterlyPanel, tuple[tuple[str, str], ...]]:
    """Drop banks with non-positive equity and close what is left.

    Returns the closed subsystem and the excluded ``(bank_id, reason)``
    pairs. The survivors are re-closed because exclusions unbalance the
    interbank aggregates. Raises DataError when no bank has positive equity.
    """
    excluded = tuple(
        (r.bank_id, f"non-positive starting equity ({r.equity:g})")
        for r in panel.records
        if r.equity <= 0
    )
    live = tuple(r for r in panel.records if r.equity > 0)
    if not live:
        raise DataError(f"panel {panel.quarter}: no banks with positive equity")
    return close_system(QuarterlyPanel(quarter=panel.quarter, records=live)), excluded


@dataclass(frozen=True)
class DefaultLabelSet:
    """bank_id -> label, with 0 = failed by the horizon and 1 = still solvent."""

    horizon: str
    labels: Mapping[str, int]
    unmatched: tuple[str, ...] = ()  # failed-list ids absent from the universe

    def __len__(self) -> int:
        return len(self.labels)


def derive_labels(universe: QuarterlyPanel, failed_list, horizon: str | None = None) -> DefaultLabelSet:
    """Label every bank in the universe from a failed-bank list.

    Failed-list entries not present in the universe are reported via
    ``unmatched`` (and a warning), never raised.
    """
    with open(failed_list, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise SchemaError(f"{failed_list}: empty file, no header row")
        missing = [c for c in FAILED_LIST_COLUMNS if c not in reader.fieldnames]
        if missing:
            raise SchemaError(
                f"{failed_list}: missing required column(s): {', '.join(missing)}"
            )
        failed_ids = {row["bank_id"] for row in reader}

    ids = set(universe.bank_ids)
    labels = {b: (0 if b in failed_ids else 1) for b in universe.bank_ids}
    unmatched = tuple(sorted(failed_ids - ids))
    if unmatched:
        warnings.warn(
            f"failed-bank list names {len(unmatched)} bank(s) outside the universe: "
            + ", ".join(unmatched),
            stacklevel=2,
        )
    if horizon is None:
        horizon = next_quarter(universe.quarter)
    return DefaultLabelSet(horizon=validate_quarter(horizon), labels=labels, unmatched=unmatched)
