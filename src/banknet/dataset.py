"""Feature panels (6 metrics x 4 quarters): rebalancing, scaling, splits, accuracy.

Column order is metric-major then quarter and is fixed across every run:
stpd, roe, roa, tier1_ratio, tier1_leverage, contagion_proxy, each q1..q4.
``COLUMN_NAMES`` alone names a ``FeaturePanel``'s columns, in that order.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace
from itertools import compress
from typing import Sequence

import numpy as np

from .balance_sheets import DefaultLabelSet, QuarterlyPanel
from .errors import ArityError, ClassBalanceError, DatasetSizeError

_METRIC_FIELDS = (
    ("stpd", "stpd_ratio"),
    ("roe", "roe"),
    ("roa", "roa"),
    ("tier1_ratio", "tier1_ratio"),
    ("tier1_leverage", "tier1_leverage_ratio"),
)

COLUMN_NAMES: tuple[str, ...] = tuple(
    f"{metric}_q{k}" for metric, _ in _METRIC_FIELDS for k in range(1, 5)
) + tuple(f"contagion_proxy_q{k}" for k in range(1, 5))

CONTAGION_COLUMNS = tuple(c for c in COLUMN_NAMES if c.startswith("contagion_proxy"))


@dataclass(frozen=True)
class FeaturePanel:
    bank_ids: tuple[str, ...]
    x: np.ndarray
    y: np.ndarray
    exclusions: tuple[tuple[str, str], ...] = ()

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float)
        y = np.asarray(self.y, dtype=int).reshape(-1)
        if x.ndim != 2:
            raise ArityError(f"feature matrix must be 2-D, got shape {x.shape}")
        if x.shape != (len(self.bank_ids), len(COLUMN_NAMES)):
            raise ArityError(
                f"feature matrix {x.shape} does not match {len(self.bank_ids)} "
                f"banks x {len(COLUMN_NAMES)} columns"
            )
        if y.shape[0] != x.shape[0]:
            raise ArityError(f"{y.shape[0]} labels for {x.shape[0]} rows")
        bad = set(np.unique(y)) - {0, 1}
        if bad:
            raise ValueError(f"labels must be 0/1, found {sorted(bad)}")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)

    def __len__(self) -> int:
        return self.x.shape[0]


@dataclass(frozen=True)
class SplitAssignment:
    train: np.ndarray
    validation: np.ndarray
    test: np.ndarray


@dataclass(frozen=True)
class RobustScalerParams:
    """Per-column median and interquartile range, fit on training rows only."""

    median: np.ndarray
    iqr: np.ndarray

    def divisor(self) -> np.ndarray:
        # IQR 0 means a constant training column: center it, do not rescale.
        return np.where(self.iqr == 0.0, 1.0, self.iqr)


def _locate(ids, keys: np.ndarray) -> np.ndarray:
    """The index in ``ids`` (unique, any order) of each of ``keys``, or -1."""
    ids = np.asarray(ids, dtype=str)
    if ids.size == 0:
        return np.full(keys.size, -1)
    order = np.argsort(ids)
    at = order[np.minimum(np.searchsorted(ids, keys, sorter=order), ids.size - 1)]
    return np.where(ids[at] == keys, at, -1)


def build_panel(
    quarters: Sequence[QuarterlyPanel], proxies, labels: DefaultLabelSet
) -> FeaturePanel:
    """Inner-join banks present in all four quarters (with proxies and a label).

    ``proxies`` holds one ``(bank_ids, proxy values)`` pair per quarter.
    Banks missing anywhere are excluded and reported on the panel, not raised.
    """
    if len(quarters) != 4 or len(proxies) != 4:
        counts = f"{len(quarters)} and {len(proxies)}"
        raise ArityError(f"expected 4 quarterly panels and 4 proxy sets, got {counts}")
    universe = sorted(set().union(*(q.bank_ids for q in quarters)))
    keys = np.array(universe, dtype=str)
    checks = []  # a bank's exclusion reason is the first check it fails, in this order
    for q, (ids, _) in zip(quarters, proxies):
        checks.append((_locate(q.bank_ids, keys), f"missing from quarter {q.quarter}"))
        checks.append((_locate(ids, keys), f"no contagion proxy for quarter {q.quarter}"))
    labelled = np.array([b in labels.labels for b in universe], dtype=bool)
    kept = np.logical_and.reduce([at >= 0 for at, _ in checks] + [labelled])
    exclusions = tuple(
        (universe[i], next((reason for at, reason in checks if at[i] < 0), "no default label"))
        for i in np.flatnonzero(~kept).tolist()
    )
    if not kept.any():
        warnings.warn("feature panel is empty: no bank passes the four-quarter join")

    rows, proxy_rows = ([at[kept] for at, _ in checks[k::2]] for k in (0, 1))
    columns = [q.columns[name][at] for _, name in _METRIC_FIELDS for q, at in zip(quarters, rows)]
    columns += [np.asarray(values, dtype=float)[at] for (_, values), at in zip(proxies, proxy_rows)]
    bank_ids = tuple(compress(universe, kept))
    return FeaturePanel(
        bank_ids=bank_ids,
        x=np.column_stack(columns),
        y=np.array([labels.labels[b] for b in bank_ids], dtype=int),
        exclusions=exclusions,
    )


def take(panel: FeaturePanel, rows) -> FeaturePanel:
    """The panel's rows at ``rows``, in that order; a row may repeat."""
    bank_ids = tuple(panel.bank_ids[i] for i in rows)
    return replace(panel, bank_ids=bank_ids, x=panel.x[rows], y=panel.y[rows])


def rebalance_size(total: int, per_partition: bool = False) -> int:
    """The rows one rebalance draws for a dataset of ``total`` rows: all of
    them, which must be a positive even count, or with ``per_partition``
    (one rebalance per split partition) a third of them rounded up to even,
    which needs a ``total`` of at least 3."""
    if per_partition:
        if not total >= 3:
            raise ValueError(f"total must be at least 3 with rebalance_after_split, got {total}")
        return total // 3 + total // 3 % 2
    if not (total > 0 and total % 2 == 0):
        raise ValueError(f"total must be a positive even count, got {total}")
    return total


def rebalanced_rows(y, rows, target_total: int, seed: int) -> np.ndarray:
    """Indices into ``y``: ``rows`` resampled to target_total, half per class.

    The minority class is oversampled with replacement (its rows always
    kept), the majority class subsampled without replacement; the result is
    shuffled.
    """
    per_class = rebalance_size(target_total) // 2
    rows = np.asarray(rows, dtype=int)
    rng = np.random.default_rng(seed)
    picks = []
    for cls in (0, 1):
        idx = rows[y[rows] == cls]
        if idx.size == 0:
            raise ClassBalanceError(f"class {cls} is empty; cannot rebalance")
        if idx.size >= per_class:
            picks.append(rng.choice(idx, size=per_class, replace=False))
        else:
            extra = rng.choice(idx, size=per_class - idx.size, replace=True)
            picks.append(np.concatenate([idx, extra]))
    picked = np.concatenate(picks)
    return picked[rng.permutation(picked.size)]


def rebalance(panel: FeaturePanel, target_total: int, seed: int) -> FeaturePanel:
    """Resample to target_total rows, half per class (see ``rebalanced_rows``).

    Synthetic rows are exact copies, never jittered.
    """
    return take(panel, rebalanced_rows(panel.y, np.arange(len(panel)), target_total, seed))


def fit_scaler(panel: FeaturePanel, train_idx) -> RobustScalerParams:
    """Median/IQR per column over the training rows only (no test leakage)."""
    train_idx = np.asarray(train_idx, dtype=int)
    if train_idx.size == 0:
        raise DatasetSizeError("cannot fit a scaler on an empty training set")
    xt = panel.x[train_idx]
    median = np.median(xt, axis=0)
    q1, q3 = np.quantile(xt, [0.25, 0.75], axis=0)  # linear interpolation
    return RobustScalerParams(median=median, iqr=q3 - q1)


def apply_scaler(params: RobustScalerParams, panel: FeaturePanel) -> FeaturePanel:
    return replace(panel, x=(panel.x - params.median) / params.divisor())


def split(panel: FeaturePanel, seed: int) -> SplitAssignment:
    """Seeded random split into thirds, class-stratified.

    Partition sizes are equal within one row; within each class the partition
    quotas follow largest-remainder apportionment so class rates match the
    panel within one row per partition.
    """
    m = len(panel)
    if m < 3:
        raise DatasetSizeError(f"need at least 3 rows to split, got {m}")
    rng = np.random.default_rng(seed)
    base, rem = divmod(m, 3)
    targets = np.array([base + (1 if p < rem else 0) for p in range(3)])
    caps = targets.copy()

    parts: list[list[int]] = [[], [], []]
    leftovers: list[tuple[float, int, int, int]] = []  # (-frac, class order, partition, row)
    for order, cls in enumerate(np.unique(panel.y)):
        rows = rng.permutation(np.flatnonzero(panel.y == cls))
        quota = rows.size * targets / m
        take = np.floor(quota).astype(int)
        pos = 0
        for p in range(3):
            parts[p].extend(rows[pos : pos + take[p]].tolist())
            pos += take[p]
        caps -= take
        frac = quota - take
        for j, row in enumerate(rows[pos:]):
            # one leftover unit per fractional slot, preferring large fractions
            p = int(np.argsort(-frac, kind="stable")[j])
            leftovers.append((-frac[p], order, p, int(row)))

    leftovers.sort()
    for _, _, p, row in leftovers:
        if caps[p] > 0:
            parts[p].append(row)
            caps[p] -= 1
        else:
            q = int(np.argmax(caps))
            parts[q].append(row)
            caps[q] -= 1

    train, validation, test = (np.array(sorted(p), dtype=int) for p in parts)
    return SplitAssignment(train, validation, test)


def accuracy(prob, y) -> float:
    """The share of rows whose label ``y`` the probabilities ``prob`` call
    right; a row is called a default (1) at a probability of 0.5 or more."""
    y = np.asarray(y, dtype=int).reshape(-1)
    return float(np.mean((np.asarray(prob) >= 0.5) == y))
