"""Spans around banknet's public functions, recorded from outside the package.

A ``Tracer`` replaces each traced function with a wrapper on its defining
module *and* on every other ``banknet`` module that imported it by name, so
``banknet.pipeline.select_lambda`` and ``banknet.logit.select_lambda`` both
record. Spans (name, start, end, parent span, run id) and per-call work
counters stay in memory; the caller writes them out when the run ends.
Nothing under ``src/`` is modified on disk, and ``uninstall`` restores every
attribute it replaced.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import sys
import time
from contextlib import contextmanager

# Public functions traced per layer (a layer is a banknet module).
TARGETS = {
    "synthetic": ("generate", "write_outputs"),
    "balance_sheets": ("load_panel", "close_system", "derive_labels"),
    "reconstruction": ("reconstruct",),
    "debtrank": ("simulate_quarter", "init_state", "apply_shock", "propagate"),
    "dataset": ("build_panel", "rebalance", "split", "fit_scaler"),
    "mlp": ("tune", "train", "input_sensitivity"),
    "logit": ("select_lambda", "fit_lasso", "refit_active"),
    "pipeline": (
        "run_pipeline",
        "stage_simulate",
        "stage_build_dataset",
        "stage_train_mlp",
        "stage_sensitivity",
        "stage_logit",
        "stage_report",
        "load_dataset_dir",
    ),
}


def _reconstruct_counters(args, result):
    n = len(args["ia"])
    return {"ras_iterations": result[1].iterations, "cells": n * n}


def _propagate_counters(args, result):
    n = len(result.bank_ids)
    return {
        "periods": result.periods,
        "cell_periods": result.periods * n * n,
        "defaults_cascaded": result.defaults_cascaded,
    }


def _train_counters(args, result):
    config = args["config"]
    rows = len(args["x"])
    return {"minibatch_steps": config.epochs * math.ceil(rows / config.batch_size)}


def _train_attrs(args):
    config = args["config"]
    return {
        "candidate": f"{list(config.hidden_layers)}/{config.solver}/{config.learning_rate}"
    }


# Work counters taken from a call's bound arguments and its result; the
# result itself is never retained, so tracing does not raise peak memory.
COUNTERS = {
    "reconstruction.reconstruct": _reconstruct_counters,
    "debtrank.propagate": _propagate_counters,
    "mlp.train": _train_counters,
}
ATTRS = {"mlp.train": _train_attrs}


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.run_id = None
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    @contextmanager
    def span(self, name, **attrs):
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "run": self.run_id,
            "attrs": attrs,
            "counters": {},
        }
        self.spans.append(record)
        self._stack.append(record["id"])
        record["start"] = time.perf_counter()
        try:
            yield record
        except BaseException as exc:
            record["attrs"]["error"] = type(exc).__name__
            raise
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, name, fn):
        signature = inspect.signature(fn)
        counters = COUNTERS.get(name)
        attrs = ATTRS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            bound = None
            if counters or attrs:
                bound = signature.bind(*args, **kwargs).arguments
            with self.span(name, **(attrs(bound) if attrs else {})) as record:
                result = fn(*args, **kwargs)
                if counters:
                    record["counters"] = counters(bound, result)
                return result

        return wrapper

    def install(self, layers=tuple(TARGETS)):
        """Wrap every target of ``layers`` wherever banknet holds a reference."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        for layer in layers:
            importlib.import_module(f"banknet.{layer}")
        modules = [
            m for key, m in sys.modules.items() if key == "banknet" or key.startswith("banknet.")
        ]
        for layer in layers:
            defining = sys.modules[f"banknet.{layer}"]
            for fname in TARGETS[layer]:
                original = getattr(defining, fname)
                wrapper = self._wrap(f"{layer}.{fname}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._patches.append((module, attr, original))
                            setattr(module, attr, wrapper)

    def uninstall(self):
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()


def aggregate(spans):
    """Rows keyed by call path (span names from the root): calls, busy and
    self seconds, the longest call, summed counters and share of the parent.

    Busy time sums span durations; self time subtracts the direct children
    (calls are sequential, so children never overlap). The parent share is
    busy time over the busy time of the parent path.
    """
    paths: dict[int, tuple] = {}
    child_time: dict[int, float] = {}
    for s in spans:  # a parent is recorded before its children
        parent = s["parent"]
        paths[s["id"]] = (paths[parent] if parent is not None else ()) + (s["name"],)
        if parent is not None:
            child_time[parent] = child_time.get(parent, 0.0) + s["end"] - s["start"]
    rows: dict[tuple, dict] = {}
    for s in spans:
        duration = s["end"] - s["start"]
        row = rows.setdefault(paths[s["id"]], _empty_row(s["start"]))
        row["calls"] += 1
        row["busy_s"] += duration
        row["self_s"] += duration - child_time.get(s["id"], 0.0)
        row["max_s"] = max(row["max_s"], duration)
        for key, value in s["counters"].items():
            row["counters"][key] = row["counters"].get(key, 0) + value
    for path, row in rows.items():
        parent = rows.get(path[:-1])
        row["parent_share"] = (
            row["busy_s"] / parent["busy_s"] if parent and parent["busy_s"] > 0 else None
        )
    return rows


def _empty_row(first):
    return {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "max_s": 0.0, "counters": {}, "first": first}


def by_name(rows):
    """Path rows summed per span name; no traced function calls itself, so
    spans of one name never nest and their busy times add up."""
    totals: dict[str, dict] = {}
    for path, row in rows.items():
        total = totals.setdefault(path[-1], _empty_row(row["first"]))
        total["calls"] += row["calls"]
        total["busy_s"] += row["busy_s"]
        total["self_s"] += row["self_s"]
        total["max_s"] = max(total["max_s"], row["max_s"])
        for key, value in row["counters"].items():
            total["counters"][key] = total["counters"].get(key, 0) + value
    return totals


def format_table(rows) -> list[str]:
    """The path rows in call-tree order, children indented under parents."""
    lines = [
        f"{'span':<44} {'calls':>6} {'busy_s':>10} {'self_s':>10} {'%parent':>8}  counters"
    ]
    order = sorted(rows, key=lambda p: tuple(rows[p[:i]]["first"] for i in range(1, len(p) + 1)))
    for path in order:
        row = rows[path]
        share = "" if row["parent_share"] is None else f"{100 * row['parent_share']:.1f}%"
        counters = " ".join(f"{k}={v}" for k, v in sorted(row["counters"].items()))
        label = "  " * (len(path) - 1) + path[-1]
        lines.append(
            f"{label:<44} {row['calls']:>6} {row['busy_s']:>10.4f} {row['self_s']:>10.4f} "
            f"{share:>8}  {counters}"
        )
    return lines
