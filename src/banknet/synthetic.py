"""Seeded generator for desk-scale study inputs.

Emits four quarterly balance-sheet panels, a failed-bank list and a
ground-truth sidecar. Default risk is planted on weak Tier 1 leverage, weak
return on equity, and exposure to contagion on a hidden bilateral network of
which only the aggregate interbank assets/liabilities are visible to the
pipeline (a shared quality factor behind all ratio latents supplies realistic
cross-correlations). The hidden network's row/column sums are used verbatim
as the panel's interbank aggregates, so the generated system is closed by
construction and the pipeline has to reconstruct the bilaterals itself.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.special import expit

from .balance_sheets import (
    BankRecord,
    DefaultLabelSet,
    QuarterlyPanel,
    next_quarter,
    validate_quarter,
    write_panel_csv,
)
from .debtrank import ShockSpec, apply_shock, init_state, propagate
from .reconstruction import ExposureMatrix


@dataclass(frozen=True)
class SyntheticSpec:
    n_banks: int = 1000
    quarters: int = 4
    default_rate: float = 0.02
    contagion_signal_strength: float = 2.0
    rng_seed: int = 0
    start_quarter: str = "2009Q1"
    shock_fraction: float = 0.1  # scenario behind the planted ground truth
    ratio_signal: float = 1.3  # log-odds weight of the planted ratio latents
    # Share of defaults that are idiosyncratic (fraud, operational failure):
    # independent of every attribute, they guarantee the classes overlap and
    # keep oversampled panels from being perfectly separable.
    idiosyncratic_fraction: float = 0.08

    def __post_init__(self):
        if self.n_banks < 10:
            raise ValueError(f"n_banks must be at least 10, got {self.n_banks}")
        if self.quarters < 1:
            raise ValueError("quarters must be positive")
        if not 0.0 <= self.default_rate < 1.0:
            raise ValueError("default_rate must lie in [0, 1)")
        if not 0.0 <= self.idiosyncratic_fraction <= 1.0:
            raise ValueError("idiosyncratic_fraction must lie in [0, 1]")
        validate_quarter(self.start_quarter)


@dataclass(frozen=True)
class SyntheticResult:
    spec: SyntheticSpec
    panels: tuple[QuarterlyPanel, ...]
    labels: DefaultLabelSet
    ground_truth: dict


def _quarter_tags(spec: SyntheticSpec) -> list[str]:
    tags = [spec.start_quarter]
    for _ in range(spec.quarters - 1):
        tags.append(next_quarter(tags[-1]))
    return tags


def _hidden_edges(rng: np.random.Generator, n: int) -> np.ndarray:
    """Directed Erdos-Renyi adjacency, zero diagonal, >= 2 lending partners."""
    p_edge = min(0.5, 20.0 / n)
    adj = rng.random((n, n)) < p_edge
    np.fill_diagonal(adj, False)
    for i in range(n):
        deg = int(adj[i].sum())
        if deg < 2:
            candidates = np.setdiff1d(np.arange(n), np.append(np.flatnonzero(adj[i]), i))
            picked = rng.choice(candidates, size=2 - deg, replace=False)
            adj[i, picked] = True
    return adj


def _standardize(values: np.ndarray) -> np.ndarray:
    spread = float(values.std())
    return (values - values.mean()) / spread if spread > 0 else np.zeros_like(values)


def _calibrate_intercept(eta_centered: np.ndarray, rate: float) -> float:
    """Bisect the intercept so the mean default probability hits the target."""
    lo, hi = -40.0, 10.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if float(expit(mid + eta_centered).mean()) > rate:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def generate(spec: SyntheticSpec) -> SyntheticResult:
    rng = np.random.default_rng(spec.rng_seed)
    n = spec.n_banks
    ids = tuple(f"B{i:05d}" for i in range(n))
    tags = _quarter_tags(spec)

    # Latent bank quality (higher = healthier) drives the classical ratios.
    quality = rng.normal(0.0, 1.0, n)
    ta0 = rng.lognormal(np.log(3e5), 1.2, n)  # thousands of dollars
    equity_frac = rng.uniform(0.06, 0.14, n)
    # Interbank intensity is independent of quality so the contagion channel
    # carries its own signal (and none at strength zero).
    iba = np.clip(rng.lognormal(np.log(0.05), 0.7, n), 1e-4, 0.22)

    roa_latent = 0.004 + 0.004 * quality + rng.normal(0, 0.002, n)
    roe_latent = 0.04 + 0.05 * quality + rng.normal(0, 0.02, n)
    stpd_latent = np.clip(0.012 - 0.008 * quality + rng.normal(0, 0.004, n), 0.0, None)
    t1r_latent = np.clip(0.14 + 0.03 * quality + rng.normal(0, 0.015, n), 0.02, None)
    t1l_latent = np.clip(0.095 + 0.02 * quality + rng.normal(0, 0.008, n), 0.01, None)

    base_weights = np.where(_hidden_edges(rng, n), rng.lognormal(0.0, 0.5, (n, n)), 0.0)

    panels = []
    growth = np.ones(n)
    last_hidden = None
    last_equity = None
    for tag in tags:
        growth = growth * np.exp(rng.normal(0.0, 0.02, n))
        ta = ta0 * growth
        ef = np.clip(equity_frac + rng.normal(0.0, 0.004, n), 0.04, 0.2)
        equity = ef * ta
        tl = ta - equity

        # Interbank books churn noticeably quarter over quarter, so the
        # quarterly contagion columns are correlated but not collinear.
        iba_q = np.clip(iba * np.exp(rng.normal(0.0, 0.35, n)), 1e-4, 0.25)
        w = base_weights * np.exp(rng.normal(0.0, 0.4, (n, n)))
        rs = w.sum(axis=1)
        w *= (iba_q * ta / rs)[:, None]
        # Borrowing capacity cap: no bank owes more than 40% of liabilities.
        cs = w.sum(axis=0)
        cap = 0.4 * tl
        shrink = np.minimum(1.0, np.divide(cap, cs, out=np.ones_like(cs), where=cs > 0))
        w *= shrink[None, :]
        ia = w.sum(axis=1)
        il = w.sum(axis=0)

        roa_q = roa_latent + rng.normal(0, 0.0008, n)
        roe_q = roe_latent + rng.normal(0, 0.008, n)
        stpd_q = np.clip(stpd_latent + rng.normal(0, 0.0015, n), 0.0, None)
        t1r_q = np.clip(t1r_latent + rng.normal(0, 0.004, n), 0.01, None)
        t1l_q = np.clip(t1l_latent + rng.normal(0, 0.002, n), 0.005, None)

        records = tuple(
            BankRecord(
                bank_id=ids[i],
                quarter=tag,
                total_assets=float(ta[i]),
                total_liabilities=float(tl[i]),
                interbank_assets=float(ia[i]),
                interbank_liabilities=float(il[i]),
                roa=float(roa_q[i]),
                roe=float(roe_q[i]),
                short_term_past_due_ratio=float(stpd_q[i]),
                tier1_capital_ratio=float(t1r_q[i]),
                tier1_leverage_ratio=float(t1l_q[i]),
            )
            for i in range(n)
        )
        panels.append(QuarterlyPanel(quarter=tag, records=records))
        last_hidden = w
        last_equity = equity

    # Ground-truth contagion damage: run the propagation on the hidden
    # bilaterals of the last quarter (the pipeline only ever sees aggregates).
    state = init_state(ExposureMatrix(bank_ids=ids, w=last_hidden), last_equity)
    run = propagate(apply_shock(state, ShockSpec.uniform(ids, spec.shock_fraction)))
    damage = -run.proxy  # percent equity lost to contagion, >= 0
    z_damage = _standardize(damage)

    # Default log-odds: weak leverage, weak profitability, contagion exposure.
    # The remaining ratios correlate with default only through the shared
    # quality score behind the latents.
    eta_centered = (
        -spec.ratio_signal * 0.75 * _standardize(t1l_latent)
        - spec.ratio_signal * 0.75 * _standardize(roe_latent)
        + spec.contagion_signal_strength * z_damage
    )
    if spec.default_rate == 0.0:
        probs = np.zeros(n)
        intercept = None
    else:
        mix = spec.idiosyncratic_fraction
        intercept = _calibrate_intercept(eta_centered, spec.default_rate)
        probs = (1.0 - mix) * expit(intercept + eta_centered) + mix * spec.default_rate
    failed = rng.random(n) < probs

    horizon = next_quarter(tags[-1])
    labels = DefaultLabelSet(
        horizon=horizon,
        labels={ids[i]: (0 if failed[i] else 1) for i in range(n)},
    )
    ground_truth = {
        "spec": {
            "n_banks": spec.n_banks,
            "quarters": spec.quarters,
            "default_rate": spec.default_rate,
            "contagion_signal_strength": spec.contagion_signal_strength,
            "rng_seed": spec.rng_seed,
            "start_quarter": spec.start_quarter,
            "shock_fraction": spec.shock_fraction,
            "ratio_signal": spec.ratio_signal,
            "idiosyncratic_fraction": spec.idiosyncratic_fraction,
        },
        "horizon": horizon,
        "log_odds_intercept": intercept,
        "n_failed": int(failed.sum()),
        "bank_ids": list(ids),
        "quality": quality.tolist(),
        "true_contagion_damage_pct": damage.tolist(),
        "default_probability": probs.tolist(),
    }
    return SyntheticResult(
        spec=spec, panels=tuple(panels), labels=labels, ground_truth=ground_truth
    )


def write_outputs(result: SyntheticResult, out_dir) -> dict:
    """Write panels, the failed-bank list and the ground-truth sidecar.

    Returns a manifest-ready dict of paths keyed by artifact name.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {}
    for panel in result.panels:
        path = out / f"panel_{panel.quarter}.csv"
        write_panel_csv(panel, path)
        paths[f"panel_{panel.quarter}"] = str(path)

    failed_path = out / "failed_banks.csv"
    with open(failed_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(("bank_id", "failure_date"))
        for bank_id in sorted(b for b, v in result.labels.labels.items() if v == 0):
            writer.writerow((bank_id, f"{result.labels.horizon} (synthetic)"))
    paths["failed_banks"] = str(failed_path)

    truth_path = out / "ground_truth.json"
    with open(truth_path, "w", encoding="utf-8") as fh:
        json.dump(result.ground_truth, fh, indent=2, sort_keys=True)
        fh.write("\n")
    paths["ground_truth"] = str(truth_path)
    return paths
