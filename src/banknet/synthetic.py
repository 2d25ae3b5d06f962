"""Seeded generator for desk-scale study inputs.

Emits four quarterly balance-sheet panels, a failed-bank list and a
ground-truth sidecar. Default risk is planted on weak Tier 1 leverage, weak
return on equity, and exposure to contagion on a hidden bilateral network of
which only the aggregate interbank assets/liabilities are visible to the
pipeline (a shared quality factor behind all ratio latents supplies realistic
cross-correlations). The hidden network's row/column sums are used verbatim
as the panel's interbank aggregates, so the generated system is closed by
construction and the pipeline has to reconstruct the bilaterals itself.

The network is held as its edges, never as an n x n array: its n x n draws
are made ``ROW_BLOCK`` rows at a time on the stream of one full draw, and
every row and column sum adds its edges one by one in row-major order
(``np.bincount``), starting from 0.0.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np
from scipy import sparse
from scipy.special import expit

from .artifacts import write_csv, write_json
from .balance_sheets import (
    FAILED_LIST_COLUMNS,
    NUMERIC_COLUMNS,
    DefaultLabelSet,
    QuarterlyPanel,
    next_quarter,
    validate_quarter,
    write_panel_csv,
)
from .debtrank import (
    DEFAULT_SHOCK_FRACTION,
    ShockSpec,
    apply_shock,
    check_shock_fraction,
    init_state,
    propagate,
)
from .reconstruction import ExposureMatrix

RATIO_SIGNAL = 1.3  # log-odds weight of the planted ratio latents
# Share of defaults that are idiosyncratic (fraud, operational failure):
# independent of every attribute, they guarantee the classes overlap and
# keep oversampled panels from being perfectly separable.
IDIOSYNCRATIC_FRACTION = 0.08
ROW_BLOCK = 256  # rows of the hidden network's n x n draws held at a time


@dataclass(frozen=True)
class SyntheticSpec:
    n_banks: int = 1000
    quarters: int = 4
    default_rate: float = 0.02
    contagion_signal_strength: float = 2.0
    rng_seed: int = 0
    start_quarter: str = "2009Q1"
    shock_fraction: float = DEFAULT_SHOCK_FRACTION  # scenario behind the planted ground truth

    def __post_init__(self):
        if self.n_banks < 10:
            raise ValueError(f"n_banks must be at least 10, got {self.n_banks}")
        if self.quarters < 1:
            raise ValueError("quarters must be positive")
        if not 0.0 <= self.default_rate < 1.0:
            raise ValueError("default_rate must lie in [0, 1)")
        if not math.isfinite(self.contagion_signal_strength):
            raise ValueError("contagion_signal_strength must be finite")
        check_shock_fraction(self.shock_fraction)
        validate_quarter(self.start_quarter)


@dataclass(frozen=True)
class SyntheticResult:
    panels: tuple[QuarterlyPanel, ...]
    labels: DefaultLabelSet
    ground_truth: dict


def _quarter_tags(spec: SyntheticSpec) -> list[str]:
    tags = [spec.start_quarter]
    for _ in range(spec.quarters - 1):
        tags.append(next_quarter(tags[-1]))
    return tags


def _hidden_edges(rng: np.random.Generator, n: int, buf: np.ndarray) -> np.ndarray:
    """Directed Erdos-Renyi adjacency, zero diagonal, >= 2 lending partners,
    as sorted row-major positions. The n x n uniforms are drawn a block of
    rows at a time into ``buf``, the stream of one ``(n, n)`` draw."""
    p_edge = min(0.5, 20.0 / n)
    parts = []
    for r0 in range(0, n, ROW_BLOCK):
        m = min(ROW_BLOCK, n - r0)
        adj = rng.random(out=buf[:m]) < p_edge
        adj[np.arange(m), np.arange(r0, r0 + m)] = False
        parts.append(np.flatnonzero(adj) + r0 * n)
    edges = np.concatenate(parts)
    degree = np.bincount(edges // n, minlength=n)
    for i in np.flatnonzero(degree < 2):
        lo, hi = np.searchsorted(edges, (i * n, (i + 1) * n))
        candidates = np.setdiff1d(np.arange(n), np.append(edges[lo:hi] - i * n, i))
        parts.append(i * n + rng.choice(candidates, size=2 - int(degree[i]), replace=False))
    return np.sort(np.concatenate(parts))


def _on_edges(draw, n: int, edges: np.ndarray) -> np.ndarray:
    """The values at ``edges`` (sorted row-major positions ``i * n + j``) of
    an n x n draw made ``ROW_BLOCK`` rows at a time: ``draw(m)`` returns the
    next m rows."""
    cuts = np.searchsorted(edges, [*range(0, n * n, ROW_BLOCK * n), n * n])
    values = np.empty(edges.size)
    for r0, k0, k1 in zip(range(0, n, ROW_BLOCK), cuts, cuts[1:]):
        values[k0:k1] = draw(min(ROW_BLOCK, n - r0)).ravel()[edges[k0:k1] - r0 * n]
    return values


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

    buf = np.empty((min(ROW_BLOCK, n), n))  # one block of rows, reused
    edges = _hidden_edges(rng, n, buf)
    rows, cols = np.divmod(edges, n)
    base_weights = _on_edges(lambda m: rng.lognormal(0.0, 0.5, (m, n)), n, edges)

    panels = []
    growth = np.ones(n)
    for tag in tags:
        growth = growth * np.exp(rng.normal(0.0, 0.02, n))
        ta = ta0 * growth
        ef = np.clip(equity_frac + rng.normal(0.0, 0.004, n), 0.04, 0.2)
        equity = ef * ta
        tl = ta - equity

        # Interbank books churn noticeably quarter over quarter, so the
        # quarterly contagion columns are correlated but not collinear.
        iba_q = np.clip(iba * np.exp(rng.normal(0.0, 0.35, n)), 1e-4, 0.25)
        # w = base_weights * exp(0.4 z), z standard normal over all n x n cells.
        z = _on_edges(lambda m: rng.standard_normal(out=buf[:m]), n, edges)
        w = np.exp(z * 0.4) * base_weights
        rs = np.bincount(rows, weights=w, minlength=n)
        w *= (iba_q * ta / rs)[rows]
        # Borrowing capacity cap: no bank owes more than 40% of liabilities.
        cs = np.bincount(cols, weights=w, minlength=n)
        cap = 0.4 * tl
        shrink = np.minimum(1.0, np.divide(cap, cs, out=np.ones_like(cs), where=cs > 0))
        w *= shrink[cols]
        ia = np.bincount(rows, weights=w, minlength=n)
        il = np.bincount(cols, weights=w, minlength=n)

        roa_q = roa_latent + rng.normal(0, 0.0008, n)
        roe_q = roe_latent + rng.normal(0, 0.008, n)
        stpd_q = np.clip(stpd_latent + rng.normal(0, 0.0015, n), 0.0, None)
        t1r_q = np.clip(t1r_latent + rng.normal(0, 0.004, n), 0.01, None)
        t1l_q = np.clip(t1l_latent + rng.normal(0, 0.002, n), 0.005, None)

        values = (ta, tl, ia, il, roa_q, roe_q, stpd_q, t1r_q, t1l_q)  # NUMERIC_COLUMNS order
        panels.append(QuarterlyPanel(tag, bank_ids=ids, columns=dict(zip(NUMERIC_COLUMNS, values))))

    # Ground-truth contagion damage: run the propagation on the hidden
    # bilaterals of the last quarter (the pipeline only ever sees aggregates).
    hidden = sparse.coo_array((w, (rows, cols)), shape=(n, n))
    state = init_state(ExposureMatrix(bank_ids=ids, w=hidden), equity)
    run = propagate(apply_shock(state, ShockSpec.uniform(ids, spec.shock_fraction)))
    damage = -run.proxy  # percent equity lost to contagion, >= 0
    z_damage = _standardize(damage)

    # Default log-odds: weak leverage, weak profitability, contagion exposure.
    # The remaining ratios correlate with default only through the shared
    # quality score behind the latents.
    eta_centered = (
        -RATIO_SIGNAL * 0.75 * _standardize(t1l_latent)
        - RATIO_SIGNAL * 0.75 * _standardize(roe_latent)
        + spec.contagion_signal_strength * z_damage
    )
    if spec.default_rate == 0.0:
        probs = np.zeros(n)
        intercept = None
    else:
        mix = IDIOSYNCRATIC_FRACTION
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
            **asdict(spec),
            "ratio_signal": RATIO_SIGNAL,
            "idiosyncratic_fraction": IDIOSYNCRATIC_FRACTION,
        },
        "horizon": horizon,
        "log_odds_intercept": intercept,
        "n_failed": int(failed.sum()),
        "bank_ids": list(ids),
        "quality": quality.tolist(),
        "true_contagion_damage_pct": damage.tolist(),
        "default_probability": probs.tolist(),
    }
    return SyntheticResult(panels=tuple(panels), labels=labels, ground_truth=ground_truth)


def write_outputs(result: SyntheticResult, out_dir) -> dict:
    """Write panels, the failed-bank list and the ground-truth sidecar.

    Returns a manifest-ready dict of paths keyed by artifact name.
    """
    out = Path(out_dir)
    paths = {}
    for panel in result.panels:
        path = out / f"panel_{panel.quarter}.csv"
        write_panel_csv(panel, path)
        paths[f"panel_{panel.quarter}"] = str(path)

    failed_path = out / "failed_banks.csv"
    date = f"{result.labels.horizon} (synthetic)"
    failed = sorted(b for b, v in result.labels.labels.items() if v == 0)
    write_csv(failed_path, FAILED_LIST_COLUMNS, [failed, [date] * len(failed)])
    paths["failed_banks"] = str(failed_path)

    truth_path = out / "ground_truth.json"
    write_json(truth_path, result.ground_truth)
    paths["ground_truth"] = str(truth_path)
    return paths
