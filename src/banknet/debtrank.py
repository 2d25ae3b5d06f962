"""Equity contagion over a fixed exposure network.

Losses travel from borrowers to lenders: a drop in a borrower's equity
devalues the loans extended to it in proportion to the borrower's relative
equity loss, measured against the pre-run baseline,

    E_i(t+1) = max(0, E_i(t) + sum_j phi_ij * beta * (E_j(t) - E_j(t-1)))

with phi_ij = W0_ij / E0_j frozen at its initial value. Equity is floored at
zero; a bank at zero equity is insolvent and silenced: from the next period
on, its equity changes are skipped as a borrower, so it transmits nothing
further (the same as zeroing its phi column). beta scales the pass-through
(beta = 1 is plain proportional transmission, beta = 0 disables contagion
entirely).

Equity never rises (beta >= 0, phi >= 0 and every change is a loss), so a
bank at zero stays there and insolvency is read off the equity itself,
``e == 0``. The exposure matrix and the starting equity are the only network
state: phi is never stored. Each period ``propagate`` hands the matrix's
``loss_step`` the live borrowers and their beta-scaled equity changes. On a
reconstructed (rank-1) network that step costs O(n); on a given matrix it
adds each live borrower's nonzero ratios in borrower order, O(edges).

The per-bank contagion proxy is the percentage equity loss between the
post-shock state and the converged state, i.e. the damage attributable to
contagion alone, excluding the initial shock. It always lies in [-100, 0].

``simulate_quarter`` runs the pipeline's one scenario: every live bank loses
the same fraction of its equity. Any other shock goes through ``init_state``,
``apply_shock`` and ``propagate`` directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .balance_sheets import QuarterlyPanel, live_subsystem
from .errors import DomainError, UnknownBankError
from .reconstruction import (
    DEFAULT_MAX_ITER,
    DEFAULT_TOLERANCE,
    ExposureMatrix,
    RasReport,
    reconstruct,
)

DEFAULT_ALPHA = 1e-6
DEFAULT_BETA = 1.0
DEFAULT_MAX_PERIODS = 10_000
DEFAULT_SHOCK_FRACTION = 0.1
_EPS = 1e-12

SHOCK_MODES = ("equity_fraction", "absolute")


@dataclass(frozen=True)
class ShockSpec:
    """Initial shock: per-bank equity fractions in [0, 1] or absolute amounts."""

    mode: str
    targets: Mapping[str, float]

    def __post_init__(self):
        if self.mode not in SHOCK_MODES:
            raise ValueError(f"unknown shock mode {self.mode!r}; use one of {SHOCK_MODES}")
        if self.mode == "equity_fraction":
            rule = "equity fractions must lie in [0, 1]"
            bad = [b for b, f in self.targets.items() if not 0.0 <= f <= 1.0]
        else:
            rule = "absolute shocks must be nonnegative"
            bad = [b for b, a in self.targets.items() if a < 0.0]
        if bad:
            shown = ", ".join(f"{b}={self.targets[b]!r}" for b in bad[:10])
            more = f" and {len(bad) - 10} more" if len(bad) > 10 else ""
            raise ValueError(f"{rule}: {shown}{more}")

    @classmethod
    def uniform(cls, bank_ids, fraction: float) -> "ShockSpec":
        return cls(mode="equity_fraction", targets=dict.fromkeys(bank_ids, fraction))


@dataclass
class NetworkState:
    """Simulation state: the frozen network and starting equity ``e0``, plus
    the current (possibly shocked) equity. A bank with ``e_curr == 0`` is
    insolvent and silenced."""

    exposures: ExposureMatrix
    e0: np.ndarray
    e_curr: np.ndarray
    shocked: bool = False

    @property
    def bank_ids(self) -> tuple[str, ...]:
        return self.exposures.bank_ids

    @property
    def n(self) -> int:
        return self.exposures.n


@dataclass(frozen=True)
class ContagionRun:
    """Outcome of one propagation: final/post-shock equity and the proxy."""

    bank_ids: tuple[str, ...]
    e_post_shock: np.ndarray
    e_final: np.ndarray
    proxy: np.ndarray  # percentages in [-100, 0]
    initially_defaulted: np.ndarray
    cascade_defaulted: np.ndarray
    periods: int
    converged: bool
    defaults_cascaded: int
    trajectory: tuple[np.ndarray, ...] | None = None


def init_state(w: ExposureMatrix, equity) -> NetworkState:
    """Pair the network with its finite, strictly positive starting equity."""
    equity = np.asarray(equity, dtype=float)
    if equity.shape != (w.n,):
        raise DomainError(f"equity vector of length {equity.size} for n={w.n}")
    bad = np.flatnonzero(~np.isfinite(equity) | (equity <= 0))
    if bad.size:
        names = ", ".join(w.bank_ids[i] for i in bad[:10])
        raise DomainError(
            f"non-finite or non-positive starting equity for bank(s): {names}; "
            "exclude them upstream"
        )
    return NetworkState(exposures=w, e0=equity.copy(), e_curr=equity.copy())


def apply_shock(state: NetworkState, shock: ShockSpec) -> NetworkState:
    """Reduce current equity per the shock; ``e0`` stays the previous period,
    so the first propagation step sees the shock as the equity change. Banks
    driven to zero are insolvent and transmit nothing."""
    if state.shocked:
        raise ValueError("state already shocked; apply_shock expects a fresh state")
    index = dict(zip(state.bank_ids, range(state.n)))
    unknown = sorted(shock.targets.keys() - index.keys())
    if unknown:
        raise UnknownBankError(f"shock targets unknown bank_id(s): {', '.join(unknown)}")
    rows = np.fromiter(map(index.__getitem__, shock.targets), dtype=np.intp)
    size = np.fromiter(shock.targets.values(), dtype=float)
    e_curr = state.e_curr.copy()
    if shock.mode == "equity_fraction":
        e_curr[rows] = state.e_curr[rows] * (1.0 - size)
    else:
        e_curr[rows] = np.fmax(0.0, state.e_curr[rows] - size)  # as max(0.0, nan): 0.0
    return NetworkState(exposures=state.exposures, e0=state.e0, e_curr=e_curr, shocked=True)


def _proxy_vector(e_post_shock: np.ndarray, e_final: np.ndarray):
    initially_defaulted = e_post_shock == 0.0
    denom = np.where(initially_defaulted, 1.0, e_post_shock)
    proxy = np.where(
        initially_defaulted, 0.0, (e_final - e_post_shock) / denom * 100.0
    )
    return proxy, initially_defaulted


def propagate(
    state: NetworkState,
    beta: float = DEFAULT_BETA,
    alpha: float = DEFAULT_ALPHA,
    max_periods: int = DEFAULT_MAX_PERIODS,
    record_trajectory: bool = False,
) -> ContagionRun:
    """Iterate the contagion update until the largest relative equity change
    falls below alpha, or max_periods is reached (reported, not raised).

    The passed state is not mutated. A borrower at zero equity is silenced:
    it is skipped in the per-period sum, so a bank transmits its losses up to
    the period in which it hits zero and nothing after.
    """
    if not 0.0 <= beta < math.inf:
        raise ValueError(f"beta must be finite and nonnegative, got {beta}")
    if not 0.0 < alpha < math.inf:
        raise ValueError(f"alpha must be finite and positive, got {alpha}")
    step = state.exposures.loss_step(state.e0)
    e_prev = state.e0.copy()
    e_curr = state.e_curr.copy()
    e_post_shock = state.e_curr.copy()
    trajectory = [e_post_shock.copy()] if record_trajectory else None

    converged = False
    periods = 0
    for t in range(1, max_periods + 1):
        delta = e_curr - e_prev
        # != rather than >: a NaN equity is not taken for insolvency.
        borrowers = np.flatnonzero((delta != 0.0) & (e_curr != 0.0))
        e_next = step(e_curr, borrowers, beta * delta[borrowers])
        np.maximum(e_next, 0.0, out=e_next)
        periods = t
        if record_trajectory:
            trajectory.append(e_next.copy())
        rel = np.abs(e_next - e_curr) / np.maximum(e_curr, _EPS)
        e_prev, e_curr = e_curr, e_next
        if float(rel.max()) < alpha:
            converged = True
            break

    proxy, initially_defaulted = _proxy_vector(e_post_shock, e_curr)
    cascade_defaulted = (e_curr == 0.0) & ~initially_defaulted
    return ContagionRun(
        bank_ids=state.bank_ids,
        e_post_shock=e_post_shock,
        e_final=e_curr,
        proxy=proxy,
        initially_defaulted=initially_defaulted,
        cascade_defaulted=cascade_defaulted,
        periods=periods,
        converged=converged,
        defaults_cascaded=int(cascade_defaulted.sum()),
        trajectory=tuple(trajectory) if record_trajectory else None,
    )


@dataclass(frozen=True)
class QuarterSimulation:
    """One quarter's reconstruction + contagion run with bookkeeping."""

    quarter: str
    bank_ids: tuple[str, ...]
    exposures: ExposureMatrix
    run: ContagionRun
    ras: RasReport
    excluded: tuple[tuple[str, str], ...]
    closure_factor: float


def live_network(
    sub: QuarterlyPanel,
    *,
    tolerance: float = DEFAULT_TOLERANCE,
    max_iter: int = DEFAULT_MAX_ITER,
) -> tuple[ExposureMatrix, RasReport]:
    """Reconstructed exposure network of a live subsystem (the closed panel
    ``live_subsystem`` returns). A lone live bank has no counterparties: its
    network has zero factors, settled in zero RAS iterations."""
    if len(sub.bank_ids) == 1:
        exposures = ExposureMatrix(sub.bank_ids, factors=(np.zeros(1), np.zeros(1)))
        return exposures, RasReport(iterations=0, max_marginal_error=0.0, converged=True)
    return reconstruct(
        sub.interbank_assets(),
        sub.interbank_liabilities(),
        tolerance=tolerance,
        max_iter=max_iter,
        bank_ids=sub.bank_ids,
    )


def simulate_quarter(
    panel: QuarterlyPanel,
    *,
    beta: float = DEFAULT_BETA,
    alpha: float = DEFAULT_ALPHA,
    shock_fraction: float = DEFAULT_SHOCK_FRACTION,
    tolerance: float = DEFAULT_TOLERANCE,
    max_iter: int = DEFAULT_MAX_ITER,
    max_periods: int = DEFAULT_MAX_PERIODS,
    record_trajectory: bool = False,
) -> QuarterSimulation:
    """Reconstruct the quarter's network and run its contagion scenario:
    every live bank loses ``shock_fraction`` of its equity.

    Banks with non-positive starting equity are excluded (and reported); the
    surviving subsystem is re-closed before reconstruction since exclusions
    unbalance the aggregates.
    """
    sub, excluded = live_subsystem(panel)
    exposures, ras = live_network(sub, tolerance=tolerance, max_iter=max_iter)
    shock = ShockSpec.uniform(sub.bank_ids, shock_fraction)
    state = apply_shock(init_state(exposures, sub.equity()), shock)
    run = propagate(
        state,
        beta=beta,
        alpha=alpha,
        max_periods=max_periods,
        record_trajectory=record_trajectory,
    )
    return QuarterSimulation(
        quarter=panel.quarter,
        bank_ids=sub.bank_ids,
        exposures=exposures,
        run=run,
        ras=ras,
        excluded=excluded,
        closure_factor=sub.closure_factor,
    )
