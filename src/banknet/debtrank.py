"""Equity contagion over a fixed exposure network.

Losses travel from borrowers to lenders: a drop in a borrower's equity
devalues the loans extended to it in proportion to the borrower's relative
equity loss, measured against the pre-run baseline,

    E_i(t+1) = max(0, E_i(t) + sum_j phi_ij * beta * (E_j(t) - E_j(t-1)))

with phi_ij = W0_ij / E0_j frozen at its initial value. Equity is floored at
zero; a bank that reaches the floor is insolvent and, from the next period
on, its equity changes are skipped as a borrower, so it transmits nothing
further (the same as zeroing its phi column). beta scales the pass-through
(beta = 1 is plain proportional transmission, beta = 0 disables contagion
entirely).

The exposure matrix and the starting equity are the only network state:
phi is never stored, and ``propagate`` derives its borrower-major ratios
from them once per run.

The per-bank contagion proxy is the percentage equity loss between the
post-shock state and the converged state, i.e. the damage attributable to
contagion alone, excluding the initial shock. It always lies in [-100, 0].
"""

from __future__ import annotations

from dataclasses import dataclass, replace
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
            bad = {b: f for b, f in self.targets.items() if not 0.0 <= f <= 1.0}
            if bad:
                raise ValueError(f"equity fractions must lie in [0, 1]: {bad}")
        else:
            bad = {b: a for b, a in self.targets.items() if a < 0.0}
            if bad:
                raise ValueError(f"absolute shocks must be nonnegative: {bad}")

    @classmethod
    def uniform(cls, bank_ids, fraction: float) -> "ShockSpec":
        return cls(mode="equity_fraction", targets={b: fraction for b in bank_ids})


@dataclass
class NetworkState:
    """Simulation state: the frozen network and starting equity ``e0``, plus
    the current (possibly shocked) equity and the insolvent mask."""

    exposures: ExposureMatrix
    e0: np.ndarray
    e_curr: np.ndarray
    insolvent: np.ndarray
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
    beta: float
    alpha: float
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
    """Pair the network with its strictly positive starting equity."""
    equity = np.asarray(equity, dtype=float)
    if equity.shape != (w.n,):
        raise DomainError(f"equity vector of length {equity.size} for n={w.n}")
    nonpos = np.flatnonzero(equity <= 0)
    if nonpos.size:
        names = ", ".join(w.bank_ids[i] for i in nonpos[:10])
        raise DomainError(
            f"non-positive starting equity for bank(s): {names}; exclude them upstream"
        )
    return NetworkState(
        exposures=w,
        e0=equity.copy(),
        e_curr=equity.copy(),
        insolvent=np.zeros(w.n, dtype=bool),
    )


def apply_shock(state: NetworkState, shock: ShockSpec) -> NetworkState:
    """Reduce current equity per the shock; ``e0`` stays the previous period,
    so the first propagation step sees the shock as the equity change. Banks
    driven to zero are marked insolvent and transmit nothing."""
    if state.shocked:
        raise ValueError("state already shocked; apply_shock expects a fresh state")
    index = {b: i for i, b in enumerate(state.bank_ids)}
    unknown = sorted(set(shock.targets) - set(index))
    if unknown:
        raise UnknownBankError(f"shock targets unknown bank_id(s): {', '.join(unknown)}")
    e_curr = state.e_curr.copy()
    for bank_id, size in shock.targets.items():
        i = index[bank_id]
        if shock.mode == "equity_fraction":
            e_curr[i] = state.e_curr[i] * (1.0 - size)
        else:
            e_curr[i] = max(0.0, state.e_curr[i] - size)
    return NetworkState(
        exposures=state.exposures,
        e0=state.e0,
        e_curr=e_curr,
        insolvent=e_curr == 0.0,
        shocked=True,
    )


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

    The passed state is not mutated. Insolvent borrowers are skipped in the
    per-period sum, so a bank transmits its losses up to the period in which
    it hits zero and nothing after.
    """
    if beta < 0:
        raise ValueError(f"beta must be nonnegative, got {beta}")
    if alpha <= 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    # Borrower-major layout: phi_by_borrower[j] holds every lender's exposure
    # ratio W0_ij / E0_j to borrower j, so the per-period reduction below runs
    # left to right over borrowers (a fixed order, reproducible and matching
    # a literal per-term evaluation bit for bit). One row-major allocation.
    phi_by_borrower = np.divide(state.exposures.w.T, state.e0[:, None], order="C")
    insolvent = state.insolvent.copy()
    e_prev = state.e0.copy()
    e_curr = state.e_curr.copy()
    e_post_shock = state.e_curr.copy()
    trajectory = [e_post_shock.copy()] if record_trajectory else None

    converged = False
    periods = 0
    for t in range(1, max_periods + 1):
        delta = e_curr - e_prev
        e_next = e_curr.copy()
        for j in np.flatnonzero((delta != 0.0) & ~insolvent):
            e_next += phi_by_borrower[j] * (beta * delta[j])
        np.maximum(e_next, 0.0, out=e_next)
        insolvent |= e_next == 0.0
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
        beta=beta,
        alpha=alpha,
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

    @property
    def proxies(self) -> dict[str, float]:
        return {b: float(p) for b, p in zip(self.bank_ids, self.run.proxy)}


def live_network(
    sub: QuarterlyPanel,
    *,
    tolerance: float = DEFAULT_TOLERANCE,
    max_iter: int = DEFAULT_MAX_ITER,
) -> tuple[ExposureMatrix, RasReport]:
    """Reconstructed exposure network of a live subsystem (the closed panel
    ``live_subsystem`` returns). A lone live bank has no counterparties: its
    network is the 1 x 1 zero matrix, settled in zero RAS iterations."""
    if len(sub.bank_ids) == 1:
        exposures = ExposureMatrix(bank_ids=sub.bank_ids, w=np.zeros((1, 1)))
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
    scenario: ShockSpec | None = None,
    beta: float = DEFAULT_BETA,
    alpha: float = DEFAULT_ALPHA,
    *,
    shock_fraction: float = DEFAULT_SHOCK_FRACTION,
    tolerance: float = DEFAULT_TOLERANCE,
    max_iter: int = DEFAULT_MAX_ITER,
    max_periods: int = DEFAULT_MAX_PERIODS,
    record_trajectory: bool = False,
) -> QuarterSimulation:
    """Reconstruct the quarter's network and run the contagion scenario.

    Banks with non-positive starting equity are excluded (and reported); the
    surviving subsystem is re-closed before reconstruction since exclusions
    unbalance the aggregates. With no explicit scenario, a uniform equity
    fraction shock of ``shock_fraction`` hits every bank.
    """
    sub, excluded = live_subsystem(panel)
    ids = sub.bank_ids
    equity = sub.equity()

    if scenario is None:
        scenario = ShockSpec.uniform(ids, shock_fraction)
    else:
        unknown = sorted(set(scenario.targets) - set(panel.bank_ids))
        if unknown:
            raise UnknownBankError(
                f"shock targets unknown bank_id(s): {', '.join(unknown)}"
            )
        live = set(ids)
        kept = {b: s for b, s in scenario.targets.items() if b in live}
        scenario = replace(scenario, targets=kept)

    exposures, ras = live_network(sub, tolerance=tolerance, max_iter=max_iter)
    state = apply_shock(init_state(exposures, equity), scenario)
    run = propagate(
        state,
        beta=beta,
        alpha=alpha,
        max_periods=max_periods,
        record_trajectory=record_trajectory,
    )
    return QuarterSimulation(
        quarter=panel.quarter,
        bank_ids=ids,
        exposures=exposures,
        run=run,
        ras=ras,
        excluded=excluded,
        closure_factor=float(sub.closure_factor or 1.0),
    )
