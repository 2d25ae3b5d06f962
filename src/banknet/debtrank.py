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

A shock takes a fraction in [0, 1] of each target bank's equity.
``simulate_quarter`` runs the pipeline's one scenario: every live bank loses
the same fraction. Any other set of fractions (one bank's failure, say) goes
through ``init_state``, ``apply_shock`` and ``propagate`` directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .balance_sheets import QuarterlyPanel, live_subsystem
from .errors import DomainError, UnknownBankError, name_some
from .reconstruction import (
    DEFAULT_MAX_ITER,
    DEFAULT_TOLERANCE,
    ExposureMatrix,
    RasReport,
    check_ras,
    reconstruct,
)

DEFAULT_ALPHA = 1e-6
DEFAULT_BETA = 1.0
DEFAULT_MAX_PERIODS = 10_000
DEFAULT_SHOCK_FRACTION = 0.1
_EPS = 1e-12


def check_shock_fraction(fraction: float) -> None:
    """A uniform shock's equity fraction lies in [0, 1] (NaN does not)."""
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"shock_fraction must lie in [0, 1], got {fraction}")


@dataclass(frozen=True)
class ShockSpec:
    """Initial shock: per-bank equity fractions in [0, 1] (``mode`` "equity_fraction")."""

    mode: str
    targets: Mapping[str, float]

    def __post_init__(self):
        if self.mode != "equity_fraction":
            raise ValueError(f"unknown shock mode {self.mode!r}; use 'equity_fraction'")
        bad = [b for b, f in self.targets.items() if not 0.0 <= f <= 1.0]
        if bad:
            names = name_some(f"{b}={self.targets[b]!r}" for b in bad)
            raise ValueError(f"equity fractions must lie in [0, 1]: {names}")

    @classmethod
    def uniform(cls, bank_ids, fraction: float) -> "ShockSpec":
        check_shock_fraction(fraction)
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


@dataclass(frozen=True)
class ContagionRun:
    """Outcome of one propagation: post-shock and final equity, and what they imply."""

    bank_ids: tuple[str, ...]
    e_post_shock: np.ndarray
    e_final: np.ndarray
    periods: int
    converged: bool
    trajectory: tuple[np.ndarray, ...] | None = None

    @property
    def initially_defaulted(self) -> np.ndarray:
        return self.e_post_shock == 0.0

    @property
    def cascade_defaulted(self) -> np.ndarray:
        return (self.e_final == 0.0) & ~self.initially_defaulted

    @property
    def defaults_cascaded(self) -> int:
        return int(self.cascade_defaulted.sum())

    @property
    def proxy(self) -> np.ndarray:
        """Percentages in [-100, 0]; zero for a bank the shock defaulted."""
        gone = self.initially_defaulted
        denom = np.where(gone, 1.0, self.e_post_shock)
        return np.where(gone, 0.0, (self.e_final - self.e_post_shock) / denom * 100.0)


def init_state(w: ExposureMatrix, equity) -> NetworkState:
    """Pair the network with its finite, strictly positive starting equity."""
    equity = np.asarray(equity, dtype=float)
    if equity.shape != (w.n,):
        raise DomainError(f"equity vector of length {equity.size} for n={w.n}")
    bad = np.flatnonzero(~np.isfinite(equity) | (equity <= 0))
    if bad.size:
        names = name_some(w.bank_ids[i] for i in bad)
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
    index = dict(zip(state.exposures.bank_ids, range(state.exposures.n)))
    unknown = sorted(shock.targets.keys() - index.keys())
    if unknown:
        raise UnknownBankError(f"shock targets unknown bank_id(s): {name_some(unknown)}")
    rows = np.fromiter(map(index.__getitem__, shock.targets), dtype=np.intp)
    size = np.fromiter(shock.targets.values(), dtype=float)
    e_curr = state.e_curr.copy()
    e_curr[rows] = state.e_curr[rows] * (1.0 - size)
    return NetworkState(exposures=state.exposures, e0=state.e0, e_curr=e_curr, shocked=True)


def check_propagation(beta: float, alpha: float, max_periods: int) -> None:
    """``propagate``'s parameters: beta finite and nonnegative, alpha finite
    and positive (NaN is neither), and at least one period."""
    if not 0.0 <= beta < math.inf:
        raise ValueError(f"beta must be finite and nonnegative, got {beta}")
    if not 0.0 < alpha < math.inf:
        raise ValueError(f"alpha must be finite and positive, got {alpha}")
    if not max_periods >= 1:
        raise ValueError(f"max_periods must be at least 1, got {max_periods}")


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
    check_propagation(beta, alpha, max_periods)
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

    return ContagionRun(
        bank_ids=state.exposures.bank_ids,
        e_post_shock=e_post_shock,
        e_final=e_curr,
        periods=periods,
        converged=converged,
        trajectory=tuple(trajectory) if record_trajectory else None,
    )


@dataclass(frozen=True)
class QuarterSimulation:
    """One quarter's reconstruction + contagion run over its live banks, ``run.bank_ids``."""

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
    check_ras(tolerance, max_iter)
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
        state, beta=beta, alpha=alpha, max_periods=max_periods, record_trajectory=record_trajectory
    )
    return QuarterSimulation(
        exposures=exposures, run=run, ras=ras, excluded=excluded, closure_factor=sub.closure_factor
    )
