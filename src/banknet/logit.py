"""L1-penalized logistic regression with a post-selection refit.

The penalized path minimizes mean binary cross-entropy plus lambda * sum|b_j|
(the intercept is never penalized) by proximal Newton, as in glmnet
(Friedman, Hastie & Tibshirani 2010, J. Stat. Softw. 33(1)). Each outer step
builds the intercept-augmented weighted Gram matrix G = X'WX/n and
c = G b + X'(y - mu)/n once, then minimizes the local quadratic model plus
the penalty exactly, with no further pass over the rows: on a fixed support
and sign pattern the minimizer solves G_AA b_A = c_A - lambda s_A, and an
active-set walk adjusts the support until the signs agree and every inactive
column satisfies |c_j - G_jA b_A| <= lambda. A backtracking line search on
the true penalized objective guards each step, and the fit stops when the
real problem's KKT conditions hold within ``DEFAULT_TOL`` (ConvergenceError
after ``max_steps`` steps). Inactive coefficients are exact zeros.

Inference on the surviving columns comes from the same solver at lambda = 0
on those columns alone, stopping on the same KKT conditions: Wald standard
errors from the inverse observed information at that optimum and two-sided
normal-tail p-values, p = 2 * ndtr(-|z|) for z = b / se, with ndtr the
standard normal CDF of ``banknet.special`` (a port of Cephes' ``ndtr``).
Those p-values are post-selection, not selection-adjusted.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .dataset import SplitAssignment, accuracy
from .errors import ConvergenceError, DimensionError, SeparationError
from .special import expit, ndtr

DEFAULT_TOL = 1e-10
DEFAULT_MAX_STEPS = 100
PATH_POINTS = 50  # penalties on select_lambda's path
PATH_SPAN = 1e-4  # its smallest penalty, as a fraction of lambda_max
_MAX_PIVOTS = 1000  # active-set changes per quadratic subproblem
_MAX_HALVINGS = 50
_WEIGHT_FLOOR = 1e-10
_COEF_BOUND = 50.0  # scaled inputs; beyond this the refit is diverging
_SATURATION_STEP = 0.1  # logit units; about 1 on separated rows, ~1e-9 at a real MLE


@dataclass(frozen=True)
class LogitFit:
    intercept: float
    coefficients: np.ndarray
    active_set: tuple[int, ...]
    pvalues: dict[int, float]  # column index -> two-sided Wald p (refit only)
    standard_errors: dict[int, float]
    lam: float
    intercept_pvalue: float | None = None


def _check_xy(x, y):
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float).reshape(-1)
    if x.ndim != 2:
        raise DimensionError(f"x must be 2-D, got shape {x.shape}")
    if y.size != x.shape[0]:
        raise DimensionError(f"{y.size} labels for {x.shape[0]} rows")
    return x, y


def check_lambda(lam: float) -> None:
    """A lasso penalty is finite and nonnegative (NaN is not)."""
    if not 0.0 <= lam < math.inf:
        raise ValueError(f"lambda must be finite and nonnegative, got {lam}")


def _objective(eta, y, beta=(), lam=0.0) -> float:
    """Mean binary cross-entropy at linear predictor eta plus the L1 penalty
    on the slopes (beta[0] is the intercept); without a penalty, half the
    deviance per row. Written with logaddexp rather than clipped logs: it
    stays accurate as probabilities approach 0 or 1, which the line search's
    small decreases need."""
    bce = float(np.mean(np.logaddexp(0.0, eta) - y * eta))
    return bce + lam * float(np.abs(beta[1:]).sum())


def _kkt_gap(score, beta, lam) -> float:
    """Largest violation of the lasso optimality conditions, where ``score``
    is the negative gradient of the smooth part at ``beta`` (intercept
    first): the intercept score is 0, score_j = lam * sign(b_j) on active
    slopes and |score_j| <= lam on inactive ones."""
    slopes, s = beta[1:], score[1:]
    violation = np.where(
        slopes != 0.0,
        np.abs(s - lam * np.sign(slopes)),
        np.maximum(np.abs(s) - lam, 0.0),
    )
    return max(abs(float(score[0])), float(violation.max(initial=0.0)))


def _solve_subproblem(gram, c, beta, lam):
    """Exact minimizer of 1/2 b'Gb - c'b + lam |b[1:]|_1 (beta[0], the
    intercept, unpenalized) by an active-set walk from ``beta``.

    With the support A and slope signs s held fixed, the minimizer solves
    G_AA b_A = c_A - lam s_A. If a slope of that solution has the wrong sign,
    the walk moves from the current point towards it only as far as the
    first slope reaching zero and drops that column. Otherwise the solution
    is kept, and the inactive column with the largest |c_j - G_jA b_A| above
    lam (beyond ``DEFAULT_TOL / 10``) joins A with the sign of that score.
    Every move lowers the subproblem objective, so no support repeats
    (Osborne, Presnell & Turlach 2000, IMA J. Numer. Anal. 20(3)).
    """
    beta = beta.copy()
    signs = np.sign(beta)
    signs[0] = 0.0
    active = signs != 0.0
    active[0] = True
    for _ in range(_MAX_PIVOTS):
        idx = np.flatnonzero(active)
        face = gram[np.ix_(idx, idx)]
        rhs = c[idx] - lam * signs[idx]
        try:
            solution = np.linalg.solve(face, rhs)
        except np.linalg.LinAlgError:
            # Exact duplicate columns (same sign, so the system is consistent):
            # every split of their mass is optimal; take the minimum-norm one.
            solution = np.linalg.lstsq(face, rhs, rcond=None)[0]
        wrong = 1 + np.flatnonzero(solution[1:] * signs[idx[1:]] <= 0.0)
        if wrong.size:
            current = beta[idx]
            reach = current[wrong] / (current[wrong] - solution[wrong])
            beta[idx] = current + reach.min() * (solution - current)
            drop = idx[wrong[np.argmin(reach)]]
            beta[drop] = signs[drop] = 0.0
            active[drop] = False
            continue
        beta[idx] = solution
        score = c - gram @ beta
        violation = np.where(active, 0.0, np.abs(score) - lam)
        j = int(np.argmax(violation))
        if violation[j] <= 0.1 * DEFAULT_TOL:
            return beta
        signs[j] = np.sign(score[j])
        active[j] = True
    raise ConvergenceError(f"active-set walk did not settle within {_MAX_PIVOTS} pivots")


def fit_lasso(
    x,
    y,
    lam: float,
    max_steps: int = DEFAULT_MAX_STEPS,
    warm_start: tuple[float, np.ndarray] | None = None,
) -> LogitFit:
    """Penalized fit by proximal Newton with an exact active-set solve of
    each quadratic model (see the module docstring).

    Converged when the penalized problem's KKT conditions hold within
    ``DEFAULT_TOL``: the intercept score is 0, each active column's score
    equals lam * sign(b_j) and each inactive column's lies in [-lam, lam].
    ConvergenceError after ``max_steps`` Newton steps without that.
    ``warm_start`` takes an (intercept, coefficients) pair, e.g. the previous
    solution on a lambda path."""
    check_lambda(lam)
    x, y = _check_xy(x, y)
    n, p = x.shape
    if warm_start is not None:
        b0 = float(warm_start[0])
        b = np.array(warm_start[1], dtype=float).copy()
        if b.shape != (p,):
            raise DimensionError(f"warm start of length {b.size} for p={p}")
    else:
        pbar = min(max(float(y.mean()), 1e-12), 1.0 - 1e-12)
        b0 = math.log(pbar / (1.0 - pbar))
        b = np.zeros(p)

    design = np.column_stack([np.ones(n), x])
    beta = np.concatenate([[b0], b])
    eta = design @ beta
    objective = _objective(eta, y, beta, lam)
    for step in range(max_steps + 1):
        mu = expit(eta)
        score = design.T @ (y - mu) / n
        gap = _kkt_gap(score, beta, lam)
        if gap <= DEFAULT_TOL:
            break
        if step == max_steps:
            raise ConvergenceError(
                f"proximal Newton did not meet the KKT conditions within "
                f"{max_steps} steps (gap {gap:.3e}, tol {DEFAULT_TOL:.1e})"
            )
        w = np.maximum(mu * (1.0 - mu), _WEIGHT_FLOOR)
        gram = (design.T * w) @ design / n
        target = _solve_subproblem(gram, gram @ beta + score, beta, lam)
        direction = target - beta
        # Armijo test against the decrease the linearized objective predicts
        # (negative); a rise within the objective's own rounding is no rise.
        predicted = lam * (np.abs(target[1:]).sum() - np.abs(beta[1:]).sum()) - score @ direction
        rounding = 8.0 * np.finfo(float).eps * abs(objective)
        t = 1.0
        for _ in range(_MAX_HALVINGS):
            candidate = beta + t * direction
            cand_eta = design @ candidate
            cand_objective = _objective(cand_eta, y, candidate, lam)
            if cand_objective <= objective + 1e-4 * t * predicted + rounding:
                break
            t /= 2.0
        else:
            raise ConvergenceError(
                f"proximal Newton line search found no decrease (KKT gap {gap:.3e})"
            )
        beta, eta, objective = candidate, cand_eta, cand_objective
    b = beta[1:].copy()
    active = tuple(int(j) for j in np.flatnonzero(b != 0.0))
    return LogitFit(
        intercept=float(beta[0]),
        coefficients=b,
        active_set=active,
        pvalues={},
        standard_errors={},
        lam=lam,
    )


def refit_active(x, y, active_set) -> LogitFit:
    """Unpenalized MLE on the active columns (plus intercept): ``fit_lasso``
    at lambda = 0, so the refit stops on the same KKT certificate, with Wald
    standard errors from the inverse observed information at that optimum.

    The MLE does not exist when the classes are separated, completely or
    quasi-completely (Albert & Anderson 1984, Biometrika 71(1)). The KKT
    stop is still met there, because the separated rows saturate and their
    score vanishes, but a Newton step from that point keeps moving their
    linear predictor by about one unit: score and information both shrink
    like exp(-margin). At a finite MLE the same step is rounding-sized.
    SeparationError when that step moves any row's linear predictor by more
    than ``_SATURATION_STEP``, when a coefficient exceeds ``_COEF_BOUND`` or
    when the information matrix is singular. A ConvergenceError from
    ``fit_lasso`` passes through. An empty active set fits the intercept
    alone.
    """
    x, y = _check_xy(x, y)
    active = tuple(int(j) for j in active_set)
    cols = list(active)
    design = np.column_stack([np.ones(x.shape[0]), x[:, cols]])
    fit = fit_lasso(design[:, 1:], y, 0.0)
    beta = np.concatenate([[fit.intercept], fit.coefficients])
    eta = design @ beta
    mu = expit(eta)
    info = (design.T * (mu * (1.0 - mu))) @ design
    try:
        cov = np.linalg.inv(info)
    except np.linalg.LinAlgError:
        raise SeparationError("singular observed information at the optimum") from None
    newton_move = design @ (cov @ (design.T @ (y - mu)))
    if (
        float(np.max(np.abs(beta))) > _COEF_BOUND
        or float(np.max(np.abs(newton_move))) > _SATURATION_STEP
    ):
        raise SeparationError(
            "refit saturates on separated classes; the unpenalized MLE does not exist"
        )
    se = np.sqrt(np.diag(cov))
    pvals = 2.0 * ndtr(-np.abs(beta / se))

    coefficients = np.zeros(x.shape[1])
    coefficients[cols] = beta[1:]
    return LogitFit(
        intercept=float(beta[0]),
        coefficients=coefficients,
        active_set=active,
        pvalues={j: float(pvals[pos]) for pos, j in enumerate(active, start=1)},
        standard_errors={j: float(se[pos]) for pos, j in enumerate(active, start=1)},
        lam=0.0,
        intercept_pvalue=float(pvals[0]),
    )


def predict_proba(fit: LogitFit, x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    return expit(fit.intercept + x @ fit.coefficients)


def lambda_max(x, y) -> float:
    """Smallest penalty that zeroes every slope (intercept-only stationarity).

    Padded by one part in 1e10 so the boundary fit really does keep every
    slope at zero despite last-ulp differences against the solver's score.
    """
    x, y = _check_xy(x, y)
    pbar = float(y.mean())
    score = x.T @ (y - pbar) / x.shape[0]
    return float(np.max(np.abs(score))) * (1.0 + 1e-10) if score.size else 0.0


def _deviance_ratio(fit: LogitFit, x, y) -> float:
    """Fraction of the null deviance explained by the fit."""
    eta = fit.intercept + x @ fit.coefficients
    pbar = min(max(float(y.mean()), 1e-12), 1.0 - 1e-12)
    null_eta = np.full(y.shape, math.log(pbar / (1.0 - pbar)))
    dev = _objective(eta, y)
    null_dev = _objective(null_eta, y)
    return 1.0 - dev / null_dev if null_dev > 0 else 1.0


def select_lambda(x, y, splits: SplitAssignment) -> LogitFit:
    """Pick the penalty maximizing validation accuracy over a log grid and
    return the training fit at it (its ``lam`` is the chosen penalty).

    The grid is ``PATH_POINTS`` penalties, log-spaced from lambda_max down to
    ``PATH_SPAN * lambda_max`` and walked in that order with warm starts;
    ties go to the larger penalty (the sparser model). The path stops
    early once the training fit is essentially saturated (deviance ratio
    above 0.999) or a point fails to converge: beyond that the data is
    quasi-separated and smaller penalties only push coefficients out further;
    if the first point already fails, its ConvergenceError is raised. When
    lambda_max is 0 no column has any signal and the fit at 0 is returned.
    """
    x, y = _check_xy(x, y)
    xt, yt = x[splits.train], y[splits.train]
    xv, yv = x[splits.validation], y[splits.validation]
    lmax = lambda_max(xt, yt)
    if lmax <= 0.0:
        return fit_lasso(xt, yt, 0.0)
    grid = np.geomspace(lmax, PATH_SPAN * lmax, PATH_POINTS)  # descending

    best = None
    best_acc = -1.0
    warm = None
    for lam in grid:
        try:
            fit = fit_lasso(xt, yt, float(lam), warm_start=warm)
        except ConvergenceError:
            if best is None:  # not even the sparsest point converged
                raise
            warnings.warn(
                f"lambda path stopped at {lam:.3e}: proximal Newton did not meet "
                "the KKT conditions (quasi-separated training data)"
            )
            break
        warm = (fit.intercept, fit.coefficients)
        acc = accuracy(predict_proba(fit, xv), yv)
        if acc > best_acc:
            best_acc = acc
            best = fit
        if _deviance_ratio(fit, xt, yt) >= 0.999:
            break
    return best
