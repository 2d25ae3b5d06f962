"""Independent reference implementations used to cross-check the package.

These deliberately avoid the library's vectorized code paths: the contagion
re-evaluator is literal per-bank Python loops, the RAS reference rescales the
dense n x n matrix in place every step, the generator reference draws and
propagates its hidden network as dense n x n arrays, the sensitivity oracle
enumerates every forward path, the logistic oracle is a direct
Newton-Raphson solve of the score equations, the Wald oracle takes its
normal tail from ``scipy.stats``, the lasso certificate checks the
optimality conditions one column at a time, and the MLP trainer oracle
trains one candidate at a time with per-minibatch dropout draws.
"""

from __future__ import annotations

import math
from dataclasses import replace
from itertools import product

import numpy as np
from scipy.special import expit
from scipy.stats import norm

from banknet import synthetic
from banknet.balance_sheets import NUMERIC_COLUMNS, QuarterlyPanel
from banknet.dataset import accuracy
from banknet.debtrank import ShockSpec, apply_shock, init_state, propagate
from banknet.errors import DimensionError, DivergenceError
from banknet.mlp import (
    DEFAULT_LEARNING_RATES,
    DEFAULT_SOLVERS,
    DEFAULT_STRUCTURES,
    MlpConfig,
    MlpModel,
    predict,
)


def debtrank_reference(w, e0, post_shock, beta, alpha, max_periods=10_000):
    """Literal per-bank re-evaluation of the contagion update.

    E_i(t+1) = max(0, E_i(t) + sum_j phi_ij * beta * (E_j(t) - E_j(t-1)))
    with phi frozen at W/E0, columns zeroed once a bank's equity hits zero
    (including banks killed by the initial shock), stopping when the largest
    relative equity change drops below alpha.

    Returns (trajectory, periods, converged); trajectory[0] is the post-shock
    state.
    """
    n = len(e0)
    phi = [[w[i][j] / e0[j] for j in range(n)] for i in range(n)]
    insolvent = [post_shock[i] == 0.0 for i in range(n)]
    for j in range(n):
        if insolvent[j]:
            for i in range(n):
                phi[i][j] = 0.0
    e_prev = [float(v) for v in e0]
    e_curr = [float(v) for v in post_shock]
    trajectory = [list(e_curr)]
    eps = 1e-12
    converged = False
    periods = 0
    for t in range(1, max_periods + 1):
        e_next = []
        for i in range(n):
            acc = e_curr[i]
            for j in range(n):
                acc += phi[i][j] * (beta * (e_curr[j] - e_prev[j]))
            e_next.append(max(0.0, acc))
        for j in range(n):
            if e_next[j] == 0.0 and not insolvent[j]:
                insolvent[j] = True
                for i in range(n):
                    phi[i][j] = 0.0
        periods = t
        trajectory.append(list(e_next))
        rel = max(
            abs(e_next[i] - e_curr[i]) / max(e_curr[i], eps) for i in range(n)
        )
        e_prev, e_curr = e_curr, e_next
        if rel < alpha:
            converged = True
            break
    return trajectory, periods, converged


def ras_reference(ia, il, tolerance=1e-8, max_iter=10_000):
    """Dense RAS: rescale every row, then every column, of the n x n matrix
    in place, starting from the uniform zero-diagonal matrix, until both
    marginal errors (read off the matrix's own sums) are within tolerance.

    Returns (w, iterations, converged).
    """
    ia = np.asarray(ia, dtype=float)
    il = np.asarray(il, dtype=float)
    n = ia.size
    eps = 1e-12
    w = np.ones((n, n), dtype=float)
    np.fill_diagonal(w, 0.0)

    iterations = 0
    err = np.inf
    converged = False
    for iterations in range(1, max_iter + 1):
        rs = w.sum(axis=1)  # even step: rows match assets
        w *= np.divide(ia, rs, out=np.zeros_like(ia), where=rs > 0)[:, None]
        cs = w.sum(axis=0)  # odd step: columns match liabilities
        w *= np.divide(il, cs, out=np.zeros_like(il), where=cs > 0)[None, :]
        row_err = np.abs(w.sum(axis=1) - ia) / np.maximum(ia, eps)
        col_err = np.abs(w.sum(axis=0) - il) / np.maximum(il, eps)
        err = float(max(row_err.max(), col_err.max()))
        if err <= tolerance:
            converged = True
            break
    return w, iterations, converged


class DenseExposures:
    """A bilateral matrix held as a dense n x n array, with the dense contagion
    step: each period adds every live borrower's row of ratios ``W_ij / e0_j``
    into its lenders' equity, borrower by borrower. It stands in for an
    ``ExposureMatrix`` in ``init_state``, ``apply_shock`` and ``propagate``."""

    def __init__(self, bank_ids, w):
        self.bank_ids = tuple(bank_ids)
        self.w = np.asarray(w, dtype=float)

    @property
    def n(self):
        return len(self.bank_ids)

    def loss_step(self, e0):
        phi_by_borrower = np.divide(self.w.T, e0[:, None], order="C")

        def dense_step(e, borrowers, impulse):
            e = e.copy()
            for j, s in zip(borrowers, impulse):
                e += phi_by_borrower[j] * s
            return e

        return dense_step


def synthetic_reference(spec):
    """``synthetic.generate`` with the hidden network held dense: one (n, n)
    draw each of the Erdos-Renyi uniforms, the lognormal base weights and
    every quarter's normals, row sums that add each row left to right
    (``cumsum``: adding a zero cell is exact) as numpy's column sums add each
    column top to bottom, and the ground truth propagated over
    ``DenseExposures``."""
    rng = np.random.default_rng(spec.rng_seed)
    n = spec.n_banks
    ids = tuple(f"B{i:05d}" for i in range(n))
    tags = synthetic._quarter_tags(spec)

    quality = rng.normal(0.0, 1.0, n)
    ta0 = rng.lognormal(np.log(3e5), 1.2, n)
    equity_frac = rng.uniform(0.06, 0.14, n)
    iba = np.clip(rng.lognormal(np.log(0.05), 0.7, n), 1e-4, 0.22)
    roa_latent = 0.004 + 0.004 * quality + rng.normal(0, 0.002, n)
    roe_latent = 0.04 + 0.05 * quality + rng.normal(0, 0.02, n)
    stpd_latent = np.clip(0.012 - 0.008 * quality + rng.normal(0, 0.004, n), 0.0, None)
    t1r_latent = np.clip(0.14 + 0.03 * quality + rng.normal(0, 0.015, n), 0.02, None)
    t1l_latent = np.clip(0.095 + 0.02 * quality + rng.normal(0, 0.008, n), 0.01, None)

    adj = rng.random((n, n)) < min(0.5, 20.0 / n)
    np.fill_diagonal(adj, False)
    for i in range(n):
        deg = int(adj[i].sum())
        if deg < 2:
            candidates = np.setdiff1d(np.arange(n), np.append(np.flatnonzero(adj[i]), i))
            adj[i, rng.choice(candidates, size=2 - deg, replace=False)] = True
    base_weights = np.where(adj, rng.lognormal(0.0, 0.5, (n, n)), 0.0)

    panels = []
    growth = np.ones(n)
    for tag in tags:
        growth = growth * np.exp(rng.normal(0.0, 0.02, n))
        ta = ta0 * growth
        ef = np.clip(equity_frac + rng.normal(0.0, 0.004, n), 0.04, 0.2)
        equity = ef * ta
        tl = ta - equity
        iba_q = np.clip(iba * np.exp(rng.normal(0.0, 0.35, n)), 1e-4, 0.25)
        w = np.exp(rng.standard_normal((n, n)) * 0.4) * base_weights
        w *= (iba_q * ta / w.cumsum(axis=1)[:, -1])[:, None]
        cs = w.sum(axis=0)
        cap = 0.4 * tl
        w *= np.minimum(1.0, np.divide(cap, cs, out=np.ones_like(cs), where=cs > 0))[None, :]
        values = (
            ta,
            tl,
            w.cumsum(axis=1)[:, -1],
            w.sum(axis=0),
            roa_latent + rng.normal(0, 0.0008, n),
            roe_latent + rng.normal(0, 0.008, n),
            np.clip(stpd_latent + rng.normal(0, 0.0015, n), 0.0, None),
            np.clip(t1r_latent + rng.normal(0, 0.004, n), 0.01, None),
            np.clip(t1l_latent + rng.normal(0, 0.002, n), 0.005, None),
        )
        panels.append(QuarterlyPanel(tag, bank_ids=ids, columns=dict(zip(NUMERIC_COLUMNS, values))))

    state = init_state(DenseExposures(ids, w), equity)
    damage = -propagate(apply_shock(state, ShockSpec.uniform(ids, spec.shock_fraction))).proxy
    eta_centered = (
        -synthetic.RATIO_SIGNAL * 0.75 * synthetic._standardize(t1l_latent)
        - synthetic.RATIO_SIGNAL * 0.75 * synthetic._standardize(roe_latent)
        + spec.contagion_signal_strength * synthetic._standardize(damage)
    )
    if spec.default_rate == 0.0:
        probs, intercept = np.zeros(n), None
    else:
        mix = synthetic.IDIOSYNCRATIC_FRACTION
        intercept = synthetic._calibrate_intercept(eta_centered, spec.default_rate)
        probs = (1.0 - mix) * expit(intercept + eta_centered) + mix * spec.default_rate
    failed = rng.random(n) < probs
    return panels, failed, intercept, damage, probs


def path_sum_gradient(weights, biases, x):
    """Output gradient per input by explicit enumeration of every path.

    weights/biases are the four layer parameters of the classifier; x is a
    single sample. Biases shape the pre-activations (hence which ReLUs are
    live) but contribute no path weight themselves. ReLU gradient is 1 only
    for strictly positive pre-activations; the output node contributes
    e^z / (1 + e^z)^2.
    """
    w1, w2, w3, w4 = [np.asarray(w, dtype=float) for w in weights]
    b1, b2, b3, b4 = [np.asarray(b, dtype=float) for b in biases]
    x = np.asarray(x, dtype=float)
    z1 = x @ w1 + b1
    a1 = np.maximum(z1, 0.0)
    z2 = a1 @ w2 + b2
    a2 = np.maximum(z2, 0.0)
    z3 = a2 @ w3 + b3
    a3 = np.maximum(z3, 0.0)
    z4 = float((a3 @ w4 + b4)[0])

    t = math.exp(-abs(z4))
    sig_grad = t / (1.0 + t) ** 2

    def relu_grad(z):
        return 1.0 if z > 0.0 else 0.0

    n_in = w1.shape[0]
    grads = np.zeros(n_in)
    for i in range(n_in):
        total = 0.0
        for p in range(w1.shape[1]):
            for k in range(w2.shape[1]):
                for mth in range(w3.shape[1]):
                    total += (
                        sig_grad
                        * w4[mth, 0]
                        * relu_grad(z3[mth])
                        * w3[k, mth]
                        * relu_grad(z2[k])
                        * w2[p, k]
                        * relu_grad(z1[p])
                        * w1[i, p]
                    )
        grads[i] = total
    return grads


def finite_difference_gradient(f, x, step=1e-5):
    """Central finite differences of a scalar function of a vector."""
    x = np.asarray(x, dtype=float)
    grad = np.zeros_like(x)
    for i in range(x.size):
        hi = x.copy()
        lo = x.copy()
        hi[i] += step
        lo[i] -= step
        grad[i] = (f(hi) - f(lo)) / (2.0 * step)
    return grad


def newton_logistic(x, y, max_iter=200, tol=1e-12):
    """Unpenalized logistic MLE (intercept first) by direct Newton solve.

    Returns (intercept, coefficients) or raises if the iteration diverges,
    which callers use to discard separable instances.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    design = np.column_stack([np.ones(x.shape[0]), x])
    beta = np.zeros(design.shape[1])
    for _ in range(max_iter):
        eta = design @ beta
        mu = 1.0 / (1.0 + np.exp(-eta))
        w = mu * (1.0 - mu)
        grad = design.T @ (y - mu)
        hess = design.T @ (design * w[:, None])
        step = np.linalg.solve(hess, grad)
        beta = beta + step
        if np.max(np.abs(beta)) > 1e3:
            raise FloatingPointError("logistic MLE diverged (separable data)")
        if np.max(np.abs(step)) < tol:
            return float(beta[0]), beta[1:].copy()
    raise FloatingPointError("logistic MLE did not converge")


def wald_pvalues(z):
    """Two-sided normal-tail p-values 2 * P(Z > |z|), from scipy.stats."""
    return 2.0 * norm.sf(np.abs(np.asarray(z, dtype=float)))


def lasso_kkt_gap(x, y, b0, b, lam):
    """Largest violation of the KKT conditions of
    mean BCE(y, b0 + x b) + lam * sum|b_j| at (b0, b): the intercept score
    must vanish, each active column's score must equal lam * sign(b_j) and
    each inactive column's must lie in [-lam, lam]."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    n, p = x.shape
    residual = [y[i] - 1.0 / (1.0 + math.exp(-(b0 + float(x[i] @ b)))) for i in range(n)]
    gap = abs(sum(residual) / n)
    for j in range(p):
        score = sum(x[i, j] * residual[i] for i in range(n)) / n
        if b[j] > 0.0:
            gap = max(gap, abs(score - lam))
        elif b[j] < 0.0:
            gap = max(gap, abs(score + lam))
        else:
            gap = max(gap, abs(score) - lam)
    return gap


def _reference_truncated_normal(rng, shape, stddev):
    out = rng.normal(0.0, stddev, size=shape)
    bound = 2.0 * stddev
    mask = np.abs(out) > bound
    while mask.any():
        out[mask] = rng.normal(0.0, stddev, size=int(mask.sum()))
        mask = np.abs(out) > bound
    return out


def _reference_layer_views(buf, shapes):
    views, start = [], 0
    for shape in shapes:
        size = math.prod(shape)
        views.append(buf[start : start + size].reshape(shape))
        start += size
    return views


def _reference_forward(weights, biases, x, rng=None, p_drop=0.0):
    inputs, pres, masks = [], [], []
    a = x
    for i, (w, b) in enumerate(zip(weights, biases)):
        inputs.append(a)
        z = a @ w + b
        pres.append(z)
        if i < len(weights) - 1:
            a = np.maximum(z, 0.0)
            if p_drop > 0.0 and i < 2:
                mask = (rng.random(a.shape) >= p_drop) / (1.0 - p_drop)
                masks.append(mask)
                a = a * mask
    return inputs, pres, masks


def reference_train(x, y, config):
    """One candidate at a time: flat parameter buffer, dropout masks drawn
    from the candidate's generator at every minibatch, and the SGD, Adam
    (0.9, 0.999) and RMSProp (0.9) updates with eps 1e-8 on that buffer.
    Raises DivergenceError at the end of the first epoch with a non-finite
    loss."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float).reshape(-1)
    if y.size != x.shape[0]:
        raise DimensionError(f"{y.size} labels for {x.shape[0]} rows")
    rng = np.random.default_rng(config.rng_seed)
    sizes = (x.shape[1],) + config.hidden_layers + (1,)
    shapes = [(sizes[i], sizes[i + 1]) for i in range(4)] + [(s,) for s in sizes[1:]]
    params = np.zeros(sum(math.prod(s) for s in shapes))
    grads = np.zeros_like(params)
    views, grad_views = _reference_layer_views(params, shapes), _reference_layer_views(grads, shapes)
    weights, biases = views[:4], views[4:]
    gw, gb = grad_views[:4], grad_views[4:]
    for w in weights:
        w[...] = _reference_truncated_normal(rng, w.shape, config.init_stddev)
    solver, lr, p_drop = config.solver, config.learning_rate, config.dropout_prob
    mean = np.zeros_like(params)
    sq_avg = np.zeros_like(params)
    step = 0
    n = x.shape[0]

    for epoch in range(config.epochs):
        perm = rng.permutation(n)
        epoch_loss = 0.0
        for start in range(0, n, config.batch_size):
            rows = perm[start : start + config.batch_size]
            xb, yb = x[rows], y[rows]
            inputs, pres, masks = _reference_forward(weights, biases, xb, rng, p_drop)
            prob = expit(pres[-1].ravel())

            pc = np.clip(prob, 1e-12, 1.0 - 1e-12)
            epoch_loss += -float(np.sum(yb * np.log(pc) + (1 - yb) * np.log(1 - pc)))

            dz = ((prob - yb) / xb.shape[0])[:, None]
            for i in reversed(range(4)):
                np.matmul(inputs[i].T, dz, out=gw[i])
                np.sum(dz, axis=0, out=gb[i])
                if i:
                    da = dz @ weights[i].T
                    if i - 1 < len(masks):
                        da = da * masks[i - 1]
                    dz = da * (pres[i - 1] > 0)

            if solver == "sgd":
                params -= lr * grads
            elif solver == "adam":
                step += 1
                mean *= 0.9
                mean += (1 - 0.9) * grads
                sq_avg *= 0.999
                sq_avg += (1 - 0.999) * grads * grads
                mhat = mean / (1 - 0.9**step)
                vhat = sq_avg / (1 - 0.999**step)
                params -= lr * mhat / (np.sqrt(vhat) + 1e-8)
            else:  # rmsprop
                sq_avg *= 0.9
                sq_avg += (1 - 0.9) * grads * grads
                params -= lr * grads / (np.sqrt(sq_avg) + 1e-8)
        if not np.isfinite(epoch_loss):
            raise DivergenceError(
                f"non-finite loss at epoch {epoch} "
                f"(learning_rate={config.learning_rate})"
            )
    return MlpModel(weights=weights, biases=biases, config=config)


def reference_tune(
    x,
    y,
    splits,
    structures=DEFAULT_STRUCTURES,
    solvers=DEFAULT_SOLVERS,
    learning_rates=DEFAULT_LEARNING_RATES,
    base_config=MlpConfig(),
):
    """The grid search as a loop over ``reference_train``, one candidate at
    a time in grid order, with seed base + grid index; ties go to the lower
    learning rate, then the earlier grid point."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=int).reshape(-1)
    xt, yt = x[splits.train], y[splits.train]
    xv, yv = x[splits.validation], y[splits.validation]
    record = []
    best = best_key = None
    for idx, (structure, solver, lr) in enumerate(product(structures, solvers, learning_rates)):
        cfg = replace(
            base_config,
            hidden_layers=tuple(structure),
            solver=solver,
            learning_rate=lr,
            rng_seed=base_config.rng_seed + idx,
        )
        model = reference_train(xt, yt, cfg)
        val_acc = accuracy(predict(model, xv), yv)
        record.append(
            {
                "hidden_layers": list(cfg.hidden_layers),
                "solver": solver,
                "learning_rate": lr,
                "rng_seed": cfg.rng_seed,
                "validation_accuracy": val_acc,
            }
        )
        if best is None or (val_acc, -lr) > best_key:
            best, best_key = model, (val_acc, -lr)
    best.tuning_record = tuple(record)
    return best
