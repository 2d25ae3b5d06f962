"""Independent reference implementations used to cross-check the package.

These deliberately avoid the library's vectorized code paths: the contagion
re-evaluator is literal per-bank Python loops, the sensitivity oracle
enumerates every forward path, the logistic oracle is a direct
Newton-Raphson solve of the score equations, and the lasso certificate checks
the optimality conditions one column at a time.
"""

from __future__ import annotations

import math

import numpy as np


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
