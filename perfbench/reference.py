"""Output checks that run outside the timed region.

The contagion reference is written here from the model's definition, not
from ``banknet.debtrank``: a dense matrix-vector evaluation of

    e_next = max(0, e + beta * phi @ (e - e_prev)),  phi = W / E0 (by column),

with the columns of insolvent banks zeroed before the next period and the
package's stopping rule (largest relative equity change below alpha). It
differs from the package only in summation order, so proxies agree to far
better than ``PROXY_TOL_PCT``.
"""

from __future__ import annotations

import numpy as np
from banknet.reconstruction import marginal_errors

# Largest allowed |proxy - reference| in percentage points.
PROXY_TOL_PCT = 1e-9
_EPS = 1e-12

# Criterion 7 of the acceptance suite, checked on every pipeline run.
MLP_FLOOR = 0.90
LOGIT_FLOOR = 0.85
RUN_BOUND_S = 600.0


def reference_propagation(w, equity, fractions, beta, alpha, max_periods):
    """Proxies, cascade flags and initial-default flags of one shocked run."""
    e0 = np.asarray(equity, dtype=float)
    phi = np.asarray(w, dtype=float) / e0[None, :]
    e_prev = e0.copy()
    e = e0 * (1.0 - np.asarray(fractions, dtype=float))
    post = e.copy()
    dead = e == 0.0
    phi[:, dead] = 0.0
    for _ in range(max_periods):
        e_next = np.maximum(e + beta * (phi @ (e - e_prev)), 0.0)
        newly = (e_next == 0.0) & ~dead
        phi[:, newly] = 0.0
        dead |= newly
        rel = np.abs(e_next - e) / np.maximum(e, _EPS)
        e_prev, e = e, e_next
        if float(rel.max()) < alpha:
            break
    initial = post == 0.0
    proxy = np.where(initial, 0.0, (e - post) / np.where(initial, 1.0, post) * 100.0)
    cascade = (e == 0.0) & ~initial
    return proxy, cascade, initial


def network_failures(exposures, ras, ia, il, tolerance):
    """Reconstruction checks: converged, marginals within tolerance, zero diagonal."""
    failures = []
    if not ras.converged:
        failures.append("RAS did not converge")
    row_err, col_err = marginal_errors(exposures, ia, il)
    worst = float(max(row_err.max(), col_err.max()))
    if not worst <= tolerance:
        failures.append(f"marginal error {worst:.3e} exceeds tolerance {tolerance:.1e}")
    if np.any(np.diag(exposures.w) != 0.0):
        failures.append("reconstructed matrix has a nonzero diagonal")
    return failures


def proxy_failures(proxy, cascade, initial, ref):
    """Compare one propagation's outputs with the reference triple."""
    failures = []
    proxy = np.asarray(proxy, dtype=float)
    if not np.all((proxy >= -100.0) & (proxy <= 0.0)):
        failures.append("proxy outside [-100, 0]")
    ref_proxy, ref_cascade, ref_initial = ref
    if proxy.shape != ref_proxy.shape:
        return failures + [f"{proxy.size} proxies, reference has {ref_proxy.size}"]
    gap = float(np.max(np.abs(proxy - ref_proxy))) if proxy.size else 0.0
    if not gap <= PROXY_TOL_PCT:
        failures.append(f"proxy differs from reference by {gap:.3e} pct points")
    if not np.array_equal(np.asarray(cascade, dtype=bool), ref_cascade):
        failures.append("cascade flags differ from reference")
    if not np.array_equal(np.asarray(initial, dtype=bool), ref_initial):
        failures.append("initial-default flags differ from reference")
    return failures


def criterion7_failures(summary, contagion_columns, wall_s, mlp_floor, logit_floor):
    """The end-to-end qualitative conditions of acceptance criterion 7."""
    failures = []
    mlp_oos = summary["mlp"]["oos_accuracy"]
    logit_oos = summary["logit"]["oos_accuracy"]
    if not mlp_oos >= mlp_floor:
        failures.append(f"MLP accuracy {mlp_oos:.4f} below {mlp_floor}")
    if not logit_oos >= logit_floor:
        failures.append(f"logit accuracy {logit_oos:.4f} below {logit_floor}")
    retained = {
        c["name"]: c for c in summary["logit"]["columns"] if c["coefficient"] != "lasso_reduced"
    }
    kept = [name for name in retained if name in contagion_columns]
    if not kept:
        failures.append("no contagion column retained by the lasso")
    else:
        dominant = max(kept, key=lambda name: abs(retained[name]["coefficient"]))
        if not (
            retained[dominant]["coefficient"] < 0.0
            and retained[dominant]["lasso_coefficient"] < 0.0
        ):
            failures.append(f"dominant contagion column {dominant} is not negative")
        if not sum(retained[name]["coefficient"] for name in kept) < 0.0:
            failures.append("net contagion coefficient is not negative")
    gradients = summary["sensitivity_gradients"]
    strongest = max(contagion_columns, key=lambda c: abs(gradients[c]))
    if not gradients[strongest] < 0.0:
        failures.append(f"strongest contagion gradient {strongest} is not negative")
    if not wall_s < RUN_BOUND_S:
        failures.append(f"pipeline took {wall_s:.0f} s, bound {RUN_BOUND_S:.0f} s")
    return failures
