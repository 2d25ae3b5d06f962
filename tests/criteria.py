"""Criterion 7's logit checks, shared by the acceptance suite and the claim's
negative control so that the two cannot drift apart."""

from banknet.dataset import CONTAGION_COLUMNS

LOGIT_FLOOR = 0.85


def logit_claim_failures(logit: dict) -> dict[str, str]:
    """Which of criterion 7's logit checks fail on a ``fit.json`` payload
    (``summary.json``'s ``logit`` block), each with the reason:

    - ``floor``: the out-of-sample accuracy is below ``LOGIT_FLOOR``;
    - ``coefficients``: no contagion column survives the lasso, or the
      dominant surviving one is not negative in both the refit and the
      lasso, or the net refit contagion coefficient is not negative.

    Adjacent quarterly proxies are collinear, so when several survive the
    penalty a minor one can flip sign against the dominant one; what must
    hold is that the dominant retained contagion column (and the net
    contagion effect) carries the expected negative sign: more contagion
    damage, higher default odds. An empty dict means every check passes.
    """
    failures = {}
    if not logit["oos_accuracy"] >= LOGIT_FLOOR:
        failures["floor"] = f"logit OOS accuracy {logit['oos_accuracy']:.4f} below {LOGIT_FLOOR}"
    retained = {
        c["name"]: c
        for c in logit["columns"]
        if c["coefficient"] != "lasso_reduced" and c["name"] in CONTAGION_COLUMNS
    }
    if not retained:
        failures["coefficients"] = "no contagion column in the lasso active set"
        return failures
    dominant = max(retained, key=lambda n: abs(retained[n]["coefficient"]))
    refit, lasso = retained[dominant]["coefficient"], retained[dominant]["lasso_coefficient"]
    net = sum(c["coefficient"] for c in retained.values())
    if not (refit < 0.0 and lasso < 0.0):
        failures["coefficients"] = (
            f"dominant contagion column {dominant} has coefficient {refit:+.4f} "
            f"(lasso {lasso:+.4f}), expected negative"
        )
    elif not net < 0.0:
        failures["coefficients"] = f"net contagion coefficient {net:+.4f} not negative"
    return failures
