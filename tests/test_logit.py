import math

import numpy as np
import pytest
from scipy.special import expit, ndtr

from banknet import logit
from banknet.dataset import SplitAssignment, accuracy
from banknet.errors import ConvergenceError, SeparationError
from banknet.logit import (
    DEFAULT_TOL,
    fit_lasso,
    lambda_max,
    predict_proba,
    refit_active,
    select_lambda,
)

from .oracles import lasso_kkt_gap, newton_logistic, wald_pvalues


def simulate(n, coefs, intercept=0.0, seed=0, p=None):
    """Bernoulli draws from a known logistic model."""
    rng = np.random.default_rng(seed)
    coefs = np.asarray(coefs, dtype=float)
    p = p if p is not None else coefs.size
    x = rng.normal(size=(n, p))
    eta = intercept + x[:, : coefs.size] @ coefs
    y = (rng.random(n) < expit(eta)).astype(int)
    return x, y


class TestFitLasso:
    def test_huge_penalty_zeroes_slopes_with_analytic_intercept(self):
        x, y = simulate(200, [1.0, -0.5], seed=1)
        fit = fit_lasso(x, y, 1e6)
        assert fit.coefficients.tolist() == [0.0, 0.0]
        pbar = y.mean()
        assert fit.intercept == pytest.approx(math.log(pbar / (1 - pbar)), abs=1e-8)
        assert fit.active_set == ()

    def test_unpenalized_matches_newton_oracle(self):
        x, y = simulate(120, [0.8, -0.4], seed=2)
        fit = fit_lasso(x, y, 0.0)
        b0, b = newton_logistic(x, y)
        assert fit.intercept == pytest.approx(b0, abs=1e-6)
        np.testing.assert_allclose(fit.coefficients, b, atol=1e-6)

    def test_duplicated_column_preserves_coefficient_mass(self):
        x, y = simulate(300, [1.0], seed=3)
        single = fit_lasso(x, y, 0.05)
        doubled = fit_lasso(np.column_stack([x, x]), y, 0.05)
        assert doubled.coefficients.sum() == pytest.approx(
            single.coefficients[0], abs=1e-6
        )

    def test_thresholded_coefficients_are_exact_zeros(self):
        x, y = simulate(150, [1.5, 0.0, 0.0, 0.0], seed=4)
        fit = fit_lasso(x, y, 0.08)
        inactive = [j for j in range(4) if j not in fit.active_set]
        assert inactive
        for j in inactive:
            assert fit.coefficients[j] == 0.0  # exact, not a small float

    def test_warm_start_reaches_same_solution(self):
        x, y = simulate(200, [1.0, -0.7, 0.3], seed=5)
        cold = fit_lasso(x, y, 0.02)
        rough = fit_lasso(x, y, 0.1)
        warm = fit_lasso(x, y, 0.02, warm_start=(rough.intercept, rough.coefficients))
        assert warm.intercept == pytest.approx(cold.intercept, abs=1e-6)
        np.testing.assert_allclose(warm.coefficients, cold.coefficients, atol=1e-6)

    def test_negative_lambda_rejected(self):
        x, y = simulate(50, [1.0], seed=6)
        for lam in (-0.1, float("nan"), float("inf")):
            with pytest.raises(ValueError):
                fit_lasso(x, y, lam)


def _near_collinear(seed, n=300, noise=1e-3):
    """Two pairs of columns that differ by ``noise``-scaled jitter, plus one
    independent column; the label depends on both pairs."""
    rng = np.random.default_rng(seed)
    a, b, c = rng.normal(size=(3, n))
    x = np.column_stack(
        [a, a + noise * rng.normal(size=n), b, b + noise * rng.normal(size=n), c]
    )
    y = (rng.random(n) < expit(1.2 * a - 0.8 * b + 0.3 * c)).astype(int)
    return x, y


def _assert_kkt_path(x, y, fractions):
    """The warm-started descending path and a cold fit at each of its points
    all meet the default tol, certified by the independent oracle."""
    lmax = lambda_max(x, y)
    warm = None
    for fraction in fractions:
        lam = fraction * lmax
        fit = fit_lasso(x, y, lam, warm_start=warm)
        warm = (fit.intercept, fit.coefficients)
        gap = lasso_kkt_gap(x, y, fit.intercept, fit.coefficients, lam)
        assert gap <= DEFAULT_TOL + 1e-13, (fraction, gap)
        cold = fit_lasso(x, y, lam)
        assert lasso_kkt_gap(x, y, cold.intercept, cold.coefficients, lam) <= DEFAULT_TOL + 1e-13


PATH_FRACTIONS = (0.9, 0.5, 0.2, 0.05, 0.01, 1e-3)


class TestKktCertificate:
    @pytest.mark.parametrize("seed", range(5))
    def test_well_conditioned(self, seed):
        x, y = simulate(200, [1.0, -0.6, 0.3], p=6, seed=100 + seed)
        _assert_kkt_path(x, y, PATH_FRACTIONS)

    @pytest.mark.parametrize("seed", range(3))
    def test_near_collinear_pairs(self, seed):
        x, y = _near_collinear(200 + seed)
        _assert_kkt_path(x, y, PATH_FRACTIONS)

    def test_exact_duplicate_columns(self):
        x, y = simulate(300, [1.0, -0.5], seed=300)
        _assert_kkt_path(np.column_stack([x, x[:, 0]]), y, PATH_FRACTIONS)

    def test_exact_duplicates_both_active_in_warm_start(self):
        # Both copies start active with one sign, so the active-set solve is
        # singular; the fit still certifies and keeps the single-copy mass.
        x, y = simulate(300, [1.0], seed=3)
        lam = 0.05
        single = fit_lasso(x, y, lam)
        doubled = np.column_stack([x, x])
        fit = fit_lasso(doubled, y, lam, warm_start=(0.0, np.array([0.3, 0.1])))
        assert lasso_kkt_gap(doubled, y, fit.intercept, fit.coefficients, lam) <= DEFAULT_TOL + 1e-13
        assert fit.coefficients.sum() == pytest.approx(single.coefficients[0], abs=1e-6)

    def test_step_cap_raises(self):
        x, y = _near_collinear(400)
        lam = 1e-3 * lambda_max(x, y)
        with pytest.raises(ConvergenceError):
            fit_lasso(x, y, lam, max_steps=1)
        fit = fit_lasso(x, y, lam)
        assert lasso_kkt_gap(x, y, fit.intercept, fit.coefficients, lam) <= DEFAULT_TOL + 1e-13


class TestRefit:
    def test_perfect_separation_raises(self):
        y = np.array([0, 1] * 10)
        x = (2.0 * y - 1.0).reshape(-1, 1)  # column equals the label, recoded +-1
        with pytest.raises(SeparationError):
            refit_active(x, y, (0,))
        # One class only: the intercept alone separates it.
        with pytest.raises(SeparationError):
            refit_active(x, np.zeros_like(y), ())
        # Quasi-complete: x = -1 rows all 0, x = +1 rows all 1, x = 0 rows mixed.
        y = np.array([0] * 10 + [0, 1] * 5 + [1] * 10)
        x = np.repeat([-1.0, 0.0, 1.0], 10).reshape(-1, 1)
        with pytest.raises(SeparationError):
            refit_active(x, y, (0,))

    def test_saturated_rows_of_a_finite_mle_refit(self):
        # A strong signal puts some rows at weight mu(1 - mu) ~ 1e-13, but a
        # misclassified row keeps the MLE finite: no SeparationError.
        x, y = simulate(60, [4.0, -3.0], p=3, seed=701)
        fit = refit_active(x, y, (0, 1))
        b0, b = newton_logistic(x[:, :2], y)
        assert fit.intercept == pytest.approx(b0, abs=1e-8)
        np.testing.assert_allclose(fit.coefficients[:2], b, atol=1e-8)
        gap = lasso_kkt_gap(x[:, :2], y, fit.intercept, fit.coefficients[:2], 0.0)
        assert gap <= DEFAULT_TOL

    def test_intercept_only_balanced(self):
        y = np.array([0, 1] * 25)
        x = np.random.default_rng(7).normal(size=(50, 3))
        fit = refit_active(x, y, ())
        assert fit.intercept == pytest.approx(0.0, abs=1e-12)
        assert fit.intercept_pvalue == pytest.approx(1.0, abs=1e-12)

    def test_monte_carlo_recovery(self):
        x, y = simulate(5000, [1.0, -0.5], seed=8)
        fit = refit_active(x, y, (0, 1))
        assert fit.coefficients[0] == pytest.approx(1.0, abs=0.1)
        assert fit.coefficients[1] == pytest.approx(-0.5, abs=0.1)
        assert fit.pvalues[0] < 0.05
        assert fit.pvalues[1] < 0.05

    def test_matches_newton_oracle(self):
        x, y = simulate(90, [0.6, -0.3, 0.2], seed=9)
        fit = refit_active(x, y, (0, 1, 2))
        b0, b = newton_logistic(x, y)
        assert fit.intercept == pytest.approx(b0, abs=1e-8)
        np.testing.assert_allclose(fit.coefficients, b, atol=1e-8)

    def test_pvalues_equal_the_scipy_stats_tail_bit_for_bit(self, monkeypatch):
        # The refit's one normal-tail call sees -|z|, intercept first; each
        # slope's z is its reported coefficient over its standard error.
        seen = []

        def recording_ndtr(t):
            seen.append(t.copy())
            return ndtr(t)

        monkeypatch.setattr(logit, "ndtr", recording_ndtr)
        x, y = simulate(400, [0.8, -0.4, 0.05], intercept=0.3, p=4, seed=11)
        fit = refit_active(x, y, (0, 1, 3))
        (neg_abs_z,) = seen
        z = [fit.coefficients[j] / fit.standard_errors[j] for j in fit.active_set]
        assert (-neg_abs_z[1:]).tobytes() == np.abs(z).tobytes()
        got = [fit.intercept_pvalue] + [fit.pvalues[j] for j in fit.active_set]
        assert np.array(got).tobytes() == wald_pvalues(neg_abs_z).tobytes()
        assert 0.0 < min(got) and max(got) < 1.0

    def test_pvalue_formula_at_the_edges_of_z(self):
        # The identity the refit relies on: 2 * ndtr(-|z|) is 2 * norm.sf(|z|).
        z = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 1e-300, -1e-300, 40.0, -40.0, 38.0])
        assert (2.0 * ndtr(-np.abs(z))).tobytes() == wald_pvalues(z).tobytes()


class TestSelectLambda:
    def _splits(self, n):
        idx = np.arange(n)
        third = n // 3
        return SplitAssignment(
            idx[:third], idx[third : 2 * third], idx[2 * third :]
        )

    def test_lambda_max_zeroes_everything(self):
        x, y = simulate(150, [1.2, -0.8], seed=10)
        lmax = lambda_max(x, y)
        fit = fit_lasso(x, y, lmax)
        assert fit.active_set == ()
        # just below, something activates
        fit_below = fit_lasso(x, y, 0.95 * lmax)
        assert fit_below.active_set != ()

    def test_strong_single_signal_is_retained(self):
        x, y = simulate(600, [2.5], p=5, seed=11)
        lam = select_lambda(x, y, self._splits(600)).lam
        fit = fit_lasso(x[: 200], y[: 200], lam)
        assert 0 in fit.active_set

    def test_pure_noise_selects_near_lambda_max(self):
        # With nothing to learn, no penalty beats the null model on this
        # draw, and ties resolve to the largest (sparsest) grid point.
        rng = np.random.default_rng(0)
        x = rng.normal(size=(300, 6))
        y = (rng.random(300) < 0.5).astype(int)
        splits = self._splits(300)
        lam = select_lambda(x, y, splits).lam
        lmax = lambda_max(x[splits.train], y[splits.train])
        assert lam == pytest.approx(lmax, rel=1e-12)
        fit = fit_lasso(x[splits.train], y[splits.train], lam)
        assert fit.active_set == ()

    def test_returns_the_certified_path_fit_at_the_chosen_penalty(self):
        x, y = simulate(600, [2.5, -1.0], p=6, seed=11)
        splits = self._splits(600)
        fit = select_lambda(x, y, splits)
        xt, yt = x[splits.train], y[splits.train]
        lmax = lambda_max(xt, yt)
        assert fit.lam in np.geomspace(lmax, 1e-4 * lmax, 50).tolist()
        assert lasso_kkt_gap(xt, yt, fit.intercept, fit.coefficients, fit.lam) <= 1e-9
        assert fit_lasso(xt, yt, fit.lam).active_set == fit.active_set

    def test_path_failing_at_its_first_point_raises(self, monkeypatch):
        def no_convergence(*args, **kwargs):
            raise ConvergenceError("KKT conditions not met")

        monkeypatch.setattr(logit, "fit_lasso", no_convergence)
        x, y = simulate(150, [1.2, -0.8], seed=10)
        with pytest.raises(ConvergenceError, match="KKT"):
            select_lambda(x, y, self._splits(150))

    def test_no_signal_at_all_returns_the_fit_at_zero(self):
        x = np.random.default_rng(1).normal(size=(90, 3))
        fit = select_lambda(x, np.ones(90, dtype=int), self._splits(90))
        assert fit.lam == 0.0
        assert fit.active_set == ()

    def test_active_set_grows_as_penalty_shrinks(self):
        x, y = simulate(400, [1.5, -1.0, 0.6, -0.3], p=8, seed=13)
        lmax = lambda_max(x, y)
        sizes = [
            len(fit_lasso(x, y, lam).active_set)
            for lam in np.geomspace(lmax, 1e-3 * lmax, 25)
        ]
        drops = [sizes[i] - sizes[i + 1] for i in range(len(sizes) - 1)]
        assert max(drops, default=0) <= 1


class TestPrediction:
    def test_classify_by_odds_equals_probability_threshold(self):
        x, y = simulate(200, [1.0, -0.5], seed=14)
        fit = fit_lasso(x, y, 0.01)
        odds = np.exp(fit.intercept + x @ fit.coefficients)
        assert accuracy(predict_proba(fit, x), (odds >= 1.0).astype(int)) == 1.0

    def test_scaling_a_column_rescales_its_coefficient(self):
        x, y = simulate(250, [0.9, -0.4], seed=15)
        base = fit_lasso(x, y, 0.0)
        scaled_x = x.copy()
        scaled_x[:, 0] *= 10.0
        scaled = fit_lasso(scaled_x, y, 0.0)
        assert scaled.coefficients[0] == pytest.approx(
            base.coefficients[0] / 10.0, abs=1e-6
        )

    def test_accuracy_on_recoverable_signal(self):
        x, y = simulate(800, [2.0, -1.5], seed=16)
        fit = fit_lasso(x[:400], y[:400], 0.01)
        assert accuracy(predict_proba(fit, x[400:]), y[400:]) > 0.75
        probs = predict_proba(fit, x[400:])
        assert ((probs > 0) & (probs < 1)).all()
