"""Acceptance suite: one test per criterion, each printing a PASS line with
its runtime (run with -s to see them live). The end-to-end criteria share a
single module-scoped pipeline run."""

import json
import time

import numpy as np
import pytest

from banknet.dataset import CONTAGION_COLUMNS
from banknet.debtrank import ShockSpec, apply_shock, init_state, propagate
from banknet.logit import fit_lasso
from banknet.mlp import (
    MlpConfig,
    _forward,
    input_gradients,
    predict,
    train,
)
from banknet.pipeline import (
    VOLATILE_MANIFEST_KEYS,
    RunConfig,
    rerun_from_manifest,
    run_pipeline,
)
from banknet.reconstruction import ExposureMatrix, marginal_errors, reconstruct

from .criteria import logit_claim_failures
from .oracles import (
    debtrank_reference,
    finite_difference_gradient,
    newton_logistic,
    path_sum_gradient,
)

PIPELINE_SEED = 42


def _report(number, name, started):
    print(f"ACCEPTANCE {number} ({name}): PASS ({time.perf_counter() - started:.1f}s)")


def _random_contagion_instance(rng, n=None, max_phi=0.9):
    n = n or int(rng.integers(2, 6))
    e0 = rng.uniform(50.0, 900.0, n)
    w = rng.uniform(0.0, max_phi, (n, n)) * e0[None, :]
    w[rng.random((n, n)) < 0.3] = 0.0
    np.fill_diagonal(w, 0.0)
    ids = tuple(str(i) for i in range(n))
    k = int(rng.integers(1, n + 1))
    shock = ShockSpec(
        "equity_fraction",
        {str(i): float(rng.uniform(0.05, 0.95)) for i in rng.choice(n, k, replace=False)},
    )
    return ExposureMatrix(bank_ids=ids, w=w), e0, shock, w


@pytest.fixture(scope="module")
def pipeline_run(tmp_path_factory):
    """The end-to-end pipeline: 1000 banks, high contagion signal, fixed
    seed, the full default tuning grid and automatic penalty selection. A 5%
    default incidence keeps the pool of unique failed banks statistically
    workable at this desk scale."""
    out = tmp_path_factory.mktemp("acceptance_run")
    config = RunConfig(
        seed=PIPELINE_SEED,
        synthetic=True,
        n_banks=1000,
        default_rate=0.05,
        contagion_signal_strength=3.0,
        total=1000,
    )
    started = time.perf_counter()
    manifest = run_pipeline(config, out)
    return out, manifest, time.perf_counter() - started


def test_criterion_1_contagion_engine_matches_literal_reference():
    started = time.perf_counter()
    rng = np.random.default_rng(1001)
    for _ in range(100):
        exposures, e0, shock, w = _random_contagion_instance(rng)
        beta = float(rng.choice([0.5, 1.0]))
        state = apply_shock(init_state(exposures, e0), shock)
        run = propagate(state, beta=beta, alpha=1e-6, record_trajectory=True)
        ref_traj, ref_periods, ref_converged = debtrank_reference(
            w, e0, state.e_curr.tolist(), beta, 1e-6
        )
        assert run.periods == ref_periods
        assert run.converged == ref_converged
        for got, want in zip(run.trajectory, ref_traj):
            np.testing.assert_allclose(got, want, atol=1e-12, rtol=0)
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    _report(1, "contagion engine vs literal re-evaluator", started)


def test_criterion_2_worked_two_bank_example():
    started = time.perf_counter()
    exposures = ExposureMatrix(bank_ids=("A", "B"), w=np.array([[0.0, 50.0], [0.0, 0.0]]))
    state = init_state(exposures, [100.0, 100.0])
    run = propagate(
        apply_shock(state, ShockSpec("equity_fraction", {"B": 0.5})), beta=1.0
    )
    assert run.proxy.tolist() == [-25.0, 0.0]
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    _report(2, "worked 2-bank example", started)


def test_criterion_3_reconstruction_fidelity():
    started = time.perf_counter()
    rng = np.random.default_rng(1003)
    for _ in range(50):
        n = int(rng.integers(3, 51))
        witness = rng.uniform(0.05, 20.0, (n, n))
        np.fill_diagonal(witness, 0.0)
        ia = witness.sum(axis=1)
        il = witness.sum(axis=0)
        exposures, report = reconstruct(ia, il, tolerance=1e-8, max_iter=10_000)
        assert report.converged
        assert report.iterations <= 10_000
        row_err, col_err = marginal_errors(exposures, ia, il)
        assert max(row_err.max(), col_err.max()) <= 1e-8
        assert np.diagonal(exposures.w).tolist() == [0.0] * n
        assert (exposures.w >= 0.0).all()
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    _report(3, "reconstruction fidelity on feasible instances", started)


def test_criterion_4_sensitivity_gradients():
    started = time.perf_counter()
    rng = np.random.default_rng(1004)
    structures = ((8, 16, 8), (4, 8, 16), (16, 8, 4))

    deviations = []
    for trial in range(20):
        x = rng.normal(0.0, 1.0, size=(64, 24))
        y = (x[:, trial % 24] + 0.3 * rng.normal(size=64) > 0).astype(int)
        cfg = MlpConfig(
            hidden_layers=structures[trial % 3],
            solver="adam",
            learning_rate=0.01,
            epochs=15,
            rng_seed=2000 + trial,
        )
        model = train(x, y, cfg)
        checked = 0
        while checked < 3:
            point = rng.normal(0.0, 1.5, size=(1, 24))
            pres = _forward(model.weights, model.biases, point)[1]
            if min(float(np.abs(z).min()) for z in pres) <= 1e-3:
                continue
            analytic = input_gradients(model, point)[0]
            fd = finite_difference_gradient(
                lambda v: float(predict(model, v.reshape(1, 24))[0]), point[0]
            )
            deviations.append(np.abs(analytic - fd).mean())
            checked += 1
    assert float(np.mean(deviations)) <= 1e-4

    for trial in range(5):
        x64 = rng.normal(size=(64, 24))
        y64 = (rng.random(64) < 0.5).astype(int)
        cfg = MlpConfig(
            hidden_layers=(4, 3, 2), epochs=10, learning_rate=0.01, rng_seed=3000 + trial
        )
        model = train(x64, y64, cfg)
        point = rng.normal(size=24)
        backward = input_gradients(model, point.reshape(1, 24))[0]
        paths = path_sum_gradient(model.weights, model.biases, point)
        np.testing.assert_allclose(backward, paths, atol=1e-12, rtol=0)

    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    _report(4, "sensitivity gradients vs finite differences and path sums", started)


def test_criterion_5_logistic_oracle():
    started = time.perf_counter()
    rng = np.random.default_rng(1005)
    checked = 0
    while checked < 50:
        n = int(rng.integers(40, 101))
        p = int(rng.integers(1, 6))
        x = rng.normal(size=(n, p))
        coefs = rng.uniform(-1.0, 1.0, p)
        y = (rng.random(n) < 1.0 / (1.0 + np.exp(-(x @ coefs)))).astype(int)
        if y.min() == y.max():
            continue
        try:
            b0, b = newton_logistic(x, y)
        except FloatingPointError:
            continue  # separable draw: the MLE does not exist, skip
        fit = fit_lasso(x, y, 0.0)
        assert abs(fit.intercept - b0) <= 1e-6
        np.testing.assert_allclose(fit.coefficients, b, atol=1e-6, rtol=0)
        checked += 1

        big = fit_lasso(x, y, 1e6)
        assert big.coefficients.tolist() == [0.0] * p
        pbar = y.mean()
        assert abs(big.intercept - np.log(pbar / (1 - pbar))) <= 1e-6
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    _report(5, "penalized logistic vs Newton MLE oracle", started)


def test_criterion_6_monotonicity_suite():
    started = time.perf_counter()
    rng = np.random.default_rng(1006)
    betas = (0.25, 0.5, 0.75, 1.0)
    for _ in range(100):
        # Margin keeps the run cascade-free, where the beta ordering is
        # guaranteed (an insolvency zero-out can otherwise shelter lenders).
        exposures, e0, shock, _ = _random_contagion_instance(rng, max_phi=0.4)
        state = apply_shock(init_state(exposures, e0), shock)
        run1 = propagate(state, beta=1.0, record_trajectory=True)
        traj = np.array(run1.trajectory)
        assert (np.diff(traj, axis=0) <= 1e-12).all()  # equity never grows
        assert (traj >= 0.0).all()
        assert (run1.proxy >= -100.0).all() and (run1.proxy <= 0.0).all()

        run0 = propagate(state, beta=0.0)
        assert not run0.proxy.any()

        if run1.defaults_cascaded == 0 and not run1.initially_defaulted.any():
            finals = [propagate(state, beta=b).e_final for b in betas]
            for lo, hi in zip(finals, finals[1:]):
                assert (lo >= hi - 1e-9).all()
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    _report(6, "monotonicity suite", started)


def test_criterion_7_end_to_end_qualitative_reproduction(pipeline_run):
    started = time.perf_counter()
    out, manifest, run_seconds = pipeline_run
    summary = json.loads((out / "summary.json").read_text())

    mlp_oos = summary["mlp"]["oos_accuracy"]
    logit_oos = summary["logit"]["oos_accuracy"]
    assert mlp_oos >= 0.90, f"MLP OOS accuracy {mlp_oos:.4f} below 0.90"
    # The logit floor and the contagion coefficients (tests/test_claim.py
    # shows these fail when no contagion is planted).
    failures = logit_claim_failures(summary["logit"])
    assert not failures, failures

    gradients = summary["sensitivity_gradients"]
    strongest = max(CONTAGION_COLUMNS, key=lambda c: abs(gradients[c]))
    assert gradients[strongest] < 0.0, (
        f"strongest contagion gradient {strongest}={gradients[strongest]:+.3e} "
        "is not negative"
    )

    assert run_seconds < 600.0, f"pipeline took {run_seconds:.0f}s"
    print(
        f"  [criterion 7 detail] mlp_oos={mlp_oos:.4f} logit_oos={logit_oos:.4f} "
        f"strongest_gradient={strongest}={gradients[strongest]:+.3e} "
        f"pipeline={run_seconds:.0f}s"
    )
    _report(7, "end-to-end qualitative reproduction", started)


def test_criterion_8_pipeline_determinism(pipeline_run, tmp_path):
    started = time.perf_counter()
    out, manifest, _ = pipeline_run
    out2 = tmp_path / "rerun"
    manifest2 = rerun_from_manifest(out / "run_manifest.json", out2)
    assert manifest["artifacts"] == manifest2["artifacts"]
    for rel in manifest["artifacts"]:
        assert (out / rel).read_bytes() == (out2 / rel).read_bytes(), rel
    # The manifests themselves agree on everything except timestamps/paths.
    m1 = {k: v for k, v in manifest.items() if k not in VOLATILE_MANIFEST_KEYS}
    m2 = {k: v for k, v in manifest2.items() if k not in VOLATILE_MANIFEST_KEYS}
    assert m1 == m2
    _report(8, "pipeline determinism from manifest", started)
