"""The claim's negative control: criterion 7's logit checks pass when
contagion drives default and fail when it does not.

Seeds 1-5 run at contagion signal 3 and at signal 0 on the acceptance
config (1000 banks, default rate 0.05, 1000 dataset rows). Both the logit
accuracy floor and the contagion-coefficient checks separate the two
signals at every seed. The MLP floor and the gradient sign do not, so no
MLP is trained: each run stops after the logit stage, whose ``fit.json`` is
the one ``run`` writes. The config is not smaller than criterion 7's: at
500 banks the logit checks stop separating the signals.
"""

import json

import numpy as np
import pytest

from banknet import pipeline
from banknet.artifacts import float_columns, read_csv, write_csv
from banknet.pipeline import RunConfig
from banknet.synthetic import generate, write_outputs

from .criteria import logit_claim_failures

SEEDS = range(1, 6)
QUARTERS = tuple(f"2009Q{k}" for k in range(1, 5))


def _config(seed, signal):
    return RunConfig(
        seed=seed, n_banks=1000, default_rate=0.05, contagion_signal_strength=signal, total=1000
    )


def _logit_fit(run, proxy_dir, config) -> dict:
    """The ``fit.json`` payload of the dataset built from ``run``'s inputs
    and the proxies in ``proxy_dir``."""
    panels = [(run / "inputs" / f"panel_{q}.csv", q) for q in QUARTERS]
    labels = run / "inputs" / "failed_banks.csv"
    pipeline.stage_build_dataset(panels, proxy_dir, labels, proxy_dir / "dataset", config=config)
    pipeline.stage_logit(proxy_dir / "dataset", proxy_dir / "fit.json", config=config)
    return json.loads((proxy_dir / "fit.json").read_text())


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    """The directory of a (seed, signal) run's inputs and proxies, made on first use."""
    root = tmp_path_factory.mktemp("claim")
    done = set()

    def run(seed, signal):
        out = root / f"seed{seed}_signal{signal:g}"
        if out not in done:
            config = _config(seed, signal)
            paths = write_outputs(generate(pipeline.synthetic_spec(config)), out / "inputs")
            for q in QUARTERS:
                proxies = pipeline.proxy_csv(out / "proxies", q)
                pipeline.stage_simulate(paths[f"panel_{q}"], q, proxies, config=config)
            done.add(out)
        return out

    return run


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize(
    "signal, failing",
    [(3.0, set()), (0.0, {"floor", "coefficients"})],
    ids=["signal3", "signal0"],
)
def test_logit_checks_hold_only_with_planted_contagion(run_dir, seed, signal, failing):
    out = run_dir(seed, signal)
    fit = _logit_fit(out, out / "proxies", _config(seed, signal))
    assert set(logit_claim_failures(fit)) == failing


@pytest.mark.parametrize("seed", SEEDS)
def test_permuted_proxies_fail_the_logit_floor(run_dir, seed, tmp_path):
    # Each quarter's proxies shuffled across banks: the floor fails at every
    # seed, so the logit accuracy rests on the proxy itself. The coefficient
    # checks fail at seeds 1, 2, 4 and 5 only; at seed 3 a shuffled proxy
    # keeps a negative dominant coefficient, so they are not asserted here.
    out = run_dir(seed, 3.0)
    rng = np.random.default_rng(seed)
    for quarter in QUARTERS:
        path = pipeline.proxy_csv(out / "proxies", quarter)
        table = read_csv(path, ("bank_id", "proxy_pct"))
        proxies = rng.permutation(float_columns(path, table, ("proxy_pct",))["proxy_pct"])
        columns = [table["bank_id"], proxies]
        write_csv(pipeline.proxy_csv(tmp_path, quarter), ("bank_id", "proxy_pct"), columns)
    assert "floor" in logit_claim_failures(_logit_fit(out, tmp_path, _config(seed, 3.0)))
