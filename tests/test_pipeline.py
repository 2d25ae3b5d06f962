import csv
import json
import sys

import numpy as np
import pytest

from banknet.dataset import COLUMN_NAMES, FeaturePanel
from banknet import reconstruction
from banknet.errors import StageError
from banknet.pipeline import (
    RunConfig,
    load_dataset_dir,
    report_correlations,
    rerun_from_manifest,
    run_pipeline,
    stage_build_dataset,
    stage_simulate,
)
from banknet.synthetic import SyntheticSpec, generate, write_outputs

SMALL_GRID = {"structures": [[8, 16, 8]], "solvers": ["adam"], "learning_rates": [0.05]}


def small_config(**overrides):
    # Deliberately noisy generator settings: the tiny training sets here
    # must not be perfectly separable or the refit (correctly) refuses.
    base = dict(
        seed=17,
        synthetic=True,
        n_banks=200,
        default_rate=0.3,
        contagion_signal_strength=0.6,
        total=160,
        epochs=25,
        batch_size=16,
        grid=SMALL_GRID,
    )
    base.update(overrides)
    return RunConfig(**base)


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    manifest = run_pipeline(small_config(), out)
    return out, manifest


class TestRunPipeline:
    def test_all_artifacts_present(self, small_run):
        out, manifest = small_run
        for name in (
            "model.json",
            "sensitivity.csv",
            "fit.json",
            "correlations.csv",
            "summary.json",
            "run_manifest.json",
            "dataset/panel.csv",
            "dataset/dataset.json",
        ):
            assert (out / name).exists(), name
        for tag in ("2009Q1", "2009Q2", "2009Q3", "2009Q4"):
            assert (out / "proxies" / f"proxies_{tag}.csv").exists()
        assert set(manifest["stages"]) == {
            "generate-synthetic",
            "simulate",
            "build-dataset",
            "train-mlp",
            "sensitivity",
            "logit",
            "report",
        }

    def test_manifest_records_parameters_and_digests(self, small_run):
        out, manifest = small_run
        assert manifest["config"]["alpha"] == 1e-6
        assert manifest["config"]["tolerance"] == 1e-8
        assert manifest["config"]["shock_fraction"] == 0.1
        assert manifest["seeds"]["master"] == 17
        assert "dataset/panel.csv" in manifest["artifacts"]
        written = json.loads((out / "run_manifest.json").read_text())
        assert written["artifacts"] == manifest["artifacts"]

    def test_rerun_from_manifest_is_byte_identical(self, small_run, tmp_path):
        out, manifest = small_run
        out2 = tmp_path / "rerun"
        manifest2 = rerun_from_manifest(out / "run_manifest.json", out2)
        assert manifest["artifacts"] == manifest2["artifacts"]
        for rel in manifest["artifacts"]:
            assert (out / rel).read_bytes() == (out2 / rel).read_bytes(), rel

    def test_dataset_roundtrip(self, small_run):
        out, _ = small_run
        panel, splits, scaler = load_dataset_dir(out / "dataset")
        assert panel.column_names == COLUMN_NAMES
        assert len(panel) == 160
        merged = np.concatenate([splits.train, splits.validation, splits.test])
        assert sorted(merged.tolist()) == list(range(160))
        assert scaler.median.shape == (24,)

    def test_summary_mirrors_fit_and_model(self, small_run):
        out, _ = small_run
        summary = json.loads((out / "summary.json").read_text())
        model = json.loads((out / "model.json").read_text())
        fit = json.loads((out / "fit.json").read_text())
        assert summary["mlp"]["oos_accuracy"] == model["oos_accuracy"]
        assert summary["logit"]["lambda"] == fit["lambda"]
        assert len(summary["sensitivity_gradients"]) == 24

    def test_missing_quarter_file_fails_at_build_dataset(self, small_run, tmp_path):
        out, _ = small_run
        inputs = out / "inputs"
        quarter_files = sorted(str(p) for p in inputs.glob("panel_*.csv"))
        proxy_files = sorted(str(p) for p in (out / "proxies").glob("proxies_*.csv"))
        missing = str(tmp_path / "nope.csv")
        with pytest.raises(FileNotFoundError, match="nope.csv"):
            stage_build_dataset(
                quarter_files[:3] + [missing],
                proxy_files,
                str(inputs / "failed_banks.csv"),
                tmp_path / "ds",
                total=160,
                seed=0,
            )

    def test_file_mode_requires_inputs(self, tmp_path):
        config = RunConfig(synthetic=False, quarter_files=(), labels_file="")
        with pytest.raises(StageError, match="inputs"):
            run_pipeline(config, tmp_path / "x")

    def test_file_mode_with_dirty_row(self, tmp_path):
        # File-mode run on pre-generated panels where one bank's Q2 row
        # violates an invariant: the row is quarantined (report written), the
        # bank drops out of the four-quarter join, everything else completes.
        res = generate(
            SyntheticSpec(
                n_banks=60, default_rate=0.3, contagion_signal_strength=0.6, rng_seed=9
            )
        )
        paths = write_outputs(res, tmp_path / "inputs")
        q2 = tmp_path / "inputs" / "panel_2009Q2.csv"
        lines = q2.read_text().splitlines()
        fields = lines[1].split(",")
        victim = fields[0]
        fields[4] = repr(float(fields[2]) * 2.0)  # interbank_assets > total_assets
        lines[1] = ",".join(fields)
        q2.write_text("\n".join(lines) + "\n")

        config = RunConfig(
            seed=9,
            synthetic=False,
            quarter_files=tuple(
                str(tmp_path / "inputs" / f"panel_2009Q{k}.csv") for k in range(1, 5)
            ),
            labels_file=paths["failed_banks"],
            total=40,
            epochs=10,
            batch_size=8,
            grid=SMALL_GRID,
            lam=0.5,  # plumbing test: a 14-row training set separates under auto
        )
        out = tmp_path / "out"
        manifest = run_pipeline(config, out)
        assert len(manifest["inputs"]) == 5  # four panels + labels, digested
        sim_q2 = manifest["stages"]["simulate"][1]
        assert sim_q2["n_rejected_rows"] == 1
        assert (out / "proxies" / "rejected_rows_2009Q2.csv").exists()
        exclusions = json.loads((out / "dataset" / "dataset.json").read_text())[
            "exclusions"
        ]
        assert [victim, "missing from quarter 2009Q2"] in exclusions


class TestRebalanceAfterSplit:
    def test_leakage_free_mode_keeps_partitions_disjoint_by_bank(self, tmp_path):
        out = tmp_path / "run"
        run_pipeline(small_config(rebalance_after_split=True, total=60), out)
        panel, splits, _ = load_dataset_dir(out / "dataset")
        banks = np.array(panel.bank_ids)
        train_banks = set(banks[splits.train])
        val_banks = set(banks[splits.validation])
        test_banks = set(banks[splits.test])
        assert not train_banks & val_banks
        assert not train_banks & test_banks
        assert not val_banks & test_banks


class TestStageSimulate:
    def test_proxy_csv_schema_and_trajectory(self, tmp_path):
        res = generate(SyntheticSpec(n_banks=30, default_rate=0.1, rng_seed=2))
        paths = write_outputs(res, tmp_path / "inputs")
        out_csv = tmp_path / "proxies.csv"
        traj = tmp_path / "trajectory.csv"
        summary = stage_simulate(
            paths["panel_2009Q1"],
            "2009Q1",
            out_csv,
            trajectory_path=traj,
            dump_matrix=tmp_path / "w.bin",
        )
        with open(out_csv, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 30
        assert set(rows[0]) == {
            "bank_id",
            "proxy_pct",
            "initially_defaulted",
            "cascade_defaulted",
        }
        assert all(float(r["proxy_pct"]) <= 0.0 for r in rows)
        assert summary["ras_converged"]
        assert summary["shock"]["fraction"] == 0.1
        # one row per bank per period (plus the post-shock state)
        lines = traj.read_text().strip().splitlines()
        assert len(lines) == 1 + 30 * (summary["periods"] + 1)
        assert (tmp_path / "w.bin").exists()
        assert (tmp_path / "w.bin.ids.csv").exists()


    def test_dump_writes_the_simulated_matrix_without_a_second_ras(self, tmp_path, monkeypatch):
        # Count reconstructions wherever banknet holds the function by name.
        original = reconstruction.reconstruct
        built = []

        def counting(*args, **kwargs):
            result = original(*args, **kwargs)
            built.append(result[0])
            return result

        for name, module in list(sys.modules.items()):
            if name.startswith("banknet") and getattr(module, "reconstruct", None) is original:
                monkeypatch.setattr(module, "reconstruct", counting)
        paths = write_outputs(generate(SyntheticSpec(n_banks=30, rng_seed=2)), tmp_path / "in")
        stage_simulate(
            paths["panel_2009Q1"], "2009Q1", tmp_path / "p.csv", dump_matrix=tmp_path / "w.bin"
        )
        assert len(built) == 1
        back = reconstruction.read_matrix(tmp_path / "w.bin")
        assert back.bank_ids == built[0].bank_ids
        np.testing.assert_array_equal(back.w, built[0].w)


class TestReportCorrelations:
    def _panel(self, x):
        return FeaturePanel(
            bank_ids=tuple(str(i) for i in range(x.shape[0])),
            column_names=COLUMN_NAMES,
            x=x,
            y=np.ones(x.shape[0], dtype=int),
        )

    def test_self_correlation_is_exactly_one(self):
        x = np.random.default_rng(1).normal(size=(50, 24))
        corr, flags = report_correlations(self._panel(x))
        assert np.diagonal(corr).tolist() == [1.0] * 24
        assert flags == []

    def test_negated_column_fully_anticorrelated(self):
        x = np.random.default_rng(2).normal(size=(100, 24))
        x[:, 1] = -x[:, 0]
        corr, _ = report_correlations(self._panel(x))
        assert corr[0, 1] == pytest.approx(-1.0, abs=1e-12)

    def test_independent_columns_weakly_correlated(self):
        x = np.random.default_rng(3).normal(size=(10_000, 24))
        corr, _ = report_correlations(self._panel(x))
        off = corr[~np.eye(24, dtype=bool)]
        assert np.abs(off).max() < 0.05

    def test_constant_column_flagged_and_zeroed(self):
        x = np.random.default_rng(4).normal(size=(60, 24))
        x[:, 5] = 3.14
        corr, flags = report_correlations(self._panel(x))
        assert flags == [COLUMN_NAMES[5]]
        assert not corr[5, :5].any()
        assert not corr[5, 6:].any()
        assert corr[5, 5] == 1.0
