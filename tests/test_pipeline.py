import collections
import csv
import dataclasses
import json
import re
import shutil
import sys
from pathlib import Path

import numpy as np
import pytest

from banknet import artifacts, mlp, pipeline, reconstruction
from banknet.balance_sheets import derive_labels, load_panel
from banknet.cli import main
from banknet.dataset import (
    COLUMN_NAMES,
    FeaturePanel,
    apply_scaler,
    build_panel,
    rebalance,
    split,
    take,
)
from banknet.errors import ConvergenceError, SchemaError, StageError
from banknet.logit import select_lambda
from banknet.pipeline import (
    RunConfig,
    load_dataset_dir,
    report_correlations,
    rerun_from_manifest,
    run_pipeline,
    stage_build_dataset,
    stage_logit,
    stage_report,
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
        assert manifest["config"]["seed"] == 17
        assert "dataset/panel.csv" in manifest["artifacts"]
        written = json.loads((out / "run_manifest.json").read_text())
        assert written["artifacts"] == manifest["artifacts"]

    def test_stage_summaries_name_no_artifact(self, small_run):
        # Artifacts are the manifest's to list; a stage summary holds what
        # the stage measured.
        _, manifest = small_run

        def values(obj):
            if isinstance(obj, dict):
                obj = list(obj.values())
            if isinstance(obj, list):
                return [v for item in obj for v in values(item)]
            return [obj]

        named = [v for v in values(manifest["stages"]) if v in manifest["artifacts"]]
        assert named == []

    def test_dataset_summary_repeats_no_sidecar_key(self, small_run):
        # dataset.json is a digested artifact; its facts are not restated.
        out, manifest = small_run
        sidecar = json.loads((out / "dataset" / "dataset.json").read_text())
        assert set(manifest["stages"]["build-dataset"]) & set(sidecar) == set()

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

    def test_dataset_features_are_c_ordered(self, small_run):
        # Built as one row per bank, as the file holds them. A transposed view
        # sums in another order, so every statistic would move in its last
        # digits; a rerun drifts the same way, so the rerun test cannot see it.
        panel, _, _ = load_dataset_dir(small_run[0] / "dataset")
        assert panel.x.flags.c_contiguous

    def test_dataset_panel_missing_a_column_is_schema_error(self, small_run, tmp_path):
        out, _ = small_run
        data = tmp_path / "dataset"
        data.mkdir()
        (data / "dataset.json").write_bytes((out / "dataset" / "dataset.json").read_bytes())
        with open(out / "dataset" / "panel.csv", newline="") as fh:
            rows = [r[:-2] + r[-1:] for r in csv.reader(fh)]  # drop contagion_proxy_q4
        with open(data / "panel.csv", "w", newline="") as fh:
            csv.writer(fh).writerows(rows)
        with pytest.raises(SchemaError, match="contagion_proxy_q4"):
            load_dataset_dir(data)

    def test_report_rejects_sensitivity_csv_without_gradient(self, small_run, tmp_path):
        out, _ = small_run
        bad = tmp_path / "sensitivity.csv"
        bad.write_text("column_name,grad\nstpd_q1,0.5\n")
        with pytest.raises(SchemaError, match="gradient"):
            stage_report(out / "dataset", out / "model.json", bad, out / "fit.json", tmp_path)

    def test_summary_mirrors_fit_and_model(self, small_run):
        out, _ = small_run
        summary = json.loads((out / "summary.json").read_text())
        model = json.loads((out / "model.json").read_text())
        fit = json.loads((out / "fit.json").read_text())
        assert summary["mlp"]["oos_accuracy"] == model["oos_accuracy"]
        assert summary["logit"]["lambda"] == fit["lambda"]
        assert len(summary["sensitivity_gradients"]) == 24

    def test_auto_lambda_reports_the_fit_that_won_validation(self, small_run, tmp_path, monkeypatch):
        out, _ = small_run
        panel, splits, scaler = load_dataset_dir(out / "dataset")
        selected = select_lambda(apply_scaler(scaler, panel).x, 1 - panel.y, splits)

        def no_refit(*args, **kwargs):
            raise AssertionError("stage_logit fitted the lasso again")

        monkeypatch.setattr(pipeline, "fit_lasso", no_refit)
        stage_logit(out / "dataset", tmp_path / "fit.json", config=RunConfig(lam="auto"))
        fit = json.loads((tmp_path / "fit.json").read_text())
        assert fit["lambda"] == selected.lam
        lasso = {c["name"]: c["lasso_coefficient"] for c in fit["columns"] if "lasso_coefficient" in c}
        assert lasso == {panel.column_names[j]: selected.coefficients[j] for j in selected.active_set}
        assert (tmp_path / "fit.json").read_bytes() == (out / "fit.json").read_bytes()

    def test_missing_quarter_file_fails_at_build_dataset(self, small_run, tmp_path):
        out, _ = small_run
        inputs = out / "inputs"
        panels = [(str(inputs / f"panel_2009Q{k}.csv"), f"2009Q{k}") for k in range(1, 4)]
        missing = (str(tmp_path / "nope.csv"), "2009Q4")
        with pytest.raises(FileNotFoundError, match="nope.csv"):
            stage_build_dataset(
                panels + [missing],
                out / "proxies",
                str(inputs / "failed_banks.csv"),
                tmp_path / "ds",
                config=RunConfig(total=160),
            )

    @pytest.mark.parametrize(
        "solver, overrides",
        [("RAS", {"tolerance": 1e-15, "max_iter": 1}), ("propagation", {"max_periods": 1})],
    )
    def test_unconverged_quarter_stops_the_run(self, tmp_path, solver, overrides):
        out = tmp_path / "run"
        with pytest.raises(StageError, match=f"quarter 2009Q1: {solver} did not") as excinfo:
            run_pipeline(small_config(**overrides), out)
        assert excinfo.value.stage == "simulate"
        assert isinstance(excinfo.value.cause, ConvergenceError)
        assert [p.name for p in (out / "proxies").glob("proxies_*")] == ["proxies_2009Q1.csv"]
        assert not (out / "dataset").exists()
        assert not (out / "run_manifest.json").exists()

    def test_file_mode_requires_inputs(self, tmp_path):
        config = RunConfig(synthetic=False, quarter_files=(), labels_file="")
        with pytest.raises(StageError, match="inputs"):
            run_pipeline(config, tmp_path / "x")

    def test_rerun_hashes_each_input_once(self, tmp_path, monkeypatch):
        spec = SyntheticSpec(n_banks=60, default_rate=0.3, contagion_signal_strength=0.6, rng_seed=9)
        paths = write_outputs(generate(spec), tmp_path / "inputs")
        inputs = sorted(paths[f"panel_2009Q{k}"] for k in range(1, 5)) + [paths["failed_banks"]]
        config = RunConfig(
            seed=9, synthetic=False, quarter_files=tuple(inputs[:4]), labels_file=inputs[4],
            total=40, epochs=10, batch_size=8, grid=SMALL_GRID, lam=0.5,
        )
        run_pipeline(config, tmp_path / "run")
        hashed = collections.Counter()
        sha256 = pipeline._sha256
        monkeypatch.setattr(pipeline, "_sha256", lambda path: hashed.update([str(path)]) or sha256(path))
        rerun_from_manifest(tmp_path / "run" / "run_manifest.json", tmp_path / "rerun")
        assert [hashed[p] for p in inputs] == [1] * 5

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


# One non-default value per RunConfig field, in field order: its INI section,
# the INI lines that set it and the value they parse to.
NON_DEFAULT_INI = {
    "seed": ("run", "seed = 5", 5),
    "synthetic": ("inputs", "synthetic = false", False),
    "n_banks": ("inputs", "n_banks = 300", 300),
    "default_rate": ("inputs", "default_rate = 0.1", 0.1),
    "contagion_signal_strength": ("inputs", "contagion_signal_strength = 1.5", 1.5),
    "start_quarter": ("inputs", "start_quarter = 2008Q3", "2008Q3"),
    "quarter_files": (
        "inputs",
        "q1 = a.csv\nq2 = b.csv\nq3 = c.csv\nq4 = d.csv",
        ("a.csv", "b.csv", "c.csv", "d.csv"),
    ),
    "labels_file": ("inputs", "labels = failed.csv", "failed.csv"),
    "tolerance": ("reconstruct", "tolerance = 1e-10", 1e-10),
    "max_iter": ("reconstruct", "max_iter = 50", 50),
    "shock_fraction": ("simulate", "shock_fraction = 0.25", 0.25),
    "beta": ("simulate", "beta = 0.5", 0.5),
    "alpha": ("simulate", "alpha = 1e-4", 1e-4),
    "max_periods": ("simulate", "max_periods = 7", 7),
    "total": ("dataset", "total = 400", 400),
    "rebalance_after_split": ("dataset", "rebalance_after_split = yes", True),
    "epochs": ("mlp", "epochs = 5", 5),
    "batch_size": ("mlp", "batch_size = 8", 8),
    "grid": ("mlp", "grid = {grid_path}", SMALL_GRID),
    "lam": ("logit", "lambda = 0.02", 0.02),
}


class TestRunConfigSchema:
    def test_ini_round_trip_covers_every_field(self, tmp_path):
        assert list(NON_DEFAULT_INI) == [f.name for f in dataclasses.fields(RunConfig)]
        grid_path = tmp_path / "grid.json"
        grid_path.write_text(json.dumps(SMALL_GRID))
        sections = {}
        for section, lines, _ in NON_DEFAULT_INI.values():
            sections.setdefault(section, []).append(lines.format(grid_path=grid_path))
        ini = tmp_path / "all.ini"
        ini.write_text("".join(f"[{s}]\n" + "\n".join(v) + "\n\n" for s, v in sections.items()))
        expected = RunConfig(**{name: value for name, (_, _, value) in NON_DEFAULT_INI.items()})
        for f in dataclasses.fields(RunConfig):
            assert getattr(expected, f.name) != f.default, f.name
        assert RunConfig.from_ini(ini).to_dict() == expected.to_dict()
        assert RunConfig.from_dict(expected.to_dict()) == expected

    def test_a_grid_is_checked_by_the_candidates_tune_trains(self, monkeypatch):
        # RunConfig builds no candidate of its own: what mlp.grid_configs
        # refuses, the config refuses, naming the grid.
        def refuse(base, **grid):
            raise ValueError("no candidate")

        monkeypatch.setattr(mlp, "grid_configs", refuse)
        with pytest.raises(SchemaError, match=re.escape("[mlp] grid: no candidate")):
            RunConfig(grid=SMALL_GRID)

    def test_readme_example_and_empty_ini_parse_to_defaults(self, tmp_path):
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        example = re.search(r"Example `run.ini`.*?```ini\n(.*?)```", readme, re.S).group(1)
        for name, text in (("readme.ini", example), ("empty.ini", "")):
            (tmp_path / name).write_text(text)
            assert RunConfig.from_ini(tmp_path / name) == RunConfig(), name


def count_panel_reads(monkeypatch):
    """File name -> full ``read_csv`` reads, wherever banknet holds the function."""
    original = artifacts.read_csv
    reads = collections.Counter()

    def counting(path, required):
        reads[Path(path).name] += 1
        return original(path, required)

    for name, module in list(sys.modules.items()):
        if name.startswith("banknet") and getattr(module, "read_csv", None) is original:
            monkeypatch.setattr(module, "read_csv", counting)
    return reads


def test_untagged_panel_names_resolve_once(tmp_path, monkeypatch):
    # Panels named q1.csv..q4.csv carry their quarter only in their rows:
    # finding the tag reads the first row alone, so an untagged panel is read
    # in full as often as a tagged one: to simulate it and to build the
    # dataset.
    spec = SyntheticSpec(n_banks=60, default_rate=0.3, contagion_signal_strength=0.6, rng_seed=9)
    paths = write_outputs(generate(spec), tmp_path / "inputs")
    tagged = [paths[f"panel_2009Q{k}"] for k in range(1, 5)]
    untagged = [str(tmp_path / "inputs" / f"q{k}.csv") for k in range(1, 5)]
    for src, dst in zip(tagged, untagged):
        shutil.copy(src, dst)
    config = small_config(
        synthetic=False, labels_file=paths["failed_banks"], total=40, epochs=10, batch_size=8, lam=0.5
    )
    reads = count_panel_reads(monkeypatch)
    manifests = {}
    for name, files in (("tagged", tagged), ("untagged", untagged)):
        config = dataclasses.replace(config, quarter_files=tuple(files))
        manifests[name] = run_pipeline(config, tmp_path / name)
    assert manifests["untagged"]["artifacts"] == manifests["tagged"]["artifacts"]
    names = [Path(f).name for f in tagged + untagged]
    assert {name: reads[name] for name in names} == {name: 2 for name in names}

    reads.clear()
    argv = ["build-dataset", "--proxies", str(tmp_path / "untagged" / "proxies")]
    argv += [a for k, f in enumerate(untagged, 1) for a in (f"--q{k}", f)]
    argv += ["--labels", paths["failed_banks"], "--total", "40", "--seed", "17"]
    assert main(argv + ["--out", str(tmp_path / "ds")]) == 0
    assert [reads[Path(f).name] for f in untagged] == [1, 1, 1, 1]
    dataset = tmp_path / "untagged" / "dataset"
    for name in ("panel.csv", "dataset.json"):
        assert (tmp_path / "ds" / name).read_bytes() == (dataset / name).read_bytes(), name


def reference_after_split(panel, total, seed):
    """The leakage-free dataset as separately rebalanced partitions, stacked."""
    raw = split(panel, seed)
    per_part = total // 3
    per_part += per_part % 2
    parts = [
        rebalance(take(panel, rows), per_part, seed + 11 + k)
        for k, rows in enumerate((raw.train, raw.validation, raw.test))
    ]
    bounds = np.cumsum([0] + [len(p) for p in parts])
    return (
        [b for p in parts for b in p.bank_ids],
        np.vstack([p.x for p in parts]),
        np.concatenate([p.y for p in parts]),
        [np.arange(bounds[k], bounds[k + 1]).tolist() for k in range(3)],
    )


class TestRebalanceAfterSplit:
    @pytest.mark.parametrize("total", [60, 100])
    def test_stage_matches_the_per_partition_composition(self, small_run, tmp_path, total):
        out, _ = small_run
        inputs = out / "inputs"
        quarters = [load_panel(inputs / f"panel_2009Q{k}.csv", f"2009Q{k}") for k in range(1, 5)]
        proxy_files = [pipeline.proxy_csv(out / "proxies", q.quarter) for q in quarters]
        labels = derive_labels(quarters[-1], inputs / "failed_banks.csv")
        joined = build_panel(quarters, [pipeline._read_proxies(p) for p in proxy_files], labels)
        bank_ids, x, y, parts = reference_after_split(joined, total, seed=3)

        stage_build_dataset(
            [(inputs / f"panel_{q.quarter}.csv", q.quarter) for q in quarters],
            out / "proxies",
            inputs / "failed_banks.csv",
            tmp_path / "ds",
            config=RunConfig(seed=2, total=total, rebalance_after_split=True),  # draws from 3
        )
        panel, splits, _ = load_dataset_dir(tmp_path / "ds")
        assert list(panel.bank_ids) == bank_ids
        np.testing.assert_array_equal(panel.x, x)
        np.testing.assert_array_equal(panel.y, y)
        sidecar = json.loads((tmp_path / "ds" / "dataset.json").read_text())
        assert [sidecar["splits"][p] for p in ("train", "validation", "test")] == parts

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
            trajectory=traj,
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
