import json

import pytest

from banknet.balance_sheets import QuarterlyPanel, write_panel_csv
from banknet.cli import main
from banknet.pipeline import RunConfig

from .test_balance_sheets import make_record

CONFIG_INI = """\
[run]
seed = 17

[inputs]
synthetic = true
n_banks = 200
default_rate = 0.3
contagion_signal_strength = 0.6

[dataset]
total = 160

[mlp]
epochs = 25
batch_size = 16
grid = {grid_path}

[logit]
lambda = auto
"""

SMALL_GRID = {"structures": [[8, 16, 8]], "solvers": ["adam"], "learning_rates": [0.05]}


@pytest.fixture(scope="module")
def inputs_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("inputs")
    code = main(
        [
            "generate-synthetic",
            "--n-banks", "40",
            "--default-rate", "0.2",
            "--seed", "4",
            "--out", str(out),
        ]
    )
    assert code == 0
    return out


class TestStageCommands:
    def test_generate_synthetic_writes_files(self, inputs_dir):
        names = {p.name for p in inputs_dir.iterdir()}
        assert "panel_2009Q1.csv" in names
        assert "failed_banks.csv" in names
        assert "ground_truth.json" in names

    def test_reconstruct_prints_report(self, inputs_dir, tmp_path, capsys):
        code = main(
            [
                "reconstruct",
                "--panel", str(inputs_dir / "panel_2009Q1.csv"),
                "--quarter", "2009Q1",
                "--dump-matrix", str(tmp_path / "w.bin"),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "converged=True" in out
        assert (tmp_path / "w.bin").exists()

    def test_simulate_writes_proxies(self, inputs_dir, tmp_path):
        code = main(
            [
                "simulate",
                "--panel", str(inputs_dir / "panel_2009Q1.csv"),
                "--quarter", "2009Q1",
                "--shock-fraction", "0.2",
                "--out", str(tmp_path / "proxies_2009Q1.csv"),
            ]
        )
        assert code == 0
        text = (tmp_path / "proxies_2009Q1.csv").read_text()
        assert text.startswith("bank_id,proxy_pct,")
        assert len(text.strip().splitlines()) == 41

    def test_reconstruct_non_convergence_exits_four(self, inputs_dir, tmp_path):
        code = main(
            [
                "reconstruct",
                "--panel", str(inputs_dir / "panel_2009Q1.csv"),
                "--quarter", "2009Q1",
                "--tolerance", "1e-15",
                "--max-iter", "1",
            ]
        )
        assert code == 4

    def test_missing_panel_is_io_error(self, tmp_path):
        code = main(
            [
                "simulate",
                "--panel", str(tmp_path / "missing.csv"),
                "--quarter", "2009Q1",
                "--out", str(tmp_path / "out.csv"),
            ]
        )
        assert code == 5

    def test_bad_quarter_tag_is_data_error(self, inputs_dir, tmp_path):
        code = main(
            [
                "simulate",
                "--panel", str(inputs_dir / "panel_2009Q1.csv"),
                "--quarter", "Q1-2009",
                "--out", str(tmp_path / "out.csv"),
            ]
        )
        assert code == 3

    @pytest.mark.parametrize("command", ["reconstruct", "simulate"])
    def test_panel_without_live_bank_is_data_error(self, command, tmp_path, capsys):
        panel_path = tmp_path / "panel_2009Q1.csv"
        records = (make_record("Y", ta=100, tl=100), make_record("Z", ta=100, tl=150))
        write_panel_csv(QuarterlyPanel("2009Q1", records), panel_path)
        argv = [command, "--panel", str(panel_path), "--quarter", "2009Q1"]
        if command == "simulate":
            argv += ["--out", str(tmp_path / "out.csv")]
        assert main(argv) == 3
        assert "no banks with positive equity" in capsys.readouterr().err

    @pytest.mark.parametrize("panel", ["generated", "one-live-bank"])
    def test_reconstruct_and_simulate_dump_the_same_matrix(self, panel, inputs_dir, tmp_path):
        panel_path = inputs_dir / "panel_2009Q1.csv"
        if panel == "one-live-bank":
            panel_path = tmp_path / "panel_2009Q1.csv"
            records = (make_record("A"), make_record("Z", ta=100, tl=150))
            write_panel_csv(QuarterlyPanel("2009Q1", records), panel_path)
        source = ["--panel", str(panel_path), "--quarter", "2009Q1"]
        assert main(["reconstruct", *source, "--dump-matrix", str(tmp_path / "r.bin")]) == 0
        argv = ["simulate", *source, "--dump-matrix", str(tmp_path / "s.bin")]
        assert main(argv + ["--out", str(tmp_path / "proxies.csv")]) == 0
        for suffix in ("", ".ids.csv"):
            dumped = (tmp_path / f"r.bin{suffix}").read_bytes()
            assert dumped == (tmp_path / f"s.bin{suffix}").read_bytes(), suffix

    def test_usage_error_exits_two(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["simulate", "--panel"])  # missing value and required args
        assert excinfo.value.code == 2

    def test_unknown_command_exits_two(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["frobnicate"])
        assert excinfo.value.code == 2


@pytest.fixture(scope="module")
def full_run(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("cli_run")
    grid_path = tmp / "grid.json"
    grid_path.write_text(json.dumps(SMALL_GRID))
    config_path = tmp / "config.ini"
    config_path.write_text(CONFIG_INI.format(grid_path=grid_path))
    out = tmp / "out"
    code = main(["run", "--config", str(config_path), "--out", str(out)])
    assert code == 0
    return out


class TestRunCommand:
    def test_artifacts_and_manifest(self, full_run):
        manifest = json.loads((full_run / "run_manifest.json").read_text())
        assert manifest["config"]["n_banks"] == 200
        assert manifest["config"]["grid"] == SMALL_GRID  # resolved, not a path
        assert (full_run / "summary.json").exists()

    def test_rerun_from_manifest_matches(self, full_run, tmp_path):
        out2 = tmp_path / "rerun"
        code = main(
            [
                "run",
                "--from-manifest", str(full_run / "run_manifest.json"),
                "--out", str(out2),
            ]
        )
        assert code == 0
        m1 = json.loads((full_run / "run_manifest.json").read_text())
        m2 = json.loads((out2 / "run_manifest.json").read_text())
        assert m1["artifacts"] == m2["artifacts"]
        for rel in m1["artifacts"]:
            assert (full_run / rel).read_bytes() == (out2 / rel).read_bytes(), rel

    def test_run_requires_exactly_one_source(self, tmp_path):
        assert main(["run", "--out", str(tmp_path / "x")]) == 2

    @pytest.mark.parametrize(
        "text, named",
        [
            (
                "[simulate]\nshock_fracton = 0.5\n\n[mlp]\nepoch = 5\n",
                ["[simulate] shock_fracton", "[mlp] epoch"],
            ),
            ("[simulatoin]\nbeta = 0.5\n", ["[simulatoin]"]),
            ("[mlp]\nepochs = 5\n\n[mlp]\nbatch_size = 8\n", ["'mlp' already exists"]),
        ],
        ids=["misspelt-keys", "unknown-section", "duplicate-section"],
    )
    def test_run_rejects_unknown_or_malformed_config(self, tmp_path, capsys, text, named):
        config_path = tmp_path / "typo.ini"
        config_path.write_text(text)
        assert main(["run", "--config", str(config_path), "--out", str(tmp_path / "out")]) == 3
        err = capsys.readouterr().err
        assert all(n in err for n in named), err
        assert not (tmp_path / "out").exists()

    def test_rerun_rejects_unknown_manifest_config_key(self, tmp_path, capsys):
        manifest = tmp_path / "run_manifest.json"
        config = {**RunConfig().to_dict(), "shock_fracton": 0.5}
        manifest.write_text(json.dumps({"config": config}))
        assert main(["run", "--from-manifest", str(manifest), "--out", str(tmp_path / "out")]) == 3
        assert "shock_fracton" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag, value, field", [("--batch-size", "0", "batch_size"), ("--epochs", "-1", "epochs")]
    )
    def test_train_mlp_rejects_invalid_schedule(self, full_run, tmp_path, capsys, flag, value, field):
        out = tmp_path / "model.json"
        argv = ["train-mlp", "--data", str(full_run / "dataset"), "--out", str(out), flag, value]
        assert main(argv) == 3
        assert field in capsys.readouterr().err
        assert not out.exists()

    def test_chained_stages_match_run_artifacts(self, full_run, tmp_path):
        # build-dataset through report, driven stage by stage on the files
        # the full run produced: stage isolation means identical artifacts.
        inputs = full_run / "inputs"
        quarters = [str(inputs / f"panel_2009Q{k}.csv") for k in range(1, 5)]
        ds = tmp_path / "dataset"
        code = main(
            [
                "build-dataset",
                "--q1", quarters[0], "--q2", quarters[1],
                "--q3", quarters[2], "--q4", quarters[3],
                "--proxies", str(full_run / "proxies"),
                "--labels", str(inputs / "failed_banks.csv"),
                "--total", "160",
                "--seed", "18",
                "--out", str(ds),
            ]
        )
        assert code == 0
        assert (ds / "panel.csv").read_bytes() == (
            full_run / "dataset" / "panel.csv"
        ).read_bytes()
