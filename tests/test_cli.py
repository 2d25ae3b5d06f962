import argparse
import json
import re
import shlex
import shutil
import string
import sys
from pathlib import Path

import pytest

from banknet import cli, pipeline
from banknet.balance_sheets import QuarterlyPanel, write_panel_csv
from banknet.cli import main
from banknet.dataset import COLUMN_NAMES
from banknet.pipeline import RunConfig
from banknet.reconstruction import read_matrix

from .test_balance_sheets import make_record
from .test_pipeline import NON_DEFAULT_INI

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
# Grid files that hold JSON but no object; null used to select the default grid.
NOT_A_GRID = {
    "list.json": "[1, 2]", "string.json": '"abc"', "number.json": "5", "null.json": "null"
}


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
        assert json.loads(capsys.readouterr().out)["ras_converged"] is True
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

    @pytest.mark.parametrize(
        "flag, flag_name", [("--max-iter", "ras_converged"), ("--max-periods", "converged")]
    )
    def test_simulate_non_convergence_exits_four_after_writing(
        self, inputs_dir, tmp_path, capsys, flag, flag_name
    ):
        out = tmp_path / "proxies_2009Q1.csv"
        code = main(
            [
                "simulate",
                "--panel", str(inputs_dir / "panel_2009Q1.csv"),
                "--quarter", "2009Q1",
                flag, "1",
                "--out", str(out),
            ]
        )
        assert code == 4
        assert json.loads(capsys.readouterr().out)[flag_name] is False
        assert len(out.read_text().splitlines()) == 41

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
        back = read_matrix(tmp_path / "r.bin")
        assert (tmp_path / "r.bin").stat().st_size == 16 + 16 * back.n
        assert back.factors is not None
        if panel == "one-live-bank":
            assert back.bank_ids == ("A",)
            assert back.factors[0].tolist() == back.factors[1].tolist() == [0.0]

    @pytest.mark.parametrize(
        "flag, value", [("--alpha", "nan"), ("--beta", "nan"), ("--beta", "inf"), ("--tolerance", "nan")]
    )
    def test_nan_or_infinite_network_parameter_exits_three(
        self, flag, value, inputs_dir, tmp_path, capsys
    ):
        out = tmp_path / "proxies.csv"
        source = ["--panel", str(inputs_dir / "panel_2009Q1.csv"), "--quarter", "2009Q1"]
        assert main(["simulate", *source, flag, value, "--out", str(out)]) == 3
        section = "reconstruct" if flag == "--tolerance" else "simulate"
        assert f"error: [{section}] {flag[2:]} must be" in capsys.readouterr().err
        assert not out.exists()

    def test_nan_tolerance_exits_three_on_a_lone_live_bank(self, tmp_path, capsys):
        # A lone live bank settles without RAS; its tolerance is checked all the same.
        panel_path = tmp_path / "panel_2009Q1.csv"
        records = (make_record("A"), make_record("Z", ta=100, tl=150))
        write_panel_csv(QuarterlyPanel("2009Q1", records), panel_path)
        out = tmp_path / "proxies.csv"
        argv = ["simulate", "--panel", str(panel_path), "--quarter", "2009Q1", "--tolerance", "nan"]
        assert main([*argv, "--out", str(out)]) == 3
        assert "error: [reconstruct] tolerance must be" in capsys.readouterr().err
        assert not out.exists()

    def test_a_panel_with_a_byte_order_mark_reads_as_without(self, inputs_dir, tmp_path):
        plain = inputs_dir / "panel_2009Q1.csv"
        marked = tmp_path / "panel_2009Q1.csv"
        marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        for panel, out in ((plain, "plain.csv"), (marked, "marked.csv")):
            argv = ["simulate", "--panel", str(panel), "--quarter", "2009Q1"]
            assert main([*argv, "--out", str(tmp_path / out)]) == 0
        assert (tmp_path / "marked.csv").read_bytes() == (tmp_path / "plain.csv").read_bytes()

    def test_usage_error_exits_two(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["simulate", "--panel"])  # missing value and required args
        assert excinfo.value.code == 2

    def test_unknown_command_exits_two(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["frobnicate"])
        assert excinfo.value.code == 2


def put(*keys, value):
    """A fault for a JSON payload: the entry at ``keys`` becomes ``value``."""

    def fault(payload):
        for key in keys[:-1]:
            payload = payload[key]
        payload[keys[-1]] = value

    return fault


def drop(*keys):
    """A fault for a JSON payload: the entry at ``keys`` is deleted."""

    def fault(payload):
        for key in keys[:-1]:
            payload = payload[key]
        del payload[keys[-1]]

    return fault


# By test id: a fault in a dataset's dataset.json, and what the error says.
SIDECAR_FAULTS = {
    # A row past the end used to raise IndexError (exit 1) and -1 read the
    # last row; 1.5 and true read row 1; a train row listed under test leaked.
    "row-past-end": (put("splits", "test", 0, value=999), "splits must hold each row"),
    "row-minus-one": (put("splits", "test", 0, value=-1), "splits must hold each row"),
    "fractional-row": (put("splits", "test", 0, value=1.5), "splits.test must be a non-empty"),
    "bool-row": (put("splits", "test", 0, value=True), "splits.test must be a non-empty"),
    "train-row-in-test": (
        lambda s: s["splits"]["test"].append(s["splits"]["train"][0]), "splits must hold each row"
    ),
    # An empty test list wrote "oos_accuracy": NaN; an empty validation list
    # raised AttributeError (exit 1).
    "empty-test": (put("splits", "test", value=[]), "splits.test must be a non-empty"),
    "empty-validation": (put("splits", "validation", value=[]), "splits.validation must be"),
    "no-splits": (put("splits", value=None), "splits.train must be a non-empty"),
    # A null IQR exited 3 blaming lambda, a short median on a numpy broadcast;
    # a negative IQR flipped its column's sign.
    "null-iqr": (put("scaler", "iqr", value=None), "scaler.iqr must be one finite number"),
    "short-median": (put("scaler", "median", value=[0.0] * 23), "scaler.median must be one"),
    "nan-median": (put("scaler", "median", 0, value=float("nan")), "scaler.median must be"),
    "negative-iqr": (put("scaler", "iqr", 0, value=-1.0), "scaler.iqr must be"),
}

# By test id: a fault in a model.json, and what the error says. Each used to
# raise TypeError (exit 1), blame the data or go unnoticed.
MODEL_FAULTS = {
    "unknown-config-key": (put("config", "momentum", value=0.9), "config must be an object"),
    "config-not-object": (put("config", value=[1]), "config must be an object"),
    "unknown-solver": (put("config", "solver", value="lbfgs"), "config: unknown solver"),
    "null-weights": (put("weights", value=None), "weights, biases and tuning_record must be"),
    "null-tuning-record": (put("tuning_record", value=None), "and tuning_record must be lists"),
    "short-first-matrix": (lambda m: m["weights"][0].pop(), "chain layer sizes (24, 8, 16, 8, 1)"),
    "hidden-widths-differ": (put("config", "hidden_layers", value=[4, 4, 4]), "do not chain"),
    "missing-bias": (lambda m: m["biases"].pop(), "do not chain"),
}

NAN = float("nan")

# By test id: a fault in a sensitivity.csv's data rows (one "name,gradient"
# line each), and what the error says. Each used to exit 0 with a summary
# that had lost, gained, reordered or overwritten gradients, or held NaN.
SENSITIVITY_FAULTS = {
    "missing-q4-row": (lambda rows: rows[:-1], "column_name must list the 24"),
    "extra-row": (lambda rows: rows + ["bogus,0.5"], "column_name must list the 24"),
    "repeated-name": (
        lambda rows: [rows[0], rows[0].split(",")[0] + ",0.5", *rows[2:]],
        "column_name must list the 24",
    ),
    "swapped-rows": (lambda rows: [rows[1], rows[0], *rows[2:]], "column_name must list the 24"),
    "no-rows": (lambda rows: [], "column_name must list the 24"),
    "nan-gradient": (
        lambda rows: [rows[0].split(",")[0] + ",nan", *rows[1:]], "gradient must be finite"
    ),
}


def first_active(fit):
    """fit.json's first column the lasso kept."""
    return next(c for c in fit["columns"] if c["coefficient"] != "lasso_reduced")


# By test id: a fault in a fit.json, and what the error says; a fault changes
# the payload in place or returns the one to write instead. Each used to exit
# 0 with the fault copied into summary.json, or exit 1 or 3 (a bare KeyError)
# after correlations.csv was written.
FIT_FAULTS = {
    "not-an-object": (lambda f: [f], "columns must be one object per dataset column (24)"),
    "no-columns": (drop("columns"), "columns must be one object per dataset column"),
    "empty-columns": (put("columns", value=[]), "columns must be one object per dataset column"),
    "column-renamed": (put("columns", 0, "name", value="bogus"), "columns must be one object"),
    "column-missing": (drop("columns", 23), "columns must be one object"),
    "coefficient-string": (
        lambda f: first_active(f).update(coefficient="big"), 'or a coefficient of "lasso_reduced"'
    ),
    "nan-coefficient": (lambda f: first_active(f).update(coefficient=NAN), "columns must be one"),
    "no-lasso-coefficient": (
        lambda f: first_active(f).__delitem__("lasso_coefficient"), "each with a finite coefficient"
    ),
    "accuracy-not-a-number": (put("oos_accuracy", value="high"), "oos_accuracy must be a finite"),
    "accuracy-above-one": (put("oos_accuracy", value=1.5), "oos_accuracy must be a finite number"),
    "no-accuracy": (drop("oos_accuracy"), "oos_accuracy must be a finite number in [0, 1]"),
    "negative-lambda": (put("lambda", value=-1.0), "lambda must be a finite number, 0 or more"),
    "null-lambda": (put("lambda", value=None), "lambda must be a finite number, 0 or more"),
}


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
            ("[inputs]\nsynthetic = true\nq1 = a.csv\n", ["synthetic = true"]),
            ("[inputs]\nsynthetic = true\nlabels = failed.csv\n", ["synthetic = true"]),
            ("[inputs]\nn_banks = 60\n\n[mlp]\nbatch_size = 0\n", ["[mlp] batch_size"]),
            ("[inputs]\nn_banks = 60\n\n[mlp]\nepochs = -1\n", ["[mlp] epochs"]),
            (
                "[inputs]\nn_banks = 60\ncontagion_signal_strength = nan\n",
                ["contagion_signal_strength"],
            ),
            (
                "[inputs]\nn_banks = 60\ncontagion_signal_strength = inf\n",
                ["contagion_signal_strength"],
            ),
            *(
                (f"[inputs]\nn_banks = 60\n\n[mlp]\ngrid = {name}\n", ["[mlp] grid", name])
                for name in NOT_A_GRID
            ),
        ],
        ids=[
            "misspelt-keys",
            "unknown-section",
            "duplicate-section",
            "synthetic-with-quarters",
            "synthetic-with-labels",
            "zero-batch-size",
            "negative-epochs",
            "nan-signal-strength",
            "infinite-signal-strength",
            *(f"grid-file-{name.removesuffix('.json')}" for name in NOT_A_GRID),
        ],
    )
    def test_run_rejects_unknown_or_malformed_config(
        self, tmp_path, monkeypatch, capsys, text, named
    ):
        monkeypatch.chdir(tmp_path)  # the grid files are named relative to it
        for name, value in NOT_A_GRID.items():
            (tmp_path / name).write_text(value)
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
        "key, value",
        [
            ("quarter_files", 5),
            ("n_banks", "200"),
            ("max_periods", 2.5),
            ("synthetic", "no"),
            ("tolerance", True),
        ],
    )
    def test_rerun_rejects_a_manifest_value_of_the_wrong_type(
        self, full_run, tmp_path, capsys, key, value
    ):
        # Each used to reach the stages: a traceback (exit 1), an out directory
        # written, or a run on a coerced value (synthetic "no" ran as true,
        # tolerance true as 1.0).
        manifest = json.loads((full_run / "run_manifest.json").read_text())
        manifest["config"][key] = value
        path = tmp_path / "run_manifest.json"
        path.write_text(json.dumps(manifest))
        out = tmp_path / "out"
        assert main(["run", "--from-manifest", str(path), "--out", str(out)]) == 3
        assert f"{key} must be" in capsys.readouterr().err
        assert not out.exists()

    def test_rerun_checks_recorded_input_digests(self, tmp_path, capsys):
        # A file-mode run records its inputs' SHA-256; a rerun on an edited
        # or missing input stops before any stage, with exit 3 and no manifest.
        inputs = tmp_path / "inputs"
        argv = ["generate-synthetic", "--n-banks", "60", "--default-rate", "0.3", "--seed", "9"]
        assert main(argv + ["--contagion-signal-strength", "0.6", "--out", str(inputs)]) == 0
        (tmp_path / "grid.json").write_text(json.dumps(SMALL_GRID))
        quarters = "\n".join(f"q{k} = {inputs}/panel_2009Q{k}.csv" for k in range(1, 5))
        (tmp_path / "run.ini").write_text(
            f"[inputs]\n{quarters}\nlabels = {inputs}/failed_banks.csv\n\n[dataset]\ntotal = 40\n\n"
            f"[mlp]\nepochs = 10\nbatch_size = 8\ngrid = {tmp_path}/grid.json\n\n"
            "[logit]\nlambda = 0.5\n"
        )
        run = tmp_path / "run"
        assert main(["run", "--config", str(tmp_path / "run.ini"), "--out", str(run)]) == 0
        rerun = ["run", "--from-manifest", str(run / "run_manifest.json")]

        with open(inputs / "panel_2009Q2.csv", "ab") as fh:
            fh.write(b" ")
        assert main(rerun + ["--out", str(tmp_path / "edited")]) == 3
        assert "panel_2009Q2.csv differs from its recorded SHA-256" in capsys.readouterr().err
        assert not (tmp_path / "edited" / "run_manifest.json").exists()

        (inputs / "panel_2009Q2.csv").unlink()
        assert main(rerun + ["--out", str(tmp_path / "missing")]) == 3
        assert "panel_2009Q2.csv is missing" in capsys.readouterr().err
        assert not (tmp_path / "missing" / "run_manifest.json").exists()

    def test_missing_input_file_exits_three(self, tmp_path, capsys):
        # The same code as a rerun whose recorded input is gone.
        quarters = "\n".join(f"q{k} = {tmp_path}/q{k}.csv" for k in range(1, 5))
        (tmp_path / "run.ini").write_text(f"[inputs]\n{quarters}\nlabels = {tmp_path}/failed.csv\n")
        assert main(["run", "--config", str(tmp_path / "run.ini"), "--out", str(tmp_path / "out")]) == 3
        assert "q1.csv is missing" in capsys.readouterr().err
        assert not (tmp_path / "out" / "run_manifest.json").exists()

    @pytest.mark.parametrize(
        "flag, value, field", [("--batch-size", "0", "batch_size"), ("--epochs", "-1", "epochs")]
    )
    def test_train_mlp_rejects_invalid_schedule(self, full_run, tmp_path, capsys, flag, value, field):
        out = tmp_path / "model.json"
        argv = ["train-mlp", "--data", str(full_run / "dataset"), "--out", str(out), flag, value]
        assert main(argv) == 3
        assert field in capsys.readouterr().err
        assert not out.exists()

    def test_truncated_proxy_row_exits_three(self, full_run, tmp_path, capsys):
        proxies = tmp_path / "proxies"
        shutil.copytree(full_run / "proxies", proxies)
        q2 = proxies / "proxies_2009Q2.csv"
        header, first, *rest = q2.read_text().splitlines()
        q2.write_text("\n".join([header, first.split(",")[0], *rest]) + "\n")
        inputs = full_run / "inputs"
        argv = ["build-dataset", "--proxies", str(proxies), "--out", str(tmp_path / "ds")]
        argv += [f"--q{k}={inputs}/panel_2009Q{k}.csv" for k in range(1, 5)]
        argv += ["--labels", str(inputs / "failed_banks.csv")]
        assert main(argv) == 3
        assert f"{q2}: row 2: non-numeric proxy_pct=''" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "cell, message", [("x", "non-numeric label='x'"), ("2", "label='2' is not 0 or 1")]
    )
    def test_bad_label_cell_exits_three(self, full_run, tmp_path, capsys, cell, message):
        data = tmp_path / "dataset"
        shutil.copytree(full_run / "dataset", data)
        panel = data / "panel.csv"
        header, first, second, *rest = panel.read_text().splitlines()
        second = second.rsplit(",", 1)[0] + "," + cell
        panel.write_text("\n".join([header, first, second, *rest]) + "\n")
        assert main(["logit", "--data", str(data), "--out", str(tmp_path / "fit.json")]) == 3
        assert f"{panel}: row 3: {message}" in capsys.readouterr().err

    def test_bad_gradient_cell_exits_three(self, full_run, tmp_path, capsys):
        sensitivity = tmp_path / "sensitivity.csv"
        header, first, *rest = (full_run / "sensitivity.csv").read_text().splitlines()
        first = first.split(",")[0] + ",n/a"
        sensitivity.write_text("\n".join([header, first, *rest]) + "\n")
        argv = ["report", "--data", str(full_run / "dataset"), "--model", str(full_run / "model.json")]
        argv += ["--sensitivity", str(sensitivity), "--fit", str(full_run / "fit.json")]
        assert main(argv + ["--out", str(tmp_path / "report")]) == 3
        assert f"{sensitivity}: row 2: non-numeric gradient='n/a'" in capsys.readouterr().err
        assert not (tmp_path / "report").exists()

    @pytest.mark.parametrize("fault, message", SIDECAR_FAULTS.values(), ids=SIDECAR_FAULTS)
    def test_bad_dataset_sidecar_exits_three(self, full_run, tmp_path, capsys, fault, message):
        data = tmp_path / "dataset"
        shutil.copytree(full_run / "dataset", data)
        sidecar = json.loads((data / "dataset.json").read_text())
        fault(sidecar)
        (data / "dataset.json").write_text(json.dumps(sidecar))
        out = tmp_path / "fit.json"
        assert main(["logit", "--data", str(data), "--out", str(out)]) == 3
        assert f"{data / 'dataset.json'}: {message}" in capsys.readouterr().err
        assert not out.exists()

    def test_sidecar_column_names_are_ignored(self, full_run, tmp_path):
        # panel.csv names the columns; an older sidecar's list, here with two
        # names swapped, used to reorder them against the scaler (exit 4).
        data = tmp_path / "dataset"
        shutil.copytree(full_run / "dataset", data)
        sidecar = json.loads((data / "dataset.json").read_text())
        names = list(COLUMN_NAMES)
        names[0], names[1] = names[1], names[0]
        (data / "dataset.json").write_text(json.dumps({**sidecar, "column_names": names}))
        out = tmp_path / "fit.json"
        assert main(["logit", "--data", str(data), "--out", str(out)]) == 0
        assert out.read_bytes() == (full_run / "fit.json").read_bytes()

    def _report(self, full_run, tmp_path, **paths) -> int:
        """``banknet report`` on the run's files, ``paths`` replacing some."""
        files = {
            "data": full_run / "dataset", "model": full_run / "model.json",
            "sensitivity": full_run / "sensitivity.csv", "fit": full_run / "fit.json", **paths,
        }
        argv = [f"--{flag}={path}" for flag, path in files.items()]
        return main(["report", *argv, "--out", str(tmp_path / "report")])

    @pytest.mark.parametrize("fault, message", SENSITIVITY_FAULTS.values(), ids=SENSITIVITY_FAULTS)
    def test_bad_sensitivity_rows_exit_three(self, full_run, tmp_path, capsys, fault, message):
        sensitivity = tmp_path / "sensitivity.csv"
        header, *rows = (full_run / "sensitivity.csv").read_text().splitlines()
        sensitivity.write_text("\n".join([header, *fault(rows)]) + "\n")
        assert self._report(full_run, tmp_path, sensitivity=sensitivity) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"error: {sensitivity}: ") and message in err
        assert not (tmp_path / "report").exists()

    @pytest.mark.parametrize("fault, message", FIT_FAULTS.values(), ids=FIT_FAULTS)
    def test_bad_fit_file_exits_three(self, full_run, tmp_path, capsys, fault, message):
        fit = tmp_path / "fit.json"
        payload = json.loads((full_run / "fit.json").read_text())
        fit.write_text(json.dumps(fault(payload) or payload))
        assert self._report(full_run, tmp_path, fit=fit) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"error: {fit}: ") and message in err
        assert not (tmp_path / "report").exists()

    @pytest.mark.parametrize(
        "fault",
        [drop("oos_accuracy"), *(put("oos_accuracy", value=v) for v in (None, "high", 1.5, NAN))],
        ids=["missing", "null", "string", "above-one", "nan"],
    )
    def test_bad_model_accuracy_exits_three(self, full_run, tmp_path, capsys, fault):
        # model.json's accuracy was read with .get: a missing one became null.
        model = tmp_path / "model.json"
        payload = json.loads((full_run / "model.json").read_text())
        fault(payload)
        model.write_text(json.dumps(payload))
        assert self._report(full_run, tmp_path, model=model) == 3
        message = "oos_accuracy must be a finite number in [0, 1]"
        err = capsys.readouterr().err
        assert err.startswith(f"error: {model}: ") and message in err
        assert not (tmp_path / "report").exists()

    @pytest.mark.parametrize("command", ["sensitivity", "report"])
    @pytest.mark.parametrize("fault, message", MODEL_FAULTS.values(), ids=MODEL_FAULTS)
    def test_bad_model_file_exits_three(
        self, full_run, tmp_path, capsys, fault, message, command
    ):
        # report read model.json's config unchecked: a list raised TypeError
        # (exit 1) after correlations.csv was written
        model = tmp_path / "model.json"
        payload = json.loads((full_run / "model.json").read_text())
        fault(payload)
        model.write_text(json.dumps(payload))
        out = tmp_path / "out"
        argv = [command, "--model", str(model), "--data", str(full_run / "dataset")]
        if command == "report":
            argv += ["--sensitivity", str(full_run / "sensitivity.csv")]
            argv += ["--fit", str(full_run / "fit.json")]
        assert main([*argv, "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"error: {model}: ") and message in err
        assert not out.exists()

    def test_chained_stages_match_run_artifacts(self, full_run, tmp_path):
        # build-dataset and train-mlp, driven stage by stage on the files the
        # full run produced with the run's own --seed: stage isolation means
        # identical artifacts.
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
                "--seed", "17",
                "--out", str(ds),
            ]
        )
        assert code == 0
        for name in ("panel.csv", "dataset.json"):
            assert (ds / name).read_bytes() == (full_run / "dataset" / name).read_bytes(), name
        model = tmp_path / "model.json"
        argv = ["train-mlp", "--data", str(ds), "--grid", str(full_run.parent / "grid.json")]
        argv += ["--epochs", "25", "--batch-size", "16", "--seed", "17", "--out", str(model)]
        assert main(argv) == 0
        assert model.read_bytes() == (full_run / "model.json").read_bytes()


def test_run_stops_with_exit_four_on_an_unconverged_quarter(tmp_path, capsys):
    config_path = tmp_path / "config.ini"
    config_path.write_text(
        "[inputs]\nn_banks = 200\n\n[reconstruct]\ntolerance = 1e-15\nmax_iter = 1\n"
    )
    out = tmp_path / "out"
    assert main(["run", "--config", str(config_path), "--out", str(out)]) == 4
    assert "quarter 2009Q1: RAS did not converge" in capsys.readouterr().err
    assert (out / "proxies" / "proxies_2009Q1.csv").exists()
    assert not (out / "run_manifest.json").exists()


class _Captured(BaseException):
    """Stops a command at the generator, past its ``except Exception`` blocks."""


def test_run_and_generate_synthetic_build_the_same_spec(tmp_path, monkeypatch):
    # A run's generator keys, [run] seed and [simulate] shock_fraction are
    # generate-synthetic's flags, so both hand the generator one spec.
    specs = []

    def capture(spec):
        specs.append(spec)
        raise _Captured

    monkeypatch.setattr(pipeline, "generate", capture)
    monkeypatch.setattr(cli, "generate", capture)
    (tmp_path / "run.ini").write_text(
        "[run]\nseed = 23\n\n[inputs]\nn_banks = 50\ndefault_rate = 0.3\n"
        "contagion_signal_strength = 0.6\nstart_quarter = 2010Q3\n\n"
        "[simulate]\nshock_fraction = 0.3\n"
    )
    with pytest.raises(_Captured):
        main(["run", "--config", str(tmp_path / "run.ini"), "--out", str(tmp_path / "run")])
    flags = "--seed 23 --n-banks 50 --default-rate 0.3 --contagion-signal-strength 0.6 "
    flags += "--start-quarter 2010Q3 --shock-fraction 0.3"
    with pytest.raises(_Captured):
        main(["generate-synthetic", *flags.split(), "--out", str(tmp_path / "gen")])
    run_spec, cli_spec = specs
    assert run_spec == cli_spec
    assert (run_spec.rng_seed, run_spec.shock_fraction) == (23, 0.3)


# The smallest run that completes, and its INI spelling.
TINY_RUN = RunConfig(
    n_banks=60, default_rate=0.3, total=40, epochs=5, batch_size=8, grid=SMALL_GRID, lam=0.5
)
TINY_INI = """\
[inputs]
n_banks = 60
default_rate = 0.3

[dataset]
total = 40

[mlp]
epochs = 5
batch_size = 8
grid = {grid_path}

[logit]
lambda = 0.5
"""


def test_manifest_records_the_invoking_command(tmp_path, monkeypatch):
    manifest = pipeline.run_pipeline(TINY_RUN, tmp_path / "api", command=["banknet", "run"])
    assert manifest["command"] == ["banknet", "run"]
    recorded = tmp_path / "api" / "run_manifest.json"
    assert json.loads(recorded.read_text())["command"] == ["banknet", "run"]
    rerun = pipeline.rerun_from_manifest(recorded, tmp_path / "rerun")
    assert rerun["command"] == ["rerun", str(recorded)]

    (tmp_path / "grid.json").write_text(json.dumps(SMALL_GRID))
    (tmp_path / "run.ini").write_text(TINY_INI.format(grid_path=tmp_path / "grid.json"))
    argv = ["banknet", "run", "--config", str(tmp_path / "run.ini"), "--out", str(tmp_path / "cli")]
    monkeypatch.setattr(sys, "argv", argv)
    assert main(argv[1:]) == 0
    assert json.loads((tmp_path / "cli" / "run_manifest.json").read_text())["command"] == argv


def test_every_stage_call_goes_through_the_pipeline_module(tmp_path, monkeypatch):
    # perfbench's tracer wraps a stage where banknet holds it, on the
    # pipeline module: a run and each stage subcommand must call it there.
    names = [name for name in vars(pipeline) if name.startswith("stage_")]
    calls = dict.fromkeys(names, 0)

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name in names:
        monkeypatch.setattr(pipeline, name, counting(name, getattr(pipeline, name)))
    # ... and reach it through call_stage, in run order.
    commands = []
    call_stage = pipeline.call_stage

    def recording(command, *args, **kwargs):
        commands.append(command)
        return call_stage(command, *args, **kwargs)

    monkeypatch.setattr(pipeline, "call_stage", recording)
    pipeline.run_pipeline(TINY_RUN, tmp_path / "run")
    assert calls == {**dict.fromkeys(names, 1), "stage_reconstruct": 0, "stage_simulate": 4}
    tail = ["build-dataset", "train-mlp", "sensitivity", "logit", "report"]
    assert commands == ["simulate"] * 4 + tail

    reached = []
    for name in names:
        monkeypatch.setattr(pipeline, name, lambda *a, _name=name, **k: reached.append(_name) or {})
    for command, stage in pipeline.STAGES.items():
        paths = [arg for path in stage.paths for arg in (f"--{path}", "panel_2009Q1.csv")]
        assert main([command, *paths]) == 0, command
    assert reached == ["stage_" + command.replace("-", "_") for command in pipeline.STAGES]


# Every subcommand's option flags, pinned by hand: renaming or dropping a
# RunConfig field must not silently rename or drop a flag.
FLAGS = {
    "generate-synthetic": "--n-banks --quarters --default-rate --contagion-signal-strength "
    "--start-quarter --seed --shock-fraction --out",
    "reconstruct": "--panel --quarter --tolerance --max-iter --dump-matrix --rejects",
    "simulate": "--panel --quarter --shock-fraction --beta --alpha --max-periods "
    "--tolerance --max-iter --dump-matrix --trajectory --rejects --out",
    "build-dataset": "--q1 --q2 --q3 --q4 --proxies --labels --total --seed "
    "--rebalance-after-split --out",
    "train-mlp": "--data --grid --epochs --batch-size --seed --out",
    "sensitivity": "--model --data --out",
    "logit": "--data --lambda --out",
    "report": "--data --model --sensitivity --fit --out",
    "run": "--config --from-manifest --out",
}

# The required arguments of each stage subcommand; quarter files are named
# by tag, so build-dataset never opens them before its stage runs.
REQUIRED = {
    "generate-synthetic": ["--out", "gen"],
    "reconstruct": ["--panel", "p.csv", "--quarter", "2009Q1"],
    "simulate": ["--panel", "p.csv", "--quarter", "2009Q1", "--out", "o.csv"],
    "build-dataset": [
        *(a for k in range(1, 5) for a in (f"--q{k}", f"panel_2009Q{k}.csv")),
        "--proxies", "proxies", "--labels", "failed.csv", "--out", "ds",
    ],
    "train-mlp": ["--data", "ds", "--out", "model.json"],
    "logit": ["--data", "ds", "--out", "fit.json"],
}

# The subcommand that takes each stage section's flags, and the stage it calls.
STAGE_OF_SECTION = {
    "reconstruct": ("simulate", "stage_simulate"),
    "simulate": ("simulate", "stage_simulate"),
    "dataset": ("build-dataset", "stage_build_dataset"),
    "mlp": ("train-mlp", "stage_train_mlp"),
    "logit": ("logit", "stage_logit"),
}


def test_subcommand_flags_and_defaults_are_unchanged():
    parser = cli._build_parser()
    (subparsers,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    for command, flags in FLAGS.items():
        actions = subparsers.choices[command]._actions
        got = {s for a in actions for s in a.option_strings} - {"-h", "--help"}
        assert got == set(flags.split()), command
    defaults = RunConfig()
    for command, required in REQUIRED.items():
        args = vars(parser.parse_args([command, *required]))
        for name in set(args) & set(defaults.to_dict()):
            assert args[name] == getattr(defaults, name), (command, name)


STAGE_FIELDS = [name for name, entry in NON_DEFAULT_INI.items() if entry[0] in STAGE_OF_SECTION]


@pytest.mark.parametrize("name", STAGE_FIELDS)
def test_stage_flag_parses_like_its_ini_key(name, tmp_path, monkeypatch):
    section, line, _ = NON_DEFAULT_INI[name]
    grid_path = tmp_path / "grid.json"
    grid_path.write_text(json.dumps(SMALL_GRID))
    line = line.format(grid_path=grid_path)
    ini = tmp_path / "one.ini"
    ini.write_text(f"[{section}]\n{line}\n")
    expected = getattr(RunConfig.from_ini(ini), name)
    assert expected != getattr(RunConfig(), name)

    command, stage = STAGE_OF_SECTION[section]
    handed = []

    def fake_stage(*args, config, **kwargs):
        handed.append(config)
        return {"ras_converged": True, "converged": True}

    monkeypatch.setattr(pipeline, stage, fake_stage)
    key, _, raw = (part.strip() for part in line.partition("="))
    value = [] if isinstance(expected, bool) else [raw]
    assert main([command, "--" + key.replace("_", "-"), *value, *REQUIRED[command]]) == 0
    assert getattr(handed[0], name) == expected


def test_grid_file_missing_a_key_exits_three(tmp_path, capsys):
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"structures": [[8, 16, 8]], "solvers": ["adam"]}))
    assert main(["train-mlp", "--grid", str(grid), *REQUIRED["train-mlp"]]) == 3
    assert "learning_rates" in capsys.readouterr().err


@pytest.mark.parametrize("route", ["train-mlp --grid", "run --config", "run --from-manifest"])
def test_grid_with_a_fourth_key_exits_three(tmp_path, capsys, route):
    # mlp.tune takes the grid as written, so a key it has no argument for, a
    # value that is not a list, or a point mlp.MlpConfig refuses is refused
    # with the config, on every way in, before any stage writes a file.
    out = tmp_path / "out"
    for grid, message in [
        ({**SMALL_GRID, "momentum": [0.9]}, "unknown 'momentum'"),
        ({**SMALL_GRID, "learning_rates": 0.05}, "'learning_rates' is not a non-empty list"),
        ({**SMALL_GRID, "solvers": []}, "'solvers' is not a non-empty list"),
        ({**SMALL_GRID, "structures": [[8, 16]]}, "exactly 3 positive hidden layers"),
        ({**SMALL_GRID, "learning_rates": ["fast"]}, "not supported between"),
        # a bool or infinite rate and a fractional width used to train (as
        # rate 1, to a DivergenceError, as width 8)
        ({**SMALL_GRID, "learning_rates": [True]}, "learning_rate must be a finite number"),
        ({**SMALL_GRID, "learning_rates": [float("inf")]}, "finite number, got inf"),
        ({**SMALL_GRID, "structures": [[8, 16, 8.5]]}, "widths must be integers, got [8, 16, 8.5]"),
    ]:
        path = tmp_path / "grid.json"
        path.write_text(json.dumps(grid))
        if route == "train-mlp --grid":
            argv = ["train-mlp", "--grid", str(path), "--data", "ds", "--out", str(out)]
        elif route == "run --config":
            (tmp_path / "run.ini").write_text(f"[mlp]\ngrid = {path}\n")
            argv = ["run", "--config", str(tmp_path / "run.ini"), "--out", str(out)]
        else:
            manifest = tmp_path / "run_manifest.json"
            manifest.write_text(json.dumps({"config": {**RunConfig().to_dict(), "grid": grid}}))
            argv = ["run", "--from-manifest", str(manifest), "--out", str(out)]
        assert main(argv) == 3, grid
        assert message in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize(
    "route", ["generate-synthetic", "train-mlp", "run --config", "run --from-manifest"]
)
def test_negative_seed_exits_three_naming_the_field(tmp_path, capsys, route):
    # The stages draw from seed + 1 and seed + 2; a negative seed used to
    # reach numpy and fail there with a message that named no setting.
    out = tmp_path / "out"
    if route == "run --config":
        (tmp_path / "run.ini").write_text("[run]\nseed = -5\n")
        argv = ["run", "--config", str(tmp_path / "run.ini"), "--out", str(out)]
    elif route == "run --from-manifest":
        manifest = tmp_path / "run_manifest.json"
        manifest.write_text(json.dumps({"config": {**RunConfig().to_dict(), "seed": -5}}))
        argv = ["run", "--from-manifest", str(manifest), "--out", str(out)]
    else:
        data = ["--data", "ds"] if route == "train-mlp" else []
        argv = [route, *data, "--seed", "-5", "--out", str(out)]
    assert main(argv) == 3
    assert "[run] seed must be a nonnegative integer, got -5" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "section, key, value",
    [
        ("reconstruct", "tolerance", "nan"),
        ("reconstruct", "max_iter", "0"),
        ("simulate", "max_periods", "0"),
        ("simulate", "beta", "-1"),
        ("simulate", "alpha", "0"),
        ("simulate", "shock_fraction", "nan"),
        ("simulate", "shock_fraction", "1.5"),
        ("dataset", "total", "0"),
        ("dataset", "total", "3"),
        ("logit", "lambda", "-1"),
        ("logit", "lambda", "nan"),
    ],
)
def test_bad_run_ini_value_exits_three_before_any_file(tmp_path, capsys, section, key, value):
    # Each value passes its stage's own check when the config is read. These
    # used to stop the run (exit 3, or 4 as "did not converge") only after
    # it had written 6 to 14 files, or, for shock_fraction, to name ten bank
    # ids and not the key.
    config = tmp_path / "run.ini"
    config.write_text(f"[inputs]\nn_banks = 60\n\n[{section}]\n{key} = {value}\n")
    out = tmp_path / "out"
    assert main(["run", "--config", str(config), "--out", str(out)]) == 3
    assert f"error: [{section}] {key} must " in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "command, flag, value, section",
    [
        ("generate-synthetic", "--shock-fraction", "nan", "simulate"),
        ("reconstruct", "--max-iter", "0", "reconstruct"),
        ("simulate", "--max-periods", "0", "simulate"),
        ("build-dataset", "--total", "3", "dataset"),
        ("logit", "--lambda", "-1", "logit"),
    ],
)
def test_stage_subcommand_checks_its_values_first(
    tmp_path, capsys, monkeypatch, command, flag, value, section
):
    monkeypatch.chdir(tmp_path)
    assert main([command, flag, value, *REQUIRED[command]]) == 3
    assert f"error: [{section}] {flag[2:].replace('-', '_')} must " in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize(
    "command, flag, value",
    [
        ("train-mlp", "--epochs", "ten"),
        ("logit", "--lambda", "small"),
        ("simulate", "--beta", "1,0"),
    ],
)
def test_malformed_number_exits_two(command, flag, value):
    with pytest.raises(SystemExit) as excinfo:
        main([command, flag, value, *REQUIRED[command]])
    assert excinfo.value.code == 2


def readme_walkthrough() -> list[list[str]]:
    """The README's CLI walkthrough, one argument list per ``banknet`` call
    (the leading ``banknet`` dropped), with its ``for`` loop unrolled."""
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = re.search(r"## CLI\n.*?```bash\n(.*?)```", readme, re.S).group(1)
    lines = [line.strip() for line in block.replace("\\\n", " ").splitlines()]
    lines = [line for line in lines if line and not line.startswith("#")]
    commands, loop = [], None
    for line in lines:
        if m := re.fullmatch(r"for (\w+) in (.*); do", line):
            loop = (m.group(1), m.group(2).split(), [])
        elif line == "done":
            var, values, body = loop
            commands += [string.Template(b).substitute({var: v}) for v in values for b in body]
            loop = None
        else:
            (loop[2] if loop else commands).append(line)
    return [shlex.split(command)[1:] for command in commands]


def test_readme_walkthrough_runs_as_written(tmp_path, monkeypatch):
    # A fresh directory holds none of the walkthrough's output directories;
    # only the sizes shrink: fewer banks and rows, one grid point, 5 epochs.
    (tmp_path / "grid.json").write_text(json.dumps(SMALL_GRID))
    small = {"--n-banks": "60", "--default-rate": "0.3", "--total": "60", "--grid": "grid.json"}
    monkeypatch.chdir(tmp_path)
    commands = readme_walkthrough()
    assert [c[0] for c in commands] == [
        "generate-synthetic", *["simulate"] * 4, "build-dataset",
        "train-mlp", "sensitivity", "logit", "report",
    ]
    for argv in commands:
        argv = [small.get(prev, word) for prev, word in zip([None, *argv], argv)]
        if argv[0] == "train-mlp":
            argv += ["--epochs", "5", "--batch-size", "8"]
        assert main(argv) == 0, argv
    assert (tmp_path / "reports" / "summary.json").exists()
