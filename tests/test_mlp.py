import concurrent.futures
import multiprocessing
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from banknet import mlp
from banknet.dataset import SplitAssignment, accuracy
from banknet.errors import DimensionError, DivergenceError
from banknet.mlp import (
    MlpConfig,
    MlpModel,
    input_gradients,
    input_sensitivity,
    load_model,
    predict,
    save_model,
    sigmoid_grad,
    _forward,
    _train_stack,
    train,
    tune,
)

from .oracles import (
    finite_difference_gradient,
    path_sum_gradient,
    reference_train,
    reference_tune,
)


def toy_clusters(m=200, seed=0, gap=3.0):
    """Linearly separable 24-dim clusters split on the first coordinate."""
    rng = np.random.default_rng(seed)
    x = rng.normal(0, 0.3, size=(m, 24))
    y = (rng.random(m) < 0.5).astype(int)
    x[:, 0] += np.where(y == 1, gap, -gap)
    return x, y


def random_model(seed, structure=(8, 4, 2), scale=0.5, bias_scale=0.3, inputs=24):
    rng = np.random.default_rng(seed)
    sizes = (inputs,) + tuple(structure) + (1,)
    weights = [rng.normal(0, scale, (sizes[i], sizes[i + 1])) for i in range(4)]
    biases = [rng.normal(0, bias_scale, sizes[i + 1]) for i in range(4)]
    cfg = MlpConfig(hidden_layers=tuple(structure), rng_seed=seed)
    return MlpModel(weights=weights, biases=biases, config=cfg)


class TestTrain:
    def test_separable_clusters_reach_high_accuracy(self):
        x, y = toy_clusters()
        cfg = MlpConfig(
            hidden_layers=(8, 16, 8),
            solver="adam",
            learning_rate=0.01,
            epochs=200,
            rng_seed=1,
        )
        model = train(x, y, cfg)
        assert accuracy(predict(model, x), y) >= 0.99

    def test_zero_learning_rate_leaves_weights_at_init(self):
        x, y = toy_clusters(m=64)
        cfg = MlpConfig(learning_rate=0.0, epochs=3, rng_seed=7)
        model = train(x, y, cfg)
        reference = train(x, y, MlpConfig(learning_rate=0.0, epochs=0, rng_seed=7))
        for got, want in zip(model.weights, reference.weights):
            np.testing.assert_array_equal(got, want)
        for got, want in zip(model.biases, reference.biases):
            np.testing.assert_array_equal(got, want)

    def test_degenerate_labels_learn_the_constant(self):
        x, _ = toy_clusters(m=100, seed=3)
        y = np.ones(100, dtype=int)
        cfg = MlpConfig(solver="adam", learning_rate=0.01, epochs=60, rng_seed=2)
        model = train(x, y, cfg)
        assert accuracy(predict(model, x), y) == 1.0

    def test_divergence_raises_with_epoch_and_rate(self):
        x, y = toy_clusters(m=64, seed=4)
        cfg = MlpConfig(
            solver="sgd", learning_rate=1e308, epochs=5, rng_seed=0, dropout_prob=0.0
        )
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(DivergenceError, match="learning_rate"):
                train(1e6 * x, y, cfg)

    def test_batch_size_precondition(self):
        x, y = toy_clusters(m=16)
        with pytest.raises(ValueError, match="batch_size"):
            train(x, y, MlpConfig(batch_size=32))

    def test_input_layer_takes_the_width_of_x(self):
        x, y = toy_clusters(m=40)
        x = x[:, :20]
        cfg = MlpConfig(hidden_layers=(4, 8, 4), epochs=3, batch_size=8, rng_seed=2)
        model = train(x, y, cfg)
        assert model.layer_sizes[0] == 20
        _assert_same_parameters(model, reference_train(x, y, cfg))
        assert predict(model, x).shape == (40,)
        assert input_gradients(model, x).shape == (40, 20)
        idx = np.arange(40)
        splits = SplitAssignment(idx[:24], idx[24:32], idx[32:])
        grid = dict(structures=((4, 8, 4),), solvers=("sgd",), learning_rates=(0.05,))
        assert tune(x, y, splits, base_config=cfg, **grid).layer_sizes[0] == 20
        with pytest.raises(DimensionError):
            train(x[:, 0], y, cfg)
        with pytest.raises(DimensionError):
            tune(x[:, 0], y, splits, base_config=cfg, **grid)

    def test_same_seed_same_model(self):
        x, y = toy_clusters(m=80, seed=5)
        cfg = MlpConfig(epochs=10, rng_seed=11)
        a, b = train(x, y, cfg), train(x, y, cfg)
        for wa, wb in zip(a.weights, b.weights):
            np.testing.assert_array_equal(wa, wb)

    def test_truncated_normal_init_within_two_stddevs(self):
        x, y = toy_clusters(m=64)
        model = train(x, y, MlpConfig(learning_rate=0.0, epochs=0, rng_seed=13))
        for w in model.weights:
            assert np.abs(w).max() <= 2.0 * 0.2
        for b in model.biases:
            assert not b.any()


class TestConfigValidation:
    @pytest.mark.parametrize("epochs", [-1, -5])
    def test_negative_epochs_rejected(self, epochs):
        with pytest.raises(ValueError, match="epochs"):
            MlpConfig(epochs=epochs)

    @pytest.mark.parametrize("batch_size", [0, -4])
    def test_nonpositive_batch_size_rejected(self, batch_size):
        with pytest.raises(ValueError, match="batch_size"):
            MlpConfig(batch_size=batch_size)

    def test_zero_epochs_and_unit_batch_are_valid(self):
        cfg = MlpConfig(epochs=0, batch_size=1)
        assert (cfg.epochs, cfg.batch_size) == (0, 1)

    @pytest.mark.parametrize("rate", [True, False, float("inf"), float("nan")])
    def test_bool_or_non_finite_learning_rate_rejected(self, rate):
        with pytest.raises(ValueError, match="learning_rate must be a finite number"):
            MlpConfig(learning_rate=rate)

    @pytest.mark.parametrize("layers", [(8, 16, 8.5), (8, 16, 8.0), (8, True, 8), (8, "16", 8)])
    def test_non_integer_width_rejected(self, layers):
        # A width used to go through int(), so 8.5 trained as 8.
        with pytest.raises(ValueError, match="hidden layer widths must be integers"):
            MlpConfig(hidden_layers=layers)

    def test_numpy_integer_widths_are_ints(self):
        cfg = MlpConfig(hidden_layers=np.array([8, 16, 8]))
        assert cfg.hidden_layers == (8, 16, 8)
        assert all(type(h) is int for h in cfg.hidden_layers)


def _assert_same_parameters(got, want):
    assert len(got.weights) == len(want.weights) == 4
    for a, b in zip(got.weights + got.biases, want.weights + want.biases):
        assert a.shape == b.shape
        np.testing.assert_array_equal(a, b)


class TestAgainstReferenceLoop:
    """The stacked trainer against the one-candidate-at-a-time loop of
    ``oracles.reference_train``: every weight and bias bit-identical."""

    @staticmethod
    def _data():
        # 70 rows in minibatches of 16: the last minibatch has 6 rows.
        return toy_clusters(m=70, seed=21, gap=0.5)

    @pytest.mark.parametrize("dropout", [0.0, 0.1])
    @pytest.mark.parametrize("lr", [0.01, 0.1])
    @pytest.mark.parametrize("solver", ["sgd", "adam", "rmsprop"])
    def test_train_alone(self, solver, lr, dropout):
        x, y = self._data()
        cfg = MlpConfig(
            hidden_layers=(4, 8, 16), solver=solver, learning_rate=lr,
            dropout_prob=dropout, epochs=4, batch_size=16, rng_seed=5,
        )
        _assert_same_parameters(train(x, y, cfg), reference_train(x, y, cfg))

    @pytest.mark.parametrize("dropout", [0.0, 0.1])
    def test_every_row_of_a_stack(self, dropout):
        x, y = self._data()
        configs = [
            MlpConfig(
                hidden_layers=(8, 16, 8), solver=solver, learning_rate=lr,
                dropout_prob=dropout, epochs=4, batch_size=16, rng_seed=seed,
            )
            for seed, (solver, lr) in enumerate(
                [("rmsprop", 0.01), ("sgd", 0.1), ("adam", 0.01), ("sgd", 0.01), ("adam", 0.1)]
            )
        ]
        stacked = _train_stack(x, y, configs)
        for cfg, model in zip(configs, stacked):
            assert model.config == cfg
            _assert_same_parameters(model, reference_train(x, y, cfg))
            assert model.weights[0].base is not None  # a view, not a copy

    def _splits(self):
        x, y = toy_clusters(m=120, seed=8, gap=0.8)
        idx = np.arange(120)
        return x, y, SplitAssignment(idx[:60], idx[60:90], idx[90:])

    def _assert_same_tuning(self, kw):
        x, y, splits = self._splits()
        got = tune(x, y, splits, **kw)
        want = reference_tune(x, y, splits, **kw)
        assert got.tuning_record == want.tuning_record
        assert got.config == want.config
        _assert_same_parameters(got, want)

    def test_tune_full_solver_grid(self):
        self._assert_same_tuning(
            dict(
                structures=((8, 16, 8), (16, 8, 4)), solvers=("sgd", "adam", "rmsprop"),
                learning_rates=(0.01, 0.1), base_config=MlpConfig(epochs=4, rng_seed=3),
            )
        )

    def test_tune_interleaved_solvers_and_repeated_structure(self):
        self._assert_same_tuning(
            dict(
                structures=((4, 8, 16), (8, 16, 8), (4, 8, 16)),
                solvers=("adam", "sgd", "adam"),
                learning_rates=(0.01, 0.05),
                base_config=MlpConfig(epochs=3, batch_size=16, rng_seed=6),
            )
        )


class TestDivergenceInStack:
    KW = dict(
        structures=((8, 16, 8), (4, 8, 16)),
        solvers=("adam", "sgd"),  # the stack puts sgd rows first
        # 1e100 diverges at epoch 1, 1e307 already at epoch 0.
        learning_rates=(0.01, 1e100, 1e307),
        base_config=MlpConfig(epochs=3, dropout_prob=0.0, rng_seed=1),
    )

    def _data(self):
        x, y = toy_clusters(m=96, seed=4)
        idx = np.arange(96)
        return 1e6 * x, y, SplitAssignment(idx[:48], idx[48:72], idx[72:])

    def test_tune_raises_the_first_diverging_candidate_in_grid_order(self):
        x, y, splits = self._data()
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(DivergenceError) as want:
                reference_tune(x, y, splits, **self.KW)
            with pytest.raises(DivergenceError) as got:
                tune(x, y, splits, **self.KW)
        assert "epoch 1 (learning_rate=1e+100)" in str(want.value)
        assert str(got.value) == str(want.value)

    def test_healthy_rows_are_untouched_by_a_diverging_row(self):
        x, y, splits = self._data()
        xt, yt = x[splits.train], y[splits.train]
        base = self.KW["base_config"]
        configs = [
            replace(base, solver=solver, learning_rate=lr, rng_seed=seed)
            for seed, (solver, lr) in enumerate(
                [("adam", 1e100), ("sgd", 0.01), ("sgd", 1e307), ("adam", 0.01)]
            )
        ]
        with np.errstate(over="ignore", invalid="ignore"):
            stacked = _train_stack(xt, yt, configs)
            for cfg, result in zip(configs, stacked):
                if cfg.learning_rate > 1.0:
                    assert isinstance(result, DivergenceError)
                    with pytest.raises(DivergenceError) as alone:
                        reference_train(xt, yt, cfg)
                    assert str(result) == str(alone.value)
                else:
                    _assert_same_parameters(result, train(xt, yt, cfg))
                    _assert_same_parameters(result, reference_train(xt, yt, cfg))


def _flat(model):
    return np.concatenate([p.ravel() for p in model.weights + model.biases])


class TestUpdateRules:
    """One full-batch step (dropout 0, one epoch) from the initial parameters."""

    LR = 0.05

    @staticmethod
    def _data():
        # Seed chosen so every initial pre-activation is at least 1e-3 from
        # the ReLU kink, which keeps finite differences exact to O(step^2).
        rng = np.random.default_rng(3)
        x = rng.normal(0, 1, size=(16, 24))
        return x, (rng.random(16) < 0.5).astype(int)

    def _step(self, solver, lr):
        x, y = self._data()
        cfg = MlpConfig(
            solver=solver, learning_rate=lr, dropout_prob=0.0, epochs=1,
            batch_size=len(x), rng_seed=3,
        )
        before = train(x, y, replace(cfg, epochs=0))
        return before, _flat(train(x, y, cfg)) - _flat(before)

    def _gradient(self):
        # SGD with unit rate moves the parameters by exactly minus the gradient.
        return -self._step("sgd", 1.0)[1]

    def test_sgd_step_is_minus_lr_times_mean_bce_gradient(self):
        x, y = self._data()
        before, step = self._step("sgd", self.LR)
        pres = _forward(before.weights, before.biases, x)[1]
        assert min(np.abs(z).min() for z in pres) > 1e-3
        params = before.weights + before.biases

        def mean_bce(theta):
            offset = 0
            for p in params:
                p[...] = theta[offset : offset + p.size].reshape(p.shape)
                offset += p.size
            prob = predict(before, x)
            return -float(np.mean(y * np.log(prob) + (1 - y) * np.log(1 - prob)))

        grad = finite_difference_gradient(mean_bce, _flat(before))
        assert np.abs(grad).max() > 1e-3
        np.testing.assert_allclose(-step / self.LR, grad, rtol=0, atol=1e-7)

    def test_adam_first_step_is_lr_times_normalized_gradient(self):
        g = self._gradient()
        step = self._step("adam", self.LR)[1]
        np.testing.assert_allclose(step, -self.LR * g / (np.abs(g) + 1e-8), rtol=0, atol=1e-12)

    def test_rmsprop_first_step_divides_by_root_of_tenth_of_squared_gradient(self):
        g = self._gradient()
        step = self._step("rmsprop", self.LR)[1]
        expected = -self.LR * g / (np.sqrt(0.1) * np.abs(g) + 1e-8)
        np.testing.assert_allclose(step, expected, rtol=0, atol=1e-12)


class TestPredict:
    def test_zero_weights_give_half(self):
        model = random_model(0)
        for w in model.weights:
            w[:] = 0.0
        for b in model.biases:
            b[:] = 0.0
        probs = predict(model, np.random.default_rng(1).normal(size=(5, 24)))
        assert probs.tolist() == [0.5] * 5

    def test_inference_takes_the_model_input_width(self):
        model = random_model(0, inputs=3)
        x = np.random.default_rng(1).normal(size=(5, 3))
        assert predict(model, x).shape == (5,)
        assert input_sensitivity(model, x).shape == (3,)
        with pytest.raises(DimensionError):
            predict(model, np.zeros((5, 24)))

    def test_threshold_is_inclusive(self):
        model = random_model(0)
        for w in model.weights:
            w[:] = 0.0
        for b in model.biases:
            b[:] = 0.0
        # probability 0.5 is called a default (1)
        assert accuracy(predict(model, np.zeros((3, 24))), [1, 1, 1]) == 1.0

    def test_separable_model_classifies_clusters(self):
        x, y = toy_clusters()
        cfg = MlpConfig(solver="adam", learning_rate=0.01, epochs=200, rng_seed=1)
        model = train(x, y, cfg)
        assert accuracy(predict(model, x), y) >= 0.99

    def test_dropout_zero_training_forward_equals_inference(self):
        # With no dropout the train-time forward pass is the same function as
        # predict: a freshly initialized model (epochs=0) must produce the
        # inference outputs that one gradient-free training epoch saw.
        x, y = toy_clusters(m=64, seed=6)
        cfg = MlpConfig(dropout_prob=0.0, learning_rate=0.0, epochs=1, rng_seed=3)
        trained = train(x, y, cfg)
        probs = predict(trained, x)
        pc = np.clip(probs, 1e-12, 1 - 1e-12)
        manual_loss = -float(np.sum(y * np.log(pc) + (1 - y) * np.log(1 - pc)))
        assert np.isfinite(manual_loss)


class TestTune:
    def _data(self):
        x, y = toy_clusters(m=120, seed=8)
        idx = np.arange(120)
        splits = SplitAssignment(idx[:60], idx[60:90], idx[90:])
        return x, y, splits

    def test_single_combination_grid(self):
        x, y, splits = self._data()
        base = MlpConfig(epochs=15, rng_seed=4)
        model = tune(
            x, y, splits,
            structures=((4, 8, 16),), solvers=("sgd",), learning_rates=(0.05,),
            base_config=base,
        )
        assert model.config.hidden_layers == (4, 8, 16)
        assert model.config.solver == "sgd"
        assert len(model.tuning_record) == 1

    def test_full_grid_cardinality(self):
        x, y, splits = self._data()
        base = MlpConfig(epochs=2, rng_seed=4)
        model = tune(x, y, splits, base_config=base)
        assert len(model.tuning_record) == 27

    def test_tie_break_prefers_lower_learning_rate(self):
        x, y, splits = self._data()
        base = MlpConfig(epochs=1, rng_seed=4)
        # learning rate 0 twice: identical (initial) models, identical accuracy
        model = tune(
            x, y, splits,
            structures=((8, 16, 8),), solvers=("sgd",), learning_rates=(0.0, 0.0),
            base_config=base,
        )
        chosen = [
            r for r in model.tuning_record
            if r["validation_accuracy"]
            == max(t["validation_accuracy"] for t in model.tuning_record)
        ]
        assert model.config.rng_seed == chosen[0]["rng_seed"]

    # At 10 epochs some candidates tie on accuracy and learning rate, so the
    # grid-order tie-break decides; at 3 epochs the winner is unique.
    @pytest.mark.parametrize("epochs", [3, 10])
    def test_tuned_model_is_the_winner_trained_alone(self, epochs):
        x, y, splits = self._data()
        base = MlpConfig(epochs=epochs, rng_seed=4)
        model = tune(
            x, y, splits,
            structures=((8, 16, 8), (4, 8, 16)), solvers=("sgd", "adam"),
            learning_rates=(0.01, 0.1), base_config=base,
        )
        record = model.tuning_record
        winner = max(
            range(len(record)),
            key=lambda i: (record[i]["validation_accuracy"], -record[i]["learning_rate"], -i),
        )
        assert model.config.rng_seed == base.rng_seed + winner
        alone = train(x[splits.train], y[splits.train], model.config)
        for got, want in zip(model.weights + model.biases, alone.weights + alone.biases):
            np.testing.assert_array_equal(got, want)

    def test_deterministic_tuning(self):
        x, y, splits = self._data()
        base = MlpConfig(epochs=3, rng_seed=9)
        kw = dict(structures=((8, 16, 8), (16, 8, 4)), solvers=("adam",), learning_rates=(0.01,))
        a = tune(x, y, splits, base_config=base, **kw)
        b = tune(x, y, splits, base_config=base, **kw)
        for wa, wb in zip(a.weights, b.weights):
            np.testing.assert_array_equal(wa, wb)
        assert a.tuning_record == b.tuning_record


class TestPool:
    """``tune`` cuts its structure-ordered grid into equal runs for up to
    ``os.cpu_count()`` worker processes, and trains a single structure in
    this process."""

    KW = dict(
        structures=((8, 16, 8), (4, 8, 16), (16, 8, 4)),
        solvers=("sgd", "adam"),
        learning_rates=(0.01, 0.1),
        base_config=MlpConfig(epochs=3, batch_size=16, rng_seed=7),
    )

    def _data(self):
        x, y = toy_clusters(m=120, seed=8, gap=0.8)
        idx = np.arange(120)
        return x, y, SplitAssignment(idx[:60], idx[60:90], idx[90:])

    @staticmethod
    def _count_pools(monkeypatch, submitted=None):
        started = []

        class Counting(concurrent.futures.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                started.append(args)
                super().__init__(*args, **kwargs)

            def map(self, fn, *iterables, **kwargs):
                tasks = list(iterables[-1])  # each task's configs
                if submitted is not None:
                    submitted.extend(tasks)
                return super().map(fn, *iterables[:-1], tasks, **kwargs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Counting)
        return started

    def test_worker_count_does_not_change_the_result(self, monkeypatch):
        x, y, splits = self._data()
        submitted = []
        started = self._count_pools(monkeypatch, submitted)
        models = {}
        for cpus in (1, 2, 3):
            monkeypatch.setattr(mlp.os, "cpu_count", lambda: cpus)
            models[cpus] = tune(x, y, splits, **self.KW)
        assert started == [(2,), (3,)]  # one CPU trains in-process
        # Two CPUs split the 12-point grid 6 + 6, across the middle structure;
        # three CPUs get one structure each.
        assert [len(task) for task in submitted] == [6, 6, 4, 4, 4]
        assert [c.hidden_layers for c in submitted[0]] == [(8, 16, 8)] * 4 + [(4, 8, 16)] * 2
        for cpus in (2, 3):
            assert models[cpus].tuning_record == models[1].tuning_record
            assert models[cpus].config == models[1].config
            _assert_same_parameters(models[cpus], models[1])
        assert multiprocessing.active_children() == []

    def test_no_worker_outlives_a_diverging_grid(self, monkeypatch):
        monkeypatch.setattr(mlp.os, "cpu_count", lambda: 2)
        started = self._count_pools(monkeypatch)
        kw, (x, y, splits) = TestDivergenceInStack.KW, TestDivergenceInStack()._data()
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(DivergenceError) as want:
                reference_tune(x, y, splits, **kw)
            with pytest.raises(DivergenceError) as got:
                tune(x, y, splits, **kw)
        assert started == [(2,)]
        assert str(got.value) == str(want.value)
        assert multiprocessing.active_children() == []

    def test_short_training_split_fails_before_any_worker_starts(self, monkeypatch):
        monkeypatch.setattr(mlp.os, "cpu_count", lambda: 2)
        started = self._count_pools(monkeypatch)
        x, y, splits = self._data()
        kw = {**self.KW, "base_config": replace(self.KW["base_config"], batch_size=61)}
        with pytest.raises(ValueError, match="^60 rows is fewer than batch_size=61$"):
            tune(x, y, splits, **kw)
        assert started == []

    def test_one_structure_grid_starts_no_process(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a one-stack grid started a process pool")

        monkeypatch.setattr(mlp.os, "cpu_count", lambda: 2)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", refuse)
        x, y, splits = self._data()
        model = tune(x, y, splits, **{**self.KW, "structures": ((8, 16, 8),)})
        assert len(model.tuning_record) == 4

    def test_train_loads_no_process_pool(self):
        # The network stages and train never load the pool's modules; only
        # a tune with more than one stack does.
        script = (
            "import sys, numpy as np\n"
            "from banknet import pipeline, mlp\n"
            "x = np.random.default_rng(0).normal(size=(40, 24))\n"
            "mlp.train(x, x[:, 0] > 0, mlp.MlpConfig(epochs=2))\n"
            "loaded = [m for m in ('multiprocessing', 'concurrent.futures.process')"
            " if m in sys.modules]\n"
            "assert not loaded, loaded\n"
        )
        src = str(Path(mlp.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        subprocess.run([sys.executable, "-c", script], check=True, env=env)

    def test_cli_loads_no_scipy_stats(self):
        # The Wald p-values come from scipy.special, so no banknet process
        # pays for scipy.stats or the scipy.optimize and scipy.linalg it pulls in.
        script = (
            "import sys\n"
            "import banknet.cli\n"
            "loaded = [m for m in ('scipy.stats', 'scipy.optimize', 'scipy.linalg')"
            " if m in sys.modules]\n"
            "assert not loaded, loaded\n"
        )
        src = str(Path(mlp.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        subprocess.run([sys.executable, "-c", script], check=True, env=env)


class TestSensitivity:
    def test_single_path_network_at_zero_gives_quarter(self):
        # One node per layer, unit weights, bias steering the final
        # pre-activation to zero: gradient = sigmoid'(0) = 0.25 on the wired
        # input, zero elsewhere.
        weights = [np.zeros((24, 1)), np.ones((1, 1)), np.ones((1, 1)), np.ones((1, 1))]
        weights[0][0, 0] = 1.0
        biases = [np.zeros(1), np.zeros(1), np.zeros(1), np.array([-1.0])]
        cfg = MlpConfig(hidden_layers=(1, 1, 1))
        model = MlpModel(weights=weights, biases=biases, config=cfg)
        x = np.zeros((1, 24))
        x[0, 0] = 1.0  # a1=1 -> z=1 at each hidden node, final z = 1 - 1 = 0
        grads = input_gradients(model, x)
        assert grads[0, 0] == pytest.approx(0.25, abs=1e-15)
        assert not grads[0, 1:].any()

    def test_dead_relu_kills_gradient(self):
        weights = [np.zeros((24, 1)), np.ones((1, 1)), np.ones((1, 1)), np.ones((1, 1))]
        weights[0][0, 0] = 1.0
        biases = [np.zeros(1)] * 3 + [np.zeros(1)]
        cfg = MlpConfig(hidden_layers=(1, 1, 1))
        model = MlpModel(weights=weights, biases=biases, config=cfg)
        x = np.zeros((1, 24))
        x[0, 0] = -1.0  # first pre-activation negative: every path is dead
        assert not input_gradients(model, x).any()

    def test_matches_finite_differences_away_from_kinks(self):
        rng = np.random.default_rng(12)
        model = random_model(12)
        checked = 0
        while checked < 5:
            x = rng.normal(0, 1.5, size=(1, 24))
            pres = _forward(model.weights, model.biases, x)[1]
            if min(np.abs(z).min() for z in pres) <= 1e-3:
                continue
            analytic = input_gradients(model, x)[0]
            fd = finite_difference_gradient(
                lambda v: float(predict(model, v.reshape(1, 24))[0]), x[0]
            )
            assert np.abs(analytic - fd).max() <= 1e-4
            checked += 1

    def test_path_enumeration_equivalence_small_layers(self):
        for seed in range(5):
            model = random_model(seed, structure=(4, 3, 2))
            x = np.random.default_rng(100 + seed).normal(size=24)
            backward = input_gradients(model, x.reshape(1, 24))[0]
            paths = path_sum_gradient(model.weights, model.biases, x)
            np.testing.assert_allclose(backward, paths, atol=1e-12, rtol=0)

    def test_output_to_final_activation_is_identity(self):
        # dY/d(bias of the output node) equals sigmoid'(z_out): the chain
        # starts from a unit gradient at the output activation.
        model = random_model(3)
        x = np.random.default_rng(4).normal(size=(1, 24))
        z_out = _forward(model.weights, model.biases, x)[1][3].ravel()[0]
        h = 1e-6
        model.biases[3][0] += h
        up = predict(model, x)[0]
        model.biases[3][0] -= 2 * h
        down = predict(model, x)[0]
        model.biases[3][0] += h
        fd = (up - down) / (2 * h)
        assert fd == pytest.approx(sigmoid_grad(np.array([z_out]))[0], abs=1e-8)

    def test_sigmoid_gradient_identity(self):
        z = np.linspace(-20.0, 20.0, 4001)
        from scipy.special import expit

        lhs = sigmoid_grad(z)
        rhs = expit(z) * (1.0 - expit(z))
        assert np.abs(lhs - rhs).max() <= 1e-12

    def test_report_aggregates_mean(self):
        model = random_model(5)
        x = np.random.default_rng(6).normal(size=(40, 24))
        np.testing.assert_allclose(
            input_sensitivity(model, x), input_gradients(model, x).mean(axis=0), atol=1e-15
        )

    def test_non_finite_gradients_are_rejected(self):
        model = random_model(5)
        model.weights[3][:] = np.nan
        with pytest.raises(ValueError, match="^sensitivity gradients must be finite$"):
            input_sensitivity(model, np.zeros((2, 24)))

    def test_same_seed_same_report(self):
        x, y = toy_clusters(m=90, seed=14)
        cfg = MlpConfig(epochs=20, rng_seed=21)
        a = input_sensitivity(train(x, y, cfg), x)
        b = input_sensitivity(train(x, y, cfg), x)
        np.testing.assert_array_equal(a, b)


class TestModelIO:
    def test_roundtrip(self, tmp_path):
        x, y = toy_clusters(m=80, seed=15)
        model = train(x, y, MlpConfig(epochs=5, rng_seed=1))
        path = tmp_path / "model.json"
        save_model(model, path, extra={"oos_accuracy": 0.5})
        back = load_model(path)
        for wa, wb in zip(model.weights, back.weights):
            np.testing.assert_array_equal(wa, wb)
        assert back.config == model.config
        np.testing.assert_array_equal(predict(model, x), predict(back, x))
