from dataclasses import replace

import numpy as np
import pytest

from banknet.dataset import SplitAssignment
from banknet.errors import DimensionError, DivergenceError
from banknet.mlp import (
    MlpConfig,
    MlpModel,
    accuracy,
    classify,
    input_gradients,
    input_sensitivity,
    load_model,
    predict,
    save_model,
    sigmoid_grad,
    train,
    tune,
)

from .oracles import finite_difference_gradient, path_sum_gradient


def toy_clusters(m=200, seed=0, gap=3.0):
    """Linearly separable 24-dim clusters split on the first coordinate."""
    rng = np.random.default_rng(seed)
    x = rng.normal(0, 0.3, size=(m, 24))
    y = (rng.random(m) < 0.5).astype(int)
    x[:, 0] += np.where(y == 1, gap, -gap)
    return x, y


def random_model(seed, structure=(8, 4, 2), scale=0.5, bias_scale=0.3):
    rng = np.random.default_rng(seed)
    sizes = (24,) + tuple(structure) + (1,)
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
        assert accuracy(model, x, y) >= 0.99

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
        assert accuracy(model, x, y) == 1.0

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

    def test_wrong_width_rejected(self):
        with pytest.raises(DimensionError):
            train(np.zeros((40, 23)), np.zeros(40), MlpConfig())

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
        from banknet.mlp import _forward_pre_activations

        assert min(np.abs(z).min() for z in _forward_pre_activations(before, x)) > 1e-3
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

    def test_threshold_is_inclusive(self):
        model = random_model(0)
        for w in model.weights:
            w[:] = 0.0
        for b in model.biases:
            b[:] = 0.0
        labels = classify(model, np.zeros((3, 24)), threshold=0.5)
        assert labels.tolist() == [1, 1, 1]  # probability 0.5 maps to 1

    def test_separable_model_classifies_clusters(self):
        x, y = toy_clusters()
        cfg = MlpConfig(solver="adam", learning_rate=0.01, epochs=200, rng_seed=1)
        model = train(x, y, cfg)
        assert (classify(model, x) == y).mean() >= 0.99

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
        splits = SplitAssignment(idx[:60], idx[60:90], idx[90:], rng_seed=0)
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
            from banknet.mlp import _forward_pre_activations

            pres = _forward_pre_activations(model, x)
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
        from banknet.mlp import _forward_pre_activations

        z_out = _forward_pre_activations(model, x)[3].ravel()[0]
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
        report = input_sensitivity(model, x)
        assert report.sample_count == 40
        np.testing.assert_allclose(
            report.gradients, input_gradients(model, x).mean(axis=0), atol=1e-15
        )

    def test_same_seed_same_report(self):
        x, y = toy_clusters(m=90, seed=14)
        cfg = MlpConfig(epochs=20, rng_seed=21)
        a = input_sensitivity(train(x, y, cfg), x)
        b = input_sensitivity(train(x, y, cfg), x)
        np.testing.assert_array_equal(a.gradients, b.gradients)


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
