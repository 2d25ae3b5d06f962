"""Feed-forward binary classifier built directly on numpy.

Fixed topology: 24 inputs, three ReLU hidden layers, a single sigmoid output.
Inverted dropout after the first and second hidden layers during training
only, so inference needs no rescale. Weights start from a truncated normal
(mean 0, stddev 0.2, cut at two stddevs), biases at zero.

Training and inference share one forward pass. During training the weights
and biases are views into one flat parameter buffer, so SGD, Adam and RMSProp
are each a single update formula on that buffer. Tuning trains every grid
candidate once and returns the best one as trained.

The input-sensitivity pass accumulates dY/dInput backwards through the
layers, which is arithmetically the sum over all forward paths of the
products of path weights and activation gradients.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, replace
from itertools import product
from pathlib import Path

import numpy as np
from scipy.special import expit

from .dataset import SplitAssignment
from .errors import DimensionError, DivergenceError

N_INPUTS = 24

DEFAULT_STRUCTURES = ((8, 16, 8), (4, 8, 16), (16, 8, 4))
DEFAULT_SOLVERS = ("sgd", "adam", "rmsprop")
DEFAULT_LEARNING_RATES = (0.001, 0.05, 0.1)

_TRUNC_STDDEVS = 2.0
_LOSS_CLIP = 1e-12
_DROPOUT_LAYERS = 2  # hidden layers followed by dropout during training
_ADAM_BETA1 = 0.9
_ADAM_BETA2 = 0.999
_RMSPROP_DECAY = 0.9
_SOLVER_EPS = 1e-8


@dataclass(frozen=True)
class MlpConfig:
    hidden_layers: tuple[int, int, int] = (8, 16, 8)
    solver: str = "adam"
    learning_rate: float = 0.001
    dropout_prob: float = 0.1
    init_stddev: float = 0.2
    epochs: int = 300
    batch_size: int = 32
    rng_seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "hidden_layers", tuple(int(h) for h in self.hidden_layers))
        if len(self.hidden_layers) != 3 or any(h <= 0 for h in self.hidden_layers):
            raise ValueError(f"exactly 3 positive hidden layers required, got {self.hidden_layers}")
        if self.solver not in DEFAULT_SOLVERS:
            raise ValueError(f"unknown solver {self.solver!r}; use one of {DEFAULT_SOLVERS}")
        if not 0.0 <= self.dropout_prob < 1.0:
            raise ValueError(f"dropout_prob must lie in [0, 1), got {self.dropout_prob}")
        if self.learning_rate < 0:
            raise ValueError("learning_rate must be nonnegative")


@dataclass
class MlpModel:
    weights: list[np.ndarray]  # shapes chain 24 -> h1 -> h2 -> h3 -> 1
    biases: list[np.ndarray]
    config: MlpConfig
    tuning_record: tuple[dict, ...] = ()

    @property
    def layer_sizes(self) -> tuple[int, ...]:
        return (self.weights[0].shape[0],) + tuple(w.shape[1] for w in self.weights)


@dataclass(frozen=True)
class SensitivityReport:
    """Mean output gradient per input over the evaluation samples."""

    gradients: np.ndarray
    sample_count: int

    def __post_init__(self):
        g = np.asarray(self.gradients, dtype=float)
        if g.shape != (N_INPUTS,):
            raise DimensionError(f"expected {N_INPUTS} gradients, got shape {g.shape}")
        if not np.isfinite(g).all():
            raise ValueError("sensitivity gradients must be finite")
        object.__setattr__(self, "gradients", g)


def sigmoid_grad(z: np.ndarray) -> np.ndarray:
    """d sigmoid/dz = e^z / (1 + e^z)^2, evaluated overflow-free via |z|."""
    t = np.exp(-np.abs(z))
    return t / (1.0 + t) ** 2


def _truncated_normal(rng: np.random.Generator, shape, stddev: float) -> np.ndarray:
    out = rng.normal(0.0, stddev, size=shape)
    bound = _TRUNC_STDDEVS * stddev
    mask = np.abs(out) > bound
    while mask.any():
        out[mask] = rng.normal(0.0, stddev, size=int(mask.sum()))
        mask = np.abs(out) > bound
    return out


def _check_inputs(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[1] != N_INPUTS:
        raise DimensionError(f"expected an (m, {N_INPUTS}) matrix, got shape {x.shape}")
    return x


def _layer_views(buf: np.ndarray, shapes) -> list[np.ndarray]:
    """Consecutive reshaped views into a flat buffer, one per shape."""
    views, start = [], 0
    for shape in shapes:
        size = math.prod(shape)
        views.append(buf[start : start + size].reshape(shape))
        start += size
    return views


def _forward(weights, biases, x, rng=None, p_drop=0.0):
    """Forward pass through the four layers.

    With ``p_drop > 0`` (training only) inverted dropout masks drawn from
    ``rng`` follow the first two hidden layers. Returns the input each layer
    saw, every layer's pre-activation and the dropout masks in layer order.
    """
    inputs, pres, masks = [], [], []
    a = x
    for i, (w, b) in enumerate(zip(weights, biases)):
        inputs.append(a)
        z = a @ w + b
        pres.append(z)
        if i < len(weights) - 1:
            a = np.maximum(z, 0.0)
            if p_drop > 0.0 and i < _DROPOUT_LAYERS:
                mask = (rng.random(a.shape) >= p_drop) / (1.0 - p_drop)
                masks.append(mask)
                a = a * mask
    return inputs, pres, masks


def train(x, y, config: MlpConfig) -> MlpModel:
    """Minimize binary cross-entropy with the configured solver.

    The returned weights and biases are views into one flat parameter
    buffer. Dropout is active during training only; a non-finite epoch loss
    raises DivergenceError naming the epoch and learning rate.
    """
    x = _check_inputs(x)
    y = np.asarray(y, dtype=float).reshape(-1)
    if y.size != x.shape[0]:
        raise DimensionError(f"{y.size} labels for {x.shape[0]} rows")
    if x.shape[0] < config.batch_size:
        raise ValueError(
            f"{x.shape[0]} rows is fewer than batch_size={config.batch_size}"
        )
    rng = np.random.default_rng(config.rng_seed)
    sizes = (N_INPUTS,) + config.hidden_layers + (1,)
    shapes = [(sizes[i], sizes[i + 1]) for i in range(4)] + [(s,) for s in sizes[1:]]
    params = np.zeros(sum(math.prod(s) for s in shapes))
    grads = np.zeros_like(params)
    views, grad_views = _layer_views(params, shapes), _layer_views(grads, shapes)
    weights, biases = views[:4], views[4:]
    gw, gb = grad_views[:4], grad_views[4:]
    for w in weights:
        w[...] = _truncated_normal(rng, w.shape, config.init_stddev)
    solver, lr, p_drop = config.solver, config.learning_rate, config.dropout_prob
    mean = np.zeros_like(params)  # Adam's first moment
    sq_avg = np.zeros_like(params)  # Adam's and RMSProp's squared-gradient average
    step = 0
    n = x.shape[0]

    for epoch in range(config.epochs):
        perm = rng.permutation(n)
        epoch_loss = 0.0
        for start in range(0, n, config.batch_size):
            rows = perm[start : start + config.batch_size]
            xb, yb = x[rows], y[rows]
            inputs, pres, masks = _forward(weights, biases, xb, rng, p_drop)
            prob = expit(pres[-1].ravel())

            pc = np.clip(prob, _LOSS_CLIP, 1.0 - _LOSS_CLIP)
            epoch_loss += -float(np.sum(yb * np.log(pc) + (1 - yb) * np.log(1 - pc)))

            dz = ((prob - yb) / xb.shape[0])[:, None]
            for i in reversed(range(4)):
                np.matmul(inputs[i].T, dz, out=gw[i])
                np.sum(dz, axis=0, out=gb[i])
                if i:
                    da = dz @ weights[i].T
                    if i - 1 < len(masks):
                        da = da * masks[i - 1]
                    dz = da * (pres[i - 1] > 0)

            if solver == "sgd":
                params -= lr * grads
            elif solver == "adam":
                step += 1
                mean *= _ADAM_BETA1
                mean += (1 - _ADAM_BETA1) * grads
                sq_avg *= _ADAM_BETA2
                sq_avg += (1 - _ADAM_BETA2) * grads * grads
                mhat = mean / (1 - _ADAM_BETA1**step)
                vhat = sq_avg / (1 - _ADAM_BETA2**step)
                params -= lr * mhat / (np.sqrt(vhat) + _SOLVER_EPS)
            else:  # rmsprop
                sq_avg *= _RMSPROP_DECAY
                sq_avg += (1 - _RMSPROP_DECAY) * grads * grads
                params -= lr * grads / (np.sqrt(sq_avg) + _SOLVER_EPS)
        if not np.isfinite(epoch_loss):
            raise DivergenceError(
                f"non-finite loss at epoch {epoch} "
                f"(learning_rate={config.learning_rate})"
            )
    return MlpModel(weights=weights, biases=biases, config=config)


def _forward_pre_activations(model: MlpModel, x: np.ndarray):
    """Pre-activations of every layer for the no-dropout forward pass."""
    return tuple(_forward(model.weights, model.biases, x)[1])


def predict(model: MlpModel, x) -> np.ndarray:
    """Output probabilities (forward pass without dropout)."""
    x = _check_inputs(x)
    return expit(_forward_pre_activations(model, x)[-1].ravel())


def classify(model: MlpModel, x, threshold: float = 0.5) -> np.ndarray:
    return (predict(model, x) >= threshold).astype(int)


def accuracy(model: MlpModel, x, y) -> float:
    y = np.asarray(y, dtype=int).reshape(-1)
    return float(np.mean(classify(model, x) == y))


def tune(
    x,
    y,
    splits: SplitAssignment,
    structures=DEFAULT_STRUCTURES,
    solvers=DEFAULT_SOLVERS,
    learning_rates=DEFAULT_LEARNING_RATES,
    base_config: MlpConfig = MlpConfig(),
) -> MlpModel:
    """Grid search on validation accuracy; the best candidate is the result.

    Each candidate trains with its own derived seed (base seed + grid index)
    so results do not depend on evaluation order. ``train`` is a pure
    function of (data, config), so the best candidate's model is kept as the
    grid runs instead of being trained again. Ties break toward the lower
    learning rate, then grid order.
    """
    grid = list(product(structures, solvers, learning_rates))
    if not grid:
        raise ValueError("hyperparameter grid is empty")
    x = _check_inputs(x)
    y = np.asarray(y, dtype=int).reshape(-1)
    xt, yt = x[splits.train], y[splits.train]
    xv, yv = x[splits.validation], y[splits.validation]

    record = []
    best = best_key = None
    for idx, (structure, solver, lr) in enumerate(grid):
        cfg = replace(
            base_config,
            hidden_layers=tuple(structure),
            solver=solver,
            learning_rate=lr,
            rng_seed=base_config.rng_seed + idx,
        )
        model = train(xt, yt, cfg)
        val_acc = accuracy(model, xv, yv)
        record.append(
            {
                "hidden_layers": list(cfg.hidden_layers),
                "solver": solver,
                "learning_rate": lr,
                "rng_seed": cfg.rng_seed,
                "validation_accuracy": val_acc,
            }
        )
        # Strictly better only, so an earlier grid point keeps a full tie.
        if best is None or (val_acc, -lr) > best_key:
            best, best_key = model, (val_acc, -lr)

    best.tuning_record = tuple(record)
    return best


def input_gradients(model: MlpModel, x) -> np.ndarray:
    """Per-sample dY/dInput for the 24 inputs, by backward accumulation.

    ReLU contributes gradient 1 only where the pre-activation is strictly
    positive (0 at and below zero); the sigmoid contributes e^z/(1+e^z)^2.
    """
    x = _check_inputs(x)
    z1, z2, z3, z4 = _forward_pre_activations(model, x)
    g = sigmoid_grad(z4)  # dY/dz at the output node
    g = (g @ model.weights[3].T) * (z3 > 0)
    g = (g @ model.weights[2].T) * (z2 > 0)
    g = (g @ model.weights[1].T) * (z1 > 0)
    return g @ model.weights[0].T


def input_sensitivity(model: MlpModel, x_eval) -> SensitivityReport:
    """Arithmetic mean of per-sample output gradients over the evaluation set."""
    grads = input_gradients(model, x_eval)
    return SensitivityReport(gradients=grads.mean(axis=0), sample_count=grads.shape[0])


def save_model(model: MlpModel, path, extra: dict | None = None) -> None:
    payload = {
        "layer_sizes": list(model.layer_sizes),
        "weights": [w.tolist() for w in model.weights],
        "biases": [b.tolist() for b in model.biases],
        "config": asdict(model.config),
        "tuning_record": list(model.tuning_record),
    }
    if extra:
        payload.update(extra)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_model(path) -> MlpModel:
    with open(Path(path), encoding="utf-8") as fh:
        payload = json.load(fh)
    config = MlpConfig(**payload["config"])
    weights = [np.asarray(w, dtype=float) for w in payload["weights"]]
    biases = [np.asarray(b, dtype=float) for b in payload["biases"]]
    return MlpModel(
        weights=weights,
        biases=biases,
        config=config,
        tuning_record=tuple(payload.get("tuning_record", ())),
    )
