"""Feed-forward binary classifier built directly on numpy.

Fixed topology: one input per column of ``x`` (24 in the pipeline), three
ReLU hidden layers, a single sigmoid output.
Inverted dropout after the first and second hidden layers during training
only, so inference needs no rescale. Weights start from a truncated normal
(mean 0, stddev 0.2, cut at two stddevs), biases at zero.

Training and inference share one forward pass. There is one training path,
``_train_stack``: it trains k candidates that share a structure and schedule
in lockstep, with parameters, gradients and solver moments in ``(k, P)``
buffers and batched matmul over per-layer ``(k, in, out)`` views, so SGD,
Adam and RMSProp are each one update formula on the rows that use it. Every
candidate keeps its own random stream and comes out bit-identical to
training it alone; ``train`` is the one-candidate case. ``grid_configs``
alone turns a grid into candidates. Tuning orders them by structure, cuts
them into equal runs for up to ``os.cpu_count()`` worker processes (one
run, for a single structure or CPU, in this process), trains each run's
share of a structure as one stack, and returns the best one as trained.

The input-sensitivity pass accumulates dY/dInput backwards through the
layers, which is arithmetically the sum over all forward paths of the
products of path weights and activation gradients.
"""

from __future__ import annotations

import math
import numbers
import os
from dataclasses import asdict, dataclass, fields, replace
from itertools import chain, groupby, product, repeat

import numpy as np
from scipy.special import expit

from .artifacts import read_json, write_json
from .dataset import SplitAssignment, accuracy
from .errors import DimensionError, DivergenceError, SchemaError

DEFAULT_STRUCTURES = ((8, 16, 8), (4, 8, 16), (16, 8, 4))
DEFAULT_SOLVERS = ("sgd", "adam", "rmsprop")
DEFAULT_LEARNING_RATES = (0.001, 0.05, 0.1)
GRID_KEYS = ("structures", "solvers", "learning_rates")  # grid_configs' and tune's grid arguments

_TRUNC_STDDEVS = 2.0
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
        widths = tuple(self.hidden_layers)
        if any(isinstance(h, bool) or not isinstance(h, numbers.Integral) for h in widths):
            raise ValueError(f"hidden layer widths must be integers, got {list(widths)}")
        object.__setattr__(self, "hidden_layers", tuple(int(h) for h in widths))
        if len(self.hidden_layers) != 3 or any(h <= 0 for h in self.hidden_layers):
            raise ValueError(f"exactly 3 positive hidden layers required, got {self.hidden_layers}")
        if self.solver not in DEFAULT_SOLVERS:
            raise ValueError(f"unknown solver {self.solver!r}; use one of {DEFAULT_SOLVERS}")
        if not 0.0 <= self.dropout_prob < 1.0:
            raise ValueError(f"dropout_prob must lie in [0, 1), got {self.dropout_prob}")
        if self.learning_rate < 0:
            raise ValueError("learning_rate must be nonnegative")
        if isinstance(self.learning_rate, bool) or not math.isfinite(self.learning_rate):
            raise ValueError(f"learning_rate must be a finite number, got {self.learning_rate!r}")
        if self.epochs < 0:
            raise ValueError(f"epochs must be nonnegative, got {self.epochs}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be at least 1, got {self.batch_size}")


@dataclass
class MlpModel:
    weights: list[np.ndarray]  # shapes chain inputs -> h1 -> h2 -> h3 -> 1
    biases: list[np.ndarray]
    config: MlpConfig
    tuning_record: tuple[dict, ...] = ()


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


def _check_rows(n: int, batch_size: int) -> None:
    if n < batch_size:
        raise ValueError(f"{n} rows is fewer than batch_size={batch_size}")


def _check_inputs(x: np.ndarray, width: int | None = None) -> np.ndarray:
    """``x`` as a float matrix; training takes any width and sizes the input
    layer from it, a trained model only its own input width."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or width not in (None, x.shape[1]):
        raise DimensionError(f"expected an (m, {width or 'n'}) matrix, got shape {x.shape}")
    return x


def _layer_views(buf: np.ndarray, shapes) -> list[np.ndarray]:
    """Consecutive reshaped views into the last axis of a buffer, one per
    shape; a ``(k, P)`` buffer gives views of shape ``(k, *shape)``."""
    views, start = [], 0
    for shape in shapes:
        size = math.prod(shape)
        views.append(buf[..., start : start + size].reshape(buf.shape[:-1] + tuple(shape)))
        start += size
    return views


def _forward(weights, biases, x, masks=()):
    """Forward pass through the four layers.

    Works on one network (``x`` of shape ``(m, in)``) or on a stack of k
    networks (weights ``(k, in, out)``, biases ``(k, 1, out)``, ``x`` of shape
    ``(k, m, in)``). Inverted-dropout ``masks`` (training only) multiply the
    first hidden layers. Returns the input each layer saw and every layer's
    pre-activation.
    """
    inputs, pres = [], []
    a = x
    for i, (w, b) in enumerate(zip(weights, biases)):
        inputs.append(a)
        z = a @ w + b
        pres.append(z)
        if i < len(weights) - 1:
            a = np.maximum(z, 0.0)
            if i < len(masks):
                a = a * masks[i]
    return inputs, pres


def _train_stack(x, y, configs) -> list:
    """Train k candidates that share a structure and schedule in lockstep.

    The configs must agree on ``hidden_layers``, ``epochs``, ``batch_size``,
    ``dropout_prob`` and ``init_stddev``. Parameters, gradients and solver
    moments are ``(k, P)`` buffers whose per-layer views are used with
    batched matmul, so every minibatch step is one set of numpy calls for all
    k candidates; rows are independent, each computed exactly as it would be
    alone. Candidate c draws from its own ``default_rng(rng_seed)`` in a
    fixed order: the truncated-normal init layer by layer, then each epoch
    a permutation of the rows and, with dropout, the uniforms for every
    minibatch's two masks in one draw. Each epoch gathers the permuted rows
    once and slices its minibatches from them.

    Returns one entry per config, in order: the trained MlpModel, whose
    weights and biases are views into that candidate's row of the parameter
    buffer, or the DivergenceError naming the first epoch with a non-finite
    loss. The log-loss clips probabilities to [1e-12, 1 - 1e-12], so it is
    non-finite exactly when some probability is NaN; that is what is tested,
    and the loss itself is never formed.
    """
    x = _check_inputs(x)
    y = np.asarray(y, dtype=float).reshape(-1)
    if y.size != x.shape[0]:
        raise DimensionError(f"{y.size} labels for {x.shape[0]} rows")
    first = configs[0]
    n, batch_size = x.shape[0], first.batch_size
    _check_rows(n, batch_size)
    # Rows sorted by solver, so each update formula acts on one slice.
    order = sorted(range(len(configs)), key=lambda c: DEFAULT_SOLVERS.index(configs[c].solver))
    cfgs = [configs[c] for c in order]
    solvers = [cfg.solver for cfg in cfgs]
    spans = {
        s: slice(solvers.index(s), solvers.index(s) + solvers.count(s))
        for s in dict.fromkeys(solvers)
    }
    k = len(cfgs)
    rngs = [np.random.default_rng(cfg.rng_seed) for cfg in cfgs]
    lr = np.array([cfg.learning_rate for cfg in cfgs])[:, None]

    sizes = (x.shape[1],) + first.hidden_layers + (1,)
    weight_shapes = [(sizes[i], sizes[i + 1]) for i in range(4)]
    params = np.zeros((k, sum(math.prod(s) for s in weight_shapes) + sum(sizes[1:])))
    grads = np.zeros_like(params)
    stack_shapes = weight_shapes + [(1, s) for s in sizes[1:]]  # biases broadcast over rows
    views, grad_views = _layer_views(params, stack_shapes), _layer_views(grads, stack_shapes)
    weights, biases = views[:4], views[4:]
    gw, gb = grad_views[:4], grad_views[4:]
    for c, rng in enumerate(rngs):
        for w in weights:
            w[c] = _truncated_normal(rng, w.shape[1:], first.init_stddev)
    p_drop = first.dropout_prob
    widths = sizes[1 : 1 + _DROPOUT_LAYERS] if p_drop > 0.0 else ()
    mean = np.zeros_like(params)  # Adam's first moment
    sq_avg = np.zeros_like(params)  # Adam's and RMSProp's squared-gradient average
    diverged = [None] * k
    step = 0

    for epoch in range(first.epochs):
        perms = np.stack([rng.permutation(n) for rng in rngs])
        xs, ys = x[perms], y[perms]
        if widths:
            uniforms = np.stack([rng.random(n * sum(widths)) for rng in rngs])
            dropout = (uniforms >= p_drop) / (1.0 - p_drop)  # every mask this epoch
        nan = np.zeros(k, dtype=bool)
        for start in range(0, n, batch_size):
            xb, yb = xs[:, start : start + batch_size], ys[:, start : start + batch_size]
            b = yb.shape[1]
            masks, offset = [], start * sum(widths)
            for h in widths:
                masks.append(dropout[:, offset : offset + b * h].reshape(k, b, h))
                offset += b * h
            inputs, pres = _forward(weights, biases, xb, masks)
            prob = expit(pres[-1][..., 0])
            nan |= np.isnan(prob).any(axis=1)

            dz = ((prob - yb) / b)[..., None]
            for i in reversed(range(4)):
                np.matmul(inputs[i].transpose(0, 2, 1), dz, out=gw[i])
                np.add.reduce(dz, axis=1, keepdims=True, out=gb[i])
                if i:
                    da = dz @ weights[i].transpose(0, 2, 1)
                    if i - 1 < len(masks):
                        da = da * masks[i - 1]
                    dz = da * (pres[i - 1] > 0)

            step += 1
            for solver, sl in spans.items():
                p, g, rate = params[sl], grads[sl], lr[sl]
                if solver == "sgd":
                    p -= rate * g
                elif solver == "adam":
                    m, v = mean[sl], sq_avg[sl]
                    m *= _ADAM_BETA1
                    m += (1 - _ADAM_BETA1) * g
                    v *= _ADAM_BETA2
                    v += (1 - _ADAM_BETA2) * g * g
                    mhat = m / (1 - _ADAM_BETA1**step)
                    vhat = v / (1 - _ADAM_BETA2**step)
                    p -= rate * mhat / (np.sqrt(vhat) + _SOLVER_EPS)
                else:  # rmsprop
                    v = sq_avg[sl]
                    v *= _RMSPROP_DECAY
                    v += (1 - _RMSPROP_DECAY) * g * g
                    p -= rate * g / (np.sqrt(v) + _SOLVER_EPS)
        for c in np.flatnonzero(nan):
            if diverged[c] is None:
                diverged[c] = DivergenceError(
                    f"non-finite loss at epoch {epoch} "
                    f"(learning_rate={cfgs[c].learning_rate})"
                )
        if all(diverged):
            break

    model_shapes = weight_shapes + [(s,) for s in sizes[1:]]
    results = [None] * k
    for c, cfg in enumerate(cfgs):
        row = _layer_views(params[c], model_shapes)
        model = MlpModel(weights=row[:4], biases=row[4:], config=cfg)
        results[order[c]] = diverged[c] or model
    return results


def _train_run(x, y, configs) -> list:
    """``_train_stack`` on each run of consecutive configs that share a
    structure; one entry per config, in order."""
    return [
        result
        for _, stack in groupby(configs, key=lambda cfg: cfg.hidden_layers)
        for result in _train_stack(x, y, list(stack))
    ]


def train(x, y, config: MlpConfig) -> MlpModel:
    """Minimize binary cross-entropy with the configured solver.

    The single-candidate case of the stacked trainer that ``tune`` uses, so
    a model trained alone is bit-identical to the same candidate trained in
    a grid. The returned weights and biases are views into one flat
    parameter buffer. Dropout is active during training only; a non-finite
    epoch loss raises DivergenceError naming the epoch and learning rate.
    """
    (result,) = _train_stack(x, y, [config])
    if isinstance(result, DivergenceError):
        raise result
    return result


def predict(model: MlpModel, x) -> np.ndarray:
    """Output probabilities (forward pass without dropout)."""
    x = _check_inputs(x, model.weights[0].shape[0])
    return expit(_forward(model.weights, model.biases, x)[1][-1].ravel())


def grid_configs(base: MlpConfig, structures, solvers, learning_rates) -> list[MlpConfig]:
    """The grid's candidates in grid order (structure, solver, rate): the i-th is
    ``base`` at that point, seeded ``base.rng_seed + i``, checked by MlpConfig."""
    grid = product(structures, solvers, learning_rates)
    return [
        replace(base, hidden_layers=s, solver=solver, learning_rate=lr, rng_seed=base.rng_seed + i)
        for i, (s, solver, lr) in enumerate(grid)
    ]


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

    The candidates are ``grid_configs``, each with its own derived seed
    (base seed + grid index), so results do not depend on evaluation order.
    The grid is ordered by hidden-layer structure, stably, in order of first
    appearance, and cut into ``min(os.cpu_count(), structures)`` contiguous
    runs whose sizes differ by at most one. Each run goes to its own worker
    process, or the one run is trained in this process; within a run the
    candidates that share a structure train together as one stack
    (``_train_stack``, the path ``train`` also takes). The default grid on two
    workers trains 9 + 5 candidates on one and 4 + 9 on the other. Each
    candidate comes out bit-identical to ``train`` on its own config either
    way, and the best one is kept as trained. No worker outlives the call.
    Validation accuracy, the record and the tie-break then run in grid order:
    ties break toward the lower learning rate, then grid order. If candidates
    diverge, the DivergenceError of the first one in grid order is raised.
    """
    configs = grid_configs(base_config, structures, solvers, learning_rates)
    if not configs:
        raise ValueError("hyperparameter grid is empty")
    x = _check_inputs(x)
    y = np.asarray(y, dtype=int).reshape(-1)
    xt, yt = x[splits.train], y[splits.train]
    xv, yv = x[splits.validation], y[splits.validation]
    _check_rows(len(yt), base_config.batch_size)  # here, not in a worker
    rank = {s: r for r, s in enumerate(dict.fromkeys(cfg.hidden_layers for cfg in configs))}
    order = sorted(range(len(configs)), key=lambda i: rank[configs[i].hidden_layers])
    workers = min(os.cpu_count() or 1, len(rank))
    size, extra = divmod(len(order), workers)  # the first `extra` runs take one more
    bounds = [w * size + min(w, extra) for w in range(workers + 1)]
    runs = [[configs[i] for i in order[a:b]] for a, b in zip(bounds, bounds[1:])]
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(workers) as pool:
            trained = list(pool.map(_train_run, repeat(xt), repeat(yt), runs))
    else:
        trained = map(_train_run, repeat(xt), repeat(yt), runs)
    results = [None] * len(configs)
    for idx, result in zip(order, chain.from_iterable(trained)):
        results[idx] = result

    record = []
    best = best_key = None
    for cfg, model in zip(configs, results):
        if isinstance(model, DivergenceError):
            raise model
        val_acc = accuracy(predict(model, xv), yv)
        record.append(
            {
                "hidden_layers": list(cfg.hidden_layers),
                "solver": cfg.solver,
                "learning_rate": cfg.learning_rate,
                "rng_seed": cfg.rng_seed,
                "validation_accuracy": val_acc,
            }
        )
        # Strictly better only, so an earlier grid point keeps a full tie.
        if best is None or (val_acc, -cfg.learning_rate) > best_key:
            best, best_key = model, (val_acc, -cfg.learning_rate)

    best.tuning_record = tuple(record)
    return best


def input_gradients(model: MlpModel, x) -> np.ndarray:
    """Per-sample dY/dInput for every input, by backward accumulation.

    ReLU contributes gradient 1 only where the pre-activation is strictly
    positive (0 at and below zero); the sigmoid contributes e^z/(1+e^z)^2.
    """
    x = _check_inputs(x, model.weights[0].shape[0])
    z1, z2, z3, z4 = _forward(model.weights, model.biases, x)[1]
    g = sigmoid_grad(z4)  # dY/dz at the output node
    g = (g @ model.weights[3].T) * (z3 > 0)
    g = (g @ model.weights[2].T) * (z2 > 0)
    g = (g @ model.weights[1].T) * (z1 > 0)
    return g @ model.weights[0].T


def input_sensitivity(model: MlpModel, x_eval) -> np.ndarray:
    """Arithmetic mean of per-sample output gradients over the evaluation
    set, one per input; ValueError if any is not finite."""
    gradients = input_gradients(model, x_eval).mean(axis=0)
    if not np.isfinite(gradients).all():
        raise ValueError("sensitivity gradients must be finite")
    return gradients


def save_model(model: MlpModel, path, extra: dict | None = None) -> None:
    payload = {
        "weights": [w.tolist() for w in model.weights],
        "biases": [b.tolist() for b in model.biases],
        "config": asdict(model.config),
        "tuning_record": list(model.tuning_record),
    }
    if extra:
        payload.update(extra)
    write_json(path, payload)


def load_model(path, n_inputs: int | None = None) -> MlpModel:
    """The model ``save_model`` wrote to ``path``. Its config must be an
    object of ``MlpConfig`` fields that ``MlpConfig`` accepts, and its weights
    and biases must chain ``n_inputs`` inputs (when given; else the first
    matrix's rows) through the config's hidden layers to one output. Anything
    else is a SchemaError naming ``path``; keys it does not read (an older
    file's layer sizes) are ignored."""
    payload = read_json(path)
    config = payload.get("config") if isinstance(payload, dict) else None
    if not (isinstance(config, dict) and set(config) <= {f.name for f in fields(MlpConfig)}):
        raise SchemaError(f"{path}: config must be an object of MlpConfig fields, got {config!r}")
    try:
        config = MlpConfig(**config)
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"{path}: config: {exc}") from None
    try:
        weights = [np.asarray(w, dtype=float) for w in payload["weights"]]
        biases = [np.asarray(b, dtype=float) for b in payload["biases"]]
        record = tuple(payload.get("tuning_record", ()))
    except (KeyError, TypeError, ValueError) as exc:
        lists = "weights, biases and tuning_record must be lists"
        raise SchemaError(f"{path}: {lists}: {exc!r}") from None
    first = weights[0].shape[0] if weights and weights[0].ndim == 2 else None
    sizes = (first if n_inputs is None else n_inputs,) + config.hidden_layers + (1,)
    expected = list(zip(sizes, sizes[1:])) + [(size,) for size in sizes[1:]]
    shapes = [a.shape for a in weights + biases]
    if shapes != expected:
        message = f"weights and biases of shapes {shapes} do not chain layer sizes {sizes}"
        raise SchemaError(f"{path}: {message}")
    return MlpModel(weights=weights, biases=biases, config=config, tuning_record=record)
