"""File-to-file pipeline stages and the run orchestrator.

Every stage reads its inputs from disk and writes its artifacts to disk, so
any stage can be re-run in isolation. ``run_pipeline`` chains them and writes
a manifest recording every parameter (including defaulted ones), input
and artifact digests, and each stage's summary of what it measured (a
summary repeats no path and no parameter); a run is reproducible from its
manifest alone. Every stage takes its seed from ``config.seed``: the
generator draws from it, the dataset from ``seed + 1`` and the MLP grid
from ``seed + 2``.

``STAGES`` is the one table of the stage layer. Each entry is a stage
subcommand (``cli`` builds its flags from it) and names, by its key, the
``stage_*`` function that ``call_stage`` looks up on this module at call
time; the entries after ``build-dataset`` also place each path in a run
directory. ``run_pipeline`` sends every stage through ``call_stage`` in one
loop: simulate per quarter, build-dataset, then those entries. The
generator's spec comes from ``synthetic_spec`` on both ways in: ``run`` and
``generate-synthetic``.

A quarter panel travels as a ``(path, quarter)`` pair, resolved once per run
(from the generator, or from ``balance_sheets.quarter_tag``), and its
contagion proxies live at ``proxy_csv(proxy_dir, quarter)``. The dataset's
two split policies are both a ``take`` of the one joined panel, and its
``panel.csv`` alone names its columns. ``RunConfig`` checks a grid file with
the candidates ``mlp.grid_configs`` builds, the ones ``mlp.tune`` trains.
``stage_report`` counts fit.json's active set from its columns, and checks
every input (JSON keys through ``_json_value``, as ``load_dataset_dir`` does)
before it writes a file.

Both classifiers are trained on the default indicator (1 = failed by the
horizon, i.e. 1 - label), so reported coefficients and gradients are on the
log-odds-of-default scale.
"""

from __future__ import annotations

import configparser
import hashlib
import numbers
import sys
import typing
from dataclasses import asdict, dataclass, field, fields
from datetime import datetime, timezone
from functools import partial
from itertools import chain
from pathlib import Path

import numpy as np

from . import __version__, mlp
from .artifacts import float_columns, label_column, read_csv, read_json, write_csv, write_json
from .balance_sheets import (
    derive_labels,
    live_subsystem,
    load_panel,
    quarter_tag,
    write_rejection_report,
)
from .dataset import (
    COLUMN_NAMES,
    FeaturePanel,
    RobustScalerParams,
    SplitAssignment,
    accuracy,
    apply_scaler,
    build_panel,
    fit_scaler,
    rebalance,
    rebalance_size,
    rebalanced_rows,
    split,
    take,
)
from .debtrank import (
    DEFAULT_ALPHA,
    DEFAULT_BETA,
    DEFAULT_MAX_PERIODS,
    DEFAULT_SHOCK_FRACTION,
    check_propagation,
    check_shock_fraction,
    live_network,
    simulate_quarter,
)
from .errors import ConvergenceError, DataError, SchemaError, StageError
from .logit import check_lambda, fit_lasso, predict_proba, refit_active, select_lambda
from .reconstruction import DEFAULT_MAX_ITER, DEFAULT_TOLERANCE, check_ras, write_matrix
from .synthetic import SyntheticSpec, generate, write_outputs

_MANIFEST_NAME = "run_manifest.json"
# Keys that legitimately differ between byte-identical reruns.
VOLATILE_MANIFEST_KEYS = ("created_utc", "command", "out_dir")


LAMBDA_AUTO = "auto"  # the lam value that selects lambda on the validation split
SPLITS = tuple(f.name for f in fields(SplitAssignment))


def parse_grid(raw: str) -> dict | None:
    """``default`` (the 27-point grid, stored as None) or a grid JSON file's object."""
    grid = None if raw == "default" else read_json(raw)
    if raw != "default" and not isinstance(grid, dict):
        raise SchemaError(f"[mlp] grid: {raw} does not hold a JSON object")
    return grid


def parse_lambda(raw: str) -> float | str:
    """LAMBDA_AUTO or a fixed lasso penalty."""
    return raw if raw == LAMBDA_AUTO else float(raw)


def _parse_bool(raw: str) -> bool:
    try:
        return configparser.ConfigParser.BOOLEAN_STATES[raw.lower()]
    except KeyError:
        raise ValueError(f"not a boolean: {raw!r}") from None


def _admits(hint, value) -> bool:
    """Whether ``value`` has the type of the RunConfig annotation ``hint``:
    a class, ``X | Y`` or ``tuple[X, ...]``. A bool is no number."""
    args = typing.get_args(hint)
    if typing.get_origin(hint) is tuple:
        return isinstance(value, tuple) and all(_admits(args[0], v) for v in value)
    kinds = tuple({int: numbers.Integral, float: numbers.Real}.get(k, k) for k in args or (hint,))
    return isinstance(value, kinds) and (bool in kinds or not isinstance(value, bool))


def _ini(section: str, default, *keys: str, parse=None):
    """A RunConfig field read from ``[section]`` under ``keys`` (default: its
    name); ``parse`` maps the raw strings to the value, else the annotation."""
    return field(default=default, metadata={"section": section, "keys": keys, "parse": parse})


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved parameters of one pipeline run, and the stage and CLI defaults."""

    seed: int = _ini("run", SyntheticSpec.rng_seed)
    synthetic: bool = _ini("inputs", True)
    n_banks: int = _ini("inputs", SyntheticSpec.n_banks)
    default_rate: float = _ini("inputs", SyntheticSpec.default_rate)
    contagion_signal_strength: float = _ini("inputs", SyntheticSpec.contagion_signal_strength)
    start_quarter: str = _ini("inputs", SyntheticSpec.start_quarter)
    quarter_files: tuple[str, ...] = _ini(
        "inputs", (), "q1", "q2", "q3", "q4", parse=lambda *paths: paths
    )
    labels_file: str = _ini("inputs", "", "labels")
    tolerance: float = _ini("reconstruct", DEFAULT_TOLERANCE)
    max_iter: int = _ini("reconstruct", DEFAULT_MAX_ITER)
    shock_fraction: float = _ini("simulate", DEFAULT_SHOCK_FRACTION)
    beta: float = _ini("simulate", DEFAULT_BETA)
    alpha: float = _ini("simulate", DEFAULT_ALPHA)
    max_periods: int = _ini("simulate", DEFAULT_MAX_PERIODS)
    total: int = _ini("dataset", 1000)
    rebalance_after_split: bool = _ini("dataset", False)
    epochs: int = _ini("mlp", mlp.MlpConfig.epochs)
    batch_size: int = _ini("mlp", mlp.MlpConfig.batch_size)
    grid: dict | None = _ini("mlp", None, parse=parse_grid)
    lam: float | str = _ini("logit", LAMBDA_AUTO, "lambda", parse=parse_lambda)

    def __post_init__(self):
        hints = typing.get_type_hints(RunConfig)
        for f in fields(self):  # every way in: INI file, flag, manifest and Python
            section, value = f.metadata["section"], getattr(self, f.name)
            if not _admits(hints[f.name], value):
                raise SchemaError(f"[{section}] {f.name} must be {f.type}, got {value!r}")
        # The stages draw from seed, seed + 1 and seed + 2; numpy takes no negative seed.
        if self.seed < 0:
            raise SchemaError(f"[run] seed must be a nonnegative integer, got {self.seed!r}")
        if self.synthetic and (self.quarter_files or self.labels_file):
            raise SchemaError("[inputs] synthetic = true takes no q1..q4 or labels files")
        checks = (  # each value passes the check of the stage that takes it
            ("reconstruct", lambda: check_ras(self.tolerance, self.max_iter)),
            ("simulate", lambda: check_propagation(self.beta, self.alpha, self.max_periods)),
            ("simulate", lambda: check_shock_fraction(self.shock_fraction)),
            ("dataset", lambda: rebalance_size(self.total, self.rebalance_after_split)),
            ("logit", lambda: self.lam == LAMBDA_AUTO or check_lambda(self.lam)),
        )
        for section, check in checks:
            try:
                check()
            except (TypeError, ValueError) as exc:
                raise SchemaError(f"[{section}] {exc}") from None
        try:  # the run's base MLP config passes mlp.MlpConfig's own checks
            base = self.mlp_config()
        except (TypeError, ValueError) as exc:
            raise SchemaError(f"[mlp] {exc}") from None
        if self.grid is not None:
            wrong = [f"missing {k!r}" for k in mlp.GRID_KEYS if k not in self.grid]
            wrong += [f"unknown {k!r}" for k in self.grid if k not in mlp.GRID_KEYS]
            empty = [k for k, v in self.grid.items() if not (isinstance(v, list) and v)]
            wrong += [f"{k!r} is not a non-empty list" for k in empty]
            if wrong:
                raise SchemaError(f"[mlp] grid: {', '.join(wrong)}")
            try:  # and so does each candidate mlp.tune builds from it
                mlp.grid_configs(base, **self.grid)
            except (TypeError, ValueError) as exc:
                raise SchemaError(f"[mlp] grid: {exc}") from None

    def mlp_config(self) -> mlp.MlpConfig:
        """The ``[mlp]`` options as the tuning grid's base config, seeded ``seed + 2``."""
        return mlp.MlpConfig(epochs=self.epochs, batch_size=self.batch_size, rng_seed=self.seed + 2)

    def to_dict(self) -> dict:
        d = asdict(self)
        d["quarter_files"] = list(self.quarter_files)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "RunConfig":
        """Inverse of ``to_dict``; a key that names no field is a SchemaError."""
        unknown = sorted(set(d) - {f.name for f in fields(cls)})
        if unknown:
            raise SchemaError(f"unknown config keys: {', '.join(unknown)}")
        files = d.get("quarter_files", ())  # a JSON list; anything else fails the type check
        return cls(**{**d, "quarter_files": tuple(files) if isinstance(files, list) else files})

    @classmethod
    def from_ini(cls, path) -> "RunConfig":
        """Absent keys keep their defaults; anything unknown or malformed is a SchemaError."""
        # No default section, so [DEFAULT] is an unknown section like any
        # other; no interpolation, so a value is taken as written.
        parser = configparser.ConfigParser(default_section="", interpolation=None)
        try:
            if not parser.read(path, encoding="utf-8"):
                raise OSError(f"cannot read config file {path}")
        except configparser.Error as exc:
            raise SchemaError(f"{path}: {exc}") from None
        layout = [(f, f.metadata["section"], f.metadata["keys"] or (f.name,)) for f in fields(cls)]
        known = {(section, key) for _, section, keys in layout for key in keys}
        sections = {section for section, _ in known}
        unknown = [f"[{s}]" for s in parser.sections() if s not in sections]
        unknown += [f"[{s}] {k}" for s in parser for k in parser[s] if (s, k) not in known]
        if unknown:
            raise SchemaError(f"{path}: unknown config section or key: {', '.join(unknown)}")
        values = {}
        for f, section, keys in layout:
            raw = [parser[section][k] for k in keys if parser.has_option(section, k)]
            if raw:
                try:
                    values[f.name] = field_parser(f)(*raw)
                except ValueError as exc:
                    raise SchemaError(f"{path}: [{section}] {keys[0]}: {exc}") from None
        values.setdefault("synthetic", not values.get("quarter_files"))
        return cls(**values)


def field_parser(f):
    """The function that turns a RunConfig field's raw strings into its value,
    shared by the INI file and the CLI flags: the field's own ``parse``, else
    its annotation (a bool takes the INI spellings of true and false)."""
    cast = typing.get_type_hints(RunConfig)[f.name]
    return f.metadata["parse"] or (_parse_bool if cast is bool else cast)


def _sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _input_digests(paths, recorded: dict[str, str] | None = None) -> dict[str, str]:
    """Each input file's SHA-256, read once. A missing file, or one whose
    digest is not its ``recorded`` one, is a DataError naming it."""
    digests = {}
    for p in map(str, paths):
        if not Path(p).is_file():
            raise DataError(f"input {p} is missing")
        digests[p] = _sha256(p)
        if recorded is not None and recorded.get(p) != digests[p]:
            raise DataError(f"recorded input {p} differs from its recorded SHA-256")
    return digests


# ---------------------------------------------------------------------------
# stages


def _load_quarter(panel_path, quarter: str, rejects):
    """One quarter's panel; its rejected rows go to ``rejects`` when given."""
    panel = load_panel(panel_path, quarter)
    if panel.rejections and rejects:
        write_rejection_report(rejects, panel.rejections)
    return panel


def _network_summary(exposures, ras) -> dict:
    """The reconstructed network's keys of the reconstruct and simulate summaries."""
    return {
        "n_banks": exposures.n,
        "ras_iterations": ras.iterations,
        "ras_max_marginal_error": ras.max_marginal_error,
        "ras_converged": ras.converged,
    }


def stage_reconstruct(
    panel_path, quarter: str, *, config: RunConfig = RunConfig(), dump_matrix=None, rejects=None
) -> dict:
    """Load one quarter and reconstruct its live banks' network: the first
    half of ``stage_simulate``. Uses the ``[reconstruct]`` options of ``config``."""
    sub, _ = live_subsystem(_load_quarter(panel_path, quarter, rejects))
    exposures, ras = live_network(sub, tolerance=config.tolerance, max_iter=config.max_iter)
    if dump_matrix is not None:
        write_matrix(dump_matrix, exposures)
    return _network_summary(exposures, ras)


def stage_simulate(
    panel_path,
    quarter: str,
    out_csv,
    *,
    config: RunConfig = RunConfig(),
    dump_matrix=None,
    trajectory=None,
    rejects=None,
) -> dict:
    """Load one quarter, reconstruct its network, run the shock, dump proxies.

    Uses the ``[reconstruct]`` and ``[simulate]`` options of ``config``.
    """
    panel = _load_quarter(panel_path, quarter, rejects)
    sim = simulate_quarter(
        panel,
        beta=config.beta,
        alpha=config.alpha,
        shock_fraction=config.shock_fraction,
        tolerance=config.tolerance,
        max_iter=config.max_iter,
        max_periods=config.max_periods,
        record_trajectory=trajectory is not None,
    )
    run = sim.run
    header = ("bank_id", "proxy_pct", "initially_defaulted", "cascade_defaulted")
    defaulted = (run.initially_defaulted.astype(int), run.cascade_defaulted.astype(int))
    write_csv(out_csv, header, [run.bank_ids, run.proxy, *defaulted])
    if trajectory is not None:
        periods = len(run.trajectory)
        period = np.arange(periods).repeat(len(run.bank_ids))
        columns = [period, run.bank_ids * periods, np.concatenate(run.trajectory)]
        write_csv(trajectory, ("period", "bank_id", "equity"), columns)
    if dump_matrix is not None:
        write_matrix(dump_matrix, sim.exposures)
    return {
        **_network_summary(sim.exposures, sim.ras),
        "quarter": quarter,
        "n_rejected_rows": len(panel.rejections),
        "excluded_nonpositive_equity": [b for b, _ in sim.excluded],
        "closure_factor": sim.closure_factor,
        "periods": sim.run.periods,
        "converged": sim.run.converged,
        "defaults_cascaded": sim.run.defaults_cascaded,
    }


def unconverged_solvers(summary: dict) -> list[str]:
    """The solvers that ran out of budget in a stage summary; a stage that
    runs no solver reports none."""
    flags = (("RAS", "ras_converged"), ("propagation", "converged"))
    return [solver for solver, key in flags if not summary.get(key, True)]


def proxy_csv(proxy_dir, quarter: str) -> Path:
    """Where a quarter's contagion proxies live: ``proxy_dir/proxies_<quarter>.csv``."""
    return Path(proxy_dir) / f"proxies_{quarter}.csv"


def _read_proxies(path) -> tuple[tuple[str, ...], np.ndarray]:
    """A proxy CSV's bank ids and proxies, in file order."""
    table = read_csv(path, ("bank_id", "proxy_pct"))
    return table["bank_id"], float_columns(path, table, ("proxy_pct",))["proxy_pct"]


def stage_build_dataset(
    panels,
    proxy_dir,
    labels_path,
    out_dir,
    *,
    config: RunConfig = RunConfig(),
) -> dict:
    """Assemble the 24-column panel, rebalance, split and fit the scaler.

    ``panels`` are the four ``(path, quarter)`` pairs, oldest first; each
    quarter's proxies are read from ``proxy_csv(proxy_dir, quarter)``.
    Uses the ``[dataset]`` options of ``config`` and draws from
    ``config.seed + 1``. The panel CSV keeps raw attribute values;
    the sidecar carries the split indices and the robust-scaler parameters
    fit on the training rows only. By default rebalancing happens before the
    split (duplicate minority rows may then cross partitions);
    ``rebalance_after_split`` rebalances each partition separately instead,
    which is leakage-free.
    """
    quarters = [load_panel(path, quarter) for path, quarter in panels]
    proxies = [_read_proxies(proxy_csv(proxy_dir, q.quarter)) for q in quarters]
    labels = derive_labels(quarters[-1], labels_path)

    panel = build_panel(quarters, proxies, labels)
    seed = config.seed + 1
    if config.rebalance_after_split:
        raw_splits = split(panel, seed)
        per_part = rebalance_size(config.total, per_partition=True)
        parts = [
            rebalanced_rows(panel.y, rows, per_part, seed + 11 + k)
            for k, rows in enumerate(getattr(raw_splits, part) for part in SPLITS)
        ]
        final = take(panel, np.concatenate(parts))
        splits = SplitAssignment(*np.arange(len(final)).reshape(3, per_part))
    else:
        final = rebalance(panel, config.total, seed)
        splits = split(final, seed)
    scaler = fit_scaler(final, splits.train)

    out = Path(out_dir)
    header = ("bank_id",) + COLUMN_NAMES + ("label",)
    write_csv(out / "panel.csv", header, [final.bank_ids, *final.x.T, final.y])
    sidecar = {
        "seed": seed,
        "horizon": labels.horizon,
        "quarters": [q.quarter for q in quarters],
        "rebalance_after_split": config.rebalance_after_split,
        "splits": {part: getattr(splits, part).tolist() for part in SPLITS},
        "scaler": {"median": scaler.median.tolist(), "iqr": scaler.iqr.tolist()},
        "exclusions": [list(e) for e in panel.exclusions],
        "source_rows": len(panel),
        "source_failed": int((panel.y == 0).sum()),
        "unmatched_failed_ids": list(labels.unmatched),
    }
    write_json(out / "dataset.json", sidecar)
    return {
        "rows": len(final),
        "failed_rows": int((final.y == 0).sum()),
        "excluded_banks": len(panel.exclusions),
    }


def _json_value(path, payload, key: str, what: str, valid):
    """The value at the dotted ``key`` of a JSON payload read from ``path``,
    if it passes ``valid``. Anything else, a payload that is no object
    included, is a SchemaError naming ``path``, the key and ``what`` the value
    must be."""
    value = payload
    for part in key.split("."):
        value = value.get(part) if isinstance(value, dict) else None
    if not valid(value):
        raise SchemaError(f"{path}: {key} must be {what}")
    return value


def _list_of(valid, size: int | None = None):
    """A check for a non-empty list, ``size`` entries long when given, of
    entries that pass ``valid``."""
    return lambda v: isinstance(v, list) and v and size in (None, len(v)) and all(map(valid, v))


def _is_finite(value) -> bool:
    """A JSON number that is a finite double; a bool is no number."""
    return type(value) in (int, float) and abs(value) <= sys.float_info.max


def load_dataset_dir(data_dir):
    """Read panel.csv + dataset.json back into (panel, splits, scaler).

    ``panel.csv`` alone names the columns: its header must hold
    ``COLUMN_NAMES``, which are read in that order. In ``dataset.json`` each
    partition is a non-empty list of row indices, the three together holding
    each row of ``panel.csv`` exactly once, and the scaler's median and IQR
    hold one finite number per column, no IQR negative. Anything else is a
    SchemaError naming the file and the key.
    """
    data_dir = Path(data_dir)
    sidecar_path = data_dir / "dataset.json"
    sidecar = read_json(sidecar_path)
    path = data_dir / "panel.csv"
    table = read_csv(path, ("bank_id",) + COLUMN_NAMES + ("label",))
    values = float_columns(path, table, COLUMN_NAMES)
    panel = FeaturePanel(
        bank_ids=table["bank_id"],
        # C-ordered like the rows; a transposed view sums in another order
        x=np.column_stack([values[c] for c in COLUMN_NAMES]),
        y=label_column(path, table, "label"),
    )
    key = partial(_json_value, sidecar_path, sidecar)
    indices = "a non-empty list of row indices"
    parts = [key(f"splits.{part}", indices, _list_of(lambda v: type(v) is int)) for part in SPLITS]
    if sorted(chain.from_iterable(parts)) != list(range(len(panel))):
        raise SchemaError(f"{sidecar_path}: splits must hold each row of {path} exactly once")
    width = len(COLUMN_NAMES)
    per_column = f"one finite number per column ({width})"
    median = key("scaler.median", per_column, _list_of(_is_finite, width))
    iqr = key(
        "scaler.iqr", f"{per_column}, none negative",
        _list_of(lambda v: _is_finite(v) and v >= 0, width),
    )
    splits = SplitAssignment(*(np.array(part, dtype=int) for part in parts))
    return panel, splits, RobustScalerParams(np.array(median, float), np.array(iqr, float))


def _scaled_dataset(data_dir):
    """A dataset directory's scaled panel, its default indicator (1 = failed,
    i.e. 1 - label: both classifiers score default odds) and its splits."""
    panel, splits, scaler = load_dataset_dir(data_dir)
    return apply_scaler(scaler, panel), 1 - panel.y, splits


def stage_train_mlp(data_dir, out_path, *, config: RunConfig = RunConfig()) -> dict:
    """Tune and train on the ``[mlp]`` options of ``config``."""
    scaled, target, splits = _scaled_dataset(data_dir)
    base = config.mlp_config()
    model = mlp.tune(scaled.x, target, splits, base_config=base, **(config.grid or {}))
    oos = accuracy(mlp.predict(model, scaled.x[splits.test]), target[splits.test])
    mlp.save_model(model, out_path, extra={"oos_accuracy": oos, "target": "default_indicator"})
    return {
        "hidden_layers": list(model.config.hidden_layers),
        "solver": model.config.solver,
        "learning_rate": model.config.learning_rate,
        "oos_accuracy": oos,
        "grid_size": len(model.tuning_record),
    }


def stage_sensitivity(model_path, data_dir, out_csv) -> dict:
    scaled, _, splits = _scaled_dataset(data_dir)
    model = mlp.load_model(model_path, len(COLUMN_NAMES))
    gradients = mlp.input_sensitivity(model, scaled.x[splits.test])
    write_csv(out_csv, ("column_name", "gradient"), [COLUMN_NAMES, gradients])
    return {
        "sample_count": len(splits.test),
        "gradients": dict(zip(COLUMN_NAMES, gradients.tolist())),
    }


def stage_logit(data_dir, out_path, *, config: RunConfig = RunConfig()) -> dict:
    """Lasso at ``config.lam`` (or the validation-selected λ), then the refit."""
    scaled, target, splits = _scaled_dataset(data_dir)
    xt, yt = scaled.x[splits.train], target[splits.train]
    if config.lam == LAMBDA_AUTO:
        lasso = select_lambda(scaled.x, target, splits)
    else:
        lasso = fit_lasso(xt, yt, float(config.lam))
    lam_value = lasso.lam
    refit = refit_active(xt, yt, lasso.active_set)
    oos = accuracy(predict_proba(refit, scaled.x[splits.test]), target[splits.test])

    columns = []
    for j, name in enumerate(COLUMN_NAMES):
        if j in lasso.active_set:
            columns.append(
                {
                    "name": name,
                    "coefficient": float(refit.coefficients[j]),
                    "lasso_coefficient": float(lasso.coefficients[j]),
                    "pvalue": refit.pvalues[j],
                    "standard_error": refit.standard_errors[j],
                }
            )
        else:
            columns.append({"name": name, "coefficient": "lasso_reduced", "pvalue": None})
    payload = {
        "target": "default_indicator",
        "lambda": lam_value,
        "oos_accuracy": oos,
        "intercept": refit.intercept,
        "intercept_pvalue": refit.intercept_pvalue,
        "pvalue_note": "post-selection, not selection-adjusted",
        "columns": columns,
    }
    write_json(out_path, payload)
    return {
        "lambda": lam_value,
        "oos_accuracy": oos,
        "active_set_size": len(lasso.active_set),
        "active_columns": [COLUMN_NAMES[j] for j in lasso.active_set],
    }


def report_correlations(panel: FeaturePanel):
    """Pearson correlations of the panel columns; constant columns are
    flagged and their correlations recorded as 0, the diagonal is exactly 1."""
    if len(panel) == 0:
        raise DataError("cannot correlate an empty panel")
    x = panel.x
    const = (x == x[:1, :]).all(axis=0)  # exact constancy, not a std threshold
    mu = x.mean(axis=0)
    sd = x.std(axis=0)
    z = (x - mu) / np.where(const | (sd == 0.0), 1.0, sd)
    corr = z.T @ z / x.shape[0]
    corr[const, :] = 0.0
    corr[:, const] = 0.0
    np.fill_diagonal(corr, 1.0)
    flags = [COLUMN_NAMES[i] for i in np.flatnonzero(const)]
    return corr, flags


def _is_unit(value) -> bool:
    """A JSON number in [0, 1]: an accuracy or a p-value."""
    return _is_finite(value) and 0 <= value <= 1


def _is_fit_column(entry) -> bool:
    """A fit.json column: lasso-reduced with a null p-value, or a finite
    refit and lasso coefficient, a p-value in [0, 1] and a finite standard
    error of 0 or more."""
    if entry.get("coefficient") == "lasso_reduced":
        return entry.get("pvalue") is None and entry.get("standard_error") is None
    se = entry.get("standard_error")
    return (
        _is_finite(entry.get("coefficient"))
        and _is_finite(entry.get("lasso_coefficient"))
        and _is_unit(entry.get("pvalue"))
        and _is_finite(se)
        and se >= 0
    )


def _is_fit_columns(value) -> bool:
    """fit.json's columns: one valid object per COLUMN_NAMES name, in order."""
    objects = isinstance(value, list) and all(isinstance(c, dict) for c in value)
    named = objects and [c.get("name") for c in value] == list(COLUMN_NAMES)
    return named and all(map(_is_fit_column, value))


def stage_report(data_dir, model_path, sensitivity_path, fit_path, out_dir) -> dict:
    """Correlations of the dataset's columns and the run's summary.

    Every input is checked before a file is written. The sensitivity CSV must
    list ``COLUMN_NAMES`` in order, each with a finite gradient. ``fit.json``
    must give one column per name, in order, each lasso-reduced with a null
    p-value or with a finite coefficient and lasso coefficient, a p-value in
    [0, 1] and a finite standard error of 0 or more, and a finite lambda of 0
    or more. Both JSON files must hold an ``oos_accuracy`` in [0, 1].
    Anything else is a SchemaError naming the file and the key.
    """
    panel, _, _ = load_dataset_dir(data_dir)
    config = mlp.load_model(model_path, len(COLUMN_NAMES)).config
    accuracy_range = "a finite number in [0, 1]"
    model_key = partial(_json_value, model_path, read_json(model_path))
    mlp_accuracy = model_key("oos_accuracy", accuracy_range, _is_unit)
    table = read_csv(sensitivity_path, ("column_name", "gradient"))
    if table["column_name"] != COLUMN_NAMES:
        width = len(COLUMN_NAMES)
        raise SchemaError(f"{sensitivity_path}: column_name must list the {width} dataset columns")
    gradients = float_columns(sensitivity_path, table, ("gradient",))["gradient"]
    if not np.isfinite(gradients).all():
        raise SchemaError(f"{sensitivity_path}: gradient must be finite")
    fit_key = partial(_json_value, fit_path, read_json(fit_path))
    columns = fit_key(
        "columns",
        f"one object per dataset column ({len(COLUMN_NAMES)}), in order, each with a finite "
        "coefficient and lasso_coefficient, a pvalue in [0, 1] and a finite standard_error "
        'of 0 or more, or a coefficient of "lasso_reduced" and a null pvalue',
        _is_fit_columns,
    )
    logit = {
        "oos_accuracy": fit_key("oos_accuracy", accuracy_range, _is_unit),
        "lambda": fit_key("lambda", "a finite number, 0 or more", lambda v: _is_finite(v) and v >= 0),
        "active_set_size": sum(c["coefficient"] != "lasso_reduced" for c in columns),
        "columns": columns,
    }

    corr, flags = report_correlations(panel)
    out = Path(out_dir)
    corr_path = out / "correlations.csv"
    write_csv(corr_path, ("column",) + COLUMN_NAMES, [COLUMN_NAMES, *corr.T])

    summary = {
        "mlp": {
            "hidden_layers": list(config.hidden_layers),
            "solver": config.solver,
            "learning_rate": config.learning_rate,
            "oos_accuracy": mlp_accuracy,
        },
        "sensitivity_gradients": dict(zip(COLUMN_NAMES, gradients.tolist())),
        "logit": logit,
        "correlations_file": corr_path.name,
        "constant_columns": flags,
    }
    write_json(out / "summary.json", summary)
    return {"constant_columns": flags}


# ---------------------------------------------------------------------------
# orchestration


class Stage(typing.NamedTuple):
    """A stage subcommand: its help, its path flags in call order, its
    optional path keywords, the RunConfig sections of its option flags and,
    for a stage that ``run_pipeline`` runs on fixed paths, each path's place
    in the run directory ("" is the directory itself)."""

    help: str
    paths: tuple[str, ...]
    options: tuple[str, ...] = ()
    sections: tuple[str, ...] = ()
    run: tuple[str, ...] = ()


STAGES = {
    "reconstruct": Stage(
        "rebuild the bilateral exposure matrix",
        ("panel", "quarter"), ("dump_matrix", "rejects"), ("reconstruct",),
    ),
    "simulate": Stage(
        "run the contagion scenario for one quarter",
        ("panel", "quarter", "out"), ("dump_matrix", "trajectory", "rejects"),
        ("simulate", "reconstruct"),
    ),
    "build-dataset": Stage(
        "assemble the 24-column feature panel",
        ("q1", "q2", "q3", "q4", "proxies", "labels", "out"), sections=("dataset", "run"),
    ),
    "train-mlp": Stage(
        "tune and train the neural classifier",
        ("data", "out"), sections=("mlp", "run"), run=("dataset", "model.json"),
    ),
    "sensitivity": Stage(
        "mean output gradient per input column",
        ("model", "data", "out"), run=("model.json", "dataset", "sensitivity.csv"),
    ),
    "logit": Stage(
        "L1-penalized logistic fit with refit inference",
        ("data", "out"), sections=("logit",), run=("dataset", "fit.json"),
    ),
    "report": Stage(
        "correlation matrix and summary report",
        ("data", "model", "sensitivity", "fit", "out"),
        run=("dataset", "model.json", "sensitivity.csv", "fit.json", ""),
    ),
}


def call_stage(command: str, *paths, config: RunConfig, **options) -> dict:
    """Run ``STAGES[command]``'s function, ``stage_<command>`` with ``_`` for
    ``-``, on its paths; it gets ``config`` when its table entry names
    sections. The function is looked up on this module at each call, so a
    wrapper set on the module attribute (a tracer, a test) sees the call."""
    if STAGES[command].sections:
        options["config"] = config
    return globals()["stage_" + command.replace("-", "_")](*paths, **options)


# The generator options RunConfig carries under SyntheticSpec's names.
SPEC_FIELDS = tuple(
    f.name for f in fields(RunConfig) if f.name in {g.name for g in fields(SyntheticSpec)}
)


def synthetic_spec(config: RunConfig, quarters: int = 4) -> SyntheticSpec:
    """The generator's spec for ``config``: its ``SPEC_FIELDS`` and its seed."""
    shared = {name: getattr(config, name) for name in SPEC_FIELDS}
    return SyntheticSpec(quarters=quarters, rng_seed=config.seed, **shared)


def _stage(name, fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except StageError:
        raise
    except Exception as exc:
        raise StageError(name, exc) from exc


def run_pipeline(config: RunConfig, out_dir, command=None, *, input_digests=None) -> dict:
    """Execute the full pipeline and write run_manifest.json.

    Stage order: inputs -> simulate (x4) -> build-dataset -> train-mlp ->
    sensitivity -> logit -> report, each reached through ``call_stage``; the
    last four run on the run-directory paths their ``STAGES`` entries give.
    Partial artifacts are retained on error; a stage whose summary names an
    unconverged solver stops the run after writing its outputs. A missing
    input file is a DataError, and so is one whose SHA-256 differs from its
    entry in ``input_digests`` when given. The manifest records ``command``
    (default ``sys.argv``).
    """
    out = Path(out_dir)
    stages: dict[str, dict] = {}
    inputs: dict[str, str] = {}

    if config.synthetic:
        result = _stage("generate-synthetic", generate, synthetic_spec(config))
        paths = _stage("generate-synthetic", write_outputs, result, out / "inputs")
        panels = [(paths[f"panel_{p.quarter}"], p.quarter) for p in result.panels]
        labels_file = paths["failed_banks"]
        stages["generate-synthetic"] = {"n_failed": result.ground_truth["n_failed"]}
    else:
        if len(config.quarter_files) != 4 or not config.labels_file:
            raise StageError(
                "inputs",
                DataError("file mode needs four quarter files (q1..q4) and a labels file"),
            )
        labels_file = config.labels_file
        inputs = _input_digests((*config.quarter_files, labels_file), input_digests)
        panels = [(p, _stage("inputs", quarter_tag, p)) for p in config.quarter_files]

    proxy_dir = out / "proxies"
    calls = [  # (stage, its paths, its optional paths), in run order
        (
            "simulate",
            (path, tag, proxy_csv(proxy_dir, tag)),
            {"rejects": proxy_dir / f"rejected_rows_{tag}.csv"},
        )
        for path, tag in panels
    ]
    calls.append(("build-dataset", (panels, proxy_dir, labels_file, out / "dataset"), {}))
    for name, stage in STAGES.items():
        if stage.run:
            calls.append((name, [out / place for place in stage.run], {}))
    for name, args, options in calls:
        summary = _stage(name, call_stage, name, *args, config=config, **options)
        failed = unconverged_solvers(summary)
        if failed:
            budget = f"max_iter = {config.max_iter}, max_periods = {config.max_periods}"
            where = f"quarter {summary['quarter']}: " if "quarter" in summary else ""
            error = f"{where}{' and '.join(failed)} did not converge ({budget})"
            raise StageError(name, ConvergenceError(error))
        if "quarter" in STAGES[name].paths:  # a per-quarter stage keeps a list
            stages.setdefault(name, []).append(summary)
        else:
            stages[name] = summary

    artifacts = {}
    for path in sorted(out.rglob("*")):
        if path.is_file() and path.name != _MANIFEST_NAME:
            artifacts[str(path.relative_to(out))] = _sha256(path)

    manifest = {
        "tool": f"banknet {__version__}",
        "created_utc": datetime.now(timezone.utc).isoformat(),
        "command": list(command) if command else list(sys.argv),
        "out_dir": str(out),
        "config": config.to_dict(),
        "inputs": inputs,
        "stages": stages,
        "artifacts": artifacts,
    }
    write_json(out / _MANIFEST_NAME, manifest)
    return manifest


def rerun_from_manifest(manifest_path, out_dir) -> dict:
    """Re-execute a run from its manifest; outputs are byte-identical. Every
    recorded input must still have its recorded SHA-256 (else DataError)."""
    manifest = read_json(manifest_path)
    config = RunConfig.from_dict(manifest["config"])
    command = ["rerun", str(manifest_path)]
    return run_pipeline(config, out_dir, command, input_digests=manifest["inputs"])
