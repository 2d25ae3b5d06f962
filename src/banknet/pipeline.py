"""File-to-file pipeline stages and the run orchestrator.

Every stage reads its inputs from disk and writes its artifacts to disk, so
any stage can be re-run in isolation. ``run_pipeline`` chains them and writes
a manifest recording every parameter (including defaulted ones), seeds and
artifact digests; a run is reproducible from its manifest alone.

Both classifiers are trained on the default indicator (1 = failed by the
horizon, i.e. 1 - label), so reported coefficients and gradients are on the
log-odds-of-default scale.
"""

from __future__ import annotations

import configparser
import csv
import hashlib
import json
import sys
from dataclasses import asdict, dataclass, replace
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__, mlp
from .balance_sheets import (
    derive_labels,
    load_panel,
    write_rejection_report,
)
from .dataset import (
    FeaturePanel,
    RobustScalerParams,
    SplitAssignment,
    apply_scaler,
    build_panel,
    fit_scaler,
    rebalance,
    split,
)
from .debtrank import (
    DEFAULT_ALPHA,
    DEFAULT_MAX_PERIODS,
    DEFAULT_SHOCK_FRACTION,
    simulate_quarter,
)
from .errors import DataError, SchemaError, StageError
from .logit import (
    accuracy as logit_accuracy,
    fit_lasso,
    refit_active,
    select_lambda,
)
from .reconstruction import (
    DEFAULT_MAX_ITER,
    DEFAULT_TOLERANCE,
    write_matrix,
)
from .synthetic import SyntheticSpec, generate, write_outputs

_MANIFEST_NAME = "run_manifest.json"
# Keys that legitimately differ between byte-identical reruns.
VOLATILE_MANIFEST_KEYS = ("created_utc", "command", "out_dir")


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved parameters of one pipeline run."""

    seed: int = 0
    # inputs
    synthetic: bool = True
    n_banks: int = 1000
    default_rate: float = 0.02
    contagion_signal_strength: float = 2.0
    start_quarter: str = "2009Q1"
    quarter_files: tuple[str, ...] = ()
    labels_file: str = ""
    # reconstruction
    tolerance: float = DEFAULT_TOLERANCE
    max_iter: int = DEFAULT_MAX_ITER
    # simulation
    shock_fraction: float = DEFAULT_SHOCK_FRACTION
    beta: float = 1.0
    alpha: float = DEFAULT_ALPHA
    max_periods: int = DEFAULT_MAX_PERIODS
    # dataset
    total: int = 1000
    rebalance_after_split: bool = False
    # classifiers
    epochs: int = 300
    batch_size: int = 32
    grid: dict | None = None  # None = the default 27-point grid
    lam: float | str = "auto"

    def to_dict(self) -> dict:
        d = asdict(self)
        d["quarter_files"] = list(self.quarter_files)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "RunConfig":
        d = dict(d)
        d["quarter_files"] = tuple(d.get("quarter_files", ()))
        return cls(**d)

    @classmethod
    def from_ini(cls, path) -> "RunConfig":
        parser = configparser.ConfigParser()
        read = parser.read(path)
        if not read:
            raise OSError(f"cannot read config file {path}")
        base = cls()

        def get(section, option, cast, default):
            if parser.has_option(section, option):
                if cast is bool:
                    return parser.getboolean(section, option)
                return cast(parser.get(section, option))
            return default

        grid = get("mlp", "grid", str, "default")
        grid_dict = None if grid == "default" else load_grid_file(grid)
        lam_raw = get("logit", "lambda", str, "auto")
        lam = "auto" if lam_raw == "auto" else float(lam_raw)
        quarter_files = tuple(
            parser.get("inputs", f"q{k}")
            for k in range(1, 5)
            if parser.has_option("inputs", f"q{k}")
        )
        return cls(
            seed=get("run", "seed", int, base.seed),
            synthetic=get("inputs", "synthetic", bool, not quarter_files),
            n_banks=get("inputs", "n_banks", int, base.n_banks),
            default_rate=get("inputs", "default_rate", float, base.default_rate),
            contagion_signal_strength=get(
                "inputs", "contagion_signal_strength", float, base.contagion_signal_strength
            ),
            start_quarter=get("inputs", "start_quarter", str, base.start_quarter),
            quarter_files=quarter_files,
            labels_file=get("inputs", "labels", str, base.labels_file),
            tolerance=get("reconstruct", "tolerance", float, base.tolerance),
            max_iter=get("reconstruct", "max_iter", int, base.max_iter),
            shock_fraction=get("simulate", "shock_fraction", float, base.shock_fraction),
            beta=get("simulate", "beta", float, base.beta),
            alpha=get("simulate", "alpha", float, base.alpha),
            max_periods=get("simulate", "max_periods", int, base.max_periods),
            total=get("dataset", "total", int, base.total),
            rebalance_after_split=get(
                "dataset", "rebalance_after_split", bool, base.rebalance_after_split
            ),
            epochs=get("mlp", "epochs", int, base.epochs),
            batch_size=get("mlp", "batch_size", int, base.batch_size),
            grid=grid_dict,
            lam=lam,
        )


def load_grid_file(path) -> dict:
    with open(path, encoding="utf-8") as fh:
        grid = json.load(fh)
    for key in ("structures", "solvers", "learning_rates"):
        if key not in grid:
            raise SchemaError(f"grid file {path} is missing {key!r}")
    return grid


def _grid_args(grid: dict | None) -> dict:
    if grid is None:
        return {}
    return {
        "structures": tuple(tuple(s) for s in grid["structures"]),
        "solvers": tuple(grid["solvers"]),
        "learning_rates": tuple(grid["learning_rates"]),
    }


def _sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _write_json(path, payload) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# stages


def stage_simulate(
    panel_path,
    quarter: str,
    out_csv,
    *,
    shock_fraction: float = DEFAULT_SHOCK_FRACTION,
    beta: float = 1.0,
    alpha: float = DEFAULT_ALPHA,
    tolerance: float = DEFAULT_TOLERANCE,
    max_iter: int = DEFAULT_MAX_ITER,
    max_periods: int = DEFAULT_MAX_PERIODS,
    dump_matrix=None,
    trajectory_path=None,
    rejects_path=None,
) -> dict:
    """Load one quarter, reconstruct its network, run the shock, dump proxies."""
    panel = load_panel(panel_path, quarter)
    if panel.rejections and rejects_path:
        write_rejection_report(rejects_path, panel.rejections)
    sim = simulate_quarter(
        panel,
        beta=beta,
        alpha=alpha,
        shock_fraction=shock_fraction,
        tolerance=tolerance,
        max_iter=max_iter,
        max_periods=max_periods,
        record_trajectory=trajectory_path is not None,
    )
    with open(out_csv, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(("bank_id", "proxy_pct", "initially_defaulted", "cascade_defaulted"))
        run = sim.run
        for i, bank_id in enumerate(sim.bank_ids):
            writer.writerow(
                (
                    bank_id,
                    repr(float(run.proxy[i])),
                    int(run.initially_defaulted[i]),
                    int(run.cascade_defaulted[i]),
                )
            )
    if trajectory_path is not None:
        with open(trajectory_path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(("period", "bank_id", "equity"))
            for t, equities in enumerate(sim.run.trajectory):
                for i, bank_id in enumerate(sim.bank_ids):
                    writer.writerow((t, bank_id, repr(float(equities[i]))))
    if dump_matrix is not None:
        write_matrix(dump_matrix, sim.exposures)
    return {
        "quarter": quarter,
        "shock": {"mode": "equity_fraction", "fraction": shock_fraction, "targets": "all banks"},
        "beta": beta,
        "alpha": alpha,
        "n_banks": len(sim.bank_ids),
        "n_rejected_rows": len(panel.rejections),
        "excluded_nonpositive_equity": [b for b, _ in sim.excluded],
        "closure_factor": sim.closure_factor,
        "ras_iterations": sim.ras.iterations,
        "ras_max_marginal_error": sim.ras.max_marginal_error,
        "ras_converged": sim.ras.converged,
        "periods": sim.run.periods,
        "converged": sim.run.converged,
        "defaults_cascaded": sim.run.defaults_cascaded,
    }


def _read_proxies(path) -> dict[str, float]:
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or "proxy_pct" not in reader.fieldnames:
            raise SchemaError(f"{path}: not a proxy CSV (missing proxy_pct)")
        return {row["bank_id"]: float(row["proxy_pct"]) for row in reader}


def _take(panel: FeaturePanel, rows: np.ndarray) -> FeaturePanel:
    return replace(
        panel,
        bank_ids=tuple(panel.bank_ids[i] for i in rows),
        x=panel.x[rows],
        y=panel.y[rows],
    )


def stage_build_dataset(
    quarter_paths,
    proxy_paths,
    labels_path,
    out_dir,
    *,
    total: int = 1000,
    seed: int = 0,
    rebalance_after_split: bool = False,
    horizon: str | None = None,
) -> dict:
    """Assemble the 24-column panel, rebalance, split and fit the scaler.

    The panel CSV keeps raw attribute values; the sidecar carries the split
    indices and the robust-scaler parameters fit on the training rows only.
    By default rebalancing happens before the split (duplicate minority rows
    may then cross partitions); ``rebalance_after_split`` rebalances each
    partition separately instead, which is leakage-free.
    """
    if len(quarter_paths) != 4 or len(proxy_paths) != 4:
        raise DataError(
            f"expected 4 quarter files and 4 proxy files, got "
            f"{len(quarter_paths)} and {len(proxy_paths)}"
        )
    for p in list(quarter_paths) + list(proxy_paths) + [labels_path]:
        if not Path(p).exists():
            raise FileNotFoundError(f"input file not found: {p}")
    quarters = []
    for path in quarter_paths:
        tag = _infer_quarter_tag(path)
        quarters.append(load_panel(path, tag))
    proxies = [_read_proxies(p) for p in proxy_paths]
    labels = derive_labels(quarters[-1], labels_path, horizon=horizon)

    panel = build_panel(quarters, proxies, labels)
    if rebalance_after_split:
        raw_splits = split(panel, seed)
        per_part = total // 3
        per_part += per_part % 2  # rebalance needs an even target
        parts = [
            rebalance(_take(panel, rows), per_part, seed + 11 + k)
            for k, rows in enumerate((raw_splits.train, raw_splits.validation, raw_splits.test))
        ]
        final = FeaturePanel(
            bank_ids=tuple(b for p in parts for b in p.bank_ids),
            column_names=panel.column_names,
            x=np.vstack([p.x for p in parts]),
            y=np.concatenate([p.y for p in parts]),
            exclusions=panel.exclusions,
        )
        bounds = np.cumsum([0] + [len(p) for p in parts])
        splits = SplitAssignment(
            train=np.arange(bounds[0], bounds[1]),
            validation=np.arange(bounds[1], bounds[2]),
            test=np.arange(bounds[2], bounds[3]),
            rng_seed=seed,
        )
    else:
        final = rebalance(panel, total, seed)
        splits = split(final, seed)
    scaler = fit_scaler(final, splits.train)

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    panel_path = out / "panel.csv"
    with open(panel_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(("bank_id",) + final.column_names + ("label",))
        for i, bank_id in enumerate(final.bank_ids):
            writer.writerow(
                (bank_id,)
                + tuple(repr(float(v)) for v in final.x[i])
                + (int(final.y[i]),)
            )
    sidecar = {
        "column_names": list(final.column_names),
        "seed": seed,
        "horizon": labels.horizon,
        "quarters": [q.quarter for q in quarters],
        "rebalance_after_split": rebalance_after_split,
        "splits": {
            "train": splits.train.tolist(),
            "validation": splits.validation.tolist(),
            "test": splits.test.tolist(),
        },
        "scaler": {"median": scaler.median.tolist(), "iqr": scaler.iqr.tolist()},
        "exclusions": [list(e) for e in panel.exclusions],
        "source_rows": len(panel),
        "source_failed": int((panel.y == 0).sum()),
        "unmatched_failed_ids": list(labels.unmatched),
    }
    _write_json(out / "dataset.json", sidecar)
    return {
        "rows": len(final),
        "failed_rows": int((final.y == 0).sum()),
        "source_rows": len(panel),
        "source_failed": int((panel.y == 0).sum()),
        "excluded_banks": len(panel.exclusions),
        "panel": str(panel_path),
    }


def _infer_quarter_tag(path) -> str:
    """Panel files carry their tag (panel_2009Q1.csv); fall back to the data."""
    from .balance_sheets import validate_quarter

    stem = Path(path).stem
    tail = stem.rsplit("_", 1)[-1]
    try:
        return validate_quarter(tail)
    except ValueError:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.DictReader(fh)
            if reader.fieldnames is None or "quarter" not in reader.fieldnames:
                raise SchemaError(f"{path}: cannot determine quarter tag") from None
            first = next(reader, None)
            if first is None:
                raise SchemaError(f"{path}: empty panel, cannot determine quarter") from None
            try:
                return validate_quarter(first["quarter"])
            except ValueError as exc:
                raise SchemaError(f"{path}: {exc}") from None


def load_dataset_dir(data_dir):
    """Read panel.csv + dataset.json back into (panel, splits, scaler)."""
    data_dir = Path(data_dir)
    with open(data_dir / "dataset.json", encoding="utf-8") as fh:
        sidecar = json.load(fh)
    bank_ids = []
    rows = []
    labels = []
    with open(data_dir / "panel.csv", newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        for row in reader:
            bank_ids.append(row["bank_id"])
            rows.append([float(row[c]) for c in sidecar["column_names"]])
            labels.append(int(row["label"]))
    panel = FeaturePanel(
        bank_ids=tuple(bank_ids),
        column_names=tuple(sidecar["column_names"]),
        x=np.array(rows, dtype=float).reshape(len(bank_ids), -1),
        y=np.array(labels, dtype=int),
    )
    splits = SplitAssignment(
        train=np.array(sidecar["splits"]["train"], dtype=int),
        validation=np.array(sidecar["splits"]["validation"], dtype=int),
        test=np.array(sidecar["splits"]["test"], dtype=int),
        rng_seed=sidecar["seed"],
    )
    scaler = RobustScalerParams(
        median=np.array(sidecar["scaler"]["median"], dtype=float),
        iqr=np.array(sidecar["scaler"]["iqr"], dtype=float),
    )
    return panel, splits, scaler


def stage_train_mlp(
    data_dir,
    out_path,
    *,
    seed: int = 0,
    grid: dict | None = None,
    epochs: int = 300,
    batch_size: int = 32,
) -> dict:
    panel, splits, scaler = load_dataset_dir(data_dir)
    scaled = apply_scaler(scaler, panel)
    target = 1 - panel.y  # default indicator: the model scores default odds
    base = mlp.MlpConfig(epochs=epochs, batch_size=batch_size, rng_seed=seed)
    model = mlp.tune(scaled.x, target, splits, base_config=base, **_grid_args(grid))
    oos = mlp.accuracy(model, scaled.x[splits.test], target[splits.test])
    mlp.save_model(
        model,
        out_path,
        extra={"oos_accuracy": oos, "target": "default_indicator"},
    )
    return {
        "hidden_layers": list(model.config.hidden_layers),
        "solver": model.config.solver,
        "learning_rate": model.config.learning_rate,
        "oos_accuracy": oos,
        "grid_size": len(model.tuning_record),
        "model": str(out_path),
    }


def stage_sensitivity(model_path, data_dir, out_csv) -> dict:
    panel, splits, scaler = load_dataset_dir(data_dir)
    scaled = apply_scaler(scaler, panel)
    model = mlp.load_model(model_path)
    report = mlp.input_sensitivity(model, scaled.x[splits.test])
    with open(out_csv, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(("column_name", "gradient"))
        for name, g in zip(panel.column_names, report.gradients):
            writer.writerow((name, repr(float(g))))
    return {
        "sample_count": report.sample_count,
        "gradients": {
            name: float(g) for name, g in zip(panel.column_names, report.gradients)
        },
    }


def stage_logit(data_dir, out_path, *, lam: float | str = "auto") -> dict:
    panel, splits, scaler = load_dataset_dir(data_dir)
    scaled = apply_scaler(scaler, panel)
    target = 1 - panel.y  # default indicator, as for the MLP
    if lam == "auto":
        lam_value = select_lambda(scaled.x, target, splits)
    else:
        lam_value = float(lam)
    xt, yt = scaled.x[splits.train], target[splits.train]
    lasso = fit_lasso(xt, yt, lam_value)
    refit = refit_active(xt, yt, lasso.active_set)
    oos = logit_accuracy(refit, scaled.x[splits.test], target[splits.test])

    columns = []
    for j, name in enumerate(panel.column_names):
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
        "active_set_size": len(lasso.active_set),
        "pvalue_note": "post-selection, not selection-adjusted",
        "columns": columns,
    }
    _write_json(out_path, payload)
    return {
        "lambda": lam_value,
        "oos_accuracy": oos,
        "active_set_size": len(lasso.active_set),
        "active_columns": [panel.column_names[j] for j in lasso.active_set],
        "fit": str(out_path),
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
    flags = [panel.column_names[i] for i in np.flatnonzero(const)]
    return corr, flags


def stage_report(data_dir, model_path, sensitivity_path, fit_path, out_dir) -> dict:
    panel, _, _ = load_dataset_dir(data_dir)
    corr, flags = report_correlations(panel)
    out = Path(out_dir)
    corr_path = out / "correlations.csv"
    with open(corr_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(("column",) + panel.column_names)
        for i, name in enumerate(panel.column_names):
            writer.writerow((name,) + tuple(repr(float(v)) for v in corr[i]))

    with open(model_path, encoding="utf-8") as fh:
        model_payload = json.load(fh)
    with open(fit_path, encoding="utf-8") as fh:
        fit_payload = json.load(fh)
    gradients = {}
    with open(sensitivity_path, newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            gradients[row["column_name"]] = float(row["gradient"])

    summary = {
        "mlp": {
            "hidden_layers": model_payload["config"]["hidden_layers"],
            "solver": model_payload["config"]["solver"],
            "learning_rate": model_payload["config"]["learning_rate"],
            "oos_accuracy": model_payload.get("oos_accuracy"),
        },
        "sensitivity_gradients": gradients,
        "logit": {
            "oos_accuracy": fit_payload["oos_accuracy"],
            "lambda": fit_payload["lambda"],
            "active_set_size": fit_payload["active_set_size"],
            "columns": fit_payload["columns"],
        },
        "correlations_file": corr_path.name,
        "constant_columns": flags,
    }
    summary_path = out / "summary.json"
    _write_json(summary_path, summary)
    return {"summary": str(summary_path), "correlations": str(corr_path)}


# ---------------------------------------------------------------------------
# orchestration


def _stage(name, fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except StageError:
        raise
    except Exception as exc:
        raise StageError(name, exc) from exc


def _relativize(obj, root: str):
    """Strip the run directory off paths in stage summaries so manifests of
    byte-identical runs are identical regardless of where they were written."""
    if isinstance(obj, dict):
        return {k: _relativize(v, root) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_relativize(v, root) for v in obj]
    if isinstance(obj, str) and obj.startswith(root):
        return obj[len(root):].lstrip("/\\")
    return obj


def run_pipeline(config: RunConfig, out_dir, command=None) -> dict:
    """Execute the full pipeline and write run_manifest.json.

    Stage order: inputs -> simulate (x4) -> build-dataset -> train-mlp ->
    sensitivity -> logit -> report. Partial artifacts are retained on error.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    stages: dict[str, dict] = {}
    inputs: dict[str, str] = {}

    if config.synthetic:
        spec = SyntheticSpec(
            n_banks=config.n_banks,
            quarters=4,
            default_rate=config.default_rate,
            contagion_signal_strength=config.contagion_signal_strength,
            rng_seed=config.seed,
            start_quarter=config.start_quarter,
            shock_fraction=config.shock_fraction,
        )
        result = _stage("generate-synthetic", generate, spec)
        paths = _stage("generate-synthetic", write_outputs, result, out / "inputs")
        quarter_files = [paths[f"panel_{p.quarter}"] for p in result.panels]
        labels_file = paths["failed_banks"]
        stages["generate-synthetic"] = {
            "n_banks": spec.n_banks,
            "n_failed": result.ground_truth["n_failed"],
            "files": paths,
        }
    else:
        if len(config.quarter_files) != 4 or not config.labels_file:
            raise StageError(
                "inputs",
                DataError("file mode needs four quarter files (q1..q4) and a labels file"),
            )
        quarter_files = list(config.quarter_files)
        labels_file = config.labels_file
        for p in quarter_files + [labels_file]:
            if not Path(p).exists():
                raise StageError("inputs", FileNotFoundError(f"input file not found: {p}"))
            inputs[str(p)] = _sha256(p)

    proxy_dir = out / "proxies"
    proxy_dir.mkdir(exist_ok=True)
    proxy_files = []
    sim_summaries = []
    for path in quarter_files:
        tag = _infer_quarter_tag(path)
        proxy_path = proxy_dir / f"proxies_{tag}.csv"
        summary = _stage(
            "simulate",
            stage_simulate,
            path,
            tag,
            proxy_path,
            shock_fraction=config.shock_fraction,
            beta=config.beta,
            alpha=config.alpha,
            tolerance=config.tolerance,
            max_iter=config.max_iter,
            max_periods=config.max_periods,
            rejects_path=proxy_dir / f"rejected_rows_{tag}.csv",
        )
        proxy_files.append(str(proxy_path))
        sim_summaries.append(summary)
    stages["simulate"] = sim_summaries

    dataset_dir = out / "dataset"
    stages["build-dataset"] = _stage(
        "build-dataset",
        stage_build_dataset,
        quarter_files,
        proxy_files,
        labels_file,
        dataset_dir,
        total=config.total,
        seed=config.seed + 1,
        rebalance_after_split=config.rebalance_after_split,
    )
    model_path = out / "model.json"
    stages["train-mlp"] = _stage(
        "train-mlp",
        stage_train_mlp,
        dataset_dir,
        model_path,
        seed=config.seed + 2,
        grid=config.grid,
        epochs=config.epochs,
        batch_size=config.batch_size,
    )
    sensitivity_path = out / "sensitivity.csv"
    stages["sensitivity"] = _stage(
        "sensitivity", stage_sensitivity, model_path, dataset_dir, sensitivity_path
    )
    fit_path = out / "fit.json"
    stages["logit"] = _stage("logit", stage_logit, dataset_dir, fit_path, lam=config.lam)
    stages["report"] = _stage(
        "report", stage_report, dataset_dir, model_path, sensitivity_path, fit_path, out
    )

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
        "seeds": {
            "master": config.seed,
            "synthetic": config.seed,
            "dataset": config.seed + 1,
            "mlp_base": config.seed + 2,
        },
        "inputs": inputs,
        "stages": _relativize(stages, str(out) + "/"),
        "artifacts": artifacts,
    }
    _write_json(out / _MANIFEST_NAME, manifest)
    return manifest


def rerun_from_manifest(manifest_path, out_dir) -> dict:
    """Re-execute a run from its manifest; outputs are byte-identical."""
    with open(manifest_path, encoding="utf-8") as fh:
        manifest = json.load(fh)
    config = RunConfig.from_dict(manifest["config"])
    return run_pipeline(config, out_dir, command=["rerun", str(manifest_path)])
