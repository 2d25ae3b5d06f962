"""The benchmark's workloads: set-up, timed rounds and output checks.

A workload runs in rounds. In the parent process ``generate`` writes the
input files (``synthetic.generate`` + ``write_outputs``, timed as set-up) and
``inputs`` turns the last set of them into the workload's inputs (untimed).
In the timed process ``prepare`` (untimed) reads what a round needs,
``run_round`` is the timed region, and ``check`` compares every operation's
output with the package's invariants and an independent reference, after the
last round; an operation whose check raises is failed. An operation is one
pipeline run, one simulated quarter or one scenario.

Every call into banknet goes through a module attribute
(``pipeline.run_pipeline``, ``debtrank.propagate``) so the tracer's wraps see
it.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
import sys
import time
from contextlib import nullcontext
from pathlib import Path

import numpy as np
from banknet import balance_sheets, debtrank, pipeline, reconstruction, synthetic
from banknet.dataset import CONTAGION_COLUMNS

import reference

# Generator seed of the workloads whose data is fixed: the acceptance suite's
# seed (criterion 7 is defined on it). On those workloads ``--seed`` permutes
# the input rows instead, which ingestion (it sorts by bank id) must undo.
FIXED_DATA_SEED = 42


def _span(tracer, name, **attrs):
    return tracer.span(name, **attrs) if tracer is not None else nullcontext()


def _panel_paths(paths):
    return [(paths[key], key[len("panel_"):]) for key in sorted(paths) if key.startswith("panel_")]


def _live_panel(path, quarter):
    """The panel the simulate path reconstructs: banks with positive equity."""
    panel = balance_sheets.load_panel(path, quarter)
    live = tuple(r for r in panel.records if r.equity > 0)
    return balance_sheets.QuarterlyPanel(quarter=quarter, records=live)


def _reconstruct_closed(live):
    sub = balance_sheets.close_system(live)
    ia, il = sub.interbank_assets(), sub.interbank_liabilities()
    exposures, ras = reconstruction.reconstruct(ia, il, bank_ids=sub.bank_ids)
    return sub, ia, il, exposures, ras


def _shuffle_rows(path, rng):
    """Permute a CSV's data rows in place (the header stays first)."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    body = rows[1:]
    order = rng.permutation(len(body))
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(rows[0])
        writer.writerows(body[i] for i in order)


def _error(exc):
    return f"{type(exc).__name__}: {exc}"


def _check_each(ops, check_op):
    """Set each operation's failures from ``check_op``; an error of the run
    stands as its failure, and a check that raises fails the operation."""
    for op in ops:
        if "error" in op:
            continue
        try:
            op["failures"] = check_op(op)
        except Exception as exc:  # a missing or malformed output
            op["failures"] = [f"output check raised {_error(exc)}"]


def _environment():
    """What the pipeline's floating-point results depend on besides the
    sources: Python, numpy and its BLAS build, CPU features, BLAS threads."""
    return json.dumps(
        {
            "python": sys.version,
            "numpy": np.show_config(mode="dicts"),
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        },
        sort_keys=True, default=str,
    )


class AcceptancePipeline:
    """``run_pipeline`` on the acceptance suite's fixed configuration.

    The configuration, seed 42 included, is fixed because criterion 7 and the
    ROADMAP baseline are stated on it; ``--seed`` permutes the rows of every
    input file instead. Ingestion sorts by bank id, so every seed must yield
    the same artifacts. An untraced run makes two pipeline calls, so that
    ``pipeline_s`` is the faster of two; the digest check compares their
    artifacts with each other and with those of every earlier run of the same
    sources, parameters and environment in this checkout. The first such run
    only records its digests.
    """

    name = "acceptance_pipeline"
    min_rounds = 2
    defaults = {
        "n_banks": 1000,
        "default_rate": 0.05,
        "contagion_signal_strength": 3.0,
        "total": 1000,
        "epochs": 300,
        "batch_size": 32,
        "grid": None,
        "lam": "auto",
        "mlp_floor": reference.MLP_FLOOR,
        "logit_floor": reference.LOGIT_FLOOR,
    }

    def __init__(self, params):
        self.p = {**self.defaults, **params}

    def generate(self, seed, out):
        spec = synthetic.SyntheticSpec(
            n_banks=self.p["n_banks"],
            quarters=4,
            default_rate=self.p["default_rate"],
            contagion_signal_strength=self.p["contagion_signal_strength"],
            rng_seed=FIXED_DATA_SEED,
        )
        return synthetic.write_outputs(synthetic.generate(spec), out)

    def inputs(self, paths, seed):
        rng = np.random.default_rng(seed)
        for path, _ in _panel_paths(paths):
            _shuffle_rows(path, rng)
        _shuffle_rows(paths["failed_banks"], rng)
        return {
            "quarter_files": [path for path, _ in _panel_paths(paths)],
            "labels_file": paths["failed_banks"],
        }

    def prepare(self, inputs, workdir):
        self.workdir = Path(workdir)
        key = hashlib.sha256(json.dumps(self.p, sort_keys=True).encode())
        key.update(_environment().encode())
        for path in sorted(Path(pipeline.__file__).parent.glob("*.py")):
            key.update(path.read_bytes())
        # The run directory's parent outlives the run.
        self.digest_record = self.workdir.parent / f"acceptance_digests_{key.hexdigest()[:16]}.json"
        self.config = pipeline.RunConfig(
            seed=FIXED_DATA_SEED,
            synthetic=False,
            n_banks=self.p["n_banks"],
            default_rate=self.p["default_rate"],
            contagion_signal_strength=self.p["contagion_signal_strength"],
            total=self.p["total"],
            epochs=self.p["epochs"],
            batch_size=self.p["batch_size"],
            grid=self.p["grid"],
            lam=self.p["lam"],
            quarter_files=tuple(inputs["quarter_files"]),
            labels_file=inputs["labels_file"],
        )

    def run_round(self, k, tracer):
        out = self.workdir / f"pipeline_{k}"
        op = {"kind": "pipeline_run", "out": str(out), "banks": 0, "propagations": 0}
        start = time.perf_counter()
        with _span(tracer, "op.pipeline_run"):
            try:
                manifest = pipeline.run_pipeline(self.config, out, command=["perfbench"])
            except Exception as exc:  # counted as a failed operation
                op["error"] = _error(exc)
        wall = time.perf_counter() - start
        op["wall"] = wall
        if "error" not in op:
            sims = manifest["stages"]["simulate"]
            op["banks"] = sum(s["n_banks"] for s in sims)
            op["propagations"] = len(sims)
            op["artifacts"] = manifest["artifacts"]
        return wall, [op]

    def check(self, rounds, perturb):
        """Criterion 7 on every run, and identical artifact digests across
        runs. The first run of a checkout records its digests.

        ``perturb`` raises the MLP floor above 1 so the check must fail.
        """
        mlp_floor = 1.01 if perturb else self.p["mlp_floor"]
        first_artifacts = None
        if self.digest_record.exists():
            first_artifacts = json.loads(self.digest_record.read_text())
        extra = {}

        def check_op(op):
            nonlocal first_artifacts
            summary = json.loads((Path(op["out"]) / "summary.json").read_text())
            failures = reference.criterion7_failures(
                summary, CONTAGION_COLUMNS, op["wall"], mlp_floor, self.p["logit_floor"]
            )
            extra.setdefault("mlp_oos_accuracy", summary["mlp"]["oos_accuracy"])
            extra.setdefault("logit_oos_accuracy", summary["logit"]["oos_accuracy"])
            if first_artifacts is None:
                first_artifacts = op["artifacts"]
                tmp = self.digest_record.with_suffix(".tmp")
                tmp.write_text(json.dumps(first_artifacts))
                tmp.replace(self.digest_record)
            elif op["artifacts"] != first_artifacts:
                changed = sorted(
                    k for k in set(op["artifacts"]) | set(first_artifacts)
                    if op["artifacts"].get(k) != first_artifacts.get(k)
                )
                failures.append(f"artifact digests differ from an earlier run: {changed}")
            return failures

        _check_each((op for r in rounds for op in r["ops"]), check_op)
        return extra


class NetworkScale:
    """Four quarters of a large system through ``pipeline.stage_simulate``."""

    name = "network_scale"
    min_rounds = 3
    defaults = {"n_banks": 4000, "quarters": 4}

    def __init__(self, params):
        self.p = {**self.defaults, **params}

    def generate(self, seed, out):
        spec = synthetic.SyntheticSpec(
            n_banks=self.p["n_banks"], quarters=self.p["quarters"], rng_seed=seed
        )
        return synthetic.write_outputs(synthetic.generate(spec), out)

    def inputs(self, paths, seed):
        return {"panels": _panel_paths(paths)}

    def prepare(self, inputs, workdir):
        self.workdir = Path(workdir)
        self.panels = [tuple(p) for p in inputs["panels"]]

    def run_round(self, k, tracer):
        ops = []
        start = time.perf_counter()
        for path, quarter in self.panels:
            out_csv = self.workdir / f"proxies_{quarter}_{k}.csv"
            op = {"kind": "quarter", "quarter": quarter, "path": path, "csv": str(out_csv)}
            with _span(tracer, "op.quarter", quarter=quarter):
                try:
                    op["summary"] = pipeline.stage_simulate(path, quarter, out_csv)
                except Exception as exc:  # counted as a failed operation
                    op["error"] = _error(exc)
            op["banks"] = op["summary"]["n_banks"] if "summary" in op else 0
            op["propagations"] = 1 if "summary" in op else 0
            ops.append(op)
        return time.perf_counter() - start, ops

    def check(self, rounds, perturb):
        """Flags, marginals, diagonal and proxies against the dense reference.

        ``perturb`` shifts one proxy of the first operation by 1e-6 points.
        """
        refs = {}
        for path, quarter in self.panels:
            sub, ia, il, exposures, ras = _reconstruct_closed(_live_panel(path, quarter))
            fractions = np.full(len(sub), debtrank.DEFAULT_SHOCK_FRACTION)
            refs[quarter] = (
                sub.bank_ids,
                reference.network_failures(exposures, ras, ia, il, reconstruction.DEFAULT_TOLERANCE),
                reference.reference_propagation(
                    exposures.w, sub.equity(), fractions, 1.0,
                    debtrank.DEFAULT_ALPHA, debtrank.DEFAULT_MAX_PERIODS,
                ),
            )
            del exposures
        first = True

        def check_op(op):
            nonlocal first
            bank_ids, failures, ref = refs[op["quarter"]]
            failures = list(failures)
            summary = op["summary"]
            if not summary["ras_converged"]:
                failures.append("stage reports ras_converged = false")
            if not summary["converged"]:
                failures.append("propagation did not converge")
            ids, proxy, initial, cascade = _read_proxy_csv(op["csv"])
            if perturb and first:
                proxy[0] += 1e-6
            first = False
            if ids != bank_ids:
                failures.append("proxy CSV bank ids differ from the closed panel")
            else:
                failures += reference.proxy_failures(proxy, cascade, initial, ref)
            return failures

        _check_each((op for r in rounds for op in r["ops"]), check_op)
        return {}


def _read_proxy_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    ids = tuple(r["bank_id"] for r in rows)
    proxy = np.array([float(r["proxy_pct"]) for r in rows])
    initial = np.array([r["initially_defaulted"] == "1" for r in rows])
    cascade = np.array([r["cascade_defaulted"] == "1" for r in rows])
    return ids, proxy, initial, cascade


class StressScenarios:
    """Many propagations over one reconstructed quarter (DebtRank-style ranking).

    Not gated (absent from ``BENCHMARK.json``): its round walls spread past the
    bound between runs within the time the gated runs may take. It stays
    runnable with ``--workload stress_scenarios`` and in the self-check.

    A round closes, reconstructs and initialises the network once, then runs
    24 single-bank 50% equity shocks on the largest interbank borrowers and
    eight uniform shocks over fraction x beta.

    The quarter is generated from the fixed seed: at 2000 banks the number of
    propagation periods, and so the work of a round, moves by +-20% with the
    generator seed, which would hide changes in the code. ``--seed`` permutes
    the rows.
    """

    name = "stress_scenarios"
    min_rounds = 3
    defaults = {"n_banks": 2000}
    n_single = 24
    single_fraction = 0.5
    uniform_fractions = (0.05, 0.1, 0.2, 0.4)
    betas = (0.5, 1.0)

    def __init__(self, params):
        self.p = {**self.defaults, **params}

    def generate(self, seed, out):
        spec = synthetic.SyntheticSpec(
            n_banks=self.p["n_banks"], quarters=1, rng_seed=FIXED_DATA_SEED
        )
        return synthetic.write_outputs(synthetic.generate(spec), out)

    def inputs(self, paths, seed):
        _shuffle_rows(_panel_paths(paths)[0][0], np.random.default_rng(seed))
        return {"panels": _panel_paths(paths)}

    def prepare(self, inputs, workdir):
        (path, quarter), = inputs["panels"]
        self.live = _live_panel(path, quarter)
        ids = self.live.bank_ids
        by_borrowing = sorted(self.live.records, key=lambda r: -r.interbank_liabilities)
        self.scenarios = [
            ({r.bank_id: self.single_fraction}, 1.0) for r in by_borrowing[: self.n_single]
        ] + [
            ({b: f for b in ids}, beta) for f in self.uniform_fractions for beta in self.betas
        ]
        self.shocks = [debtrank.ShockSpec("equity_fraction", t) for t, _ in self.scenarios]
        self.networks = []  # per round: digest of the matrix and the RAS report

    def run_round(self, k, tracer):
        ops = [{"kind": "scenario", "scenario": i} for i in range(len(self.scenarios))]
        start = time.perf_counter()
        try:
            with _span(tracer, "op.network"):
                sub, _, _, exposures, ras = _reconstruct_closed(self.live)
                state = debtrank.init_state(exposures, sub.equity())
        except Exception as exc:  # every scenario of the round fails
            for op in ops:
                op["error"] = _error(exc)
            self.networks.append(None)
            return time.perf_counter() - start, ops
        for op, shock, (_, beta) in zip(ops, self.shocks, self.scenarios):
            with _span(tracer, "op.scenario", scenario=op["scenario"]):
                try:
                    run = debtrank.propagate(debtrank.apply_shock(state, shock), beta=beta)
                except Exception as exc:  # counted as a failed operation
                    op["error"] = _error(exc)
                    continue
            op.update(
                proxy=run.proxy, cascade=run.cascade_defaulted,
                initial=run.initially_defaulted, converged=run.converged,
                banks=len(run.bank_ids), propagations=1,
            )
        wall = time.perf_counter() - start
        self.networks.append((hashlib.sha256(exposures.w.data).hexdigest(), ras))
        return wall, ops

    def check(self, rounds, perturb):
        """Per round: the matrix equals a fresh reconstruction and passes the
        network checks; per scenario: converged, proxies and flags against
        the dense reference. ``perturb`` shifts one proxy of the first
        scenario by 1e-6 points."""
        sub, ia, il, exposures, _ = _reconstruct_closed(self.live)
        digest = hashlib.sha256(exposures.w.data).hexdigest()
        equity = sub.equity()
        index = {b: i for i, b in enumerate(sub.bank_ids)}
        refs = []
        for targets, beta in self.scenarios:
            fractions = np.zeros(len(sub))
            for bank_id, f in targets.items():
                fractions[index[bank_id]] = f
            refs.append(
                reference.reference_propagation(
                    exposures.w, equity, fractions, beta,
                    debtrank.DEFAULT_ALPHA, debtrank.DEFAULT_MAX_PERIODS,
                )
            )
        first = True
        for r, network in zip(rounds, self.networks):
            round_failures = []
            if network is not None:
                timed_digest, timed_ras = network
                if timed_digest != digest:
                    round_failures.append("timed reconstruction differs from a fresh one")
                round_failures += reference.network_failures(
                    exposures, timed_ras, ia, il, reconstruction.DEFAULT_TOLERANCE
                )

            def check_op(op):
                nonlocal first
                failures = list(round_failures)
                if not op["converged"]:
                    failures.append("propagation did not converge")
                proxy = op["proxy"].copy()
                if perturb and first:
                    proxy[0] += 1e-6
                first = False
                return failures + reference.proxy_failures(
                    proxy, op["cascade"], op["initial"], refs[op["scenario"]]
                )

            _check_each(r["ops"], check_op)
        return {}


WORKLOADS = {w.name: w for w in (AcceptancePipeline, NetworkScale, StressScenarios)}
