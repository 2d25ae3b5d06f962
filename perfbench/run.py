"""Benchmark of the banknet pipeline, run from the repository root:

    python3 perfbench/run.py --workload acceptance_pipeline --seed 1 --seconds 15 --trace 0

Workloads (``BENCHMARK.json`` gates the first two and says why each was
chosen):

- ``acceptance_pipeline``: ``run_pipeline`` on the acceptance suite's fixed
  configuration from pre-generated files, twice; the seed permutes input rows.
- ``network_scale``: 4000 banks, four quarters through ``stage_simulate``.
- ``stress_scenarios`` (not gated): one 2000-bank quarter, one
  reconstruction, then 24 single-bank and 8 uniform shocks.

A run generates its input files from ``--seed`` (set-up, repeated and timed
as ``setup_s``), then starts a fresh process for the timed region: a closed
loop, one client, one operation at a time, BLAS limited to ``BLAS_THREADS``.
Operations that raise or fail their output check count as failed. The last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``. Metric units are those that
``BENCHMARK.json`` declares.

End-to-end metrics, defined on every workload. A round is one pass through
the workload's chain: a ``run_pipeline`` call, four quarters, or one
reconstruction with its 32 scenarios. Rounds repeat for ``--seconds`` and at
least the workload's minimum: two pipeline calls, three rounds otherwise.
Both gated workloads need more than 15 s for their minimum, so at the run
length ``BENCHMARK.json`` sets (15 s) their round count is fixed, and
``pipeline_s`` is always the fastest of as many rounds.

- ``setup_s``: median time of ``synthetic.generate`` + ``write_outputs``;
  the workload's own preparation of the files (row permutation) is untimed.
- ``pipeline_s``: wall time of the fastest untraced round. On a shared
  2-core host the speed one process gets swings by up to 1.6x within
  seconds, in compute-bound code more than in memory-bound code. Slow spells
  only add time, so the fastest round is the one they disturb least.
- ``bank_quarters_per_s``: banks summed over the completed propagations of
  that round (one per simulated quarter or scenario) per second of its wall.
- ``peak_rss_mb``: peak resident memory of the timed process.
- ``mlp_oos_accuracy``, ``logit_oos_accuracy``: test accuracies from
  ``summary.json`` on ``acceptance_pipeline``. The other workloads train no
  classifier and report 1.0, the value that can never regress.

The failed-operation ratio is printed in the report and carried by
``attempted`` and ``failed``; it is not a metric because it is 0 when the
program is correct. The report also prints every round's wall.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"
BLAS_THREADS = 1
RUN_TIMEOUT_S = 170.0
# Set-up repeats until both minimums are met; setup_s is their median.
SETUP_MIN_REPEATS = 3
SETUP_MIN_SECONDS = 3.0

# Set before numpy is first imported: the benchmark's modules are imported
# inside functions, and the timed process inherits the environment.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)
sys.path.insert(0, str(SRC))


def _units():
    """Unit of every metric, as ``BENCHMARK.json`` declares it."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for key in ("end_to_end", "per_layer") for m in spec[key]}


def end_to_end(result, setup_times):
    untraced = [r for r in result["rounds"] if not r["traced"]]
    fastest = min(untraced, key=lambda r: r["wall"])
    done = [op for op in fastest["ops"] if not op["failures"]]
    extra = result["extra"]
    return {
        "setup_s": statistics.median(setup_times),
        "pipeline_s": fastest["wall"],
        "bank_quarters_per_s": sum(op["banks"] for op in done) / fastest["wall"],
        "peak_rss_mb": result["peak_rss_mb"],
        "mlp_oos_accuracy": extra.get("mlp_oos_accuracy", 1.0),
        "logit_oos_accuracy": extra.get("logit_oos_accuracy", 1.0),
    }


def per_layer(result, setup_spans):
    from tracer import aggregate, by_name

    rows = aggregate(result["spans"])
    names = by_name(rows)
    setup_names = by_name(aggregate(setup_spans))

    def get(name, key="busy_s", table=names):
        row = table.get(name)
        if row is None:
            return 0
        return row["counters"].get(key, 0) if key not in row else row[key]

    m = {
        "synthetic.generate_s": get("synthetic.generate", table=setup_names),
        "synthetic.write_outputs_s": get("synthetic.write_outputs", table=setup_names),
        "balance_sheets.load_panel_s": get("balance_sheets.load_panel"),
        "balance_sheets.load_panel_calls": get("balance_sheets.load_panel", "calls"),
        "balance_sheets.close_system_s": get("balance_sheets.close_system"),
        "balance_sheets.derive_labels_s": get("balance_sheets.derive_labels"),
        "reconstruction.reconstruct_s": get("reconstruction.reconstruct"),
        "reconstruction.reconstruct_calls": get("reconstruction.reconstruct", "calls"),
        "reconstruction.ras_iterations": get("reconstruction.reconstruct", "ras_iterations"),
        "reconstruction.cells": get("reconstruction.reconstruct", "cells"),
        "debtrank.simulate_quarter_s": get("debtrank.simulate_quarter"),
        "debtrank.init_state_s": get("debtrank.init_state"),
        "debtrank.apply_shock_s": get("debtrank.apply_shock"),
        "debtrank.propagate_s": get("debtrank.propagate"),
        "debtrank.propagate_calls": get("debtrank.propagate", "calls"),
        "debtrank.periods": get("debtrank.propagate", "periods"),
        "debtrank.defaults_cascaded": get("debtrank.propagate", "defaults_cascaded"),
        "dataset.build_panel_s": get("dataset.build_panel"),
        "dataset.rebalance_s": get("dataset.rebalance"),
        "dataset.split_s": get("dataset.split"),
        "dataset.fit_scaler_s": get("dataset.fit_scaler"),
        "mlp.tune_s": get("mlp.tune"),
        "mlp.train_s": get("mlp.train"),
        "mlp.train_max_s": get("mlp.train", "max_s"),
        "mlp.train_calls": get("mlp.train", "calls"),
        "mlp.minibatch_steps": get("mlp.train", "minibatch_steps"),
        "mlp.input_sensitivity_s": get("mlp.input_sensitivity"),
        "logit.select_lambda_s": get("logit.select_lambda"),
        "logit.fit_lasso_s": get("logit.fit_lasso"),
        "logit.fit_lasso_calls": get("logit.fit_lasso", "calls"),
        "logit.refit_active_s": get("logit.refit_active"),
        "pipeline.run_pipeline_self_s": get("pipeline.run_pipeline", "self_s"),
        "pipeline.load_dataset_dir_s": get("pipeline.load_dataset_dir"),
        "pipeline.load_dataset_dir_calls": get("pipeline.load_dataset_dir", "calls"),
    }
    for stage in ("simulate", "build_dataset", "train_mlp", "sensitivity", "logit", "report"):
        m[f"pipeline.stage_{stage}_s"] = get(f"pipeline.stage_{stage}")
    cell_periods = get("debtrank.propagate", "cell_periods")
    m["debtrank.ns_per_cell_period"] = (
        1e9 * m["debtrank.propagate_s"] / cell_periods if cell_periods else 0.0
    )
    steps = m["mlp.minibatch_steps"]
    m["mlp.us_per_step"] = 1e6 * m["mlp.train_s"] / steps if steps else 0.0
    traced = [r for r in result["rounds"] if r["traced"]]
    m["logit.warnings"] = sum(
        1 for r in traced for w in r["warnings"] if Path(w["filename"]).name == "logit.py"
    )
    walls = {r["traced"]: r["wall"] for r in result["rounds"]}
    m["trace.traced_round_s"] = walls.get(True, 0.0)
    m["trace.untraced_round_s"] = walls.get(False, 0.0)
    m["trace.overhead_s"] = m["trace.traced_round_s"] - m["trace.untraced_round_s"]
    return m, rows


def _setup(workload, seed, trace, inputs_dir):
    """Generate and write the input files, repeatedly unless traced, timing
    each repeat; the last set of files becomes the workload's inputs, outside
    the timing. Returns the inputs, the times and the traced spans."""
    from tracer import Tracer

    tracer = Tracer() if trace else None
    times = []
    while not times or not trace and (
        len(times) < SETUP_MIN_REPEATS or sum(times) < SETUP_MIN_SECONDS
    ):
        shutil.rmtree(inputs_dir, ignore_errors=True)
        if tracer is not None:
            tracer.install(("synthetic",))
        try:
            start = time.perf_counter()
            paths = workload.generate(seed, inputs_dir)
            wall = time.perf_counter() - start
        finally:
            if tracer is not None:
                tracer.uninstall()
        times.append(wall)
    inputs = workload.inputs(paths, seed)
    return inputs, times, tracer.spans if tracer is not None else []


def run(workload_name, seed, seconds, trace, params=None, perturb=False):
    """One benchmark run; returns the summary dict printed as the last line."""
    from workloads import WORKLOADS

    deadline = time.monotonic() + RUN_TIMEOUT_S
    workload = WORKLOADS[workload_name](params or {})
    rundir = WORK / f"{workload_name}-{seed}-{os.getpid()}"
    shutil.rmtree(rundir, ignore_errors=True)
    rundir.mkdir(parents=True)
    try:
        inputs, setup_times, setup_spans = _setup(workload, seed, trace, rundir / "inputs")
        spec = {
            "workload": workload_name, "params": params or {}, "seconds": seconds,
            "trace": trace, "perturb": perturb, "inputs": inputs,
            "workdir": str(rundir), "result": str(rundir / "result.json"),
        }
        spec_path = rundir / "spec.json"
        spec_path.write_text(json.dumps(spec))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
        ))
        subprocess.run(
            [sys.executable, str(HERE / "timed.py"), str(spec_path)],
            env=env, check=True, timeout=max(1.0, deadline - time.monotonic()),
        )
        result = json.loads((rundir / "result.json").read_text())
    finally:
        shutil.rmtree(rundir, ignore_errors=True)

    ops = [op for r in result["rounds"] for op in r["ops"]]
    failed = [op for op in ops if op["failures"]]
    if trace:
        values, rows = per_layer(result, setup_spans)
    else:
        values, rows = end_to_end(result, setup_times), None
    units = _units()
    metrics = {name: (value, units[name]) for name, value in values.items()}
    return {
        "workload": workload_name, "seed": seed, "trace": trace,
        "setup_times": setup_times, "result": result, "rows": rows,
        "attempted": len(ops), "failed": len(failed),
        "failures": sorted({msg for op in failed for msg in op["failures"]}),
        "metrics": metrics,
    }


def _report(summary, trace_path):
    from tracer import format_table

    result = summary["result"]
    print(f"banknet benchmark: workload={summary['workload']} seed={summary['seed']} "
          f"trace={summary['trace']} blas_threads={BLAS_THREADS} "
          f"python={platform.python_version()} cpus={os.cpu_count()}")
    print("set-up seconds: " + " ".join(f"{t:.3f}" for t in summary["setup_times"]))
    for k, r in enumerate(result["rounds"]):
        print(f"round {k}: wall={r['wall']:.3f}s traced={r['traced']} ops={len(r['ops'])} "
              f"warnings={len(r['warnings'])}")
        for w in r["warnings"]:
            print(f"  warning {w['category']} ({Path(w['filename']).name}:{w['lineno']}): "
                  f"{w['message']}")
    ratio = summary["failed"] / summary["attempted"] if summary["attempted"] else 0.0
    print(f"operations: attempted={summary['attempted']} failed={summary['failed']} "
          f"failed_op_ratio={ratio:.4f}")
    for msg in summary["failures"][:20]:
        print(f"  failure: {msg}")
    if summary["rows"] is not None:
        print("per-span table (traced round; busy = summed wall, self = busy minus children):")
        for line in format_table(summary["rows"]):
            print("  " + line)
        run_rows = [row for path, row in summary["rows"].items()
                    if path[-1] == "pipeline.run_pipeline"]
        m = {name: value for name, (value, _) in summary["metrics"].items()}
        if run_rows:
            stages = sum(value for name, value in m.items()
                         if name.startswith("pipeline.stage_"))
            print(f"traced run_pipeline {run_rows[0]['busy_s']:.3f} s = stages {stages:.3f} s"
                  f" + self {m['pipeline.run_pipeline_self_s']:.3f} s (raw wall)")
        print(f"rounds: untraced {m['trace.untraced_round_s']:.3f} s, "
              f"traced {m['trace.traced_round_s']:.3f} s, tracing overhead "
              f"{m['trace.overhead_s']:+.3f} s (includes run-to-run noise)")
        candidates = [s for s in result["spans"] if s["name"] == "mlp.train"]
        if candidates:
            slowest = max(candidates, key=lambda s: s["end"] - s["start"])
            print(f"slowest MLP grid candidate: {slowest['attrs']['candidate']} "
                  f"{slowest['end'] - slowest['start']:.3f} s of {len(candidates)} train calls")
        print(f"trace file: {trace_path}")
    for name, (value, unit) in summary["metrics"].items():
        print(f"metric {name} = {value:.6g} {unit}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "banknet" / "__init__.py").is_file():
        print(f"error: banknet sources not found under {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    if args.seed < 0:
        print("error: --seed must be nonnegative", file=sys.stderr)
        return 2

    # A terminated run still kills and waits for its timed process:
    # subprocess.run does that when the wait is interrupted by an exception.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    summary = run(args.workload, args.seed, args.seconds, bool(args.trace))
    trace_path = WORK / f"trace_{args.workload}_seed{args.seed}.json"
    if args.trace:
        WORK.mkdir(exist_ok=True)
        trace_path.write_text(json.dumps(
            {"workload": args.workload, "seed": args.seed, "spans": summary["result"]["spans"],
             "rounds": summary["result"]["rounds"]}, indent=1))
    _report(summary, trace_path)
    print(json.dumps({
        "correct": summary["failed"] == 0,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in summary["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
