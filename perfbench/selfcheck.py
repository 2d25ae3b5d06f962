"""Self-check of the benchmark at toy size: ``python3 perfbench/selfcheck.py``.

Runs every workload at 60 banks (the pipeline with a one-point grid and five
epochs), untraced and traced, and asserts that each emits exactly the metrics
that ``BENCHMARK.json`` names (``run.py`` takes their units from there), and
no failed operation. Then it
runs each workload with a deliberately wrong output (one proxy shifted by
1e-6 percentage points, or an MLP accuracy floor above 1) and asserts that
the failed-operation count reports it. Exits 1 on the first failed check.
"""

from __future__ import annotations

import json
import sys

import run

TOY = {
    "acceptance_pipeline": {
        "n_banks": 60,
        "default_rate": 0.2,
        "total": 120,
        "epochs": 5,
        "batch_size": 8,
        "grid": {"structures": [[4, 4, 4]], "solvers": ["adam"], "learning_rates": [0.05]},
        "lam": 0.02,  # the automatic path crawls on a separable 60-bank panel
        # A 60-bank panel cannot reach the acceptance floors; the sign
        # conditions of criterion 7 still apply.
        "mlp_floor": 0.0,
        "logit_floor": 0.0,
    },
    "network_scale": {"n_banks": 60},
    "stress_scenarios": {"n_banks": 60},
}


def _expect(condition, message):
    if not condition:
        print(f"selfcheck FAILED: {message}")
        sys.exit(1)


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    declared = {
        0: {m["name"] for m in spec["end_to_end"]},
        1: {m["name"] for m in spec["per_layer"]},
    }
    for workload in TOY:
        params = TOY[workload]
        for trace in (0, 1):
            # Seeds 0 and 1: on the fixed-data workloads the traced run reads
            # permuted input rows and must reproduce the untraced artifacts.
            summary = run.run(workload, trace, 0.0, bool(trace), params=params)
            emitted = set(summary["metrics"])
            _expect(emitted == declared[trace],
                    f"{workload} trace={trace} emits {sorted(emitted ^ declared[trace])} "
                    "unlike BENCHMARK.json")
            _expect(summary["failed"] == 0,
                    f"{workload} trace={trace} failed operations: {summary['failures']}")
            print(f"selfcheck ok: {workload} trace={trace} emits {len(emitted)} metrics, "
                  f"{summary['attempted']} operations, none failed")
        summary = run.run(workload, 0, 0.0, False, params=params, perturb=True)
        # The pipeline check fails every run; the network checks fail the
        # one operation whose proxy vector was shifted.
        expected = summary["attempted"] if workload == "acceptance_pipeline" else 1
        _expect(summary["failed"] == expected,
                f"{workload} perturbed: {summary['failed']} of {summary['attempted']} "
                f"operations failed, expected {expected}")
        print(f"selfcheck ok: {workload} perturbed output counted, failed_op_ratio="
              f"{summary['failed'] / summary['attempted']:.4f} ({summary['failures'][0]})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
