"""Scale sweep of reconstruction and propagation, reported but not gated:

    python3 perfbench/sweep.py

For each bank count in ``SIZES``, one quarter generated from ``SEED`` runs
through ``network_scale``'s traced run (one untraced round, then one traced
round, with the usual output checks). Prints reconstruct and propagate
seconds, RAS iterations, propagation periods and the timed process's peak
memory per size, and writes them to ``perfbench/_work/sweep.json``. Array
sizes are computed (8 n^2 bytes), not measured traffic.
"""

from __future__ import annotations

import json

import run

SIZES = (1000, 2000, 4000)
SEED = 0


def main() -> int:
    rows = []
    print(f"{'banks':>6} {'reconstruct_s':>14} {'ras_iter':>9} {'propagate_s':>12} "
          f"{'periods':>8} {'peak_rss_mb':>12} {'n2_array_mb':>12} {'failed':>7}")
    for n in SIZES:
        summary = run.run("network_scale", SEED, 0.0, True, params={"n_banks": n, "quarters": 1})
        m = {name: value for name, (value, _) in summary["metrics"].items()}
        row = {
            "banks": n,
            "reconstruct_s": m["reconstruction.reconstruct_s"],
            "ras_iterations": m["reconstruction.ras_iterations"],
            "propagate_s": m["debtrank.propagate_s"],
            "periods": m["debtrank.periods"],
            "peak_rss_mb": summary["result"]["peak_rss_mb"],
            "n2_array_mb": 8 * n * n / 2**20,
            "failed": summary["failed"],
        }
        rows.append(row)
        print(f"{n:>6} {row['reconstruct_s']:>14.4f} {row['ras_iterations']:>9} "
              f"{row['propagate_s']:>12.4f} {row['periods']:>8} {row['peak_rss_mb']:>12.1f} "
              f"{row['n2_array_mb']:>12.1f} {row['failed']:>7}")
    run.WORK.mkdir(exist_ok=True)
    (run.WORK / "sweep.json").write_text(json.dumps({"seed": SEED, "rows": rows}, indent=1))
    return 1 if any(r["failed"] for r in rows) else 0


if __name__ == "__main__":
    raise SystemExit(main())
