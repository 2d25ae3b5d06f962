"""Timed process of one benchmark run: ``python3 timed.py <spec.json>``.

Started by ``run.py`` after set-up, so its peak resident memory covers the
timed region and not the input generator. It runs rounds in a closed loop
(one operation at a time), reads the peak memory, then checks every
operation's output (a check that raises fails the operations it had not
checked), and writes its result to the path named in the spec.

Untraced: rounds repeat until ``seconds`` have elapsed and the workload's
minimum round count is met. Traced: one untraced round, then one round with
the tracer installed; the difference of their walls is the tracing overhead.
"""

from __future__ import annotations

import json
import resource
import sys
import time
import warnings

from tracer import Tracer
from workloads import WORKLOADS


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def run(spec) -> dict:
    workload = WORKLOADS[spec["workload"]](spec["params"])
    workload.prepare(spec["inputs"], spec["workdir"])
    tracer = Tracer()
    rounds = []
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        started = time.perf_counter()
        while True:
            k = len(rounds)
            traced = bool(spec["trace"]) and k == 1
            first_warning = len(caught)
            if traced:
                tracer.run_id = k
                tracer.install()
                try:
                    with tracer.span("round", workload=workload.name):
                        wall, ops = workload.run_round(k, tracer)
                finally:
                    tracer.uninstall()
            else:
                wall, ops = workload.run_round(k, None)
            rounds.append({"wall": wall, "traced": traced, "ops": ops,
                           "warnings": caught[first_warning:]})
            if spec["trace"]:
                if k == 1:
                    break
            elif k + 1 >= workload.min_rounds and time.perf_counter() - started >= spec["seconds"]:
                break
        peak_rss_mb = _peak_rss_mb()
        try:
            extra = workload.check(rounds, spec["perturb"])
        except Exception as exc:  # e.g. the reference could not be built
            extra = {}
            for op in (op for r in rounds for op in r["ops"]):
                op.setdefault("failures", [f"output check raised {type(exc).__name__}: {exc}"])

    return {
        "peak_rss_mb": peak_rss_mb,
        "extra": extra,
        "rounds": [
            {
                "wall": r["wall"],
                "traced": r["traced"],
                "ops": [
                    {
                        "kind": op["kind"],
                        "banks": op.get("banks", 0),
                        "propagations": op.get("propagations", 0),
                        "failures": [op["error"]] if "error" in op else op.get("failures", ["not checked"]),
                    }
                    for op in r["ops"]
                ],
                "warnings": [
                    {"category": w.category.__name__, "message": str(w.message),
                     "filename": w.filename, "lineno": w.lineno}
                    for w in r["warnings"]
                ],
            }
            for r in rounds
        ],
        "spans": tracer.spans,
    }


if __name__ == "__main__":
    with open(sys.argv[1], encoding="utf-8") as fh:
        spec = json.load(fh)
    result = run(spec)
    with open(spec["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
