"""Command-line entry point.

Subcommands mirror the pipeline stages so each can be run in isolation on
files; `run` chains the lot from a config file and writes a manifest.

Exit codes: 0 success, 2 usage error, 3 data error, 4 numerical error,
5 I/O error. `reconstruct` and `simulate` exit 4 when RAS (or, for
`simulate`, the propagation) did not converge, after writing their outputs;
`run` exits 4 at the first quarter that did not, and writes no manifest.
A stage subcommand's option flags are its RunConfig fields' INI keys, with
`-` for `_`, the same defaults and the same parsers as the INI file.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields
from pathlib import Path

from . import __version__
from .balance_sheets import live_subsystem, load_panel, quarter_tag, write_rejection_report
from .debtrank import live_network
from .errors import DataError, NumericalError, StageError
from .pipeline import (
    RunConfig,
    field_parser,
    rerun_from_manifest,
    run_pipeline,
    stage_build_dataset,
    stage_logit,
    stage_report,
    stage_sensitivity,
    stage_simulate,
    stage_train_mlp,
    unconverged_solvers,
)
from .reconstruction import write_matrix
from .synthetic import SyntheticSpec, generate, write_outputs


def _add_config_flags(p: argparse.ArgumentParser, *sections: str) -> None:
    """One ``--<ini key>`` flag (``_`` spelt ``-``) per RunConfig field of
    ``sections``, with the field's default and its INI parser; a bool field
    is a ``store_true`` flag. Each value lands on the field's name."""
    for f in fields(RunConfig):
        section = f.metadata["section"]
        if section not in sections:
            continue
        key = (f.metadata["keys"] or (f.name,))[0]
        flag = "--" + key.replace("_", "-")
        is_bool = isinstance(f.default, bool)
        parse = {"action": "store_true"} if is_bool else {"type": field_parser(f)}
        p.add_argument(flag, dest=f.name, default=f.default, help=f"[{section}] {key}", **parse)


def _config(args) -> RunConfig:
    """The RunConfig of a subcommand's parsed flags; other fields keep their defaults."""
    return RunConfig(**{f.name: getattr(args, f.name) for f in fields(RunConfig) if f.name in args})


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="banknet",
        description="Interbank exposure reconstruction, contagion simulation "
        "and bank default classification",
    )
    parser.add_argument("--version", action="version", version=f"banknet {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate-synthetic", help="emit seeded synthetic study inputs")
    p.add_argument("--n-banks", type=int, default=SyntheticSpec.n_banks)
    p.add_argument("--quarters", type=int, default=SyntheticSpec.quarters)
    p.add_argument("--default-rate", type=float, default=SyntheticSpec.default_rate)
    p.add_argument("--signal-strength", type=float, default=SyntheticSpec.contagion_signal_strength)
    p.add_argument("--start-quarter", default=SyntheticSpec.start_quarter)
    p.add_argument("--seed", type=int, default=SyntheticSpec.rng_seed)
    p.add_argument("--out", required=True, help="output directory")

    p = sub.add_parser("reconstruct", help="rebuild the bilateral exposure matrix")
    p.add_argument("--panel", required=True)
    p.add_argument("--quarter", required=True)
    _add_config_flags(p, "reconstruct")
    p.add_argument("--dump-matrix", help="binary matrix dump path")
    p.add_argument("--rejects", help="rejection report path")

    p = sub.add_parser("simulate", help="run the contagion scenario for one quarter")
    p.add_argument("--panel", required=True)
    p.add_argument("--quarter", required=True)
    _add_config_flags(p, "simulate", "reconstruct")
    p.add_argument("--dump-matrix")
    p.add_argument("--trajectory", help="per-period equity dump path")
    p.add_argument("--rejects", help="rejection report path")
    p.add_argument("--out", required=True, help="proxy CSV path")

    p = sub.add_parser("build-dataset", help="assemble the 24-column feature panel")
    for k in range(1, 5):
        p.add_argument(f"--q{k}", required=True, help=f"quarter {k} panel CSV")
    p.add_argument("--proxies", required=True, help="directory of proxies_<tag>.csv files")
    p.add_argument("--labels", required=True, help="failed-bank CSV")
    _add_config_flags(p, "dataset", "run")
    p.add_argument("--out", required=True, help="output directory")

    p = sub.add_parser("train-mlp", help="tune and train the neural classifier")
    p.add_argument("--data", required=True, help="dataset directory")
    _add_config_flags(p, "mlp", "run")
    p.add_argument("--out", required=True, help="model JSON path")

    p = sub.add_parser("sensitivity", help="mean output gradient per input column")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True, help="sensitivity CSV path")

    p = sub.add_parser("logit", help="L1-penalized logistic fit with refit inference")
    p.add_argument("--data", required=True)
    _add_config_flags(p, "logit")
    p.add_argument("--out", required=True, help="fit JSON path")

    p = sub.add_parser("report", help="correlation matrix and summary report")
    p.add_argument("--data", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--sensitivity", required=True)
    p.add_argument("--fit", required=True)
    p.add_argument("--out", required=True, help="output directory")

    p = sub.add_parser("run", help="full pipeline from a config file")
    p.add_argument("--config", help="INI config file")
    p.add_argument("--from-manifest", help="re-execute a previous run's manifest")
    p.add_argument("--out", required=True, help="output directory")
    return parser


def _cmd_generate(args) -> int:
    spec = SyntheticSpec(
        n_banks=args.n_banks,
        quarters=args.quarters,
        default_rate=args.default_rate,
        contagion_signal_strength=args.signal_strength,
        rng_seed=args.seed,
        start_quarter=args.start_quarter,
    )
    result = generate(spec)
    paths = write_outputs(result, args.out)
    print(f"wrote {len(paths)} files to {args.out} ({result.ground_truth['n_failed']} failed banks)")
    return 0


def _cmd_reconstruct(args) -> int:
    panel = load_panel(args.panel, args.quarter)
    if panel.rejections and args.rejects:
        write_rejection_report(args.rejects, panel.rejections)
    sub, _ = live_subsystem(panel)
    config = _config(args)
    exposures, report = live_network(sub, tolerance=config.tolerance, max_iter=config.max_iter)
    if args.dump_matrix:
        write_matrix(args.dump_matrix, exposures)
    print(
        f"n={exposures.n} iterations={report.iterations} "
        f"max_marginal_error={report.max_marginal_error:.3e} converged={report.converged}"
    )
    return 0 if report.converged else 4


def _cmd_simulate(args) -> int:
    summary = stage_simulate(
        args.panel,
        args.quarter,
        args.out,
        config=_config(args),
        dump_matrix=args.dump_matrix,
        trajectory_path=args.trajectory,
        rejects_path=args.rejects,
    )
    print(json.dumps(summary, indent=2, sort_keys=True))
    return 4 if unconverged_solvers(summary) else 0


def _cmd_build_dataset(args) -> int:
    panels = [(path, quarter_tag(path)) for path in (args.q1, args.q2, args.q3, args.q4)]
    summary = stage_build_dataset(panels, args.proxies, args.labels, args.out, config=_config(args))
    print(json.dumps(summary, indent=2, sort_keys=True))
    return 0


def _cmd_train_mlp(args) -> int:
    summary = stage_train_mlp(args.data, args.out, config=_config(args))
    print(json.dumps(summary, indent=2, sort_keys=True))
    return 0


def _cmd_sensitivity(args) -> int:
    summary = stage_sensitivity(args.model, args.data, args.out)
    print(json.dumps(summary, indent=2, sort_keys=True))
    return 0


def _cmd_logit(args) -> int:
    summary = stage_logit(args.data, args.out, config=_config(args))
    print(json.dumps(summary, indent=2, sort_keys=True))
    return 0


def _cmd_report(args) -> int:
    summary = stage_report(args.data, args.model, args.sensitivity, args.fit, args.out)
    print(json.dumps(summary, indent=2, sort_keys=True))
    return 0


def _cmd_run(args) -> int:
    if bool(args.config) == bool(args.from_manifest):
        print("run: provide exactly one of --config or --from-manifest", file=sys.stderr)
        return 2
    if args.from_manifest:
        manifest = rerun_from_manifest(args.from_manifest, args.out)
    else:
        config = RunConfig.from_ini(args.config)
        manifest = run_pipeline(config, args.out, command=sys.argv)
    print(f"run complete; manifest at {Path(args.out) / 'run_manifest.json'}")
    print(f"  stages: {', '.join(manifest['stages'])}")
    return 0


_HANDLERS = {
    "generate-synthetic": _cmd_generate,
    "reconstruct": _cmd_reconstruct,
    "simulate": _cmd_simulate,
    "build-dataset": _cmd_build_dataset,
    "train-mlp": _cmd_train_mlp,
    "sensitivity": _cmd_sensitivity,
    "logit": _cmd_logit,
    "report": _cmd_report,
    "run": _cmd_run,
}


def exit_code_for(exc: BaseException) -> int:
    if isinstance(exc, StageError):
        exc = exc.cause
    if isinstance(exc, DataError):
        return 3
    if isinstance(exc, NumericalError):
        return 4
    if isinstance(exc, OSError):
        return 5
    if isinstance(exc, (ValueError, KeyError)):
        return 3
    return 1


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)  # --grid reads its file here
        return _HANDLERS[args.command](args)
    except (StageError, DataError, NumericalError, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exit_code_for(exc)


if __name__ == "__main__":
    sys.exit(main())
