"""Command-line entry point.

Every stage subcommand is built from one entry of ``pipeline.STAGES``: one
required flag per path, one optional flag per optional path, and the option
flags of its RunConfig sections; ``_cmd_stage`` runs it through
``pipeline.call_stage`` and prints its summary as JSON. `generate-synthetic`
writes the inputs that `run` would generate, and `run` chains the lot from a
config file and writes a manifest.

Exit codes: 0 success, 2 usage error, 3 data error, 4 numerical error,
5 I/O error. `reconstruct` and `simulate` exit 4 when RAS (or, for
`simulate`, the propagation) did not converge, after writing their outputs;
`run` exits 4 at the first quarter that did not, and writes no manifest.
An option flag is its RunConfig field's INI key, with `-` for `_`, the same
default and the same parser as the INI file.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields
from pathlib import Path

from . import __version__
from .balance_sheets import quarter_tag
from .errors import DataError, NumericalError, StageError
from .pipeline import (
    SPEC_FIELDS,
    STAGES,
    RunConfig,
    call_stage,
    field_parser,
    rerun_from_manifest,
    run_pipeline,
    synthetic_spec,
    unconverged_solvers,
)
from .synthetic import SyntheticSpec, generate, write_outputs


def _add_config_flags(p: argparse.ArgumentParser, sections=(), names=()) -> None:
    """One ``--<ini key>`` flag (``_`` spelt ``-``) per RunConfig field of
    ``sections`` or in ``names``, with the field's default and its INI
    parser; a bool field is a ``store_true`` flag. Each value lands on the
    field's name."""
    for f in fields(RunConfig):
        section = f.metadata["section"]
        if section not in sections and f.name not in names:
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
    _add_config_flags(p, names=("seed", *SPEC_FIELDS))
    p.add_argument("--quarters", type=int, default=SyntheticSpec.quarters)
    p.add_argument("--out", required=True, help="output directory")

    for command, stage in STAGES.items():
        p = sub.add_parser(command, help=stage.help)
        places = {name: f"<run>/{place}" for name, place in zip(stage.paths, stage.run)}
        for name in stage.paths:
            p.add_argument(f"--{name}", required=True, help=places.get(name))
        for name in stage.options:
            p.add_argument("--" + name.replace("_", "-"), help="optional output path")
        _add_config_flags(p, stage.sections)

    p = sub.add_parser("run", help="full pipeline from a config file")
    p.add_argument("--config", help="INI config file")
    p.add_argument("--from-manifest", help="re-execute a previous run's manifest")
    p.add_argument("--out", required=True, help="output directory")
    return parser


def _cmd_generate(args) -> int:
    result = generate(synthetic_spec(_config(args), args.quarters))
    paths = write_outputs(result, args.out)
    print(f"wrote {len(paths)} files to {args.out} ({result.ground_truth['n_failed']} failed banks)")
    return 0


def _cmd_stage(args) -> int:
    config = _config(args)  # every value is checked before a file is read
    stage = STAGES[args.command]
    paths = [getattr(args, name) for name in stage.paths]
    if args.command == "build-dataset":  # --q1..--q4 travel as (path, quarter) pairs
        paths[:4] = [[(path, quarter_tag(path)) for path in paths[:4]]]
    options = {name: getattr(args, name) for name in stage.options}
    summary = call_stage(args.command, *paths, config=config, **options)
    print(json.dumps(summary, indent=2, sort_keys=True))
    return 4 if unconverged_solvers(summary) else 0


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


_HANDLERS = {"generate-synthetic": _cmd_generate, "run": _cmd_run}


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
        return _HANDLERS.get(args.command, _cmd_stage)(args)
    except (StageError, DataError, NumericalError, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exit_code_for(exc)


if __name__ == "__main__":
    sys.exit(main())
