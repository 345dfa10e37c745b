"""Command-line entry point: ``sbsim EXPERIMENT [flags]``, one flag per ``ExperimentConfig`` field.

Each flag is its field's name with ``-`` for ``_`` (but for ``_SPELLINGS``),
typed by the field's annotation.  A JSON config file supplies the base
settings; any flag given on the command line overrides the file.  Results
are written as one CSV per experiment plus a JSON run manifest.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields

from .experiments import EXPERIMENT_KINDS, ExperimentConfig, field_type, make_config, run

_SPELLINGS = {"lambda_c": "--lambda", "orders": "--order", "dt_grid": "--dt", "xi_list": "--xi", "out_dir": "--out"}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sbsim",
        description="Open spin-boson circuit simulation experiments",
    )
    parser.add_argument("experiment", choices=EXPERIMENT_KINDS)
    parser.add_argument("--config", help="JSON config file (flags override it)")
    for f in fields(ExperimentConfig)[1:]:
        item, many = field_type(f.type)
        flag = _SPELLINGS.get(f.name, "--" + f.name.replace("_", "-"))
        parser.add_argument(flag, dest=f.name, type=item, nargs="+" if many else None)
    return parser


def main(argv: list[str] | None = None) -> int:
    values = vars(_build_parser().parse_args(argv))
    experiment = values.pop("experiment")
    config_path = values.pop("config")
    file_values = {}
    if config_path:
        try:
            with open(config_path) as fh:
                file_values = json.load(fh)
        except (OSError, ValueError) as exc:
            print(f"cannot read config {config_path!r}: {exc}", file=sys.stderr)
            return 2
    try:
        cfg = make_config(experiment, file_values, values)
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 2
    if cfg.workers > 1:
        print(f"workers = {cfg.workers} is deprecated and has no effect; every run is serial", file=sys.stderr)
    paths = run(cfg)
    for path in paths:
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
