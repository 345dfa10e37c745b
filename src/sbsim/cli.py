"""Command-line entry point: one subcommand per experiment kind.

A JSON config file supplies the base settings; any flag given on the
command line overrides the file.  Results are written as one CSV per
experiment plus a JSON run manifest.
"""

from __future__ import annotations

import argparse
import json
import sys

from .experiments import EXPERIMENT_KINDS, make_config, run
from .model import RATE_CONVENTIONS


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sbsim",
        description="Open spin-boson circuit simulation experiments",
    )
    sub = parser.add_subparsers(dest="experiment", required=True)
    for kind in EXPERIMENT_KINDS:
        p = sub.add_parser(kind, help=f"run the {kind} experiment")
        p.add_argument("--config", help="JSON config file (flags override it)")
        p.add_argument("--epsilon", type=float)
        p.add_argument("--omega", type=float)
        p.add_argument("--lambda", dest="lambda_c", type=float)
        p.add_argument("--gamma", type=float)
        p.add_argument("--n-spins", dest="n_spins", type=int)
        p.add_argument("--d-ho", dest="d_ho", type=int)
        p.add_argument("--code", choices=("gray", "binary"))
        p.add_argument("--order", dest="orders", type=int, nargs="+")
        p.add_argument("--dt", dest="dt_grid", type=float, nargs="+")
        p.add_argument("--t-final", dest="t_final", type=float)
        p.add_argument("--xi", dest="xi_list", type=float, nargs="+")
        p.add_argument("--gamma-list", dest="gamma_list", type=float, nargs="+")
        p.add_argument("--shots", type=int)
        p.add_argument("--seed", type=int)
        p.add_argument("--convention", choices=RATE_CONVENTIONS)
        p.add_argument("--calibration", help="calibration JSON (default: bundled averages)")
        p.add_argument("--out", dest="out_dir")
        p.add_argument("--workers", type=int)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    values = vars(args)
    experiment = values.pop("experiment")
    config_path = values.pop("config", None)
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
    paths = run(cfg)
    for path in paths:
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
