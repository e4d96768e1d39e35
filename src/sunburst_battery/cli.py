"""Command-line interface.

Subcommands fig1..fig4 write the reference datasets with the default
parameter set (J=1, h=0.1, delta=0.5, kappa=2), `sweep` runs the sweep
described in a config file and `validate` runs the self-check suite.
A JSON config can override any part of the run; --seed, --out and
--h-override tweak it from the command line.  Every run is serial.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from .experiments import (
    ExperimentConfig,
    cmd_fig1,
    cmd_fig2,
    cmd_fig3,
    cmd_fig4,
    cmd_sweep,
    cmd_validate,
    load_config,
)

_RUNNERS = {
    "fig1": (cmd_fig1, "single-battery merit curves plus per-battery collapse"),
    "fig2": (cmd_fig2, "charging power collapse for n = 1..4"),
    "fig3": (cmd_fig3, "peak ergotropy and power versus coupling"),
    "fig4": (cmd_fig4, "random charger preparations (initial-state independence)"),
    "sweep": (cmd_sweep, "time series for each value of a swept parameter"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sunburst-battery",
        description="Exact dynamics and closed-form analytics of the sunburst Ising battery",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text) in _RUNNERS.items():
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", help="JSON experiment config")
        cmd.add_argument("--seed", type=int, help="override the config seed")
        cmd.add_argument("--out", help="override the output CSV path")
        cmd.add_argument("--h-override", type=float, dest="h_override",
                         help="override the transverse field h")
        # read by nothing; goes once the benchmark stops passing --jobs 1 (ROADMAP item 1)
        cmd.add_argument("--jobs", type=int, choices=(1,), default=1, help=argparse.SUPPRESS)
    val = sub.add_parser("validate", help="run the numeric/analytic cross-check suite")
    val.add_argument("--quick", action="store_true",
                     help="smaller systems, for smoke testing")
    return parser


def config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    config = load_config(args.config) if args.config else ExperimentConfig()
    if args.out is None and args.config is None:
        config = replace(config, output_path=f"{args.command}.csv")
    if args.out is not None:
        config = replace(config, output_path=args.out)
    if args.seed is not None:
        config = replace(config, seed=args.seed)
    if args.h_override is not None:
        config = replace(config, model=replace(config.model, h=args.h_override))
    return config


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "validate":
            return cmd_validate(quick=args.quick)
        runner, _ = _RUNNERS[args.command]
        runner(config_from_args(args))
        return 0
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
