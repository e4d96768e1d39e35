"""Command-line interface.

Subcommands fig1, fig3 and fig4 write the reference datasets with the default
parameter set (J=1, h=0.1, delta=0.5, kappa=2), `sweep` runs the sweep
described in a config file and `validate` runs the self-check suite, the
only command that imports the ``validate`` module.
A JSON config can override any part of the run; --seed, --out and
--h-override tweak it from the command line.  Every run is serial, and
its BLAS runs on one thread unless the environment names another count.

numpy is imported only once ``main`` has set that default, because BLAS
reads its thread count when it loads: neither this module nor the package
``__init__`` imports anything that loads numpy.  The command line, the
config (``config``, which imports the standard library only) and the
output path are all checked before that, since numpy first loads when the
command's runner imports ``experiments``: a bad input fails without
waiting for the numeric modules.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
from dataclasses import replace

# read by OpenBLAS, OpenMP and MKL when numpy loads
BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _command(name: str):
    """A runner that calls experiments.<name> with its config, imported at
    the first call."""
    def run(config):
        from . import experiments

        return getattr(experiments, name)(config)
    return run


_RUNNERS = {
    "fig1": (_command("cmd_fig1"), "merit curves plus per-battery ergotropy and power collapse"),
    "fig3": (_command("cmd_fig3"), "peak ergotropy and power versus coupling"),
    "fig4": (_command("cmd_fig4"), "random charger preparations (initial-state independence)"),
    "sweep": (_command("cmd_sweep"), "time series for each value of a swept parameter"),
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
        # read by nothing but the benchmark, which passes --jobs 1 (ROADMAP item 10)
        cmd.add_argument("--jobs", type=int, choices=(1,), default=1, help=argparse.SUPPRESS)
    sub.add_parser("validate", help="run the numeric/analytic cross-check suite")
    return parser


def config_from_args(args: argparse.Namespace):
    """The ExperimentConfig of a parsed fig/sweep command line."""
    from .config import ExperimentConfig, load_config

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


def _require_output_dir(path: str) -> None:
    """OSError unless the path is not empty, the directory that will hold
    the CSV exists and the path is not itself a directory, and ValueError
    for a null byte, so that a bad --out fails before any run."""
    if not path:
        raise FileNotFoundError("output path is empty")
    if "\0" in path:
        raise ValueError(f"output path {path!r} has an embedded null byte")
    folder = os.path.dirname(path) or "."
    if not os.path.isdir(folder):
        raise FileNotFoundError(f"output directory {folder!r} does not exist")
    if os.path.isdir(path):
        raise IsADirectoryError(f"output path {path!r} is a directory")


def main(argv=None) -> int:
    fresh = "numpy" not in sys.modules
    if fresh:
        # a run leaves no cyclic garbage: skip ~8 ms of collections and teardown's ~40 ms pass
        gc.disable()
        # every product here is small: a second BLAS thread speeds none of
        # them up and spins after each one; an explicit setting wins
        for name in BLAS_THREAD_VARIABLES:
            os.environ.setdefault(name, "1")
    try:
        args = build_parser().parse_args(argv)
        if args.command == "validate":
            from .validate import cmd_validate

            return cmd_validate()
        runner, _ = _RUNNERS[args.command]
        config = config_from_args(args)
        _require_output_dir(config.output_path)
        runner(config)
        return 0
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if fresh:
            gc.freeze()
            gc.enable()


if __name__ == "__main__":
    raise SystemExit(main())
