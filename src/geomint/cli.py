"""Command line front end: ``geomint simulate | converge | adapt``."""

from __future__ import annotations

import argparse
import sys

from .harness import RUN_KEYS, ConfigError, RunConfig, parse_config, run
from .integrators import (
    METHODS,
    NonConvergenceError,
    StepSizeUnderflowError,
    TooManyRejectsError,
)
from .systems import SYSTEM_IDS

_MODE_FOR = {"simulate": "fixed", "converge": "converge", "adapt": "adaptive"}


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--system", choices=SYSTEM_IDS, help="benchmark system id")
    sub.add_argument(
        "--method",
        choices=sorted(METHODS) + ["symplectic"],
        help="integrator id",
    )
    sub.add_argument("--h", type=float, help="step size (or ladder base / initial step)")
    sub.add_argument("--steps", type=int, help="number of fixed steps")
    sub.add_argument("--tol", type=float, help="adaptive error tolerance")
    sub.add_argument("--theta", type=float, help="symplectic family parameter in [0, 1]")
    sub.add_argument("--t-end", type=float, dest="t_end", help="final time")
    sub.add_argument("--out", help="output path prefix for CSV files")
    sub.add_argument("--config", help="flat key = value config file")
    sub.add_argument("--seed", type=int, help="seed echoed into output metadata")
    sub.add_argument("--preset", help="named parameter preset (bruls-top)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="geomint",
        description="Lie group integrators on rigid-body and multibody benchmarks",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for name, desc in (
        ("simulate", "fixed-step run; writes trajectory and invariant CSVs"),
        ("converge", "step-halving error ladder with fitted slope"),
        ("adapt", "embedded-pair adaptive run; also writes a step log"),
    ):
        _add_common(subs.add_parser(name, help=desc))
    return parser


def config_from_args(args: argparse.Namespace) -> RunConfig:
    flags = {key: getattr(args, key.replace("-", "_"), None) for key in RUN_KEYS}
    flags["mode"] = _MODE_FOR[args.command]
    return parse_config(flags, config_file=args.config)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = config_from_args(args)
        paths = run(cfg)
    except (
        ConfigError,
        ValueError,
        OSError,
        NonConvergenceError,
        StepSizeUnderflowError,
        TooManyRejectsError,
    ) as exc:
        print(f"geomint: error: {exc}", file=sys.stderr)
        return 1
    for path in paths:
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
