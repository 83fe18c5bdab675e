"""Command line front end: ``geomint simulate | converge | adapt``."""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .harness import _KEY_TYPES, ConfigError, RunConfig, parse_config, parse_config_file, run
from .integrators import NonConvergenceError, StepSizeUnderflowError, TooManyRejectsError

_MODE_FOR = {"simulate": "fixed", "converge": "converge", "adapt": "adaptive"}

# Every run key and system override but mode, which the subcommand sets.
_FLAG_KEYS = [key for key in _KEY_TYPES if key != "mode"]
_EPILOG = "--KEY VALUE is read as the config-file line 'KEY = VALUE'; flags win over --config."


class _Parser(argparse.ArgumentParser):
    """A bad command line is a ConfigError, so it exits 1 with one error
    line, as a bad config-file line does; the subparsers share the class."""

    def error(self, message):
        raise ConfigError(message)


def _add_common(sub: argparse.ArgumentParser) -> None:
    for key in _FLAG_KEYS:
        sub.add_argument(f"--{key}", dest=key, metavar=_KEY_TYPES[key].__name__.upper())
    sub.add_argument("--config", help="flat key = value config file")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="geomint",
        description="Lie group integrators on rigid-body and multibody benchmarks",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for name, desc in (
        ("simulate", "fixed-step run; writes trajectory and invariant CSVs"),
        ("converge", "step-halving error ladder with fitted slope"),
        ("adapt", "embedded-pair adaptive run; also writes a step log"),
    ):
        _add_common(subs.add_parser(name, help=desc, epilog=_EPILOG))
    return parser


def config_from_args(args: argparse.Namespace) -> RunConfig:
    """The RunConfig of the flags over --config (flags win), in the
    subcommand's mode; a config file's mode line must name that mode."""
    flags = {key: getattr(args, key) for key in _FLAG_KEYS}
    flags["mode"] = _MODE_FOR[args.command]
    if args.config is not None:
        mode = parse_config_file(args.config).get("mode", flags["mode"])
        if mode != flags["mode"]:
            raise ConfigError(f"{args.config} sets mode = {mode}, but "
                              f"'{args.command}' runs mode {flags['mode']}")
    return parse_config(flags, config_file=args.config)


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        # a value that overflows is a defined error (the finiteness checks
        # report it), so numpy's warnings would only precede that message
        with np.errstate(all="ignore"):
            paths = run(config_from_args(args))
    except (ValueError, OSError, MemoryError,  # a ConfigError is a ValueError
            NonConvergenceError, StepSizeUnderflowError, TooManyRejectsError) as exc:
        print(f"geomint: error: {exc}", file=sys.stderr)
        return 1
    for path in paths:
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
