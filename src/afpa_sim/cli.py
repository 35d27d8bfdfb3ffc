"""Command line entry point.

All subcommands share the same contract: a JSON config, a seed, and an
output directory.  One parser reads them: a positional subcommand and the
three shared options, which may come before or after it.  It is built once,
at import, and each ``main`` call parses with it.  Given identical
config and seed, every subcommand writes byte-identical files.  A user
error (any ``AfpaSimError``, such as a bad config or an unreachable study
state) prints one ``error:`` line and exits 2; a file-system error, such as
a missing config or an output path that is a file, prints one and exits 1.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .config import default_config_path, load_config
from .errors import AfpaSimError
from . import drivers

_SUBCOMMANDS = {
    "characterize-size": drivers.run_characterize_size,
    "characterize-stiffness": drivers.run_characterize_stiffness,
    "step": drivers.run_step,
    "plan": drivers.run_plan,
    "feasibility": drivers.run_feasibility,
    "study-run": drivers.run_study,
    "study-analyze": drivers.run_study_analyze,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="afpa-sim",
        description="Simulator and planner for an antagonistic fabric pneumatic actuator rig",
    )
    parser.add_argument("command", choices=_SUBCOMMANDS, help="subcommand to run")
    parser.add_argument(
        "--config",
        type=Path,
        default=None,
        help="JSON config path (defaults to the packaged config)",
    )
    parser.add_argument("--seed", type=int, default=0, help="u64 random seed")
    parser.add_argument("--out", type=Path, required=True, help="output directory")
    return parser


_PARSER = build_parser()  # main's parser: parsing leaves it as it was built


def main(argv: list[str] | None = None) -> int:
    args = _PARSER.parse_args(argv)
    if not 0 <= args.seed < 2**64:
        print(f"error: seed must fit in u64, got {args.seed}", file=sys.stderr)
        return 2
    config_path = args.config if args.config is not None else default_config_path()
    try:
        config = load_config(config_path)
        args.out.mkdir(parents=True, exist_ok=True)
        paths = _SUBCOMMANDS[args.command](config, args.seed, args.out)
    except AfpaSimError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # a missing file, or an --out that is or lies under a file
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for p in paths:
        print(p)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
