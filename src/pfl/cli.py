"""Command-line front end.

    pfl <scenario> --config FILE [--jobs N] [--out DIR] [--seed S]
    pfl validate --config FILE
    pfl version

Exit codes: 0 success, 2 configuration error, 3 runtime error. Without
--out, a run writes to $PFL_OUT/<scenario> ($PFL_OUT defaults to ./pfl-out).
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace
from pathlib import Path

from . import __version__
from .config import SCENARIOS, ConfigError, parse_config

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pfl",
        description="Paraxial fluids of light: split-step solver, fluid "
                    "diagnostics and a gradient-echo-memory simulator.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("version", help="print the package version")

    validate = sub.add_parser("validate", help="parse and validate a config file")
    validate.add_argument("--config", required=True, help="configuration file")

    for name in SCENARIOS:
        sp = sub.add_parser(name, help=f"run the {name} scenario")
        sp.add_argument("--config", required=True, help="configuration file")
        sp.add_argument("--jobs", type=int, default=1,
                        help="FFT worker threads (default 1); results do not depend on it")
        sp.add_argument("--out", default=None, help="output directory")
        sp.add_argument("--seed", type=int, default=None, help="override run.seed")
    return parser


def _load_config(path: str):
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc.strerror}") from exc
    return parse_config(text)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)

    if args.command == "version":
        print(f"pfl {__version__}")
        return EXIT_OK

    try:
        cfg = _load_config(args.config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    if args.command == "validate":
        print(f"ok: scenario {cfg.scenario!r}, seed {cfg.run['seed']}")
        return EXIT_OK

    if cfg.scenario != args.command:
        print(f"config error: config declares scenario {cfg.scenario!r} but the "
              f"command line asked for {args.command!r}", file=sys.stderr)
        return EXIT_CONFIG

    if args.seed is not None:
        cfg = replace(cfg, run={**cfg.run, "seed": args.seed})
    if args.jobs < 1:
        print("config error: --jobs must be at least 1", file=sys.stderr)
        return EXIT_CONFIG

    from .scenarios import run_scenario  # loads numpy and the solver

    out_dir = Path(args.out or Path(os.environ.get("PFL_OUT", "pfl-out")) / cfg.scenario)
    try:
        writer = run_scenario(cfg, out_dir, args.jobs)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:  # noqa: BLE001 - scenario failures map to exit 3
        print(f"runtime error in scenario {cfg.scenario!r}: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    print(f"wrote {len(writer.paths)} artifacts + manifest to {out_dir}")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
