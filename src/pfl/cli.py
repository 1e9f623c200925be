"""Command-line front end.

    pfl <scenario> --config FILE [--jobs N] [--out DIR] [--seed S]
    pfl validate --config FILE
    pfl version

Exit codes: 0 success, 2 configuration error (an output directory that is
or lies under an existing file included), 3 runtime error. Without --out,
a run writes to $PFL_OUT/<scenario> ($PFL_OUT defaults to ./pfl-out).
--jobs has no effect: a run takes no thread count.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from . import __version__
from .config import SCENARIOS, ConfigError, parse_config

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3


# the options of a scenario run; version and validate take the ones listed here
_OPTIONS = ("config", "jobs", "out", "seed")
_TAKES = {"version": (), "validate": ("config",)}


def _build_parser() -> argparse.ArgumentParser:
    """One parser for every command, which builds in about half the time of
    a sub-parser per command; main refuses an option its command does not
    take."""
    parser = argparse.ArgumentParser(
        prog="pfl",
        description="Paraxial fluids of light: split-step solver, fluid "
                    "diagnostics and a gradient-echo-memory simulator.",
    )
    parser.add_argument("command", choices=["version", "validate", *SCENARIOS],
                        help="version prints the package version, validate parses and "
                             "validates a config file, a scenario name runs that scenario")
    parser.add_argument("--config", help="configuration file (validate and scenarios)")
    parser.add_argument("--jobs", type=int,
                        help="no effect (at least 1); kept so that old command lines parse")
    parser.add_argument("--out", help="output directory")
    parser.add_argument("--seed", type=int, help="override run.seed")
    return parser


def _load_config(path: str):
    try:
        text = Path(path).read_text(encoding="utf-8-sig")  # drops a byte-order mark
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config file {path} is not UTF-8 text: {exc.reason} "
                          f"at byte {exc.start}") from exc
    return parse_config(text)


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    takes = _TAKES.get(args.command, _OPTIONS)
    extra = [f"--{name}" for name in _OPTIONS
             if name not in takes and getattr(args, name) is not None]
    if extra:
        parser.error(f"{args.command} takes no {', '.join(extra)}")
    if "config" in takes and args.config is None:
        parser.error("the following arguments are required: --config")

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
        cfg = cfg._replace(run={**cfg.run, "seed": args.seed})
    if args.jobs is not None and args.jobs < 1:
        print("config error: --jobs must be at least 1", file=sys.stderr)
        return EXIT_CONFIG

    out_dir = Path(args.out or Path(os.environ.get("PFL_OUT", "pfl-out")) / cfg.scenario)
    existing = next(path for path in (out_dir, *out_dir.parents) if path.exists())
    if not existing.is_dir():
        at = "is" if existing == out_dir else f"lies under {existing}, which is"
        print(f"config error: output directory {out_dir} {at} an existing file", file=sys.stderr)
        return EXIT_CONFIG

    from .scenarios import run_scenario  # loads numpy and the solver

    try:
        writer = run_scenario(cfg, out_dir)
    except Exception as exc:  # noqa: BLE001 - scenario failures map to exit 3
        print(f"runtime error in scenario {cfg.scenario!r}: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    print(f"wrote {len(writer.paths)} artifacts + manifest to {out_dir}")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
