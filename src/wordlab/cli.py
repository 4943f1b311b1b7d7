"""Command-line entry point.

Every experiment subcommand accepts an optional flat config file plus
flags that override it; the merged configuration is validated as a whole
(unknown keys and keys the experiment does not take rejected, seed
mandatory).  Reports and tables are written to the output directory with
deterministic bytes.

Exit codes: 0 success, 1 configuration or I/O problem (including a bad
flag and audit discrepancies), 2 enumeration budget exceeded.
"""

from __future__ import annotations

import argparse
import functools
import sys
from typing import Optional, Sequence

from .errors import BudgetExceededError, ConfigError, TooLargeError, WordlabError
from .harness import (
    CHOICES,
    DEFAULTS,
    EXPERIMENTS,
    KNOWN_KEYS,
    audit_report,
    build_config,
    ingest_cayley_table,
    parse_config_file,
)

# Config keys every experiment subcommand takes as flags.
_COMMON_KEYS = ("seed", "out")


def _add_flags(parser: argparse.ArgumentParser, keys: Sequence[str]) -> None:
    parser.add_argument("--config", help="flat key=value config file")
    # values stay strings: `build_config` types and checks them, as it
    # does those of a config file
    for key in keys:
        text = KNOWN_KEYS[key][1]
        if key in CHOICES:
            text += ": " + " or ".join(CHOICES[key])
        if key in DEFAULTS:
            text += f" (default {DEFAULTS[key]})"
        parser.add_argument("--" + key.replace("_", "-"), dest=key, help=text)


class _Parser(argparse.ArgumentParser):
    # A bad flag is a config error (exit 1); argparse's own exit 2 is the
    # budget code here.  Subparsers inherit the class.
    def error(self, message: str):
        raise ConfigError(f"{self.prog}: {message}")


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The whole argument tree, built once per process: the experiment
    registry is fixed at import, and parsing leaves the parser unchanged."""
    parser = _Parser(
        prog="wordlab",
        description="Word maps, walks, and generation experiments on finite groups.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, experiment in EXPERIMENTS.items():
        p = sub.add_parser(name, help=experiment.help)
        _add_flags(p, _COMMON_KEYS + experiment.keys)

    p = sub.add_parser("audit", help="recompute a report's derived fields, list diffs")
    p.add_argument("report", help="path to a report.json produced by this tool")

    p = sub.add_parser("ingest", help="validate an external Cayley-table file")
    p.add_argument("table", help="path to the table file")
    p.add_argument("--out", help="directory for the summary JSON")

    return parser


def _run_experiment(args: argparse.Namespace, name: str) -> int:
    experiment = EXPERIMENTS[name]
    from_file = parse_config_file(args.config) if args.config else {}
    flags = {key: getattr(args, key) for key in _COMMON_KEYS + experiment.keys}
    config = build_config(name, from_file, flags)
    report = experiment.run(config)
    paths = experiment.write(report, config.get("out"))
    exit_code = experiment.summarize(report)
    for path in paths:
        print(f"wrote {path}")
    print(f"wall clock: {report['wall_clock_seconds']:.2f}s")
    return exit_code


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if args.command == "audit":
            diffs = audit_report(args.report)
            if diffs:
                for d in diffs:
                    print(d, file=sys.stderr)
                print(f"audit failed: {len(diffs)} diff(s)", file=sys.stderr)
                return 1
            print("audit ok: aggregates match the records")
            return 0
        if args.command == "ingest":
            summary = ingest_cayley_table(args.table, args.out)
            print(f"valid Cayley table: order {summary['order']}"
                  + (f", abelian: {summary['abelian']}, center: {summary['center_size']},"
                     f" perfect: {summary['perfect']}"
                     if summary["abelian"] is not None else ""))
            return 0
        return _run_experiment(args, args.command)
    except (BudgetExceededError, TooLargeError) as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return 2
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 1
    except WordlabError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
