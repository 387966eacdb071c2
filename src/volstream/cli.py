"""Command-line entry point.

    volstream run --scenario paper-default [--seed N] [--out DIR]
    volstream run --config lab.cfg [--mode sim|socket] [--role sender|relay|receiver]
    volstream validate --config lab.cfg

Exit codes: 0 success, 1 runtime failure, also a stream run in which a
receiver completed no frame or one whose payload check failed, or a sweep
in which a receiver did either at some rate (each written in full), 2
invalid configuration, also ``--role`` without socket mode. Any
configuration key can be overridden via ``VOLSTREAM_<KEY>`` environment
variables (dots become underscores).
"""

from __future__ import annotations

import argparse
import sys

from .config import (ScenarioConfig, apply_overrides, env_overrides,
                     load_config_file, validate)
from .errors import ConfigError, VolstreamError
from .runner import run_experiment
from .scenarios import scenario_config, scenario_names

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_CONFIG = 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="volstream",
        description="Desk-scale latency lab for volumetric frame streaming")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_source(p):
        group = p.add_mutually_exclusive_group(required=True)
        group.add_argument("--config", help="flat key=value scenario file")
        group.add_argument("--scenario", choices=scenario_names(),
                           help="canned scenario name")

    run_p = sub.add_parser("run", help="run a scenario and write its report")
    add_source(run_p)
    run_p.add_argument("--seed", type=int, help="override the scenario seed")
    run_p.add_argument("--out", help="output directory for CSV reports")
    run_p.add_argument("--mode", choices=("sim", "socket"), help="override run mode")
    run_p.add_argument("--role", choices=("sender", "relay", "receiver"),
                       help="socket mode: run only this role (multi-host use)")
    run_p.add_argument("--role-index", type=int, default=0,
                       help="receiver index for --role receiver")
    run_p.add_argument("--quiet", action="store_true", help="suppress the summary table")

    val_p = sub.add_parser("validate", help="check a scenario without running it")
    add_source(val_p)
    return parser


def _build_config(args) -> tuple[ScenarioConfig, list]:
    diags = []
    if args.config:
        cfg, diags = load_config_file(args.config)
    else:
        cfg = scenario_config(args.scenario)
    diags += apply_overrides(cfg, env_overrides())
    if getattr(args, "seed", None) is not None:
        cfg.seed = args.seed
    if getattr(args, "out", None):
        cfg.out_dir = args.out
    if getattr(args, "mode", None):
        cfg.mode = args.mode
    diags += validate(cfg)
    return cfg, diags


def run(cfg: ScenarioConfig, role: str | None = None, role_index: int = 0,
        quiet: bool = False) -> int:
    """Execute a validated scenario; returns the process exit code."""
    result = run_experiment(cfg, role=role, role_index=role_index)
    if result is None:      # one socket role: the orchestrator reports the run
        return EXIT_OK
    if not quiet:
        print(result.table())
        print(f"report written under {cfg.out_dir}")
    errors = []
    for label, summary in result.streams():
        if summary.frames_completed == 0:
            errors.append(f"{label} completed 0 of {summary.frames_sent} frames")
        mismatches = summary.packet_counts["payload_mismatches"]
        if mismatches:
            errors.append(f"{label} failed the payload check: "
                          f"payload_mismatches={mismatches}")
    for error in errors:
        print(f"runtime error: {error}", file=sys.stderr)
    return EXIT_RUNTIME if errors else EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg, diags = _build_config(args)
    except VolstreamError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    if diags:
        for d in diags:
            print(f"config error: {d}", file=sys.stderr)
        return EXIT_CONFIG
    if args.command == "validate":
        print("configuration is valid")
        return EXIT_OK
    try:
        return run(cfg, role=args.role, role_index=args.role_index, quiet=args.quiet)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (VolstreamError, OSError) as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
