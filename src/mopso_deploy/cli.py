# -*- coding: utf-8 -*-

"""
Command-line entry point.

Subcommands:
  run     one seeded optimization, export to --out
  mc      Monte Carlo trials (seeds base_seed + i), per-trial + pooled exports
  report  recompute the c-ratio table from a stored run directory

Errors exit nonzero with a machine-readable JSON line on stderr:
exit 2 = configuration error, a config whose sizes need more memory than
is free included; 3 = I/O error; 1 = internal error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import replace

from .convergence import MODES
from .runner import (
    ConfigError,
    c_ratio_report,
    export_monte_carlo,
    export_run,
    load_experiment,
    read_fronts,
    run_monte_carlo,
    run_single,
    write_c_ratio_csv,
)
from .scenario import ScenarioError

_CADENCES = {"every-h": "every_h", "every-iter": "every_iteration"}


def _apply_overrides(cfg, args):
    conv = cfg.convergence
    if getattr(args, "mode", None):
        conv = replace(conv, mode=args.mode)
    if getattr(args, "cadence", None):
        conv = replace(conv, cadence=_CADENCES[args.cadence])
    cfg = replace(cfg, convergence=conv)
    if getattr(args, "trials", None) is not None:
        cfg = replace(cfg, trials=args.trials)
    if getattr(args, "seed", None) is not None:
        cfg = replace(cfg, base_seed=args.seed)
    if getattr(args, "out", None):
        cfg = replace(cfg, output_dir=args.out)
    return cfg


def cmd_run(args):
    cfg = _apply_overrides(load_experiment(args.config), args)
    result = run_single(cfg, cfg.base_seed)
    export_run(result, cfg, cfg.output_dir, include_timings=args.timings)
    print(
        f"run seed={result.seed} stopped at iteration {result.stop_iteration} "
        f"(front size {result.final_front.values.shape[0]}) -> {cfg.output_dir}"
    )
    return 0


def cmd_mc(args):
    cfg = _apply_overrides(load_experiment(args.config), args)
    results = run_monte_carlo(cfg, jobs=args.jobs)
    summary = export_monte_carlo(
        results, cfg, cfg.output_dir, include_timings=args.timings
    )
    med = summary["stop_iteration"]["median"]
    print(
        f"mc trials={cfg.trials} base_seed={cfg.base_seed} "
        f"median stop iteration {med:g} -> {cfg.output_dir}"
    )
    return 0


def cmd_report(args):
    try:
        fronts = read_fronts(args.results)
    except ValueError as exc:
        raise ConfigError(f"bad front file: {exc}") from None
    if not fronts:
        raise ConfigError(f"no front_t{{N}}.csv files found in {args.results}")
    try:
        anchors = [float(a) for a in args.anchors.split(",")] if args.anchors else None
    except ValueError:
        raise ConfigError(f"--anchors must be numbers, got {args.anchors!r}") from None
    if anchors and not all(map(math.isfinite, anchors)):
        raise ConfigError(f"--anchors must be finite, got {args.anchors!r}")
    try:
        anchors, rows = c_ratio_report(fronts, anchors=anchors)
    except ValueError as exc:  # a front with other than two objectives
        raise ConfigError(str(exc)) from None
    out = args.out or os.path.join(args.results, "c_ratio.csv")
    write_c_ratio_csv(out, rows)
    print(f"report anchors={list(anchors)} -> {out}")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="mopso-deploy",
        description="Multi-objective PSO antenna deployment with an "
        "interval-distance stopping rule",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="experiment JSON file")
        p.add_argument("--seed", type=int, help="override base seed")
        p.add_argument("--out", help="override output directory")
        p.add_argument("--mode", choices=MODES)
        p.add_argument("--cadence", choices=_CADENCES)
        p.add_argument(
            "--timings", action="store_true", help="include wall times in summaries"
        )

    p_run = sub.add_parser("run", help="single seeded run")
    common(p_run)
    p_run.set_defaults(func=cmd_run)

    p_mc = sub.add_parser("mc", help="Monte Carlo trials")
    common(p_mc)
    p_mc.add_argument("--trials", type=int, help="override trial count")
    p_mc.add_argument("--jobs", type=int, default=1, help="parallel worker processes")
    p_mc.set_defaults(func=cmd_mc)

    p_rep = sub.add_parser("report", help="c-ratio table from stored fronts")
    p_rep.add_argument("--results", required=True, help="directory with front_t*.csv")
    p_rep.add_argument("--anchors", help="comma-separated objective-1 anchors")
    p_rep.add_argument("--out", help="output CSV path")
    p_rep.set_defaults(func=cmd_report)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ScenarioError) as exc:
        print(json.dumps({"error": "config", "message": str(exc)}), file=sys.stderr)
        return 2
    except MemoryError:
        message = ("out of memory: the config's sizes (mopso.swarm_size, the region "
                   "grids, trials) need more memory than is free")
        print(json.dumps({"error": "config", "message": message}), file=sys.stderr)
        return 2
    except OSError as exc:
        print(json.dumps({"error": "io", "message": str(exc)}), file=sys.stderr)
        return 3
    except Exception as exc:  # pragma: no cover
        print(json.dumps({"error": "internal", "message": str(exc)}), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
