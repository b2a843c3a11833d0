# -*- coding: utf-8 -*-

"""
Experiment orchestration: load configs, run single or Monte Carlo
optimizations, and export fronts, distance traces, and c-ratio tables
as CSV/JSON.

All outputs are a pure function of (config, seed): re-running an
experiment reproduces the output tree byte for byte (wall-clock timings
are only written on request for that reason).
"""

from __future__ import annotations

import json
import os
import re
import shutil
import time
from dataclasses import asdict, dataclass, fields

import numpy as np

from .convergence import ConvergenceConfig, ConvergenceMonitor, FrontSnapshot, MODES
from .mopso import MopsoConfig, init_swarm, pareto_filter, step
from .scenario import (
    JSON_KINDS,
    Scenario,
    ScenarioError,
    json_object,
    json_value,
    load_scenario,
    make_objective,
    read_json,
)


class ConfigError(ValueError):
    """Invalid experiment configuration file."""


DEFAULT_SNAPSHOTS = (10, 50, 100, 400, 1000)


@dataclass(frozen=True)
class ExperimentConfig:
    scenario_path: str
    scenario: Scenario
    mopso: MopsoConfig
    convergence: ConvergenceConfig
    trials: int = 1
    base_seed: int = 0
    snapshot_iterations: tuple = DEFAULT_SNAPSHOTS
    output_dir: str = "out"
    halt_on_stop: bool = True

    def __post_init__(self):
        if self.trials < 1:
            raise ConfigError("trials must be >= 1")
        if self.base_seed < 0:
            raise ConfigError("base_seed must be >= 0")
        snaps = tuple(sorted(set(int(s) for s in self.snapshot_iterations)))
        if snaps and snaps[-1] > self.mopso.max_iterations:
            raise ConfigError(
                "snapshot_iterations exceed mopso.max_iterations "
                f"({snaps[-1]} > {self.mopso.max_iterations})"
            )
        if any(s < 1 for s in snaps):
            raise ConfigError("snapshot_iterations must be >= 1")
        object.__setattr__(self, "snapshot_iterations", snaps)


@dataclass
class RunResult:
    """One run's fronts (``FrontSnapshot``s with positions) and trace.

    ``stop_front`` is the front at the first iteration where the stopping
    rule held, or ``final_front`` itself when it never held.
    """

    seed: int
    final_front: FrontSnapshot
    snapshots: dict  # iteration -> FrontSnapshot
    stop_front: FrontSnapshot
    trace: list  # of convergence.TraceRecord
    effective_threshold: float | None  # None: relative threshold never resolved
    wall_time: float
    all_fronts: list | None = None  # per-iteration FrontSnapshot when requested

    @property
    def stop_iteration(self):
        return self.stop_front.iteration

    @property
    def iterations_run(self):
        return self.final_front.iteration


def _check_types(cls, obj):
    """Raise ValueError unless every field of ``cls`` set in ``obj`` is a
    JSON value of the kind its annotation names (``scenario.json_value``):
    Python's int(), float() and bool() would accept 2.5, true or "false".

    The annotations are strings (postponed evaluation); ``"... | None"``
    also admits null, and fields of other types have their own loaders.
    """
    for f in fields(cls):
        kind = f.type.removesuffix(" | None")
        if f.name not in obj or kind not in JSON_KINDS:
            continue
        if obj[f.name] is not None or kind == f.type:
            json_value(obj[f.name], kind, f.name, ValueError)


def _build(cls, obj, context):
    json_object(obj, context, {f.name for f in fields(cls)}, error=ConfigError)
    try:
        _check_types(cls, obj)
        return cls(**obj)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid '{context}': {exc}") from None


def experiment_from_dict(doc, base_dir="."):
    """Build and validate an ExperimentConfig from a parsed document."""
    known = {f.name for f in fields(ExperimentConfig)} - {"scenario_path"}
    sections = ("scenario", "mopso", "convergence")
    json_object(doc, "experiment config", known, sections, error=ConfigError)

    scenario_path = json_value(doc["scenario"], "str", "scenario", ConfigError)
    if not os.path.isabs(scenario_path):
        scenario_path = os.path.join(base_dir, scenario_path)
    try:
        scenario = load_scenario(scenario_path)
    except ScenarioError as exc:
        raise ConfigError(f"invalid 'scenario': {exc}") from None

    mopso_cfg = _build(MopsoConfig, doc["mopso"], "mopso")
    conv_cfg = _build(ConvergenceConfig, doc["convergence"], "convergence")

    try:
        _check_types(ExperimentConfig, doc)
        snapshots = tuple(
            doc.get("snapshot_iterations", [s for s in DEFAULT_SNAPSHOTS
                                            if s <= mopso_cfg.max_iterations])
        )
        for i, s in enumerate(snapshots):
            json_value(s, "int", f"snapshot_iterations[{i}]", ValueError)
        options = {key: value for key, value in doc.items() if key not in sections}
        options["snapshot_iterations"] = snapshots
        return ExperimentConfig(scenario_path, scenario, mopso_cfg, conv_cfg, **options)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid experiment config: {exc}") from None


def load_experiment(path):
    """Load and validate an experiment JSON file."""
    doc = read_json(path, "experiment config", ConfigError)
    return experiment_from_dict(doc, base_dir=os.path.dirname(os.path.abspath(path)))


def run_single(cfg, seed, keep_all_fronts=False):
    """One seeded optimization run with the adaptive stopping monitor.

    With ``cfg.halt_on_stop`` false the run continues to the iteration
    cap but still records the first iteration at which the criterion
    held, together with the archive front at that point.
    """
    t0 = time.perf_counter()
    rng = np.random.default_rng(seed)
    scenario = cfg.scenario
    box = scenario.deployment_region
    n_ant = scenario.n_antennas
    lower = np.tile([box.x_min, box.y_min], n_ant)
    upper = np.tile([box.x_max, box.y_max], n_ant)
    objective = make_objective(scenario)

    swarm, archive = init_swarm(objective, lower, upper, cfg.mopso, rng)
    monitor = ConvergenceMonitor(cfg.convergence)
    monitor.observe(0, archive.values())

    snapshots = {}
    all_fronts = [] if keep_all_fronts else None
    stop_front = None
    for t in range(1, cfg.mopso.max_iterations + 1):
        step(swarm, archive, objective, lower, upper, cfg.mopso, rng)
        front = FrontSnapshot(t, archive.values(), archive.positions())
        if t in cfg.snapshot_iterations:
            snapshots[t] = front
        if keep_all_fronts:
            all_fronts.append(front)
        decision = monitor.observe(t, front.values)
        if decision == ConvergenceMonitor.STOP and stop_front is None:
            stop_front = front
            if cfg.halt_on_stop:
                break

    threshold = monitor.effective_threshold
    return RunResult(
        seed=seed,
        final_front=front,
        snapshots=snapshots,
        stop_front=front if stop_front is None else stop_front,
        trace=monitor.trace.records,
        effective_threshold=None if threshold is None else float(threshold),
        wall_time=time.perf_counter() - t0,
        all_fronts=all_fronts,
    )


def _run_trial(args):
    cfg, seed = args
    return run_single(cfg, seed)


def run_monte_carlo(cfg, jobs=1):
    """Independent seeded trials (seeds base_seed + i); returns the results.

    Trials are fully independent; with jobs > 1 they run in separate
    processes, results keyed by trial index either way.
    """
    if jobs < 1:
        raise ConfigError(f"jobs must be >= 1, got {jobs}")
    seeds = [cfg.base_seed + i for i in range(cfg.trials)]
    if jobs > 1 and cfg.trials > 1:
        from concurrent.futures import ProcessPoolExecutor  # ~20 ms; not at import
        # the fork start method launches every worker at the first submit
        with ProcessPoolExecutor(max_workers=min(jobs, cfg.trials)) as pool:
            results = list(pool.map(_run_trial, [(cfg, s) for s in seeds]))
    else:
        results = [run_single(cfg, s) for s in seeds]
    return results


# ---------------------------------------------------------------------------
# c-ratio report
# ---------------------------------------------------------------------------


def interpolate_front(values, anchor):
    """Objective-2 of a bi-objective maximization front at objective-1=anchor.

    Piecewise-linear along the front sorted by objective 1; NaN when the
    anchor lies outside the front's objective-1 range.
    """
    vals = np.unique(np.asarray(values, dtype=float), axis=0)
    order = np.argsort(vals[:, 0])
    f1 = vals[order, 0]
    f2 = vals[order, 1]
    if anchor < f1[0] or anchor > f1[-1]:
        return float("nan")
    return float(np.interp(anchor, f1, f2))


@dataclass
class CRatioRow:
    anchor: float
    iteration: int
    value: float  # interpolated objective-2 (NaN when unavailable)
    c_percent: float


@dataclass
class CRatioReport:
    anchors: tuple
    rows: list


def default_anchors(final_values, quantiles=(0.25, 0.5, 0.75)):
    """Anchor objective-1 values at the given quantiles of the final front."""
    f1 = np.asarray(final_values, dtype=float)[:, 0]
    return tuple(float(np.quantile(f1, q)) for q in quantiles)


def c_ratio_report(snapshots, anchors=None):
    """Per-anchor interpolated objective-2 and its ratio to the final front.

    ``snapshots`` maps iteration -> (K, 2) objective arrays; the largest
    iteration is the reference, where c = 100 by construction.
    """
    iters = sorted(snapshots)
    if not iters:
        raise ValueError("c_ratio_report needs at least one snapshot")
    sample = np.atleast_2d(np.asarray(snapshots[iters[0]], dtype=float))
    if sample.shape[1] != 2:
        raise ValueError("c-ratio report is defined for bi-objective fronts only")
    final = np.asarray(snapshots[iters[-1]], dtype=float)
    if anchors is None:
        anchors = default_anchors(final)
    rows = []
    for anchor in anchors:
        ref = interpolate_front(final, anchor)
        for it in iters:
            val = interpolate_front(snapshots[it], anchor)
            if it == iters[-1]:
                c = 100.0
            elif np.isnan(val) or np.isnan(ref) or ref == 0:
                c = float("nan")
            else:
                c = 100.0 * val / ref
            rows.append(CRatioRow(anchor=anchor, iteration=it, value=val, c_percent=c))
    return CRatioReport(anchors=tuple(anchors), rows=rows)


# ---------------------------------------------------------------------------
# Export
# ---------------------------------------------------------------------------


def _fmt(x):
    """17-significant-digit decimal, round-trip stable for float64."""
    if isinstance(x, float) and np.isnan(x):
        return "nan"
    return format(float(x), ".17g")


def _write_text(path, text):
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise OSError(f"failed to write {path}: {exc}") from exc


def _write_csv(path, header, rows):
    _write_text(path, "".join(",".join(row) + "\n" for row in (header, *rows)))


def _front_table(front):
    """Header and rows of a front: objective values, then the flat layout."""
    values, positions = front.values, front.positions
    header = [f"f{q + 1}" for q in range(values.shape[1])] + [
        f"{axis}{j + 1}" for j in range(positions.shape[1] // 2) for axis in ("x", "y")
    ]
    rows = [[_fmt(x) for x in (*v, *p)] for v, p in zip(values, positions)]
    return header, rows


def write_front_csv(path, front):
    """front_t{iter}.csv: objective values then the flat decision vector."""
    _write_csv(path, *_front_table(front))


def read_front_csv(path):
    """Inverse of write_front_csv; returns (values, positions).

    Raises ValueError unless the header is followed by at least one row of
    as many numbers as it has columns.
    """
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n").split(",")
        m = sum(1 for name in header if name.startswith("f"))
        rows = [[float(tok) for tok in line.rstrip("\n").split(",")] for line in fh]
    if not rows or any(len(row) != len(header) for row in rows):
        raise ValueError(f"{path}: expected rows of {len(header)} numbers")
    data = np.array(rows)
    return data[:, :m], data[:, m:]


def write_trace_csv(path, trace):
    rows = (
        [str(rec.iteration), mode, _fmt(rec.dist[mode]), str(rec.z), str(rec.n_points)]
        for rec in trace
        for mode in MODES
    )
    _write_csv(path, ["t", "mode", "dist", "z", "K"], rows)


def write_c_ratio_csv(path, report):
    rows = (
        [_fmt(r.anchor), str(r.iteration), _fmt(r.value), _fmt(r.c_percent)]
        for r in report.rows
    )
    _write_csv(path, ["anchor_f1", "iteration", "f2", "c_percent"], rows)


def _config_echo(cfg):
    return {
        "scenario": cfg.scenario_path,
        "mopso": asdict(cfg.mopso),
        "convergence": asdict(cfg.convergence),
        "trials": cfg.trials,
        "base_seed": cfg.base_seed,
        "snapshot_iterations": list(cfg.snapshot_iterations),
        "halt_on_stop": cfg.halt_on_stop,
    }


def _remove_stale(directory, pattern, written):
    """Delete the entries of ``directory`` named like ``pattern`` but not in
    ``written``: what an earlier export left and this one does not write."""
    for name in os.listdir(directory):
        if name not in written and re.fullmatch(pattern, name):
            path = os.path.join(directory, name)
            if os.path.isdir(path):
                shutil.rmtree(path)
            else:
                os.remove(path)


def export_run(result, cfg, directory, include_timings=False):
    """Write one run's fronts, trace, summary, and c-ratio table.

    Timings vary between executions, so they are only written when
    requested; everything else is byte-stable for a fixed (config, seed).
    """
    os.makedirs(directory, exist_ok=True)
    fronts = dict(result.snapshots)
    fronts[result.iterations_run] = result.final_front
    c_ratio = {"c_ratio.csv"} if result.final_front.values.shape[1] == 2 else set()
    written = c_ratio | {f"front_t{it}.csv" for it in fronts}
    _remove_stale(directory, r"front_t[1-9]\d*\.csv|c_ratio\.csv", written)
    for it, front in sorted(fronts.items()):
        if not _front_is_clean(front.values):
            raise RuntimeError(f"exported front at iteration {it} is not a Pareto set")
        write_front_csv(os.path.join(directory, f"front_t{it}.csv"), front)
    write_trace_csv(os.path.join(directory, "trace.csv"), result.trace)

    report = None
    if c_ratio:
        report = c_ratio_report({it: f.values for it, f in fronts.items()})
        write_c_ratio_csv(os.path.join(directory, "c_ratio.csv"), report)

    summary = {
        "seed": result.seed,
        "stop_iteration": result.stop_iteration,
        "iterations_run": result.iterations_run,
        "effective_threshold": result.effective_threshold,
        "front_sizes": {str(it): int(f.values.shape[0]) for it, f in sorted(fronts.items())},
        "config": _config_echo(cfg),
    }
    if include_timings:
        summary["wall_time_s"] = result.wall_time
    _write_json(os.path.join(directory, "summary.json"), summary)
    return report


def _front_is_clean(values):
    vals = np.unique(np.atleast_2d(values), axis=0)
    return len(pareto_filter(vals)) == vals.shape[0]


def _write_json(path, obj):
    _write_text(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")


def export_monte_carlo(results, cfg, directory, include_timings=False):
    """Per-trial exports plus seed-pooled aggregates."""
    os.makedirs(directory, exist_ok=True)
    pooled_its = [it for it in cfg.snapshot_iterations
                  if any(it in r.snapshots for r in results)]
    written = {f"trial_{i:04d}" for i in range(len(results))}
    written |= {f"pooled_front_t{it}.csv" for it in pooled_its}
    _remove_stale(directory, r"trial_\d{4,}|pooled_front_t[1-9]\d*\.csv", written)
    for i, result in enumerate(results):
        export_run(
            result,
            cfg,
            os.path.join(directory, f"trial_{i:04d}"),
            include_timings=include_timings,
        )

    stops = np.array([r.stop_iteration for r in results], dtype=float)
    summary = {
        "trials": cfg.trials,
        "seeds": [r.seed for r in results],
        "stop_iteration": {
            "median": float(np.median(stops)),
            "q25": float(np.quantile(stops, 0.25)),
            "q75": float(np.quantile(stops, 0.75)),
            "min": int(stops.min()),
            "max": int(stops.max()),
        },
        "config": _config_echo(cfg),
    }
    if include_timings:
        summary["wall_time_s"] = sum(r.wall_time for r in results)
    _write_json(os.path.join(directory, "summary.json"), summary)

    # mean distance trace per evaluation iteration, per mode
    acc = {}
    for r in results:
        for rec in r.trace:
            for mode in MODES:
                acc.setdefault((rec.iteration, mode), []).append(rec.dist[mode])
    rows = (
        [str(t), mode, _fmt(float(np.mean(vals))), str(len(vals))]
        for (t, mode), vals in sorted(acc.items())
    )
    _write_csv(
        os.path.join(directory, "mean_trace.csv"), ["t", "mode", "mean_dist", "n"], rows
    )

    # pooled fronts per snapshot iteration, with the trial index leading
    for it in pooled_its:
        pooled = []
        for i, r in enumerate(results):
            if it in r.snapshots:
                header, rows = _front_table(r.snapshots[it])
                pooled += [[str(i)] + row for row in rows]
        _write_csv(
            os.path.join(directory, f"pooled_front_t{it}.csv"),
            ["trial"] + header,
            pooled,
        )
    return summary
