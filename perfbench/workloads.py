"""The benchmark's workloads, each driven through the public config format.

* ``default-1000``: the shipped default experiment run to its 1000-iteration
  cap (``halt_on_stop`` false) and exported. It is the paper's experiment;
  the objective and the per-particle updates dominate, the stopping rule is
  about 2%, so it is the no-change control for stopping-rule work.
* ``desk-mc``: the shipped desk experiment exactly as ``mopso-deploy mc
  --jobs 2`` runs it. The only workload on the process pool, the halting
  path and the per-trial plus pooled exports.
* ``front-m3``: a 3-objective experiment owned by the benchmark. The
  bounded archive fills and evicts on almost every accept, and the stopping
  rule compares two ~150-point fronts every iteration, so
  ``relative_distances`` and the archive dominate instead of the objective.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, replace
from typing import Callable


@dataclass(frozen=True)
class Workload:
    name: str
    experiment: Callable  # (repo root, work dir) -> path of the experiment JSON
    rotation: int  # distinct run seeds per benchmark run, cycled in order
    jobs: int  # worker processes of the measured operation
    monte_carlo: bool


def _default_1000(root, work):
    configs = os.path.join(root, "configs")
    with open(os.path.join(configs, "default_experiment.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    doc["scenario"] = os.path.join(configs, doc["scenario"])
    doc["halt_on_stop"] = False
    return _write(work, "default_1000.json", doc)


def _desk_mc(root, work):
    return os.path.join(root, "configs", "desk_experiment.json")


def _front_m3(root, work):
    configs = os.path.join(root, "configs")
    with open(os.path.join(configs, "default_scenario.json"), encoding="utf-8") as fh:
        scenario = json.load(fh)
    scenario["regions"].append(
        {"bounds": {"x_min": 45, "x_max": 60, "y_min": 45, "y_max": 60, "unit": "km"}}
    )
    for region in scenario["regions"]:
        region["grid"] = {"nx": 4, "ny": 4}
    experiment = {
        "scenario": _write(work, "front_m3_scenario.json", scenario),
        "mopso": {"swarm_size": 30, "inertia": 0.4, "c1": 2.0, "c2": 2.0,
                  "v_max": 150.0, "archive_capacity": 150, "max_iterations": 400},
        "convergence": {"step": 5, "threshold": 0.00025, "mode": "avg",
                        "cadence": "every_iteration", "normalized": True},
        "trials": 1,
        "snapshot_iterations": [10, 50, 100, 400],
        "halt_on_stop": False,
    }
    return _write(work, "front_m3.json", experiment)


def _write(work, name, doc):
    path = os.path.join(work, name)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
    return path


WORKLOADS = {
    w.name: w
    for w in (
        Workload("default-1000", _default_1000, rotation=3, jobs=1, monte_carlo=False),
        Workload("desk-mc", _desk_mc, rotation=8, jobs=2, monte_carlo=True),
        Workload("front-m3", _front_m3, rotation=3, jobs=1, monte_carlo=False),
    )
}


def seeded(workload, cfg, run_seed):
    """The experiment config an operation runs for ``run_seed``."""
    return replace(cfg, base_seed=run_seed) if workload.monte_carlo else cfg


def run_operation(workload, cfg, run_seed, jobs, out_dir):
    """One operation: the run(s) and their export.

    Returns (results, run_s, wall_s). The runner's functions are looked up
    on the module at call time, so the tracer's spans see these calls.
    """
    from mopso_deploy import runner

    cfg = seeded(workload, cfg, run_seed)
    t0 = time.perf_counter()
    if workload.monte_carlo:
        results = runner.run_monte_carlo(cfg, jobs=jobs)
        t1 = time.perf_counter()
        runner.export_monte_carlo(results, cfg, out_dir)
    else:
        results = [runner.run_single(cfg, run_seed)]
        t1 = time.perf_counter()
        runner.export_run(results[0], cfg, out_dir)
    t2 = time.perf_counter()
    return results, t1 - t0, t2 - t0
