#!/usr/bin/env python3
"""Benchmark of mopso-deploy: seeded experiments, timed end to end and per layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload default-1000 --seed 1 --seconds 40 --trace 0

The workloads are described in ``workloads.py``. Each run derives a fixed
list of run seeds from ``--seed`` and cycles through it until ``--seconds``
are used (at least twice, so every run seed is repeated and its export
digest compared). One operation is the run(s)
plus their export; every operation's export tree is checked (``checks.py``).
The last line of stdout is the result; the line before it holds the
environment, the identity of every run seed (export digest, stop
iteration, final front size) and the raw samples.

``--trace 0`` reports the end-to-end metrics:

    wall_s       median time of one operation
    evals_per_s  median objective evaluations per second of an operation
    setup_s      median, over fresh interpreters, of launch to package
                 imported, workload config loaded and objective built
    peak_rss_mb  peak RSS of this process plus, for a pool, each worker

Two figures are printed on the detail line only, not as metrics:

    hv_stop_pct  100 * HV(front at the first stop) / HV(front at the cap)
                 for every run seed of default-1000 and front-m3 (desk-mc
                 halts at the stop, so it has no front at the cap). It is a
                 function of (config, seed) and its spread between seeds is
                 wider than any regression bound, so compare it per seed.
    fail_frac    failed / attempted operations; 0 when all is well.

``--trace 1`` runs each run seed in-process untraced and traced
(``tracer.py``) back to back, plus, for desk-mc, untraced on its pool
first, and reports per-operation layer metrics. What each should move:

    scenario.objective.*           wall_s, evals_per_s on default-1000 (~54%)
                                   and desk-mc (~36%); little on front-m3
    mopso.select_leader/update_velocity/update_position/
    update_personal_best/step.self_s
                                   evals_per_s on desk-mc and default-1000
    mopso.archive_insert.*, mopso.update_personal_best.accept_ratio,
    mopso.archive.final_size       wall_s on front-m3 and desk-mc
    convergence.*                  wall_s on front-m3 only
    runner.run_single.self_s       snapshots and front records
    runner.export.*                wall_s on desk-mc
    runner.mc.*                    wall_s on desk-mc only (from the untraced
                                   pool run; trial_s_sum / wall of the runs)
    cli.import_s, runner.load_experiment_s, scenario.make_objective_s
                                   together account for setup_s
    trace.*                        traced and untraced in-process wall, their
                                   difference (the tracing overhead), the sum
                                   of the layers' self times, and the time
                                   outside every layer
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, replace

import numpy as np

import checks
import hv
import workloads
from tracer import Tracer

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
SETUP_LAUNCHES = 7

SETUP_SNIPPET = r"""
import json, sys, time
sys.path.insert(0, sys.argv[1])
import mopso_deploy.cli
t_import = time.monotonic()
from mopso_deploy.runner import load_experiment, make_objective
cfg = load_experiment(sys.argv[2])
t_load = time.monotonic()
make_objective(cfg.scenario)
print(json.dumps([t_import, t_load, time.monotonic()]))
"""


@dataclass
class Sample:
    run_seed: int
    wall_s: float
    run_s: float
    evals: int
    trial_s_sum: float
    export_bytes: int
    final_size: float


def _median(values):
    return statistics.median(values) if values else None


def _mean(values):
    return statistics.fmean(values) if values else None


def _git_sha():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def environment():
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": nproc,
        "git_sha": _git_sha(),
        "mp_start_method": multiprocessing.get_start_method(),
    }


class SetupTimer:
    """Times fresh interpreters from launch to package imported, config
    loaded and objective built, per phase."""

    def __init__(self, experiment_path):
        self.experiment_path = experiment_path
        self.phases = {"setup_s": [], "cli.import_s": [], "runner.load_experiment_s": [],
                       "scenario.make_objective_s": []}

    def launch(self):
        t0 = time.monotonic()
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_SNIPPET, SRC, self.experiment_path],
            capture_output=True, text=True, timeout=120, cwd=ROOT,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up interpreter failed: {proc.stderr.strip()}")
        t_import, t_load, t_objective = json.loads(proc.stdout.strip().splitlines()[-1])
        self.phases["setup_s"].append(t_objective - t0)
        self.phases["cli.import_s"].append(t_import - t0)
        self.phases["runner.load_experiment_s"].append(t_load - t_import)
        self.phases["scenario.make_objective_s"].append(t_objective - t_load)

    def medians(self, launches=SETUP_LAUNCHES):
        """Per-phase medians, after launching until there are ``launches`` samples."""
        while len(self.phases["setup_s"]) < launches:
            self.launch()
        return {name: _median(values) for name, values in self.phases.items()}


class Bench:
    """Runs one workload's operations and keeps their checks and identities."""

    def __init__(self, workload, run_seeds, work):
        from mopso_deploy.runner import load_experiment
        from mopso_deploy.scenario import joint_objective

        self.joint_objective = joint_objective
        self.workload = workload
        self.run_seeds = run_seeds
        self.work = work
        self.experiment_path = workload.experiment(ROOT, work)
        self.cfg = load_experiment(self.experiment_path)
        self.attempted = 0
        self.completed = 0
        self.failed = 0
        self.failures = []
        self.identity = {}  # run seed -> digest, stop iteration, final front size
        self.hv_pct = {}  # run seed -> hv_stop_pct of each of its runs

    def _fail(self, run_seed, errors):
        self.failed += 1
        self.failures.append({"run_seed": run_seed, "errors": errors[:5]})

    def record_hv(self, run_seed, results):
        self.hv_pct[run_seed] = [
            100.0 * hv.hypervolume(r.stop_front.values) / hv.hypervolume(r.final_front.values)
            for r in results
        ]

    def _identity_errors(self, run_seed, digest, results):
        stops = [int(r.stop_iteration) for r in results]
        sizes = [int(r.final_front.values.shape[0]) for r in results]
        ident = {
            "digest": digest,
            "stop_iter": stops if self.workload.monte_carlo else stops[0],
            "final_front_size": sizes if self.workload.monte_carlo else sizes[0],
        }
        first = self.identity.setdefault(run_seed, ident)
        if first != ident:
            return [f"run seed {run_seed}: {ident} differs from an earlier repeat {first}"]
        return []

    def operation(self, run_seed, jobs, tracer=None):
        """One operation and its checks; returns a Sample, or None when the
        operation raised. A completed operation that fails a check is timed
        and counted as failed."""
        out = os.path.join(self.work, "export")
        shutil.rmtree(out, ignore_errors=True)
        self.attempted += 1
        op = workloads.run_operation
        if tracer is not None:
            op = tracer.wrap("bench.operation", op)
        try:
            results, run_s, wall_s = op(self.workload, self.cfg, run_seed, jobs, out)
        except Exception:
            self._fail(run_seed, [traceback.format_exc()])
            return None
        self.completed += 1
        sample = None
        try:
            errors = checks.check_export(out, self.cfg.scenario, self.joint_objective)
            digest, nbytes = checks.digest_tree(out, {self.work: "<work>", ROOT: "<root>"})
            errors += self._identity_errors(run_seed, digest, results)
            swarm = self.cfg.mopso.swarm_size
            sample = Sample(
                run_seed=run_seed,
                wall_s=wall_s,
                run_s=run_s,
                evals=sum((r.iterations_run + 1) * swarm for r in results),
                trial_s_sum=sum(r.wall_time for r in results),
                export_bytes=nbytes,
                final_size=_mean([r.final_front.values.shape[0] for r in results]),
            )
            if not (errors or run_seed in self.hv_pct or self.workload.monte_carlo):
                self.record_hv(run_seed, results)
        except Exception:
            errors = [traceback.format_exc()]
        if errors:
            self._fail(run_seed, errors)
        return sample

    def measure(self, seconds, jobs, min_ops, after_op=None):
        """Operations cycling through the run seeds until the next one would
        end after ``seconds``; returns the samples.

        ``after_op`` is called after each operation, inside the measured time.
        """
        samples = []
        attempted = 0
        start = time.perf_counter()
        while True:
            sample = self.operation(self.run_seeds[attempted % len(self.run_seeds)], jobs)
            attempted += 1
            if sample is not None:
                samples.append(sample)
            if after_op is not None:
                after_op()
            elapsed = time.perf_counter() - start
            if attempted >= min_ops and elapsed * (attempted + 1) / attempted > seconds:
                return samples

    def measure_paired(self, seconds, tracer):
        """Each run seed in-process untraced and traced, back to back in
        alternating order so both see the same machine, until the next pair
        would end after ``seconds``; returns (untraced, traced, pairs)."""
        untraced, traced = [], []
        pairs = 0
        start = time.perf_counter()
        while True:
            seed = self.run_seeds[pairs % len(self.run_seeds)]
            if pairs % 2:
                with tracer:
                    b = self.operation(seed, 1, tracer)
                a = self.operation(seed, 1)
            else:
                a = self.operation(seed, 1)
                with tracer:
                    b = self.operation(seed, 1, tracer)
            pairs += 1
            if a is not None and b is not None:
                untraced.append(a)
                traced.append(b)
            elapsed = time.perf_counter() - start
            if pairs >= 2 and elapsed * (pairs + 1) / pairs > seconds:
                return untraced, traced, pairs


def end_to_end(bench, seconds):
    wl = bench.workload
    # Set-up launches are spread between the operations so that both sample
    # the machine over the whole run, not one burst of it.
    timer = SetupTimer(bench.experiment_path)
    samples = bench.measure(seconds, wl.jobs, min_ops=2 * len(bench.run_seeds),
                            after_op=timer.launch)
    setup = timer.medians()
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    workers = wl.jobs if wl.jobs > 1 else 0
    metrics = {
        "wall_s": (_median([s.wall_s for s in samples]), "s"),
        "evals_per_s": (_median([s.evals / s.wall_s for s in samples]), "1/s"),
        "setup_s": (setup["setup_s"], "s"),
        "peak_rss_mb": ((self_kb + workers * child_kb) / 1024.0, "MB"),
    }
    walls = sorted(s.wall_s for s in samples)
    n = len(walls)
    # The tail reported is the highest percentile with at least ten samples beyond it.
    tail_pct = int(100 * (1 - 10 / n)) if n > 20 else None
    detail = {
        "wall_s_samples": [[s.run_seed, s.wall_s] for s in samples],
        "wall_s_tail": None if tail_pct is None else {
            "percentile": tail_pct,
            "value": statistics.quantiles(walls, n=100)[tail_pct - 1],
        },
        "hv_stop_pct": None if wl.monte_carlo else {
            "unit": "%",
            "median": _median([p for pcts in bench.hv_pct.values() for p in pcts]),
            "by_run_seed": {str(k): v for k, v in bench.hv_pct.items()},
        },
        "set_up_phases_s": setup,
    }
    return metrics, detail


def per_layer(bench, seconds):
    wl = bench.workload
    setup = SetupTimer(bench.experiment_path).medians()
    tr = Tracer()
    if wl.jobs > 1:
        pool = bench.measure(seconds / 3, wl.jobs, min_ops=2)
        inproc, traced, n = bench.measure_paired(seconds * 2 / 3, tr)
    else:
        inproc, traced, n = bench.measure_paired(seconds, tr)
        pool = inproc
    stats = tr.stats
    metrics = {}

    def put(name, value, unit):
        if value is not None:
            metrics[name] = (value, unit)

    def ratio(a, b):
        return a / b if b else None

    obj = stats.get("scenario.objective")
    if obj is not None:
        scenario = bench.cfg.scenario
        put("scenario.objective.calls", obj.calls / n, "count")
        put("scenario.objective.self_s", obj.self_s / n, "s")
        put("scenario.objective.us_per_call", ratio(1e6 * obj.self_s, obj.calls), "us")
        put("scenario.objective.pairs_per_call",
            scenario.n_antennas * sum(r.n_cells for r in scenario.regions), "count")
    for layer in ("mopso.init_swarm", "mopso.step", "mopso.select_leader",
                  "mopso.update_velocity", "mopso.update_position",
                  "mopso.update_personal_best", "mopso.archive_insert",
                  "convergence.observe", "convergence.relative_distances",
                  "runner.run_single"):
        if layer in stats:
            put(f"{layer}.self_s", stats[layer].self_s / n, "s")
    for layer in ("mopso.archive_insert", "convergence.observe",
                  "convergence.relative_distances"):
        if layer in stats:
            put(f"{layer}.calls", stats[layer].calls / n, "count")
    for layer in ("mopso.archive_insert", "mopso.update_personal_best"):
        if layer in stats:
            put(f"{layer}.accept_ratio", ratio(stats[layer].accepted, stats[layer].calls),
                "ratio")
    rd = stats.get("convergence.relative_distances")
    if rd is not None and rd.pairs_known:
        put("convergence.relative_distances.pairs", rd.pairs / n, "count")
    put("mopso.archive.final_size", _mean([s.final_size for s in traced]), "count")
    if "runner.export" in stats:
        put("runner.export.s", stats["runner.export"].self_s / n, "s")
    put("runner.export.bytes", _mean([s.export_bytes for s in traced]), "B")
    put("runner.mc.trial_s_sum", _median([s.trial_s_sum for s in pool]), "s")
    put("runner.mc.speedup", _median([s.trial_s_sum / s.run_s for s in pool]), "ratio")
    for name in ("cli.import_s", "runner.load_experiment_s", "scenario.make_objective_s"):
        put(name, setup[name], "s")

    traced_wall = _mean([s.wall_s for s in traced])
    untraced_wall = _mean([s.wall_s for s in inproc])
    layer_self = sum(st.self_s for name, st in stats.items() if name != "bench.operation") / n
    put("trace.wall_s", traced_wall, "s")
    put("trace.untraced_wall_s", untraced_wall, "s")
    if traced_wall is not None and untraced_wall is not None:
        put("trace.overhead_s", traced_wall - untraced_wall, "s")
    put("trace.self_sum_s", layer_self, "s")
    put("trace.unattributed_s", stats["bench.operation"].self_s / n, "s")
    evals = _mean([s.evals for s in traced])
    detail = {
        "absent_targets": tr.missing,
        "traced_operations": n,
        "untraced_in_process_operations": len(inproc),
        "pool_operations": len(pool),
        "evals_equal_objective_calls": obj is not None and evals == obj.calls / n,
        "self_sum_within_overhead_of_untraced_wall": (
            None if untraced_wall is None or traced_wall is None
            else abs(layer_self - untraced_wall) <= max(traced_wall - untraced_wall, 0.0)
        ),
    }
    return metrics, detail


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "mopso_deploy", "__init__.py")):
        print(f"perfbench: {SRC}/mopso_deploy not found; run from the root of a "
              "checkout of the repository", file=sys.stderr)
        return 2
    if not os.path.isdir(os.path.join(ROOT, "configs")):
        print(f"perfbench: {ROOT}/configs not found", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    workload = workloads.WORKLOADS[args.workload]
    run_seeds = [int(s) for s in
                 np.random.SeedSequence(args.seed % 2**63).generate_state(workload.rotation)]
    work = os.path.join(ROOT, ".bench_work", f"{workload.name}-{os.getpid()}")
    os.makedirs(work)
    try:
        bench = Bench(workload, run_seeds, work)
        hv_mismatches = hv.self_check(seed=args.seed % 2**32)
        if args.trace:
            metrics, detail = per_layer(bench, args.seconds)
        else:
            metrics, detail = end_to_end(bench, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass  # another run still uses it
    if not bench.completed:
        print(json.dumps({"error": "no operation completed", "failures": bench.failures}),
              file=sys.stderr)
        return 1
    detail.update({
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "run_seeds": run_seeds,
        "environment": environment(),
        "identity": {str(k): v for k, v in bench.identity.items()},
        "fail_frac": bench.failed / bench.attempted,
        "failures": bench.failures,
        "hv_self_check_mismatches": hv_mismatches,
    })
    print(json.dumps(detail))
    print(json.dumps({
        "correct": bench.failed == 0 and not hv_mismatches,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items() if value is not None},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
