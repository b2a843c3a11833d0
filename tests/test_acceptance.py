"""End-to-end acceptance gate.

Each test checks one numbered acceptance criterion and prints a single
``[criterion N] ...: PASS/FAIL`` line. The heavy Monte Carlo fixtures
are shared at module scope and run their seeds on two worker processes
(results are a function of config and seed), so the whole gate runs in
about a minute.
"""

import math
import multiprocessing
import pathlib
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from functools import partial

import numpy as np
import pytest

from conftest import oracle_pareto_indices
from mopso_deploy.cli import main
from mopso_deploy.convergence import (
    MODES,
    ConvergenceConfig,
    ConvergenceMonitor,
    FrontSnapshot,
    interval_distance,
    relative_distance,
)
from mopso_deploy.mopso import pareto_filter
from mopso_deploy.runner import (
    default_anchors,
    interpolate_front,
    load_experiment,
    run_monte_carlo,
    run_single,
)
from mopso_deploy.scenario import RadarParams, power_density

CONFIG_ROOT = pathlib.Path(__file__).resolve().parents[1] / "configs"
N_SEEDS = 20
BASE_SEED = 42


def _report(number, label, ok, detail=""):
    verdict = "PASS" if ok else "FAIL"
    print(f"[criterion {number}] {label}: {verdict}" + (f" ({detail})" if detail else ""))
    assert ok, f"criterion {number} ({label}) failed: {detail}"


# ---------------------------------------------------------------------------
# shared heavy fixtures
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def default_cfg():
    return load_experiment(CONFIG_ROOT / "default_experiment.json")


@pytest.fixture(scope="module")
def trend_runs(default_cfg):
    """20 seeded 1000-iteration runs with the scale-free adaptive rule.

    halt_on_stop is off so every run also yields the 1000-iteration
    reference front, the full distance trace, and the front at the first
    iteration where the stopping rule held.
    """
    conv = replace(
        default_cfg.convergence,
        normalized=True,
        relative_threshold=1e-3,
    )
    cfg = replace(
        default_cfg,
        convergence=conv,
        halt_on_stop=False,
        trials=N_SEEDS,
        base_seed=BASE_SEED,
        snapshot_iterations=(10, 50, 100, 400, 1000),
    )
    return cfg, run_monte_carlo(cfg, jobs=2)


@pytest.fixture(scope="module")
def regression_runs(default_cfg):
    """20 seeded 200-iteration runs retaining the archive image of every
    iteration."""
    mopso = replace(default_cfg.mopso, max_iterations=200)
    cfg = replace(
        default_cfg,
        mopso=mopso,
        halt_on_stop=False,
        snapshot_iterations=(10, 100, 200),
        trials=N_SEEDS,
        base_seed=BASE_SEED,
    )
    with ProcessPoolExecutor(2, mp_context=multiprocessing.get_context("spawn")) as pool:
        seeds = [BASE_SEED + i for i in range(N_SEEDS)]
        return list(pool.map(partial(run_single, cfg, keep_all_fronts=True), seeds))


def _seed_anchor_c(result, at_front):
    """c-percentages of `at_front` against the run's final front, one per
    default anchor; NaN where an anchor is outside either front's range."""
    final = result.final_front.values
    out = []
    for anchor in default_anchors(final):
        ref = interpolate_front(final, anchor)
        val = interpolate_front(at_front.values, anchor)
        out.append(100.0 * val / ref if ref != 0 else float("nan"))
    return out


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------


def test_criterion_1_power_density_closed_forms():
    """Ten hand-evaluated free-space power-density cases, rel err <= 1e-12."""

    def radar(powers, gains):
        return RadarParams(np.asarray(powers, float), np.asarray(gains, float))

    four_pi = 4.0 * math.pi
    cases = [
        # (layout, cell, powers, gains, min_sep, expected)
        ([[0, 0]], (1, 0), [four_pi], [1.0], 0.1, 1.0),
        ([[0, 0]], (10_000, 0), [15_000.0], [1.0e4], 100.0, 0.11936620731892949),
        ([[0, 0]], (0, 2), [1.0], [1.0], 0.5, 1.0 / (four_pi * 4.0)),
        ([[3, 4]], (0, 0), [7.0], [2.0], 1.0, 14.0 / (four_pi * 25.0)),
        # clamp: true range 1 m below the 50 m separation floor
        ([[1, 0]], (0, 0), [100.0], [1.0], 50.0, 100.0 / (four_pi * 2500.0)),
        # two symmetric antennas at range 5
        (
            [[0, 5], [0, -5]],
            (0, 0),
            [5.0, 5.0],
            [2.0, 2.0],
            1.0,
            2.0 * 10.0 / (four_pi * 25.0),
        ),
        # unequal powers and gains, ranges 3 and 4
        (
            [[3, 0], [0, 4]],
            (0, 0),
            [9.0, 16.0],
            [1.0, 2.0],
            0.5,
            9.0 / (four_pi * 9.0) + 32.0 / (four_pi * 16.0),
        ),
        # one in-range antenna plus one clamped to the 2 m floor
        (
            [[10, 0], [1, 0]],
            (0, 0),
            [1.0, 1.0],
            [1.0, 1.0],
            2.0,
            1.0 / (four_pi * 100.0) + 1.0 / (four_pi * 4.0),
        ),
        # 40 dB gain, 8 antennas at a common 10 km range
        (
            [[10_000 * math.cos(k * math.pi / 4), 10_000 * math.sin(k * math.pi / 4)]
             for k in range(8)],
            (0, 0),
            [15_000.0] * 8,
            [1.0e4] * 8,
            100.0,
            8.0 * 15_000.0 * 1.0e4 / (four_pi * 1.0e8),
        ),
        # antenna exactly on the cell centre, fully clamp-determined
        ([[5, 5]], (5, 5), [42.0], [3.0], 10.0, 126.0 / (four_pi * 100.0)),
    ]
    worst = 0.0
    for layout, cell, powers, gains, sep, expected in cases:
        got = power_density(layout, cell, radar(powers, gains), sep)
        worst = max(worst, abs(got - expected) / abs(expected))
    _report(1, "power-density closed forms", worst <= 1e-12, f"max rel err {worst:.3e}")


def test_criterion_2_pareto_machinery_oracle():
    """Front machinery vs. independent brute force on 1000 random instances."""

    def brute_dominated(point, old):
        mask = (old <= point).all(axis=1) & (old < point).any(axis=1)
        return old[mask]

    def brute_distance(point, old):
        dominated = brute_dominated(point, old)
        if dominated.shape[0] == 0:
            return 0.0
        return min(
            math.sqrt(sum(d * d for d in (v - point))) for v in dominated
        )

    def brute_interval(new, old, mode):
        dis = [brute_distance(p, old) for p in new]
        nonzero = [d for d in dis if d != 0.0]
        z = len(dis) - len(nonzero)
        if not nonzero:
            return 0.0, z
        if mode == "max":
            return max(nonzero), z
        if mode == "min":
            return min(nonzero), z
        return float(np.asarray(nonzero).sum() / len(nonzero)), z

    rng = np.random.default_rng(2024)
    mismatches = 0
    for i in range(1000):
        m = (2, 3, 5)[i % 3]
        n = int(rng.integers(2, 201))
        cloud = np.round(rng.uniform(0, 4, size=(n, m)), 1)  # force duplicates/ties
        if pareto_filter(cloud) != oracle_pareto_indices(cloud):
            mismatches += 1

        n_old = int(rng.integers(1, 60))
        n_new = int(rng.integers(1, 60))
        old = rng.uniform(size=(n_old, m))
        new = old[rng.integers(0, n_old, n_new)] + rng.uniform(
            -0.2, 0.4, size=(n_new, m)
        )
        front_new = FrontSnapshot(1, new)
        front_old = FrontSnapshot(0, old)
        for k in range(n_new):
            if relative_distance(k, front_new, front_old) != brute_distance(
                new[k], old
            ):
                mismatches += 1
        for mode in MODES:
            if interval_distance(front_new, front_old, mode) != brute_interval(
                new, old, mode
            ):
                mismatches += 1
    _report(2, "front machinery vs brute force", mismatches == 0,
            f"{mismatches} mismatches")


def test_criterion_3_front_non_regression(regression_runs):
    """No archived point is ever dominated by a point archived earlier."""
    violations = 0
    for result in regression_runs:
        # the pool of earlier points reaches ~10^4; a staircase query
        # (sorted f1 + suffix-max of f2) replaces the quadratic check
        pool = result.all_fronts[0].values
        for front in result.all_fronts[1:]:
            f1 = np.sort(pool[:, 0])
            order = np.argsort(pool[:, 0], kind="stable")
            suffmax2 = np.maximum.accumulate(pool[order, 1][::-1])[::-1]
            suffmax2 = np.append(suffmax2, -np.inf)
            new = front.values
            left = np.searchsorted(f1, new[:, 0], side="left")
            right = np.searchsorted(f1, new[:, 0], side="right")
            # dominated iff some earlier q has (q1 >= p1, q2 > p2) or
            # (q1 > p1, q2 >= p2)
            dominated = (suffmax2[left] > new[:, 1]) | (
                suffmax2[right] >= new[:, 1]
            )
            violations += int(dominated.sum())
            pool = np.vstack([pool, new])
    _report(3, "archive front non-regression", violations == 0,
            f"{violations} dominated points across {N_SEEDS} runs")


def test_criterion_4_distance_decline(trend_runs):
    """Interval distance declines >= 5x from the first to the last quarter
    of a 600-iteration window, in every aggregation mode."""
    _, results = trend_runs

    def pooled_median(mode, lo, hi):
        vals = [
            rec.dist_raw[mode]
            for r in results
            for rec in r.trace
            if lo < rec.iteration <= hi
        ]
        return float(np.median(vals))

    ok = True
    ratios = {}
    for mode in MODES:
        first = pooled_median(mode, 0, 150)
        last = pooled_median(mode, 450, 600)
        ratios[mode] = math.inf if last == 0 else first / last
        ok &= first >= 5.0 * last and first > 0
    detail = ", ".join(f"{m}={ratios[m]:.3g}x" for m in MODES)
    _report(4, "early-to-late distance decline >= 5x", ok, detail)


def test_criterion_5_adaptive_stop_efficacy(trend_runs):
    """The scale-free rule stops early on >= 90% of seeds while keeping the
    stop-iteration front within 95% of the 1000-iteration front."""
    cfg, results = trend_runs
    cap = cfg.mopso.max_iterations
    stopped = [r for r in results if r.stop_iteration < cap]
    frac = len(stopped) / len(results)

    cs = [c for r in stopped for c in _seed_anchor_c(r, r.stop_front)]
    median_c = float(np.nanmedian(cs))
    ok = frac >= 0.90 and median_c >= 95.0
    _report(5, "adaptive stop early and near-converged", ok,
            f"{100 * frac:.0f}% stopped < {cap}, median c at stop {median_c:.1f}%")


def test_criterion_6_stationary_front_stops_immediately():
    """A frozen archive triggers the stop at the first double-aggregate
    evaluation (t = 2h) with an exactly zero distance."""
    h = 5
    monitor = ConvergenceMonitor(ConvergenceConfig(step=h, threshold=0.0))
    frozen = [(1.0, 2.0), (2.0, 1.0)]
    decisions = {t: monitor.observe(t, frozen) for t in range(0, 2 * h + 1)}
    first_stop = min((t for t, d in decisions.items() if d == ConvergenceMonitor.STOP),
                     default=None)
    dists = {m: rec.dist[m] for rec in monitor.trace.records for m in MODES}
    ok = first_stop == 2 * h and all(d == 0.0 for d in dists.values())
    _report(6, "stationary front stops at t=2h with dist=0", ok,
            f"first stop at t={first_stop}")


def test_criterion_7_cli_determinism(tmp_path):
    """Two executions of the same Monte Carlo command write byte-identical
    output trees."""
    trees = []
    for name in ("first", "second"):
        out = tmp_path / name
        code = main(
            [
                "mc",
                "--config", str(CONFIG_ROOT / "desk_experiment.json"),
                "--trials", "5",
                "--seed", "42",
                "--out", str(out),
            ]
        )
        assert code == 0
        trees.append(
            {
                str(p.relative_to(out)): p.read_bytes()
                for p in sorted(out.rglob("*"))
                if p.is_file()
            }
        )
    same = trees[0] == trees[1]
    _report(7, "repeated mc runs byte-identical", same,
            f"{len(trees[0])} files compared")


def test_criterion_8_c_ratio_monotone(trend_runs):
    """Seed-median c-ratio is monotone non-decreasing over snapshot
    iterations for every anchor and exactly 100 at the last snapshot."""
    cfg, results = trend_runs
    iters = cfg.snapshot_iterations
    # rows: snapshot iteration; cols: anchor index; entries: per-seed c
    medians = np.empty((len(iters), 3))
    for i, it in enumerate(iters):
        per_seed = np.array([_seed_anchor_c(r, r.snapshots[it]) for r in results])
        medians[i] = np.nanmedian(per_seed, axis=0)

    ok = True
    for a in range(3):
        col = medians[:, a]
        finite = col[np.isfinite(col)]
        ok &= np.all(np.diff(finite) >= -1e-9)
        ok &= col[-1] == 100.0
    profile = {it: round(float(np.nanmedian(medians[i])), 2)
               for i, it in enumerate(iters)}
    _report(8, "c-ratio monotone and 100 at final snapshot", bool(ok), f"{profile}")
