"""Shared brute-force oracles, kept deliberately independent of the
library's own implementations, and the paper's scenario at any grid."""

import json
import math
import pathlib

import numpy as np
import pytest

from mopso_deploy.mopso import ParetoArchive, Swarm, pareto_filter
from mopso_deploy.scenario import scenario_from_dict

CONFIGS = pathlib.Path(__file__).resolve().parents[1] / "configs"


def paper_scenario(nx=20, ny=20):
    """``configs/default_scenario.json`` with every region on an nx-by-ny grid."""
    return grid_scenario("default_scenario.json", [(nx, ny)] * 2)


def grid_scenario(name, grids):
    """The scenario file ``configs/<name>`` with region q on the (nx, ny)
    grid ``grids[q]``; a region of 45-60 km in x and y is added if ``grids``
    has more entries than the file has regions."""
    doc = json.loads((CONFIGS / name).read_text(encoding="utf-8"))
    extra = {"bounds": {"x_min": 45, "x_max": 60, "y_min": 45, "y_max": 60, "unit": "km"}}
    regions = doc["regions"] + [extra] * (len(grids) - len(doc["regions"]))
    doc["regions"] = [dict(r, grid={"nx": nx, "ny": ny}) for r, (nx, ny) in zip(regions, grids)]
    return scenario_from_dict(doc)


def oracle_dominates(a, b):
    """Plain-Python dominance check (maximization)."""
    return all(x >= y for x, y in zip(a, b)) and any(x > y for x, y in zip(a, b))


def oracle_pareto_indices(values):
    """All-pairs O(n^2) non-dominated index set."""
    vals = np.asarray(values, dtype=float)
    ge = (vals[:, None, :] >= vals[None, :, :]).all(axis=2)
    gt = (vals[:, None, :] > vals[None, :, :]).any(axis=2)
    dominated_by = ge & gt  # [i, j] True when i dominates j
    return sorted(int(j) for j in range(vals.shape[0]) if not dominated_by[:, j].any())


def oracle_dominated_set(point, old_values):
    """Members of old_values dominated by point, via oracle_dominates."""
    return [v for v in old_values if oracle_dominates(point, v)]


def oracle_relative_distance(point, old_values):
    dominated = oracle_dominated_set(point, old_values)
    if not dominated:
        return 0.0
    return min(math.dist(point, v) for v in dominated)


def oracle_interval_distance(new_values, old_values, mode):
    dis = [oracle_relative_distance(p, old_values) for p in new_values]
    nonzero = [d for d in dis if d != 0.0]
    z = len(dis) - len(nonzero)
    if not nonzero:
        return 0.0, z
    if mode == "max":
        return max(nonzero), z
    if mode == "min":
        return min(nonzero), z
    return sum(nonzero) / (len(dis) - z), z


def reference_relative_distances(new_values, old_values):
    """Relative distances as one (K, K', M) broadcast with reductions over
    the objective axis: the form the per-objective kernel replaced, which
    it must match byte for byte."""
    new = np.asarray(new_values, dtype=float)[:, None, :]
    old = np.asarray(old_values, dtype=float)[None, :, :]
    dom = (new >= old).all(axis=-1) & (new > old).any(axis=-1)
    diffs = new - old
    dist = np.where(dom, np.sqrt((diffs * diffs).sum(axis=2)), np.inf).min(axis=1)
    dist[~dom.any(axis=1)] = 0.0
    return dist


def reference_should_stop(records, cfg, threshold):
    """The stop test as a scan of the trace records: true iff the latest
    record and the one h iterations before it differ by at most
    ``threshold`` in ``cfg.mode``. Records are in increasing iteration
    order, so the one at t-h is among the last h+1. ``ConvergenceMonitor``
    decides from the aggregate it stores with each front instead, and must
    agree with this scan."""
    if not records:
        return False
    cur = records[-1]
    for prev in records[-cfg.step - 1 : -1]:
        if prev.iteration == cur.iteration - cfg.step:
            return abs(cur.dist[cfg.mode] - prev.dist[cfg.mode]) <= threshold
    return False


def reference_objective(scenario, flat):
    """The joint objective as one (J, C_i) pass per region: the form the
    fused kernel replaced, which it must match byte for byte."""
    radar = scenario.radar
    coef = radar.transmit_powers * radar.gains / (4.0 * math.pi)
    min_sep2 = scenario.min_separation * scenario.min_separation
    pos = np.asarray(flat, dtype=float).reshape(-1, 2)
    out = np.empty(len(scenario.regions))
    for i, region in enumerate(scenario.regions):
        c = region.cells
        d2 = (pos[:, 0, None] - c[None, :, 0]) ** 2 + (
            pos[:, 1, None] - c[None, :, 1]
        ) ** 2
        np.maximum(d2, min_sep2, out=d2)
        out[i] = (coef[:, None] / d2).sum(axis=0).min()
    return out


def reference_init(objective, lower, upper, cfg, rng):
    """The initial swarm as a per-particle ``Generator.uniform`` loop: the
    form init_swarm's one ``random`` block replaced, whose swarm, archive and
    generator state it must match byte for byte."""
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    position = np.empty((cfg.swarm_size, lower.size))
    velocity = np.empty_like(position)
    values = []
    for i in range(cfg.swarm_size):
        position[i] = rng.uniform(lower, upper)
        velocity[i] = rng.uniform(-cfg.v_max, cfg.v_max, size=lower.size)
        values.append(np.asarray(objective(position[i]), dtype=float))
    swarm = Swarm(position, velocity, position.copy(), np.array(values))
    archive = ParetoArchive(capacity=cfg.archive_capacity)
    for i in pareto_filter(swarm.best_value):
        archive.insert(position[i], swarm.best_value[i], rng=rng)
    return swarm, archive


def reference_step(swarm, archive, objective, lower, upper, cfg, rng):
    """One MOPSO iteration as a plain per-particle loop over the same
    ``rng.random((N, 5))`` block the windowed step draws: the form that step
    replaced, whose arrays and generator state it must match byte for byte.
    Row i is particle i's (u_i, u_j, u_tie, r1, r2)."""
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    draws = rng.random((len(swarm), 5))
    for i in range(len(swarm)):
        u_i, u_j, u_tie, r1, r2 = draws[i].tolist()
        n, crowd = len(archive), archive.crowding
        a, b = int(u_i * n), int(u_j * n)
        if crowd[a] > crowd[b]:
            k = a
        elif crowd[b] > crowd[a]:
            k = b
        else:
            k = a if u_tie < 0.5 else b
        leader = archive.positions()[k]
        x = swarm.position[i]
        v = (
            cfg.inertia * swarm.velocity[i]
            + cfg.c1 * r1 * (swarm.best_position[i] - x)
            + cfg.c2 * r2 * (leader - x)
        )
        np.maximum(v, -cfg.v_max, out=v)
        np.minimum(v, cfg.v_max, out=swarm.velocity[i])
        raw = swarm.position[i] + swarm.velocity[i]
        clamped = np.minimum(np.maximum(raw, lower), upper)
        swarm.velocity[i, clamped != raw] = 0.0
        swarm.position[i] = clamped
        value = np.asarray(objective(swarm.position[i]), dtype=float)
        if oracle_dominates(value, swarm.best_value[i]):
            swarm.best_position[i] = swarm.position[i]
            swarm.best_value[i] = value
        archive.insert(swarm.position[i], value, rng=rng)
    return swarm, archive


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
