"""Shared brute-force oracles, kept deliberately independent of the
library's own implementations."""

import math

import numpy as np
import pytest


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


def reference_objective(scenario, flat):
    """The joint objective as one (J, C_i) pass per region: the form the
    fused kernel replaced, which it must match byte for byte."""
    radar = scenario.radar
    coef = radar.transmit_powers * radar.gains / (4.0 * math.pi)
    min_sep2 = scenario.min_separation * scenario.min_separation
    pos = np.asarray(flat, dtype=float).reshape(-1, 2)
    out = np.empty(scenario.n_regions)
    for i, region in enumerate(scenario.regions):
        c = region.cells
        d2 = (pos[:, 0, None] - c[None, :, 0]) ** 2 + (
            pos[:, 1, None] - c[None, :, 1]
        ) ** 2
        np.maximum(d2, min_sep2, out=d2)
        out[i] = (coef[:, None] / d2).sum(axis=0).min()
    return out


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
