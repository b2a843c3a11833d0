# -*- coding: utf-8 -*-

"""
Interval distance between Pareto-front snapshots and the adaptive
stopping rule built on it.

For each point of the newer front we take the minimum Euclidean
objective-space distance to the older-front points it dominates (zero
when it dominates none); the interval distance aggregates these
per-point relative distances as a max, min, or zero-excluded average.
The run stops once the aggregate differs from the one h iterations
earlier by at most a threshold.

The kernels take (K, M) value arrays; ``FrontSnapshot`` is a run's
record of a front, which the point and interval wrappers take.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .mopso import dominance

MODES = ("max", "min", "avg")
CADENCES = ("every_h", "every_iteration")


@dataclass(frozen=True)
class FrontSnapshot:
    """Image of the archive at one iteration, as a run records it:
    objective values and, when given, the row-aligned positions."""

    iteration: int
    values: np.ndarray  # (K, M)
    positions: np.ndarray | None = None  # (K, D)

    def __post_init__(self):
        vals = np.atleast_2d(np.asarray(self.values, dtype=float))
        if vals.shape[0] < 1:
            raise ValueError("a front snapshot needs at least one point")
        object.__setattr__(self, "values", vals)
        if self.positions is not None:
            pos = np.atleast_2d(np.asarray(self.positions, dtype=float))
            object.__setattr__(self, "positions", pos)

    @property
    def size(self):
        return self.values.shape[0]


@dataclass(frozen=True)
class ConvergenceConfig:
    step: int = 5  # iteration spacing h between compared fronts
    threshold: float = 0.25e-3
    mode: str = "avg"
    cadence: str = "every_h"
    # Divide objectives by the current front's per-objective range before
    # distance computation, making the threshold scale-free.
    normalized: bool = False
    # When set, the effective threshold is this factor times the first
    # computed aggregate (overrides `threshold`).
    relative_threshold: float | None = None

    def __post_init__(self):
        if self.step < 1:
            raise ValueError("step h must be >= 1")
        if self.threshold < 0:
            raise ValueError("threshold must be non-negative")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")
        if self.cadence not in CADENCES:
            raise ValueError(f"cadence must be one of {CADENCES}")
        relative = self.relative_threshold
        if relative is not None and not 0 <= relative < math.inf:
            raise ValueError("relative_threshold must be finite and non-negative")


def candidate_pairs(new, old):
    """(rows, cols) of the pairs with new >= old in every objective, row-major:
    the only possible dominated pairs, between consecutive fronts a few per row."""
    new_cols, old_cols = new.T.copy(), old.T.copy()  # contiguous columns
    ge = np.greater_equal.outer(new_cols[0], old_cols[0])
    for q in range(1, new.shape[1]):
        ge &= np.greater_equal.outer(new_cols[q], old_cols[q])
    return np.divmod(np.flatnonzero(ge), old.shape[0])


def relative_distances(new, old, pairs=None):
    """Per (K, M) ``new`` row, the minimum distance to the (K', M) ``old`` rows
    it dominates, 0 if none. ``pairs``: a row-major superset of ``candidate_pairs``."""
    if new.shape[1] != old.shape[1]:
        raise ValueError(f"objective length mismatch: {new.shape} vs {old.shape}")
    rows, cols = candidate_pairs(new, old) if pairs is None else pairs
    a, b = new[rows], old[cols]
    dom = dominance(a, b)
    rows, diff = rows[dom], (a - b)[dom]
    # squares added in objective order, as a per-pair loop and numpy's
    # add.reduce over fewer than eight objectives add them
    sq = diff[:, 0] * diff[:, 0]
    for q in range(1, new.shape[1]):
        sq += diff[:, q] * diff[:, q]
    # sqrt is correctly rounded, hence monotone: the root of the minimum
    # is the minimum of the roots, bit for bit
    starts = np.flatnonzero(np.diff(rows, prepend=-1))
    dist = np.zeros(new.shape[0])
    dist[rows[starts]] = np.sqrt(np.minimum.reduceat(sq, starts))
    return dist


def relative_distance(k, front_t, front_prev):
    """``relative_distances`` for point k of the newer front alone."""
    return float(relative_distances(front_t.values[k][None], front_prev.values)[0])


def aggregate(dis):
    """Zero-excluded max/min/avg of relative distances; returns (dist, z).

    ``dist`` maps each mode to its aggregate and z counts the zero
    distances. When every distance is zero (an unmoved front), every
    aggregate is defined as 0.
    """
    nonzero = dis[dis != 0.0]
    z = dis.size - nonzero.size
    if nonzero.size == 0:
        return dict.fromkeys(MODES, 0.0), z
    return {
        "max": float(nonzero.max()),
        "min": float(nonzero.min()),
        "avg": float(nonzero.sum() / nonzero.size),
    }, z


def interval_distance(front_t, front_prev, mode="avg"):
    """Aggregate the relative distances of the newer front; returns (dist, z)."""
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}")
    dist, z = aggregate(relative_distances(front_t.values, front_prev.values))
    return dist[mode], z


@dataclass
class TraceRecord:
    iteration: int
    n_points: int  # K at iteration t
    z: int  # points with zero relative distance
    dist: dict  # mode -> aggregate on the values the monitor compares
    dist_raw: dict | None = None  # mode -> aggregate on raw objectives
    # (equals `dist` unless the monitor normalizes)


@dataclass
class DistanceTrace:
    records: list = field(default_factory=list)


class ConvergenceMonitor:
    """Sequential stopping-rule state machine fed by one optimizer run.

    Feed ``observe(t, front_values)`` once per iteration (and once with
    t=0 for the initial archive). Keeps only the fronts a later call compares
    against, each with its own aggregate, and the full aggregate trace for
    export. ``STOP`` means the threshold held; the iteration cap is the
    caller's, so a run that ends at its cap never saw ``STOP``.
    """

    CONTINUE = "continue"
    STOP = "stop"

    def __init__(self, cfg):
        self.cfg = cfg
        self.trace = DistanceTrace()
        self._snapshots = {}  # iteration -> (front values, their aggregate or None)
        # None until a relative threshold resolves on the first aggregate
        self.effective_threshold = (
            None if cfg.relative_threshold is not None else cfg.threshold
        )

    def observe(self, t, front_values):
        """Record the archive image at iteration t; returns STOP iff its
        aggregate is within the effective threshold of the one stored with
        the front of iteration t-h, else CONTINUE."""
        values = FrontSnapshot(t, front_values).values
        cfg = self.cfg
        prev, prev_dist = self._snapshots.pop(t - cfg.step, (None, None))
        dist = pairs = None
        if prev is not None:
            if cfg.normalized:  # division by a positive span keeps each >=, so
                # these pairs hold all the raw fronts' candidate pairs too
                span = values.max(axis=0) - values.min(axis=0)
                span = np.where(span > 0, span, 1.0)
                new, old = values / span, prev / span
                pairs = candidate_pairs(new, old)
                dist, _ = aggregate(relative_distances(new, old, pairs))
            dist_raw, z = aggregate(relative_distances(values, prev, pairs))
            dist = dist_raw if dist is None else dist
            self.trace.records.append(TraceRecord(t, len(values), z, dist, dist_raw))
            if self.effective_threshold is None:
                self.effective_threshold = cfg.relative_threshold * dist[cfg.mode]
        if cfg.cadence == "every_iteration" or t % cfg.step == 0:
            self._snapshots[t] = (values, dist)
        if prev_dist is None:
            return self.CONTINUE
        if abs(dist[cfg.mode] - prev_dist[cfg.mode]) <= self.effective_threshold:
            return self.STOP
        return self.CONTINUE
