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
    """Image of the archive at one iteration: objective values and, when
    given, the row-aligned positions."""

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


def relative_distances(front_t, front_prev):
    """Per point of the newer front, the minimum distance to the older-front
    points it dominates; 0 where it dominates none."""
    new = front_t.values
    old = front_prev.values
    dom = dominance(new[:, None, :], old[None, :, :])
    # Squared distances on the (K, K') plane, added one objective at a time
    # in objective order. That is the order of a per-pair loop, and the one
    # numpy's add.reduce takes over fewer than eight objectives (from eight
    # on it sums pairwise).
    sq = np.subtract.outer(new[:, 0], old[:, 0])
    sq *= sq
    d = np.empty_like(sq)
    for q in range(1, new.shape[1]):
        np.subtract.outer(new[:, q], old[:, q], out=d)
        d *= d
        sq += d
    sq[~dom] = np.inf
    # sqrt is correctly rounded, hence monotone: the root of the minimum
    # is the minimum of the roots, bit for bit
    dist = np.sqrt(sq.min(axis=1))
    dist[~dom.any(axis=1)] = 0.0
    return dist


def relative_distance(k, front_t, front_prev):
    """``relative_distances`` for point k of the newer front alone."""
    point = FrontSnapshot(front_t.iteration, front_t.values[k])
    return float(relative_distances(point, front_prev)[0])


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
    dist, z = aggregate(relative_distances(front_t, front_prev))
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
        self._snapshots = {}  # iteration -> (front, its aggregate or None)
        # None until a relative threshold resolves on the first aggregate
        self.effective_threshold = (
            None if cfg.relative_threshold is not None else cfg.threshold
        )

    def _normalize(self, front_t, front_prev):
        span = front_t.values.max(axis=0) - front_t.values.min(axis=0)
        span = np.where(span > 0, span, 1.0)
        return (
            FrontSnapshot(front_t.iteration, front_t.values / span),
            FrontSnapshot(front_prev.iteration, front_prev.values / span),
        )

    def observe(self, t, front_values):
        """Record the archive image at iteration t; returns STOP iff its
        aggregate is within the effective threshold of the one stored with
        the front of iteration t-h, else CONTINUE."""
        snap = FrontSnapshot(t, np.asarray(front_values, dtype=float))
        cfg = self.cfg
        prev, prev_dist = self._snapshots.pop(t - cfg.step, (None, None))
        dist = None
        if prev is not None:
            dist_raw, z = aggregate(relative_distances(snap, prev))
            if cfg.normalized:
                dist, _ = aggregate(relative_distances(*self._normalize(snap, prev)))
            else:
                dist = dist_raw
            self.trace.records.append(TraceRecord(t, snap.size, z, dist, dist_raw))
            if self.effective_threshold is None:
                self.effective_threshold = cfg.relative_threshold * dist[cfg.mode]
        if cfg.cadence == "every_iteration" or t % cfg.step == 0:
            self._snapshots[t] = (snap, dist)
        if prev_dist is None:
            return self.CONTINUE
        if abs(dist[cfg.mode] - prev_dist[cfg.mode]) <= self.effective_threshold:
            return self.STOP
        return self.CONTINUE
