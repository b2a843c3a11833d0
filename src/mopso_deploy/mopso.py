# -*- coding: utf-8 -*-

"""
Multi-objective particle swarm optimizer over a boxed decision space.

Maximization convention throughout: vector a dominates b when a >= b in
every objective and a > b in at least one. Non-dominated candidates are
kept in an external archive; the swarm leader is drawn from the archive
by a crowding-distance tournament (Coello Coello, Pulido & Lechuga,
IEEE TEVC 8(3), 2004; crowding distance from NSGA-II).

State is array-backed: row i of every ``Swarm`` array belongs to
particle i, and the archive keeps row-aligned value, position and
crowding arrays.

Determinism contract: every stochastic draw flows from the single
``numpy.random.Generator`` passed in, so identical (seed, config,
objective) reproduces the full trajectory bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class MopsoConfig:
    swarm_size: int = 30
    inertia: float = 0.4
    c1: float = 2.0
    c2: float = 2.0
    v_max: float = 1.0
    archive_capacity: int | None = None  # None = unbounded
    max_iterations: int = 1000

    def __post_init__(self):
        if self.swarm_size < 2:
            raise ValueError("swarm_size must be >= 2")
        if self.inertia < 0 or self.c1 < 0 or self.c2 < 0:
            raise ValueError("inertia, c1, c2 must be non-negative")
        if not self.v_max > 0:
            raise ValueError("v_max must be > 0")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if self.archive_capacity is not None and self.archive_capacity < 1:
            raise ValueError("archive_capacity must be >= 1 or None")


def dominance(a, b):
    """Mask of "a dominates b" over the last axis, broadcasting the rest.

    Built one objective at a time on the broadcast plane of the leading
    axes; a reduction over the short objective axis costs more than the
    comparisons themselves.
    """
    if a.shape[-1] != b.shape[-1]:
        raise ValueError(f"objective length mismatch: {a.shape} vs {b.shape}")
    ge = a[..., 0] >= b[..., 0]
    gt = a[..., 0] > b[..., 0]
    for q in range(1, a.shape[-1]):
        ge &= a[..., q] >= b[..., q]
        gt |= a[..., q] > b[..., q]
    return ge & gt


def dominates(a, b):
    """True iff a >= b everywhere and a > b somewhere (maximization)."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return bool(dominance(a, b))


def pareto_filter(values):
    """Indices of the non-dominated members of ``values``.

    Duplicates of a surviving value all survive.
    """
    vals = np.asarray(values, dtype=float)
    if vals.ndim != 2 or vals.shape[0] == 0:
        raise ValueError("pareto_filter needs a non-empty list of vectors")
    dominated = dominance(vals[:, None, :], vals[None, :, :]).any(axis=0)
    return np.flatnonzero(~dominated).tolist()


def crowding_distances(values):
    """Sum over objectives of normalized sorted-neighbor gaps.

    Extremes in any objective get +inf; an objective with zero range
    contributes nothing.
    """
    vals = np.asarray(values, dtype=float)
    if vals.ndim != 2 or vals.shape[0] == 0:
        raise ValueError("crowding_distances needs a non-empty list of vectors")
    n, m = vals.shape
    out = np.zeros(n)
    for q in range(m):
        col = vals[:, q]
        order = np.argsort(col, kind="stable")
        out[order[0]] = np.inf
        out[order[-1]] = np.inf
        span = col[order[-1]] - col[order[0]]
        if span > 0 and n > 2:
            gaps = (col[order[2:]] - col[order[:-2]]) / span
            out[order[1:-1]] += gaps
    return out


@dataclass
class Swarm:
    """Particle state; row i of every array belongs to particle i."""

    position: np.ndarray  # (N, D)
    velocity: np.ndarray  # (N, D)
    best_position: np.ndarray  # (N, D)
    best_value: np.ndarray  # (N, M)

    def __len__(self):
        return self.position.shape[0]


class ParetoArchive:
    """External archive of mutually non-dominated (position, value) pairs.

    Row k of ``values()``, ``positions()`` and ``crowding`` describe one
    member, in insertion order. Crowding distances are recomputed after
    every mutation; when a bounded archive overflows, the member with the
    smallest crowding is evicted (ties broken uniformly at random). Each
    mutation replaces the arrays rather than writing into them.
    """

    def __init__(self, capacity=None):
        if capacity is not None and capacity < 1:
            raise ValueError("capacity must be >= 1 or None")
        self.capacity = capacity
        self._values = np.empty((0, 0))  # (K, M)
        self._positions = np.empty((0, 0))  # (K, D)
        self.crowding = np.empty(0)  # (K,)

    def __len__(self):
        return self._values.shape[0]

    def values(self):
        """(K, M) array of the archive's objective vectors."""
        return self._values.copy()

    def positions(self):
        """(K, D) array of the archive's decision vectors."""
        return self._positions.copy()

    def _set(self, values, positions):
        self._values = values
        self._positions = positions
        self.crowding = crowding_distances(values)

    def insert(self, position, value, rng=None):
        """Insert a candidate; returns True if it entered the archive.

        A candidate with a NaN or infinite objective raises ``ValueError``
        and leaves the archive unchanged: no member could ever dominate a
        NaN, so it would stay for good.
        """
        value = np.asarray(value, dtype=float)
        position = np.asarray(position, dtype=float)
        if not np.isfinite(value).all():
            raise ValueError(f"non-finite archive candidate value {value.tolist()}")
        if not len(self):
            self._values = np.empty((0, value.size))
            self._positions = np.empty((0, position.size))
        elif self._values.shape[1] != value.size:
            raise ValueError("candidate objective length mismatch")
        if dominance(self._values, value).any():
            return False  # dominated by a member
        kept = ~dominance(value, self._values)
        self._set(
            np.concatenate([self._values[kept], value[None]]),
            np.concatenate([self._positions[kept], position[None]]),
        )
        if self.capacity is not None and len(self) > self.capacity:
            minimal = np.flatnonzero(self.crowding == self.crowding.min())
            if minimal.size > 1:
                if rng is None:
                    rng = np.random.default_rng()
                evict = int(rng.choice(minimal))
            else:
                evict = int(minimal[0])
            kept = np.arange(len(self)) != evict
            self._set(self._values[kept], self._positions[kept])
        return True


def select_leader(archive, rng):
    """Pick the swarm leader's position from the archive.

    Binary tournament on crowding distance: two uniform draws (with
    replacement), the larger crowding wins, ties broken uniformly.
    """
    n = len(archive)
    if n == 0:
        raise RuntimeError("cannot select a leader from an empty archive")
    if n == 1:
        return archive._positions[0].copy()
    i, j = rng.integers(0, n, size=2)
    crowd = archive.crowding
    if crowd[i] > crowd[j]:
        k = i
    elif crowd[j] > crowd[i]:
        k = j
    else:
        k = i if rng.random() < 0.5 else j
    return archive._positions[k].copy()


def update_velocity(swarm, i, leader, cfg, rng):
    """Inertia + cognitive + social update of particle i's velocity.

    One scalar r1 and r2 per particle per iteration; the result is
    clamped to v_max, stored, and returned.
    """
    r1 = rng.random()
    r2 = rng.random()
    x = swarm.position[i]
    v = (
        cfg.inertia * swarm.velocity[i]
        + cfg.c1 * r1 * (swarm.best_position[i] - x)
        + cfg.c2 * r2 * (leader - x)
    )
    np.maximum(v, -cfg.v_max, out=v)
    return np.minimum(v, cfg.v_max, out=swarm.velocity[i])


def update_position(swarm, i, lower, upper):
    """Move particle i by its velocity, clamp into the box.

    A clamped coordinate has its velocity component zeroed so particles
    do not stick to the boundary.
    """
    raw = swarm.position[i] + swarm.velocity[i]
    clamped = np.minimum(np.maximum(raw, lower), upper)
    swarm.velocity[i, clamped != raw] = 0.0
    swarm.position[i] = clamped
    return clamped


def update_personal_best(swarm, i, new_value):
    """Replace particle i's personal best iff the new objective dominates it."""
    if dominates(new_value, swarm.best_value[i]):
        swarm.best_position[i] = swarm.position[i]
        swarm.best_value[i] = new_value
        return True
    return False


def init_swarm(objective, lower, upper, cfg, rng):
    """Uniform random swarm plus the archive seeded with its non-dominated set.

    Positions are uniform over the box, velocities uniform in
    [-v_max, v_max], and each personal best starts at the initial
    position with its objective value.
    """
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


def step(swarm, archive, objective, lower, upper, cfg, rng):
    """One MOPSO iteration over every particle, in index order.

    Per particle: select leader, update velocity then position, evaluate
    the objective, update the personal best, offer the new point to the
    archive. Mutates ``swarm`` and ``archive`` in place and returns them
    for convenience.
    """
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    for i in range(len(swarm)):
        leader = select_leader(archive, rng)
        update_velocity(swarm, i, leader, cfg, rng)
        update_position(swarm, i, lower, upper)
        value = np.asarray(objective(swarm.position[i]), dtype=float)
        update_personal_best(swarm, i, value)
        archive.insert(swarm.position[i], value, rng=rng)
    return swarm, archive
