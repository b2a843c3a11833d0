# -*- coding: utf-8 -*-

"""
Multi-objective particle swarm optimizer over a boxed decision space.

Maximization convention throughout: vector a dominates b when a >= b in
every objective and a > b in at least one. Non-dominated candidates are
kept in an external archive; the swarm leader is drawn from the archive
by a crowding-distance tournament (Coello Coello, Pulido & Lechuga,
IEEE TEVC 8(3), 2004; crowding distance from NSGA-II).

State is array-backed: row i of every ``Swarm`` array belongs to
particle i, and the archive keeps row-aligned value and position
arrays and a crowding list. ``step`` keeps the asynchronous per-particle update
(each leader is drawn from the archive as the previous particle left
it) but moves runs of particles between archive changes with one set of
array operations.

Determinism contract: every stochastic draw flows from the single
``numpy.random.Generator`` passed in, so identical (seed, config,
objective) reproduces the full trajectory bit for bit. Any Generator works:
the optimizer, ``init_swarm`` included, asks it only for ``random`` blocks
and eviction-tie ``choice`` draws.
"""

from __future__ import annotations

import math
from bisect import bisect_left
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
        if not all(0 <= c < math.inf for c in (self.inertia, self.c1, self.c2)):
            raise ValueError("inertia, c1, c2 must be finite and non-negative")
        if not 0 < 2 * self.v_max < math.inf:
            raise ValueError("v_max must be > 0 and 2 * v_max finite")
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
    mutation replaces the arrays, read-only, in ``_set``, which also computes
    the crowding (Python floats, which ``select_leader`` indexes faster than
    an array) and the f1-sorted view; ``values()`` and ``positions()`` return
    those arrays, not copies, so what a caller keeps never changes.

    With two objectives ``_set`` keeps the members' values sorted by f1
    (``_f1`` ascending, ``_f2`` the matching f2). Members do not dominate
    each other, so f2 is non-increasing along that order: a later member
    with a larger f2 would dominate an earlier one, and two members with
    equal f1 are equal. The members with f1 >= a are then the suffix from
    ``i = bisect_left(_f1, a)``, and its first one has the largest f2 of
    them; so (a, b) is dominated iff that member dominates it (if it equals
    (a, b), no member can). This is exactly
    ``dominance(values, (a, b)).any()``, ties, duplicates and NaNs included,
    for one bisect instead of a mask over the archive (the sweep of Jensen,
    IEEE TEVC 7(5), 2003).
    """

    def __init__(self, capacity=None):
        if capacity is not None and capacity < 1:
            raise ValueError("capacity must be >= 1 or None")
        self.capacity = capacity
        self._values = self._positions = np.empty((0, 0))  # (K, M) and (K, D)
        self._values.flags.writeable = False
        self.crowding = []  # (K,) Python floats
        self._f1 = self._f2 = None  # the f1-sorted view, when M == 2

    def __len__(self):
        return self._values.shape[0]

    def __setstate__(self, state):
        # copy.deepcopy and unpickling give writeable arrays: mark them again
        self.__dict__.update(state)
        self._values.flags.writeable = self._positions.flags.writeable = False

    def values(self):
        """Read-only (K, M) array of the archive's objective vectors."""
        return self._values

    def positions(self):
        """Read-only (K, D) array of the archive's decision vectors."""
        return self._positions

    def _set(self, values, positions):
        values.flags.writeable = positions.flags.writeable = False
        self._values = values
        self._positions = positions
        self.crowding = crowding_distances(values).tolist()
        if values.shape[1] == 2:
            by_f1 = values[np.argsort(values[:, 0], kind="stable")]
            self._f1 = by_f1[:, 0].tolist()
            self._f2 = by_f1[:, 1].tolist()

    def dominated(self, values):
        """(B,) mask of the rows of a (B, M) array that some member
        dominates: the rejection rule of ``insert``."""
        if self._f1 is None:
            if not len(self):
                return np.zeros(len(values), dtype=bool)
            return dominance(self._values, values[:, None]).any(-1)
        f1, f2, out = self._f1, self._f2, []  # the sorted-view test of the class docstring
        for a, b in values.tolist():
            i = bisect_left(f1, a)
            out.append(i < len(f1) and f1[i] >= a and f2[i] >= b and (f1[i] > a or f2[i] > b))
        return np.array(out, dtype=bool)

    def insert(self, position, value, rng=None):
        """Insert a candidate; returns True if it entered the archive.

        A candidate some member dominates is rejected; the members it
        dominates leave. A NaN or infinite objective raises ``ValueError``
        (no member could ever dominate a NaN, so it would stay for good) and
        leaves the archive unchanged; so does an eviction tie without
        ``rng``: every draw comes from the caller's Generator.
        """
        value = np.asarray(value, dtype=float)
        # Python loops over M values cost less than numpy reductions
        flat = value.ravel().tolist()
        if not all(map(math.isfinite, flat)):
            raise ValueError(f"non-finite archive candidate value {value.tolist()}")
        values, positions = self._values, self._positions
        if not len(self):
            values = np.empty((0, value.size))
            positions = np.empty((0, np.size(position)))
        elif values.shape[1] != value.size:
            raise ValueError("candidate objective length mismatch")
        if self.dominated(value[None])[0]:
            return False
        kept = ~dominance(value, values)
        values = np.concatenate([values[kept], value[None]])
        position = np.asarray(position, dtype=float)
        positions = np.concatenate([positions[kept], position[None]])
        if self.capacity is not None and len(values) > self.capacity:
            crowding = crowding_distances(values)
            minimal = np.flatnonzero(crowding == crowding.min())
            if minimal.size > 1:
                if rng is None:
                    raise ValueError("an eviction tie needs the caller's rng")
                evict = int(rng.choice(minimal))
            else:
                evict = int(minimal[0])
            kept = np.arange(len(values)) != evict
            values, positions = values[kept], positions[kept]
        self._set(values, positions)
        return True


def select_leader(archive, rows):
    """Leader positions, one per row of tournament draws.

    Binary tournament on crowding distance: a row (u_i, u_j, u_tie) of
    uniforms in [0, 1) picks members ``int(u_i * n)`` and ``int(u_j * n)``
    (with replacement); the larger crowding wins, and on a tie the first
    wins iff u_tie < 0.5. ``rows`` is a list of such rows; returns an
    (len(rows), D) array.
    """
    n, crowd = len(archive), archive.crowding
    if n == 0:
        raise RuntimeError("cannot select a leader from an empty archive")
    leaders = []
    for u_i, u_j, u_tie in rows:
        i, j = int(u_i * n), int(u_j * n)
        k = i if crowd[i] > crowd[j] else j
        if crowd[i] == crowd[j]:
            k = i if u_tie < 0.5 else j
        leaders.append(k)
    return archive.positions()[leaders]


def update_velocity(swarm, rows, leaders, r, cfg):
    """Inertia + cognitive + social velocity of the particles in ``rows``.

    ``rows`` is a slice of the swarm, ``leaders`` its (n, D) leader
    positions and ``r`` its (n, 2) draws, r1 then r2 per particle. The
    result is clamped to v_max and returned; ``swarm`` is not written.
    """
    x = swarm.position[rows]
    v = cfg.inertia * swarm.velocity[rows]
    pull = swarm.best_position[rows] - x
    pull *= cfg.c1 * r[:, :1]
    v += pull
    np.subtract(leaders, x, out=pull)
    pull *= cfg.c2 * r[:, 1:]
    v += pull
    np.maximum(v, -cfg.v_max, out=v)
    return np.minimum(v, cfg.v_max, out=v)


def update_position(swarm, rows, velocity, lower, upper):
    """New positions of the particles in ``rows``: moved by ``velocity``
    and clamped into the box; ``swarm`` is not written.

    A clamped coordinate has its component of ``velocity`` zeroed (in
    place) so particles do not stick to the boundary.
    """
    raw = swarm.position[rows] + velocity
    clamped = np.minimum(np.maximum(raw, lower), upper)
    velocity[clamped != raw] = 0.0
    return clamped


def update_personal_best(swarm, rows, values):
    """Replace the personal best of each particle in ``rows`` whose new
    objective (a row of ``values``) dominates it; returns how many did."""
    improved = dominance(values, swarm.best_value[rows])
    count = int(np.count_nonzero(improved))
    if count:
        where = improved[:, None]
        np.copyto(swarm.best_position[rows], swarm.position[rows], where=where)
        np.copyto(swarm.best_value[rows], values, where=where)
    return count


def init_swarm(objective, lower, upper, cfg, rng):
    """Uniform random swarm plus the archive seeded with its non-dominated set.

    Positions are uniform over the box, velocities uniform in
    [-v_max, v_max], and each personal best starts at the initial
    position with its objective value. One ``rng.random((N, 2, D))`` block
    (particle i's position, then velocity draws) mapped as ``Generator.uniform``
    maps its draws gives a per-particle ``uniform`` loop's bytes.
    """
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    if not np.isfinite(upper - lower).all():
        raise ValueError("upper - lower must be finite")
    u = rng.random((cfg.swarm_size, 2, lower.size))
    position = lower + (upper - lower) * u[:, 0]
    velocity = -cfg.v_max + (2 * cfg.v_max) * u[:, 1]
    values = np.array([objective(x) for x in position], dtype=float)
    swarm = Swarm(position, velocity, position.copy(), values)
    archive = ParetoArchive(capacity=cfg.archive_capacity)
    for i in pareto_filter(swarm.best_value):
        archive.insert(position[i], swarm.best_value[i], rng=rng)
    return swarm, archive


def step(swarm, archive, objective, lower, upper, cfg, rng, bound):
    """One MOPSO iteration over every particle, in index order.

    Per particle: select leader, draw r1 and r2, update velocity then
    position, evaluate the objective, update the personal best, offer the
    new point to the archive. Each leader comes from the archive as the
    previous particle left it.

    Every draw of the iteration comes first, as one ``rng.random((N, 5))``
    block: row i is particle i's (u_i, u_j, u_tie) tournament draws for
    ``select_leader``, then its r1 and r2. An eviction tie in
    ``ParetoArchive.insert`` draws from ``rng`` after the block.

    The archive changes only when it admits a candidate, so particles move
    in windows: leaders selected against the archive as it is, moves in one
    set of array operations, objectives evaluated up to the first admitted
    candidate, which is inserted. The next window starts after it and spans
    every particle left, so a step takes one window per admission before
    its last particle, plus one. Personal bests are updated once, at the
    end: only their own particle reads them.

    The required ``bound`` maps a window's (n, D) positions to (n, M) values
    no lower than the objective's, and each window is screened with it
    before anything is evaluated: only rows whose bound u is not finite, or
    no member dominates, or dominates the particle's personal best are
    evaluated, one at a time, and offered to the archive. The others change
    nothing: their value v <= u, so a member dominating u dominates v, and
    if v dominated the personal best, u would too; u stands in for v in the
    personal-best update. A bound of +inf rows screens nothing.

    Arrays and generator end exactly as a particle-by-particle loop over the
    same block leaves them. If the objective or the archive raises on a
    particle, those before it are left updated and the rest as they were
    (the loop has moved that one, not its personal best). Mutates ``swarm``
    and ``archive`` in place and returns them.
    """
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    n_particles = len(swarm)
    values = np.empty_like(swarm.best_value)
    draws = rng.random((n_particles, 5))
    tournaments, start = draws[:, :3].tolist(), 0
    try:
        while start < n_particles:
            window = slice(start, n_particles)
            leaders = select_leader(archive, tournaments[window])
            velocity = update_velocity(swarm, window, leaders, draws[window, 3:], cfg)
            position = update_position(swarm, window, velocity, lower, upper)
            u = values[window] = bound(position)
            open_ = ~archive.dominated(u) | dominance(u, swarm.best_value[window])
            rows = np.flatnonzero(open_ | ~np.isfinite(u).all(axis=1)).tolist()
            try:
                for k in rows:
                    end = k  # if row k raises, the rows before it commit
                    values[start + k] = objective(position[k])
                    if archive.insert(position[k], values[start + k], rng):
                        end = k + 1
                        break
                else:
                    end = len(position)
            finally:
                done = slice(start, start + end)
                swarm.velocity[done] = velocity[:end]
                swarm.position[done] = position[:end]
                start += end
    finally:
        update_personal_best(swarm, slice(0, start), values[:start])
    return swarm, archive
