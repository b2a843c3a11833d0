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
crowding arrays. ``step`` keeps the asynchronous per-particle update
(each leader is drawn from the archive as the previous particle left
it) but moves runs of particles between archive changes with one set of
array operations.

Determinism contract: every stochastic draw flows from the single
``numpy.random.Generator`` passed in, so identical (seed, config,
objective) reproduces the full trajectory bit for bit. ``step`` needs that
Generator to be PCG64-backed (``default_rng``'s); others raise ``TypeError``.
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
        if not 0 < self.v_max < math.inf:
            raise ValueError("v_max must be finite and > 0")
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
    mutation replaces the arrays rather than writing into them, in
    ``_set``, which also rebuilds the Python-float views below.

    With two objectives ``_set`` keeps the members' values sorted by f1
    (``_f1`` ascending, ``_f2`` the matching f2). Members do not dominate
    each other, so f2 is non-increasing along that order: a later member
    with a larger f2 would dominate an earlier one, and two members with
    equal f1 are equal. The members with f1 >= a are then the suffix from
    ``i = bisect_left(_f1, a)``, and its first one has the largest f2 of
    them; so (a, b) is dominated iff that member has f2 > b, or f2 == b
    and f1 > a (if it equals (a, b), no member can dominate it). This is
    exactly ``dominance(values, (a, b)).any()``, ties and duplicates
    included, for one bisect instead of a mask over the archive (the sweep
    of Jensen, IEEE TEVC 7(5), 2003).
    """

    def __init__(self, capacity=None):
        if capacity is not None and capacity < 1:
            raise ValueError("capacity must be >= 1 or None")
        self.capacity = capacity
        self._values = np.empty((0, 0))  # (K, M)
        self._positions = np.empty((0, 0))  # (K, D)
        self.crowding = np.empty(0)  # (K,)
        self._crowding = []  # crowding as Python floats, for select_leader
        self._f1 = self._f2 = None  # the f1-sorted view, when M == 2

    def __len__(self):
        return self._values.shape[0]

    def values(self):
        """(K, M) array of the archive's objective vectors."""
        return self._values.copy()

    def positions(self):
        """(K, D) array of the archive's decision vectors."""
        return self._positions.copy()

    def _set(self, values, positions, crowding):
        self._values = values
        self._positions = positions
        self.crowding = crowding
        self._crowding = crowding.tolist()
        if values.shape[1] == 2:
            by_f1 = values[np.argsort(values[:, 0], kind="stable")]
            self._f1 = by_f1[:, 0].tolist()
            self._f2 = by_f1[:, 1].tolist()

    def admits(self, value):
        """True iff no member dominates ``value``, the test ``insert`` applies.

        A NaN or infinite objective raises ``ValueError``: no member could
        ever dominate a NaN, so it would stay for good.
        """
        value = np.asarray(value, dtype=float)
        # Python loops over M values cost less than numpy reductions
        flat = value.ravel().tolist()
        if not all(map(math.isfinite, flat)):
            raise ValueError(f"non-finite archive candidate value {value.tolist()}")
        if not len(self):
            return True
        if self._values.shape[1] != value.size:
            raise ValueError("candidate objective length mismatch")
        if self._f1 is None:
            return not dominance(self._values, value).any()
        a, b = flat  # the sorted-view test of the class docstring
        f1, f2 = self._f1, self._f2
        i = bisect_left(f1, a)
        return i == len(f1) or not (f2[i] > b or (f2[i] == b and f1[i] > a))

    def insert(self, position, value, rng=None):
        """Insert a candidate; returns True if it entered the archive.

        A candidate some member dominates is rejected. A NaN or infinite
        one raises ``ValueError`` (see ``admits``) and leaves the archive
        unchanged; so does an eviction tie without ``rng``: every draw
        comes from the caller's Generator.
        """
        value = np.asarray(value, dtype=float)
        if not self.admits(value):
            return False  # dominated by a member
        self._add(np.asarray(position, dtype=float), value, rng)
        return True

    def _add(self, position, value, rng):
        """``insert`` of a candidate that ``admits`` has passed."""
        if not len(self):
            self._values = np.empty((0, value.size))
            self._positions = np.empty((0, position.size))
        kept = ~dominance(value, self._values)
        values = np.concatenate([self._values[kept], value[None]])
        positions = np.concatenate([self._positions[kept], position[None]])
        crowding = crowding_distances(values)
        if self.capacity is not None and len(values) > self.capacity:
            minimal = np.flatnonzero(crowding == crowding.min())
            if minimal.size > 1:
                if rng is None:
                    raise ValueError("an eviction tie needs the caller's rng")
                evict = int(rng.choice(minimal))
            else:
                evict = int(minimal[0])
            kept = np.arange(len(values)) != evict
            values, positions = values[kept], positions[kept]
            crowding = crowding_distances(values)
        self._set(values, positions, crowding)


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
    # two scalar draws: the stream of integers(0, n, size=2), at a third the cost
    i = rng.integers(0, n)
    j = rng.integers(0, n)
    ci, cj = archive._crowding[i], archive._crowding[j]
    if ci > cj:
        k = i
    elif cj > ci:
        k = j
    else:
        k = i if rng.random() < 0.5 else j
    return archive._positions[k].copy()


class _RawDraws:
    """``step``'s draws, transformed from a PCG64's raw words as per-particle
    ``select_leader`` and ``rng.random(2)`` calls transform them: with n >= 2
    members one word gives both indices (Lemire's ``(u * n) >> 32`` on its
    low then high half, or the buffered half then its low one), then a word
    for a tie's double and one each for r1 and r2, ``(word >> 11) * 2**-53``.
    ``end`` is (words used, buffered half) after the committed draws."""

    def __init__(self, rng):
        if not isinstance(rng.bit_generator, np.random.PCG64):
            raise TypeError("step draws from a PCG64 Generator")
        self.rng = rng
        self.restart()

    def restart(self):  # at the generator's position
        self.base, self.words = self.rng.bit_generator.state, []
        self.end = (0, self.base["uinteger"])

    def seek(self):  # put the generator at ``end``
        bit_generator = self.rng.bit_generator
        bit_generator.state = self.base
        state = bit_generator.advance(self.end[0]).state  # clears the buffered half
        state["has_uint32"], state["uinteger"] = self.base["has_uint32"], self.end[1]
        bit_generator.state = state

    def scalar(self, draw):  # ``draw()`` on the generator, from ``end``
        self.seek()
        out = draw()
        self.restart()
        return out

    def choice(self, a):  # an eviction tie's ``rng.choice`` in ``ParetoArchive._add``
        return self.scalar(lambda: self.rng.choice(a))

    def window(self, archive, width):
        """Leader rows, (r1, r2) rows and ends of the next ``width`` particles,
        up to one whose index numpy redraws (odds n / 2**32), drawn alone by
        the scalar calls if it is the first."""
        n, crowd, half = len(archive), archive._crowding, self.base["has_uint32"]
        if n == 0:
            raise RuntimeError("cannot select a leader from an empty archive")
        (at, uinteger), words = self.end, self.words
        if at + 4 * width > len(words):  # 4 words cover any particle
            words += self.rng.bit_generator.random_raw(4 * width + 128).tolist()
        low, reject = 0xFFFFFFFF, (2**32 - n) % n  # redrawn: (u * n) & low < reject
        leaders, r, ends = [], [], []
        for _ in range(width):
            k = 0
            if n > 1:
                word, at = words[at], at + 1
                u, v = (uinteger, word & low) if half else (word & low, word >> 32)
                uinteger, u, v = word >> 32, u * n, v * n
                if (u & low) < reject or (v & low) < reject:
                    break
                i, j = u >> 32, v >> 32
                k = i if crowd[i] > crowd[j] else j
                if crowd[i] == crowd[j]:  # the double is < 0.5 iff word < 2**63
                    k, at = (i if words[at] < 2**63 else j), at + 1
            leaders.append(k)
            r.append(((words[at] >> 11) * 2**-53, (words[at + 1] >> 11) * 2**-53))
            at += 2
            ends.append((at, uinteger))
        if leaders:
            return archive._positions[leaders], np.array(r), ends
        rng = self.rng
        leader, r = self.scalar(lambda: (select_leader(archive, rng), rng.random((1, 2))))
        return leader[None], r, [self.end]


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

    Per particle: select leader, draw r1 and r2, update velocity then
    position, evaluate the objective, update the personal best, offer the
    new point to the archive. Each leader comes from the archive as the
    previous particle left it.

    The archive changes only when it admits a candidate, so particles move
    in windows: draws against the archive as it is (``_RawDraws``, which
    needs a PCG64 Generator and relies on numpy's ``integers`` and
    ``random`` transforms, as the per-particle oracle test checks), moves
    in one set of array operations, objectives evaluated up to the first
    admitted candidate, which is inserted. The next window starts after it,
    redraws from the words its particle's draws left, and is twice as wide
    as the run just committed (the first is a third of the swarm). Personal
    bests are updated once, at the end: only their own particle reads them.
    Arrays and generator end exactly as a particle-by-particle loop leaves
    them; if the objective or the archive raises, the committed particles
    are left updated and the window's others as they were. Mutates
    ``swarm`` and ``archive`` in place and returns them for convenience.
    """
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    n_particles = len(swarm)
    values = np.empty_like(swarm.best_value)
    draws = _RawDraws(rng)
    start, width = 0, max(1, n_particles // 3)
    try:
        while start < n_particles:
            leaders, r, ends = draws.window(archive, min(width, n_particles - start))
            window = slice(start, start + len(r))
            velocity = update_velocity(swarm, window, leaders, r, cfg)
            position = update_position(swarm, window, velocity, lower, upper)
            for k in range(len(r)):
                values[start + k] = objective(position[k])
                admitted = archive.admits(values[start + k])
                if admitted:
                    break
            done = slice(start, start + k + 1)
            swarm.velocity[done] = velocity[: k + 1]
            swarm.position[done] = position[: k + 1]
            start, width, draws.end = start + k + 1, 2 * (k + 1), ends[k]
            if admitted:
                archive._add(swarm.position[start - 1], values[start - 1], draws)
    finally:
        draws.seek()
        update_personal_best(swarm, slice(0, start), values[:start])
    return swarm, archive
