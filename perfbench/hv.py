"""Exact hypervolume of a maximization front, with the origin as reference.

The origin is a valid reference point for this system because every
objective is a power density, which is strictly positive (Zitzler &
Thiele, IEEE TEVC 3(4), 1999). Two objectives use a sorted sweep, three
use slicing along the third objective. ``brute_force`` is the grid-cell
reference that ``self_check`` compares both against.
"""

from __future__ import annotations

import itertools

import numpy as np


def _hv2(points):
    """Area dominated by (n, 2) points: sweep in decreasing f1."""
    if points.shape[0] == 0:
        return 0.0
    order = np.lexsort((-points[:, 1], -points[:, 0]))
    f1 = points[order, 0]
    best_f2 = np.maximum.accumulate(points[order, 1])
    gains = np.diff(best_f2, prepend=0.0)
    return float((f1 * gains).sum())


def _hv3(points):
    """Volume dominated by (n, 3) points: 2-D slices between f3 levels."""
    order = np.argsort(-points[:, 2], kind="stable")
    pts = points[order]
    levels = np.append(pts[:, 2], 0.0)
    total = 0.0
    for i in range(pts.shape[0]):
        height = levels[i] - levels[i + 1]
        if height > 0:
            total += height * _hv2(pts[: i + 1, :2])
    return total


def hypervolume(values):
    """Exact hypervolume of (n, M) maximization values, M in {2, 3}."""
    pts = np.atleast_2d(np.asarray(values, dtype=float))
    if not np.all(np.isfinite(pts)):
        raise ValueError("hypervolume needs finite values")
    pts = np.maximum(pts, 0.0)  # the part below the reference adds nothing
    if pts.shape[1] == 2:
        return _hv2(pts)
    if pts.shape[1] == 3:
        return _hv3(pts)
    raise ValueError(f"hypervolume is implemented for 2 or 3 objectives, got {pts.shape[1]}")


def brute_force(values):
    """Sum of the grid cells, between sorted coordinates, that some point dominates."""
    pts = np.maximum(np.atleast_2d(np.asarray(values, dtype=float)), 0.0)
    axes = [np.unique(np.append(pts[:, q], 0.0)) for q in range(pts.shape[1])]
    total = 0.0
    for cell in itertools.product(*(range(len(a) - 1) for a in axes)):
        upper = np.array([a[i + 1] for a, i in zip(axes, cell)])
        if np.any(np.all(pts >= upper, axis=1)):
            total += float(np.prod([a[i + 1] - a[i] for a, i in zip(axes, cell)]))
    return total


def self_check(seed=0, cases=60):
    """Compare ``hypervolume`` with ``brute_force`` on small random fronts.

    Values are drawn from a few levels so ties and duplicates occur, and
    dominated points are left in. Returns the list of mismatching cases.
    """
    rng = np.random.default_rng(seed)
    bad = []
    for case in range(cases):
        m = 2 + case % 2
        n = int(rng.integers(1, 7))
        values = rng.integers(1, 6, size=(n, m)) * rng.uniform(0.5, 2.0, size=m)
        fast, slow = hypervolume(values), brute_force(values)
        if not abs(fast - slow) <= 1e-12 * max(abs(slow), 1e-300):
            bad.append({"case": case, "fast": fast, "brute": slow})
    return bad
