# -*- coding: utf-8 -*-

"""
Deployment geometry and the interference-power-density objective.

A scenario is a rectangular deployment region, a set of rectangular
interference regions discretized into resolution-cell centers, and the
radar transmit parameters. The objective of a candidate antenna layout
is, per region, the minimum free-space power density over the region's
cells; the joint objective stacks one value per region (maximization).

All types are immutable after construction and all operations are pure
functions, so evaluation is safe from concurrent workers.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np


class ScenarioError(ValueError):
    """Invalid scenario definition or scenario file."""


_LENGTH_UNITS = {"m": 1.0, "km": 1000.0}


def db_to_linear(db):
    """Power-convention dB to linear: 10^(dB/10)."""
    return 10.0 ** (np.asarray(db, dtype=float) / 10.0)


@dataclass(frozen=True)
class Rectangle:
    """Axis-aligned rectangle, coordinates in meters."""

    x_min: float
    x_max: float
    y_min: float
    y_max: float

    def __post_init__(self):
        if not (self.x_min < self.x_max and self.y_min < self.y_max):
            raise ScenarioError(
                "degenerate rectangle: require x_min < x_max and y_min < y_max, "
                f"got {self!r}"
            )

    @property
    def width(self):
        return self.x_max - self.x_min

    @property
    def height(self):
        return self.y_max - self.y_min

    def contains(self, points):
        """Elementwise containment test for an (..., 2) array of points."""
        p = np.asarray(points, dtype=float)
        return (
            (p[..., 0] >= self.x_min)
            & (p[..., 0] <= self.x_max)
            & (p[..., 1] >= self.y_min)
            & (p[..., 1] <= self.y_max)
        )


@dataclass(frozen=True)
class RadarParams:
    """Per-antenna transmit power (W) and linear transmitting gain."""

    transmit_powers: np.ndarray
    gains: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.transmit_powers, dtype=float)
        g = np.asarray(self.gains, dtype=float)
        if p.ndim != 1 or p.size < 1:
            raise ScenarioError("transmit_powers must be a non-empty 1-D list")
        if g.shape != p.shape:
            raise ScenarioError(
                f"gains length {g.size} does not match transmit_powers length {p.size}"
            )
        if not np.all(p > 0):
            raise ScenarioError("all transmit_powers must be strictly positive")
        if not np.all(g > 0):
            raise ScenarioError("all gains must be strictly positive")
        object.__setattr__(self, "transmit_powers", p)
        object.__setattr__(self, "gains", g)

    @property
    def n_antennas(self):
        return self.transmit_powers.size


def discretize_region(bounds, nx, ny):
    """Cell centers of a regular nx-by-ny grid over ``bounds``.

    Returns an (nx*ny, 2) array in row-major order: x index varies
    fastest, center (i, j) at (x_min + (i+0.5)dx, y_min + (j+0.5)dy).
    """
    if nx < 1 or ny < 1:
        raise ScenarioError(f"grid counts must be >= 1, got nx={nx}, ny={ny}")
    dx = bounds.width / nx
    dy = bounds.height / ny
    xs = bounds.x_min + (np.arange(nx) + 0.5) * dx
    ys = bounds.y_min + (np.arange(ny) + 0.5) * dy
    gx, gy = np.meshgrid(xs, ys)  # rows of constant y
    return np.column_stack([gx.ravel(), gy.ravel()])


@dataclass(frozen=True)
class InterferenceRegion:
    """A rectangle discretized into resolution-cell centers."""

    index: int
    bounds: Rectangle
    nx: int
    ny: int
    cells: np.ndarray = field(repr=False)

    @classmethod
    def from_grid(cls, index, bounds, nx, ny):
        cells = discretize_region(bounds, nx, ny)
        return cls(index=index, bounds=bounds, nx=nx, ny=ny, cells=cells)

    def __post_init__(self):
        cells = np.asarray(self.cells, dtype=float)
        if cells.ndim != 2 or cells.shape != (self.nx * self.ny, 2):
            raise ScenarioError(
                f"region {self.index}: expected {self.nx * self.ny} cells, "
                f"got shape {cells.shape}"
            )
        if not np.all(self.bounds.contains(cells)):
            raise ScenarioError(f"region {self.index}: cell centers outside bounds")
        object.__setattr__(self, "cells", cells)

    @property
    def n_cells(self):
        return self.cells.shape[0]


@dataclass(frozen=True)
class Scenario:
    """Deployment region, interference regions, and radar parameters."""

    deployment_region: Rectangle
    regions: tuple
    radar: RadarParams
    min_separation: float

    def __post_init__(self):
        regions = tuple(self.regions)
        if len(regions) < 1:
            raise ScenarioError("scenario needs at least one interference region")
        indices = sorted(r.index for r in regions)
        if indices != list(range(1, len(regions) + 1)):
            raise ScenarioError(
                f"region indices must be 1..{len(regions)} without duplicates, "
                f"got {indices}"
            )
        if not self.min_separation > 0:
            raise ScenarioError("min_separation must be > 0")
        object.__setattr__(
            self, "regions", tuple(sorted(regions, key=lambda r: r.index))
        )

    @property
    def n_regions(self):
        return len(self.regions)

    @property
    def n_antennas(self):
        return self.radar.n_antennas


def _as_layout(layout, radar):
    pos = np.asarray(layout, dtype=float)
    if pos.ndim == 1:
        pos = pos.reshape(-1, 2)
    if pos.ndim != 2 or pos.shape[1] != 2:
        raise ScenarioError(f"layout must be (J, 2) positions, got shape {pos.shape}")
    if pos.shape[0] != radar.n_antennas:
        raise ScenarioError(
            f"layout has {pos.shape[0]} antennas, radar params have {radar.n_antennas}"
        )
    return pos


def _density_minima(cell_sets, radar, min_separation):
    """Closure mapping a flat layout (2J,) to one value per cell set: the
    minimum over its cells of the summed free-space power density.

    Each antenna contributes P_t * G / (4 pi R^2), with R clamped from
    below at ``min_separation`` to kill the R->0 pole.
    """
    coef = (radar.transmit_powers * radar.gains / (4.0 * math.pi))[:, None]
    min_sep2 = min_separation * min_separation
    # All cell sets side by side, so one (J, C) pass serves every set and
    # reduceat takes each set's minimum over its own column range.
    cells = np.concatenate(cell_sets)
    cx = np.ascontiguousarray(cells[:, 0])
    cy = np.ascontiguousarray(cells[:, 1])
    sizes = [len(c) for c in cell_sets]
    starts = np.cumsum([0] + sizes[:-1])
    # numpy adds the J rows of a one-column block pairwise (from eight rows
    # on) but those of a wider block one after another; a one-cell set's
    # column is summed alone so it keeps the rounding it has on its own.
    lone = [int(k) for k, n in zip(starts, sizes) if n == 1]

    def minima(flat):
        pos = np.asarray(flat, dtype=float).reshape(-1, 2)
        d2 = np.subtract.outer(pos[:, 0], cx)
        d2 *= d2
        dy = np.subtract.outer(pos[:, 1], cy)
        dy *= dy
        d2 += dy
        np.maximum(d2, min_sep2, out=d2)
        np.divide(coef, d2, out=d2)
        density = d2.sum(axis=0)
        for k in lone:
            density[k] = d2[:, k].sum()
        return np.minimum.reduceat(density, starts)

    return minima


def power_density(layout, cell, radar, min_separation):
    """Free-space power density (W/m^2) delivered to one cell.

    Sum over antennas of P_t * G / (4 pi R^2), with R clamped from below
    at ``min_separation``.
    """
    cells = np.atleast_2d(np.asarray(cell, dtype=float))
    pos = _as_layout(layout, radar)
    return float(_density_minima([cells], radar, min_separation)(pos)[0])


def region_objective(layout, region, radar, min_separation):
    """Minimum power density over all cells of one region."""
    pos = _as_layout(layout, radar)
    return float(_density_minima([region.cells], radar, min_separation)(pos)[0])


def joint_objective(layout, scenario):
    """Objective vector: one region minimum per region, in index order."""
    return make_objective(scenario)(_as_layout(layout, scenario.radar))


def make_objective(scenario):
    """Fast closure mapping a flat decision vector (2J,) to the objective.

    Unvalidated; equivalent to ``joint_objective`` on the reshaped layout.
    """
    cells = [r.cells for r in scenario.regions]
    return _density_minima(cells, scenario.radar, scenario.min_separation)


# ---------------------------------------------------------------------------
# Scenario file loading (strict JSON schema, units converted at load)
# ---------------------------------------------------------------------------


def _reject_unknown(obj, allowed, context):
    unknown = set(obj) - set(allowed)
    if unknown:
        raise ScenarioError(f"unknown key(s) {sorted(unknown)} in {context}")


def _load_rectangle(obj, context):
    if not isinstance(obj, dict):
        raise ScenarioError(f"{context} must be an object")
    _reject_unknown(obj, {"x_min", "x_max", "y_min", "y_max", "unit"}, context)
    try:
        scale = _LENGTH_UNITS[obj.get("unit", "m")]
    except KeyError:
        raise ScenarioError(
            f"{context}.unit must be one of {sorted(_LENGTH_UNITS)}"
        ) from None
    try:
        return Rectangle(
            x_min=float(obj["x_min"]) * scale,
            x_max=float(obj["x_max"]) * scale,
            y_min=float(obj["y_min"]) * scale,
            y_max=float(obj["y_max"]) * scale,
        )
    except KeyError as exc:
        raise ScenarioError(f"{context} is missing key {exc}") from None


def _load_gain(obj, context):
    if not isinstance(obj, dict):
        raise ScenarioError(f"{context} must be an object with 'value' and 'unit'")
    _reject_unknown(obj, {"value", "unit"}, context)
    try:
        value = float(obj["value"])
        unit = obj["unit"]
    except KeyError as exc:
        raise ScenarioError(f"{context} is missing key {exc}") from None
    if unit == "dB":
        return float(db_to_linear(value))
    if unit == "linear":
        return value
    raise ScenarioError(f"{context}.unit must be 'dB' or 'linear', got {unit!r}")


def scenario_from_dict(doc):
    """Build a Scenario from a parsed scenario document."""
    if not isinstance(doc, dict):
        raise ScenarioError("scenario document must be a JSON object")
    _reject_unknown(
        doc, {"deployment_region", "regions", "radar", "min_separation_m"}, "scenario"
    )
    for key in ("deployment_region", "regions", "radar", "min_separation_m"):
        if key not in doc:
            raise ScenarioError(f"scenario is missing key '{key}'")

    deployment = _load_rectangle(doc["deployment_region"], "deployment_region")

    if not isinstance(doc["regions"], list) or not doc["regions"]:
        raise ScenarioError("'regions' must be a non-empty list")
    regions = []
    for i, robj in enumerate(doc["regions"]):
        ctx = f"regions[{i}]"
        if not isinstance(robj, dict):
            raise ScenarioError(f"{ctx} must be an object")
        _reject_unknown(robj, {"bounds", "grid"}, ctx)
        if "bounds" not in robj:
            raise ScenarioError(f"{ctx} is missing key 'bounds'")
        bounds = _load_rectangle(robj["bounds"], f"{ctx}.bounds")
        grid = robj.get("grid", {"nx": 20, "ny": 20})
        _reject_unknown(grid, {"nx", "ny"}, f"{ctx}.grid")
        nx, ny = int(grid.get("nx", 20)), int(grid.get("ny", 20))
        regions.append(InterferenceRegion.from_grid(i + 1, bounds, nx, ny))

    radar_obj = doc["radar"]
    if not isinstance(radar_obj, dict):
        raise ScenarioError("'radar' must be an object")
    _reject_unknown(radar_obj, {"powers_w", "gains"}, "radar")
    try:
        powers = radar_obj["powers_w"]
        gains_raw = radar_obj["gains"]
    except KeyError as exc:
        raise ScenarioError(f"radar is missing key {exc}") from None
    if not isinstance(powers, list) or not isinstance(gains_raw, list):
        raise ScenarioError("radar.powers_w and radar.gains must be lists")
    if any(not (isinstance(p, (int, float)) and p > 0) for p in powers):
        raise ScenarioError("radar.powers_w entries must be strictly positive numbers")
    gains = [_load_gain(g, f"radar.gains[{i}]") for i, g in enumerate(gains_raw)]
    radar = RadarParams(transmit_powers=np.array(powers, float), gains=np.array(gains))

    scenario = Scenario(
        deployment_region=deployment,
        regions=tuple(regions),
        radar=radar,
        min_separation=float(doc["min_separation_m"]),
    )
    return scenario


def load_scenario(path):
    """Load and validate a scenario JSON file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        raise ScenarioError(f"scenario file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"scenario file {path} is not valid JSON: {exc}") from None
    return scenario_from_dict(doc)


def default_scenario(nx=20, ny=20):
    """Two-region 70 km x 70 km scenario with 8 identical antennas.

    A representative geometry: a 70 km deployment square with two
    well-separated interference rectangles, 8 antennas at 15 kW with
    40 dB gains, and a 100 m separation floor.
    """
    deployment = Rectangle(0.0, 70_000.0, 0.0, 70_000.0)
    region_a = InterferenceRegion.from_grid(
        1, Rectangle(10_000.0, 25_000.0, 40_000.0, 55_000.0), nx, ny
    )
    region_b = InterferenceRegion.from_grid(
        2, Rectangle(45_000.0, 60_000.0, 10_000.0, 25_000.0), nx, ny
    )
    radar = RadarParams(
        transmit_powers=np.full(8, 15_000.0),
        gains=np.full(8, float(db_to_linear(40.0))),
    )
    return Scenario(
        deployment_region=deployment,
        regions=(region_a, region_b),
        radar=radar,
        min_separation=100.0,
    )
