# -*- coding: utf-8 -*-

"""
Deployment geometry and the interference-power-density objective.

A scenario is a rectangular deployment region, a set of rectangular
interference regions discretized into resolution-cell centers, and the
radar transmit parameters. The objective of a candidate antenna layout
is, per region, the minimum free-space power density over the region's
cells; the joint objective stacks one value per region (maximization).
The bound (``make_bound``) is the same density kernel over each region's
corner cells only: per layout of a batch, an upper bound on its
objective, exact on a one-cell region. A layout whose bound can change
neither the archive nor its particle's personal best is never evaluated
exactly (``mopso.step``).

All types are immutable after construction. The objective and bound
closures own scratch buffers that each call overwrites: each is safe to
use in several processes, each with its own closure, but must not be
shared between threads.
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
        if not (0 < self.width < math.inf and 0 < self.height < math.inf):
            raise ScenarioError(
                "rectangle needs finite x_min < x_max and y_min < y_max, "
                f"got {self!r}"
            )

    @property
    def width(self):
        return self.x_max - self.x_min

    @property
    def height(self):
        return self.y_max - self.y_min


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
        for key, arr in (("transmit_powers", p), ("gains", g)):
            for i, x in enumerate(arr.tolist()):
                if not 0 < x < math.inf:
                    raise ScenarioError(f"{key}[{i}] must be finite and > 0, got {x}")
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
    """A rectangle discretized into resolution-cell centers.

    ``cells`` is ``discretize_region(bounds, nx, ny)``, computed here.
    """

    bounds: Rectangle
    nx: int
    ny: int
    cells: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(
            self, "cells", discretize_region(self.bounds, self.nx, self.ny)
        )

    @property
    def n_cells(self):
        return self.cells.shape[0]


@dataclass(frozen=True)
class Scenario:
    """Deployment region, interference regions, and radar parameters.

    Objective q is region q, in the order ``regions`` is given.
    """

    deployment_region: Rectangle
    regions: tuple
    radar: RadarParams
    min_separation: float

    def __post_init__(self):
        regions = tuple(self.regions)
        if len(regions) < 1:
            raise ScenarioError("scenario needs at least one interference region")
        if not 0 < self.min_separation < math.inf:
            raise ScenarioError("min_separation must be finite and > 0")
        # the largest density the kernel can produce, in its float order: every
        # antenna at the floor distance of one cell (a floor of 0 divides by 0)
        floor, peak = self.min_separation * self.min_separation, 0.0
        for p, g in zip(self.radar.transmit_powers.tolist(), self.radar.gains.tolist()):
            peak += p * g / (4.0 * math.pi) / floor if floor else math.inf
        if peak == math.inf:
            raise ScenarioError(
                "radar.powers_w, radar.gains and min_separation_m give a power "
                "density sum(P * G / (4 pi s^2)) that overflows a float")
        object.__setattr__(self, "regions", regions)

    @property
    def n_antennas(self):
        return self.radar.n_antennas


def _as_layout(layout, radar):
    pos = np.asarray(layout, dtype=float)
    if pos.ndim == 1 and pos.size % 2 == 0:
        pos = pos.reshape(-1, 2)
    if pos.ndim != 2 or pos.shape[1] != 2:
        raise ScenarioError(f"layout must be (J, 2) positions, got shape {pos.shape}")
    if pos.shape[0] != radar.n_antennas:
        raise ScenarioError(
            f"layout has {pos.shape[0]} antennas, radar params have {radar.n_antennas}"
        )
    if not np.isfinite(pos).all():
        raise ScenarioError(f"layout coordinates must be finite, got {pos.tolist()}")
    return pos


def _density_minima(cell_sets, radar, min_separation):
    """Closure mapping a flat layout (2J,) to (S,), or a batch (B, 2J) to
    (B, S): one value per cell set, the minimum over its cells of the
    summed free-space power density, P_t * G / (4 pi R^2) per antenna with
    R clamped from below at ``min_separation`` to kill the R->0 pole.

    A cell's density has the same bits in any batch and beside any other
    cell sets. The closure keeps scratch buffers per batch size, which
    every call overwrites: it may be used from one thread at a time. The
    returned array is fresh on every call.
    """
    # All cell sets side by side, so one (J, B, C) pass serves every set and
    # reduceat takes each set's minimum over its own column range.
    cells = np.concatenate(cell_sets)
    sizes = [len(c) for c in cell_sets]
    starts = np.cumsum([0] + sizes[:-1])
    # Summing the (J, B, C) array over axis 0 adds each cell's J terms in
    # order, but numpy adds a lone column pairwise (from eight antennas on):
    # a one-cell set's column is summed pairwise for every layout alike.
    lone = [int(k) for k, n in zip(starts, sizes) if n == 1]
    n_antennas = radar.n_antennas
    coef = (radar.transmit_powers * radar.gains / (4.0 * math.pi))[:, None, None]
    scratch = {}

    def buffers(batch):
        # Every operand tiled once, so each pass is one ufunc over contiguous
        # arrays of one shape into a preallocated buffer: broadcasting costs
        # more than the arithmetic. The x and y planes share each pass.
        shape = (n_antennas, batch, len(cells))

        def tile(a, to=shape):
            return np.ascontiguousarray(np.broadcast_to(a, to))

        dxy = np.empty((2,) + shape)
        return (tile(coef), tile(cells.T[:, None, None, :], (2,) + shape),
                tile(min_separation * min_separation), dxy, dxy[0])

    def minima(flat):
        pos = np.asarray(flat, dtype=float)
        layouts = pos.reshape(-1, n_antennas, 2)
        if len(layouts) not in scratch:
            scratch[len(layouts)] = buffers(len(layouts))
        coefs, cxy, floor, dxy, d2 = scratch[len(layouts)]
        np.copyto(dxy, layouts.T[..., None])
        np.subtract(dxy, cxy, out=dxy)
        np.multiply(dxy, dxy, out=dxy)
        np.add(dxy[0], dxy[1], out=d2)
        np.maximum(d2, floor, out=d2)
        np.divide(coefs, d2, out=d2)
        density = d2.sum(axis=0)
        for k in lone:
            density[:, k] = np.ascontiguousarray(d2[:, :, k].T).sum(axis=1)
        out = np.minimum.reduceat(density, starts, axis=1)
        return out if pos.ndim > 1 else out[0]

    return minima


def power_density(layout, cell, radar, min_separation):
    """Free-space power density (W/m^2) delivered to one cell: the
    ``_density_minima`` closure over that cell."""
    cells = np.atleast_2d(np.asarray(cell, dtype=float))
    flat = _as_layout(layout, radar).ravel()
    return float(_density_minima([cells], radar, min_separation)(flat)[0])


def joint_objective(layout, scenario):
    """Objective vector: one region minimum per region, in scenario order."""
    return make_objective(scenario)(_as_layout(layout, scenario.radar).ravel())


def make_objective(scenario):
    """The ``_density_minima`` closure over each region's cells: a flat
    decision vector (2J,) to the objective (M,), or a batch (B, 2J) to (B, M).

    Unvalidated; equivalent to ``joint_objective`` on the reshaped layout.
    """
    return _density_minima([r.cells for r in scenario.regions], scenario.radar,
                           scenario.min_separation)


def make_bound(scenario):
    """The ``_density_minima`` closure over each region's distinct corner
    cells: a (B, 2J) batch of decision vectors to (B, M) upper bounds on
    their objective rows. Each entry is a cell density of the objective to
    the bit, so never below the region minimum; a one-cell region's is exact.
    """
    return _density_minima(
        [r.cells[sorted({0, r.nx - 1, r.n_cells - r.nx, r.n_cells - 1})]
         for r in scenario.regions],
        scenario.radar, scenario.min_separation)


# ---------------------------------------------------------------------------
# Config file loading: the JSON input rules that the experiment loader
# shares, then the scenario schema (strict, units converted at load)
# ---------------------------------------------------------------------------

# kind -> (how a message names it, the Python types json gives it)
JSON_KINDS = {
    "int": ("an integer", (int,)),
    "float": ("a number", (int, float)),
    "bool": ("true or false", (bool,)),
    "str": ("a string", (str,)),
}


def read_json(path, what, error=ScenarioError):
    """The parsed JSON file at ``path``; a missing file or invalid JSON
    raises ``error`` naming ``what``."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise error(f"{what} not found: {path}") from None
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise error(f"{what} {path} is not valid JSON: {exc}") from None


def json_object(obj, context, allowed, required=(), error=ScenarioError):
    """``obj`` if it is a JSON object whose keys are all ``allowed`` and
    include every ``required`` one; else raise ``error`` naming ``context``."""
    if not isinstance(obj, dict):
        raise error(f"{context} must be a JSON object")
    unknown = set(obj) - set(allowed)
    if unknown:
        raise error(f"unknown key(s) {sorted(unknown)} in {context}")
    for key in required:
        if key not in obj:
            raise error(f"{context} is missing key '{key}'")
    return obj


def json_value(value, kind, context, error=ScenarioError):
    """``value`` if it is a JSON value of ``kind`` (a key of ``JSON_KINDS``),
    as a float for "float"; else raise ``error`` naming ``context``.

    A JSON integer is a number and a boolean is neither. NaN, which Python's
    json reads, is not a number: it would pass every range check. Infinity
    is; a field that must be finite says so in its own range check. An
    integer too large for a float is not a number either, and one outside
    the signed 64-bit range is not an integer: numpy cannot size by it.
    """
    name, types = JSON_KINDS[kind]
    if (
        not isinstance(value, types)
        or (isinstance(value, bool) and kind != "bool")
        or (isinstance(value, float) and math.isnan(value))
    ):
        raise error(f"{context} must be {name}, got {value!r}")
    if kind == "int" and not -(2**63) <= value < 2**63:
        raise error(f"{context} must be {name} an int64 can hold, got {value!r}")
    if kind != "float":
        return value
    try:
        return float(value)
    except OverflowError:
        raise error(f"{context} must be {name} a float can hold, got {value!r}") from None


_COORDS = ("x_min", "x_max", "y_min", "y_max")


def _load_rectangle(obj, context):
    json_object(obj, context, _COORDS + ("unit",), _COORDS)
    unit = json_value(obj.get("unit", "m"), "str", f"{context}.unit")
    if unit not in _LENGTH_UNITS:
        raise ScenarioError(f"{context}.unit must be one of {sorted(_LENGTH_UNITS)}")
    scale = _LENGTH_UNITS[unit]
    coords = {}
    for key in _COORDS:
        coords[key] = json_value(obj[key], "float", f"{context}.{key}") * scale
    return Rectangle(**coords)


def _load_gain(obj, context):
    json_object(obj, context, ("value", "unit"), ("value", "unit"))
    value = json_value(obj["value"], "float", f"{context}.value")
    unit = obj["unit"]
    if unit == "dB":
        return float(db_to_linear(value))
    if unit == "linear":
        return value
    raise ScenarioError(f"{context}.unit must be 'dB' or 'linear', got {unit!r}")


def scenario_from_dict(doc):
    """Build a Scenario from a parsed scenario document."""
    keys = ("deployment_region", "regions", "radar", "min_separation_m")
    json_object(doc, "scenario", keys, keys)

    deployment = _load_rectangle(doc["deployment_region"], "deployment_region")

    if not isinstance(doc["regions"], list):
        raise ScenarioError("'regions' must be a list")
    regions = []
    for i, robj in enumerate(doc["regions"]):
        ctx = f"regions[{i}]"
        json_object(robj, ctx, ("bounds", "grid"), ("bounds",))
        bounds = _load_rectangle(robj["bounds"], f"{ctx}.bounds")
        grid = json_object(robj.get("grid", {}), f"{ctx}.grid", ("nx", "ny"))
        nx = json_value(grid.get("nx", 20), "int", f"{ctx}.grid.nx")
        ny = json_value(grid.get("ny", 20), "int", f"{ctx}.grid.ny")
        regions.append(InterferenceRegion(bounds, nx, ny))

    radar_keys = ("powers_w", "gains")
    radar_obj = json_object(doc["radar"], "radar", radar_keys, radar_keys)
    powers = radar_obj["powers_w"]
    gains_raw = radar_obj["gains"]
    if not isinstance(powers, list) or not isinstance(gains_raw, list):
        raise ScenarioError("radar.powers_w and radar.gains must be lists")
    powers = [
        json_value(p, "float", f"radar.powers_w[{i}]") for i, p in enumerate(powers)
    ]
    gains = [_load_gain(g, f"radar.gains[{i}]") for i, g in enumerate(gains_raw)]
    radar = RadarParams(transmit_powers=np.array(powers, float), gains=np.array(gains))

    return Scenario(
        deployment_region=deployment,
        regions=tuple(regions),
        radar=radar,
        min_separation=json_value(doc["min_separation_m"], "float", "min_separation_m"),
    )


def load_scenario(path):
    """Load and validate a scenario JSON file."""
    return scenario_from_dict(read_json(path, "scenario file"))

