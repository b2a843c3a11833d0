"""Correctness checks on an exported run tree, and its identity digest.

Every check reads the files the program wrote, not its in-memory results:

* each front's objective columns equal ``scenario.joint_objective`` of its
  position columns to a relative 1e-12 (``joint_objective`` is the
  reference path, independent of the ``make_objective`` closure the
  optimizer evaluates);
* every exported number is finite. The one exception is the c-ratio
  table's documented "nan" marker, accepted only on a row whose anchor
  lies outside that iteration's exported front, where the value is
  undefined;
* each front is mutually non-dominated (per trial for pooled fronts).
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import re

import numpy as np

REL_TOL = 1e-12
_FRONT = re.compile(r"^(pooled_)?front_t(\d+)\.csv$")


def tree_files(directory):
    """Sorted relative paths of every file under ``directory``."""
    out = []
    for base, _, files in os.walk(directory):
        for name in files:
            out.append(os.path.relpath(os.path.join(base, name), directory))
    return sorted(out)


def digest_tree(directory, tokens=None):
    """sha256 over sorted relative paths and file bytes; returns (hex, bytes).

    ``tokens`` maps path strings to fixed tokens substituted before hashing,
    in order. The config echo in ``summary.json`` records the scenario's
    absolute path; substituting the checkout's location lets digests be
    compared across checkouts and processes.
    """
    h = hashlib.sha256()
    total = 0
    for rel in tree_files(directory):
        with open(os.path.join(directory, rel), "rb") as fh:
            data = fh.read()
        total += len(data)
        for path, token in (tokens or {}).items():
            data = data.replace(path.encode(), token.encode())
        h.update(rel.encode() + b"\0" + str(len(data)).encode() + b"\0" + data)
    return h.hexdigest(), total


def _read_csv(path):
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n").split(",")
        rows = [line.rstrip("\n").split(",") for line in fh if line.strip()]
    return header, rows


def _numbers(row):
    """The numeric tokens of a CSV row; other tokens are labels such as a mode name."""
    out = []
    for tok in row:
        try:
            out.append(float(tok))
        except ValueError:
            pass
    return out


def _non_dominated(values):
    """True iff no row dominates another (maximization, all pairs)."""
    ge = (values[:, None, :] >= values[None, :, :]).all(axis=2)
    gt = (values[:, None, :] > values[None, :, :]).any(axis=2)
    return not (ge & gt).any()


def _check_front(rel, header, rows, scenario, joint_objective, errors):
    if not rows:
        errors.append(f"{rel}: front has no rows")
        return np.empty((0, len(header))), []
    data = np.array([[float(tok) for tok in row] for row in rows])
    fcols = [i for i, name in enumerate(header) if re.fullmatch(r"f\d+", name)]
    pcols = [i for i, name in enumerate(header) if re.fullmatch(r"[xy]\d+", name)]
    if not np.all(np.isfinite(data)):
        errors.append(f"{rel}: non-finite value")
        return data, fcols
    values, positions = data[:, fcols], data[:, pcols]
    for k in range(data.shape[0]):
        ref = np.asarray(joint_objective(positions[k], scenario), dtype=float)
        if ref.shape != values[k].shape or not np.all(
            np.abs(values[k] - ref) <= REL_TOL * np.abs(ref)
        ):
            errors.append(f"{rel} row {k}: objective {values[k].tolist()} "
                          f"!= joint_objective {ref.tolist()}")
            break
    groups = data[:, header.index("trial")] if "trial" in header else np.zeros(len(data))
    for g in np.unique(groups):
        if not _non_dominated(values[groups == g]):
            errors.append(f"{rel}: front (group {g:g}) is not mutually non-dominated")
    return data, fcols


def _check_c_ratio(rel, header, rows, fronts, errors):
    col = {name: i for i, name in enumerate(header)}
    for k, row in enumerate(rows):
        nums = [float(tok) for tok in row]
        if all(math.isfinite(x) for x in nums):
            continue
        anchor = nums[col["anchor_f1"]]
        it = int(nums[col["iteration"]])
        front = fronts.get(os.path.join(os.path.dirname(rel), f"front_t{it}.csv"))
        if (
            front is None
            or not math.isfinite(anchor)
            or math.isfinite(nums[col["f2"]])
            or (math.isfinite(nums[col["c_percent"]]) and nums[col["c_percent"]] != 100.0)
        ):
            errors.append(f"{rel} row {k}: non-finite value {row}")
            continue
        f1 = front[:, 0]
        if f1.min() <= anchor <= f1.max():
            errors.append(f"{rel} row {k}: nan although anchor {anchor} is inside "
                          f"the front's f1 range")


def _check_json_numbers(rel, obj, errors):
    if isinstance(obj, float) and not math.isfinite(obj):
        errors.append(f"{rel}: non-finite number")
    elif isinstance(obj, dict):
        for v in obj.values():
            _check_json_numbers(rel, v, errors)
    elif isinstance(obj, list):
        for v in obj:
            _check_json_numbers(rel, v, errors)


def check_export(directory, scenario, joint_objective):
    """Run every check on the tree under ``directory``; returns error strings."""
    errors = []
    fronts = {}
    c_ratios = []
    files = tree_files(directory)
    if not files:
        return ["export tree is empty"]
    for rel in files:
        path = os.path.join(directory, rel)
        name = os.path.basename(rel)
        if name.endswith(".json"):
            with open(path, "r", encoding="utf-8") as fh:
                _check_json_numbers(rel, json.load(fh), errors)
            continue
        header, rows = _read_csv(path)
        if _FRONT.match(name):
            data, fcols = _check_front(rel, header, rows, scenario, joint_objective, errors)
            if not name.startswith("pooled_"):
                fronts[rel] = data[:, fcols]
        elif name == "c_ratio.csv":
            c_ratios.append((rel, header, rows))
        else:
            for k, row in enumerate(rows):
                if not all(math.isfinite(x) for x in _numbers(row)):
                    errors.append(f"{rel} row {k}: non-finite value {row}")
    for rel, header, rows in c_ratios:
        _check_c_ratio(rel, header, rows, fronts, errors)
    return errors
