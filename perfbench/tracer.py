"""Per-layer spans installed from outside the program.

The tracer replaces the module and class attributes that ``run_single``,
``step`` and ``ConvergenceMonitor.observe`` look up at call time with
timing wrappers, and puts the originals back on exit. A layer's self
time is the time spent in its wrapper minus the time of wrapped calls
nested inside it. A target that no longer exists (after a refactor) is
listed in ``missing`` and its layer is reported absent; nothing fails.
"""

from __future__ import annotations

import importlib
import time
from dataclasses import dataclass

import numpy as np


@dataclass
class LayerStats:
    calls: int = 0
    self_s: float = 0.0
    accepted: int = 0  # calls that returned a true value, for accept ratios
    pairs: int = 0  # relative_distances: K_t * K_{t-h} summed over calls
    pairs_known: bool = True


# (layer, module, attribute path, counter). The runner's names are the ones
# run_single calls; the mopso and convergence ones are looked up by step and
# observe in their own modules.
TARGETS = (
    ("runner.run_single", "mopso_deploy.runner", "run_single", None),
    ("runner.export", "mopso_deploy.runner", "export_run", None),
    ("runner.export", "mopso_deploy.runner", "export_monte_carlo", None),
    ("mopso.init_swarm", "mopso_deploy.runner", "init_swarm", None),
    ("mopso.step", "mopso_deploy.runner", "step", None),
    ("scenario.make_objective", "mopso_deploy.runner", "make_objective", "objective"),
    ("mopso.select_leader", "mopso_deploy.mopso", "select_leader", None),
    ("mopso.update_velocity", "mopso_deploy.mopso", "update_velocity", None),
    ("mopso.update_position", "mopso_deploy.mopso", "update_position", None),
    ("mopso.update_personal_best", "mopso_deploy.mopso", "update_personal_best", "accepted"),
    ("mopso.archive_insert", "mopso_deploy.mopso", "ParetoArchive.insert", "accepted"),
    ("convergence.observe", "mopso_deploy.convergence", "ConvergenceMonitor.observe", None),
    ("convergence.relative_distances", "mopso_deploy.convergence", "relative_distances", "pairs"),
)


def _front_size(front):
    return int(np.shape(getattr(front, "values", front))[0])


class Tracer:
    """Context manager that installs the spans of ``TARGETS`` while active."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.stats: dict[str, LayerStats] = {}
        self.missing: list[str] = []
        self._stack: list[float] = []  # child time of each open span
        self._installed = []

    def wrap(self, layer, fn, counter=None):
        """``fn`` with a span of ``layer`` around every call."""
        stats = self.stats.setdefault(layer, LayerStats())
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                child = stack.pop()
                if stack:
                    stack[-1] += dt
                stats.calls += 1
                stats.self_s += dt - child
            if counter == "accepted":
                stats.accepted += bool(result)
            elif counter == "pairs":
                try:
                    stats.pairs += _front_size(args[0]) * _front_size(args[1])
                except (IndexError, TypeError):
                    stats.pairs_known = False
            elif counter == "objective":
                result = self.wrap("scenario.objective", result)
            return result

        traced.__wrapped__ = fn
        return traced

    def __enter__(self):
        self.missing = []
        for layer, module_name, path, counter in self.targets:
            *parents, name = path.split(".")
            try:
                owner = importlib.import_module(module_name)
                for parent in parents:
                    owner = getattr(owner, parent)
                raw = getattr(owner, name)
            except (ImportError, AttributeError):
                raw = None
            if not callable(raw):
                self.missing.append(f"{module_name}.{path}")
                continue
            self._installed.append((owner, name, vars(owner).get(name)))
            setattr(owner, name, self.wrap(layer, raw, counter))
        return self

    def __exit__(self, *exc):
        for owner, name, own in reversed(self._installed):
            if own is None:
                delattr(owner, name)  # it was inherited; uncover the base's
            else:
                setattr(owner, name, own)
        self._installed.clear()
        return False
