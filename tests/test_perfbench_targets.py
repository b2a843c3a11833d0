"""The benchmark's per-layer tracer patches functions by name; a renamed
layer function must fail here rather than silently drop its metrics, and a
traced run must complete with every layer counted. The exports must also
pass the checks the benchmark runs on every operation's tree."""

import ast
import functools
import importlib
import importlib.util
import json
import pathlib
import sys
from dataclasses import replace

import numpy as np
import pytest

from conftest import oracle_dominates
from mopso_deploy import mopso, runner
from mopso_deploy.scenario import joint_objective, make_bound, scenario_from_dict

ROOT = pathlib.Path(__file__).resolve().parents[1]
TRACER = ROOT / "perfbench" / "tracer.py"


def load_targets():
    """The literal TARGETS tuple of the tracer, read without importing it."""
    for node in ast.parse(TRACER.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["TARGETS"]:
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TARGETS in {TRACER}")


@pytest.mark.parametrize("layer, module, path, counter", load_targets())
def test_target_resolves_to_callable(layer, module, path, counter):
    owner = importlib.import_module(module)
    target = functools.reduce(getattr, path.split("."), owner)
    assert callable(target), f"{layer}: {module}.{path} is not callable"


def test_traced_run_counts_every_layer(monkeypatch):
    # the tracer takes bool() of what update_personal_best and
    # ParetoArchive.insert return, so a run under it also checks that both
    # still return a value bool() accepts
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracer)
    spec.loader.exec_module(tracer)
    cfg = runner.load_experiment(ROOT / "configs" / "default_experiment.json")
    iterations = 5
    cfg = replace(
        cfg, halt_on_stop=False, snapshot_iterations=(),
        mopso=replace(cfg.mopso, max_iterations=iterations),
    )
    init_swarm, init_inserts, state = runner.init_swarm, [], []

    def counted_init(*args):  # the tracer's inserts made while seeding the archive
        before = traced.stats["mopso.archive_insert"].calls
        state.extend(init_swarm(*args))
        init_inserts.append(traced.stats["mopso.archive_insert"].calls - before)
        return tuple(state)

    # each window's rows, then the rows of it that the bound screens out by
    # the rule of step, recomputed here with the plain-Python dominance
    update_position, windows, screens = mopso.update_position, [], []

    def recorded_window(swarm, rows, *args):
        windows.append(rows)
        return update_position(swarm, rows, *args)

    def screened_bound(scenario):
        bound = make_bound(scenario)

        def screened(x):
            u = bound(x)
            (swarm, archive), rows = state, windows[-1]
            members = archive.values().tolist()
            screens.append([
                all(np.isfinite(v)) and not oracle_dominates(v, best)
                and any(oracle_dominates(m, v) for m in members)
                for v, best in zip(u.tolist(), swarm.best_value[rows].tolist())
            ])
            return u

        return screened

    monkeypatch.setattr(runner, "init_swarm", counted_init)
    monkeypatch.setattr(runner, "make_bound", screened_bound)
    monkeypatch.setattr(mopso, "update_position", recorded_window)
    with tracer.Tracer() as traced:
        result = runner.run_single(cfg, 42)
    assert traced.missing == []
    assert result.iterations_run == iterations
    assert traced.stats["mopso.step"].calls == iterations
    # What the tracer sees of a step: its leader selection, velocity and
    # position updates, one of each per window, its one personal-best
    # update, and one archive insert per candidate evaluated exactly, which
    # decides admission and removal. The step's random block is drawn in
    # its own time.
    n = cfg.mopso.swarm_size
    assert traced.stats["mopso.update_velocity"].calls == len(windows) == len(screens)
    assert traced.stats["mopso.select_leader"].calls == len(windows)
    assert traced.stats["mopso.update_position"].calls == len(windows)
    assert traced.stats["mopso.update_personal_best"].calls == iterations
    # step screens each window by the bound, after one call per particle
    # to seed the swarm; it offers every exact evaluation to the archive once
    inserts = traced.stats["mopso.archive_insert"]
    assert init_inserts and 1 <= init_inserts[0] <= n
    assert traced.stats["scenario.objective"].calls - n == inserts.calls - init_inserts[0]
    # a window commits its rows up to where the next one starts; its
    # committed rows are either screened out or offered to the archive
    ends = [w.start or n for w in windows[1:]] + [n]
    screened_out = sum(sum(screen[: end - w.start])
                       for screen, w, end in zip(screens, windows, ends))
    assert inserts.calls + screened_out == iterations * n + init_inserts[0]
    assert 0 < screened_out and 0 < inserts.accepted < inserts.calls


def load_checks():
    spec = importlib.util.spec_from_file_location("perfbench_checks",
                                                  ROOT / "perfbench" / "checks.py")
    checks = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(checks)
    return checks


@pytest.mark.parametrize("kind", ["run-m2", "run-m3", "mc"])
def test_exports_pass_the_benchmark_checks(tmp_path, kind):
    cfg = runner.load_experiment(ROOT / "configs" / "desk_experiment.json")
    cfg = replace(cfg, trials=2, snapshot_iterations=(5, 10),
                  mopso=replace(cfg.mopso, swarm_size=10, max_iterations=15))
    if kind == "run-m3":
        doc = json.loads((ROOT / "configs" / "desk_scenario.json").read_text())
        doc["regions"].append({"bounds": {"x_min": 45, "x_max": 60, "y_min": 45,
                                          "y_max": 60, "unit": "km"},
                               "grid": {"nx": 4, "ny": 4}})
        cfg = replace(cfg, scenario=scenario_from_dict(doc))
    if kind == "mc":
        runner.export_monte_carlo(runner.run_monte_carlo(cfg), cfg, str(tmp_path))
        assert list(tmp_path.glob("trial_0001/front_t*.csv"))
        assert list(tmp_path.glob("pooled_front_t*.csv"))
    else:
        result = runner.run_single(cfg, 3)
        runner.export_run(result, cfg, str(tmp_path))
        assert result.final_front.values.shape[1] == (3 if kind == "run-m3" else 2)
    assert load_checks().check_export(str(tmp_path), cfg.scenario, joint_objective) == []
