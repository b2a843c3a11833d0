"""The benchmark's per-layer tracer patches functions by name; a renamed
layer function must fail here rather than silently drop its metrics, and a
traced run must complete with every layer counted."""

import ast
import functools
import importlib
import importlib.util
import pathlib
import sys
from dataclasses import replace

import pytest

from mopso_deploy import runner

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
    with tracer.Tracer() as traced:
        result = runner.run_single(cfg, 42)
    assert traced.missing == []
    assert result.iterations_run == iterations
    calls = traced.stats["scenario.objective"].calls
    assert calls == (iterations + 1) * cfg.mopso.swarm_size
    assert traced.stats["mopso.step"].calls == iterations
    # What the tracer still sees of a step: its velocity and position
    # updates, one of each per window, and its one personal-best update.
    # Its leader draws, admission tests and inserts (``_RawDraws.window``,
    # ``ParetoArchive.admits`` and ``._add``) are not tracer targets, so
    # they count as the step's own time; ``select_leader`` runs only after
    # a Lemire rejection and ``ParetoArchive.insert`` only in init_swarm.
    windows = traced.stats["mopso.update_velocity"].calls
    assert windows >= iterations
    assert traced.stats["mopso.update_position"].calls == windows
    assert traced.stats["mopso.update_personal_best"].calls == iterations
