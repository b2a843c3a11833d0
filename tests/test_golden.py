"""Golden export digests: a fixed set of CLI exports keeps its bytes.

``tests/golden/exports.json`` maps the relative path of every file the set
writes to its sha256, with the Python and numpy versions it was recorded
on. The test re-exports into a temporary directory and compares file by
file, so a failure names the file. The set:

* desk ``mc --seed 42`` with ``--jobs 1`` and with ``--jobs 2`` (both
  trees are compared with the one recorded set);
* the default config, ``run --seed 42`` capped at 60 iterations with
  ``halt_on_stop`` false;
* a 3-objective, 4x4-grid config with a 150-point archive, 60 iterations,
  ``--cadence every-iter``, normalized;
* ``report --anchors`` on the default run.

A change that declares a new export format or trajectory rewrites the
file, and lists the files whose digests changed and why, with

    PYTHONPATH=src python tests/test_golden.py --write
"""

import hashlib
import importlib.util
import json
import pathlib
import platform
import sys
import tempfile

import numpy as np
import pytest

from mopso_deploy.cli import main

ROOT = pathlib.Path(__file__).resolve().parents[1]
CONFIGS = ROOT / "configs"
GOLDEN = pathlib.Path(__file__).resolve().parent / "golden" / "exports.json"


def _checks():
    """``perfbench/checks.py``, loaded from its path."""
    spec = importlib.util.spec_from_file_location("perfbench_checks",
                                                  ROOT / "perfbench" / "checks.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def versions():
    return {"python": ".".join(platform.python_version_tuple()[:2]),
            "numpy": np.__version__}


def _write_json(path, doc):
    path.write_text(json.dumps(doc, indent=2), encoding="utf-8")
    return str(path)


def _experiments(work):
    """(default 60-iteration config, 3-objective config), written into ``work``."""
    scenario = json.loads((CONFIGS / "default_scenario.json").read_text())
    scenario["regions"].append(
        {"bounds": {"x_min": 45, "x_max": 60, "y_min": 45, "y_max": 60, "unit": "km"}}
    )
    for region in scenario["regions"]:
        region["grid"] = {"nx": 4, "ny": 4}
    default = json.loads((CONFIGS / "default_experiment.json").read_text())
    default.update(scenario=str(CONFIGS / "default_scenario.json"),
                   snapshot_iterations=[10, 50], halt_on_stop=False)
    default["mopso"]["max_iterations"] = 60
    m3 = {
        "scenario": _write_json(work / "m3_scenario.json", scenario),
        "mopso": {"swarm_size": 30, "inertia": 0.4, "c1": 2.0, "c2": 2.0,
                  "v_max": 150.0, "archive_capacity": 150, "max_iterations": 60},
        "convergence": {"step": 5, "threshold": 0.00025, "mode": "avg",
                        "normalized": True},
        "snapshot_iterations": [10, 50],
        "halt_on_stop": False,
    }
    return (_write_json(work / "default_60.json", default),
            _write_json(work / "m3_60.json", m3))


def export_set(work):
    """Run the set into ``work/exports``; returns {tree name: directory}."""
    work = pathlib.Path(work)
    out = work / "exports"
    default, m3 = _experiments(work)
    desk = str(CONFIGS / "desk_experiment.json")
    commands = {
        "desk_mc_jobs1": ["mc", "--config", desk, "--seed", "42", "--jobs", "1"],
        "desk_mc_jobs2": ["mc", "--config", desk, "--seed", "42", "--jobs", "2"],
        "default_run": ["run", "--config", default, "--seed", "42"],
        "m3_run": ["run", "--config", m3, "--seed", "42", "--cadence", "every-iter"],
    }
    for name, args in commands.items():
        assert main([*args, "--out", str(out / name)]) == 0, name
    report = out / "default_report"
    report.mkdir()
    assert main(["report", "--results", str(out / "default_run"),
                 "--anchors", "0.16,0.2,0.3", "--out", str(report / "c_ratio.csv")]) == 0
    return {name: out / name for name in (*commands, "default_report")}


def file_digests(directory, tokens):
    """{relative path: sha256} with ``tokens`` substituted as
    ``checks.digest_tree`` substitutes them."""
    out = {}
    for rel in _checks().tree_files(directory):
        data = (pathlib.Path(directory) / rel).read_bytes()
        for path, token in tokens.items():
            data = data.replace(path.encode(), token.encode())
        out[pathlib.PurePath(rel).as_posix()] = hashlib.sha256(data).hexdigest()
    return out


def record(work):
    """The golden document for a fresh export set under ``work``."""
    trees = export_set(work)
    tokens = {str(work): "<work>", str(ROOT): "<root>"}
    digests = {name: file_digests(path, tokens) for name, path in trees.items()}
    jobs2 = digests.pop("desk_mc_jobs2")
    digests["desk_mc"] = digests.pop("desk_mc_jobs1")
    return {"versions": versions(), "trees": digests}, jobs2


def test_exports_match_golden_digests(tmp_path):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    if golden["versions"] != versions():
        pytest.skip(f"digests recorded on Python {golden['versions']['python']} with "
                    f"numpy {golden['versions']['numpy']}; this is Python "
                    f"{versions()['python']} with numpy {versions()['numpy']}")
    got, jobs2 = record(tmp_path)
    assert jobs2 == got["trees"]["desk_mc"], "mc --jobs 2 differs from --jobs 1"
    for tree, want in golden["trees"].items():
        have = got["trees"][tree]
        assert sorted(have) == sorted(want), f"{tree}: file list differs"
        for rel, digest in want.items():
            assert have[rel] == digest, f"{tree}/{rel} changed bytes"


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(f"usage: {sys.argv[0]} --write  (rewrites {GOLDEN.name})")
    with tempfile.TemporaryDirectory() as work:
        doc, jobs2 = record(pathlib.Path(work).resolve())
    if jobs2 != doc["trees"]["desk_mc"]:
        sys.exit("mc --jobs 2 differs from --jobs 1; nothing written")
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {sum(map(len, doc['trees'].values()))} digests to {GOLDEN}")
