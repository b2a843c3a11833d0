import copy
import json
import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from mopso_deploy.cli import main
from mopso_deploy.convergence import FrontSnapshot
from mopso_deploy.runner import (
    ConfigError,
    c_ratio_report,
    default_anchors,
    experiment_from_dict,
    export_monte_carlo,
    export_run,
    interpolate_front,
    load_experiment,
    read_front_csv,
    run_monte_carlo,
    run_single,
    write_front_csv,
)
from mopso_deploy.scenario import ScenarioError, load_scenario

TINY_SCENARIO = {
    "deployment_region": {
        "x_min": 0,
        "x_max": 1000,
        "y_min": 0,
        "y_max": 1000,
        "unit": "m",
    },
    "regions": [
        {
            "bounds": {"x_min": 100, "x_max": 300, "y_min": 100, "y_max": 300,
                       "unit": "m"},
            "grid": {"nx": 2, "ny": 2},
        },
        {
            "bounds": {"x_min": 700, "x_max": 900, "y_min": 700, "y_max": 900,
                       "unit": "m"},
            "grid": {"nx": 2, "ny": 2},
        },
    ],
    "radar": {
        "powers_w": [1000.0, 1000.0],
        "gains": [{"value": 10.0, "unit": "dB"}, {"value": 10.0, "unit": "dB"}],
    },
    "min_separation_m": 10,
}


def tiny_experiment_doc(**overrides):
    doc = {
        "scenario": "tiny_scenario.json",
        "mopso": {
            "swarm_size": 10,
            "inertia": 0.4,
            "c1": 2.0,
            "c2": 2.0,
            "v_max": 20.0,
            "max_iterations": 30,
        },
        "convergence": {"step": 2, "threshold": 1e-4},
        "trials": 2,
        "base_seed": 7,
        "snapshot_iterations": [5, 10, 30],
        "output_dir": "out",
    }
    doc.update(overrides)
    return doc


@pytest.fixture
def config_dir(tmp_path):
    (tmp_path / "tiny_scenario.json").write_text(json.dumps(TINY_SCENARIO))
    return tmp_path


def write_experiment(config_dir, name="exp.json", **overrides):
    path = config_dir / name
    path.write_text(json.dumps(tiny_experiment_doc(**overrides)))
    return path


def tree(root):
    """Relative path -> bytes of every file under root."""
    return {str(p.relative_to(root)): p.read_bytes() for p in root.rglob("*")
            if p.is_file()}


class TestLoadExperiment:
    def test_round_trip_and_defaults(self, config_dir):
        cfg = load_experiment(write_experiment(config_dir))
        assert cfg.mopso.swarm_size == 10
        assert cfg.mopso.archive_capacity is None
        assert cfg.convergence.mode == "avg"
        assert cfg.convergence.cadence == "every_h"
        assert cfg.trials == 2
        assert cfg.snapshot_iterations == (5, 10, 30)
        assert cfg.halt_on_stop is True
        assert cfg.scenario.radar.gains[0] == pytest.approx(10.0)  # 10 dB

    def test_numbers_and_null_where_allowed(self, config_dir):
        # an integer is a number; relative_threshold and archive_capacity
        # take null
        doc = tiny_experiment_doc(output_dir="elsewhere")
        doc["mopso"].update(c1=2, v_max=20, archive_capacity=None)
        doc["convergence"]["relative_threshold"] = None
        path = config_dir / "numbers.json"
        path.write_text(json.dumps(doc))
        cfg = load_experiment(path)
        assert cfg.mopso.c1 == 2 and cfg.mopso.archive_capacity is None
        assert cfg.convergence.relative_threshold is None
        assert cfg.output_dir == "elsewhere"

    def test_unknown_top_level_key(self, config_dir):
        with pytest.raises(ConfigError, match="bogus"):
            load_experiment(write_experiment(config_dir, bogus=1))

    def test_unknown_mopso_key(self, config_dir):
        doc = tiny_experiment_doc()
        doc["mopso"]["warp_speed"] = 9
        with pytest.raises(ConfigError, match="warp_speed"):
            experiment_from_dict(doc, base_dir=str(config_dir))

    def test_missing_section(self, config_dir):
        doc = tiny_experiment_doc()
        del doc["convergence"]
        with pytest.raises(ConfigError, match="convergence"):
            experiment_from_dict(doc, base_dir=str(config_dir))

    def test_snapshot_beyond_cap(self, config_dir):
        with pytest.raises(ConfigError, match="snapshot"):
            load_experiment(
                write_experiment(config_dir, snapshot_iterations=[5, 999])
            )

    def test_missing_scenario_file(self, config_dir):
        with pytest.raises(ConfigError, match="scenario"):
            load_experiment(write_experiment(config_dir, scenario="absent.json"))

    def test_not_json(self, config_dir):
        path = config_dir / "broken.json"
        path.write_text("{")
        with pytest.raises(ConfigError, match="JSON"):
            load_experiment(path)

    def test_shipped_configs_load(self):
        import pathlib

        root = pathlib.Path(__file__).resolve().parents[1] / "configs"
        for name in ("default_experiment.json", "desk_experiment.json"):
            cfg = load_experiment(root / name)
            assert cfg.scenario.n_antennas == 8

    @pytest.mark.parametrize(
        "damage, message",
        [("missing", "not found"), ("broken", "not valid JSON"),
         ("binary", "not valid JSON")],
        ids=["missing", "broken", "binary"],
    )
    @pytest.mark.parametrize("which", ["experiment", "scenario"])
    def test_unreadable_file(self, config_dir, capsys, which, damage, message):
        experiment = write_experiment(config_dir)
        scenario = config_dir / "tiny_scenario.json"
        target, loader, error = {
            "experiment": (experiment, load_experiment, ConfigError),
            "scenario": (scenario, load_scenario, ScenarioError),
        }[which]
        if damage == "missing":
            target.unlink()
        else:
            target.write_bytes({"broken": b"{", "binary": b"\xff{}"}[damage])
        with pytest.raises(error, match=message):
            loader(target)
        assert main(["run", "--config", str(experiment)]) == 2
        assert json.loads(capsys.readouterr().err)["error"] == "config"

    def test_readme_example_loads(self):
        root = pathlib.Path(__file__).resolve().parents[1]
        readme = (root / "README.md").read_text(encoding="utf-8")
        section = readme.split("\n## Experiment config\n", 1)[1]
        block = section.split("```json\n", 1)[1].split("```", 1)[0]
        cfg = experiment_from_dict(json.loads(block), base_dir=str(root / "configs"))
        assert cfg.mopso.v_max == 150.0 and cfg.trials == 20
        assert cfg.scenario.n_antennas == 8


class TestRunSingle:
    def test_infinite_threshold_stops_at_two_h(self, config_dir):
        doc = tiny_experiment_doc()
        doc["convergence"]["threshold"] = math.inf
        cfg = experiment_from_dict(doc, base_dir=str(config_dir))
        result = run_single(cfg, seed=3)
        assert result.stop_iteration == 2 * cfg.convergence.step
        assert result.iterations_run == result.stop_iteration

    def test_zero_threshold_reaches_cap_if_moving(self, config_dir):
        cfg = experiment_from_dict(tiny_experiment_doc(), base_dir=str(config_dir))
        result = run_single(cfg, seed=3)
        assert result.iterations_run <= cfg.mopso.max_iterations
        assert result.final_front.values.shape[1] == 2
        assert set(result.snapshots) <= set(cfg.snapshot_iterations)

    def test_same_seed_is_deterministic(self, config_dir):
        cfg = experiment_from_dict(tiny_experiment_doc(), base_dir=str(config_dir))
        a = run_single(cfg, seed=11)
        b = run_single(cfg, seed=11)
        assert a.stop_iteration == b.stop_iteration
        np.testing.assert_array_equal(a.final_front.values, b.final_front.values)
        np.testing.assert_array_equal(a.final_front.positions, b.final_front.positions)

    def test_different_seeds_differ(self, config_dir):
        cfg = experiment_from_dict(tiny_experiment_doc(), base_dir=str(config_dir))
        a = run_single(cfg, seed=1)
        b = run_single(cfg, seed=2)
        assert a.final_front.values.shape != b.final_front.values.shape or not np.array_equal(
            a.final_front.values, b.final_front.values
        )

    def test_cap_without_stop(self, config_dir):
        # step 20 of 30 iterations: one aggregate (t=20), none to compare
        doc = tiny_experiment_doc()
        doc["convergence"]["step"] = 20
        cfg = experiment_from_dict(doc, base_dir=str(config_dir))
        result = run_single(cfg, seed=3)
        cap = cfg.mopso.max_iterations
        assert result.stop_iteration == result.iterations_run == cap
        assert result.stop_front is result.final_front

    def test_halt_on_stop_false_runs_to_cap(self, config_dir):
        doc = tiny_experiment_doc(halt_on_stop=False)
        doc["convergence"]["threshold"] = math.inf
        cfg = experiment_from_dict(doc, base_dir=str(config_dir))
        result = run_single(cfg, seed=5)
        assert result.stop_iteration == 2 * cfg.convergence.step
        assert result.iterations_run == cfg.mopso.max_iterations
        assert result.stop_front is not None

    def test_keep_all_fronts(self, config_dir):
        cfg = experiment_from_dict(tiny_experiment_doc(), base_dir=str(config_dir))
        result = run_single(cfg, seed=5, keep_all_fronts=True)
        assert len(result.all_fronts) == result.iterations_run
        assert result.all_fronts[0].iteration == 1

    def test_monte_carlo_seeds(self, config_dir):
        cfg = experiment_from_dict(tiny_experiment_doc(), base_dir=str(config_dir))
        results = run_monte_carlo(cfg)
        assert [r.seed for r in results] == [7, 8]
        solo = run_single(cfg, seed=8)
        np.testing.assert_array_equal(
            results[1].final_front.values, solo.final_front.values
        )

    @pytest.mark.parametrize("jobs, trials, workers", [(64, 2, 2), (2, 3, 2)])
    def test_monte_carlo_workers_capped_at_trials(
        self, config_dir, monkeypatch, jobs, trials, workers
    ):
        opened = []

        class InProcessPool:
            def __init__(self, max_workers):
                opened.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", InProcessPool)
        doc = tiny_experiment_doc(trials=trials)
        cfg = experiment_from_dict(doc, base_dir=str(config_dir))
        results = run_monte_carlo(cfg, jobs=jobs)
        assert opened == [workers]
        assert [r.seed for r in results] == [7 + i for i in range(trials)]


class TestCRatio:
    FRONT_EARLY = [(0.0, 0.0), (2.0, -2.0)]
    FRONT_FINAL = [(0.0, 2.0), (2.0, 0.0)]

    def test_interpolation_midpoint(self):
        assert interpolate_front(self.FRONT_FINAL, 1.0) == pytest.approx(1.0)

    def test_interpolation_exact_point(self):
        assert interpolate_front(self.FRONT_FINAL, 2.0) == pytest.approx(0.0)

    def test_outside_range_is_nan(self):
        assert math.isnan(interpolate_front(self.FRONT_FINAL, 3.0))

    def test_default_anchor_quantiles(self):
        front = [(0.0, 3.0), (1.0, 2.0), (2.0, 1.0), (4.0, 0.0)]
        assert default_anchors(front) == pytest.approx((0.75, 1.5, 2.5))

    def test_report_final_is_exactly_100(self):
        report = c_ratio_report({10: self.FRONT_EARLY, 30: self.FRONT_FINAL},
                                anchors=(1.0,))
        final_rows = [r for r in report.rows if r.iteration == 30]
        assert [r.c_percent for r in final_rows] == [100.0]

    def test_report_hand_value(self):
        # early front at f1=1 interpolates to -1; final to 1 -> c = -100 %
        report = c_ratio_report({10: self.FRONT_EARLY, 30: self.FRONT_FINAL},
                                anchors=(1.0,))
        early = next(r for r in report.rows if r.iteration == 10)
        assert early.value == pytest.approx(-1.0)
        assert early.c_percent == pytest.approx(-100.0)

    def test_three_objectives_rejected(self):
        with pytest.raises(ValueError, match="bi-objective"):
            c_ratio_report({1: [(1.0, 2.0, 3.0)]})


class TestExport:
    def test_front_csv_round_trip(self, tmp_path, rng):
        front = FrontSnapshot(
            iteration=7,
            values=rng.uniform(size=(6, 2)),
            positions=rng.uniform(0, 1000, size=(6, 4)),
        )
        path = tmp_path / "front_t7.csv"
        write_front_csv(path, front)
        header = path.read_text().splitlines()[0]
        assert header == "f1,f2,x1,y1,x2,y2"
        values, positions = read_front_csv(path)
        np.testing.assert_array_equal(values, front.values)
        np.testing.assert_array_equal(positions, front.positions)

    def test_export_run_files(self, config_dir, tmp_path):
        cfg = experiment_from_dict(tiny_experiment_doc(), base_dir=str(config_dir))
        result = run_single(cfg, seed=4)
        out = tmp_path / "run"
        export_run(result, cfg, str(out))
        names = {p.name for p in out.iterdir()}
        assert {"trace.csv", "summary.json", "c_ratio.csv"} <= names
        assert f"front_t{result.iterations_run}.csv" in names
        summary = json.loads((out / "summary.json").read_text())
        assert summary["seed"] == 4
        assert summary["stop_iteration"] == result.stop_iteration
        assert "wall_time_s" not in summary
        for line in (out / "trace.csv").read_text().splitlines()[1:]:
            t, mode, dist, z, k = line.split(",")
            assert mode in ("max", "min", "avg")
            assert int(t) % cfg.convergence.step == 0
            assert float(dist) >= 0 and int(z) >= 0 and int(k) >= 1

    def test_export_is_byte_stable(self, config_dir, tmp_path):
        cfg = experiment_from_dict(tiny_experiment_doc(), base_dir=str(config_dir))
        trees = []
        for name in ("a", "b"):
            out = tmp_path / name
            export_run(run_single(cfg, seed=4), cfg, str(out))
            trees.append(
                {p.name: p.read_bytes() for p in sorted(out.iterdir())}
            )
        assert trees[0] == trees[1]

    def test_timings_only_on_request(self, config_dir, tmp_path):
        cfg = experiment_from_dict(tiny_experiment_doc(), base_dir=str(config_dir))
        result = run_single(cfg, seed=4)
        out = tmp_path / "timed"
        export_run(result, cfg, str(out), include_timings=True)
        summary = json.loads((out / "summary.json").read_text())
        assert summary["wall_time_s"] > 0

    def test_export_monte_carlo_tree(self, config_dir, tmp_path):
        cfg = experiment_from_dict(tiny_experiment_doc(), base_dir=str(config_dir))
        results = run_monte_carlo(cfg)
        out = tmp_path / "mc"
        summary = export_monte_carlo(results, cfg, str(out))
        assert (out / "trial_0000" / "summary.json").exists()
        assert (out / "trial_0001" / "trace.csv").exists()
        assert (out / "mean_trace.csv").exists()
        assert summary["seeds"] == [7, 8]
        assert summary["stop_iteration"]["min"] <= summary["stop_iteration"]["max"]


class TestCli:
    def test_run_subcommand(self, config_dir, tmp_path, capsys):
        out = tmp_path / "cli_run"
        code = main(
            [
                "run",
                "--config", str(write_experiment(config_dir)),
                "--seed", "9",
                "--out", str(out),
            ]
        )
        assert code == 0
        assert "seed=9" in capsys.readouterr().out
        assert (out / "summary.json").exists()

    def test_mc_subcommand(self, config_dir, tmp_path, capsys):
        out = tmp_path / "cli_mc"
        code = main(
            [
                "mc",
                "--config", str(write_experiment(config_dir)),
                "--trials", "2",
                "--out", str(out),
            ]
        )
        assert code == 0
        assert (out / "trial_0001" / "c_ratio.csv").exists()

    def test_report_subcommand(self, config_dir, tmp_path, capsys):
        out = tmp_path / "cli_run2"
        main(["run", "--config", str(write_experiment(config_dir)),
              "--out", str(out)])
        (out / "c_ratio.csv").unlink()
        code = main(["report", "--results", str(out)])
        assert code == 0
        assert (out / "c_ratio.csv").exists()

    def test_mode_override_lands_in_summary(self, config_dir, tmp_path):
        out = tmp_path / "cli_mode"
        main(["run", "--config", str(write_experiment(config_dir)),
              "--out", str(out), "--mode", "max"])
        summary = json.loads((out / "summary.json").read_text())
        assert summary["config"]["convergence"]["mode"] == "max"

    @pytest.mark.parametrize(
        "flag, cadence", [("every-h", "every_h"), ("every-iter", "every_iteration")]
    )
    def test_cadence_override_lands_in_summary(
        self, config_dir, tmp_path, flag, cadence
    ):
        doc = tiny_experiment_doc()
        other = {"every_h": "every_iteration", "every_iteration": "every_h"}
        doc["convergence"]["cadence"] = other[cadence]
        path = config_dir / "cadence.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "cli_cadence"
        args = ["run", "--config", str(path), "--out", str(out), "--cadence", flag]
        assert main(args) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["config"]["convergence"]["cadence"] == cadence

    def test_config_error_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{}")
        code = main(["run", "--config", str(bad)])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "config"

    def test_missing_config_exit_2(self, tmp_path, capsys):
        code = main(["run", "--config", str(tmp_path / "none.json")])
        assert code == 2

    @pytest.mark.parametrize(
        "section, knob, value",
        [("mopso", "rng_seed", 0), ("mopso", "r_per_dimension", False),
         ("mopso", "leader_selection", "tournament"), (None, "anchors", [1.0])],
        ids=["rng_seed-0", "r_per_dimension-False", "leader_selection-tournament",
             "top_level-anchors"],
    )
    def test_removed_mopso_knob_exit_2(self, config_dir, capsys, section, knob, value):
        doc = tiny_experiment_doc()
        (doc[section] if section else doc)[knob] = value
        path = config_dir / "old.json"
        path.write_text(json.dumps(doc))
        assert main(["run", "--config", str(path)]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "config" and knob in err["message"]

    def test_non_numeric_config_value_exit_2(self, config_dir, capsys):
        code = main(["run", "--config", str(write_experiment(config_dir, trials="x"))])
        assert code == 2
        assert json.loads(capsys.readouterr().err)["error"] == "config"

    @pytest.mark.parametrize(
        "section, key, value",
        [(None, "halt_on_stop", "false"), ("mopso", "swarm_size", "30"),
         ("convergence", "threshold", "0.1"), ("mopso", "swarm_size", 30.5),
         ("mopso", "max_iterations", 30.0), ("mopso", "archive_capacity", 10.5),
         ("convergence", "step", 2.5), ("convergence", "normalized", "false"),
         (None, "trials", 2.5), (None, "base_seed", 7.5),
         (None, "snapshot_iterations", [5, 10.5]),
         ("convergence", "threshold", True), ("mopso", "c1", False),
         ("mopso", "inertia", True), ("mopso", "c2", "2.0"), ("mopso", "v_max", None),
         ("convergence", "relative_threshold", True),
         ("convergence", "relative_threshold", "0.001"), ("convergence", "mode", 1),
         (None, "output_dir", None), (None, "output_dir", 5),
         ("convergence", "threshold", math.nan),
         ("convergence", "relative_threshold", math.nan), ("mopso", "c1", math.nan),
         pytest.param("mopso", "c1", 10**400, id="mopso-c1-int-too-large"),
         pytest.param("mopso", "swarm_size", 10**30, id="mopso-swarm_size-above-int64")],
    )
    def test_wrong_typed_value_exit_2(self, config_dir, capsys, section, key, value):
        doc = tiny_experiment_doc()
        (doc[section] if section else doc)[key] = value
        path = config_dir / "typed.json"
        path.write_text(json.dumps(doc))
        assert main(["run", "--config", str(path)]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "config" and err["message"].startswith("invalid")
        assert "unknown" not in err["message"]

    @pytest.mark.parametrize(
        "path, value",
        [(("regions", 0, "grid", "nx"), 2.9), (("regions", 0, "grid", "ny"), "3"),
         (("regions", 0, "grid", "nx"), True), (("radar", "powers_w", 0), True),
         (("radar", "powers_w", 1), "1000"), (("deployment_region", "x_min"), "10"),
         (("regions", 1, "bounds", "y_max"), None), (("radar", "gains", 0, "value"), False),
         (("min_separation_m",), True), (("min_separation_m",), "10"),
         (("radar", "gains", 0, "value"), math.nan), (("min_separation_m",), math.nan),
         (("deployment_region", "x_max"), math.inf),
         (("min_separation_m",), 10**400), (("regions", 0, "grid", "nx"), 10**30)],
        ids=["grid-nx-2.9", "grid-ny-str", "grid-nx-true", "power-true", "power-str",
             "x_min-str", "y_max-null", "gain-false", "min_separation-true",
             "min_separation-str", "gain-nan", "min_separation-nan", "x_max-inf",
             "min_separation-int-too-large", "grid-nx-above-int64"],
    )
    def test_wrong_typed_scenario_value_exit_2(self, config_dir, capsys, path, value):
        doc = copy.deepcopy(TINY_SCENARIO)
        *parents, key = path
        owner = doc
        for parent in parents:
            owner = owner[parent]
        owner[key] = value
        (config_dir / "tiny_scenario.json").write_text(json.dumps(doc))
        assert main(["run", "--config", str(write_experiment(config_dir))]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "config" and err["message"].startswith("invalid 'scenario'")
        assert (key if isinstance(key, str) else parents[-1]) in err["message"]

    @pytest.mark.parametrize(
        "path, value, message",
        [(("radar", "powers_w", 1), -1.0,
          "transmit_powers[1] must be finite and > 0, got -1.0"),
         (("radar", "gains", 1), {"value": 0, "unit": "linear"},
          "gains[1] must be finite and > 0, got 0.0")],
        ids=["power-negative", "gain-zero"],
    )
    def test_out_of_range_radar_entry_exit_2(self, config_dir, capsys, path, value,
                                             message):
        doc = copy.deepcopy(TINY_SCENARIO)
        *parents, key = path
        owner = doc
        for parent in parents:
            owner = owner[parent]
        owner[key] = value
        (config_dir / "tiny_scenario.json").write_text(json.dumps(doc))
        assert main(["run", "--config", str(write_experiment(config_dir))]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "config" and message in err["message"]

    @pytest.mark.parametrize(
        "file, path, named",
        [("experiment", ("mopso", "v_max"), "v_max"),
         ("experiment", ("mopso", "inertia"), "inertia"),
         ("experiment", ("mopso", "c1"), "c1"), ("experiment", ("mopso", "c2"), "c2"),
         ("experiment", ("convergence", "relative_threshold"), "relative_threshold"),
         ("scenario", ("min_separation_m",), "min_separation"),
         ("scenario", ("radar", "powers_w", 1), "transmit_powers")],
        ids=["v_max", "inertia", "c1", "c2", "relative_threshold", "min_separation_m",
             "powers_w"],
    )
    def test_infinite_value_exit_2(self, config_dir, capsys, file, path, named):
        docs = {"experiment": tiny_experiment_doc(),
                "scenario": copy.deepcopy(TINY_SCENARIO)}
        *parents, key = path
        owner = docs[file]
        for parent in parents:
            owner = owner[parent]
        owner[key] = math.inf
        (config_dir / "tiny_scenario.json").write_text(json.dumps(docs["scenario"]))
        experiment = config_dir / "infinite.json"
        experiment.write_text(json.dumps(docs["experiment"]))
        assert main(["run", "--config", str(experiment)]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "config" and named in err["message"]

    def test_zero_trials_override_exit_2(self, config_dir, capsys):
        path = write_experiment(config_dir)
        assert main(["mc", "--config", str(path), "--trials", "0"]) == 2
        assert "trials" in json.loads(capsys.readouterr().err)["message"]

    @pytest.mark.parametrize(
        "overrides, args",
        [({"base_seed": -3}, []), ({}, ["--seed", "-1"])],
        ids=["file", "flag"],
    )
    def test_negative_seed_exit_2(self, config_dir, capsys, overrides, args):
        path = write_experiment(config_dir, **overrides)
        assert main(["run", "--config", str(path), *args]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "config" and "base_seed" in err["message"]

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_mc_jobs_below_one_exit_2(self, config_dir, monkeypatch, capsys, jobs):
        def no_trial(*args, **kwargs):
            raise AssertionError("no trial and no worker may start")

        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", no_trial)
        monkeypatch.setattr("mopso_deploy.runner.run_single", no_trial)
        path = write_experiment(config_dir)
        assert main(["mc", "--config", str(path), "--jobs", jobs]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "config" and "jobs" in err["message"]

    @pytest.mark.parametrize(
        "command, leftover", [("run", "front_t4.csv"), ("mc", "trial_0003")]
    )
    def test_reused_out_matches_fresh_out(self, config_dir, tmp_path, command, leftover):
        # A writes fronts, pooled fronts and trials that B does not; B has
        # three objectives, so it writes no c_ratio.csv either
        scenario = copy.deepcopy(TINY_SCENARIO)
        third = copy.deepcopy(scenario["regions"][0])
        third["bounds"].update(x_min=700, x_max=900)
        scenario["regions"].append(third)
        (config_dir / "tri_scenario.json").write_text(json.dumps(scenario))
        a = write_experiment(config_dir, "a.json", trials=4, halt_on_stop=False,
                             snapshot_iterations=[4, 8, 12, 20])
        b = write_experiment(config_dir, "b.json", scenario="tri_scenario.json")
        reused, fresh = tmp_path / "reused", tmp_path / "fresh"
        for out in (reused, fresh):
            out.mkdir()
            (out / "notes.txt").write_text("not an export\n")
        assert main([command, "--config", str(a), "--out", str(reused)]) == 0
        assert (reused / leftover).exists()
        for out in (reused, fresh):
            assert main([command, "--config", str(b), "--out", str(out)]) == 0
        assert tree(reused) == tree(fresh)
        assert (reused / "notes.txt").read_text() == "not an export\n"

    def test_unresolved_relative_threshold_exports_null(self, config_dir, tmp_path):
        # the cap (4) comes before the first aggregate (t = step = 5)
        doc = tiny_experiment_doc(snapshot_iterations=[4])
        doc["mopso"]["max_iterations"] = 4
        doc["convergence"] = {"step": 5, "relative_threshold": 0.001}
        path = config_dir / "short.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "short"
        assert main(["run", "--config", str(path), "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["effective_threshold"] is None
        assert summary["iterations_run"] == summary["stop_iteration"] == 4

    def test_internal_value_error_exit_1(self, config_dir, monkeypatch, capsys):
        def broken(cfg, seed):
            raise ValueError("internal bug")

        monkeypatch.setattr("mopso_deploy.cli.run_single", broken)
        code = main(["run", "--config", str(write_experiment(config_dir))])
        assert code == 1
        assert json.loads(capsys.readouterr().err)["error"] == "internal"

    def test_report_bad_anchors_exit_2(self, config_dir, tmp_path, capsys):
        out = tmp_path / "anchors"
        main(["run", "--config", str(write_experiment(config_dir)), "--out", str(out)])
        capsys.readouterr()
        assert main(["report", "--results", str(out), "--anchors", "abc"]) == 2
        assert json.loads(capsys.readouterr().err)["error"] == "config"

    @pytest.mark.parametrize(
        "content",
        ["f1,f2,x1,y1\n", "f1,f2,x1,y1\n1,2,3\n", "f1,f2,x1,y1\n1,2,x,4\n",
         "f1,f2,f3,x1,y1\n1,2,3,4,5\n"],
        ids=["header_only", "short_row", "non_numeric", "three_objectives"],
    )
    def test_report_bad_front_exit_2(self, tmp_path, capsys, content):
        (tmp_path / "front_t10.csv").write_text(content)
        assert main(["report", "--results", str(tmp_path)]) == 2
        assert json.loads(capsys.readouterr().err)["error"] == "config"

    def test_io_error_exit_3(self, config_dir, tmp_path, capsys):
        blocker = tmp_path / "blocked"
        blocker.write_text("file, not a directory")
        code = main(
            ["run", "--config", str(write_experiment(config_dir)),
             "--out", str(blocker)]
        )
        assert code == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "io"


def test_cli_import_leaves_the_process_pool_unloaded():
    # only mc --jobs > 1 uses the pool, and importing it costs every command
    # about 20 ms of startup
    code = "import sys, mopso_deploy.cli; print('concurrent.futures.process' in sys.modules)"
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"
