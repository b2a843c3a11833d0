import json
import math

import numpy as np
import pytest

from conftest import reference_objective
from mopso_deploy.scenario import (
    InterferenceRegion,
    RadarParams,
    Rectangle,
    Scenario,
    ScenarioError,
    db_to_linear,
    default_scenario,
    discretize_region,
    joint_objective,
    load_scenario,
    make_objective,
    power_density,
    region_objective,
    scenario_from_dict,
)

UNIT = Rectangle(0.0, 1.0, 0.0, 1.0)


def single_radar(power=4 * math.pi, gain=1.0):
    return RadarParams(np.array([power]), np.array([gain]))


class TestDiscretize:
    def test_single_cell(self):
        cells = discretize_region(UNIT, 1, 1)
        assert cells.tolist() == [[0.5, 0.5]]

    def test_two_by_one(self):
        cells = discretize_region(UNIT, 2, 1)
        assert cells.tolist() == [[0.25, 0.5], [0.75, 0.5]]

    def test_big_square_two_by_two(self):
        cells = discretize_region(Rectangle(0, 70000, 0, 70000), 2, 2)
        assert {tuple(c) for c in cells.tolist()} == {
            (17500.0, 17500.0),
            (52500.0, 17500.0),
            (17500.0, 52500.0),
            (52500.0, 52500.0),
        }

    def test_zero_count_rejected(self):
        with pytest.raises(ScenarioError):
            discretize_region(UNIT, 0, 3)

    def test_centers_inside_bounds(self):
        bounds = Rectangle(-3.0, 5.0, 2.0, 9.0)
        cells = discretize_region(bounds, 7, 4)
        assert cells.shape == (28, 2)
        assert bounds.contains(cells).all()


class TestPowerDensity:
    def test_constants_cancel(self):
        # P = 4*pi, G = 1, R = 1 => exactly 1 W/m^2
        assert power_density([[0, 0]], (1, 0), single_radar(), 0.1) == pytest.approx(1.0)

    def test_kilowatt_radar_at_ten_km(self):
        # 15 kW, 40 dB gain, 10 km range
        radar = single_radar(15_000.0, 1.0e4)
        got = power_density([[0, 0]], (10_000.0, 0.0), radar, 100.0)
        assert got == pytest.approx(0.11936620731892949, rel=1e-12)

    def test_additivity_over_antennas(self):
        radar2 = RadarParams(np.array([5.0, 5.0]), np.array([2.0, 2.0]))
        one = power_density([[0, 3]], (4, 0), single_radar(5.0, 2.0), 1.0)
        two = power_density([[0, 3], [0, -3]], (4, 0), radar2, 1.0)
        assert two == pytest.approx(2 * one, rel=1e-14)

    def test_min_separation_clamp(self):
        radar = single_radar(100.0, 1.0)
        near = power_density([[0, 0]], (1.0, 0.0), radar, 50.0)
        assert near == pytest.approx(100.0 / (4 * math.pi * 50.0**2), rel=1e-14)

    def test_mismatched_layout_rejected(self):
        with pytest.raises(ScenarioError):
            power_density([[0, 0], [1, 1]], (1, 0), single_radar(), 0.1)


class TestRegionObjective:
    def test_single_cell_equals_power_density(self):
        region = InterferenceRegion.from_grid(1, UNIT, 1, 1)
        radar = single_radar()
        assert region_objective([[3, 3]], region, radar, 0.1) == pytest.approx(
            power_density([[3, 3]], (0.5, 0.5), radar, 0.1)
        )

    def test_symmetric_grid_ties(self):
        region = InterferenceRegion.from_grid(1, UNIT, 2, 2)
        radar = single_radar()
        val = region_objective([[0.5, 0.5]], region, radar, 0.01)
        densities = [
            power_density([[0.5, 0.5]], tuple(c), radar, 0.01) for c in region.cells
        ]
        assert densities == pytest.approx([val] * 4)

    def test_outside_antenna_hits_farthest_cell(self):
        region = InterferenceRegion.from_grid(1, UNIT, 3, 3)
        radar = single_radar()
        antenna = np.array([[10.0, 10.0]])
        got = region_objective(antenna, region, radar, 0.1)
        brute = min(
            power_density(antenna, tuple(c), radar, 0.1) for c in region.cells
        )
        assert got == brute
        farthest = max(region.cells, key=lambda c: math.dist(c, antenna[0]))
        assert got == power_density(antenna, tuple(farthest), radar, 0.1)

    def test_brute_force_equivalence_random(self, rng):
        region = InterferenceRegion.from_grid(1, Rectangle(0, 100, 0, 50), 6, 5)
        radar = RadarParams(rng.uniform(1, 10, 4), rng.uniform(1, 5, 4))
        for _ in range(25):
            layout = rng.uniform(-50, 150, (4, 2))
            got = region_objective(layout, region, radar, 2.0)
            brute = min(
                sum(
                    p * g / (4 * math.pi * max(math.dist(a, c), 2.0) ** 2)
                    for p, g, a in zip(
                        radar.transmit_powers, radar.gains, layout
                    )
                )
                for c in region.cells
            )
            assert got == pytest.approx(brute, rel=1e-12)


class TestJointObjective:
    def test_single_region(self):
        sc = Scenario(
            deployment_region=Rectangle(0, 10, 0, 10),
            regions=(InterferenceRegion.from_grid(1, Rectangle(2, 4, 2, 4), 2, 2),),
            radar=single_radar(),
            min_separation=0.1,
        )
        layout = [[5.0, 5.0]]
        vec = joint_objective(layout, sc)
        assert vec.shape == (1,)
        assert vec[0] == region_objective(layout, sc.regions[0], sc.radar, 0.1)

    def test_mirror_symmetry(self):
        # regions and layout symmetric about x = 5
        sc = Scenario(
            deployment_region=Rectangle(0, 10, 0, 10),
            regions=(
                InterferenceRegion.from_grid(1, Rectangle(1, 3, 4, 6), 3, 3),
                InterferenceRegion.from_grid(2, Rectangle(7, 9, 4, 6), 3, 3),
            ),
            radar=RadarParams(np.array([2.0, 2.0]), np.array([1.0, 1.0])),
            min_separation=0.1,
        )
        vec = joint_objective([[4.0, 5.0], [6.0, 5.0]], sc)
        assert vec[0] == pytest.approx(vec[1], rel=1e-12)

    def test_antenna_permutation_invariance(self, rng):
        sc = default_scenario(nx=4, ny=4)
        layout = rng.uniform(0, 70000, (8, 2))
        base = joint_objective(layout, sc)
        for _ in range(5):
            perm = rng.permutation(8)
            assert joint_objective(layout[perm], sc) == pytest.approx(
                base.tolist(), rel=1e-12
            )

    def test_power_scaling(self, rng):
        sc = default_scenario(nx=4, ny=4)
        layout = rng.uniform(0, 70000, (8, 2))
        base = joint_objective(layout, sc)
        scaled = Scenario(
            deployment_region=sc.deployment_region,
            regions=sc.regions,
            radar=RadarParams(sc.radar.transmit_powers * 3.5, sc.radar.gains),
            min_separation=sc.min_separation,
        )
        assert joint_objective(layout, scaled) == pytest.approx(
            (3.5 * base).tolist(), rel=1e-12
        )

    def test_monotone_in_distance(self):
        sc = default_scenario(nx=2, ny=2)
        cell = sc.regions[0].cells[0]
        radar = single_radar(1000.0, 10.0)
        far = power_density([cell + np.array([5000.0, 0.0])], tuple(cell), radar, 100.0)
        near = power_density([cell + np.array([3000.0, 0.0])], tuple(cell), radar, 100.0)
        assert near > far

    def test_make_objective_matches_joint(self, rng):
        sc = default_scenario(nx=5, ny=5)
        objective = make_objective(sc)
        for _ in range(10):
            layout = rng.uniform(0, 70000, (8, 2))
            assert objective(layout.ravel()) == pytest.approx(
                joint_objective(layout, sc).tolist(), rel=1e-14
            )

    @pytest.mark.parametrize("j", [1, 3, 8])
    @pytest.mark.parametrize(
        "grids", [[(20, 20)], [(1, 1), (3, 5)], [(3, 5), (1, 1), (20, 20)]]
    )
    def test_make_objective_bytes_equal_per_region_reference(self, rng, j, grids):
        # unequal grids give reduceat segments of 1, 15 and 400 cells
        regions = tuple(
            InterferenceRegion.from_grid(
                i + 1, Rectangle(2000.0 * i, 2000.0 * i + 1500.0, 0.0, 900.0), nx, ny
            )
            for i, (nx, ny) in enumerate(grids)
        )
        sc = Scenario(
            Rectangle(-1000.0, 8000.0, -1000.0, 2000.0),
            regions,
            RadarParams(rng.uniform(1e3, 2e4, j), rng.uniform(1.0, 1e4, j)),
            min_separation=25.0,
        )
        objective = make_objective(sc)
        layouts = [rng.uniform(-1000.0, 8000.0, (j, 2)) for _ in range(50)]
        layouts[0][0] = regions[-1].cells[0]  # on a cell centre: the floor binds
        for layout in layouts:
            got = objective(layout.ravel())
            assert got.tobytes() == reference_objective(sc, layout.ravel()).tobytes()

    def test_result_not_overwritten_by_next_call(self, rng):
        objective = make_objective(default_scenario(nx=5, ny=5))
        first = objective(rng.uniform(0, 70000, 16))
        kept = first.copy()
        second = objective(rng.uniform(0, 70000, 16))
        assert first.tobytes() == kept.tobytes()
        assert second is not first

    def test_values_positive_finite(self, rng):
        sc = default_scenario(nx=5, ny=5)
        for _ in range(10):
            vec = joint_objective(rng.uniform(0, 70000, (8, 2)), sc)
            assert np.isfinite(vec).all() and (vec > 0).all()


class TestValidation:
    def test_degenerate_rectangle(self):
        with pytest.raises(ScenarioError):
            Rectangle(1.0, 1.0, 0.0, 2.0)

    def test_negative_gain(self):
        with pytest.raises(ScenarioError):
            RadarParams(np.array([1.0]), np.array([-1.0]))

    def test_region_index_gap(self):
        region = InterferenceRegion.from_grid(2, UNIT, 1, 1)
        with pytest.raises(ScenarioError, match="indices"):
            Scenario(Rectangle(0, 10, 0, 10), (region,), single_radar(), 0.1)

    def test_zero_min_separation(self):
        region = InterferenceRegion.from_grid(1, UNIT, 1, 1)
        with pytest.raises(ScenarioError, match="min_separation"):
            Scenario(Rectangle(0, 10, 0, 10), (region,), single_radar(), 0.0)


class TestScenarioFile:
    def base_doc(self):
        return {
            "deployment_region": {
                "x_min": 0,
                "x_max": 70,
                "y_min": 0,
                "y_max": 70,
                "unit": "km",
            },
            "regions": [
                {
                    "bounds": {
                        "x_min": 10,
                        "x_max": 20,
                        "y_min": 10,
                        "y_max": 20,
                        "unit": "km",
                    },
                    "grid": {"nx": 3, "ny": 3},
                }
            ],
            "radar": {
                "powers_w": [15000.0],
                "gains": [{"value": 40, "unit": "dB"}],
            },
            "min_separation_m": 100,
        }

    def test_load_round_trip(self, tmp_path):
        path = tmp_path / "sc.json"
        path.write_text(json.dumps(self.base_doc()))
        sc = load_scenario(path)
        assert sc.deployment_region.x_max == 70_000.0
        assert sc.regions[0].n_cells == 9
        assert sc.radar.gains[0] == pytest.approx(1.0e4)

    def test_db_conversion(self):
        assert db_to_linear(40.0) == pytest.approx(1.0e4)
        assert db_to_linear(0.0) == pytest.approx(1.0)

    def test_linear_gain_passthrough(self):
        doc = self.base_doc()
        doc["radar"]["gains"] = [{"value": 123.0, "unit": "linear"}]
        assert scenario_from_dict(doc).radar.gains[0] == 123.0

    def test_unknown_key_rejected(self):
        doc = self.base_doc()
        doc["extra"] = 1
        with pytest.raises(ScenarioError, match="extra"):
            scenario_from_dict(doc)

    def test_negative_power_names_key(self):
        doc = self.base_doc()
        doc["radar"]["powers_w"] = [-5.0]
        with pytest.raises(ScenarioError, match="powers_w"):
            scenario_from_dict(doc)

    def test_bad_gain_unit(self):
        doc = self.base_doc()
        doc["radar"]["gains"] = [{"value": 40, "unit": "dBm"}]
        with pytest.raises(ScenarioError, match="gains"):
            scenario_from_dict(doc)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ScenarioError, match="not found"):
            load_scenario(tmp_path / "nope.json")

    def test_shipped_configs_load(self):
        import pathlib

        root = pathlib.Path(__file__).resolve().parents[1] / "configs"
        for name in ("default_scenario.json", "desk_scenario.json"):
            sc = load_scenario(root / name)
            assert sc.n_antennas == 8 and sc.n_regions == 2
