import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import CONFIGS, paper_scenario, reference_objective
from mopso_deploy.scenario import (
    InterferenceRegion,
    RadarParams,
    Rectangle,
    Scenario,
    ScenarioError,
    db_to_linear,
    discretize_region,
    joint_objective,
    load_scenario,
    make_bound,
    make_objective,
    power_density,
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
        x, y = cells[:, 0], cells[:, 1]
        assert ((bounds.x_min <= x) & (x <= bounds.x_max)).all()
        assert ((bounds.y_min <= y) & (y <= bounds.y_max)).all()


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

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_layout_rejected(self, bad):
        with pytest.raises(ScenarioError, match="finite"):
            power_density([[0, bad]], (1, 0), single_radar(), 0.1)


def region_minimum(layout, region, radar, min_separation):
    """The objective of a scenario whose one region is ``region``: the
    minimum power density over its cells."""
    scenario = Scenario(region.bounds, (region,), radar, min_separation)
    return joint_objective(layout, scenario)[0]


class TestRegionObjective:
    def test_single_cell_equals_power_density(self):
        region = InterferenceRegion(UNIT, 1, 1)
        radar = single_radar()
        assert region_minimum([[3, 3]], region, radar, 0.1) == pytest.approx(
            power_density([[3, 3]], (0.5, 0.5), radar, 0.1)
        )

    def test_symmetric_grid_ties(self):
        region = InterferenceRegion(UNIT, 2, 2)
        radar = single_radar()
        val = region_minimum([[0.5, 0.5]], region, radar, 0.01)
        densities = [
            power_density([[0.5, 0.5]], tuple(c), radar, 0.01) for c in region.cells
        ]
        assert densities == pytest.approx([val] * 4)

    def test_outside_antenna_hits_farthest_cell(self):
        region = InterferenceRegion(UNIT, 3, 3)
        radar = single_radar()
        antenna = np.array([[10.0, 10.0]])
        got = region_minimum(antenna, region, radar, 0.1)
        brute = min(
            power_density(antenna, tuple(c), radar, 0.1) for c in region.cells
        )
        assert got == brute
        farthest = max(region.cells, key=lambda c: math.dist(c, antenna[0]))
        assert got == power_density(antenna, tuple(farthest), radar, 0.1)

    def test_brute_force_equivalence_random(self, rng):
        region = InterferenceRegion(Rectangle(0, 100, 0, 50), 6, 5)
        radar = RadarParams(rng.uniform(1, 10, 4), rng.uniform(1, 5, 4))
        for _ in range(25):
            layout = rng.uniform(-50, 150, (4, 2))
            got = region_minimum(layout, region, radar, 2.0)
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
            regions=(InterferenceRegion(Rectangle(2, 4, 2, 4), 2, 2),),
            radar=single_radar(),
            min_separation=0.1,
        )
        layout = [[5.0, 5.0]]
        vec = joint_objective(layout, sc)
        assert vec.shape == (1,)
        assert vec[0] == min(
            power_density(layout, tuple(c), sc.radar, 0.1) for c in sc.regions[0].cells
        )

    def test_mirror_symmetry(self):
        # regions and layout symmetric about x = 5
        sc = Scenario(
            deployment_region=Rectangle(0, 10, 0, 10),
            regions=(
                InterferenceRegion(Rectangle(1, 3, 4, 6), 3, 3),
                InterferenceRegion(Rectangle(7, 9, 4, 6), 3, 3),
            ),
            radar=RadarParams(np.array([2.0, 2.0]), np.array([1.0, 1.0])),
            min_separation=0.1,
        )
        vec = joint_objective([[4.0, 5.0], [6.0, 5.0]], sc)
        assert vec[0] == pytest.approx(vec[1], rel=1e-12)

    def test_regions_evaluated_in_given_order(self):
        near = InterferenceRegion(Rectangle(1, 3, 4, 6), 3, 3)
        far = InterferenceRegion(Rectangle(7, 9, 1, 2), 2, 2)

        def objective(regions):
            sc = Scenario(Rectangle(0, 10, 0, 10), regions, single_radar(), 0.1)
            return joint_objective([[2.0, 5.0]], sc).tolist()

        forward = objective((near, far))
        assert forward[0] > forward[1]
        assert objective((far, near)) == forward[::-1]

    def test_antenna_permutation_invariance(self, rng):
        sc = paper_scenario(nx=4, ny=4)
        layout = rng.uniform(0, 70000, (8, 2))
        base = joint_objective(layout, sc)
        for _ in range(5):
            perm = rng.permutation(8)
            assert joint_objective(layout[perm], sc) == pytest.approx(
                base.tolist(), rel=1e-12
            )

    def test_power_scaling(self, rng):
        sc = paper_scenario(nx=4, ny=4)
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
        sc = paper_scenario(nx=2, ny=2)
        cell = sc.regions[0].cells[0]
        radar = single_radar(1000.0, 10.0)
        far = power_density([cell + np.array([5000.0, 0.0])], tuple(cell), radar, 100.0)
        near = power_density([cell + np.array([3000.0, 0.0])], tuple(cell), radar, 100.0)
        assert near > far

    def test_make_objective_matches_joint(self, rng):
        sc = paper_scenario(nx=5, ny=5)
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
            InterferenceRegion(
                Rectangle(2000.0 * i, 2000.0 * i + 1500.0, 0.0, 900.0), nx, ny
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
        objective = make_objective(paper_scenario(nx=5, ny=5))
        first = objective(rng.uniform(0, 70000, 16))
        kept = first.copy()
        second = objective(rng.uniform(0, 70000, 16))
        assert first.tobytes() == kept.tobytes()
        assert second is not first

    def test_closures_called_in_alternation_keep_their_own_scratch(self, rng):
        # each closure owns its buffers: interleaved calls of two closures of
        # one scenario and of a scenario with other shapes stay exact
        small = Scenario(
            Rectangle(0.0, 9000.0, 0.0, 9000.0),
            tuple(
                InterferenceRegion(Rectangle(1000.0 * i, 1000.0 * i + 800.0, 0.0, 600.0), 3, 2)
                for i in range(3)
            ),
            RadarParams(rng.uniform(1e3, 2e4, 3), rng.uniform(1.0, 1e4, 3)),
            min_separation=25.0,
        )
        big = paper_scenario(nx=6, ny=4)
        pairs = [(big, make_objective(big)), (small, make_objective(small)),
                 (big, make_objective(big))]
        for _ in range(20):
            for sc, objective in pairs:
                flat = rng.uniform(0.0, 70000.0, 2 * sc.n_antennas)
                got = objective(flat)
                assert got.tobytes() == reference_objective(sc, flat).tobytes()

    @pytest.mark.parametrize("nx", [5, 20])
    def test_odd_flat_layout_rejected(self, nx):
        # a flat list of odd length has no (J, 2) shape; it must not reach
        # numpy's reshape, whose ValueError is not a ScenarioError
        with pytest.raises(ScenarioError, match=r"\(J, 2\)"):
            joint_objective([1.0, 2.0, 3.0], paper_scenario(nx=nx, ny=nx))

    @pytest.mark.parametrize("nx", [5, 20])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_layout_rejected(self, rng, nx, bad):
        # NaN would come back as [nan nan] and +-inf as [0. 0.], a finite
        # value the archive would take
        layout = rng.uniform(0, 70000, (8, 2))
        layout[3, 1] = bad
        for flat in (layout, layout.ravel()):
            with pytest.raises(ScenarioError, match="finite"):
                joint_objective(flat, paper_scenario(nx=nx, ny=nx))

    def test_joint_objective_is_one_vector_on_a_bounded_grid(self, rng):
        sc = paper_scenario()
        layout = rng.uniform(0, 70000, (8, 2))
        got = joint_objective(layout, sc)
        assert got.shape == (2,)
        assert got.tobytes() == reference_objective(sc, layout.ravel()).tobytes()

    def test_values_positive_finite(self, rng):
        sc = paper_scenario(nx=5, ny=5)
        for _ in range(10):
            vec = joint_objective(rng.uniform(0, 70000, (8, 2)), sc)
            assert np.isfinite(vec).all() and (vec > 0).all()


def lone_objective(scenario, region, flat):
    """The reference objective of ``region`` alone: for a one-cell region,
    its lone column's J terms added pairwise by numpy."""
    return reference_objective(Scenario(
        scenario.deployment_region, (region,), scenario.radar, scenario.min_separation
    ), flat)[0]


def plain_objective(scenario, flat):
    """Per-cell oracle: each cell's J terms added one after another in
    Python, except a one-cell region's, which numpy adds pairwise from
    eight antennas on (as the fused kernel and ``reference_objective``)."""
    radar, floor = scenario.radar, scenario.min_separation ** 2
    coef = (radar.transmit_powers * radar.gains / (4.0 * math.pi)).tolist()
    pos = np.asarray(flat, dtype=float).reshape(-1, 2).tolist()
    out = []
    for region in scenario.regions:
        if region.n_cells == 1:
            out.append(lone_objective(scenario, region, flat))
            continue
        best = math.inf
        for cx, cy in region.cells.tolist():
            total = 0.0
            for c, (px, py) in zip(coef, pos):
                total += c / max((px - cx) * (px - cx) + (py - cy) * (py - cy), floor)
            best = min(best, total)
        out.append(best)
    return np.array(out)


# grids square or not, one line thick, one cell (whose four corners are one
# cell), with more x lines than y lines or fewer
GRIDS = [(20, 20), (16, 23), (21, 17), (24, 16), (40, 8), (8, 40), (80, 1), (1, 80),
         (1, 1), (3, 5), (10, 10), (4, 4), (19, 10)]


def corner_bound(scenario, flat):
    """Per region, the least of the four corner columns of a full per-cell
    (J, C) pass over its cells, the J terms of a column added in order. A
    one-cell region's lone column is its only corner; the objective adds it
    pairwise, and the bound, a closure of the same kernel, adds it the same
    way, so the bound of a one-cell region is its exact objective."""
    radar = scenario.radar
    coef = radar.transmit_powers * radar.gains / (4.0 * math.pi)
    floor = scenario.min_separation * scenario.min_separation
    pos = np.asarray(flat, dtype=float).reshape(-1, 2)
    out = []
    for region in scenario.regions:
        c, nx, ny = region.cells, region.nx, region.ny
        if len(c) == 1:
            out.append(lone_objective(scenario, region, flat))
            continue
        d2 = (pos[:, 0, None] - c[None, :, 0]) ** 2 + (pos[:, 1, None] - c[None, :, 1]) ** 2
        density = (coef[:, None] / np.maximum(d2, floor)).sum(axis=0)
        out.append(density[[0, nx - 1, (ny - 1) * nx, ny * nx - 1]].min())
    return np.array(out)


def random_case(seed, j, grids, batch):
    """A scenario with one region per (nx, ny) of ``grids`` and ``batch``
    flat layouts of ``j`` antennas, some inside a region, on its cell
    centres or corner cells, or within the floor distance of a cell."""
    rng = np.random.default_rng(seed)
    # regions apart in x and in y, so a line taken from the wrong
    # region's list is far from every cell of the right one
    regions = tuple(
        InterferenceRegion(Rectangle(3000.0 * i, 3000.0 * i + 2000.0,
                                     2500.0 * i, 2500.0 * i + 1700.0), nx, ny)
        for i, (nx, ny) in enumerate(grids)
    )
    sep = 60.0
    sc = Scenario(
        Rectangle(-1000.0, 3000.0 * len(grids), -1000.0, 2500.0 * len(grids) + 500.0),
        regions,
        RadarParams(rng.uniform(1e3, 2e4, j), rng.uniform(1.0, 1e4, j)),
        min_separation=sep,
    )
    layouts = rng.uniform(-1000.0, 3000.0 * len(grids), (batch, j, 2))
    layouts[..., 1] = rng.uniform(-1000.0, 2500.0 * len(grids) + 500.0, (batch, j))
    for row in layouts:
        region = regions[rng.integers(len(regions))]
        cells = region.cells[rng.integers(region.n_cells, size=j)]
        kind = rng.integers(5)
        if kind == 1:
            row[:] = cells
        elif kind == 2:
            row[:] = cells + rng.uniform(-sep, sep, (j, 2)) / 2.0
        elif kind == 3:
            row[0] = rng.uniform([region.bounds.x_min, region.bounds.y_min],
                                 [region.bounds.x_max, region.bounds.y_max])
        elif kind == 4:
            nx, ny = region.nx, region.ny
            corners = region.cells[[0, nx - 1, (ny - 1) * nx, ny * nx - 1]]
            row[: min(j, 4)] = corners[rng.integers(4, size=min(j, 4))]
    return sc, layouts.reshape(batch, -1)


class TestDensityKernel:
    """The objective, per layout and on a batch, against its oracles, and
    the corner-cell bound against its oracle and the objective, byte for
    byte."""

    @given(
        seed=st.integers(0, 2**32 - 1),
        j=st.sampled_from([1, 2, 3, 8, 9, 16]),
        grids=st.lists(st.sampled_from(GRIDS), min_size=1, max_size=3),
        batch=st.integers(1, 31),
    )
    @settings(max_examples=60, deadline=None)
    def test_rows_equal_the_oracles(self, seed, j, grids, batch):
        sc, flat = random_case(seed, j, grids, batch)
        objective = make_objective(sc)
        for f in flat:
            row = objective(f)
            assert row.shape == (len(grids),)
            assert row.tobytes() == reference_objective(sc, f).tobytes()
            assert row.tobytes() == plain_objective(sc, f).tobytes()

    @given(
        seed=st.integers(0, 2**32 - 1),
        j=st.sampled_from([1, 8, 9, 16]),
        grids=st.lists(st.sampled_from(GRIDS), min_size=1, max_size=3),
        batch=st.integers(1, 31),
    )
    @example(seed=0, j=9, grids=[(1, 1)], batch=1)
    @example(seed=1, j=16, grids=[(20, 20), (1, 1)], batch=7)
    @settings(max_examples=60, deadline=None)
    def test_batch_rows_equal_the_per_layout_calls(self, seed, j, grids, batch):
        # a cell's density has the same bits in a batch of any size as on
        # its own, a one-cell region's too, which the kernel adds pairwise
        sc, flat = random_case(seed, j, grids, batch)
        objective = make_objective(sc)
        got = objective(flat)
        assert got.shape == (batch, len(grids))
        for row, f in zip(got, flat):
            assert row.tobytes() == objective(f).tobytes()
            assert row.tobytes() == reference_objective(sc, f).tobytes()

    @given(
        seed=st.integers(0, 2**32 - 1),
        j=st.sampled_from([1, 2, 8, 9, 16]),
        grids=st.lists(st.sampled_from(GRIDS), min_size=1, max_size=3),
        batch=st.integers(1, 31),
    )
    @settings(max_examples=60, deadline=None)
    def test_bound_is_the_least_corner_density(self, seed, j, grids, batch):
        # every finite entry is a cell density of the full pass to the bit
        sc, flat = random_case(seed, j, grids, batch)
        got = make_bound(sc)(flat)
        assert got.shape == (batch, len(grids))
        for row, f in zip(got, flat):
            assert row.tobytes() == corner_bound(sc, f).tobytes()

    @given(
        seed=st.integers(0, 2**32 - 1),
        j=st.sampled_from([1, 8, 9, 16]),
        grids=st.lists(st.sampled_from(GRIDS), min_size=1, max_size=3),
        n=st.integers(1, 30),
        data=st.data(),
    )
    @settings(max_examples=40, deadline=None)
    def test_one_closure_serves_any_sequence_of_batch_sizes(self, seed, j, grids, n, data):
        # a step screens the last n, n - 1, ..., 1 layouts of its swarm with
        # one bound closure, each size on its own scratch; then sizes come
        # back in any order. Every row keeps the bits of its oracle
        sc, flat = random_case(seed, j, grids, n)
        bound, objective, single = make_bound(sc), make_objective(sc), make_objective(sc)
        want_bound = [corner_bound(sc, f).tobytes() for f in flat]
        want_objective = [single(f).tobytes() for f in flat]
        sizes = list(range(n, 0, -1)) + data.draw(st.lists(st.integers(1, n), max_size=12))
        for size in sizes:
            rows = slice(n - size, n)
            assert [r.tobytes() for r in bound(flat[rows])] == want_bound[rows]
            assert [r.tobytes() for r in objective(flat[rows])] == want_objective[rows]

    @pytest.mark.parametrize("grids", [[(16, 23), (40, 8), (1, 80)], [(21, 17), (20, 20)],
                                       [(1, 1), (10, 10)]])
    def test_bound_on_sixteen_antennas(self, grids):
        sc, flat = random_case(5, 16, grids, 40)
        got = make_bound(sc)(flat)
        assert np.array_equal(got, np.array([corner_bound(sc, f) for f in flat]))
        objective = make_objective(sc)
        assert (got >= np.array([objective(f) for f in flat])).all()

    @given(
        seed=st.integers(0, 2**32 - 1),
        j=st.sampled_from([1, 3, 8, 9, 16]),
        grids=st.lists(st.sampled_from(GRIDS), min_size=1, max_size=3),
        batch=st.integers(1, 31),
    )
    @settings(max_examples=60, deadline=None)
    def test_bound_is_never_below_the_objective(self, seed, j, grids, batch):
        sc, flat = random_case(seed, j, grids, batch)
        objective = make_objective(sc)
        assert (make_bound(sc)(flat) >= np.array([objective(f) for f in flat])).all()

    def test_paper_windows_equal_the_reference(self, rng):
        # recorded-like windows of the default scenario, every batch size of
        # a 30-particle swarm, some antennas inside the regions
        sc = paper_scenario()
        objective = make_objective(sc)
        for batch in range(1, 31):
            flat = rng.uniform(0, 70000, (batch, 16))
            flat[::3, :2] = sc.regions[batch % 2].cells[rng.integers(400)]
            for f in flat:
                assert objective(f).tobytes() == reference_objective(sc, f).tobytes()

    @pytest.mark.parametrize("nx, ny", [(20, 20), (16, 16), (15, 15), (10, 10), (4, 4),
                                        (80, 1), (1, 80), (75, 1), (1, 1)])
    def test_every_grid_is_bounded(self, rng, nx, ny):
        # no grid size goes unscreened: the bound is the corner oracle's,
        # finite, never below the objective, and equal to it on a one-cell
        # grid
        sc = paper_scenario(nx=nx, ny=ny)
        flat = rng.uniform(0, 70000, (12, 16))
        got = make_bound(sc)(flat)
        assert np.array_equal(got, np.array([corner_bound(sc, f) for f in flat]))
        assert np.isfinite(got).all()
        objective = make_objective(sc)
        exact = np.array([objective(f) for f in flat])
        assert (got >= exact).all()
        if nx * ny == 1:
            assert got.tobytes() == exact.tobytes()


class TestValidation:
    def test_degenerate_rectangle(self):
        with pytest.raises(ScenarioError):
            Rectangle(1.0, 1.0, 0.0, 2.0)

    def test_negative_gain(self):
        with pytest.raises(ScenarioError):
            RadarParams(np.array([1.0]), np.array([-1.0]))

    def test_zero_min_separation(self):
        region = InterferenceRegion(UNIT, 1, 1)
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
        with pytest.raises(ScenarioError, match="transmit_powers"):
            scenario_from_dict(doc)

    def test_no_regions_rejected(self):
        doc = self.base_doc()
        doc["regions"] = []
        with pytest.raises(ScenarioError, match="at least one interference region"):
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
        for name in ("default_scenario.json", "desk_scenario.json"):
            sc = load_scenario(CONFIGS / name)
            assert sc.n_antennas == 8 and len(sc.regions) == 2
        # the paper's geometry: a 70 km square, two 15 km regions on 20x20
        # grids, 8 antennas at 15 kW with 40 dB gain and a 100 m floor
        sc = load_scenario(CONFIGS / "default_scenario.json")
        assert sc.deployment_region == Rectangle(0.0, 70_000.0, 0.0, 70_000.0)
        assert [(r.bounds, r.nx, r.ny) for r in sc.regions] == [
            (Rectangle(10_000.0, 25_000.0, 40_000.0, 55_000.0), 20, 20),
            (Rectangle(45_000.0, 60_000.0, 10_000.0, 25_000.0), 20, 20),
        ]
        assert sc.radar.transmit_powers.tolist() == [15_000.0] * 8
        assert sc.radar.gains.tolist() == [1.0e4] * 8
        assert sc.min_separation == 100.0
