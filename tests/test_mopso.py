import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import oracle_dominates, oracle_pareto_indices
from mopso_deploy.mopso import (
    MopsoConfig,
    ParetoArchive,
    Swarm,
    crowding_distances,
    dominance,
    dominates,
    init_swarm,
    pareto_filter,
    select_leader,
    step,
    update_personal_best,
    update_position,
    update_velocity,
)


def make_swarm(position, velocity=None, best=None, best_value=(1.0, 1.0)):
    """Swarm whose rows are the given particles (a single 1-D row allowed)."""

    def rows(x):
        return np.array(x, dtype=float, ndmin=2)

    position = rows(position)
    return Swarm(
        position=position.copy(),
        velocity=np.zeros_like(position) if velocity is None else rows(velocity),
        best_position=position.copy() if best is None else rows(best),
        best_value=np.repeat(rows(best_value), len(position), axis=0),
    )


class TestDominates:
    def test_strict_in_one(self):
        assert dominates((2, 3), (1, 3))

    def test_incomparable_both_ways(self):
        assert not dominates((2, 3), (3, 2))
        assert not dominates((3, 2), (2, 3))

    def test_equal_vectors(self):
        assert not dominates((1, 1), (1, 1))

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            dominates((1, 2), (1, 2, 3))

    @given(
        st.lists(st.floats(-100, 100), min_size=2, max_size=5),
        st.lists(st.floats(-100, 100), min_size=2, max_size=5),
    )
    def test_matches_oracle(self, a, b):
        if len(a) != len(b):
            return
        assert dominates(a, b) == oracle_dominates(a, b)

    @given(st.lists(st.floats(-100, 100), min_size=2, max_size=5))
    def test_irreflexive(self, a):
        assert not dominates(a, a)

    @pytest.mark.parametrize("m", [1, 2, 3, 5])
    def test_mask_matches_oracle_on_caller_shapes(self, rng, m):
        # the shapes of dominates/insert (M,)-(K, M), insert (K, M)-(M,) and
        # pareto_filter/relative_distances (K, 1, M)-(1, K', M); integer
        # values force ties
        for _ in range(20):
            a = rng.integers(0, 3, size=(12, m)).astype(float)
            b = rng.integers(0, 3, size=(9, m)).astype(float)
            point = b[0]
            assert dominance(point, a).tolist() == [
                oracle_dominates(point, row) for row in a
            ]
            assert dominance(a, point).tolist() == [
                oracle_dominates(row, point) for row in a
            ]
            assert dominance(a[:, None, :], b[None, :, :]).tolist() == [
                [oracle_dominates(x, y) for y in b] for x in a
            ]


class TestParetoFilter:
    def test_singleton(self):
        assert pareto_filter([(1, 2)]) == [0]

    def test_dominated_point_dropped(self):
        assert pareto_filter([(1, 2), (2, 1), (0, 0)]) == [0, 1]

    def test_duplicates_survive_together(self):
        assert pareto_filter([(1, 2), (1, 2), (0, 0)]) == [0, 1]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            pareto_filter(np.empty((0, 2)))

    def test_matches_oracle_random(self, rng):
        for n, m in [(200, 2), (150, 3), (100, 5), (500, 2)]:
            vals = rng.normal(size=(n, m))
            assert pareto_filter(vals) == oracle_pareto_indices(vals)

    def test_matches_oracle_discrete(self, rng):
        # small integer grids force many ties and duplicates
        for _ in range(20):
            vals = rng.integers(0, 4, size=(40, 2)).astype(float)
            assert pareto_filter(vals) == oracle_pareto_indices(vals)


class TestCrowding:
    def test_single_entry(self):
        assert crowding_distances([(3, 4)]) == [np.inf]

    def test_two_entries_both_infinite(self):
        assert crowding_distances([(0, 1), (1, 0)]) == pytest.approx(
            [np.inf, np.inf]
        )

    def test_hand_computed_middle(self):
        crowd = crowding_distances([(0, 2), (1, 1), (2, 0)])
        assert crowd[0] == np.inf and crowd[2] == np.inf
        assert crowd[1] == pytest.approx(2.0)

    def test_zero_range_objective_contributes_nothing(self):
        crowd = crowding_distances([(0, 5), (1, 5), (2, 5)])
        assert crowd[1] == pytest.approx(1.0)  # only objective 1 contributes

    def test_interior_values_finite_nonnegative(self, rng):
        vals = np.sort(rng.normal(size=(30, 1)), axis=0)
        vals = np.column_stack([vals[:, 0], -vals[:, 0]])
        crowd = crowding_distances(vals)
        assert np.isinf(crowd[0]) and np.isinf(crowd[-1])
        assert (crowd[1:-1] >= 0).all() and np.isfinite(crowd[1:-1]).all()


class TestVelocityPosition:
    CFG = MopsoConfig(swarm_size=2, v_max=4.0)

    def test_all_zero_coefficients(self):
        cfg = MopsoConfig(swarm_size=2, inertia=0.0, c1=0.0, c2=0.0, v_max=4.0)
        p = make_swarm([1.0, 2.0], velocity=[3.0, -1.0])
        v = update_velocity(p, 0, p.position[0], cfg, np.random.default_rng(0))
        assert v == pytest.approx([0.0, 0.0])

    def test_pure_inertia_when_attractors_coincide(self):
        cfg = MopsoConfig(swarm_size=2, inertia=0.5, v_max=10.0)
        p = make_swarm([1.0, 2.0], velocity=[2.0, -4.0])
        v = update_velocity(p, 0, p.position[0], cfg, np.random.default_rng(0))
        assert v == pytest.approx([1.0, -2.0])

    def test_clamp_at_boundary(self):
        cfg = MopsoConfig(swarm_size=2, inertia=0.4, c1=0.0, c2=0.0, v_max=4.0)
        p = make_swarm([0.0, 0.0], velocity=[10.0, 0.0])
        v = update_velocity(p, 0, p.position[0], cfg, np.random.default_rng(0))
        assert v == pytest.approx([4.0, 0.0])

    def test_zero_velocity_keeps_position(self):
        p = make_swarm([1.0, 1.0])
        update_position(p, 0, np.array([0.0, 0.0]), np.array([10.0, 10.0]))
        assert p.position[0] == pytest.approx([1.0, 1.0])

    def test_plain_addition(self):
        p = make_swarm([1.0, 1.0], velocity=[2.0, 3.0])
        update_position(p, 0, np.array([-100.0, -100.0]), np.array([100.0, 100.0]))
        assert p.position[0] == pytest.approx([3.0, 4.0])

    def test_clamp_zeroes_velocity_component(self):
        # row 1 is clamped; row 0 is another particle and must not move
        p = make_swarm(
            [[5.0, 5.0], [69999.0, 0.0]], velocity=[[1.0, 1.0], [4.0, 0.0]]
        )
        update_position(p, 1, np.array([0.0, 0.0]), np.array([70000.0, 70000.0]))
        assert p.position[1] == pytest.approx([70000.0, 0.0])
        assert p.velocity[1, 0] == 0.0
        assert p.position[0].tolist() == [5.0, 5.0]
        assert p.velocity[0].tolist() == [1.0, 1.0]


class TestPersonalBest:
    def test_dominating_value_replaces(self):
        p = make_swarm([5.0, 5.0], best=[0.0, 0.0], best_value=(2.0, 2.0))
        assert update_personal_best(p, 0, (3.0, 3.0))
        assert p.best_value[0] == pytest.approx([3.0, 3.0])
        assert p.best_position[0] == pytest.approx([5.0, 5.0])

    def test_non_dominated_kept(self):
        p = make_swarm([5.0, 5.0], best=[0.0, 0.0], best_value=(2.0, 2.0))
        assert not update_personal_best(p, 0, (3.0, 1.0))
        assert p.best_value[0] == pytest.approx([2.0, 2.0])

    def test_equal_kept(self):
        p = make_swarm([5.0, 5.0], best=[0.0, 0.0], best_value=(2.0, 2.0))
        assert not update_personal_best(p, 0, (2.0, 2.0))
        assert p.best_position[0] == pytest.approx([0.0, 0.0])


class TestArchive:
    def test_dominating_candidate_replaces(self):
        archive = ParetoArchive()
        archive.insert([0.0], (1.0, 1.0))
        archive.insert([1.0], (5.0, 5.0))
        assert archive.values().tolist() == [[5.0, 5.0]]

    def test_dominated_candidate_rejected(self):
        archive = ParetoArchive()
        archive.insert([0.0], (5.0, 5.0))
        assert not archive.insert([1.0], (1.0, 1.0))
        assert archive.values().tolist() == [[5.0, 5.0]]

    def test_capacity_evicts_least_crowded(self, rng):
        archive = ParetoArchive(capacity=2)
        archive.insert([0.0], (0.0, 2.0))
        archive.insert([1.0], (2.0, 0.0))
        archive.insert([2.0], (1.0, 1.0), rng=rng)
        got = sorted(map(tuple, archive.values().tolist()))
        assert got == [(0.0, 2.0), (2.0, 0.0)]

    def test_mutual_non_domination_random(self, rng):
        archive = ParetoArchive()
        for _ in range(300):
            archive.insert(rng.uniform(size=2), rng.uniform(size=2), rng=rng)
            vals = archive.values()
            assert len(pareto_filter(vals)) == vals.shape[0] or all(
                not oracle_dominates(a, b)
                for a in vals
                for b in vals
                if a is not b
            )

    def test_crowding_refreshed_after_insert(self):
        archive = ParetoArchive()
        archive.insert([0.0], (0.0, 2.0))
        archive.insert([1.0], (2.0, 0.0))
        archive.insert([2.0], (1.0, 1.0))
        crowd = dict(zip(map(tuple, archive.values().tolist()), archive.crowding))
        assert crowd[(1.0, 1.0)] == pytest.approx(2.0)
        assert crowd[(0.0, 2.0)] == np.inf

    @pytest.mark.parametrize(
        "bad", [(np.nan, 0.5), (np.inf, 0.0), (0.5, -np.inf)], ids=["nan", "+inf", "-inf"]
    )
    def test_non_finite_candidate_rejected(self, bad):
        archive = ParetoArchive()
        archive.insert([0.0], (1.0, 1.0))
        archive.insert([1.0], (0.0, 2.0))
        before = (archive.values(), archive.positions(), archive.crowding)
        with pytest.raises(ValueError, match="inf|nan"):
            archive.insert([2.0], bad)
        for kept, now in zip(
            before, (archive.values(), archive.positions(), archive.crowding)
        ):
            assert kept.tobytes() == now.tobytes()
        with pytest.raises(ValueError):
            ParetoArchive().insert([2.0], bad)

    @given(
        st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)), max_size=40),
        st.sampled_from([None, 1, 2, 5]),
    )
    @settings(max_examples=200, deadline=None)
    def test_invariants_under_random_inserts(self, points, capacity):
        # a small integer grid forces tied and duplicate values
        archive = ParetoArchive(capacity=capacity)
        rng = np.random.default_rng(0)
        value_of = {}  # inserted position -> its value; positions are unique
        for n, point in enumerate(points):
            position = (float(n), -float(n))
            value_of[position] = tuple(map(float, point))
            archive.insert(position, point, rng=rng)
            vals = archive.values()
            assert not any(oracle_dominates(a, b) for a in vals for b in vals)
            assert capacity is None or len(archive) <= capacity
            assert np.array_equal(archive.crowding, crowding_distances(vals))
            for value, position in zip(vals.tolist(), archive.positions().tolist()):
                assert value_of[tuple(position)] == tuple(value)


class TestLeaderSelection:
    def test_single_entry_always_returned(self, rng):
        archive = ParetoArchive()
        archive.insert([7.0], (1.0, 2.0))
        for _ in range(5):
            assert select_leader(archive, rng).tolist() == [7.0]

    def test_empty_archive_raises(self, rng):
        with pytest.raises(RuntimeError):
            select_leader(ParetoArchive(), rng)

    def test_infinite_crowding_wins_three_quarters(self):
        # 2 entries, crowding {inf, 0.1}: the inf entry wins whenever drawn,
        # i.e. with probability 1 - (1/2)^2 = 3/4
        archive = ParetoArchive()
        archive.insert([0.0], (0.0, 3.0))
        archive.insert([1.0], (2.0, 1.0))
        archive.insert([2.0], (3.0, 0.0))
        # middle entry has finite crowding; extremes inf
        rng = np.random.default_rng(7)
        n = 20_000
        wins = sum(
            select_leader(archive, rng).tolist() != [1.0] for _ in range(n)
        )
        p_extreme = 1 - (1 / 3) ** 2  # either extreme appears in the pair
        assert wins / n == pytest.approx(p_extreme, abs=0.01)

    def test_uniform_when_crowding_ties(self):
        archive = ParetoArchive()
        archive.insert([0.0], (0.0, 1.0))
        archive.insert([1.0], (1.0, 0.0))  # both extremes -> crowding inf
        rng = np.random.default_rng(11)
        n = 20_000
        first = sum(select_leader(archive, rng).tolist() == [0.0] for _ in range(n))
        # chi-square with 1 dof at alpha = 0.001 -> |first - n/2| < 3.29*sqrt(n)/2
        assert abs(first - n / 2) < 3.29 * np.sqrt(n) / 2


def sphere_objectives(x):
    # maximize closeness to two different corners
    x = np.asarray(x)
    return np.array(
        [-np.sum((x - 1.0) ** 2), -np.sum((x + 1.0) ** 2)]
    )


class TestStep:
    LOWER = np.full(4, -5.0)
    UPPER = np.full(4, 5.0)

    def run(self, cfg, seed, iterations):
        rng = np.random.default_rng(seed)
        swarm, archive = init_swarm(
            sphere_objectives, self.LOWER, self.UPPER, cfg, rng
        )
        history = [archive.values()]
        for _ in range(iterations):
            step(swarm, archive, sphere_objectives, self.LOWER, self.UPPER, cfg, rng)
            history.append(archive.values())
        return swarm, archive, history

    def test_frozen_swarm_keeps_front_content(self):
        cfg = MopsoConfig(swarm_size=10, inertia=0.0, c1=0.0, c2=0.0, v_max=1.0)
        rng = np.random.default_rng(3)
        swarm, archive = init_swarm(
            sphere_objectives, self.LOWER, self.UPPER, cfg, rng
        )
        before = {tuple(v) for v in archive.values().tolist()}
        positions = swarm.position.copy()
        step(swarm, archive, sphere_objectives, self.LOWER, self.UPPER, cfg, rng)
        after = {tuple(v) for v in archive.values().tolist()}
        assert after == before
        assert swarm.position.ravel() == pytest.approx(positions.ravel())

    def test_same_seed_identical_trajectory(self):
        cfg = MopsoConfig(swarm_size=12, v_max=1.0)
        _, archive_a, hist_a = self.run(cfg, seed=42, iterations=20)
        _, archive_b, hist_b = self.run(cfg, seed=42, iterations=20)
        assert archive_a.values().tobytes() == archive_b.values().tobytes()
        for a, b in zip(hist_a, hist_b):
            assert a.tobytes() == b.tobytes()

    def test_velocity_and_box_invariants(self):
        cfg = MopsoConfig(swarm_size=15, v_max=0.7)
        swarm, _, _ = self.run(cfg, seed=9, iterations=30)
        assert (np.abs(swarm.velocity) <= 0.7 + 1e-12).all()
        assert (swarm.position >= self.LOWER).all()
        assert (swarm.position <= self.UPPER).all()

    def test_front_never_regresses(self):
        cfg = MopsoConfig(swarm_size=15, v_max=1.0)
        _, _, history = self.run(cfg, seed=5, iterations=40)
        for t in range(len(history)):
            for t2 in range(t + 1, len(history)):
                for newer in history[t2]:
                    assert not any(
                        oracle_dominates(older, newer) for older in history[t]
                    )
