import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    oracle_dominates,
    oracle_pareto_indices,
    reference_select_leader,
    reference_step,
)
from mopso_deploy import mopso
from mopso_deploy.mopso import (
    MopsoConfig,
    ParetoArchive,
    Swarm,
    crowding_distances,
    dominance,
    init_swarm,
    pareto_filter,
    select_leader,
    step,
    update_personal_best,
    update_position,
    update_velocity,
)

# objective values on a small integer grid, signed zero included
GRID = st.one_of(st.integers(-2, 3).map(float), st.just(-0.0))
# a finer grid: fewer ties, so more members are interior in every objective
FINE = st.integers(-40, 40).map(lambda k: k / 8)


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
        assert dominance(np.array([2.0, 3.0]), np.array([1.0, 3.0]))

    def test_incomparable_both_ways(self):
        assert not dominance(np.array([2.0, 3.0]), np.array([3.0, 2.0]))
        assert not dominance(np.array([3.0, 2.0]), np.array([2.0, 3.0]))

    def test_equal_vectors(self):
        assert not dominance(np.array([1.0, 1.0]), np.array([1.0, 1.0]))

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            dominance(np.array([1.0, 2.0]), np.array([1.0, 2.0, 3.0]))

    @given(
        st.lists(st.floats(-100, 100), min_size=2, max_size=5),
        st.lists(st.floats(-100, 100), min_size=2, max_size=5),
    )
    def test_matches_oracle(self, a, b):
        if len(a) != len(b):
            return
        assert dominance(np.array(a), np.array(b)) == oracle_dominates(a, b)

    @given(st.lists(st.floats(-100, 100), min_size=2, max_size=5))
    def test_irreflexive(self, a):
        assert not dominance(np.array(a), np.array(a))

    @pytest.mark.parametrize("m", [1, 2, 3, 5])
    def test_mask_matches_oracle_on_caller_shapes(self, rng, m):
        # the shapes of insert (M,)-(K, M), admits (K, M)-(M,),
        # update_personal_best (K, M)-(K, M) and pareto_filter/
        # relative_distances (K, 1, M)-(1, K', M); integer values force ties
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
            assert dominance(a[:9], b).tolist() == [
                oracle_dominates(x, y) for x, y in zip(a, b)
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


ROW = slice(0, 1)  # the window of a one-particle update


def draws(seed=0):
    """One particle's (r1, r2), as a (1, 2) window of draws."""
    return np.random.default_rng(seed).random((1, 2))


class TestVelocityPosition:
    CFG = MopsoConfig(swarm_size=2, v_max=4.0)

    def test_all_zero_coefficients(self):
        cfg = MopsoConfig(swarm_size=2, inertia=0.0, c1=0.0, c2=0.0, v_max=4.0)
        p = make_swarm([1.0, 2.0], velocity=[3.0, -1.0])
        v = update_velocity(p, ROW, p.position[ROW], draws(), cfg)
        assert v[0] == pytest.approx([0.0, 0.0])
        assert p.velocity[0].tolist() == [3.0, -1.0]  # the swarm is not written

    def test_pure_inertia_when_attractors_coincide(self):
        cfg = MopsoConfig(swarm_size=2, inertia=0.5, v_max=10.0)
        p = make_swarm([1.0, 2.0], velocity=[2.0, -4.0])
        v = update_velocity(p, ROW, p.position[ROW], draws(), cfg)
        assert v[0] == pytest.approx([1.0, -2.0])

    def test_clamp_at_boundary(self):
        cfg = MopsoConfig(swarm_size=2, inertia=0.4, c1=0.0, c2=0.0, v_max=4.0)
        p = make_swarm([0.0, 0.0], velocity=[10.0, 0.0])
        v = update_velocity(p, ROW, p.position[ROW], draws(), cfg)
        assert v[0] == pytest.approx([4.0, 0.0])

    def test_rows_use_their_own_draws(self):
        # r1 scales the pull to the personal best, r2 the pull to the leader
        cfg = MopsoConfig(swarm_size=2, inertia=0.0, c1=1.0, c2=1.0, v_max=10.0)
        p = make_swarm([[0.0, 0.0], [1.0, 1.0]], best=[[1.0, 0.0], [1.0, 1.0]])
        leaders = np.array([[0.0, 2.0], [1.0, 3.0]])
        r = np.array([[0.5, 0.25], [0.75, 0.5]])
        v = update_velocity(p, slice(0, 2), leaders, r, cfg)
        assert v.tolist() == [[0.5, 0.5], [0.0, 1.0]]

    def test_zero_velocity_keeps_position(self):
        p = make_swarm([1.0, 1.0])
        position = update_position(
            p, ROW, p.velocity[ROW].copy(), np.array([0.0, 0.0]), np.array([10.0, 10.0])
        )
        assert position[0] == pytest.approx([1.0, 1.0])

    def test_plain_addition(self):
        p = make_swarm([1.0, 1.0], velocity=[2.0, 3.0])
        position = update_position(
            p, ROW, p.velocity[ROW].copy(),
            np.array([-100.0, -100.0]), np.array([100.0, 100.0]),
        )
        assert position[0] == pytest.approx([3.0, 4.0])
        assert p.position[0].tolist() == [1.0, 1.0]  # the swarm is not written

    def test_clamp_zeroes_velocity_component(self):
        # row 1 is clamped; row 0 is another particle and must not move
        p = make_swarm(
            [[5.0, 5.0], [69999.0, 0.0]], velocity=[[1.0, 1.0], [4.0, 0.0]]
        )
        velocity = p.velocity[1:2].copy()
        position = update_position(
            p, slice(1, 2), velocity, np.array([0.0, 0.0]), np.array([70000.0, 70000.0])
        )
        assert position[0] == pytest.approx([70000.0, 0.0])
        assert velocity[0, 0] == 0.0
        assert p.position[0].tolist() == [5.0, 5.0]
        assert p.velocity[0].tolist() == [1.0, 1.0]


class TestPersonalBest:
    def test_dominating_value_replaces(self):
        p = make_swarm([5.0, 5.0], best=[0.0, 0.0], best_value=(2.0, 2.0))
        assert update_personal_best(p, ROW, np.array([[3.0, 3.0]])) == 1
        assert p.best_value[0] == pytest.approx([3.0, 3.0])
        assert p.best_position[0] == pytest.approx([5.0, 5.0])

    def test_non_dominated_kept(self):
        p = make_swarm([5.0, 5.0], best=[0.0, 0.0], best_value=(2.0, 2.0))
        assert update_personal_best(p, ROW, np.array([[3.0, 1.0]])) == 0
        assert p.best_value[0] == pytest.approx([2.0, 2.0])

    def test_equal_kept(self):
        p = make_swarm([5.0, 5.0], best=[0.0, 0.0], best_value=(2.0, 2.0))
        assert update_personal_best(p, ROW, np.array([[2.0, 2.0]])) == 0
        assert p.best_position[0] == pytest.approx([0.0, 0.0])

    def test_window_replaces_only_dominating_rows(self):
        p = make_swarm(
            [[1.0, 1.0], [2.0, 2.0], [3.0, 3.0], [4.0, 4.0]],
            best=[[0.0, 0.0]] * 4, best_value=(2.0, 2.0),
        )
        new = np.array([[3.0, 2.0], [1.0, 5.0], [2.0, 2.0]])
        assert update_personal_best(p, slice(1, 4), new) == 1
        assert p.best_value.tolist() == [[2.0, 2.0], [3.0, 2.0], [2.0, 2.0], [2.0, 2.0]]
        assert p.best_position.tolist() == [[0.0, 0.0], [2.0, 2.0], [0.0, 0.0], [0.0, 0.0]]


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

    def test_eviction_tie_without_rng_rejected(self):
        archive = ParetoArchive(capacity=3)
        for n, value in enumerate([(0.0, 3.0), (1.0, 2.0), (3.0, 0.0)]):
            archive.insert([float(n)], value)
        before = (archive.values(), archive.positions(), archive.crowding)
        # (1, 2) and (2, 1) both have crowding 4/3, the least of the four
        with pytest.raises(ValueError, match="rng"):
            archive.insert([3.0], (2.0, 1.0))
        for kept, now in zip(
            before, (archive.values(), archive.positions(), archive.crowding)
        ):
            assert kept.tobytes() == now.tobytes()

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
        with pytest.raises(ValueError, match="non-finite"):
            archive.admits(bad)  # even when a member dominates it (-inf)
        with pytest.raises(ValueError, match="inf|nan"):
            archive.insert([2.0], bad)
        for kept, now in zip(
            before, (archive.values(), archive.positions(), archive.crowding)
        ):
            assert kept.tobytes() == now.tobytes()
        with pytest.raises(ValueError):
            ParetoArchive().insert([2.0], bad)
        with pytest.raises(ValueError):
            ParetoArchive().admits(bad)

    def test_admits_is_the_insert_test(self, rng):
        # admits(v) is True exactly when insert(v) accepts; integer values
        # force ties and duplicates
        archive = ParetoArchive(capacity=5)
        assert archive.admits((0.0, 0.0))
        for n in range(200):
            value = rng.integers(0, 5, size=2).astype(float)
            expected = not any(oracle_dominates(v, value) for v in archive.values())
            assert archive.admits(value) == expected
            assert archive.insert([float(n)], value, rng=rng) == expected

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

    @given(
        st.lists(st.tuples(GRID, GRID), max_size=40),
        st.lists(st.tuples(GRID, GRID), min_size=1, max_size=8),
        st.sampled_from([None, 1, 2, 5]),
    )
    @settings(max_examples=300, deadline=None)
    def test_sorted_admission_matches_dominance_mask(self, points, probes, capacity):
        # two objectives take the bisect test on the f1-sorted view; a small
        # integer grid with -0.0 forces ties, duplicates and signed zeros
        archive = ParetoArchive(capacity=capacity)
        rng = np.random.default_rng(0)
        for n, point in enumerate(points):
            archive.insert([float(n)], point, rng=rng)
            vals = archive.values()
            by_f1 = sorted(vals.tolist(), key=lambda v: v[0])
            view = np.array([archive._f1, archive._f2]).T
            assert view.tobytes() == np.array(by_f1).tobytes()
            for probe in [point, *probes]:
                expected = not dominance(vals, np.array(probe)).any()
                assert archive.admits(probe) == expected

    @given(
        st.lists(st.tuples(FINE, FINE, FINE) | st.tuples(GRID, GRID, GRID), max_size=60),
        st.sampled_from([1, 2, 3]),
        st.sampled_from([1, 2, 3, 4, 12]),
        st.booleans(),
    )
    @settings(max_examples=300, deadline=None)
    def test_crowding_after_insert_is_a_fresh_pass(self, points, m, capacity, plane):
        # the crowding _add hands to _set is that of the survivors, bit for
        # bit. Points on the plane sum(f) = 0 never dominate each other, so
        # the archive stays full and evicts interior members; capacities 1
        # and 2 keep every member at +inf, so those evictions are ties.
        archive = ParetoArchive(capacity=capacity)
        rng = np.random.default_rng(0)
        for n, point in enumerate(points):
            value = point[:m]
            if plane and m > 1:
                value = (*point[: m - 1], -sum(point[: m - 1]))
            archive.insert([float(n)], value, rng=rng)
            vals = archive.values()
            assert archive.crowding.tobytes() == crowding_distances(vals).tobytes()


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

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 50])
    def test_scalar_draws_keep_size_two_stream(self, n):
        # two integers(0, n) draws consume the generator exactly as one
        # integers(0, n, size=2) draw, tie draws included
        archive = ParetoArchive()
        for k in range(n):
            archive.insert([float(k)], (float(k), float(n - k)))
        for seed in range(5):
            got, want = np.random.default_rng(seed), np.random.default_rng(seed)
            for _ in range(100):
                assert (
                    select_leader(archive, got).tobytes()
                    == reference_select_leader(archive, want).tobytes()
                )
                assert got.random() == want.random()
            assert got.bit_generator.state == want.bit_generator.state

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


def grid_objective(centers, scale):
    """Closeness to each center, rounded to an integer grid so that tied
    and duplicate objective vectors are common."""

    def objective(x):
        return np.round(-((np.asarray(x) - centers) ** 2).sum(axis=1) / scale)

    return objective


def assert_same_state(got, want):
    (swarm, archive, rng), (ref_swarm, ref_archive, ref_rng) = got, want
    for name in ("position", "velocity", "best_position", "best_value"):
        assert getattr(swarm, name).tobytes() == getattr(ref_swarm, name).tobytes(), name
    assert archive.values().tobytes() == ref_archive.values().tobytes()
    assert archive.positions().tobytes() == ref_archive.positions().tobytes()
    assert archive.crowding.tobytes() == ref_archive.crowding.tobytes()
    assert rng.bit_generator.state == ref_rng.bit_generator.state


PCG64_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645


def set_next_raw_word(rng, word, skip=0):
    """Set the PCG64 ``rng`` so that raw word number ``skip`` it draws (from
    0) is ``word``, with no 32-bit half buffered. A raw word is the XSL-RR
    output of the state after an LCG step: pick the state's high half, undo
    the rotation for the low half, then undo the step and ``skip`` more."""
    state = rng.bit_generator.state
    high = 0xDEADBEEF01234567  # its top 6 bits are the rotation
    rot = high >> 58
    xored = ((word << rot) | (word >> (64 - rot))) & (2**64 - 1)
    after = (high << 64) | (xored ^ high)
    inverse = pow(PCG64_MULTIPLIER, -1, 2**128)
    state["state"]["state"] = (after - state["state"]["inc"]) * inverse % 2**128
    state["has_uint32"], state["uinteger"] = 0, 0
    rng.bit_generator.state = state
    rng.bit_generator.advance(-skip)


class TestWindowedStep:
    LOWER = np.full(3, -5.0)
    UPPER = np.full(3, 5.0)

    @given(
        seed=st.integers(0, 2**32 - 1),
        swarm_size=st.integers(2, 12),
        m=st.sampled_from([1, 2, 3]),
        capacity=st.sampled_from([None, 1, 2, 5]),
        frozen=st.booleans(),
        v_max=st.sampled_from([0.5, 4.0]),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_per_particle_loop(self, seed, swarm_size, m, capacity, frozen, v_max):
        coeff = 0.0 if frozen else 2.0
        cfg = MopsoConfig(
            swarm_size=swarm_size, inertia=0.0 if frozen else 0.4, c1=coeff, c2=coeff,
            v_max=v_max, archive_capacity=capacity,
        )
        rng = np.random.default_rng(seed)
        objective = grid_objective(rng.uniform(-5, 5, (m, 3)), scale=8.0)
        swarm, archive = init_swarm(objective, self.LOWER, self.UPPER, cfg, rng)
        got = (swarm, archive, rng)
        want = copy.deepcopy(got)
        for _ in range(4):
            step(*got[:2], objective, self.LOWER, self.UPPER, cfg, got[2])
            reference_step(*want[:2], objective, self.LOWER, self.UPPER, cfg, want[2])
            assert_same_state(got, want)

    @given(
        seed=st.integers(0, 2**32 - 1),
        swarm_size=st.integers(2, 16),
        m=st.sampled_from([1, 2, 3]),
        capacity=st.sampled_from([1, 2, 3, 8]),
        scale=st.sampled_from([8.0, 60.0]),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_per_particle_loop_with_ties(self, seed, swarm_size, m, capacity, scale):
        # a coarse grid makes members tie in crowding, and capacities 1 and
        # 2 keep every member at +inf: most tournaments draw a tie-break
        # double, and most evictions draw from the generator, which moves
        # its buffered 32-bit half
        cfg = MopsoConfig(swarm_size=swarm_size, v_max=4.0, archive_capacity=capacity)
        rng = np.random.default_rng(seed)
        objective = grid_objective(rng.uniform(-5, 5, (m, 3)), scale=scale)
        swarm, archive = init_swarm(objective, self.LOWER, self.UPPER, cfg, rng)
        got = (swarm, archive, rng)
        want = copy.deepcopy(got)
        for _ in range(4):
            step(*got[:2], objective, self.LOWER, self.UPPER, cfg, got[2])
            reference_step(*want[:2], objective, self.LOWER, self.UPPER, cfg, want[2])
            assert_same_state(got, want)

    @pytest.mark.parametrize("skip", [0, 3], ids=["first_particle", "second_particle"])
    def test_lemire_rejection_falls_back_to_scalar_draws(self, monkeypatch, skip):
        # a leader index whose 32-bit draw is 0 is rejected by numpy's Lemire
        # method whenever the archive size n is not a power of two, so numpy
        # redraws; the generator is set to give that draw at word ``skip``:
        # the first particle's index word, or the second's when the first
        # has no crowding tie (index, r1 and r2 words before it)
        cfg = MopsoConfig(swarm_size=8, v_max=1.0)
        rng = np.random.default_rng(1)
        swarm, archive = init_swarm(sphere_objectives, self.LOWER, self.UPPER, cfg, rng)
        n = len(archive)
        assert (2**32 - n) % n > 0
        word = 0x9E3779B9 << 32  # low half 0: (0 * n) % 2**32 = 0 is rejected
        set_next_raw_word(rng, word, skip)
        assert copy.deepcopy(rng).bit_generator.random_raw(skip + 1)[-1] == word
        scalar = []

        def counted(archive, rng):
            scalar.append(len(archive))
            return select_leader(archive, rng)

        monkeypatch.setattr(mopso, "select_leader", counted)
        want = copy.deepcopy((swarm, archive, rng))
        step(swarm, archive, sphere_objectives, self.LOWER, self.UPPER, cfg, rng)
        reference_step(*want[:2], sphere_objectives, self.LOWER, self.UPPER, cfg, want[2])
        assert scalar == [n]
        assert_same_state((swarm, archive, rng), want)

    def test_needs_a_pcg64_generator(self):
        # the draws are numpy's transforms of PCG64 words; any other bit
        # generator is refused before anything moves
        cfg = MopsoConfig(swarm_size=4, v_max=1.0)
        swarm, archive = init_swarm(
            sphere_objectives, self.LOWER, self.UPPER, cfg, np.random.default_rng(0)
        )
        before = copy.deepcopy((swarm, archive))
        rng = np.random.Generator(np.random.Philox(0))
        with pytest.raises(TypeError, match="PCG64"):
            step(swarm, archive, sphere_objectives, self.LOWER, self.UPPER, cfg, rng)
        assert swarm.position.tobytes() == before[0].position.tobytes()
        assert archive.values().tobytes() == before[1].values().tobytes()

    def test_admits_once_per_candidate(self, monkeypatch):
        # step inserts what its own admits test passed, without a second test
        cfg = MopsoConfig(swarm_size=10, v_max=1.0, archive_capacity=4)
        rng = np.random.default_rng(2)
        swarm, archive = init_swarm(sphere_objectives, self.LOWER, self.UPPER, cfg, rng)
        evaluated, tested = [], []
        admits = ParetoArchive.admits

        def counted(self, value):
            tested.append(value)
            return admits(self, value)

        def objective(x):
            evaluated.append(x)
            return sphere_objectives(x)

        monkeypatch.setattr(ParetoArchive, "admits", counted)
        for _ in range(5):
            step(swarm, archive, objective, self.LOWER, self.UPPER, cfg, rng)
        assert len(tested) == len(evaluated) == 5 * cfg.swarm_size

    def test_dominated_non_finite_objective_raises(self):
        # the third particle's candidate has -inf in every objective: every
        # archive member dominates it, and it must still raise, not be
        # silently rejected
        cfg = MopsoConfig(swarm_size=6, v_max=1.0)
        rng = np.random.default_rng(1)
        swarm, archive = init_swarm(sphere_objectives, self.LOWER, self.UPPER, cfg, rng)
        bad = np.array([-np.inf, -np.inf])
        assert dominance(archive.values(), bad).all()
        left = []
        for stepper in (step, reference_step):
            calls = []

            def objective(x):
                calls.append(x)
                return bad if len(calls) == 3 else sphere_objectives(x)

            state = copy.deepcopy((swarm, archive, rng))
            with pytest.raises(ValueError, match="non-finite"):
                stepper(*state[:2], objective, self.LOWER, self.UPPER, cfg, state[2])
            assert len(calls) == 3
            left.append(state[0])
        # the two particles before it are fully updated, personal bests
        # included, as the per-particle loop leaves them; no personal best
        # after them has changed
        got, want = left
        for name in ("position", "velocity", "best_position", "best_value"):
            assert getattr(got, name)[:2].tobytes() == getattr(want, name)[:2].tobytes()
        for name in ("best_position", "best_value"):
            assert getattr(got, name)[2:].tobytes() == getattr(swarm, name)[2:].tobytes()
