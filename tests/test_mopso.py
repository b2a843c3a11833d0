import copy
import pickle

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    grid_scenario,
    oracle_dominates,
    oracle_pareto_indices,
    reference_init,
    reference_step,
)
from mopso_deploy import mopso
from mopso_deploy.convergence import FrontSnapshot
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
from mopso_deploy.scenario import make_bound, make_objective

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
        # the shapes of insert (M,)-(K, M), its converse (K, M)-(M,),
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
        before = (archive.values(), archive.positions(), np.array(archive.crowding))
        # (1, 2) and (2, 1) both have crowding 4/3, the least of the four
        with pytest.raises(ValueError, match="rng"):
            archive.insert([3.0], (2.0, 1.0))
        for kept, now in zip(
            before, (archive.values(), archive.positions(), np.array(archive.crowding))
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
        before = (archive.values(), archive.positions(), np.array(archive.crowding))
        with pytest.raises(ValueError, match="non-finite"):
            # even when a member dominates it (-inf)
            copy.deepcopy(archive).insert([2.0], bad)
        with pytest.raises(ValueError, match="inf|nan"):
            archive.insert([2.0], bad)
        for kept, now in zip(
            before, (archive.values(), archive.positions(), np.array(archive.crowding))
        ):
            assert kept.tobytes() == now.tobytes()
        with pytest.raises(ValueError, match="non-finite"):
            ParetoArchive().insert([2.0], bad)

    def test_insert_accepts_iff_no_member_dominates(self, rng):
        # insert(v) accepts exactly when no member dominates v, on a copy as
        # on the archive itself; integer values force ties and duplicates
        archive = ParetoArchive(capacity=5)
        assert copy.deepcopy(archive).insert([0.0], (0.0, 0.0))
        for n in range(200):
            value = rng.integers(0, 5, size=2).astype(float)
            expected = not any(oracle_dominates(v, value) for v in archive.values())
            probe = copy.deepcopy((archive, rng))
            assert probe[0].insert([float(n)], value, rng=probe[1]) == expected
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
                trial, tie_rng = copy.deepcopy(archive), np.random.default_rng(1)
                assert trial.insert([-1.0], probe, rng=tie_rng) == expected

    @given(
        st.lists(st.tuples(GRID, GRID, GRID, GRID), max_size=40),
        st.lists(st.tuples(GRID, GRID, GRID, GRID), min_size=1, max_size=8),
        st.sampled_from([1, 3, 4]),
    )
    @settings(max_examples=200, deadline=None)
    def test_kept_mask_matches_dominance_mask(self, points, probes, m):
        # objectives other than two keep the members that the admission
        # test's own comparisons leave undominated: after an accepted insert
        # into an unbounded archive, the members are exactly those
        # ~dominance(value, members) keeps, in order, then the value. A small
        # integer grid with -0.0 forces ties, duplicates and signed zeros
        archive = ParetoArchive()
        for n, point in enumerate(points):
            archive.insert([float(n)], point[:m])
            vals, positions = archive.values(), archive.positions()
            for probe in [point, *probes]:
                value = np.array(probe[:m], dtype=float)
                trial = copy.deepcopy(archive)
                if not trial.insert([-1.0], value):
                    assert dominance(vals, value).any()
                    assert trial.values().tobytes() == vals.tobytes()
                    continue
                kept = ~dominance(value, vals)
                want = np.concatenate([vals[kept], value[None]])
                assert trial.values().tobytes() == want.tobytes()
                assert trial.positions().tolist() == [*positions[kept].tolist(), [-1.0]]

    @given(
        st.lists(st.tuples(GRID, GRID, GRID), max_size=40),
        st.lists(st.tuples(GRID | st.sampled_from([np.inf, -np.inf, np.nan]),
                           GRID, GRID), max_size=8),
        st.sampled_from([2, 3]),
        st.sampled_from([None, 1, 2, 5]),
    )
    @settings(max_examples=300, deadline=None)
    def test_dominated_rows_match_dominance_mask(self, points, probes, m, capacity):
        # the batched rejection query, after every insert, on probes that
        # repeat each member (duplicates), tie it in all objectives but one,
        # or hold a non-finite value; a small integer grid with -0.0 forces
        # more ties
        archive = ParetoArchive(capacity=capacity)
        rng = np.random.default_rng(0)
        for n, point in enumerate(points):
            archive.insert([float(n)], point[:m], rng=rng)
            members = archive.values()
            cand = np.array([p[:m] for p in probes] + members.tolist(), dtype=float)
            unit = np.eye(m)[n % m]  # ties each member in m - 1 objectives
            cand = np.concatenate([cand.reshape(-1, m), members + unit, members - unit])
            want = dominance(members[None], cand[:, None]).any(axis=1)
            assert archive.dominated(cand).tolist() == want.tolist()

    def test_empty_archive_dominates_nothing(self):
        assert ParetoArchive().dominated(np.zeros((3, 2))).tolist() == [False] * 3

    def test_reads_are_read_only_and_outlive_mutations(self, rng):
        # values() and positions() hand out the archive's own arrays, which
        # nobody can write into; a snapshot taken from them keeps its bytes
        # through later admissions, capacity-2 evictions and removals, and a
        # leader is a fresh array, not a view of the archive
        archive = ParetoArchive(capacity=2)
        for n, value in enumerate([(0.0, 3.0), (3.0, 0.0)]):
            archive.insert([float(n), -float(n)], value)
        for array in (archive.values(), archive.positions()):
            assert not array.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                array[0, 0] = 9.0
        snapshot = FrontSnapshot(0, archive.values(), archive.positions())
        kept = (snapshot.values.tobytes(), snapshot.positions.tobytes())
        for n, value in enumerate([(1.0, 2.0), (2.0, 1.0), (4.0, 4.0), (5.0, 3.0)], 2):
            assert archive.insert([float(n), -float(n)], value, rng=rng)
        assert archive.values().tolist() == [[4.0, 4.0], [5.0, 3.0]]
        assert (snapshot.values.tobytes(), snapshot.positions.tobytes()) == kept
        leaders = select_leader(archive, [[0.0, 0.0, 0.0], [0.9, 0.9, 0.0]])
        assert leaders.flags.writeable
        assert not np.shares_memory(leaders, archive.positions())

    @pytest.mark.parametrize("m", [2, 3])
    @pytest.mark.parametrize("how", ["deepcopy", "pickle"])
    def test_copies_stay_read_only(self, rng, m, how):
        # numpy's copy and unpickle hand back writeable arrays; the copy's
        # members must stay as read-only as the original's, and equal them
        archive = ParetoArchive(capacity=5)
        for point in np.round(rng.normal(size=(40, m)), 1):
            archive.insert(-point, point, rng=rng)
        if how == "deepcopy":
            clone = copy.deepcopy(archive)
        else:
            clone = pickle.loads(pickle.dumps(archive))
        for array in (clone.values(), clone.positions()):
            assert not array.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                array[0, 0] = 9.0
        assert clone.values().tobytes() == archive.values().tobytes()
        assert clone.positions().tobytes() == archive.positions().tobytes()
        assert clone.crowding == archive.crowding
        assert (clone._f1, clone._f2) == (archive._f1, archive._f2)
        assert not copy.deepcopy(ParetoArchive()).values().flags.writeable

    @given(
        st.lists(st.tuples(FINE, FINE, FINE) | st.tuples(GRID, GRID, GRID), max_size=60),
        st.sampled_from([1, 2, 3]),
        st.sampled_from([1, 2, 3, 4, 12]),
        st.booleans(),
    )
    @settings(max_examples=300, deadline=None)
    def test_crowding_after_insert_is_a_fresh_pass(self, points, m, capacity, plane):
        # the crowding _set computes is that of the survivors, bit for bit,
        # after an eviction too. Points on the plane sum(f) = 0 never
        # dominate each other, so the archive stays full and evicts interior
        # members; capacities 1 and 2 keep every member at +inf, so those
        # evictions are ties.
        archive = ParetoArchive(capacity=capacity)
        rng = np.random.default_rng(0)
        for n, point in enumerate(points):
            value = point[:m]
            if plane and m > 1:
                value = (*point[: m - 1], -sum(point[: m - 1]))
            archive.insert([float(n)], value, rng=rng)
            vals = archive.values()
            assert np.array(archive.crowding).tobytes() == crowding_distances(vals).tobytes()


class TestLeaderSelection:
    def test_single_entry_always_returned(self, rng):
        archive = ParetoArchive()
        archive.insert([7.0], (1.0, 2.0))
        assert select_leader(archive, rng.random((5, 3)).tolist()).tolist() == [[7.0]] * 5

    def test_empty_archive_raises(self, rng):
        with pytest.raises(RuntimeError):
            select_leader(ParetoArchive(), rng.random((1, 3)).tolist())

    @staticmethod
    def line_archive(n):
        """n members on the line f1 + f2 = n - 1, member k at position [k]:
        the two ends have infinite crowding, every interior member the same
        finite one."""
        archive = ParetoArchive()
        for k in range(n):
            archive.insert([float(k)], (float(k), float(n - 1 - k)))
        return archive

    def test_rows_map_as_documented(self):
        # members int(u * n); the larger crowding wins; a tie goes to the
        # first iff u_tie < 0.5
        archive = self.line_archive(4)
        rows = [[0.0, 0.3, 0.9], [0.3, 0.99, 0.1], [0.0, 0.99, 0.3],
                [0.0, 0.99, 0.7], [0.3, 0.6, 0.49], [0.3, 0.6, 0.5]]
        assert select_leader(archive, rows)[:, 0].tolist() == [0, 3, 0, 3, 1, 2]

    def test_infinite_crowding_wins_three_quarters(self):
        # crowding {inf, c, c, inf}: an end member wins whenever one is
        # drawn, i.e. with probability 1 - (2/4)^2 = 3/4
        archive = self.line_archive(4)
        n = 20_000
        rows = np.random.default_rng(7).random((n, 3)).tolist()
        ends = np.isin(select_leader(archive, rows)[:, 0], [0.0, 3.0])
        assert ends.mean() == pytest.approx(0.75, abs=0.01)

    def test_uniform_when_crowding_ties(self):
        archive = self.line_archive(2)  # both ends -> crowding inf
        n = 20_000
        rows = np.random.default_rng(11).random((n, 3)).tolist()
        first = int((select_leader(archive, rows)[:, 0] == 0.0).sum())
        # chi-square with 1 dof at alpha = 0.001 -> |first - n/2| < 3.29*sqrt(n)/2
        assert abs(first - n / 2) < 3.29 * np.sqrt(n) / 2

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 1000, 999_999, 10**6])
    def test_indices_stay_in_range(self, n):
        # u in [0, 1): the smallest and the largest double below 1 pick the
        # first and the last member, never member n
        top = 1 - 2.0**-53
        archive = ParetoArchive()
        f1 = np.arange(n, dtype=float)
        archive._set(np.column_stack([f1, f1[::-1]]), f1[:, None])
        rows = [[0.0, 0.0, 0.0], [top, top, 0.0], [top, 0.0, 0.9]]
        assert select_leader(archive, rows)[:, 0].tolist() == [0, n - 1, 0]
        if n == 10**6:  # and so for every size up to it
            sizes = np.arange(1, n + 1)
            assert (np.floor(top * sizes) == sizes - 1).all()


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
            step(swarm, archive, sphere_objectives, self.LOWER, self.UPPER, cfg, rng,
                 infinite_bound(2))
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
        step(swarm, archive, sphere_objectives, self.LOWER, self.UPPER, cfg, rng,
             infinite_bound(2))
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
        # no front holds a point that some earlier front dominates; one
        # broadcast per front, written here rather than through dominance
        cfg = MopsoConfig(swarm_size=15, v_max=1.0)
        _, _, history = self.run(cfg, seed=5, iterations=40)
        for t in range(1, len(history)):
            older = np.concatenate(history[:t])[:, None, :]
            newer = history[t][None, :, :]
            assert not ((older >= newer).all(-1) & (older > newer).any(-1)).any()


def grid_objective(centers, scale):
    """Closeness to each center, rounded to an integer grid so that tied
    and duplicate objective vectors are common."""

    def objective(x):
        return np.round(-((np.asarray(x) - centers) ** 2).sum(axis=1) / scale)

    return objective


def rowwise(objective):
    """``objective`` over the rows of a batch."""
    return lambda x: np.array([objective(row) for row in x])


def infinite_bound(m):
    """A bound over m objectives that screens out no row."""
    return lambda x: np.full((len(x), m), np.inf)


# every kind of grid run_single screens windows on: the default 20 x 20,
# desk's 10 x 10, front-m3's three 4 x 4 regions, and a one-cell region
# (whose bound is its exact value) beside a 20 x 20 one
STEP_SCENARIOS = {
    "default": ("default_scenario.json", [(20, 20)] * 2),
    "desk": ("desk_scenario.json", [(10, 10)] * 2),
    "front-m3": ("default_scenario.json", [(4, 4)] * 3),
    "one-cell": ("default_scenario.json", [(1, 1), (20, 20)]),
}


def assert_same_state(got, want):
    (swarm, archive, rng), (ref_swarm, ref_archive, ref_rng) = got, want
    for name in ("position", "velocity", "best_position", "best_value"):
        assert getattr(swarm, name).tobytes() == getattr(ref_swarm, name).tobytes(), name
    assert archive.values().tobytes() == ref_archive.values().tobytes()
    assert archive.positions().tobytes() == ref_archive.positions().tobytes()
    assert archive.crowding == ref_archive.crowding
    np.testing.assert_equal(rng.bit_generator.state, ref_rng.bit_generator.state)


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
            step(*got[:2], objective, self.LOWER, self.UPPER, cfg, got[2], infinite_bound(m))
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
        # 2 keep every member at +inf: most tournaments are decided by
        # u_tie, and most evictions draw a choice from the generator after
        # the block
        cfg = MopsoConfig(swarm_size=swarm_size, v_max=4.0, archive_capacity=capacity)
        rng = np.random.default_rng(seed)
        objective = grid_objective(rng.uniform(-5, 5, (m, 3)), scale=scale)
        swarm, archive = init_swarm(objective, self.LOWER, self.UPPER, cfg, rng)
        got = (swarm, archive, rng)
        want = copy.deepcopy(got)
        for _ in range(4):
            step(*got[:2], objective, self.LOWER, self.UPPER, cfg, got[2], infinite_bound(m))
            reference_step(*want[:2], objective, self.LOWER, self.UPPER, cfg, want[2])
            assert_same_state(got, want)

    def test_any_generator(self):
        # init_swarm and step ask their generator only for random blocks and
        # eviction-tie choices, so any bit generator gives the per-particle
        # loop's bytes; capacity 2 keeps every member at +inf, so ties and
        # evictions abound
        cfg = MopsoConfig(swarm_size=8, v_max=1.0, archive_capacity=2)
        rng = np.random.Generator(np.random.Philox(0))
        swarm, archive = init_swarm(sphere_objectives, self.LOWER, self.UPPER, cfg, rng)
        got = (swarm, archive, rng)
        want = copy.deepcopy(got)
        for _ in range(4):
            step(*got[:2], sphere_objectives, self.LOWER, self.UPPER, cfg, got[2],
                 infinite_bound(2))
            reference_step(*want[:2], sphere_objectives, self.LOWER, self.UPPER, cfg, want[2])
            assert_same_state(got, want)

    @pytest.mark.parametrize("screened", [False, True], ids=["plain", "screened"])
    def test_insert_once_per_candidate(self, monkeypatch, screened):
        # step offers every evaluated candidate to the archive once, through
        # insert, which decides admission and removal in the same call; the
        # tight bound screens most of them out, and evaluates none of those
        cfg = MopsoConfig(swarm_size=10, v_max=1.0, archive_capacity=4)
        rng = np.random.default_rng(2)
        swarm, archive = init_swarm(sphere_objectives, self.LOWER, self.UPPER, cfg, rng)
        evaluated, tested = [], []
        insert = ParetoArchive.insert

        def counted(self, position, value, rng=None):
            tested.append(value)
            return insert(self, position, value, rng)

        def objective(x):
            evaluated.append(x)
            return sphere_objectives(x)

        bound = rowwise(sphere_objectives) if screened else infinite_bound(2)
        monkeypatch.setattr(ParetoArchive, "insert", counted)
        for _ in range(5):
            step(swarm, archive, objective, self.LOWER, self.UPPER, cfg, rng, bound)
        assert len(tested) == len(evaluated)
        if screened:
            assert 0 < len(evaluated) < 5 * cfg.swarm_size
        else:
            assert len(evaluated) == 5 * cfg.swarm_size

    @given(
        seed=st.integers(0, 2**32 - 1),
        swarm_size=st.integers(2, 16),
        m=st.sampled_from([1, 2, 3]),
        capacity=st.sampled_from([None, 1, 2, 6]),
        screened=st.booleans(),
        stalled=st.booleans(),
    )
    @example(seed=0, swarm_size=6, m=2, capacity=None, screened=False, stalled=True)
    @settings(max_examples=150, deadline=None)
    def test_one_window_per_admission(self, seed, swarm_size, m, capacity, screened, stalled):
        # after each admission a step moves every particle left in one
        # window, so it takes one window plus one per admission at a particle
        # before the last. The per-particle loop offers particle i to the
        # archive as its i-th insert, which places each admission. A stalled
        # objective gives every moved particle a value each member dominates:
        # nothing is admitted, and each step takes a single window
        cfg = MopsoConfig(swarm_size=swarm_size, v_max=4.0, archive_capacity=capacity)
        rng = np.random.default_rng(seed)
        objective = grid_objective(rng.uniform(-5, 5, (m, 3)), scale=8.0)
        swarm, archive = init_swarm(objective, self.LOWER, self.UPPER, cfg, rng)
        if stalled:  # below every member in each objective
            floor = swarm.best_value.min(axis=0) - 1.0

            def objective(x):
                return floor.copy()

        bound = rowwise(objective) if screened else infinite_bound(m)
        got = (swarm, archive, rng)
        want = copy.deepcopy(got)
        insert, admitted = want[1].insert, []

        def counted(*args, **kwargs):
            admitted.append(insert(*args, **kwargs))
            return admitted[-1]

        want[1].insert = counted
        update_position, windows = mopso.update_position, []

        def recorded(swarm, rows, *args):
            windows.append(rows)
            return update_position(swarm, rows, *args)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(mopso, "update_position", recorded)
            for _ in range(4):
                windows.clear()
                admitted.clear()
                step(*got[:2], objective, self.LOWER, self.UPPER, cfg, got[2], bound)
                reference_step(*want[:2], objective, self.LOWER, self.UPPER, cfg, want[2])
                assert len(admitted) == swarm_size
                assert len(windows) == 1 + sum(admitted[:-1])
                assert all(w.stop == swarm_size for w in windows)
                assert_same_state(got, want)

    @given(
        seed=st.integers(0, 2**32 - 1),
        swarm_size=st.integers(2, 16),
        m=st.sampled_from([2, 3]),
        capacity=st.sampled_from([None, 1, 2, 6]),
        margin=st.sampled_from([0.0, 0.5, 3.0, np.inf]),
    )
    @settings(max_examples=200, deadline=None)
    def test_screened_step_matches_per_particle_loop(self, seed, swarm_size, m, capacity,
                                                     margin):
        # a bound equal to the objective (margin 0) screens every row that
        # would change nothing; random slack up to the margin screens fewer,
        # and an infinite bound none. The grid objective makes ties, so
        # members and bounds are often equal
        cfg = MopsoConfig(swarm_size=swarm_size, v_max=4.0, archive_capacity=capacity)
        rng = np.random.default_rng(seed)
        objective = grid_objective(rng.uniform(-5, 5, (m, 3)), scale=8.0)
        slack = np.random.default_rng(seed + 1)

        def bound(x):
            rows = rowwise(objective)(x)
            return rows + np.where(slack.random(rows.shape) < 0.5, 0.0,
                                   margin * slack.random(rows.shape))

        swarm, archive = init_swarm(objective, self.LOWER, self.UPPER, cfg, rng)
        got = (swarm, archive, rng)
        want = copy.deepcopy(got)
        for _ in range(4):
            step(*got[:2], objective, self.LOWER, self.UPPER, cfg, got[2], bound)
            reference_step(*want[:2], objective, self.LOWER, self.UPPER, cfg, want[2])
            assert_same_state(got, want)

    @pytest.mark.parametrize("capacity", [None, 6])
    @pytest.mark.parametrize("kind", STEP_SCENARIOS)
    def test_scenario_bound_matches_per_particle_loop(self, kind, capacity):
        # the corner-cell bound, as run_single passes it
        sc = grid_scenario(*STEP_SCENARIOS[kind])
        self.assert_scenario_step_matches(sc, capacity, make_bound(sc))

    def test_one_cell_region_is_screened(self):
        # a one-cell region's bound is its exact value, not +inf, so the
        # screen keeps some moved rows from being evaluated
        sc = grid_scenario(*STEP_SCENARIOS["one-cell"])
        objective, evaluated = make_objective(sc), []

        def counted(x):
            evaluated.append(x)
            return objective(x)

        box = sc.deployment_region
        lower = np.tile([box.x_min, box.y_min], sc.n_antennas)
        upper = np.tile([box.x_max, box.y_max], sc.n_antennas)
        cfg = MopsoConfig(swarm_size=30, v_max=150.0)
        rng = np.random.default_rng(7)
        swarm, archive = init_swarm(objective, lower, upper, cfg, rng)
        for _ in range(5):
            step(swarm, archive, counted, lower, upper, cfg, rng, make_bound(sc))
        assert 0 < len(evaluated) < 5 * cfg.swarm_size

    @pytest.mark.parametrize("capacity", [None, 6])
    def test_unscreening_bound_matches_per_particle_loop(self, capacity):
        # an infinite bound screens out no row, so every row of a window is
        # evaluated until the first admission, as the loop evaluates them
        sc = grid_scenario(*STEP_SCENARIOS["default"])
        self.assert_scenario_step_matches(sc, capacity, infinite_bound(2))

    @staticmethod
    def assert_scenario_step_matches(sc, capacity, bound):
        objective = make_objective(sc)
        box = sc.deployment_region
        lower = np.tile([box.x_min, box.y_min], sc.n_antennas)
        upper = np.tile([box.x_max, box.y_max], sc.n_antennas)
        cfg = MopsoConfig(swarm_size=30, v_max=150.0, archive_capacity=capacity)
        rng = np.random.default_rng(7)
        swarm, archive = init_swarm(objective, lower, upper, cfg, rng)
        got = (swarm, archive, rng)
        want = copy.deepcopy(got)
        for _ in range(12):
            step(*got[:2], objective, lower, upper, cfg, got[2], bound)
            reference_step(*want[:2], objective, lower, upper, cfg, want[2])
            assert_same_state(got, want)

    @pytest.mark.parametrize("bad", [-np.inf, np.nan])
    @pytest.mark.parametrize("screened", [False, True], ids=["plain", "screened"])
    @pytest.mark.parametrize("failing", range(1, 13))
    def test_non_finite_candidate_raises_after_the_particles_before_it(self, failing, screened,
                                                                      bad):
        # the failing particle's candidate is non-finite, which insert
        # rejects with ValueError, even at -inf, where every member
        # dominates it. Every particle before it, in its window or an
        # earlier one, ends as the per-particle loop leaves it, and no
        # personal best from it on changes. The tight bound screens most
        # rows out; it is the candidate itself on the failing row, whose
        # non-finite bound keeps it in
        cfg = MopsoConfig(swarm_size=12, v_max=1.0)
        rng = np.random.default_rng(0)
        start = init_swarm(sphere_objectives, self.LOWER, self.UPPER, cfg, rng) + (rng,)
        assert dominance(start[1].values(), np.array([-np.inf, -np.inf])).all()
        calls = []

        def recorded(x):
            calls.append(np.array(x))
            return sphere_objectives(x)

        reference_step(*copy.deepcopy(start)[:2], recorded, self.LOWER, self.UPPER, cfg,
                       copy.deepcopy(rng))
        failed = calls[failing - 1].tobytes()

        def objective(x):
            return np.full(2, bad) if x.tobytes() == failed else sphere_objectives(x)

        want = copy.deepcopy(start)
        with pytest.raises(ValueError, match="non-finite"):
            reference_step(*want[:2], objective, self.LOWER, self.UPPER, cfg, want[2])
        got = copy.deepcopy(start)
        bound = rowwise(objective) if screened else infinite_bound(2)
        with pytest.raises(ValueError, match="non-finite"):
            step(*got[:2], objective, self.LOWER, self.UPPER, cfg, got[2], bound)
        before = failing - 1
        np.testing.assert_equal(got[2].bit_generator.state, want[2].bit_generator.state)
        assert got[1].values().tobytes() == want[1].values().tobytes()
        for name in ("position", "velocity", "best_position", "best_value"):
            assert (getattr(got[0], name)[:before].tobytes()
                    == getattr(want[0], name)[:before].tobytes()), name
            assert (getattr(got[0], name)[before:].tobytes()
                    == getattr(start[0], name)[before:].tobytes()), name

    @pytest.mark.parametrize("screened", [False, True], ids=["plain", "screened"])
    @pytest.mark.parametrize("failing", [1, 4, 12])
    def test_objective_that_raises_leaves_the_rest_uncommitted(self, failing, screened):
        # the objective itself raises on the failing particle's candidate:
        # the particles before it end as the per-particle loop leaves them,
        # and none from it on moves. The screening bound is tight except on
        # the failing row, whose +inf keeps it open
        cfg = MopsoConfig(swarm_size=12, v_max=1.0)
        rng = np.random.default_rng(3)
        start = init_swarm(sphere_objectives, self.LOWER, self.UPPER, cfg, rng) + (rng,)
        calls = []

        def recorded(x):
            calls.append(np.array(x))
            return sphere_objectives(x)

        reference_step(*copy.deepcopy(start)[:2], recorded, self.LOWER, self.UPPER, cfg,
                       copy.deepcopy(rng))
        failed = calls[failing - 1].tobytes()

        def objective(x):
            if x.tobytes() == failed:
                raise RuntimeError("objective failed")
            return sphere_objectives(x)

        def bound(x):
            return np.array([np.full(2, np.inf) if row.tobytes() == failed
                             else sphere_objectives(row) for row in x])

        want = copy.deepcopy(start)
        with pytest.raises(RuntimeError):
            reference_step(*want[:2], objective, self.LOWER, self.UPPER, cfg, want[2])
        got = copy.deepcopy(start)
        with pytest.raises(RuntimeError):
            step(*got[:2], objective, self.LOWER, self.UPPER, cfg, got[2],
                 bound if screened else infinite_bound(2))
        before = failing - 1
        np.testing.assert_equal(got[2].bit_generator.state, want[2].bit_generator.state)
        assert got[1].values().tobytes() == want[1].values().tobytes()
        for name in ("position", "velocity", "best_position", "best_value"):
            assert (getattr(got[0], name)[:before].tobytes()
                    == getattr(want[0], name)[:before].tobytes()), name
            assert (getattr(got[0], name)[before:].tobytes()
                    == getattr(start[0], name)[before:].tobytes()), name


class TestInitSwarm:
    @given(
        seed=st.integers(0, 2**63 - 1),
        swarm_size=st.integers(2, 12),
        box=st.lists(st.tuples(st.floats(-1e6, 1e6), st.floats(0.0, 1e6)),
                     min_size=1, max_size=6),
        v_max=st.floats(1e-6, 1e6) | st.sampled_from([1.0, 150.0, 8.9e307]),
        m=st.sampled_from([1, 2, 3]),
        capacity=st.sampled_from([None, 1, 2, 5]),
        bit_generator=st.sampled_from([np.random.PCG64, np.random.Philox]),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_per_particle_uniform_loop(self, seed, swarm_size, box, v_max, m,
                                               capacity, bit_generator):
        # boxes of any sign and width, zero included; an objective rounded to
        # a coarse grid gives ties and duplicates, and capacities 1 and 2 keep
        # every member at +inf, so seeding the archive draws eviction choices
        lower = np.array([low for low, _ in box])
        upper = lower + [width for _, width in box]
        scale = (1.0 + (upper - lower).max()) ** 2 / 16
        centers = lower + (upper - lower) * np.random.default_rng(seed).random((m, len(box)))
        objective = grid_objective(centers, scale=scale)
        cfg = MopsoConfig(swarm_size=swarm_size, v_max=v_max, archive_capacity=capacity)
        rng = np.random.Generator(bit_generator(seed))
        want_rng = copy.deepcopy(rng)
        got = (*init_swarm(objective, lower, upper, cfg, rng), rng)
        want = (*reference_init(objective, lower, upper, cfg, want_rng), want_rng)
        assert_same_state(got, want)

    @pytest.mark.parametrize(
        "lower, upper",
        [([0.0, -1e308], [1.0, 1e308]), ([-np.inf], [0.0]), ([0.0], [np.nan])],
        ids=["overflow", "infinite", "nan"],
    )
    def test_non_finite_range_rejected(self, lower, upper):
        cfg = MopsoConfig(swarm_size=4)
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="finite"):
            init_swarm(sphere_objectives, lower, upper, cfg, np.random.default_rng(0))
