import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    oracle_dominated_set,
    oracle_interval_distance,
    oracle_relative_distance,
    reference_relative_distances,
    reference_should_stop,
)
from mopso_deploy.convergence import (
    ConvergenceConfig,
    ConvergenceMonitor,
    FrontSnapshot,
    aggregate,
    candidate_pairs,
    interval_distance,
    relative_distance,
    relative_distances,
)
from mopso_deploy.mopso import ParetoArchive, dominance, pareto_filter


def front(values, iteration=0):
    return FrontSnapshot(iteration, np.asarray(values, dtype=float))


def random_front_pair(rng, n_old=30, n_new=30, m=2):
    old = rng.uniform(size=(n_old, m))
    new = old + rng.uniform(-0.2, 0.4, size=(n_new, m))[:n_new]
    old = old[pareto_filter(old)]
    new = new[pareto_filter(new)]
    return front(new, 5), front(old, 0)


def dominated_set(k, front_t, front_prev):
    """Members of the older front dominated by point k of the newer one,
    selected with the dominance mask that relative_distances uses."""
    return front_prev.values[dominance(front_t.values[k], front_prev.values)]


class TestDominatedSet:
    def test_both_dominated(self):
        got = dominated_set(0, front([(3, 3)]), front([(1, 1), (2, 2.5)]))
        assert got.tolist() == [[1, 1], [2, 2.5]]

    def test_nothing_dominated(self):
        got = dominated_set(0, front([(1, 1)]), front([(2, 2)]))
        assert got.shape[0] == 0

    def test_oracle_equivalence_random(self, rng):
        for _ in range(30):
            new, old = random_front_pair(rng)
            for k in range(new.size):
                expected = oracle_dominated_set(new.values[k], old.values.tolist())
                assert dominated_set(k, new, old).tolist() == expected


class TestRelativeDistance:
    def test_hand_computed_minimum(self):
        got = relative_distance(0, front([(3, 3)]), front([(1, 1), (2, 2.5)]))
        assert got == pytest.approx(math.sqrt(1.25), rel=1e-15)

    def test_empty_dominated_set_is_zero(self):
        assert relative_distance(0, front([(1, 1)]), front([(2, 2)])) == 0.0

    def test_identical_dominated_vector(self):
        # the dominated point differs only in one objective
        got = relative_distance(0, front([(2, 2)]), front([(2, 1)]))
        assert got == pytest.approx(1.0)

    def test_vectorized_matches_scalar(self, rng):
        for _ in range(20):
            new, old = random_front_pair(rng, m=3)
            vec = relative_distances(new.values, old.values)
            for k in range(new.size):
                assert vec[k] == pytest.approx(
                    relative_distance(k, new, old), rel=1e-14
                )
            last = relative_distance(len(new.values) - 1, new, old)
            assert relative_distance(-1, new, old) == last

    def test_objective_count_mismatch_rejected(self):
        with pytest.raises(ValueError, match="mismatch"):
            relative_distances(np.array([(1.0, 2.0, 3.0)]), np.array([(0.0, 1.0)]))
        with pytest.raises(ValueError, match="mismatch"):
            relative_distances(np.array([(1.0, 2.0)]), np.array([(0.0, 1.0, 2.0)]))

    @given(
        st.integers(0, 2**32 - 1),
        st.sampled_from([1, 2, 3, 5]),
        st.integers(1, 60),
        st.integers(1, 60),
        st.sampled_from([0, 1, 3]),
    )
    @settings(max_examples=200, deadline=None)
    def test_bytes_equal_broadcast_reference(self, seed, m, k_new, k_old, decimals):
        # rounding forces ties in single objectives and whole vectors; the
        # scale moves the squares off exactly representable values
        rng = np.random.default_rng(seed)
        scale = 10.0 ** rng.integers(-6, 7)
        old = np.round(rng.normal(size=(k_old, m)), decimals) * scale
        new = np.round(rng.normal(0.5, 1.0, size=(k_new, m)), decimals) * scale
        got = relative_distances(new, old)
        assert got.tobytes() == reference_relative_distances(new, old).tobytes()

    @given(
        st.integers(0, 2**32 - 1),
        st.sampled_from([1, 2, 3, 5]),
        st.sampled_from([None, 4, 12, 40]),
        st.integers(1, 8),
        st.sampled_from([0, 1, 2]),
    )
    @settings(max_examples=200, deadline=None)
    def test_bytes_equal_reference_on_consecutive_archive_fronts(
        self, seed, m, capacity, inserts, decimals
    ):
        # consecutive archive images share most rows, so nearly every
        # new >= old pair is an equal pair: the case the candidate-pair
        # kernel is built for; rounding forces ties and duplicates
        rng = np.random.default_rng(seed)
        archive = ParetoArchive(capacity=capacity)

        def offer(count):
            for point in np.round(rng.normal(size=(count, m)), decimals):
                archive.insert(point, point, rng=rng)

        offer(60)
        old = archive.values()
        offer(inserts)
        new = archive.values()  # read-only, as the monitor passes them
        assert not new.flags.writeable and not old.flags.writeable
        span = new.max(axis=0) - new.min(axis=0)
        span = np.where(span > 0, span, 1.0)
        for a, b in ((new, old), (new / span, old / span), (old, new)):
            got = relative_distances(a, b)
            assert got.tobytes() == reference_relative_distances(a, b).tobytes()
        # division by a positive span keeps every >=, so the scaled fronts'
        # candidate pairs hold the raw ones, as the monitor relies on
        pairs = candidate_pairs(new / span, old / span)
        got = relative_distances(new, old, pairs)
        assert got.tobytes() == reference_relative_distances(new, old).tobytes()

    def test_identical_fronts_all_zero(self):
        values = np.array([(0.0, 3.0, 1.0), (1.0, 2.0, 2.0), (3.0, 0.0, 0.5)])
        got = relative_distances(values, values)
        assert got.tobytes() == np.zeros(3).tobytes()

    def test_one_row_changed(self):
        old = np.array([(0.0, 3.0, 1.0), (1.0, 2.0, 2.0), (3.0, 0.0, 0.5)])
        new = old.copy()
        new[1] = (1.5, 2.0, 2.5)  # dominates only the row it replaced
        got = relative_distances(new, old)
        assert got.tolist() == [0.0, math.sqrt(0.5), 0.0]
        assert got.tobytes() == reference_relative_distances(new, old).tobytes()


class TestIntervalDistance:
    def test_avg_excludes_zeros(self):
        # dis values {0, 2, 4}
        new = front([(0.5, 0.5), (3, 1), (1, 5)])
        old = front([(1, 1), (3, -1), (1, 1)])
        dis = relative_distances(new.values, old.values)
        assert sorted(dis.tolist()) == [0.0, 2.0, 4.0]
        dist, z = interval_distance(new, old, "avg")
        assert (dist, z) == (3.0, 1)

    def test_max_and_min(self):
        new = front([(0.5, 0.5), (3, 1), (1, 5)])
        old = front([(1, 1), (3, -1), (1, 1)])
        assert interval_distance(new, old, "max") == (4.0, 1)
        assert interval_distance(new, old, "min") == (2.0, 1)

    def test_identical_fronts_zero_all_modes(self):
        f = front([(1, 2), (2, 1)])
        for mode in ("max", "min", "avg"):
            assert interval_distance(f, front(f.values), mode) == (0.0, 2)

    def test_mode_ordering(self, rng):
        for _ in range(30):
            new, old = random_front_pair(rng)
            lo, _ = interval_distance(new, old, "min")
            mid, _ = interval_distance(new, old, "avg")
            hi, _ = interval_distance(new, old, "max")
            assert lo <= mid + 1e-15 and mid <= hi + 1e-15

    def test_oracle_equivalence_random(self, rng):
        for _ in range(30):
            new, old = random_front_pair(rng, m=2)
            for mode in ("max", "min", "avg"):
                dist, z = interval_distance(new, old, mode)
                exp_dist, exp_z = oracle_interval_distance(
                    new.values.tolist(), old.values.tolist(), mode
                )
                assert z == exp_z
                assert dist == pytest.approx(exp_dist, rel=1e-12, abs=1e-15)

    @given(st.integers(0, 2**32 - 1), st.floats(-5, 5), st.floats(0.1, 7))
    @settings(max_examples=40, deadline=None)
    def test_translation_and_scale(self, seed, shift, scale):
        rng = np.random.default_rng(seed)
        new, old = random_front_pair(rng)
        for mode in ("max", "min", "avg"):
            base, z0 = interval_distance(new, old, mode)
            shifted, z1 = interval_distance(
                front(new.values + shift), front(old.values + shift), mode
            )
            scaled, z2 = interval_distance(
                front(new.values * scale), front(old.values * scale), mode
            )
            assert shifted == pytest.approx(base, rel=1e-9, abs=1e-12)
            assert scaled == pytest.approx(scale * base, rel=1e-9, abs=1e-12)
            assert z0 == z1 == z2

    def test_non_negative(self, rng):
        for _ in range(20):
            new, old = random_front_pair(rng, m=3)
            assert (relative_distances(new.values, old.values) >= 0).all()
            for mode in ("max", "min", "avg"):
                dist, _ = interval_distance(new, old, mode)
                assert dist >= 0


def observe_all(cfg, values):
    """Feed a monitor the single-point M=1 front (values[t],) at each t.

    With one objective the aggregate at t is values[t] - values[t-h] when
    that is positive (the newer point dominates the older) and 0 otherwise,
    so chosen steps give chosen aggregates. Returns the monitor and the
    decisions."""
    monitor = ConvergenceMonitor(cfg)
    return monitor, [monitor.observe(t, [(v,)]) for t, v in enumerate(values)]


def aggregates(monitor):
    return [(r.iteration, r.dist["avg"]) for r in monitor.trace.records]


class TestMonitorStop:
    CFG = ConvergenceConfig(step=5, threshold=2.5e-4)

    def test_small_difference_stops(self):
        monitor, decisions = observe_all(self.CFG, [0.0] * 5 + [0.01] * 5 + [0.0201])
        assert aggregates(monitor) == [(5, 0.01), (10, pytest.approx(0.0101))]
        assert decisions[10] == ConvergenceMonitor.STOP

    def test_single_aggregate_never_stops(self):
        # any two aggregates pass an infinite threshold: only the second stops
        cfg = ConvergenceConfig(step=5, threshold=math.inf)
        monitor, decisions = observe_all(cfg, [0.0] * 5 + [1.0] * 5 + [1.5])
        assert [r.iteration for r in monitor.trace.records] == [5, 10]
        assert ConvergenceMonitor.STOP not in decisions[:10]
        assert decisions[10] == ConvergenceMonitor.STOP

    def test_large_difference_continues(self):
        monitor, decisions = observe_all(self.CFG, [0.0] * 5 + [0.1] * 5 + [0.6])
        assert aggregates(monitor) == [(5, 0.1), (10, 0.5)]
        assert ConvergenceMonitor.STOP not in decisions

    @pytest.mark.parametrize(
        "threshold, decision",
        [(2.5e-4, ConvergenceMonitor.CONTINUE), (0.05, ConvergenceMonitor.STOP),
         (0.0499, ConvergenceMonitor.CONTINUE)],
    )
    def test_compares_with_h_iterations_back(self, threshold, decision):
        # aggregates 0.05, 0.06, ..., 0.09, 0.1 at t = 5..10, each exact:
        # t=10 is compared with t=5 (difference exactly 0.05), not with t=9
        cfg = ConvergenceConfig(step=5, threshold=threshold, cadence="every_iteration")
        values = [-0.05, -0.06, -0.07, -0.08, -0.09] + [0.0] * 5 + [0.1]
        monitor, decisions = observe_all(cfg, values)
        assert aggregates(monitor) == [(t, t / 100) for t in range(5, 11)]
        assert decisions == [ConvergenceMonitor.CONTINUE] * 10 + [decision]

    @given(
        st.integers(0, 2**32 - 1),
        st.sampled_from(["every_h", "every_iteration"]),
        st.booleans(),
        st.integers(1, 4),
        st.sampled_from(["max", "min", "avg"]),
        st.sampled_from([(0.0, None), (0.05, None), (math.inf, None), (0.0, 0.0),
                         (0.0, 0.5), (0.0, 2.0)]),
    )
    @settings(max_examples=300, deadline=None)
    def test_decisions_equal_trace_scan(
        self, seed, cadence, normalized, h, mode, thresholds
    ):
        threshold, relative = thresholds
        cfg = ConvergenceConfig(
            step=h, threshold=threshold, mode=mode, cadence=cadence,
            normalized=normalized, relative_threshold=relative,
        )
        monitor = ConvergenceMonitor(cfg)
        rng = np.random.default_rng(seed)
        m = int(rng.integers(1, 4))
        # coarse values on a slow drift: fronts repeat and aggregates tie
        for t in range(int(rng.integers(1, 30))):
            values = np.round(rng.uniform(size=(int(rng.integers(1, 6)), m)) * 4) / 4
            values += t // 4
            n_records = len(monitor.trace.records)
            decision = monitor.observe(t, values)
            records = monitor.trace.records
            expected = len(records) > n_records and reference_should_stop(
                records, cfg, monitor.effective_threshold
            )
            assert (decision == ConvergenceMonitor.STOP) == expected


class TestMonitor:
    def test_stationary_front_stops_at_two_h(self):
        cfg = ConvergenceConfig(step=5, threshold=2.5e-4)
        monitor = ConvergenceMonitor(cfg)
        frozen = [(1.0, 2.0), (2.0, 1.0)]
        decisions = {}
        for t in range(0, 16):
            decisions[t] = monitor.observe(t, frozen)
        assert decisions[5] == ConvergenceMonitor.CONTINUE
        assert decisions[10] == ConvergenceMonitor.STOP
        assert monitor.trace.records[0].dist["avg"] == 0.0

    def test_zero_threshold_moving_front_never_stops(self, rng):
        cfg = ConvergenceConfig(step=2, threshold=0.0)
        monitor = ConvergenceMonitor(cfg)
        base = np.array([(1.0, 2.0), (2.0, 1.0)])
        stop_seen = False
        for t in range(0, 30):
            vals = base + 0.01 * t**2  # accelerating, so aggregates keep changing
            stop_seen |= monitor.observe(t, vals) == ConvergenceMonitor.STOP
        assert not stop_seen

    def test_cadence_every_h_skips_between(self):
        cfg = ConvergenceConfig(step=5)
        monitor = ConvergenceMonitor(cfg)
        for t in range(0, 13):
            monitor.observe(t, [(1.0, 1.0)])
        assert [r.iteration for r in monitor.trace.records] == [5, 10]

    def test_cadence_every_iteration(self):
        cfg = ConvergenceConfig(step=5, cadence="every_iteration", threshold=0.0)
        monitor = ConvergenceMonitor(cfg)
        for t in range(0, 13):
            monitor.observe(t, [(1.0, 1.0)])
        assert [r.iteration for r in monitor.trace.records] == list(range(5, 13))

    def test_relative_threshold_resolution(self):
        cfg = ConvergenceConfig(step=1, relative_threshold=0.5)
        monitor = ConvergenceMonitor(cfg)
        monitor.observe(0, [(0.0, 0.0)])
        monitor.observe(1, [(3.0, 4.0)])  # dist = 5 on a single-point front
        assert monitor.effective_threshold == pytest.approx(2.5)

    def test_normalized_mode_scale_free(self):
        cfg = ConvergenceConfig(step=1, normalized=True)
        traces = []
        for scale in (1.0, 1000.0):
            monitor = ConvergenceMonitor(cfg)
            pts = np.array([(1.0, 4.0), (2.0, 3.0), (4.0, 1.0)])
            monitor.observe(0, pts * scale)
            monitor.observe(1, (pts + 0.5) * scale)
            traces.append(monitor.trace.records[0].dist["avg"])
        assert traces[0] == pytest.approx(traces[1], rel=1e-12)

    @given(st.integers(0, 2**32 - 1), st.integers(1, 3), st.sampled_from([1, 2, 3]))
    @settings(max_examples=60, deadline=None)
    def test_normalized_trace_equals_reference_on_span_divided_fronts(self, seed, h, m):
        # each record's dist is the reference kernel on both fronts divided
        # by the newer front's span (1 where it is 0), dist_raw and z the
        # reference on the raw fronts
        cfg = ConvergenceConfig(step=h, normalized=True, cadence="every_iteration")
        monitor = ConvergenceMonitor(cfg)
        rng = np.random.default_rng(seed)
        fronts = []
        for t in range(12):
            values = np.round(rng.uniform(size=(int(rng.integers(1, 8)), m)) * 4) / 4
            fronts.append(values + t // 3)
            monitor.observe(t, fronts[-1])
        assert [r.iteration for r in monitor.trace.records] == list(range(h, 12))
        for record in monitor.trace.records:
            new, old = fronts[record.iteration], fronts[record.iteration - h]
            span = new.max(axis=0) - new.min(axis=0)
            span = np.where(span > 0, span, 1.0)
            raw = reference_relative_distances(new, old)
            assert record.dist == aggregate(reference_relative_distances(new / span,
                                                                         old / span))[0]
            assert (record.dist_raw, record.z) == aggregate(raw)
            assert record.n_points == len(new)

    def test_snapshot_pruning(self):
        # only fronts a later call compares against are kept: the last
        # multiple of h under every_h, the last h fronts under every_iteration
        for cadence, pending in (("every_h", 1), ("every_iteration", 3)):
            cfg = ConvergenceConfig(step=3, cadence=cadence)
            monitor = ConvergenceMonitor(cfg)
            for t in range(0, 20):
                monitor.observe(t, [(float(t), 1.0)])
                assert len(monitor._snapshots) <= cfg.step + 1
                assert len(monitor._snapshots) <= pending
