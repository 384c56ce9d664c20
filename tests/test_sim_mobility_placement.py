"""Tests for mobility models, placement sampling and the MC runner."""

import math

import pytest

from repro.sim.geometry import Point, Segment
from repro.sim.mobility import (
    LinearCrossing,
    WalkingBlocker,
    los_blocker_between,
)
from repro.sim.runner import MonteCarloRunner


class TestLinearCrossing:
    def test_oscillates_along_path(self):
        crossing = LinearCrossing(Segment(Point(0, 0), Point(2, 0)),
                                  speed_mps=1.0)
        points = [crossing.step(0.5) for _ in range(8)]
        xs = [p.x for p in points]
        assert max(xs) <= 2.0 + 1e-9
        assert min(xs) >= 0.0 - 1e-9
        # There and back: position after a full cycle returns.
        crossing2 = LinearCrossing(Segment(Point(0, 0), Point(2, 0)), 1.0)
        end = None
        for _ in range(8):  # 4 s at 1 m/s over a 2 m path = full cycle
            end = crossing2.step(0.5)
        assert end.x == pytest.approx(0.0, abs=1e-9)

    def test_repeatedly_blocks_crossing_link(self):
        # A walker crossing a link should alternately occlude it.
        crossing = LinearCrossing(Segment(Point(1, 0), Point(1, 2)), 1.0)
        blocker = los_blocker_between(Point(0, 1), Point(2, 1))
        walking = WalkingBlocker(blocker, crossing)
        link = Segment(Point(0, 1), Point(2, 1))
        states = []
        for _ in range(20):
            b = walking.step(0.1)
            states.append(b.occludes(link))
        assert any(states)
        assert not all(states)

    def test_invalid_speed(self):
        with pytest.raises(ValueError):
            LinearCrossing(Segment(Point(0, 0), Point(1, 0)), 0.0)


class TestLosBlocker:
    def test_blocks_the_los(self):
        node, ap = Point(1, 5), Point(2, 0.15)
        person = los_blocker_between(node, ap, fraction=0.5)
        assert person.occludes(Segment(node, ap))

    def test_fraction_positions(self):
        node, ap = Point(0, 0), Point(4, 0)
        near_node = los_blocker_between(node, ap, fraction=0.1)
        near_ap = los_blocker_between(node, ap, fraction=0.9)
        assert near_node.position.x < near_ap.position.x

    def test_loss_in_composed_band(self, rng):
        person = los_blocker_between(Point(0, 0), Point(4, 0), rng=rng)
        assert 20.0 <= person.penetration_loss_db <= 35.0

    def test_invalid_fraction(self):
        with pytest.raises(ValueError):
            los_blocker_between(Point(0, 0), Point(1, 0), fraction=0.0)


class TestPlacementSampler:
    def test_orientation_within_protocol_range(self, sampler):
        for _ in range(100):
            placement = sampler.sample()
            offset = math.degrees(placement.offset_from_ap_rad)
            assert -60.0 - 1e-6 <= offset <= 60.0 + 1e-6

    def test_node_inside_room(self, sampler, room):
        for _ in range(50):
            assert room.contains(sampler.sample().node_position)

    def test_ap_on_room_side(self, sampler, room):
        placement = sampler.sample()
        assert placement.ap_position.y < 0.5
        assert placement.ap_position.x == pytest.approx(room.width_m / 2)

    def test_min_distance_enforced(self, sampler):
        for _ in range(100):
            assert sampler.sample().distance_m >= 0.5

    def test_at_distance_facing(self, sampler):
        placement = sampler.at_distance(3.0, facing=True)
        assert placement.distance_m == pytest.approx(3.0)
        assert placement.offset_from_ap_rad == pytest.approx(0.0, abs=1e-9)

    def test_at_distance_not_facing_is_30deg(self, sampler):
        placement = sampler.at_distance(3.0, facing=False)
        assert abs(math.degrees(placement.offset_from_ap_rad)) == (
            pytest.approx(30.0))

    def test_sample_many(self, sampler):
        assert len(sampler.sample_many(7)) == 7

    def test_invalid_distance(self, sampler):
        with pytest.raises(ValueError):
            sampler.at_distance(0.0)


class TestMonteCarloRunner:
    def test_deterministic_across_runs(self):
        def trial(rng, index):
            return {"value": float(rng.uniform())}

        a = MonteCarloRunner(master_seed=7).run(trial, 10)
        b = MonteCarloRunner(master_seed=7).run(trial, 10)
        assert [r["value"] for r in a] == [r["value"] for r in b]

    def test_trials_independent(self):
        def trial(rng, index):
            return {"value": float(rng.uniform())}

        results = MonteCarloRunner(0).run(trial, 20)
        values = [r["value"] for r in results]
        assert len(set(values)) == 20

    def test_summary_statistics(self):
        def trial(rng, index):
            return {"x": float(index)}

        results = MonteCarloRunner(0).run(trial, 11)
        stats = MonteCarloRunner.summary(results, "x")
        assert stats["mean"] == pytest.approx(5.0)
        assert stats["median"] == pytest.approx(5.0)
        assert stats["min"] == 0.0
        assert stats["max"] == 10.0

    def test_collect(self):
        def trial(rng, index):
            return {"x": index * 2}

        results = MonteCarloRunner(0).run(trial, 3)
        assert list(MonteCarloRunner.collect(results, "x")) == [0, 2, 4]

    def test_non_dict_trial_rejected(self):
        with pytest.raises(TypeError):
            MonteCarloRunner(0).run(lambda rng, i: 42, 1)

    def test_empty_summary_rejected(self):
        with pytest.raises(ValueError):
            MonteCarloRunner.summary([], "x")
