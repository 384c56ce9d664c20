"""Tests for the image-method ray tracer."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.channel.raytrace import trace_paths
from repro.sim.environment import Blocker, Room, Wall, default_lab_room
from repro.sim.geometry import Point, Segment
from repro.sim.placement import PlacementSampler

from .raytrace_reference import reference_trace_paths


@pytest.fixture
def square() -> Room:
    return Room.rectangular(4.0, 4.0, reflection_loss_db=7.0)


class TestLosPath:
    def test_present_in_open_room(self, square):
        paths = trace_paths(Point(1, 1), Point(3, 3), square, max_bounces=0)
        assert len(paths) == 1
        assert paths[0].num_bounces == 0
        assert paths[0].length_m == pytest.approx(math.sqrt(8.0))

    def test_bearings_are_opposite(self, square):
        paths = trace_paths(Point(1, 1), Point(3, 1), square, max_bounces=0)
        los = paths[0]
        assert los.departure_bearing_rad == pytest.approx(0.0)
        assert abs(los.arrival_bearing_rad) == pytest.approx(math.pi)

    def test_interior_wall_blocks_los(self, square):
        square.add_wall(Wall(Segment(Point(2, 0.5), Point(2, 3.5))))
        paths = trace_paths(Point(1, 2), Point(3, 2), square, max_bounces=0)
        assert paths == []

    def test_non_occluding_wall_does_not_block(self, square):
        square.add_wall(Wall(Segment(Point(2, 0.5), Point(2, 3.5)),
                             occludes=False))
        paths = trace_paths(Point(1, 2), Point(3, 2), square, max_bounces=0)
        assert len(paths) == 1

    def test_blocker_adds_loss_not_removal(self, square):
        square.add_blocker(Blocker(Point(2, 2), penetration_loss_db=27.5))
        paths = trace_paths(Point(1, 2), Point(3, 2), square, max_bounces=0)
        assert len(paths) == 1
        assert paths[0].excess_loss_db == pytest.approx(27.5)


class TestFirstOrderReflections:
    def test_four_walls_give_reflections(self, square):
        paths = trace_paths(Point(1, 2), Point(3, 2), square, max_bounces=1)
        reflections = [p for p in paths if p.num_bounces == 1]
        assert len(reflections) == 4

    def test_reflection_geometry_symmetric_case(self, square):
        # tx and rx symmetric about x=2; bounce off the south wall (y=0)
        # must land at (2, 0) with equal leg lengths.
        paths = trace_paths(Point(1, 1), Point(3, 1), square, max_bounces=1)
        south = [p for p in paths
                 if p.num_bounces == 1 and p.vertices[1].y == pytest.approx(0.0)]
        assert len(south) == 1
        bounce = south[0].vertices[1]
        assert bounce.x == pytest.approx(2.0)
        assert south[0].length_m == pytest.approx(2 * math.hypot(1, 1))

    def test_reflection_obeys_specular_law(self, square):
        paths = trace_paths(Point(0.5, 1.0), Point(3.5, 2.0), square,
                            max_bounces=1)
        for p in paths:
            if p.num_bounces != 1:
                continue
            bounce = p.vertices[1]
            # Unfolded length equals distance to the image — already
            # guaranteed by construction; verify length consistency.
            legs = (math.hypot(bounce.x - 0.5, bounce.y - 1.0)
                    + math.hypot(3.5 - bounce.x, 2.0 - bounce.y))
            assert p.length_m == pytest.approx(legs)

    def test_reflection_loss_charged(self, square):
        paths = trace_paths(Point(1, 2), Point(3, 2), square, max_bounces=1)
        for p in paths:
            if p.num_bounces == 1:
                assert p.excess_loss_db == pytest.approx(7.0)

    def test_paths_sorted_strongest_first(self, square):
        paths = trace_paths(Point(1, 2), Point(3, 2), square, max_bounces=1)
        assert paths[0].num_bounces == 0


class TestSecondOrderReflections:
    def test_second_order_present(self, square):
        paths = trace_paths(Point(1, 1.5), Point(3, 2.5), square,
                            max_bounces=2, max_excess_loss_db=100.0)
        double = [p for p in paths if p.num_bounces == 2]
        assert len(double) >= 2
        for p in double:
            assert p.excess_loss_db >= 14.0  # two bounces at 7 dB

    def test_pruning_by_excess_loss(self, square):
        generous = trace_paths(Point(1, 1.5), Point(3, 2.5), square,
                               max_bounces=2, max_excess_loss_db=100.0)
        strict = trace_paths(Point(1, 1.5), Point(3, 2.5), square,
                             max_bounces=2, max_excess_loss_db=10.0)
        assert len(strict) < len(generous)

    def test_invalid_bounces(self, square):
        with pytest.raises(ValueError):
            trace_paths(Point(1, 1), Point(2, 2), square, max_bounces=-1)

    def test_more_than_two_bounces_rejected(self, square):
        # No third-order paths are traced, so asking for them must not
        # quietly return the two-bounce set.
        with pytest.raises(ValueError, match="max_bounces"):
            trace_paths(Point(1, 1.5), Point(3, 2.5), square, max_bounces=3)


class TestEmergentNlosBand:
    def test_nlos_excess_lands_in_paper_band(self):
        """End-to-end NLoS vs LoS gap should fall in the 10-20 dB band.

        Section 6.1: NLoS paths typically see 10-20 dB more attenuation
        than LoS.  Our per-bounce material loss is ~7 dB; the extra
        spreading loss of the longer path plus the bounce must compose
        to roughly the paper's band for typical placements.
        """
        room = default_lab_room(furniture=False)
        rng = np.random.default_rng(3)
        gaps = []
        for _ in range(60):
            tx = room.random_interior_point(rng, 0.5)
            rx = room.random_interior_point(rng, 0.5)
            if (tx - rx).norm() < 1.5:
                continue
            paths = trace_paths(tx, rx, room, max_bounces=1)
            los = [p for p in paths if p.num_bounces == 0]
            refl = [p for p in paths if p.num_bounces == 1]
            if not los or not refl:
                continue
            best = min(refl, key=lambda p: p.excess_loss_db
                       + 20 * math.log10(p.length_m))
            gap = (best.excess_loss_db + 20 * math.log10(best.length_m)
                   - 20 * math.log10(los[0].length_m))
            gaps.append(gap)
        median_gap = float(np.median(gaps))
        assert 8.0 <= median_gap <= 20.0


# --- Differential tests: the float tracer against the Segment slow path ---

# Coordinates the tracer meets: anywhere in or just outside a room up to
# 6 m x 6 m, exactly on walls and corners, and as int or np.float64.
_ON_WALLS = (0.0, 0.8, 2.3, 3.6, 4.0, 4.9, 5.4, 6.0)
_coords = st.one_of(
    st.floats(-1.0, 7.0, allow_nan=False),
    st.sampled_from(_ON_WALLS),
    st.integers(0, 6),
    st.floats(0.0, 6.0, allow_nan=False).map(np.float64),
)
_points = st.builds(Point, _coords, _coords)
_losses = st.floats(0.0, 40.0, allow_nan=False)


@st.composite
def _rooms(draw) -> Room:
    kind = draw(st.sampled_from(["furnished", "bare", "rectangular"]))
    if kind == "rectangular":
        size = st.one_of(st.integers(2, 6),
                         st.floats(2.0, 6.0, allow_nan=False))
        room = Room.rectangular(draw(size), draw(size),
                                reflection_loss_db=draw(_losses))
    else:
        room = default_lab_room(reflection_loss_db=draw(_losses),
                                furniture=kind == "furnished")
    if draw(st.booleans()):
        room.walls = [replace(w, reflection_loss_db=draw(_losses))
                      for w in room.walls]
    if draw(st.booleans()):
        room.add_wall(Wall(Segment(Point(1.0, 3.0), Point(2.5, 3.0)),
                           reflection_loss_db=draw(_losses),
                           name="partition"))
    for _ in range(draw(st.integers(0, 3))):
        room.add_blocker(Blocker(
            draw(_points), radius_m=draw(st.floats(0.05, 0.6)),
            penetration_loss_db=draw(_losses)))
    return room


def _assert_matches_reference(tx, rx, room, max_bounces,
                              max_excess_loss_db=60.0):
    # repr pins the bits, the coordinate types (int, float, np.float64,
    # the int-0 excess of a clear LoS path) and the order.
    fast = trace_paths(tx, rx, room, max_bounces, max_excess_loss_db)
    slow = reference_trace_paths(tx, rx, room, max_bounces,
                                 max_excess_loss_db)
    assert repr(fast) == repr(slow)
    for path in fast:
        assert path.vertices[0] is tx and path.vertices[-1] is rx


class TestMatchesReference:
    @settings(max_examples=300, deadline=None)
    @given(room=_rooms(), tx=_points, rx=_points,
           max_bounces=st.integers(0, 2),
           max_excess_loss_db=st.one_of(
               st.just(60.0), st.floats(0.0, 100.0, allow_nan=False)))
    def test_random_rooms_and_points(self, room, tx, rx, max_bounces,
                                     max_excess_loss_db):
        _assert_matches_reference(tx, rx, room, max_bounces,
                                  max_excess_loss_db)

    @settings(max_examples=50, deadline=None)
    @given(room=_rooms(), tx=_points, max_bounces=st.integers(0, 2))
    def test_coincident_endpoints(self, room, tx, max_bounces):
        _assert_matches_reference(tx, tx, room, max_bounces)

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), max_bounces=st.integers(0, 2))
    def test_fig11_placements(self, seed, max_bounces):
        room = default_lab_room()
        room.add_blocker(Blocker(Point(2.0, 1.2)))
        rng = np.random.default_rng(seed)
        placement = PlacementSampler(room, rng).sample()
        _assert_matches_reference(placement.node_position,
                                  placement.ap_position, room, max_bounces)

    @pytest.mark.parametrize("facing", [True, False])
    def test_fig12_straight_out_placements(self, facing):
        # The LoS leg runs along the corridor, parallel to its side
        # walls to within an ulp: the kernel's parallel branch.
        room = Room.rectangular(width_m=4.0, length_m=20.0)
        sampler = PlacementSampler(room, np.random.default_rng(0))
        for d in np.linspace(1.0, 18.0, 12):
            placement = sampler.at_distance(float(d), facing=facing)
            _assert_matches_reference(placement.node_position,
                                      placement.ap_position, room, 2)

    def test_degenerate_wall_raises_once_reflections_are_traced(self):
        room = default_lab_room()
        room.add_wall(Wall(Segment(Point(1.0, 1.0), Point(1.0, 1.0))))
        tx, rx = Point(0.5, 0.5), Point(3.0, 5.0)
        _assert_matches_reference(tx, rx, room, 0)
        for max_bounces in (1, 2):
            for tracer in (trace_paths, reference_trace_paths):
                with pytest.raises(ValueError, match="degenerate"):
                    tracer(tx, rx, room, max_bounces)
