"""Tests for rooms, walls and blockers."""

import numpy as np
import pytest

from repro.constants import EVAL_ROOM_LENGTH_M, EVAL_ROOM_WIDTH_M
from repro.sim.environment import Blocker, Room, Wall, default_lab_room
from repro.sim.geometry import Point, Segment


class TestWall:
    def test_negative_loss_rejected(self):
        with pytest.raises(ValueError):
            Wall(Segment(Point(0, 0), Point(1, 0)), reflection_loss_db=-1.0)

    def test_occludes_default_true(self):
        wall = Wall(Segment(Point(0, 0), Point(1, 0)))
        assert wall.occludes


class TestBlocker:
    def test_moved_to_preserves_loss(self):
        person = Blocker(Point(0, 0), penetration_loss_db=30.0)
        moved = person.moved_to(Point(1, 1))
        assert moved.penetration_loss_db == 30.0
        assert (moved.position.x, moved.position.y) == (1.0, 1.0)

    def test_default_loss_in_blocked_band(self):
        # Composed 20-35 dB band of section 6.1.
        assert 20.0 <= Blocker(Point(0, 0)).penetration_loss_db <= 35.0

    def test_invalid_radius(self):
        with pytest.raises(ValueError):
            Blocker(Point(0, 0), radius_m=0.0)


class TestRoom:
    def test_rectangular_has_four_walls(self):
        room = Room.rectangular(4.0, 6.0)
        assert len(room.walls) == 4
        names = {w.name for w in room.walls}
        assert names == {"north", "south", "east", "west"}

    def test_contains(self):
        room = Room.rectangular(4.0, 6.0)
        assert room.contains(Point(2, 3))
        assert not room.contains(Point(5, 3))
        assert not room.contains(Point(2, 3), margin=10.0)

    def test_clear_blockers(self):
        room = Room.rectangular()
        room.add_blocker(Blocker(Point(2, 3)))
        room.clear_blockers()
        assert room.blockers == []

    def test_random_interior_point_respects_margin(self, rng):
        room = Room.rectangular(4.0, 6.0)
        for _ in range(50):
            p = room.random_interior_point(rng, margin=0.5)
            assert room.contains(p, margin=0.5 - 1e-9)

    def test_margin_too_large(self, rng):
        room = Room.rectangular(1.0, 1.0)
        with pytest.raises(ValueError):
            room.random_interior_point(rng, margin=0.6)

    def test_invalid_dimensions(self):
        with pytest.raises(ValueError):
            Room.rectangular(0.0, 6.0)


class TestDefaultLabRoom:
    def test_dimensions_match_paper(self):
        room = default_lab_room()
        assert room.width_m == EVAL_ROOM_WIDTH_M
        assert room.length_m == EVAL_ROOM_LENGTH_M

    def test_furniture_present_by_default(self):
        room = default_lab_room()
        assert len(room.walls) > 4

    def test_furniture_does_not_occlude(self):
        room = default_lab_room()
        for wall in room.walls[4:]:
            assert not wall.occludes

    def test_bare_room_option(self):
        assert len(default_lab_room(furniture=False).walls) == 4

    def test_rng_draws_material_loss(self):
        room = default_lab_room(rng=np.random.default_rng(0))
        assert 5.0 <= room.walls[0].reflection_loss_db <= 10.0

    def test_explicit_loss_respected(self):
        room = default_lab_room(reflection_loss_db=9.0)
        assert room.walls[0].reflection_loss_db == 9.0
