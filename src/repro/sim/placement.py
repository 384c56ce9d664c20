"""Node/AP placement sampling matching the paper's experimental protocol.

Section 9.2: the AP sits on one side of the room; nodes are placed "at
random locations and heights" with orientation (w.r.t. the AP) "randomly
picked between -60 and 60 degrees".  The reproduction is 2-D, so height
variation maps to a small orientation/gain perturbation within the 65°
elevation beamwidth — negligible by the paper's own argument.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..constants import EVAL_ORIENTATION_RANGE_DEG
from .environment import Room
from .geometry import Point, angle_of, normalize_angle

__all__ = ["Placement", "PlacementSampler"]


@dataclass(frozen=True)
class Placement:
    """One experimental placement: node pose plus the fixed AP pose."""

    node_position: Point
    node_orientation_rad: float
    ap_position: Point
    ap_orientation_rad: float

    @property
    def distance_m(self) -> float:
        """Node-AP separation [m]."""
        return math.hypot(self.node_position.x - self.ap_position.x,
                          self.node_position.y - self.ap_position.y)

    @property
    def offset_from_ap_rad(self) -> float:
        """Angle between the node's boresight and the AP direction."""
        bearing = angle_of(self.node_position, self.ap_position)
        return normalize_angle(bearing - self.node_orientation_rad)


class PlacementSampler:
    """Draws placements per the paper's protocol inside a room."""

    def __init__(self, room: Room, rng: np.random.Generator,
                 orientation_range_deg=EVAL_ORIENTATION_RANGE_DEG,
                 margin_m: float = 0.3):
        self.room = room
        self.rng = rng
        self.margin_m = margin_m
        lo, hi = orientation_range_deg
        if hi < lo:
            raise ValueError("invalid orientation range")
        self.orientation_range_rad = (math.radians(lo), math.radians(hi))
        # "We place mmX's AP on one side of the room": mid-width, near y=0.
        self.ap_position = Point(room.width_m / 2.0, 0.15)
        # AP faces into the room (+y).
        self.ap_orientation_rad = math.pi / 2.0

    def sample(self) -> Placement:
        """One placement: uniform node location, bounded orientation offset.

        The node's boresight points at the AP plus a uniform offset in the
        configured range — exactly "orientation with respect to the AP
        randomly picked between -60 and 60 degrees".
        """
        node = self.room.random_interior_point(self.rng, self.margin_m)
        # Avoid degenerate zero-distance placements right at the AP.
        while (math.hypot(node.x - self.ap_position.x,
                          node.y - self.ap_position.y) < 0.5):
            node = self.room.random_interior_point(self.rng, self.margin_m)
        toward_ap = angle_of(node, self.ap_position)
        offset = float(self.rng.uniform(*self.orientation_range_rad))
        return Placement(
            node_position=node,
            node_orientation_rad=normalize_angle(toward_ap + offset),
            ap_position=self.ap_position,
            ap_orientation_rad=self.ap_orientation_rad,
        )

    def sample_many(self, count: int) -> list[Placement]:
        """Draw ``count`` independent placements."""
        if count < 0:
            raise ValueError("count cannot be negative")
        return [self.sample() for _ in range(count)]

    def at_distance(self, distance_m: float,
                    facing: bool = True) -> Placement:
        """Deterministic placement at a distance straight out from the AP.

        Used by the range experiment (Fig. 12): ``facing=True`` points the
        node's broadside Beam 1 at the AP (scenario 1); ``facing=False``
        rotates the node 30° so only one arm of Beam 0 points at the AP
        (scenario 2).
        """
        if distance_m <= 0:
            raise ValueError("distance must be positive")
        direction = self.ap_orientation_rad
        node = Point(self.ap_position.x + distance_m * math.cos(direction),
                     self.ap_position.y + distance_m * math.sin(direction))
        toward_ap = angle_of(node, self.ap_position)
        offset = 0.0 if facing else math.radians(30.0)
        return Placement(
            node_position=node,
            node_orientation_rad=normalize_angle(toward_ap + offset),
            ap_position=self.ap_position,
            ap_orientation_rad=self.ap_orientation_rad,
        )
