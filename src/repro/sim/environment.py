"""Rooms, walls and blockers — the synthetic 6 m x 4 m lab.

The paper evaluates mmX "in a lab area with standard furniture" where
walls/furniture provide the NLoS reflections OTAM depends on, and walking
people provide blockage (section 9).  A :class:`Room` is a set of
reflective :class:`Wall` segments plus circular :class:`Blocker` objects.

Reflection losses are drawn from the attenuation bands the paper quotes
(section 6.1): an NLoS bounce costs 10-20 dB over the LoS path, and a
human blocker adds another 10-15 dB.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from ..constants import (
    EVAL_ROOM_LENGTH_M,
    EVAL_ROOM_WIDTH_M,
)
from .geometry import Point, Segment

__all__ = ["Wall", "Blocker", "Room", "default_lab_room"]


@dataclass(frozen=True)
class Wall:
    """A reflective planar surface (wall, closet face, whiteboard...).

    ``reflection_loss_db`` is the *material* loss a ray pays at the
    bounce itself.  Note this is deliberately smaller than the paper's
    10-20 dB "NLoS excess" band: that band is the *end-to-end* gap
    between an NLoS and the LoS path, and the ray tracer already pays
    the extra spreading loss and antenna-pattern mismatch explicitly.
    Specular reflection off drywall/furniture at 24 GHz costs ~4-10 dB;
    the emergent end-to-end NLoS excess then lands in the paper's band
    (asserted by the channel tests).
    """

    segment: Segment
    reflection_loss_db: float = 7.0
    name: str = "wall"
    occludes: bool = True
    """Whether rays crossing this surface are blocked.  Room walls do
    block; furniture below antenna height reflects (grazing bounce) but
    does not cut a line-of-sight at sensor height, so furniture pieces
    set this to False."""

    def __post_init__(self):
        if self.reflection_loss_db < 0:
            raise ValueError("reflection loss cannot be negative")


@dataclass(frozen=True)
class Blocker:
    """A circular obstacle — typically a person (radius ~0.25 m).

    ``penetration_loss_db`` is the extra loss a ray pays for passing
    through the blocker.  Section 6.1's bands compose to 20-35 dB total
    excess for a blocked LoS path (NLoS band + blockage band), so a
    body costs ~27.5 dB by default — consistent with published mmWave
    human-blockage measurements (20-40 dB).
    """

    position: Point
    radius_m: float = 0.25
    penetration_loss_db: float = 27.5
    name: str = "person"

    def __post_init__(self):
        if self.radius_m <= 0:
            raise ValueError("blocker radius must be positive")
        if self.penetration_loss_db < 0:
            raise ValueError("penetration loss cannot be negative")

    def moved_to(self, position: Point) -> Blocker:
        """Copy of this blocker at a new position (for mobility models)."""
        return replace(self, position=position)


@dataclass
class Room:
    """A 2-D environment: reflective walls plus movable blockers."""

    walls: list[Wall] = field(default_factory=list)
    blockers: list[Blocker] = field(default_factory=list)
    width_m: float = EVAL_ROOM_WIDTH_M
    length_m: float = EVAL_ROOM_LENGTH_M

    @classmethod
    def rectangular(cls, width_m: float = EVAL_ROOM_WIDTH_M,
                    length_m: float = EVAL_ROOM_LENGTH_M,
                    reflection_loss_db: float = 7.0) -> Room:
        """Axis-aligned rectangular room with four reflective walls.

        The room occupies ``[0, width] x [0, length]`` — x across the
        short side, y along the long side, matching the axes of the
        paper's Fig. 10 heatmaps (x to 3 m-ish, y to 6 m).
        """
        if width_m <= 0 or length_m <= 0:
            raise ValueError("room dimensions must be positive")
        corners = [
            Point(0.0, 0.0),
            Point(width_m, 0.0),
            Point(width_m, length_m),
            Point(0.0, length_m),
        ]
        names = ["south", "east", "north", "west"]
        walls = [
            Wall(Segment(corners[i], corners[(i + 1) % 4]),
                 reflection_loss_db=reflection_loss_db, name=names[i])
            for i in range(4)
        ]
        return cls(walls=walls, width_m=width_m, length_m=length_m)

    def add_wall(self, wall: Wall) -> None:
        """Add an interior reflector (furniture face, partition...)."""
        self.walls.append(wall)

    def add_blocker(self, blocker: Blocker) -> None:
        """Add an obstacle."""
        self.blockers.append(blocker)

    def clear_blockers(self) -> None:
        """Remove all obstacles (walls stay)."""
        self.blockers = []

    def contains(self, p: Point, margin: float = 0.0) -> bool:
        """Whether a point lies inside the rectangular footprint."""
        return (margin <= p.x <= self.width_m - margin
                and margin <= p.y <= self.length_m - margin)

    def random_interior_point(self, rng: np.random.Generator,
                              margin: float = 0.3) -> Point:
        """Uniform random point inside the room, away from the walls."""
        if margin * 2 >= min(self.width_m, self.length_m):
            raise ValueError("margin too large for this room")
        x = rng.uniform(margin, self.width_m - margin)
        y = rng.uniform(margin, self.length_m - margin)
        return Point(float(x), float(y))


def default_lab_room(rng: np.random.Generator | None = None,
                     reflection_loss_db: float | None = None,
                     furniture: bool = True) -> Room:
    """The paper's 6 m x 4 m lab (section 9.2).

    Walls get a reflection loss drawn from (or centred in) the paper's
    10-20 dB NLoS excess band.  ``furniture`` adds the "standard
    furniture such as desks, chairs, computers and closets" the paper
    describes: interior reflector faces along the sides of the room.
    These matter — they are the environmental reflectors Beam 0 relies
    on, and without them the two beams too often see near-identical path
    sets.
    """
    if reflection_loss_db is None:
        if rng is None:
            reflection_loss_db = 7.0
        else:
            reflection_loss_db = float(rng.uniform(5.0, 10.0))
    room = Room.rectangular(EVAL_ROOM_WIDTH_M, EVAL_ROOM_LENGTH_M,
                            reflection_loss_db=reflection_loss_db)
    if furniture:
        pieces = [
            # (segment, material loss dB, name): desks/closets hug the
            # walls; a metal cabinet reflects harder than wood.
            (Segment(Point(0.0, 2.3), Point(0.8, 2.3)), 6.0, "desk-west"),
            (Segment(Point(3.2, 3.6), Point(4.0, 3.6)), 6.0, "desk-east"),
            (Segment(Point(0.0, 4.9), Point(0.6, 4.9)), 5.0, "closet"),
            (Segment(Point(1.6, 5.4), Point(2.4, 5.4)), 4.0, "cabinet"),
        ]
        for segment, loss, name in pieces:
            room.add_wall(Wall(segment, reflection_loss_db=loss, name=name,
                               occludes=False))
    return room
