"""Image-method ray tracing over the room geometry.

Finds the sparse set of propagation paths between a node and the AP:
the direct (LoS) leg plus first- and optionally second-order wall
reflections.  Each path records its total length, the departure bearing at
the transmitter and arrival bearing at the receiver (absolute angles; the
caller converts to antenna-relative angles), and its *excess* loss —
reflection losses plus any blocker penetration along its legs.

This is the substrate for everything the paper's Fig. 2 and Fig. 4
describe: the LoS path, the environmental reflection OTAM's Beam 0 uses,
and the way a person standing in the LoS leg pushes the direct path 10-15
dB below the reflected one.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..sim.environment import Room, Wall
from ..sim.geometry import (
    Point,
    Segment,
    angle_of,
    distance,
    reflect_point_across_line,
    segment_intersection,
)
from ..units import amplitude_to_db

__all__ = ["PropagationPath", "trace_paths"]


@dataclass(frozen=True)
class PropagationPath:
    """One resolved propagation path between transmitter and receiver."""

    vertices: tuple[Point, ...]
    """Polyline from transmitter to receiver, including bounce points."""

    length_m: float
    """Total unfolded path length [m]."""

    departure_bearing_rad: float
    """Absolute bearing of the first leg, as seen at the transmitter."""

    arrival_bearing_rad: float
    """Absolute bearing pointing from receiver back along the last leg."""

    excess_loss_db: float
    """Reflection + blockage loss beyond free-space over ``length_m``."""

    kind: str
    """'los', 'reflection' or 'reflection2'."""

    num_bounces: int
    """Number of wall reflections along the path."""

    @property
    def is_los(self) -> bool:
        """Whether this is the direct line-of-sight path."""
        return self.num_bounces == 0


def _wall_blocks(leg: Segment, walls: list[Wall],
                 skip: set[int]) -> bool:
    """Whether any wall (except those in ``skip``) cuts a leg's interior."""
    for i, wall in enumerate(walls):
        if i in skip or not wall.occludes:
            continue
        hit = segment_intersection(leg, wall.segment)
        if hit is None:
            continue
        # Endpoint grazes (the leg starts/ends exactly on the wall, e.g.
        # the bounce point itself) do not count as blockage.
        if distance(hit, leg.a) > 1e-6 and distance(hit, leg.b) > 1e-6:
            return True
    return False


def _leg_loss_db(leg: Segment, room: Room) -> float:
    """Blocker penetration loss along one leg."""
    return room.blockage_loss_db(leg)


def _los_path(tx: Point, rx: Point, room: Room) -> PropagationPath | None:
    leg = Segment(tx, rx)
    if _wall_blocks(leg, room.walls, skip=set()):
        return None
    return PropagationPath(
        vertices=(tx, rx),
        length_m=leg.length(),
        departure_bearing_rad=angle_of(tx, rx),
        arrival_bearing_rad=angle_of(rx, tx),
        excess_loss_db=_leg_loss_db(leg, room),
        kind="los",
        num_bounces=0,
    )


def _first_order_path(tx: Point, rx: Point, room: Room,
                      wall_idx: int, image: Point) -> PropagationPath | None:
    wall = room.walls[wall_idx]
    bounce = segment_intersection(Segment(tx, image), wall.segment)
    if bounce is None:
        return None
    leg1 = Segment(tx, bounce)
    leg2 = Segment(bounce, rx)
    if leg1.length() < 1e-6 or leg2.length() < 1e-6:
        return None
    if (_wall_blocks(leg1, room.walls, skip={wall_idx})
            or _wall_blocks(leg2, room.walls, skip={wall_idx})):
        return None
    excess = (wall.reflection_loss_db
              + _leg_loss_db(leg1, room) + _leg_loss_db(leg2, room))
    return PropagationPath(
        vertices=(tx, bounce, rx),
        length_m=leg1.length() + leg2.length(),
        departure_bearing_rad=angle_of(tx, bounce),
        arrival_bearing_rad=angle_of(rx, bounce),
        excess_loss_db=excess,
        kind="reflection",
        num_bounces=1,
    )


def _second_order_path(tx: Point, rx: Point, room: Room,
                       first_idx: int, second_idx: int, image2: Point
                       ) -> PropagationPath | None:
    if first_idx == second_idx:
        return None
    w1 = room.walls[first_idx]
    w2 = room.walls[second_idx]
    # image2 is rx's image in w2; reflect it again in w1.
    image1 = reflect_point_across_line(image2, w1.segment)
    bounce1 = segment_intersection(Segment(tx, image1), w1.segment)
    if bounce1 is None:
        return None
    bounce2 = segment_intersection(Segment(bounce1, image2), w2.segment)
    if bounce2 is None:
        return None
    legs = [Segment(tx, bounce1), Segment(bounce1, bounce2),
            Segment(bounce2, rx)]
    if any(leg.length() < 1e-6 for leg in legs):
        return None
    skips = [{first_idx}, {first_idx, second_idx}, {second_idx}]
    for leg, skip in zip(legs, skips):
        if _wall_blocks(leg, room.walls, skip=skip):
            return None
    excess = (w1.reflection_loss_db + w2.reflection_loss_db
              + sum(_leg_loss_db(leg, room) for leg in legs))
    return PropagationPath(
        vertices=(tx, bounce1, bounce2, rx),
        length_m=sum(leg.length() for leg in legs),
        departure_bearing_rad=angle_of(tx, bounce1),
        arrival_bearing_rad=angle_of(rx, bounce2),
        excess_loss_db=excess,
        kind="reflection2",
        num_bounces=2,
    )


def trace_paths(tx: Point, rx: Point, room: Room,
                max_bounces: int = 1,
                max_excess_loss_db: float = 60.0) -> list[PropagationPath]:
    """All propagation paths between ``tx`` and ``rx`` up to ``max_bounces``.

    Paths whose excess loss exceeds ``max_excess_loss_db`` are pruned —
    they are irrelevant against the paper's 10-35 dB SNR operating range.
    Results are sorted by increasing excess-plus-spreading significance
    (LoS first, then strongest reflections).
    """
    if max_bounces < 0:
        raise ValueError("max_bounces must be >= 0")
    paths: list[PropagationPath] = []
    los = _los_path(tx, rx, room)
    if los is not None:
        paths.append(los)
    # rx's image in each wall, shared by every candidate through it.
    images = ([reflect_point_across_line(rx, wall.segment)
               for wall in room.walls] if max_bounces >= 1 else [])
    for i, image in enumerate(images):
        p = _first_order_path(tx, rx, room, i, image)
        if p is not None:
            paths.append(p)
    if max_bounces >= 2:
        for i in range(len(room.walls)):
            for j, image in enumerate(images):
                p = _second_order_path(tx, rx, room, i, j, image)
                if p is not None:
                    paths.append(p)
    paths = [p for p in paths if p.excess_loss_db <= max_excess_loss_db]
    # Sort by a rough strength proxy: excess loss plus spreading loss
    # relative to a 1 m reference (20 log10 of the length ratio).
    paths.sort(key=lambda p: p.excess_loss_db
               + float(amplitude_to_db(max(p.length_m, 1e-3))))
    return paths
