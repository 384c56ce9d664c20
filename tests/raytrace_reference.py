"""Reference image-method tracer: the ``Segment``-based slow path.

This is :func:`repro.channel.raytrace.trace_paths` as it was before the
tracer moved onto the float kernels of :mod:`repro.sim.geometry`, kept
verbatim -- geometry included -- so the differential tests can demand
``repr``-equal output (same bits, same types, same order) from the fast
path.  It shares only the data types (``Point``, ``Segment``, ``Room``,
``PropagationPath``) and the sort key's ``amplitude_to_db`` with the
program.
"""

from __future__ import annotations

import math

from repro.channel.raytrace import PropagationPath
from repro.sim.environment import Room, Wall
from repro.sim.geometry import Point, Segment
from repro.units import amplitude_to_db

__all__ = [
    "reference_reflect_point_across_line",
    "reference_segment_circle_intersects",
    "reference_segment_intersection",
    "reference_trace_paths",
]


def _distance(p: Point, q: Point) -> float:
    return math.hypot(p.x - q.x, p.y - q.y)


def _angle_of(origin: Point, target: Point) -> float:
    return math.atan2(target.y - origin.y, target.x - origin.x)


def reference_segment_intersection(s1: Segment, s2: Segment,
                                   tol: float = 1e-9) -> Point | None:
    p, r_end = s1.a, s1.b
    q, s_end = s2.a, s2.b
    rx, ry = r_end.x - p.x, r_end.y - p.y
    sx, sy = s_end.x - q.x, s_end.y - q.y
    denom = rx * sy - ry * sx
    qpx, qpy = q.x - p.x, q.y - p.y
    if abs(denom) < tol:
        if abs(qpx * ry - qpy * rx) > tol:
            return None
        r_len2 = rx * rx + ry * ry
        if r_len2 < tol:
            return p if _distance(p, q) < tol else None
        t0 = (qpx * rx + qpy * ry) / r_len2
        t1 = t0 + (sx * rx + sy * ry) / r_len2
        lo, hi = min(t0, t1), max(t0, t1)
        if hi < -tol or lo > 1 + tol:
            return None
        t = max(0.0, lo)
        return Point(p.x + t * rx, p.y + t * ry)
    t = (qpx * sy - qpy * sx) / denom
    u = (qpx * ry - qpy * rx) / denom
    if -tol <= t <= 1 + tol and -tol <= u <= 1 + tol:
        return Point(p.x + t * rx, p.y + t * ry)
    return None


def reference_segment_circle_intersects(seg: Segment, centre: Point,
                                        radius: float) -> bool:
    if radius < 0:
        raise ValueError("radius must be non-negative")
    ax, ay = seg.a.x - centre.x, seg.a.y - centre.y
    bx, by = seg.b.x - centre.x, seg.b.y - centre.y
    dx, dy = bx - ax, by - ay
    seg_len2 = dx * dx + dy * dy
    if seg_len2 == 0.0:
        return math.hypot(ax, ay) <= radius
    t = -(ax * dx + ay * dy) / seg_len2
    t = max(0.0, min(1.0, t))
    cx, cy = ax + t * dx, ay + t * dy
    return math.hypot(cx, cy) <= radius


def reference_reflect_point_across_line(p: Point, line: Segment) -> Point:
    ax, ay = line.a.x, line.a.y
    dx, dy = line.b.x - ax, line.b.y - ay
    len2 = dx * dx + dy * dy
    if len2 == 0.0:
        raise ValueError("degenerate line segment")
    t = ((p.x - ax) * dx + (p.y - ay) * dy) / len2
    foot = Point(ax + t * dx, ay + t * dy)
    return Point(2.0 * foot.x - p.x, 2.0 * foot.y - p.y)


def _wall_blocks(leg: Segment, walls: list[Wall], skip: set[int]) -> bool:
    for i, wall in enumerate(walls):
        if i in skip or not wall.occludes:
            continue
        hit = reference_segment_intersection(leg, wall.segment)
        if hit is None:
            continue
        if _distance(hit, leg.a) > 1e-6 and _distance(hit, leg.b) > 1e-6:
            return True
    return False


def _leg_loss_db(leg: Segment, room: Room) -> float:
    return sum(b.penetration_loss_db for b in room.blockers
               if reference_segment_circle_intersects(leg, b.position,
                                                      b.radius_m))


def _los_path(tx: Point, rx: Point, room: Room) -> PropagationPath | None:
    leg = Segment(tx, rx)
    if _wall_blocks(leg, room.walls, skip=set()):
        return None
    return PropagationPath(
        vertices=(tx, rx),
        length_m=_distance(leg.a, leg.b),
        departure_bearing_rad=_angle_of(tx, rx),
        arrival_bearing_rad=_angle_of(rx, tx),
        excess_loss_db=_leg_loss_db(leg, room),
        kind="los",
        num_bounces=0,
    )


def _first_order_path(tx: Point, rx: Point, room: Room,
                      wall_idx: int, image: Point) -> PropagationPath | None:
    wall = room.walls[wall_idx]
    bounce = reference_segment_intersection(Segment(tx, image), wall.segment)
    if bounce is None:
        return None
    leg1 = Segment(tx, bounce)
    leg2 = Segment(bounce, rx)
    if _distance(leg1.a, leg1.b) < 1e-6 or _distance(leg2.a, leg2.b) < 1e-6:
        return None
    if (_wall_blocks(leg1, room.walls, skip={wall_idx})
            or _wall_blocks(leg2, room.walls, skip={wall_idx})):
        return None
    excess = (wall.reflection_loss_db
              + _leg_loss_db(leg1, room) + _leg_loss_db(leg2, room))
    return PropagationPath(
        vertices=(tx, bounce, rx),
        length_m=_distance(leg1.a, leg1.b) + _distance(leg2.a, leg2.b),
        departure_bearing_rad=_angle_of(tx, bounce),
        arrival_bearing_rad=_angle_of(rx, bounce),
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
    image1 = reference_reflect_point_across_line(image2, w1.segment)
    bounce1 = reference_segment_intersection(Segment(tx, image1), w1.segment)
    if bounce1 is None:
        return None
    bounce2 = reference_segment_intersection(Segment(bounce1, image2),
                                             w2.segment)
    if bounce2 is None:
        return None
    legs = [Segment(tx, bounce1), Segment(bounce1, bounce2),
            Segment(bounce2, rx)]
    if any(_distance(leg.a, leg.b) < 1e-6 for leg in legs):
        return None
    skips = [{first_idx}, {first_idx, second_idx}, {second_idx}]
    for leg, skip in zip(legs, skips):
        if _wall_blocks(leg, room.walls, skip=skip):
            return None
    excess = (w1.reflection_loss_db + w2.reflection_loss_db
              + sum(_leg_loss_db(leg, room) for leg in legs))
    return PropagationPath(
        vertices=(tx, bounce1, bounce2, rx),
        length_m=sum(_distance(leg.a, leg.b) for leg in legs),
        departure_bearing_rad=_angle_of(tx, bounce1),
        arrival_bearing_rad=_angle_of(rx, bounce2),
        excess_loss_db=excess,
        kind="reflection2",
        num_bounces=2,
    )


def reference_trace_paths(tx: Point, rx: Point, room: Room,
                          max_bounces: int = 1,
                          max_excess_loss_db: float = 60.0
                          ) -> list[PropagationPath]:
    """The slow path, for ``max_bounces`` in 0..2."""
    if not 0 <= max_bounces <= 2:
        raise ValueError("the reference traces 0 to 2 bounces")
    paths: list[PropagationPath] = []
    los = _los_path(tx, rx, room)
    if los is not None:
        paths.append(los)
    images = ([reference_reflect_point_across_line(rx, wall.segment)
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
    paths.sort(key=lambda p: p.excess_loss_db
               + float(amplitude_to_db(max(p.length_m, 1e-3))))
    return paths
