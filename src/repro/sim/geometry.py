"""2-D computational geometry for the ray tracer.

The primitives here are exactly the ones image-method ray tracing needs:
segment intersection (does a ray cross a wall / does a blocker occlude a
leg), point reflection across a wall line (to build mirror images), and
angle bookkeeping.

The geometry is three float kernels -- :func:`segment_intersection_xy`,
:func:`reflect_point_xy` and :func:`segment_circle_intersects_xy` -- that
take and return bare coordinates, so the tracer can test the hundreds of
candidate legs of one trace without building an object per leg.
:func:`segment_intersection` and :func:`reflect_point_across_line` are
thin :class:`Point`/:class:`Segment` wrappers over the first two.  Each
kernel keeps its expressions and their operand order: that is what
keeps every traced path bit-identical, whichever entry point a caller
uses.  Coordinates pass through unconverted, so int and ``np.float64``
inputs keep their types through the arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "Point",
    "Segment",
    "angle_of",
    "distance",
    "normalize_angle",
    "reflect_point_across_line",
    "reflect_point_xy",
    "segment_circle_intersects_xy",
    "segment_intersection",
    "segment_intersection_xy",
]


@dataclass(frozen=True)
class Point:
    """A 2-D point in metres."""

    x: float
    y: float

    def __sub__(self, other: Point) -> Point:
        return Point(self.x - other.x, self.y - other.y)

    def norm(self) -> float:
        """Euclidean length of the position vector."""
        return math.hypot(self.x, self.y)


@dataclass(frozen=True)
class Segment:
    """A line segment between two points."""

    a: Point
    b: Point

    def length(self) -> float:
        """Segment length [m]."""
        return distance(self.a, self.b)


def distance(p: Point, q: Point) -> float:
    """Euclidean distance between two points."""
    return math.hypot(p.x - q.x, p.y - q.y)


def segment_intersection_xy(px: float, py: float, ex: float, ey: float,
                            qx: float, qy: float, fx: float, fy: float,
                            tol: float = 1e-9) -> tuple[float, float] | None:
    """Intersection of segments ``p-e`` and ``q-f`` as ``(x, y)``, or ``None``.

    The kernel under :func:`segment_intersection`, on bare coordinates.
    """
    rx, ry = ex - px, ey - py
    sx, sy = fx - qx, fy - qy
    denom = rx * sy - ry * sx
    qpx, qpy = qx - px, qy - py
    if abs(denom) < tol:
        # Parallel.  Check collinearity, then overlap.
        if abs(qpx * ry - qpy * rx) > tol:
            return None
        r_len2 = rx * rx + ry * ry
        if r_len2 < tol:
            return (px, py) if math.hypot(px - qx, py - qy) < tol else None
        t0 = (qpx * rx + qpy * ry) / r_len2
        t1 = t0 + (sx * rx + sy * ry) / r_len2
        lo, hi = min(t0, t1), max(t0, t1)
        if hi < -tol or lo > 1 + tol:
            return None
        t = max(0.0, lo)
        return (px + t * rx, py + t * ry)
    t = (qpx * sy - qpy * sx) / denom
    u = (qpx * ry - qpy * rx) / denom
    if -tol <= t <= 1 + tol and -tol <= u <= 1 + tol:
        return (px + t * rx, py + t * ry)
    return None


def segment_intersection(s1: Segment, s2: Segment,
                         tol: float = 1e-9) -> Point | None:
    """Intersection point of two segments, or ``None`` if they miss.

    Endpoint touches count as intersections.  Collinear overlap returns
    the first segment's endpoint that lies on the other segment (the ray
    tracer treats grazing propagation along a wall as blocked).
    """
    hit = segment_intersection_xy(s1.a.x, s1.a.y, s1.b.x, s1.b.y,
                                  s2.a.x, s2.a.y, s2.b.x, s2.b.y, tol)
    return None if hit is None else Point(*hit)


def segment_circle_intersects_xy(px: float, py: float, ex: float, ey: float,
                                 ox: float, oy: float,
                                 radius: float) -> bool:
    """Whether segment ``p-e`` passes within ``radius`` of ``(ox, oy)``.

    On bare coordinates, as the ray tracer's blocker test calls it.
    """
    if radius < 0:
        raise ValueError("radius must be non-negative")
    ax, ay = px - ox, py - oy
    bx, by = ex - ox, ey - oy
    dx, dy = bx - ax, by - ay
    seg_len2 = dx * dx + dy * dy
    if seg_len2 == 0.0:
        return math.hypot(ax, ay) <= radius
    t = -(ax * dx + ay * dy) / seg_len2
    t = max(0.0, min(1.0, t))
    cx, cy = ax + t * dx, ay + t * dy
    return math.hypot(cx, cy) <= radius


def reflect_point_xy(px: float, py: float, ax: float, ay: float,
                     bx: float, by: float) -> tuple[float, float]:
    """Mirror image of ``(px, py)`` across the line through ``a`` and ``b``.

    The kernel under :func:`reflect_point_across_line`, on bare
    coordinates; returns ``(x, y)``.
    """
    dx, dy = bx - ax, by - ay
    len2 = dx * dx + dy * dy
    if len2 == 0.0:
        raise ValueError("degenerate line segment")
    t = ((px - ax) * dx + (py - ay) * dy) / len2
    foot_x, foot_y = ax + t * dx, ay + t * dy
    return 2.0 * foot_x - px, 2.0 * foot_y - py


def reflect_point_across_line(p: Point, line: Segment) -> Point:
    """Mirror image of ``p`` across the infinite line through ``line``.

    The image method: a first-order reflection off a wall is equivalent to
    a straight ray from the mirrored source.
    """
    return Point(*reflect_point_xy(p.x, p.y, line.a.x, line.a.y,
                                   line.b.x, line.b.y))


def angle_of(origin: Point, target: Point) -> float:
    """Absolute bearing [rad] of ``target`` as seen from ``origin``."""
    return math.atan2(target.y - origin.y, target.x - origin.x)


def normalize_angle(theta: float) -> float:
    """Wrap an angle to (-pi, pi]."""
    theta = math.fmod(theta, 2.0 * math.pi)
    if theta > math.pi:
        theta -= 2.0 * math.pi
    elif theta <= -math.pi:
        theta += 2.0 * math.pi
    return theta
