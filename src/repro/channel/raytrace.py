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

``max_bounces`` ranges over 0 (LoS only), 1 and 2.  The tracer runs on
plain floats: each call copies the room's walls and blockers into
coordinate tables, tests every candidate leg with the float kernels of
:mod:`repro.sim.geometry`, and builds :class:`~repro.sim.geometry.Point`
and :class:`PropagationPath` objects only for the paths it keeps.  The
kernels carry the same arithmetic as the ``Point``/``Segment`` functions,
so the paths are bit-identical to tracing with those.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..sim.environment import Room
from ..sim.geometry import (
    Point,
    reflect_point_xy,
    segment_circle_intersects_xy,
    segment_intersection_xy,
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


def _blocked(occluders: list[tuple[int, float, float, float, float]],
             skip: tuple[int, ...],
             ax: float, ay: float, bx: float, by: float) -> bool:
    """Whether any occluding wall not in ``skip`` cuts leg ``a-b``."""
    for k, cx, cy, dx, dy in occluders:
        if k in skip:
            continue
        hit = segment_intersection_xy(ax, ay, bx, by, cx, cy, dx, dy)
        if hit is None:
            continue
        # Endpoint grazes (the leg starts/ends exactly on the wall, e.g.
        # the bounce point itself) do not count as blockage.
        hx, hy = hit
        if (math.hypot(hx - ax, hy - ay) > 1e-6
                and math.hypot(hx - bx, hy - by) > 1e-6):
            return True
    return False


def _blockage_db(blockers: list[tuple[float, float, float, float]],
                 ax: float, ay: float, bx: float, by: float) -> float:
    """Blocker penetration loss along leg ``a-b``, as
    :meth:`~repro.sim.environment.Room.blockage_loss_db` sums it."""
    return sum(loss for ox, oy, radius, loss in blockers
               if segment_circle_intersects_xy(ax, ay, bx, by,
                                               ox, oy, radius))


def trace_paths(tx: Point, rx: Point, room: Room,
                max_bounces: int = 1,
                max_excess_loss_db: float = 60.0) -> list[PropagationPath]:
    """All propagation paths between ``tx`` and ``rx`` up to ``max_bounces``.

    ``max_bounces`` is 0 (LoS only), 1 or 2; the tracer finds no
    third-order reflections, so a larger value raises ``ValueError``.
    Paths whose excess loss exceeds ``max_excess_loss_db`` are pruned —
    they are irrelevant against the paper's 10-35 dB SNR operating range.
    Results are sorted by increasing excess-plus-spreading significance
    (LoS first, then strongest reflections).
    """
    if max_bounces < 0:
        raise ValueError("max_bounces must be >= 0")
    if max_bounces > 2:
        raise ValueError("max_bounces must be <= 2")
    # Per-call tables: a Room's walls and blockers can change between
    # calls, and building these costs a few microseconds.
    walls = [(w.segment.a.x, w.segment.a.y, w.segment.b.x, w.segment.b.y)
             for w in room.walls]
    wall_loss = [w.reflection_loss_db for w in room.walls]
    occluders = [(k, *walls[k]) for k, w in enumerate(room.walls)
                 if w.occludes]
    blockers = [(b.position.x, b.position.y, b.radius_m,
                 b.penetration_loss_db) for b in room.blockers]
    tx_x, tx_y = tx.x, tx.y
    rx_x, rx_y = rx.x, rx.y
    paths: list[PropagationPath] = []

    if not _blocked(occluders, (), tx_x, tx_y, rx_x, rx_y):
        excess = _blockage_db(blockers, tx_x, tx_y, rx_x, rx_y)
        if excess <= max_excess_loss_db:
            paths.append(PropagationPath(
                vertices=(tx, rx),
                length_m=math.hypot(tx_x - rx_x, tx_y - rx_y),
                departure_bearing_rad=math.atan2(rx_y - tx_y, rx_x - tx_x),
                arrival_bearing_rad=math.atan2(tx_y - rx_y, tx_x - rx_x),
                excess_loss_db=excess,
                kind="los",
                num_bounces=0,
            ))

    # rx's mirror image in each wall, shared by every candidate through it.
    images = ([reflect_point_xy(rx_x, rx_y, ax, ay, bx, by)
               for ax, ay, bx, by in walls] if max_bounces >= 1 else [])
    for i, (mx, my) in enumerate(images):
        ax, ay, bx, by = walls[i]
        bounce = segment_intersection_xy(tx_x, tx_y, mx, my, ax, ay, bx, by)
        if bounce is None:
            continue
        px, py = bounce
        len1 = math.hypot(tx_x - px, tx_y - py)
        len2 = math.hypot(px - rx_x, py - rx_y)
        if len1 < 1e-6 or len2 < 1e-6:
            continue
        skip = (i,)
        if (_blocked(occluders, skip, tx_x, tx_y, px, py)
                or _blocked(occluders, skip, px, py, rx_x, rx_y)):
            continue
        excess = (wall_loss[i]
                  + _blockage_db(blockers, tx_x, tx_y, px, py)
                  + _blockage_db(blockers, px, py, rx_x, rx_y))
        if excess <= max_excess_loss_db:
            paths.append(PropagationPath(
                vertices=(tx, Point(px, py), rx),
                length_m=len1 + len2,
                departure_bearing_rad=math.atan2(py - tx_y, px - tx_x),
                arrival_bearing_rad=math.atan2(py - rx_y, px - rx_x),
                excess_loss_db=excess,
                kind="reflection",
                num_bounces=1,
            ))

    if max_bounces >= 2:
        # First bounce off wall i, second off wall j.
        for i, (ax, ay, bx, by) in enumerate(walls):
            for j, (m2x, m2y) in enumerate(images):
                if i == j:
                    continue
                m1x, m1y = reflect_point_xy(m2x, m2y, ax, ay, bx, by)
                bounce1 = segment_intersection_xy(tx_x, tx_y, m1x, m1y,
                                                  ax, ay, bx, by)
                if bounce1 is None:
                    continue
                p1x, p1y = bounce1
                cx, cy, dx, dy = walls[j]
                bounce2 = segment_intersection_xy(p1x, p1y, m2x, m2y,
                                                  cx, cy, dx, dy)
                if bounce2 is None:
                    continue
                p2x, p2y = bounce2
                len1 = math.hypot(tx_x - p1x, tx_y - p1y)
                len2 = math.hypot(p1x - p2x, p1y - p2y)
                len3 = math.hypot(p2x - rx_x, p2y - rx_y)
                if len1 < 1e-6 or len2 < 1e-6 or len3 < 1e-6:
                    continue
                if (_blocked(occluders, (i,), tx_x, tx_y, p1x, p1y)
                        or _blocked(occluders, (i, j), p1x, p1y, p2x, p2y)
                        or _blocked(occluders, (j,), p2x, p2y, rx_x, rx_y)):
                    continue
                # sum(), not +: from Python 3.12 sum() compensates float
                # rounding, so + could move the last bit of these totals.
                excess = (wall_loss[i] + wall_loss[j] + sum((
                    _blockage_db(blockers, tx_x, tx_y, p1x, p1y),
                    _blockage_db(blockers, p1x, p1y, p2x, p2y),
                    _blockage_db(blockers, p2x, p2y, rx_x, rx_y))))
                if excess <= max_excess_loss_db:
                    paths.append(PropagationPath(
                        vertices=(tx, Point(p1x, p1y), Point(p2x, p2y), rx),
                        length_m=sum((len1, len2, len3)),
                        departure_bearing_rad=math.atan2(p1y - tx_y,
                                                         p1x - tx_x),
                        arrival_bearing_rad=math.atan2(p2y - rx_y,
                                                       p2x - rx_x),
                        excess_loss_db=excess,
                        kind="reflection2",
                        num_bounces=2,
                    ))

    # Sort by a rough strength proxy: excess loss plus spreading loss
    # relative to a 1 m reference (20 log10 of the length ratio).
    paths.sort(key=lambda p: p.excess_loss_db
               + float(amplitude_to_db(max(p.length_m, 1e-3))))
    return paths
