"""Mobility models for human blockers.

Section 9.2's protocol: "We also asked people to walk around. In order to
block the signal, one person was blocking the line-of-sight path between
the node and the AP for the entire duration of the experiment."  These
models supply a walker crossing a fixed path and the dedicated LoS blocker.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .environment import Blocker
from .geometry import Point, Segment

__all__ = ["LinearCrossing", "WalkingBlocker", "los_blocker_between"]


class LinearCrossing:
    """A walker crossing back and forth along a fixed segment.

    Useful for deterministic blockage tests: the walker oscillates along
    ``path`` at constant speed, repeatedly cutting any link the segment
    crosses.
    """

    def __init__(self, path: Segment, speed_mps: float = 1.0):
        if speed_mps <= 0:
            raise ValueError("speed must be positive")
        if path.length() <= 0:
            raise ValueError("crossing path must have nonzero length")
        self.path = path
        self.speed = speed_mps
        self._progress = 0.0  # 0..2 (there and back)

    def step(self, dt_s: float) -> Point:
        """Advance along the crossing; returns the new position."""
        if dt_s < 0:
            raise ValueError("time step cannot be negative")
        length = self.path.length()
        self._progress = (self._progress + self.speed * dt_s / length) % 2.0
        t = self._progress if self._progress <= 1.0 else 2.0 - self._progress
        return Point(self.path.a.x + t * (self.path.b.x - self.path.a.x),
                     self.path.a.y + t * (self.path.b.y - self.path.a.y))


@dataclass
class WalkingBlocker:
    """A :class:`Blocker` attached to a mobility model."""

    blocker: Blocker
    mobility: object

    def step(self, dt_s: float) -> Blocker:
        """Move the blocker one time step; returns the updated blocker."""
        position = self.mobility.step(dt_s)
        self.blocker = self.blocker.moved_to(position)
        return self.blocker


def los_blocker_between(node: Point, ap: Point,
                        fraction: float = 0.5,
                        radius_m: float = 0.25,
                        penetration_loss_db: float | None = None,
                        rng: np.random.Generator | None = None) -> Blocker:
    """A person standing on the node-AP line (the paper's persistent blocker).

    ``fraction`` places them along the segment (0 = at the node, 1 = at
    the AP).  Penetration loss defaults to a draw from the composed
    20-35 dB blocked-path band of section 6.1, or its midpoint when no
    RNG is given.
    """
    if not 0.0 < fraction < 1.0:
        raise ValueError("fraction must be strictly between 0 and 1")
    from ..constants import BLOCKED_PATH_TOTAL_EXCESS_DB

    if penetration_loss_db is None:
        lo, hi = BLOCKED_PATH_TOTAL_EXCESS_DB
        penetration_loss_db = (float(rng.uniform(lo, hi)) if rng is not None
                               else 0.5 * (lo + hi))
    position = Point(node.x + fraction * (ap.x - node.x),
                     node.y + fraction * (ap.y - node.y))
    return Blocker(position=position, radius_m=radius_m,
                   penetration_loss_db=penetration_loss_db)
