"""Simulation substrate: room geometry, placements, mobility, Monte Carlo.

The paper's experiments run in a 6 m x 4 m lab with furniture and walking
people (section 9).  This subpackage provides the synthetic equivalent:
a 2-D room whose walls act as mmWave reflectors, circular human blockers
(static or walking), placement samplers matching the paper's protocol
(random locations, orientations in -60..60 degrees), and a seeded
Monte-Carlo runner.
"""

from .environment import Wall, Blocker, Room, default_lab_room
from .geometry import (
    Point,
    Segment,
    segment_intersection,
    segment_circle_intersects,
    reflect_point_across_line,
    angle_of,
    normalize_angle,
)
from .mobility import LinearCrossing, WalkingBlocker
from .placement import PlacementSampler, Placement
from .runner import MonteCarloRunner, TrialResult
from .timeline import LinkTrace, TimelineSimulator

__all__ = [
    "Blocker",
    "LinearCrossing",
    "LinkTrace",
    "MonteCarloRunner",
    "Placement",
    "PlacementSampler",
    "Point",
    "Room",
    "Segment",
    "TimelineSimulator",
    "TrialResult",
    "WalkingBlocker",
    "Wall",
    "angle_of",
    "default_lab_room",
    "normalize_angle",
    "reflect_point_across_line",
    "segment_circle_intersects",
    "segment_intersection",
]
