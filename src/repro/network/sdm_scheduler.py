"""Direction-aware SDM scheduling — an AP-side optimisation.

Section 7(b) leaves open *which* nodes should share a channel when SDM
kicks in.  Since TMA separation is angular, the AP should pair nodes
whose arrival directions are far apart.  This module implements that
policy (a greedy max-angular-separation assignment) next to the naive
round-robin the base network model uses, and the ablation benchmark
quantifies the SINR it buys.  This is squarely "future work the system
invites" rather than something the paper evaluates — flagged as an
extension in DESIGN.md.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..sim.geometry import normalize_angle
from ..sim.placement import Placement

__all__ = ["arrival_bearing_rad", "RoundRobinScheduler",
           "AngularSdmScheduler", "assignment_min_separation_rad",
           "HARMONIC_COLLISION_RAD"]

HARMONIC_COLLISION_RAD = math.radians(10.0)
"""Co-channel pairs closer than this arrival-bearing gap sit inside
each other's TMA harmonic beam, so their uplinks interfere at full
strength (a harmonic collision)."""


def arrival_bearing_rad(placement: Placement) -> float:
    """Arrival direction at the AP, relative to the AP's boresight."""
    dx = placement.node_position.x - placement.ap_position.x
    dy = placement.node_position.y - placement.ap_position.y
    return normalize_angle(math.atan2(dy, dx)
                           - placement.ap_orientation_rad)


@dataclass(frozen=True)
class RoundRobinScheduler:
    """The baseline policy: node i -> channel ``i mod num_channels``."""

    num_channels: int

    def assign(self, placements: list[Placement]) -> list[int]:
        """Ignore geometry entirely."""
        if self.num_channels < 1:
            raise ValueError("need at least one channel")
        return [i % self.num_channels for i in range(len(placements))]


@dataclass(frozen=True)
class AngularSdmScheduler:
    """Greedy max-angular-separation channel assignment.

    Nodes are sorted by arrival bearing and dealt onto channels in
    bearing order, one per channel per round.  Co-channel partners are
    then maximally spread in angle (the k-th and (k+C)-th nodes in
    bearing order share), which is exactly what the TMA's
    harmonic-beam separation rewards.
    """

    num_channels: int

    def assign(self, placements: list[Placement]) -> list[int]:
        """Channel index per placement (same order as the input)."""
        if self.num_channels < 1:
            raise ValueError("need at least one channel")
        n = len(placements)
        bearings = [arrival_bearing_rad(p) for p in placements]
        order = np.argsort(bearings)
        channels = [0] * n
        for rank, idx in enumerate(order):
            # Deal in bearing order: consecutive-bearing nodes land on
            # different channels, so co-channel partners sit C ranks
            # apart — the widest achievable worst-pair separation.
            channels[int(idx)] = rank % self.num_channels
        return channels


def assignment_min_separation_rad(placements: list[Placement],
                                  channels: list[int]) -> float:
    """Smallest angular gap between any co-channel pair.

    The figure of merit for an SDM assignment: larger is better (more
    TMA separation for the worst pair).  Returns ``pi`` when no channel
    is shared.
    """
    if len(placements) != len(channels):
        raise ValueError("one channel per placement required")
    bearings = [arrival_bearing_rad(p) for p in placements]
    worst = math.pi
    for i in range(len(placements)):
        for j in range(i + 1, len(placements)):
            if channels[i] != channels[j]:
                continue
            gap = abs(normalize_angle(bearings[i] - bearings[j]))
            worst = min(worst, gap)
    return worst
