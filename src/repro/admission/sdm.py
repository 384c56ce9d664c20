"""Harmonic-collision-aware SDM packing (§7b at admission time).

When the FDM band is full, mmX shares channels spatially: the TMA puts
co-channel nodes on different harmonic beams, which works only while
their arrival bearings stay apart.  The existing
:class:`repro.network.sdm_scheduler.AngularSdmScheduler` optimises a
*batch* of placements after the fact; admission control needs the
*online* version — given one arriving node's bearing, find a spatial
channel it can join without creating a harmonic collision, or reject.

:class:`SdmPacker` keeps, per spatial channel, the member bearings in a
sorted ring and admits a node only where both circular neighbours are at
least ``threshold_rad`` away (by default
:data:`repro.network.sdm_scheduler.HARMONIC_COLLISION_RAD`), so a
packer-built assignment never holds a harmonic collision (a property
test pins this).  Channel choice is deterministic: the least-loaded
compatible channel wins (ties to the lowest index), probing at most
``max_probes`` candidates — a documented cap that keeps admission
O(log C) instead of O(C) under heavy load.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left, insort
from dataclasses import dataclass

from ..network.sdm_scheduler import HARMONIC_COLLISION_RAD
from ..sim.geometry import normalize_angle

__all__ = ["SdmAssignment", "SdmPacker"]


@dataclass(frozen=True)
class SdmAssignment:
    """One node's spatial-reuse admission record."""

    node_id: int
    channel_index: int
    """Which spatial (co-frequency) channel the node joined."""

    harmonic_index: int
    """TMA harmonic beam within the channel (lowest unused index)."""

    bearing_rad: float
    """Arrival bearing the admission was decided on."""


class SdmPacker:
    """Online admission of bearings into collision-free spatial channels."""

    def __init__(self, num_channels: int,
                 threshold_rad: float = HARMONIC_COLLISION_RAD,
                 max_probes: int = 16):
        if num_channels < 1:
            raise ValueError("need at least one spatial channel")
        if threshold_rad <= 0:
            raise ValueError("threshold must be positive")
        if max_probes < 1:
            raise ValueError("need at least one probe")
        self.num_channels = num_channels
        self.threshold_rad = threshold_rad
        self.max_probes = max_probes
        self._members: list[list[float]] = [[] for _ in range(num_channels)]
        self._assignments: dict[int, SdmAssignment] = {}
        self._harmonics: list[set[int]] = [set() for _ in range(num_channels)]
        # Lazy min-heap of (member_count, channel_index); stale entries
        # are skipped on pop.  Keeps "least-loaded first" probing
        # O(log C) per admit instead of scanning every channel.
        self._load_heap: list[tuple[int, int]] = [
            (0, c) for c in range(num_channels)]

    # --- the collision predicate -----------------------------------------

    def _compatible(self, channel_index: int, bearing: float) -> bool:
        """Whether ``bearing`` keeps the channel collision-free.

        Checks the two circular neighbours in the sorted bearing ring
        with the harmonic-collision predicate
        ``abs(normalize_angle(a - b)) < threshold``; since members are
        pairwise compatible by induction, the neighbours are the only
        candidates that could collide with the newcomer.
        """
        ring = self._members[channel_index]
        if not ring:
            return True
        i = bisect_left(ring, bearing)
        for neighbour in (ring[i % len(ring)], ring[i - 1]):
            if abs(normalize_angle(bearing - neighbour)) \
                    < self.threshold_rad:
                return False
        return True

    # --- admission --------------------------------------------------------

    def admit(self, node_id: int, bearing_rad: float) -> SdmAssignment | None:
        """Join the least-loaded compatible channel, or return ``None``.

        Probes channels in ``(member_count, channel_index)`` order via
        the lazy load heap, at most ``max_probes`` of them — a bounded,
        deterministic policy: the same admission sequence always packs
        identically.
        """
        if node_id in self._assignments:
            raise ValueError(f"node {node_id} already holds an SDM slot")
        bearing = normalize_angle(float(bearing_rad))
        probed: list[tuple[int, int]] = []
        chosen = -1
        while self._load_heap and len(probed) < self.max_probes:
            load, channel = heapq.heappop(self._load_heap)
            if load != len(self._members[channel]):
                # Stale heap entry; the fresh count was pushed when the
                # channel last changed.
                continue
            probed.append((load, channel))
            if self._compatible(channel, bearing):
                chosen = channel
                break
        for entry in probed:
            heapq.heappush(self._load_heap, entry)
        if chosen < 0:
            return None
        insort(self._members[chosen], bearing)
        heapq.heappush(self._load_heap,
                       (len(self._members[chosen]), chosen))
        used = self._harmonics[chosen]
        harmonic = 0
        while harmonic in used:
            harmonic += 1
        used.add(harmonic)
        assignment = SdmAssignment(node_id=node_id, channel_index=chosen,
                                   harmonic_index=harmonic,
                                   bearing_rad=bearing)
        self._assignments[node_id] = assignment
        return assignment

    def release(self, node_id: int) -> SdmAssignment:
        """Give up a node's spatial slot (returns the old record)."""
        assignment = self._assignments.pop(node_id, None)
        if assignment is None:
            raise KeyError(f"node {node_id} holds no SDM slot")
        ring = self._members[assignment.channel_index]
        i = bisect_left(ring, assignment.bearing_rad)
        # Duplicate bearings cannot coexist (threshold > 0), so the
        # bisect position is exact.
        del ring[i]
        self._harmonics[assignment.channel_index].discard(
            assignment.harmonic_index)
        heapq.heappush(self._load_heap,
                       (len(ring), assignment.channel_index))
        return assignment
