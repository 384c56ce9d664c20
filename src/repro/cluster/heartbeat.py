"""Heartbeat-based AP failure detection with explicit simulated time.

Every AP in a cluster beats on a fixed interval over the backhaul /
side-channel; the detector declares an AP dead after
``miss_threshold`` consecutive intervals with no beat.  Detection is
therefore *not* instant — a crashed AP strands its nodes for up to
``detection_latency_s`` before failover can begin, which is exactly
the window the chaos-failover experiment measures.

Time is always passed in by the caller (the simulation clock), so the
detector is deterministic and can never hang a test waiting on a wall
clock.
"""

from __future__ import annotations

__all__ = [
    "HeartbeatMonitor",
    "NODE_ACTIVE",
    "NODE_DORMANT",
    "NODE_LIVENESS",
    "NODE_SILENT",
    "NodeLivenessTracker",
]

NODE_ACTIVE = "active"
"""The AP has decoded an uplink from this node within the threshold."""

NODE_DORMANT = "dormant"
"""The node declared energy-gated sleep (duty-cycle recharge): silence
is *expected* and must not feed AP-outage suspicion."""

NODE_SILENT = "silent"
"""The node has been quiet past the threshold with no declared reason —
the only liveness code that counts as evidence of trouble."""

NODE_LIVENESS = (NODE_ACTIVE, NODE_DORMANT, NODE_SILENT)
"""Every reason code :meth:`NodeLivenessTracker.classify` can return."""


class HeartbeatMonitor:
    """Tracks last-heard times and declares silence after a threshold."""

    def __init__(self, interval_s: float = 0.5, miss_threshold: int = 3):
        if interval_s <= 0:
            raise ValueError("heartbeat interval must be positive")
        if miss_threshold < 1:
            raise ValueError("need at least one missed beat to declare death")
        self.interval_s = interval_s
        self.miss_threshold = miss_threshold
        self._last_beat_s: dict[int, float] = {}
        self._declared_dead: set[int] = set()

    @property
    def detection_latency_s(self) -> float:
        """Worst-case time from crash to a death declaration."""
        return self.interval_s * self.miss_threshold

    def watch(self, ap_id: int, now_s: float) -> None:
        """Start tracking an AP (counts as an immediate beat)."""
        self.beat(ap_id, now_s)

    def beat(self, ap_id: int, now_s: float) -> None:
        """Record one heartbeat; a beating AP is never dead."""
        previous = self._last_beat_s.get(ap_id)
        if previous is not None and now_s < previous:
            raise ValueError("heartbeats must arrive in time order")
        self._last_beat_s[ap_id] = float(now_s)
        self._declared_dead.discard(ap_id)

    def is_alive(self, ap_id: int, now_s: float) -> bool:
        """Whether an AP's silence is still within the threshold."""
        last = self._last_beat_s.get(ap_id)
        if last is None:
            raise KeyError(f"AP {ap_id} is not being watched")
        return now_s - last < self.detection_latency_s

    def newly_dead(self, now_s: float) -> list[int]:
        """APs whose silence just crossed the threshold (each reported
        once, until a fresh beat revives them)."""
        dead = []
        for ap_id in sorted(self._last_beat_s):
            if ap_id in self._declared_dead:
                continue
            if not self.is_alive(ap_id, now_s):
                self._declared_dead.add(ap_id)
                dead.append(ap_id)
        return dead


class NodeLivenessTracker:
    """Classifies per-node silence with an explicit *reason code*.

    The AP heartbeat above answers "is the AP up?"; this tracker
    answers the subtler question "why is this *node* quiet?".  A
    feedback-free mmX node never acknowledges anything, so the only
    uplink signal is decoded frames — and a duty-cycled harvesting node
    legitimately stops producing them for whole recharge windows.
    Without a reason code, a fleet going to sleep at once is
    indistinguishable from an AP-side outage and triggers a failover
    stampede onto APs that were never broken.

    The contract:

    * :meth:`heard` — an uplink decoded now; the node is
      :data:`NODE_ACTIVE` and any dormancy declaration is cleared
      (a transmitting node is by definition awake).
    * :meth:`mark_dormant` — the energy layer (duty-cycle scheduler /
      link supervisor ``dormant-hold``) declares the node asleep;
      silence is expected until the next :meth:`heard`.
    * :meth:`classify` — :data:`NODE_ACTIVE` within the threshold,
      :data:`NODE_DORMANT` when declared asleep, :data:`NODE_SILENT`
      only for *unexplained* silence past the threshold.
    """

    def __init__(self, interval_s: float = 0.5, miss_threshold: int = 3):
        if interval_s <= 0:
            raise ValueError("liveness interval must be positive")
        if miss_threshold < 1:
            raise ValueError("need at least one missed interval "
                             "to declare silence")
        self.interval_s = interval_s
        self.miss_threshold = miss_threshold
        self._last_heard_s: dict[int, float] = {}
        self._dormant: set[int] = set()

    @property
    def detection_latency_s(self) -> float:
        """Silence past this (with no dormancy declared) is suspicious."""
        return self.interval_s * self.miss_threshold

    def __contains__(self, node_id: int) -> bool:
        return node_id in self._last_heard_s

    def watch(self, node_id: int, now_s: float) -> None:
        """Start tracking a node (counts as an immediate uplink)."""
        self.heard(node_id, now_s)

    def heard(self, node_id: int, now_s: float) -> None:
        """Record one decoded uplink; wakes a dormant node."""
        previous = self._last_heard_s.get(node_id)
        if previous is not None and now_s < previous:
            raise ValueError("uplinks must arrive in time order")
        self._last_heard_s[node_id] = float(now_s)
        self._dormant.discard(node_id)

    def mark_dormant(self, node_id: int) -> None:
        """Declare energy-gated sleep: silence is expected from here
        until the next :meth:`heard`."""
        if node_id not in self._last_heard_s:
            raise KeyError(f"node {node_id} is not being watched")
        self._dormant.add(node_id)

    def classify(self, node_id: int, now_s: float) -> str:
        """Reason code for this node's current (lack of) chatter."""
        last = self._last_heard_s.get(node_id)
        if last is None:
            raise KeyError(f"node {node_id} is not being watched")
        if node_id in self._dormant:
            return NODE_DORMANT
        if now_s - last < self.detection_latency_s:
            return NODE_ACTIVE
        return NODE_SILENT
