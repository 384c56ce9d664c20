"""The once-only initialization protocol over a WiFi/Bluetooth side link.

Section 7(a): "The channels are specified by the AP to each node in the
initialization stage.  The initialization takes place only once using a
WiFi or Bluetooth module."  The mmWave link itself is uplink-only and
feedback-free — that is the whole point of OTAM — so this low-rate side
channel is the only downlink the system ever uses.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..rng import fresh_rng

__all__ = ["SideChannel", "InitializationProtocol"]


@dataclass
class SideChannel:
    """A lossy low-rate control link (WiFi/BLE class).

    ``delivery_ratio`` models control-frame loss (default lossless —
    any ratio below 1 now genuinely drops frames, where it previously
    only did so when an ``rng`` happened to be supplied); the protocol
    retries.  A Bluetooth LE connection event is ~a few ms, so
    ``latency_s`` defaults accordingly.
    """

    delivery_ratio: float = 1.0
    latency_s: float = 0.005
    rng: np.random.Generator = field(default_factory=fresh_rng)

    def __post_init__(self):
        if not 0.0 < self.delivery_ratio <= 1.0:
            raise ValueError("delivery ratio must be in (0, 1]")
        if self.latency_s < 0:
            raise ValueError("latency cannot be negative")
        if self.rng is None:
            # A lossy channel must actually lose frames: an unseeded
            # generator beats the old silently-lossless behaviour.
            self.rng = fresh_rng()

    def deliver(self) -> bool:
        """Whether one control frame gets through."""
        if self.delivery_ratio >= 1.0:
            return True
        return bool(self.rng.random() < self.delivery_ratio)


@dataclass(frozen=True)
class InitRecord:
    """Outcome of initialising one node."""

    node_id: int
    center_hz: float
    bandwidth_hz: float
    attempts: int
    elapsed_s: float


class InitializationProtocol:
    """Runs the AP-side initialization handshake for a set of nodes.

    Failed control frames are retried with jittered exponential backoff
    (doubling from ``backoff_base_s``, capped at ``backoff_max_s``, each
    delay scaled by ``1 ± backoff_jitter``) so a congested or lossy side
    channel is not hammered by a tight retry loop — the same discipline
    :class:`repro.resilience.LinkSupervisor` uses for re-initialization
    after a dropout.
    """

    def __init__(self, access_point, side_channel: SideChannel | None = None,
                 max_attempts: int = 5,
                 backoff_base_s: float = 0.02,
                 backoff_factor: float = 2.0,
                 backoff_jitter: float = 0.25,
                 backoff_max_s: float = 0.5):
        if max_attempts < 1:
            raise ValueError("need at least one attempt")
        if backoff_base_s < 0 or backoff_max_s < backoff_base_s:
            raise ValueError("invalid backoff window")
        if backoff_factor < 1.0:
            raise ValueError("backoff factor must be >= 1")
        if not 0.0 <= backoff_jitter < 1.0:
            raise ValueError("jitter must be in [0, 1)")
        self.access_point = access_point
        self.side_channel = side_channel or SideChannel()
        self.max_attempts = max_attempts
        self.backoff_base_s = backoff_base_s
        self.backoff_factor = backoff_factor
        self.backoff_jitter = backoff_jitter
        self.backoff_max_s = backoff_max_s
        self.records: list[InitRecord] = []

    def _backoff_delay_s(self, failed_attempts: int) -> float:
        """Jittered exponential delay before retry ``failed_attempts+1``."""
        base = min(self.backoff_base_s
                   * self.backoff_factor ** max(failed_attempts - 1, 0),
                   self.backoff_max_s)
        jitter = 1.0 + self.backoff_jitter \
            * float(self.side_channel.rng.uniform(-1, 1))
        return base * jitter

    def initialize(self, node, demanded_rate_bps: float,
                   config=None) -> InitRecord:
        """Register a node at the AP and push its channel assignment.

        ``config`` optionally pins the modulation numerology both ends
        use (defaults to the AP's rate-derived choice).  Retries lost
        control frames — with jittered exponential backoff between
        attempts, reflected in the record's ``elapsed_s`` — up to
        ``max_attempts`` times, then raises ``ConnectionError`` — an
        un-initialisable node never touches the mmWave band.
        """
        registration = self.access_point.register_node(
            node.node_id, demanded_rate_bps, config=config)
        attempts = 0
        elapsed_s = 0.0
        delivered = False
        while attempts < self.max_attempts and not delivered:
            if attempts:
                elapsed_s += self._backoff_delay_s(attempts)
            attempts += 1
            elapsed_s += self.side_channel.latency_s
            delivered = self.side_channel.deliver()
        if not delivered:
            self.access_point.deregister_node(node.node_id)
            raise ConnectionError(
                f"node {node.node_id}: side channel failed "
                f"{self.max_attempts} times")
        node.assign_channel(registration.channel.center_hz)
        record = InitRecord(
            node_id=node.node_id,
            center_hz=registration.channel.center_hz,
            bandwidth_hz=registration.channel.bandwidth_hz,
            attempts=attempts,
            elapsed_s=elapsed_s,
        )
        self.records.append(record)
        return record
