"""A minimal MAC for mmX uplinks: per-node queueing.

mmX's air interface is feedback-free, but a *node* still has to decide
when to key its own switch: video frames arrive from the sensor, queue,
and are drained over the node's (FDM-allocated) channel.  This module
provides a discrete-event model of that producer/consumer loop:

* :class:`PacketQueue` — a finite buffer with tail-drop and byte/packet
  accounting.
* :class:`UplinkSimulator` — drives a periodic source (a camera's frame
  cadence) through the queue and the link's frame-success process,
  producing throughput/latency/drop statistics.

This is deliberately simple — the paper has no MAC section — but it
turns the PHY numbers into the latency/loss figures an application
integration would be judged on.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from ..rng import ensure_rng
from ..telemetry import NullRecorder, TelemetryRecorder

__all__ = ["PacketQueue", "UplinkStats", "UplinkSimulator"]


@dataclass
class PacketQueue:
    """Finite FIFO of (arrival_time_s, size_bytes) with tail drop."""

    capacity_packets: int = 64

    def __post_init__(self):
        if self.capacity_packets < 1:
            raise ValueError("queue needs capacity for at least one packet")
        self._items: deque[tuple[float, int]] = deque()
        self.dropped = 0
        self.dropped_bytes = 0
        self.enqueued = 0

    def __len__(self) -> int:
        return len(self._items)

    def offer(self, arrival_s: float, size_bytes: int) -> bool:
        """Enqueue; False (and a drop) when the buffer is full.

        Rejected packets are counted in both ``dropped`` (packets) and
        ``dropped_bytes`` — overload experiments need the byte total to
        report goodput *loss*, not just a drop count.
        """
        if size_bytes <= 0:
            raise ValueError("packet size must be positive")
        if len(self._items) >= self.capacity_packets:
            self.dropped += 1
            self.dropped_bytes += size_bytes
            return False
        self._items.append((arrival_s, size_bytes))
        self.enqueued += 1
        return True

    def pop(self) -> tuple[float, int]:
        """Dequeue the head-of-line packet."""
        if not self._items:
            raise IndexError("queue empty")
        return self._items.popleft()


@dataclass(frozen=True)
class UplinkStats:
    """Outcome of an uplink simulation run."""

    offered_packets: int
    delivered_packets: int
    dropped_packets: int
    """Packets lost outright: queue tail-drops plus ARQ exhaustion."""

    expired_packets: int
    """Packets that missed the deadline: still queued when the window
    closed, or whose (successful) transmission finished after it."""

    retransmissions: int
    mean_latency_s: float
    p99_latency_s: float
    goodput_bps: float

    @property
    def delivery_ratio(self) -> float:
        """Delivered / offered."""
        if self.offered_packets == 0:
            return 1.0
        return self.delivered_packets / self.offered_packets


class UplinkSimulator:
    """Periodic source -> queue -> lossy link, with ARQ retransmission.

    ``frame_success_probability`` is the per-transmission survival
    chance (from :mod:`repro.core.throughput` at the placement's SNR).
    A failed frame is retried immediately, up to ``max_retries``
    times, then the packet is counted lost.

    Transmission time = frame bits / link rate.
    """

    def __init__(self, link_rate_bps: float, frame_bits: int,
                 frame_success_probability: float,
                 queue: PacketQueue | None = None,
                 max_retries: int = 3,
                 rng: np.random.Generator | None = None,
                 telemetry: TelemetryRecorder | None = None):
        if link_rate_bps <= 0 or frame_bits <= 0:
            raise ValueError("link rate and frame size must be positive")
        if not 0.0 <= frame_success_probability <= 1.0:
            raise ValueError("success probability must be in [0, 1]")
        if max_retries < 0:
            raise ValueError("retries cannot be negative")
        self.link_rate_bps = link_rate_bps
        self.frame_bits = frame_bits
        self.p_success = frame_success_probability
        self.queue = queue or PacketQueue()
        self.max_retries = max_retries
        self.rng = ensure_rng(rng)
        self.telemetry = telemetry if telemetry is not None \
            else NullRecorder()
        """Sink for the ``mac.*`` metric family (see
        docs/observability.md); the default :class:`NullRecorder`
        keeps the hot loop at seed-repo cost."""

    @property
    def frame_airtime_s(self) -> float:
        """Time to transmit one frame."""
        return self.frame_bits / self.link_rate_bps

    def run(self, duration_s: float, packet_interval_s: float,
            packet_bytes: int = 1024) -> UplinkStats:
        """Simulate a periodic source for ``duration_s`` seconds."""
        if duration_s <= 0 or packet_interval_s <= 0:
            raise ValueError("durations must be positive")
        tel = self.telemetry
        queue_drops_before = self.queue.dropped
        offered = 0
        delivered = 0
        arq_lost = 0
        retransmissions = 0
        latencies: list[float] = []
        goodput_bits = 0
        clock = 0.0
        next_arrival = 0.0
        # Transmissions stop at the end of the window: anything still
        # queued then counts as undelivered, so goodput can never
        # exceed the link rate.
        while (next_arrival < duration_s or len(self.queue)) \
                and clock < duration_s:
            # Admit every arrival that lands before the head transmission
            # completes.
            while next_arrival < duration_s and next_arrival <= clock:
                self.queue.offer(next_arrival, packet_bytes)
                offered += 1
                next_arrival += packet_interval_s
            if not len(self.queue):
                if next_arrival >= duration_s:
                    break
                clock = next_arrival
                continue
            arrival, size = self.queue.pop()
            start = max(clock, arrival)
            attempts = 0
            success = False
            while attempts <= self.max_retries:
                attempts += 1
                start += self.frame_airtime_s
                if self.rng.random() < self.p_success:
                    success = True
                    break
            retransmissions += attempts - 1
            clock = start
            if tel.enabled:
                tel.count("mac.frame_attempts", attempts)
            if not success:
                arq_lost += 1
            elif clock <= duration_s:
                delivered += 1
                goodput_bits += size * 8
                latencies.append(clock - arrival)
                if tel.enabled:
                    tel.observe("mac.latency_s", clock - arrival)
        # Every offered packet lands in exactly one bucket: delivered,
        # dropped (tail-drop or ARQ exhaustion), or expired (missed the
        # deadline — still queued, or completed after the window).
        dropped = self.queue.dropped + arq_lost
        expired = offered - delivered - dropped
        if tel.enabled:
            # The uplink window just simulated advances the shared
            # telemetry timeline; counters use per-run deltas so a
            # reused queue's history is not double-counted.
            tel.clock.advance(duration_s)
            tel.count("mac.frames_offered", offered)
            tel.count("mac.frames_delivered", delivered)
            tel.count("mac.frames_arq_lost", arq_lost)
            tel.count("mac.frames_expired", expired)
            tel.count("mac.queue_drops",
                      self.queue.dropped - queue_drops_before)
            tel.count("mac.retransmissions", retransmissions)
            tel.event("mac.run", duration_s=duration_s,
                      offered=offered, delivered=delivered,
                      goodput_bps=goodput_bits / duration_s)
        return UplinkStats(
            offered_packets=offered,
            delivered_packets=delivered,
            dropped_packets=dropped,
            expired_packets=expired,
            retransmissions=retransmissions,
            mean_latency_s=(float(np.mean(latencies)) if latencies else 0.0),
            p99_latency_s=(float(np.percentile(latencies, 99))
                           if latencies else 0.0),
            goodput_bps=goodput_bits / duration_s,
        )
