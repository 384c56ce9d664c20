"""Selective-repeat ARQ over CRC-framed transport segments.

mmX's air interface is feedback-free, but the *system* is not: the
WiFi/BLE side channel (and, for AP-to-AP traffic, the backhaul) can
carry ACKs, and once it does the right reliability discipline is
selective repeat — only the segments actually lost are resent, the
window keeps moving, and the retransmission clock is the Jacobson
estimator of :mod:`repro.transport.rto` rather than a fixed retry
count.

Three pieces:

* :class:`SelectiveRepeatSender` — a sliding window of outstanding
  segments, each with its own retransmission deadline; cumulative +
  selective ACKs slide/punch the window; Karn's rule guards the RTT
  samples.
* :class:`SelectiveRepeatReceiver` — a reorder buffer that delivers
  payloads strictly in order and answers every segment with a
  cumulative-plus-SACK frame.
* :class:`ReliableLink` — drives sender and receiver over a seeded
  lossy channel in simulated time, producing :class:`TransferStats` —
  the end-to-end "did every byte arrive, in order, and at what cost"
  numbers the chaos gates assert on.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..rng import fresh_rng
from ..telemetry import NullRecorder, TelemetryRecorder
from .framing import MAX_SEQ, MAX_WINDOW, TransportFrame, seq_distance
from .rto import RtoEstimator

__all__ = ["SegmentState", "SelectiveRepeatSender",
           "SelectiveRepeatReceiver", "TransferStats", "ReliableLink"]


@dataclass
class SegmentState:
    """Book-keeping for one outstanding (sent, unacked) segment."""

    frame: TransportFrame
    first_sent_s: float
    deadline_s: float
    transmissions: int = 1
    retransmitted: bool = False
    acked: bool = False


class SelectiveRepeatSender:
    """The sending half of selective repeat, in explicit simulated time."""

    def __init__(self, window: int = 16,
                 rto: RtoEstimator | None = None,
                 max_transmissions: int = 16) -> None:
        if not 1 <= window <= MAX_WINDOW:
            raise ValueError(f"window must be in [1, {MAX_WINDOW}]")
        if max_transmissions < 1:
            raise ValueError("need at least one transmission")
        self.window = window
        self.rto = rto or RtoEstimator()
        self.max_transmissions = max_transmissions
        self._next_seq = 0
        self._base = 0
        self._pending: list[bytes] = []
        self._outstanding: dict[int, SegmentState] = {}
        self.retransmissions = 0
        self.gave_up: list[int] = []

    # --- offering data ---------------------------------------------------

    def offer(self, payload: bytes) -> None:
        """Queue one payload for (eventual) transmission."""
        self._pending.append(bytes(payload))

    @property
    def in_flight(self) -> int:
        """Segments sent but not yet acknowledged."""
        return sum(1 for s in self._outstanding.values() if not s.acked)

    @property
    def done(self) -> bool:
        """Whether every offered payload has been acked or abandoned."""
        return not self._pending and not self._outstanding

    # --- the transmission schedule ---------------------------------------

    def poll(self, now_s: float) -> list[TransportFrame]:
        """Frames to put on the wire at ``now_s``.

        Retransmits every outstanding segment whose deadline passed
        (doubling the RTO per Karn), abandons segments that exhausted
        ``max_transmissions``, then fills the window with fresh
        segments.
        """
        to_send: list[TransportFrame] = []
        for seq in sorted(self._outstanding,
                          key=lambda s: seq_distance(s, self._base)):
            state = self._outstanding.get(seq)
            if state is None:
                continue  # already slid out by an earlier abandonment
            if state.acked or now_s < state.deadline_s:
                continue
            if state.transmissions >= self.max_transmissions:
                # Abandoned: record it, treat as (vacuously) acked so
                # the window can move — the caller sees it in gave_up.
                self.gave_up.append(seq)
                state.acked = True
                self._slide()
                continue
            state.transmissions += 1
            state.retransmitted = True
            state.deadline_s = now_s + self.rto.on_timeout()
            self.retransmissions += 1
            to_send.append(state.frame)
        while self._pending and len(self._outstanding) < self.window:
            payload = self._pending.pop(0)
            frame = TransportFrame.data_frame(self._next_seq, payload)
            self._outstanding[self._next_seq] = SegmentState(
                frame=frame, first_sent_s=now_s,
                deadline_s=now_s + self.rto.rto_s)
            self._next_seq = (self._next_seq + 1) % MAX_SEQ
            to_send.append(frame)
        return to_send

    def _slide(self) -> None:
        """Advance the window base past every acked/abandoned segment."""
        while self._base in self._outstanding \
                and self._outstanding[self._base].acked:
            del self._outstanding[self._base]
            self._base = (self._base + 1) % MAX_SEQ

    # --- receiving acknowledgements ---------------------------------------

    def on_ack(self, ack: TransportFrame, now_s: float) -> None:
        """Process one cumulative + selective acknowledgement."""
        if ack.is_data:
            raise ValueError("on_ack expects an ack frame")

        def mark(seq: int) -> None:
            state = self._outstanding.get(seq)
            if state is None or state.acked:
                return
            state.acked = True
            if not state.retransmitted:
                # Karn: only first-transmission RTTs are unambiguous.
                self.rto.observe(now_s - state.first_sent_s)

        # Cumulative: everything at or before ack.sequence is in.
        for seq in list(self._outstanding):
            if seq_distance(ack.sequence, seq) < self.window:
                mark(seq)
        for seq in ack.sacked_sequences():
            mark(seq)
        self._slide()


class SelectiveRepeatReceiver:
    """The receiving half: reorder buffer + cumulative/SACK generation."""

    def __init__(self, window: int = 16) -> None:
        if not 1 <= window <= MAX_WINDOW:
            raise ValueError(f"window must be in [1, {MAX_WINDOW}]")
        self.window = window
        self._expected = 0
        self._buffer: dict[int, bytes] = {}
        self._delivered: list[bytes] = []
        self.duplicates = 0

    def on_data(self, frame: TransportFrame) -> TransportFrame:
        """Accept one data segment; returns the ACK to send back."""
        if not frame.is_data:
            raise ValueError("on_data expects a data frame")
        offset = seq_distance(frame.sequence, self._expected)
        if offset < self.window:
            if frame.sequence in self._buffer:
                self.duplicates += 1
            else:
                self._buffer[frame.sequence] = frame.payload
                while self._expected in self._buffer:
                    self._delivered.append(self._buffer.pop(self._expected))
                    self._expected = (self._expected + 1) % MAX_SEQ
        else:
            # Behind the window: an old retransmission racing its ACK.
            self.duplicates += 1
        return self._ack()

    def _ack(self) -> TransportFrame:
        cumulative = (self._expected - 1) % MAX_SEQ
        bitmap = 0
        for seq in self._buffer:
            bit = seq_distance(seq, self._expected)
            if bit < MAX_WINDOW:
                bitmap |= 1 << bit
        return TransportFrame.ack_frame(cumulative, bitmap)

    def take_delivered(self) -> list[bytes]:
        """Drain the in-order payload stream delivered so far."""
        out, self._delivered = self._delivered, []
        return out


@dataclass(frozen=True)
class TransferStats:
    """Outcome of one :meth:`ReliableLink.transfer` run."""

    offered: int
    delivered: int
    in_order: bool
    retransmissions: int
    duplicates: int
    abandoned: int
    elapsed_s: float
    final_rto_s: float

    @property
    def delivery_ratio(self) -> float:
        """Delivered / offered (1.0 for an empty transfer)."""
        if self.offered == 0:
            return 1.0
        return self.delivered / self.offered


@dataclass
class ReliableLink:
    """Selective repeat over a seeded Bernoulli-loss channel.

    ``loss_probability`` applies independently to each direction (data
    segments and ACKs both cross the lossy medium); ``rtt_s`` is the
    fault-free round trip the RTO estimator should converge near.
    """

    loss_probability: float = 0.0
    rtt_s: float = 0.02
    window: int = 16
    max_transmissions: int = 16
    rng: np.random.Generator = field(default_factory=fresh_rng)
    telemetry: TelemetryRecorder = field(default_factory=NullRecorder,
                                         repr=False)
    """Sink for the ``transport.*`` metric family: per-transfer spans,
    retransmit/SACK/duplicate counters and the RTO-evolution gauge.
    The default :class:`NullRecorder` keeps the tick loop at seed cost."""

    def __post_init__(self) -> None:
        if not 0.0 <= self.loss_probability < 1.0:
            raise ValueError("loss probability must be in [0, 1)")
        if self.rtt_s <= 0:
            raise ValueError("RTT must be positive")

    def transfer(self, payloads: list[bytes],
                 time_step_s: float | None = None,
                 max_duration_s: float = 300.0) -> TransferStats:
        """Push every payload through the lossy link; returns the stats.

        The clock advances in ``time_step_s`` ticks (default: one tenth
        of the RTT); each tick the sender polls its schedule, frames
        cross the wire (or die with ``loss_probability``), and ACKs come
        back half an RTT later.
        """
        if time_step_s is None:
            time_step_s = self.rtt_s / 10.0
        if time_step_s <= 0 or max_duration_s <= 0:
            raise ValueError("durations must be positive")
        sender = SelectiveRepeatSender(
            window=self.window,
            rto=RtoEstimator(initial_rto_s=2.0 * self.rtt_s,
                             min_rto_s=time_step_s),
            max_transmissions=self.max_transmissions)
        receiver = SelectiveRepeatReceiver(window=self.window)
        for payload in payloads:
            sender.offer(payload)

        # (arrival_time_s, encoded_frame) for both directions.
        data_wire: list[tuple[float, bytes]] = []
        ack_wire: list[tuple[float, bytes]] = []
        one_way_s = self.rtt_s / 2.0
        now = 0.0
        delivered: list[bytes] = []
        tel = self.telemetry
        transfer_span = tel.begin("transport.transfer",
                                  segments=len(payloads))
        while not sender.done and now < max_duration_s:
            for frame in sender.poll(now):
                if self.rng.random() >= self.loss_probability:
                    data_wire.append((now + one_way_s, frame.encode()))
            for when, blob in [f for f in data_wire if f[0] <= now]:
                data_wire.remove((when, blob))
                ack = receiver.on_data(TransportFrame.decode(blob))
                if self.rng.random() >= self.loss_probability:
                    ack_wire.append((now + one_way_s, ack.encode()))
            for when, blob in [f for f in ack_wire if f[0] <= now]:
                ack_wire.remove((when, blob))
                ack_frame = TransportFrame.decode(blob)
                if tel.enabled and ack_frame.sack_bitmap:
                    tel.count("transport.sacked_segments",
                              len(ack_frame.sacked_sequences()))
                sender.on_ack(ack_frame, now)
            delivered.extend(receiver.take_delivered())
            now += time_step_s
            if tel.enabled:
                tel.clock.advance(time_step_s)
                tel.gauge("transport.rto_s", sender.rto.rto_s)
        delivered.extend(receiver.take_delivered())
        tel.end(transfer_span)
        if tel.enabled:
            tel.count("transport.segments_offered", len(payloads))
            tel.count("transport.segments_delivered", len(delivered))
            tel.count("transport.retransmissions",
                      sender.retransmissions)
            tel.count("transport.duplicates", receiver.duplicates)
            tel.count("transport.abandoned", len(sender.gave_up))
            tel.observe("transport.transfer_s", now, least=1e-3)
        in_order = delivered == payloads[:len(delivered)]
        return TransferStats(
            offered=len(payloads),
            delivered=len(delivered),
            in_order=in_order,
            retransmissions=sender.retransmissions,
            duplicates=receiver.duplicates,
            abandoned=len(sender.gave_up),
            elapsed_s=now,
            final_rto_s=sender.rto.rto_s,
        )
