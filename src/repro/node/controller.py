"""The node's digital controller (a Raspberry Pi in the prototype).

Section 8.1: data flows from the Pi over SPI to the mmWave board; the
controller sets the VCO control voltage (channel + FSK nudges) and toggles
the SPDT per bit.  This model keeps the controller's job explicit —
framing payloads into packets and emitting the per-bit control sequence —
without pretending to be an OS.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.packet import Packet, PacketCodec

__all__ = ["TransmitJob", "DigitalController"]


@dataclass(frozen=True)
class TransmitJob:
    """One framed transmission ready for the mmWave section.

    ``beam_bits`` drive the SPDT (1 -> Beam 1 port, 0 -> Beam 0 port);
    ``vco_bits`` drive the FSK nudge and are identical by construction —
    kept separate to mirror the two physical control lines.
    """

    beam_bits: np.ndarray
    vco_bits: np.ndarray
    packet: Packet


class DigitalController:
    """Frames payloads and produces switch/VCO control sequences."""

    def __init__(self):
        self.codec = PacketCodec()
        self._sequence = 0

    def next_sequence(self) -> int:
        """Allocate the next packet sequence number (wraps at 256)."""
        value = self._sequence
        self._sequence = (self._sequence + 1) % 256
        return value

    def prepare(self, payload: bytes) -> TransmitJob:
        """Frame a payload into a transmit job."""
        packet = Packet(payload=payload, sequence=self.next_sequence())
        bits = self.codec.encode(packet)
        return TransmitJob(beam_bits=bits, vco_bits=bits.copy(), packet=packet)
