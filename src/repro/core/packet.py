"""mmX packet framing: preamble + header + payload + CRC (section 6.1).

"Similar to most wireless communication systems, each mmX's packet has
known preamble bits" used to distinguish Beam 0's signal from Beam 1's.
The frame layout here:

    [ preamble: 26 bits (2x Barker-13) ]
    [ header:   16-bit payload length | 8-bit sequence number ]
    [ payload:  length * 8 bits ]
    [ CRC-16 over header+payload: 16 bits ]

Optionally the header+payload+CRC body is protected with Hamming(7,4)
FEC, padding the body to a multiple of 4 bits first.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..phy.bits import (
    as_bit_array,
    bits_to_bytes,
    bytes_to_bits,
    pack_uint,
    unpack_uint,
)
from ..phy.coding import HammingCode74, crc16_ccitt, deinterleave, interleave
from ..phy.preamble import default_preamble_bits

__all__ = ["DEFAULT_PREAMBLE_BITS", "Packet", "PacketCodec", "PacketError",
           "body_length_bits"]

_LENGTH_BITS = 16
_SEQ_BITS = 8
_CRC_BITS = 16
MAX_PAYLOAD_BYTES = (1 << _LENGTH_BITS) - 1

DEFAULT_PREAMBLE_BITS = default_preamble_bits().size
"""Length of the default preamble every :class:`PacketCodec` starts with."""


class PacketError(Exception):
    """Raised when a received frame cannot be recovered."""


@dataclass(frozen=True)
class Packet:
    """An application payload plus its sequence number."""

    payload: bytes
    sequence: int = 0

    def __post_init__(self):
        if len(self.payload) > MAX_PAYLOAD_BYTES:
            raise ValueError("payload too large for the 16-bit length field")
        if not 0 <= self.sequence < (1 << _SEQ_BITS):
            raise ValueError("sequence number must fit in 8 bits")


def body_length_bits(payload_bytes: int, use_fec: bool = False) -> int:
    """Frame length after the preamble: header, payload and CRC bits.

    With ``use_fec`` the body is padded to whole 4-bit blocks and
    Hamming(7,4)-coded.  Plain arithmetic, so link-budget and
    scheduling math need no codec.
    """
    if not 0 <= payload_bytes <= MAX_PAYLOAD_BYTES:
        raise ValueError("invalid payload size")
    body = _LENGTH_BITS + _SEQ_BITS + 8 * payload_bytes + _CRC_BITS
    if use_fec:
        body += (-body) % 4
        body = body * 7 // 4
    return body


class PacketCodec:
    """Encodes packets to bit frames and recovers them from bit streams.

    ``use_interleaver`` (requires ``use_fec``) block-interleaves the
    FEC-coded body with depth 7, so a burst of up to 7 consecutive
    channel-bit errors — a blocker clipping the beam for a moment —
    lands at most one error in each Hamming codeword and is fully
    corrected.
    """

    INTERLEAVE_DEPTH = 7

    def __init__(self, use_fec: bool = False,
                 use_interleaver: bool = False):
        if use_interleaver and not use_fec:
            raise ValueError("interleaving without FEC protects nothing")
        self.preamble = default_preamble_bits()
        self.use_fec = use_fec
        self.use_interleaver = use_interleaver
        self._fec = HammingCode74() if use_fec else None

    # --- encoding -----------------------------------------------------------

    def _body_bits(self, packet: Packet) -> np.ndarray:
        header = np.concatenate([
            pack_uint(len(packet.payload), _LENGTH_BITS),
            pack_uint(packet.sequence, _SEQ_BITS),
        ])
        payload_bits = bytes_to_bits(packet.payload)
        crc_input = np.concatenate([header, payload_bits])
        crc = crc16_ccitt(np.packbits(crc_input).tobytes())
        return np.concatenate([crc_input, pack_uint(crc, _CRC_BITS)])

    def encode(self, packet: Packet) -> np.ndarray:
        """Full over-the-air bit frame for a packet."""
        body = self._body_bits(packet)
        if self._fec is not None:
            pad = (-body.size) % 4
            body = np.concatenate([body, np.zeros(pad, dtype=np.uint8)])
            body = self._fec.encode(body)
            if self.use_interleaver:
                # FEC output length is a multiple of 7 == the depth, so
                # the interleaver's divisibility requirement holds.
                body = interleave(body, self.INTERLEAVE_DEPTH)
        return np.concatenate([self.preamble, body]).astype(np.uint8)

    def frame_length_bits(self, payload_bytes: int) -> int:
        """Total frame length for a payload size — for scheduling math."""
        return self.preamble.size + body_length_bits(payload_bytes,
                                                     self.use_fec)

    # --- decoding -----------------------------------------------------------

    def decode(self, bits) -> Packet:
        """Recover a packet from a *polarity-corrected* bit frame.

        Expects the frame to start at the preamble (the demodulator's
        output already is frame-aligned for single-frame captures).
        Raises :class:`PacketError` on truncation or CRC failure.
        """
        arr = as_bit_array(bits)
        n_pre = self.preamble.size
        if arr.size < n_pre:
            raise PacketError("frame shorter than the preamble")
        if not np.array_equal(arr[:n_pre], self.preamble):
            raise PacketError("preamble mismatch (bad alignment or polarity)")
        body = arr[n_pre:]
        if self._fec is not None:
            usable = body.size - body.size % 7
            if usable == 0:
                raise PacketError("frame truncated before FEC blocks")
            body = body[:usable]
            if self.use_interleaver:
                body = deinterleave(body, self.INTERLEAVE_DEPTH)
            body = self._fec.decode(body)
        header_bits = _LENGTH_BITS + _SEQ_BITS
        if body.size < header_bits + _CRC_BITS:
            raise PacketError("frame truncated inside the header")
        length = unpack_uint(body[:_LENGTH_BITS])
        sequence = unpack_uint(body[_LENGTH_BITS:header_bits])
        payload_end = header_bits + 8 * length
        if body.size < payload_end + _CRC_BITS:
            raise PacketError("frame truncated inside the payload")
        payload_bits = body[header_bits:payload_end]
        received_crc = unpack_uint(body[payload_end:payload_end + _CRC_BITS])
        crc_input = np.packbits(body[:payload_end]).tobytes()
        if crc16_ccitt(crc_input) != received_crc:
            raise PacketError("CRC check failed")
        return Packet(payload=bits_to_bytes(payload_bits), sequence=sequence)
