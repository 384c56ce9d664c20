"""Tests for the interleaved packet codec."""

import pytest

from repro.core.packet import Packet, PacketCodec, PacketError


class TestInterleavedCodec:
    def test_requires_fec(self):
        with pytest.raises(ValueError):
            PacketCodec(use_interleaver=True, use_fec=False)

    def test_roundtrip_clean(self):
        codec = PacketCodec(use_fec=True, use_interleaver=True)
        packet = Packet(payload=b"interleaved payload", sequence=9)
        decoded = codec.decode(codec.encode(packet))
        assert decoded.payload == packet.payload
        assert decoded.sequence == 9

    def test_frame_length_unchanged_by_interleaving(self):
        plain = PacketCodec(use_fec=True)
        inter = PacketCodec(use_fec=True, use_interleaver=True)
        assert (plain.encode(Packet(b"x" * 40)).size
                == inter.encode(Packet(b"x" * 40)).size)

    def test_burst_of_seven_corrected(self):
        codec = PacketCodec(use_fec=True, use_interleaver=True)
        packet = Packet(payload=b"burst-proof payload bytes", sequence=1)
        frame = codec.encode(packet)
        start = codec.preamble.size + 21
        corrupted = frame.copy()
        corrupted[start:start + 7] ^= 1  # a 7-bit burst
        assert codec.decode(corrupted).payload == packet.payload

    def test_same_burst_defeats_noninterleaved_fec(self):
        codec = PacketCodec(use_fec=True, use_interleaver=False)
        packet = Packet(payload=b"burst-proof payload bytes", sequence=1)
        frame = codec.encode(packet)
        start = codec.preamble.size + 21
        corrupted = frame.copy()
        corrupted[start:start + 7] ^= 1
        with pytest.raises(PacketError):
            codec.decode(corrupted)

    def test_scattered_bursts_corrected(self):
        codec = PacketCodec(use_fec=True, use_interleaver=True)
        packet = Packet(payload=b"z" * 50, sequence=2)
        frame = codec.encode(packet)
        body_len = frame.size - codec.preamble.size
        corrupted = frame.copy()
        # Two short bursts far apart.
        for start in (codec.preamble.size + 5,
                      codec.preamble.size + body_len // 2):
            corrupted[start:start + 4] ^= 1
        assert codec.decode(corrupted).payload == packet.payload
