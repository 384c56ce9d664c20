"""Tests for the mmX packet codec."""

import numpy as np
import pytest

from repro.core.packet import (
    DEFAULT_PREAMBLE_BITS,
    MAX_PAYLOAD_BYTES,
    Packet,
    PacketCodec,
    PacketError,
    body_length_bits,
)
from repro.core.throughput import (
    CODING_MODES,
    frame_success_probability,
    goodput_bps,
)


class TestPacket:
    def test_payload_too_large(self):
        with pytest.raises(ValueError):
            Packet(payload=b"x" * (MAX_PAYLOAD_BYTES + 1))

    def test_sequence_bounds(self):
        Packet(payload=b"", sequence=255)
        with pytest.raises(ValueError):
            Packet(payload=b"", sequence=256)
        with pytest.raises(ValueError):
            Packet(payload=b"", sequence=-1)


class TestRoundtrip:
    @pytest.mark.parametrize("payload", [b"", b"a", b"hello mmX",
                                         bytes(range(256))])
    def test_clean_roundtrip(self, payload):
        codec = PacketCodec()
        packet = Packet(payload=payload, sequence=7)
        decoded = codec.decode(codec.encode(packet))
        assert decoded.payload == payload
        assert decoded.sequence == 7

    def test_fec_roundtrip(self):
        codec = PacketCodec(use_fec=True)
        packet = Packet(payload=b"forward error correction", sequence=1)
        assert codec.decode(codec.encode(packet)).payload == packet.payload

    def test_fec_corrects_sparse_errors(self, rng):
        codec = PacketCodec(use_fec=True)
        packet = Packet(payload=b"robust bits", sequence=2)
        frame = codec.encode(packet)
        corrupted = frame.copy()
        # One flip per 7-bit codeword, in the body only.
        start = codec.preamble.size
        for i in range(start, corrupted.size - 7, 7):
            corrupted[i] ^= 1
        assert codec.decode(corrupted).payload == packet.payload

    def test_uncoded_flip_fails_crc(self):
        codec = PacketCodec()
        frame = codec.encode(Packet(payload=b"fragile", sequence=3))
        frame[codec.preamble.size + 30] ^= 1
        with pytest.raises(PacketError):
            codec.decode(frame)


class TestFraming:
    def test_frame_starts_with_preamble(self):
        codec = PacketCodec()
        frame = codec.encode(Packet(payload=b"x"))
        assert np.array_equal(frame[: codec.preamble.size], codec.preamble)

    def test_frame_length_formula(self):
        codec = PacketCodec()
        for size in (0, 1, 10, 100):
            frame = codec.encode(Packet(payload=b"z" * size))
            assert frame.size == codec.frame_length_bits(size)

    def test_frame_length_formula_with_fec(self):
        codec = PacketCodec(use_fec=True)
        for size in (0, 3, 64):
            frame = codec.encode(Packet(payload=b"z" * size))
            assert frame.size == codec.frame_length_bits(size)

    def test_bad_preamble_rejected(self):
        codec = PacketCodec()
        frame = codec.encode(Packet(payload=b"y"))
        frame[:5] ^= 1  # 5 of 26 preamble bits flipped
        with pytest.raises(PacketError):
            codec.decode(frame)

    def test_truncated_header(self):
        codec = PacketCodec()
        frame = codec.encode(Packet(payload=b"hello"))
        with pytest.raises(PacketError):
            codec.decode(frame[: codec.preamble.size + 10])

    def test_truncated_payload(self):
        codec = PacketCodec()
        frame = codec.encode(Packet(payload=b"hello world"))
        with pytest.raises(PacketError):
            codec.decode(frame[:-20])

    def test_length_field_lies(self):
        # Corrupt the length field upward: decode must fail cleanly,
        # not read out of bounds.
        codec = PacketCodec()
        frame = codec.encode(Packet(payload=b"abc"))
        frame[codec.preamble.size] ^= 1  # MSB of the 16-bit length
        with pytest.raises(PacketError):
            codec.decode(frame)


class TestBodyLengthBits:
    """The codec-free length arithmetic against real encoded frames."""

    @pytest.mark.parametrize("use_fec,use_interleaver",
                             [(False, False), (True, False), (True, True)])
    @pytest.mark.parametrize("size", [0, 1, 3, 4, 7, 255, 256, 1000])
    def test_matches_encoded_frame(self, use_fec, use_interleaver, size):
        codec = PacketCodec(use_fec=use_fec, use_interleaver=use_interleaver)
        frame = codec.encode(Packet(bytes(size)))
        assert frame.size == codec.frame_length_bits(size)
        assert frame.size == (DEFAULT_PREAMBLE_BITS
                              + body_length_bits(size, use_fec))

    @pytest.mark.parametrize("size", [-1, MAX_PAYLOAD_BYTES + 1])
    def test_out_of_range_payload_raises(self, size):
        with pytest.raises(ValueError):
            body_length_bits(size)
        with pytest.raises(ValueError):
            PacketCodec().frame_length_bits(size)
        for mode in CODING_MODES:
            with pytest.raises(ValueError):
                frame_success_probability(1e-3, size, mode)
            with pytest.raises(ValueError):
                goodput_bps(10.0, 1e6, size, mode)
