"""Tests for repro.phy.coding: CRC, repetition, Hamming, interleaving."""

import numpy as np
import pytest

from repro.phy import coding as C
from repro.phy.bits import random_bits


class TestCrc16:
    def test_known_vector(self):
        # CRC-16/CCITT-FALSE of "123456789" is 0x29B1.
        assert C.crc16_ccitt(b"123456789") == 0x29B1

    def test_empty_is_initial(self):
        assert C.crc16_ccitt(b"") == 0xFFFF

    def test_detects_single_bit_flip(self):
        data = bytearray(b"over the air modulation")
        good = C.crc16_ccitt(bytes(data))
        data[3] ^= 0x10
        assert C.crc16_ccitt(bytes(data)) != good


class TestRepetition:
    def test_roundtrip_clean(self, rng):
        code = C.RepetitionCode(3)
        bits = random_bits(64, rng)
        assert np.array_equal(code.decode(code.encode(bits)), bits)

    def test_corrects_single_error_per_group(self, rng):
        code = C.RepetitionCode(3)
        bits = random_bits(32, rng)
        coded = code.encode(bits)
        # Flip the first channel bit of every group.
        coded[::3] ^= 1
        assert np.array_equal(code.decode(coded), bits)

    def test_rate(self):
        assert C.RepetitionCode(5).rate == pytest.approx(0.2)

    def test_even_repetitions_rejected(self):
        with pytest.raises(ValueError):
            C.RepetitionCode(2)

    def test_bad_length_rejected(self):
        with pytest.raises(ValueError):
            C.RepetitionCode(3).decode([1, 0])


class TestHamming74:
    def test_roundtrip_clean(self, rng):
        code = C.HammingCode74()
        bits = random_bits(4 * 25, rng)
        assert np.array_equal(code.decode(code.encode(bits)), bits)

    def test_corrects_any_single_error(self, rng):
        code = C.HammingCode74()
        bits = random_bits(4, rng)
        coded = code.encode(bits)
        for position in range(7):
            corrupted = coded.copy()
            corrupted[position] ^= 1
            assert np.array_equal(code.decode(corrupted), bits), position

    def test_two_errors_not_guaranteed(self, rng):
        # Document the limitation: double errors may decode wrongly.
        code = C.HammingCode74()
        bits = np.array([1, 0, 1, 1], dtype=np.uint8)
        coded = code.encode(bits)
        coded[0] ^= 1
        coded[1] ^= 1
        decoded = code.decode(coded)
        assert decoded.shape == bits.shape  # decodes *something*

    def test_rate(self):
        assert C.HammingCode74().rate == pytest.approx(4 / 7)

    def test_bad_lengths(self):
        code = C.HammingCode74()
        with pytest.raises(ValueError):
            code.encode([1, 0, 1])
        with pytest.raises(ValueError):
            code.decode([1, 0, 1])


class TestInterleaver:
    def test_roundtrip(self, rng):
        bits = random_bits(60, rng)
        assert np.array_equal(
            C.deinterleave(C.interleave(bits, 6), 6), bits)

    def test_spreads_bursts(self):
        code = C.RepetitionCode(3)
        bits = np.zeros(12, dtype=np.uint8)
        coded = code.encode(bits)       # 36 channel bits
        inter = C.interleave(coded, 12)
        # A 12-bit burst hits each codeword group at most once after
        # deinterleaving, so majority vote still wins everywhere.
        inter[:12] ^= 1
        recovered = code.decode(C.deinterleave(inter, 12))
        assert np.array_equal(recovered, bits)

    def test_burst_without_interleaving_fails(self):
        code = C.RepetitionCode(3)
        bits = np.zeros(12, dtype=np.uint8)
        coded = code.encode(bits)
        coded[:12] ^= 1  # wipes out four whole groups
        recovered = code.decode(coded)
        assert not np.array_equal(recovered, bits)

    def test_invalid_depth(self):
        with pytest.raises(ValueError):
            C.interleave([1, 0, 1, 0], 3)
