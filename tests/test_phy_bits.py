"""Tests for repro.phy.bits."""

import numpy as np
import pytest

from repro.phy import bits as B


class TestAsBitArray:
    def test_accepts_list(self):
        out = B.as_bit_array([1, 0, 1])
        assert out.dtype == np.uint8
        assert list(out) == [1, 0, 1]

    def test_accepts_string(self):
        assert list(B.as_bit_array("1011")) == [1, 0, 1, 1]

    def test_rejects_non_binary(self):
        with pytest.raises(ValueError):
            B.as_bit_array([0, 1, 2])

    def test_empty(self):
        assert B.as_bit_array([]).size == 0


class TestBytesBits:
    def test_roundtrip(self):
        data = b"mmX over the air"
        assert B.bits_to_bytes(B.bytes_to_bits(data)) == data

    def test_msb_first(self):
        assert list(B.bytes_to_bits(b"\x80")) == [1, 0, 0, 0, 0, 0, 0, 0]

    def test_empty_bytes(self):
        assert B.bytes_to_bits(b"").size == 0

    def test_bits_to_bytes_requires_multiple_of_8(self):
        with pytest.raises(ValueError):
            B.bits_to_bytes([1, 0, 1])


class TestRandomBits:
    def test_length(self, rng):
        assert B.random_bits(100, rng).size == 100

    def test_binary(self, rng):
        out = B.random_bits(1000, rng)
        assert set(np.unique(out)) <= {0, 1}

    def test_roughly_balanced(self, rng):
        out = B.random_bits(10_000, rng)
        assert 0.45 < out.mean() < 0.55

    def test_deterministic_per_seed(self):
        a = B.random_bits(64, np.random.default_rng(7))
        b = B.random_bits(64, np.random.default_rng(7))
        assert np.array_equal(a, b)

    def test_negative_raises(self):
        with pytest.raises(ValueError):
            B.random_bits(-1)


class TestPackUnpack:
    def test_roundtrip(self):
        for value in (0, 1, 5, 255, 65535):
            width = max(value.bit_length(), 1)
            assert B.unpack_uint(B.pack_uint(value, width)) == value

    def test_msb_first(self):
        assert list(B.pack_uint(1, 4)) == [0, 0, 0, 1]
        assert list(B.pack_uint(8, 4)) == [1, 0, 0, 0]

    def test_overflow_raises(self):
        with pytest.raises(ValueError):
            B.pack_uint(16, 4)

    def test_negative_raises(self):
        with pytest.raises(ValueError):
            B.pack_uint(-1, 4)

    def test_zero_width_raises(self):
        with pytest.raises(ValueError):
            B.pack_uint(0, 0)
