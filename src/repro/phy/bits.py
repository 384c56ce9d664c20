"""Bit-level utilities shared by modulators, coders and framers.

Bits are represented throughout the library as 1-D ``numpy`` arrays of
``uint8`` values in {0, 1}, most-significant bit first within each byte.
"""

from __future__ import annotations

import numpy as np

from ..rng import ensure_rng

__all__ = [
    "as_bit_array",
    "bits_to_bytes",
    "bytes_to_bits",
    "random_bits",
    "pack_uint",
    "unpack_uint",
]


def as_bit_array(bits) -> np.ndarray:
    """Coerce a bit sequence into the canonical uint8 {0,1} array form.

    Accepts lists, tuples, strings of '0'/'1', and numpy arrays.  Raises
    ``ValueError`` for anything that is not strictly binary.
    """
    if isinstance(bits, str):
        bits = [int(c) for c in bits]
    arr = np.asarray(bits, dtype=np.uint8).ravel()
    if arr.size and not np.all((arr == 0) | (arr == 1)):
        raise ValueError("bit array may only contain 0 and 1")
    return arr


def bytes_to_bits(data: bytes) -> np.ndarray:
    """Expand a byte string into a bit array, MSB first."""
    if len(data) == 0:
        return np.zeros(0, dtype=np.uint8)
    return np.unpackbits(np.frombuffer(data, dtype=np.uint8))


def bits_to_bytes(bits) -> bytes:
    """Pack a bit array (length must be a multiple of 8) into bytes."""
    arr = as_bit_array(bits)
    if arr.size % 8 != 0:
        raise ValueError(f"bit length {arr.size} is not a multiple of 8")
    return np.packbits(arr).tobytes()


def random_bits(n: int, rng: np.random.Generator | None = None) -> np.ndarray:
    """Generate ``n`` uniform random bits."""
    if n < 0:
        raise ValueError("bit count must be non-negative")
    rng = ensure_rng(rng)
    return rng.integers(0, 2, size=n, dtype=np.uint8)


def pack_uint(value: int, width: int) -> np.ndarray:
    """Encode a non-negative integer as ``width`` bits, MSB first."""
    if width <= 0:
        raise ValueError("width must be positive")
    if value < 0 or value >= (1 << width):
        raise ValueError(f"value {value} does not fit in {width} bits")
    return np.array([(value >> (width - 1 - i)) & 1 for i in range(width)],
                    dtype=np.uint8)


def unpack_uint(bits) -> int:
    """Decode an MSB-first bit array into a non-negative integer."""
    arr = as_bit_array(bits)
    value = 0
    for b in arr:
        value = (value << 1) | int(b)
    return value
