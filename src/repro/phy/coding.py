"""Channel coding: CRC-16, the Hamming(7,4) code and a block interleaver.

Section 9.3 notes mmX's physical BER "can be reduced even further by using
an error correction coding scheme"; these make that concrete and give the
packet layer an integrity check (CRC) and its FEC option: Hamming(7,4),
optionally interleaved against bursts.
"""

from __future__ import annotations

import numpy as np

from .bits import as_bit_array

__all__ = [
    "crc16_ccitt",
    "HammingCode74",
    "interleave",
    "deinterleave",
]


def crc16_ccitt(data: bytes, initial: int = 0xFFFF) -> int:
    """CRC-16/CCITT-FALSE over a byte string (poly 0x1021)."""
    crc = initial
    for byte in data:
        crc ^= byte << 8
        for _ in range(8):
            if crc & 0x8000:
                crc = ((crc << 1) ^ 0x1021) & 0xFFFF
            else:
                crc = (crc << 1) & 0xFFFF
    return crc


class HammingCode74:
    """Hamming(7,4): corrects any single bit error per 7-bit codeword."""

    # Generator in systematic form [I | P]; parity P chosen to match the
    # classic H = [P^T | I] parity-check matrix.
    _P = np.array([
        [1, 1, 0],
        [1, 0, 1],
        [0, 1, 1],
        [1, 1, 1],
    ], dtype=np.uint8)

    def encode(self, bits) -> np.ndarray:
        """Encode; input length must be a multiple of 4."""
        arr = as_bit_array(bits)
        if arr.size % 4 != 0:
            raise ValueError("Hamming(7,4) input length must be a multiple of 4")
        msgs = arr.reshape(-1, 4)
        parity = (msgs @ self._P) % 2
        return np.hstack([msgs, parity]).astype(np.uint8).ravel()

    def decode(self, coded) -> np.ndarray:
        """Decode with single-error correction per codeword."""
        arr = as_bit_array(coded)
        if arr.size % 7 != 0:
            raise ValueError("Hamming(7,4) coded length must be a multiple of 7")
        words = arr.reshape(-1, 7).astype(np.uint8)
        data, parity = words[:, :4], words[:, 4:]
        syndrome = (data @ self._P + parity) % 2  # (n, 3)
        # Columns of H indexed by bit position: data bits map to rows of P,
        # parity bits map to identity columns.
        h_columns = np.vstack([self._P, np.eye(3, dtype=np.uint8)])  # (7, 3)
        corrected = words.copy()
        for i, s in enumerate(syndrome):
            if not s.any():
                continue
            matches = np.where((h_columns == s).all(axis=1))[0]
            if matches.size:
                corrected[i, matches[0]] ^= 1
        return corrected[:, :4].ravel()


def interleave(bits, depth: int) -> np.ndarray:
    """Block interleaver: write row-wise into ``depth`` rows, read column-wise.

    Spreads burst errors (e.g. a blocker transiting the beam) across
    codewords.  Length must be a multiple of ``depth``.
    """
    arr = as_bit_array(bits)
    if depth < 1:
        raise ValueError("depth must be >= 1")
    if arr.size % depth != 0:
        raise ValueError("bit length must be a multiple of the depth")
    return arr.reshape(depth, -1).T.ravel().astype(np.uint8)


def deinterleave(bits, depth: int) -> np.ndarray:
    """Inverse of :func:`interleave` for the same depth."""
    arr = as_bit_array(bits)
    if depth < 1:
        raise ValueError("depth must be >= 1")
    if arr.size % depth != 0:
        raise ValueError("bit length must be a multiple of the depth")
    return arr.reshape(-1, depth).T.ravel().astype(np.uint8)
