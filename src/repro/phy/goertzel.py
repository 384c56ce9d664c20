"""Per-block tone powers — the FSK half of the demodulator.

Per bit the AP must decide which of two closely spaced tones was present
(section 6.3).  A full FFT per bit is wasteful: the decision needs one
DFT bin per tone, ``X(f) = Σ x[n] e^{-j2πfn/fs}`` over the bit's
samples.  A Goertzel filter is the textbook way to compute such a bin;
this module evaluates the same sum directly, block by block, as one
sum of products of the capture's blocks against a small conjugated
tone matrix.

The sum runs in numpy's own ``einsum`` loop, not a BLAS matrix product.
BLAS would allocate per-thread work buffers that ``tracemalloc`` does not
see, and its kernel is picked for the host CPU at load time, so the
powers' last bits would depend on the host's BLAS core.
"""

from __future__ import annotations

import numpy as np
import numpy.typing as npt

from ..units import FloatArray

__all__ = ["goertzel_block_powers"]


def goertzel_block_powers(samples: npt.ArrayLike, block_size: int,
                          frequencies_hz: npt.ArrayLike,
                          sample_rate_hz: float) -> FloatArray:
    """Per-block tone powers: shape ``(num_blocks, num_frequencies)``.

    Splits ``samples`` into consecutive ``block_size`` chunks (one per bit
    in the demodulator) and evaluates each candidate tone in each chunk.
    Trailing samples that do not fill a block are dropped.
    """
    x = np.asarray(samples, dtype=np.complex128)
    if block_size < 1:
        raise ValueError("block size must be >= 1")
    freqs = np.atleast_1d(np.asarray(frequencies_hz, dtype=float))
    num_blocks = x.size // block_size
    blocks = x[: num_blocks * block_size].reshape(num_blocks, block_size)
    t = np.arange(block_size) / sample_rate_hz
    # (num_freqs, block_size) conjugated tone matrix.
    tones = np.exp(-2j * np.pi * np.outer(freqs, t))
    # (num_blocks, num_freqs); einsum without optimize= never calls BLAS.
    spectra = np.einsum("ij,kj->ik", blocks, tones)
    powers: FloatArray = (np.abs(spectra) ** 2) / (block_size * block_size)
    return powers
