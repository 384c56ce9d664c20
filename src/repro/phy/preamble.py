"""Preamble design, detection and polarity resolution.

OTAM has an inherent polarity ambiguity: when the LoS path is blocked the
roles of the strong/weak beams swap and *all bits invert* (section 6.1,
Fig. 4b).  The paper resolves this with known training bits at the start of
every packet.  We use a Barker-13 sequence — its autocorrelation sidelobes
are at most 1/13 of the peak, so both timing and polarity fall out of a
single correlation.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import pairwise

import numpy as np

from .bits import as_bit_array

__all__ = [
    "BARKER13",
    "default_preamble_bits",
    "correlate_preamble",
    "locate_preamble",
    "PreambleDetection",
]

BARKER13 = np.array([1, 1, 1, 1, 1, 0, 0, 1, 1, 0, 1, 0, 1], dtype=np.uint8)
"""Barker-13 code in bit form (+1 -> 1, -1 -> 0)."""

_BLOCK_ROWS = 1024
"""Most preamble windows :func:`correlate_preamble` squares at once."""


def default_preamble_bits(repeats: int = 2) -> np.ndarray:
    """The mmX packet preamble: ``repeats`` Barker-13 sequences."""
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    return np.tile(BARKER13, repeats)


def _bipolar(bits) -> np.ndarray:
    return 2.0 * as_bit_array(bits).astype(float) - 1.0


def correlate_preamble(soft_bits: np.ndarray, preamble) -> np.ndarray:
    """Normalised sliding correlation of soft bit values with a preamble.

    ``soft_bits`` are real values (e.g. envelope samples mapped to
    [-1, 1]); the output at index i is the correlation of the window
    starting at i, in [-1, 1].  A strongly *negative* peak means the
    preamble was found with inverted polarity.
    """
    x = np.asarray(soft_bits, dtype=float)
    p = _bipolar(preamble)
    if x.size < p.size:
        return np.zeros(0)
    windows = np.lib.stride_tricks.sliding_window_view(x, p.size)
    p_norm = np.linalg.norm(p)
    count = windows.shape[0]
    corr = np.empty(count)
    # Row blocks bound the squared windows the norms need.  They are
    # near-equal, so no block has a single row unless the whole search
    # does: matmul sums a window view's rows in order, but hands a
    # one-row block to BLAS's dot product, which sums in another.
    blocks = -(-count // _BLOCK_ROWS)
    edges = [count * k // blocks for k in range(blocks + 1)]
    for start, stop in pairwise(edges):
        block = windows[start:stop]
        norms = np.linalg.norm(block, axis=1) * p_norm
        with np.errstate(invalid="ignore", divide="ignore"):
            np.divide(block @ p, norms, out=corr[start:stop])
    return np.nan_to_num(corr, copy=False)


@dataclass(frozen=True)
class PreambleDetection:
    """Result of searching a bit stream for the packet preamble."""

    start_index: int
    inverted: bool
    correlation: float

    @property
    def found(self) -> bool:
        """Whether the correlation cleared the detection threshold."""
        return self.start_index >= 0


def locate_preamble(soft_bits: np.ndarray, preamble=None,
                    threshold: float = 0.6) -> PreambleDetection:
    """Find the preamble in a soft bit stream and resolve OTAM polarity.

    Searches both polarities: the strongest |correlation| above
    ``threshold`` wins, and its sign reports whether the channel inverted
    the bits (blocked-LoS case).  Returns a detection with
    ``start_index = -1`` when nothing clears the threshold.
    """
    if preamble is None:
        preamble = default_preamble_bits()
    corr = correlate_preamble(soft_bits, preamble)
    if corr.size == 0:
        return PreambleDetection(start_index=-1, inverted=False, correlation=0.0)
    best = int(np.argmax(np.abs(corr)))
    value = float(corr[best])
    if abs(value) < threshold:
        return PreambleDetection(start_index=-1, inverted=False, correlation=value)
    return PreambleDetection(start_index=best, inverted=value < 0.0,
                             correlation=value)
