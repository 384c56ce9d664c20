"""Link adaptation and goodput: turning SNR into delivered bits.

The paper stops at physical BER ("it can be reduced even further by
using an error correction coding scheme", §9.3) and a raw 100 Mbps cap.
A deployment needs the next step: given a placement's SNR, what payload
actually gets through, and which coding mode should the node use?  This
module answers both:

* :func:`frame_success_probability` — BER -> whole-frame survival,
  accounting for FEC's per-codeword correction.
* :func:`goodput_bps` — surviving payload bits per second after
  preamble/header/CRC/FEC overheads.
* :class:`RateAdapter` — picks the coding mode maximising expected
  goodput at a given SNR; its decisions produce the classic stepped
  rate-vs-range curve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..phy import ber as ber_theory
from .packet import DEFAULT_PREAMBLE_BITS, PacketCodec, body_length_bits

__all__ = [
    "CodingMode",
    "CODING_MODES",
    "frame_success_probability",
    "goodput_bps",
    "RateAdapter",
]


@dataclass(frozen=True)
class CodingMode:
    """One point on the node's (tiny) rate-adaptation ladder."""

    name: str
    use_fec: bool
    correctable_per_codeword: int
    codeword_bits: int

    def codec(self) -> PacketCodec:
        """A packet codec configured for this mode."""
        return PacketCodec(use_fec=self.use_fec)


CODING_MODES: tuple[CodingMode, ...] = (
    CodingMode(name="uncoded", use_fec=False,
               correctable_per_codeword=0, codeword_bits=1),
    CodingMode(name="hamming74", use_fec=True,
               correctable_per_codeword=1, codeword_bits=7),
)
"""The modes the mmX controller can switch between per packet."""


def frame_success_probability(ber: float, payload_bytes: int,
                              mode: CodingMode) -> float:
    """Probability an entire frame decodes (CRC passes).

    Uncoded: every body bit must survive.  Hamming(7,4): each 7-bit
    codeword survives with at most one error; codewords are assumed
    independent (interleaving makes that accurate even under short
    bursts).  The preamble is excluded — its correlator tolerates
    several errors by design.
    """
    if not 0.0 <= ber <= 1.0:
        raise ValueError("BER must be a probability")
    body_bits = body_length_bits(payload_bytes, mode.use_fec)
    if mode.codeword_bits <= 1:
        return float((1.0 - ber) ** body_bits)
    num_codewords = body_bits // mode.codeword_bits
    n = mode.codeword_bits
    # P(codeword ok) = sum_{k<=t} C(n,k) p^k (1-p)^(n-k)
    p_ok = 0.0
    for k in range(mode.correctable_per_codeword + 1):
        p_ok += (float(math.comb(n, k)) * ber**k
                 * (1.0 - ber) ** (n - k))
    # The partial binomial sum can exceed 1.0 by a few ULPs at tiny BER.
    return float(min(p_ok, 1.0) ** num_codewords)


def goodput_bps(snr_db: float, bit_rate_bps: float, payload_bytes: int,
                mode: CodingMode) -> float:
    """Expected delivered payload bits per second at a channel SNR.

    Channel BER comes from the paper's ASK table; the frame either
    fully survives (CRC) or is lost; overheads (preamble, header, CRC,
    FEC expansion) are paid from the channel rate.
    """
    if bit_rate_bps <= 0:
        raise ValueError("bit rate must be positive")
    if payload_bytes <= 0:
        raise ValueError("payload must be positive")
    ber = float(ber_theory.ber_ask_table(snr_db))
    p_frame = frame_success_probability(ber, payload_bytes, mode)
    frame_bits = (DEFAULT_PREAMBLE_BITS
                  + body_length_bits(payload_bytes, mode.use_fec))
    frames_per_second = bit_rate_bps / frame_bits
    return frames_per_second * p_frame * payload_bytes * 8.0


@dataclass
class RateAdapter:
    """Chooses the coding mode with the highest expected goodput."""

    bit_rate_bps: float = 1e6
    payload_bytes: int = 256
    modes: tuple[CodingMode, ...] = CODING_MODES

    def __post_init__(self):
        if not self.modes:
            raise ValueError("need at least one coding mode")

    def evaluate(self, snr_db: float) -> dict[str, float]:
        """Goodput per mode at one SNR."""
        return {mode.name: goodput_bps(snr_db, self.bit_rate_bps,
                                       self.payload_bytes, mode)
                for mode in self.modes}

    def select(self, snr_db: float) -> CodingMode:
        """The goodput-maximising mode at one SNR."""
        table = self.evaluate(snr_db)
        best_name = max(table, key=table.get)
        for mode in self.modes:
            if mode.name == best_name:
                return mode
        raise AssertionError("unreachable")
