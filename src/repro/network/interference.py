"""Interference accounting for the multi-node experiments (§9.5).

With FDM, neighbours leak adjacent-channel energy; with SDM, co-channel
signals survive only as TMA harmonic images 20-30 dB down (section 7,
citing [25]).  :class:`InterferenceModel` gives the suppression for each
channel relationship; :class:`repro.network.MultiNodeNetwork` sums the
suppressed levels into per-node SINR — the quantity Fig. 13 plots as
"SNR" (their measured SNR includes this interference).
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["InterferenceModel"]


@dataclass(frozen=True)
class InterferenceModel:
    """How much of an interferer's power lands in a victim's channel.

    Attributes
    ----------
    adjacent_channel_rejection_db:
        Suppression of a neighbour channel's leakage (transmit spectral
        mask + AP channel filter).  The OTAM tone is spectrally compact,
        so 50 dB is achievable for a guard-banded neighbour.
    nonadjacent_rejection_db:
        Suppression for channels further away.
    tma_image_suppression_db:
        Suppression of co-channel SDM signals via TMA harmonics; the
        paper's band is 20-30 dB — we default to its midpoint.
    """

    adjacent_channel_rejection_db: float = 50.0
    nonadjacent_rejection_db: float = 65.0
    tma_image_suppression_db: float = 25.0

    def __post_init__(self):
        if not (0 < self.adjacent_channel_rejection_db
                <= self.nonadjacent_rejection_db):
            raise ValueError("need 0 < adjacent <= non-adjacent rejection")
        if self.tma_image_suppression_db <= 0:
            raise ValueError("TMA suppression must be positive")

    def coupling_db(self, relationship: str) -> float:
        """Suppression [dB] for a given channel relationship.

        ``relationship`` is one of 'cochannel-sdm', 'adjacent', 'far'.
        """
        if relationship == "cochannel-sdm":
            return self.tma_image_suppression_db
        if relationship == "adjacent":
            return self.adjacent_channel_rejection_db
        if relationship == "far":
            return self.nonadjacent_rejection_db
        raise ValueError(f"unknown channel relationship {relationship!r}")
