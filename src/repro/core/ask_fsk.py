"""Joint ASK-FSK air-interface configuration (section 6.3).

A single mmX symbol carries one bit along two physical dimensions at once:

* **ASK** — which *beam* radiates the carrier, so the received amplitude
  is set by that beam's channel gain (this is OTAM); and
* **FSK** — a small VCO frequency nudge tied to the same bit, so the
  received *tone frequency* also identifies the bit.

The AP can decode from amplitude when the beams' path losses differ, and
falls back to frequency when they happen to coincide (<10 % of
placements); the configuration here pins down the numerology both ends
share.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["AskFskConfig"]


@dataclass(frozen=True)
class AskFskConfig:
    """Shared modulation numerology for one mmX link.

    Attributes
    ----------
    bit_rate_bps:
        Data rate; capped at 100 Mbps by the RF switch in real hardware.
    sample_rate_hz:
        Complex-baseband simulation/DSP rate; must be an integer multiple
        of the bit rate.
    fsk_deviation_hz:
        Tone offsets: bit 1 is sent at ``+deviation``, bit 0 at
        ``-deviation`` relative to the channel centre.  The default
        separation of one bit-rate (``2*deviation = bit_rate``) makes the
        two tones orthogonal over a bit period — the minimum for clean
        non-coherent FSK.
    """

    bit_rate_bps: float = 1e6
    sample_rate_hz: float = 8e6
    fsk_deviation_hz: float | None = None

    def __post_init__(self):
        if self.bit_rate_bps <= 0:
            raise ValueError("bit rate must be positive")
        if self.sample_rate_hz < 2 * self.bit_rate_bps:
            raise ValueError("sample rate must be at least 2x the bit rate")
        sps = self.sample_rate_hz / self.bit_rate_bps
        if abs(sps - round(sps)) > 1e-9:
            raise ValueError("sample rate must be an integer multiple "
                             "of the bit rate")
        if self.fsk_deviation_hz is None:
            object.__setattr__(self, "fsk_deviation_hz",
                               self.bit_rate_bps / 2.0)
        if self.fsk_deviation_hz <= 0:
            raise ValueError("FSK deviation must be positive")
        if 2 * self.fsk_deviation_hz >= self.sample_rate_hz / 2:
            raise ValueError("FSK tones must fit inside Nyquist")

    @property
    def samples_per_bit(self) -> int:
        """Samples spanning one bit period."""
        return int(round(self.sample_rate_hz / self.bit_rate_bps))

    @property
    def freq_one_hz(self) -> float:
        """Baseband tone frequency transmitted for bit 1."""
        return +self.fsk_deviation_hz

    @property
    def freq_zero_hz(self) -> float:
        """Baseband tone frequency transmitted for bit 0."""
        return -self.fsk_deviation_hz

    @property
    def tone_separation_hz(self) -> float:
        """Distance between the two FSK tones."""
        return self.freq_one_hz - self.freq_zero_hz

    @property
    def occupied_bandwidth_hz(self) -> float:
        """Rough occupied bandwidth: tone separation plus two main lobes."""
        return self.tone_separation_hz + 2.0 * self.bit_rate_bps
