"""Spectrum-congestion motivation model (paper §1).

The paper's opening argument: billions of low-power IoT devices on
WiFi "transmit at rates much lower than channel capacity, and since
these devices use omni-directional antennas, they are very inefficient
in their use of shared spectrum".  This module makes the argument
quantitative with a standard airtime model:

* On a shared WiFi channel, a device that joins at PHY rate ``r`` to
  carry offered load ``l`` consumes airtime ``l / r`` — and because the
  medium is shared omni-directionally, airtimes add across devices
  until the channel saturates.
* On mmX, directionality buys spatial reuse and the 250 MHz ISM band is
  split by FDM, so each admitted device consumes its own channel and
  nobody else's airtime.

The capacity headroom comparison feeds the motivation example and an
extension benchmark.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..constants import ISM_24GHZ_BANDWIDTH_HZ
from ..network.fdm import FdmAllocator, SpectrumExhausted

__all__ = ["WifiChannelModel", "MmxCapacityModel", "iot_device_capacity"]


@dataclass
class WifiChannelModel:
    """A shared WiFi channel under CSMA-style airtime accounting.

    Attributes
    ----------
    efficiency:
        Fraction of airtime that carries payload once contention,
        preambles and ACKs are paid; 0.6 is generous for dense cells.
    low_rate_phy_bps:
        The PHY rate cheap IoT devices actually use — the paper's
        point: low-power radios run slow modulations, so a 2 Mbps
        stream can consume 2/6 of the channel, not 2/120.
    """

    efficiency: float = 0.6
    low_rate_phy_bps: float = 6e6

    def __post_init__(self):
        if self.low_rate_phy_bps <= 0:
            raise ValueError("PHY rate must be positive")
        if not 0 < self.efficiency <= 1:
            raise ValueError("efficiency must be in (0, 1]")
        self._airtime_used = 0.0

    def airtime_for(self, offered_load_bps: float,
                    phy_rate_bps: float | None = None) -> float:
        """Airtime fraction one device's load costs at its PHY rate."""
        if offered_load_bps < 0:
            raise ValueError("load cannot be negative")
        rate = phy_rate_bps or self.low_rate_phy_bps
        return offered_load_bps / (rate * self.efficiency)

    def admit(self, offered_load_bps: float,
              phy_rate_bps: float | None = None) -> bool:
        """Try to admit a device; False once the channel saturates."""
        needed = self.airtime_for(offered_load_bps, phy_rate_bps)
        if self._airtime_used + needed > 1.0:
            return False
        self._airtime_used += needed
        return True


@dataclass
class MmxCapacityModel:
    """How many IoT devices the mmX AP absorbs, FDM first then SDM.

    ``sdm_reuse`` is the spatial-reuse factor once FDM is exhausted —
    how many co-channel node sets the TMA can separate (bounded by its
    element count in the paper's design).
    """

    band_width_hz: float = ISM_24GHZ_BANDWIDTH_HZ
    sdm_reuse: int = 4

    def __post_init__(self):
        if self.band_width_hz <= 0:
            raise ValueError("band width must be positive")
        if self.sdm_reuse < 1:
            raise ValueError("need at least reuse factor 1")

    def capacity(self, per_device_rate_bps: float) -> int:
        """Devices supported at a per-device offered rate."""
        allocator = FdmAllocator(band_low_hz=0.0,
                                 band_high_hz=self.band_width_hz)
        fdm = 0
        try:
            while True:
                allocator.allocate(fdm, per_device_rate_bps)
                fdm += 1
        except SpectrumExhausted:
            pass
        return fdm * self.sdm_reuse


def iot_device_capacity(per_device_rate_bps: float = 1e6) -> dict[str, int]:
    """Devices-per-AP comparison at a given IoT load (default 1 Mbps).

    Returns counts for a WiFi channel (airtime-limited at the low IoT
    PHY rate) and for mmX (FDM x SDM).  The gap — typically an order of
    magnitude — is §1's "huge strain on today's WiFi spectrum" argument
    in one number.
    """
    wifi = WifiChannelModel()
    wifi_count = 0
    while wifi.admit(per_device_rate_bps):
        wifi_count += 1
        if wifi_count > 100_000:
            break
    return {"wifi": wifi_count,
            "mmx": MmxCapacityModel().capacity(per_device_rate_bps)}
