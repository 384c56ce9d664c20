"""Platform comparator specs for Table 1 (§10).

Every row of the paper's Table 1 as a :class:`PlatformSpec`.  The mmX row
is *derived* from the hardware models (cost ledger, power ledger, switch
bitrate cap, energy/bit) rather than hard-coded — that is the point of
the reproduction — while the other platforms are spec-sheet constants
exactly as the paper tabulates them.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..hardware.chains import NodeHardware

__all__ = ["PlatformSpec", "PLATFORMS", "mmx_platform", "comparison_table"]


@dataclass(frozen=True)
class PlatformSpec:
    """One wireless platform's comparison row."""

    name: str
    carrier_ghz: float
    cost_usd: float
    power_w: float
    tx_power_dbm: float
    bandwidth_hz: float
    bitrate_bps: float
    range_m: float

    @property
    def energy_per_bit_j(self) -> float:
        """Energy efficiency [J/bit] = power / bitrate."""
        return self.power_w / self.bitrate_bps

    @property
    def is_mmwave(self) -> bool:
        """Whether the platform operates above 20 GHz."""
        return self.carrier_ghz >= 20.0


def mmx_platform() -> PlatformSpec:
    """The mmX row, derived from the node hardware models."""
    hw = NodeHardware()
    return PlatformSpec(
        name="mmX",
        carrier_ghz=24.0,
        cost_usd=hw.total_cost_usd,
        power_w=hw.total_power_w,
        tx_power_dbm=hw.radiated_eirp_dbm,
        bandwidth_hz=250e6,
        bitrate_bps=hw.max_bitrate_bps,
        range_m=18.0,
    )


# Non-mmX rows of Table 1, verbatim from the paper.
PLATFORMS: dict[str, PlatformSpec] = {
    "MiRa": PlatformSpec(
        name="MiRa", carrier_ghz=24.0, cost_usd=7000.0, power_w=11.6,
        tx_power_dbm=10.0, bandwidth_hz=250e6, bitrate_bps=1e9,
        range_m=100.0),
    "OpenMili": PlatformSpec(
        name="OpenMili/Pasternack", carrier_ghz=60.0, cost_usd=8000.0,
        power_w=5.0, tx_power_dbm=12.0, bandwidth_hz=1e9,
        bitrate_bps=1.3e9, range_m=11.0),
    "WiFi": PlatformSpec(
        name="WiFi (802.11n)", carrier_ghz=2.4, cost_usd=10.0, power_w=2.1,
        tx_power_dbm=30.0, bandwidth_hz=70e6, bitrate_bps=120e6,
        range_m=50.0),
    "Bluetooth": PlatformSpec(
        name="Bluetooth", carrier_ghz=2.4, cost_usd=10.0, power_w=0.029,
        tx_power_dbm=5.0, bandwidth_hz=1e6, bitrate_bps=1e6,
        range_m=10.0),
}


def comparison_table() -> list[PlatformSpec]:
    """All Table 1 rows, mmX first — the paper's column order."""
    return [mmx_platform(), PLATFORMS["MiRa"], PLATFORMS["OpenMili"],
            PLATFORMS["WiFi"], PLATFORMS["Bluetooth"]]
