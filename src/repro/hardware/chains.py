"""Assembled hardware chains: the mmX node and AP bill of materials.

These aggregate the component models into the totals the paper reports:
the node's 1.1 W / ~$110 / 10 dBm EIRP, and the AP's cascade noise figure
that anchors every SNR number in section 9.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..constants import NODE_EIRP_DBM, NODE_POWER_W
from ..phy.snr import noise_figure_cascade_db
from .components import RFComponent
from .frontend import ADF5356PLL, HMC264SubharmonicMixer, HMC751LNA, MicrostripFilter
from .switch import ADRF5020Switch
from .vco import HMC533VCO

__all__ = ["NodeHardware", "AccessPointHardware"]


@dataclass
class NodeHardware:
    """The mmX node's mmWave section: VCO -> SPDT -> two antenna arrays.

    The digital controller (a Raspberry Pi in the prototype) is included
    in the power ledger but has no RF behaviour.  ``controller_power_w``
    defaults to whatever closes the ledger on the paper's measured 1.1 W
    total, which attributes ~0.7 W to the Pi + SPI glue — consistent with
    an idle-ish Pi 3.
    """

    vco: HMC533VCO = field(default_factory=HMC533VCO)
    switch: ADRF5020Switch = field(default_factory=ADRF5020Switch)
    controller_power_w: float | None = None
    antenna_cost_usd: float = 15.0

    def __post_init__(self):
        rf_power = self.vco.power_w + self.switch.power_w
        if self.controller_power_w is None:
            self.controller_power_w = NODE_POWER_W - rf_power
        if self.controller_power_w < 0:
            raise ValueError("controller power cannot be negative")

    @property
    def total_power_w(self) -> float:
        """Node power draw [W] — 1.1 W with default parts (section 9.1)."""
        return (self.vco.power_w + self.switch.power_w
                + self.controller_power_w)

    @property
    def total_cost_usd(self) -> float:
        """Node BOM cost [USD]; ~$110 with the controller board included."""
        controller_cost = 40.0  # Raspberry Pi 3 class board
        return (self.vco.cost_usd + self.switch.cost_usd
                + self.antenna_cost_usd + controller_cost)

    @property
    def max_bitrate_bps(self) -> float:
        """Bitrate cap — the switch's toggle limit (100 Mbps)."""
        return self.switch.max_bitrate_bps

    @property
    def radiated_eirp_dbm(self) -> float:
        """The FCC-compliant operating EIRP the paper quotes (10 dBm)."""
        return NODE_EIRP_DBM

    def energy_per_bit_j(self, bitrate_bps: float | None = None) -> float:
        """Energy per bit [J] at a bitrate (default: the 100 Mbps cap)."""
        rate = bitrate_bps or self.max_bitrate_bps
        self.switch.validate_bitrate(rate)
        return self.total_power_w / rate


@dataclass
class AccessPointHardware:
    """The mmX AP chain: LNA -> filter -> sub-harmonic mixer (-> USRP)."""

    lna: HMC751LNA = field(default_factory=HMC751LNA)
    bandpass: MicrostripFilter = field(default_factory=MicrostripFilter)
    mixer: HMC264SubharmonicMixer = field(default_factory=HMC264SubharmonicMixer)
    pll: ADF5356PLL = field(default_factory=ADF5356PLL)
    baseband_noise_figure_db: float = 8.0

    def stages(self) -> list[RFComponent]:
        """Signal-path stages in cascade order."""
        return [self.lna, self.bandpass, self.mixer]

    @property
    def cascade_noise_figure_db(self) -> float:
        """System noise figure via Friis — ~2.2 dB, LNA-dominated.

        This is the quantitative payoff of putting the LNA first: the
        filter's 5 dB and the mixer's ~9 dB losses are divided down by
        the LNA's 25 dB gain.
        """
        chain = [(c.gain_db, c.noise_figure_db) for c in self.stages()]
        chain.append((0.0, self.baseband_noise_figure_db))
        return noise_figure_cascade_db(chain)
