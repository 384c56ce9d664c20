"""AP front-end stages: LNA, microstrip filter, sub-harmonic mixer, PLL.

Section 8.2 builds the mmX AP as LNA (HMC751, 25 dB gain / 2 dB NF at
24 GHz) -> coupled-line microstrip filter (5 dB passband IL, free on the
PCB) -> HMC264 sub-harmonic mixer driven by an ADF5356 PLL at 10 GHz
(doubled internally, so the costly mmWave PLL is avoided) -> 4 GHz IF
into a USRP.
"""

from __future__ import annotations

from ..constants import (
    AP_FILTER_INSERTION_LOSS_DB,
    AP_LNA_GAIN_DB,
    AP_LNA_NOISE_FIGURE_DB,
    AP_LO_FREQUENCY_HZ,
)
from .components import ComponentSpec, RFComponent

__all__ = [
    "HMC751LNA",
    "MicrostripFilter",
    "HMC264SubharmonicMixer",
    "ADF5356PLL",
]


class HMC751LNA(RFComponent):
    """HMC751 low-noise amplifier: first in the chain by design.

    Friis' formula makes the first stage's noise figure dominate when its
    gain is high — the reason the paper places the LNA before the lossy
    filter (section 8.2 / section 5.2).
    """

    def __init__(self, gain_db: float = AP_LNA_GAIN_DB,
                 noise_figure_db: float = AP_LNA_NOISE_FIGURE_DB):
        if gain_db <= 0:
            raise ValueError("LNA gain must be positive")
        super().__init__(ComponentSpec(
            name="HMC751 LNA", gain_db=gain_db,
            noise_figure_db=noise_figure_db, power_w=0.165, cost_usd=40.0))


class MicrostripFilter(RFComponent):
    """Coupled-line microstrip band-pass filter printed on the PCB.

    Costs nothing (it is copper traces), passes the 24 GHz ISM band with
    5 dB insertion loss, and provides out-of-band rejection.
    """

    def __init__(self,
                 center_frequency_hz: float = 24.0e9,
                 bandwidth_hz: float = 1.0e9,
                 insertion_loss_db: float = AP_FILTER_INSERTION_LOSS_DB,
                 stopband_rejection_db: float = 40.0):
        if bandwidth_hz <= 0:
            raise ValueError("filter bandwidth must be positive")
        if insertion_loss_db < 0 or stopband_rejection_db <= insertion_loss_db:
            raise ValueError("need 0 <= insertion loss < stopband rejection")
        super().__init__(ComponentSpec(
            name="microstrip filter", gain_db=-insertion_loss_db,
            noise_figure_db=insertion_loss_db, power_w=0.0, cost_usd=0.0))
        self.center_frequency_hz = center_frequency_hz
        self.bandwidth_hz = bandwidth_hz
        self.stopband_rejection_db = stopband_rejection_db


class HMC264SubharmonicMixer(RFComponent):
    """HMC264LC3B sub-harmonic mixer: internally doubles the LO.

    Fed with 10 GHz it behaves as a 20 GHz LO, down-converting 24 GHz RF
    to a 4 GHz IF — which is why the AP can use a cheap sub-mmWave PLL.
    """

    def __init__(self, conversion_loss_db: float = 9.0):
        if conversion_loss_db < 0:
            raise ValueError("conversion loss cannot be negative")
        super().__init__(ComponentSpec(
            name="HMC264 sub-harmonic mixer", gain_db=-conversion_loss_db,
            noise_figure_db=conversion_loss_db, power_w=0.04, cost_usd=50.0))


class ADF5356PLL(RFComponent):
    """ADF5356 synthesiser generating the 10 GHz LO.

    Operating the PLL at 10 GHz instead of 20-24 GHz is the cost/power
    trick section 5.2 describes; a mmWave PLL would be "costly and power
    hungry".
    """

    def __init__(self, output_frequency_hz: float = AP_LO_FREQUENCY_HZ):
        if output_frequency_hz <= 0:
            raise ValueError("LO frequency must be positive")
        super().__init__(ComponentSpec(
            name="ADF5356 PLL", gain_db=0.0, noise_figure_db=0.0,
            power_w=0.4, cost_usd=45.0))
        self.output_frequency_hz = output_frequency_hz
