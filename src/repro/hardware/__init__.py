"""Behavioural models of the mmX bill of materials (sections 5 and 8).

No RF hardware exists in this reproduction; instead each component the
paper names on the signal path — HMC533 VCO, ADRF5020 SPDT switch,
HMC751 LNA, HMC264 sub-harmonic mixer, the coupled-line microstrip
filter — is modelled by the datasheet behaviour the evaluation actually
depends on: tuning curves, gains, noise figures, losses, switching
limits, power draw and unit cost.  The AP's ADF5356 LO synthesiser is
not modelled, since it sets nothing on the signal path.  Assembled
chains expose cascade noise figure and total power/cost, which feed
Table 1 and the 11 nJ/bit microbenchmark.
"""

from .chains import NodeHardware, AccessPointHardware
from .components import RFComponent, ComponentSpec
from .frontend import (
    HMC751LNA,
    HMC264SubharmonicMixer,
    MicrostripFilter,
)
from .power import EnergyModel
from .switch import ADRF5020Switch
from .vco import HMC533VCO

__all__ = [
    "ADRF5020Switch",
    "AccessPointHardware",
    "ComponentSpec",
    "EnergyModel",
    "HMC264SubharmonicMixer",
    "HMC533VCO",
    "HMC751LNA",
    "MicrostripFilter",
    "NodeHardware",
    "RFComponent",
]
