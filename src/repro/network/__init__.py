"""Multi-node support: FDM, TMA-based SDM, interference.

Section 7: mmX shares the AP among many nodes with frequency-division
(channels sized to demand, assigned once at initialization) and, when
demand exceeds the band, spatial reuse via a Time-Modulated Array that
hashes arrival directions onto distinct harmonic frequencies (Eq. 1-4).
"""

from .deployment import Deployment, NodeAssignment, plan_access_points
from .fdm import ChannelPlan, FdmAllocator, SpectrumExhausted
from .init_protocol import SideChannel, InitializationProtocol
from .interference import InterferenceModel, sinr_db
from .mac import PacketQueue, TdmaSchedule, UplinkSimulator, UplinkStats
from .network import MultiNodeNetwork, NetworkSnapshot, NodeStats
from .sdm_scheduler import (
    AngularSdmScheduler,
    RoundRobinScheduler,
    arrival_bearing_rad,
    assignment_min_separation_rad,
)
from .tma import TimeModulatedArray, sequential_switching_schedule

__all__ = [
    "AngularSdmScheduler",
    "ChannelPlan",
    "Deployment",
    "FdmAllocator",
    "InitializationProtocol",
    "InterferenceModel",
    "MultiNodeNetwork",
    "NetworkSnapshot",
    "NodeAssignment",
    "NodeStats",
    "PacketQueue",
    "RoundRobinScheduler",
    "SideChannel",
    "SpectrumExhausted",
    "TdmaSchedule",
    "TimeModulatedArray",
    "UplinkSimulator",
    "UplinkStats",
    "arrival_bearing_rad",
    "assignment_min_separation_rad",
    "plan_access_points",
    "sequential_switching_schedule",
    "sinr_db",
]
