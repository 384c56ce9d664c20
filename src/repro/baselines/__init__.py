"""Baselines mmX is compared against.

Two families: (1) beam-management alternatives — exhaustive and
hierarchical phased-array search, and fixed beams with AP feedback
(section 6's strawmen); (2) whole-platform comparators for Table 1 —
MiRa, OpenMili/Pasternack, 802.11n WiFi and Bluetooth.
"""

from .beam_search import (
    BeamSearchResult,
    ExhaustiveBeamSearch,
    HierarchicalBeamSearch,
    FeedbackBeamSelection,
)
from .platforms import PlatformSpec, PLATFORMS, mmx_platform, comparison_table
from .spectrum import WifiChannelModel, MmxCapacityModel, iot_device_capacity

__all__ = [
    "BeamSearchResult",
    "ExhaustiveBeamSearch",
    "FeedbackBeamSelection",
    "HierarchicalBeamSearch",
    "MmxCapacityModel",
    "PLATFORMS",
    "PlatformSpec",
    "WifiChannelModel",
    "comparison_table",
    "iot_device_capacity",
    "mmx_platform",
]
