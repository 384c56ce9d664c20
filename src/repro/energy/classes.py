"""The node-class registry: per-class capability descriptors.

The seed codebase bakes one device into every layer: `MmxNode` is
always on, generates its own carrier with a free-running VCO, and
modulates by beam switching (joint ASK-FSK).  The "billions of things"
vision needs tiers below that — passive backscatter tags that reflect
an AP-provided carrier, and harvesting-powered nodes that sleep most
of their lives — and those differ in *capabilities*, not parameters.

This module factors the assumptions into a :class:`NodeClassSpec`
descriptor (modulation and duty model, plus the cost/power/bitrate/
range figures the Table-1 comparison reports) and a registry of the
three built-in classes, built once at import time.
Campaign trials only ever look classes up with :func:`node_class`, so
parallel shards see the same frozen specs and the serial/parallel
determinism contract holds.

Built-in classes
----------------
``mmx-active``        the paper's $110 / 1.1 W always-on prototype,
                      re-registered *unchanged* (same hardware ledger
                      Table 1 uses).
``mmx-backscatter``   a passive tag: an RF switch toggling its antenna
                      reflection coefficient keys ASK onto the AP's
                      illumination carrier (Sun et al. survey).
``mmx-harvesting``    the active front-end behind a rectenna + storage
                      capacitor, duty-cycled by the battery state
                      machine (Khan et al. harvesting models).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..hardware.chains import NodeHardware
from ..hardware.power import PowerStateProfile, active_node_profile

__all__ = [
    "ACTIVE_CLASS",
    "BACKSCATTER_CLASS",
    "DUTY_MODELS",
    "HARVESTING_CLASS",
    "MODULATIONS",
    "NodeClassSpec",
    "node_class",
]

MODULATIONS = ("ask-fsk", "backscatter-ask")
"""How data gets onto the carrier: the paper's joint beam-switched
ASK-FSK, or reflection-coefficient ASK against an external carrier."""

DUTY_MODELS = ("always-on", "duty-cycled", "illuminated")
"""When the node can talk: continuously, when its energy store allows,
or only while the AP shines a carrier on it."""

ACTIVE_CLASS = "mmx-active"
BACKSCATTER_CLASS = "mmx-backscatter"
HARVESTING_CLASS = "mmx-harvesting"


@dataclass(frozen=True)
class NodeClassSpec:
    """Capability descriptor for one class of mmX end device.

    Frozen and hashable so specs can ride inside campaign configs and
    cross process boundaries without aliasing risk.
    """

    name: str
    modulation: str
    duty_model: str
    cost_usd: float
    power: PowerStateProfile
    bitrate_bps: float
    range_m: float

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("node class needs a name")
        if self.modulation not in MODULATIONS:
            raise ValueError(f"unknown modulation {self.modulation!r}; "
                             f"choose from {MODULATIONS}")
        if self.duty_model not in DUTY_MODELS:
            raise ValueError(f"unknown duty model {self.duty_model!r}; "
                             f"choose from {DUTY_MODELS}")
        if self.cost_usd < 0:
            raise ValueError("cost cannot be negative")
        if self.bitrate_bps <= 0:
            raise ValueError("bitrate must be positive")
        if self.range_m <= 0:
            raise ValueError("range must be positive")

    @property
    def energy_per_bit_j(self) -> float:
        """Transmit-state energy per bit [J] — the Table-1 metric."""
        return self.power.tx_w / self.bitrate_bps

    @property
    def active_power_w(self) -> float:
        """Draw while communicating [W] (tx state of the ledger)."""
        return self.power.tx_w


def node_class(name: str) -> NodeClassSpec:
    """Look up one built-in class by name."""
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise KeyError(f"unknown node class {name!r}; "
                       f"registered: {known}") from None


def _builtin_active() -> NodeClassSpec:
    """The paper's prototype, re-registered unchanged.

    Every figure is taken from the same :class:`NodeHardware` ledger
    the Table-1 comparison already uses — this descriptor *describes*
    the existing node, it does not re-specify it.
    """
    hw = NodeHardware()
    return NodeClassSpec(
        name=ACTIVE_CLASS,
        modulation="ask-fsk",
        duty_model="always-on",
        cost_usd=hw.total_cost_usd,
        power=active_node_profile(hw),
        bitrate_bps=hw.max_bitrate_bps,
        range_m=18.0,
    )


def _builtin_backscatter() -> NodeClassSpec:
    """A passive mmWave tag (Sun et al. survey, Table 3 platforms).

    The bill of materials is an antenna, an RF switch and control
    logic — a few dollars.  The "tx" state is the switch toggling the
    reflection coefficient (tens of microwatts); the tag radiates no
    carrier of its own (the bistatic budget in :mod:`repro.core.link`
    computes the reflected level).  Bitrate is envelope-limited, far
    below the active 100 Mbps.
    """
    return NodeClassSpec(
        name=BACKSCATTER_CLASS,
        modulation="backscatter-ask",
        duty_model="illuminated",
        cost_usd=4.0,
        power=PowerStateProfile(tx_w=30e-6, rx_w=10e-6,
                                idle_w=2e-6, sleep_w=0.5e-6),
        bitrate_bps=1e6,
        range_m=4.0,
    )


def _builtin_harvesting() -> NodeClassSpec:
    """The active front end behind a rectenna and storage capacitor.

    Same radio as ``mmx-active`` (same tx draw, bitrate, EIRP) plus a
    rectenna and power-management IC (Khan et al.), so it costs a few
    dollars more — but it is *duty-cycled*: the battery state machine
    in :mod:`repro.energy.battery` decides when it may transmit.
    """
    hw = NodeHardware()
    active = active_node_profile(hw)
    return NodeClassSpec(
        name=HARVESTING_CLASS,
        modulation="ask-fsk",
        duty_model="duty-cycled",
        cost_usd=hw.total_cost_usd + 8.0,
        power=PowerStateProfile(tx_w=active.tx_w, rx_w=active.rx_w,
                                idle_w=active.idle_w, sleep_w=100e-6),
        bitrate_bps=hw.max_bitrate_bps,
        range_m=18.0,
    )


_REGISTRY: dict[str, NodeClassSpec] = {
    spec.name: spec for spec in (_builtin_active(), _builtin_backscatter(),
                                 _builtin_harvesting())}
