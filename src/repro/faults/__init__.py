"""Composable fault injection driven by the simulation timeline.

The seed repo evaluates only frozen placements; this package makes the
environment hostile on purpose.  Fault *processes* (blocker crossings,
VCO thermal drift, a welded SPDT, power brown-outs, side-channel
outages, in-band ISM interferers, whole-AP crashes) emit
:class:`FaultEvent` schedules; a
seeded :class:`FaultInjector` composes them reproducibly; and the
resulting per-instant :class:`LinkDisturbance` perturbs the analytic
link state through :func:`repro.core.link.perturb_breakdown`, which
the chaos experiment applies each step.
"""

from .events import FAULT_KINDS, NO_DISTURBANCE, FaultEvent, LinkDisturbance
from .injector import (
    SCENARIOS,
    FaultInjector,
    FaultSchedule,
    scenario_injector,
)
from .processes import (
    ApCrashProcess,
    EnergyOutageProcess,
    InterfererProcess,
    NodeDropoutProcess,
    PersistentBlockerProcess,
    SideChannelOutageProcess,
    StuckBeamProcess,
    TransientBlockerProcess,
    VcoDriftProcess,
)

__all__ = [
    "ApCrashProcess",
    "EnergyOutageProcess",
    "FAULT_KINDS",
    "FaultEvent",
    "FaultInjector",
    "FaultSchedule",
    "InterfererProcess",
    "LinkDisturbance",
    "NO_DISTURBANCE",
    "NodeDropoutProcess",
    "PersistentBlockerProcess",
    "SCENARIOS",
    "SideChannelOutageProcess",
    "StuckBeamProcess",
    "TransientBlockerProcess",
    "VcoDriftProcess",
    "scenario_injector",
]
