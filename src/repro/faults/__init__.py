"""Composable fault injection driven by the simulation timeline.

The seed repo evaluates only frozen placements; this package makes the
environment hostile on purpose.  Fault *processes* emit
:class:`FaultEvent` schedules: Poisson blocker crossings and random
power brown-outs are drawn, while a fixed window (a parked blocker,
VCO thermal drift, a welded SPDT, a side-channel outage, an in-band
ISM interferer, a harvesting blackout, a whole-AP crash) is a
:class:`FaultEvent` that is its own process.  A seeded
:class:`FaultInjector` composes them reproducibly; and the resulting
per-instant :class:`LinkDisturbance` perturbs the analytic link state
through :func:`repro.core.link.perturb_breakdown`, which the chaos
experiment applies each step.
"""

from .events import FAULT_KINDS, NO_DISTURBANCE, FaultEvent, LinkDisturbance
from .injector import (
    SCENARIOS,
    FaultInjector,
    FaultSchedule,
    scenario_injector,
)
from .processes import NodeDropoutProcess, TransientBlockerProcess

__all__ = [
    "FAULT_KINDS",
    "FaultEvent",
    "FaultInjector",
    "FaultSchedule",
    "LinkDisturbance",
    "NO_DISTURBANCE",
    "NodeDropoutProcess",
    "SCENARIOS",
    "TransientBlockerProcess",
    "scenario_injector",
]
