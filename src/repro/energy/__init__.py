"""Node classes, backscatter, and energy-constrained operation.

The paper's prototype is one device: always on, self-carriered, $110.
The "billions of things" pitch needs tiers below it.  This package
supplies them, layered bottom-up:

* :mod:`~repro.energy.classes` — the node-class registry: per-class
  capability descriptors (modulation, duty model, cost, power,
  bitrate, range) with the paper's active node re-registered unchanged;
* :mod:`~repro.energy.backscatter` — passive reflection-coefficient
  ASK tags riding the *unchanged* envelope/Goertzel receiver (the
  bistatic budget lives in :func:`repro.core.link.bistatic_breakdown`);
* :mod:`~repro.energy.harvest`, :mod:`~repro.energy.battery`,
  :mod:`~repro.energy.scheduler` — the Khan et al. harvesting closed
  forms, the never-negative energy store with its harvest → charge →
  wake → transmit → sleep machine, and the duty-cycle scheduler that
  defers (not drops) MAC traffic while the node is *dormant*;
* :mod:`~repro.energy.compare`, :mod:`~repro.energy.outage` — the
  Table-1-style node-class comparison and the energy-outage survival
  drill, both :mod:`repro.engine` campaign presets with the
  byte-identical serial/parallel contract
  (``python -m repro energy compare`` / ``... energy outage``).
"""

from .backscatter import BackscatterLink, backscatter_config
from .battery import (
    ENERGY_STATES,
    EnergyStateMachine,
    EnergyStep,
    EnergyStore,
)
from .classes import (
    ACTIVE_CLASS,
    BACKSCATTER_CLASS,
    DUTY_MODELS,
    HARVESTING_CLASS,
    MODULATIONS,
    NodeClassSpec,
    node_class,
)
from .compare import (
    CompareConfig,
    CompareResult,
    compare_trial,
    run_compare,
)
from .harvest import HarvestModel, rectified_power_w
from .outage import OutageConfig, OutageResult, outage_trial, run_outage
from .scheduler import DutyCycleScheduler, SchedulerStats

__all__ = [
    "ACTIVE_CLASS",
    "BACKSCATTER_CLASS",
    "BackscatterLink",
    "CompareConfig",
    "CompareResult",
    "DUTY_MODELS",
    "DutyCycleScheduler",
    "ENERGY_STATES",
    "EnergyStateMachine",
    "EnergyStep",
    "EnergyStore",
    "HARVESTING_CLASS",
    "HarvestModel",
    "MODULATIONS",
    "NodeClassSpec",
    "OutageConfig",
    "OutageResult",
    "SchedulerStats",
    "backscatter_config",
    "compare_trial",
    "node_class",
    "outage_trial",
    "rectified_power_w",
    "run_compare",
    "run_outage",
]
