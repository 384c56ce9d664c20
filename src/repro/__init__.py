"""mmX — a millimeter wave network for billions of things.

Reproduction of Mazaheri, Ameli, Abedi & Abari (SIGCOMM 2019).  mmX is a
24 GHz network for low-power, low-cost IoT devices built on Over-The-Air
Modulation (OTAM): the node transmits a pure carrier and keys data into
*which of two fixed orthogonal beams* radiates it, so the sparse mmWave
channel itself creates the ASK signal at the AP — no phased array, no
beam searching, no feedback.

Quickstart
----------
>>> import numpy as np
>>> from repro import (default_lab_room, PlacementSampler, OtamLink,
...                    default_preamble_bits, random_bits)
>>> rng = np.random.default_rng(0)
>>> room = default_lab_room()
>>> placement = PlacementSampler(room, rng).sample()
>>> link = OtamLink(placement=placement, room=room)
>>> bits = np.concatenate([default_preamble_bits(), random_bits(128, rng)])
>>> report = link.simulate_transmission(bits, rng=rng)
>>> report.ber  # doctest: +SKIP
0.0

Layout
------
``repro.core``      OTAM, joint ASK-FSK, packets, the end-to-end link
``repro.phy``       DSP, BER theory, coding, preambles
``repro.antenna``   patch arrays, the orthogonal beam pair, phased arrays
``repro.channel``   ray tracing, path loss, multipath, noise
``repro.hardware``  behavioural component and chain models
``repro.node``      MmxNode / MmxAccessPoint devices
``repro.network``   FDM, TMA-based SDM, interference, multi-node sims
``repro.admission`` million-node spectrum/SDM admission control
``repro.energy``    node classes, backscatter tags, harvesting duty cycles
``repro.baselines`` beam-search baselines and Table 1 platforms
``repro.sim``       rooms, blockers, mobility, placements, Monte Carlo
``repro.faults``    seeded fault-injection processes and schedules
``repro.resilience`` link health monitoring and the recovery ladder
``repro.transport`` reliable transport: ARQ, adaptive RTO, circuit breaker
``repro.cluster``   AP checkpointing, heartbeats, multi-AP failover
``repro.engine``    sharded, resumable, parallel Monte-Carlo campaigns
``repro.telemetry`` sim-time metrics, spans, deterministic exporters
``repro.experiments`` one module per paper table/figure
"""

from .admission import (
    AdmissionController,
    SdmPacker,
    SpectrumBook,
    run_saturation,
)
from .antenna import OrthogonalBeamPair, PhasedArray, design_mmx_beams
from .baselines import (
    ExhaustiveBeamSearch,
    HierarchicalBeamSearch,
    comparison_table,
)
from .channel import ChannelResponse, trace_paths, two_beam_gains
from .cluster import (
    ApCheckpoint,
    Cluster,
    FailoverSimulation,
    HeartbeatMonitor,
)
from .constants import CARRIER_FREQUENCY_HZ, NODE_EIRP_DBM
from .core import (
    AskFskConfig,
    DemodResult,
    JointDemodulator,
    LinkReport,
    OtamLink,
    OtamModulator,
    Packet,
    PacketCodec,
    PacketError,
    SnrBreakdown,
)
from .energy import (
    BackscatterLink,
    CarrierScheduler,
    EnergyStateMachine,
    EnergyStore,
    HarvestModel,
    NodeClassSpec,
    node_class,
    registered_classes,
    run_compare,
    run_outage,
)
from .engine import (
    Campaign,
    CampaignPlan,
    CampaignResult,
    ResultStore,
    SerialExecutor,
    SupervisedPool,
)
from .faults import (
    FaultEvent,
    FaultInjector,
    FaultSchedule,
    LinkDisturbance,
    scenario_injector,
)
from .hardware import AccessPointHardware, NodeHardware
from .network import (
    FdmAllocator,
    InterferenceModel,
    MultiNodeNetwork,
    TimeModulatedArray,
)
from .node import DigitalController, MmxAccessPoint, MmxNode
from .phy import default_preamble_bits, random_bits
from .resilience import (
    ChaosResult,
    ChaosSimulation,
    LinkHealthMonitor,
    LinkHealthReport,
    LinkSupervisor,
)
from .sim import (
    Blocker,
    MonteCarloRunner,
    Placement,
    PlacementSampler,
    Point,
    Room,
    default_lab_room,
)
from .telemetry import (
    MetricsRegistry,
    NullRecorder,
    Recorder,
    SimClock,
    TelemetryRecorder,
    TelemetrySnapshot,
    Tracer,
)
from .transport import (
    AdaptiveRetransmission,
    CircuitBreaker,
    ReliableLink,
    RtoEstimator,
)

__version__ = "1.0.0"

__all__ = [
    "AccessPointHardware",
    "AdaptiveRetransmission",
    "AdmissionController",
    "ApCheckpoint",
    "AskFskConfig",
    "BackscatterLink",
    "Blocker",
    "CARRIER_FREQUENCY_HZ",
    "Campaign",
    "CampaignPlan",
    "CampaignResult",
    "CarrierScheduler",
    "ChannelResponse",
    "ChaosResult",
    "ChaosSimulation",
    "CircuitBreaker",
    "Cluster",
    "DemodResult",
    "DigitalController",
    "EnergyStateMachine",
    "EnergyStore",
    "ExhaustiveBeamSearch",
    "FailoverSimulation",
    "FaultEvent",
    "FaultInjector",
    "FaultSchedule",
    "FdmAllocator",
    "HarvestModel",
    "HeartbeatMonitor",
    "HierarchicalBeamSearch",
    "InterferenceModel",
    "JointDemodulator",
    "LinkDisturbance",
    "LinkHealthMonitor",
    "LinkHealthReport",
    "LinkReport",
    "LinkSupervisor",
    "MetricsRegistry",
    "MmxAccessPoint",
    "MmxNode",
    "MonteCarloRunner",
    "MultiNodeNetwork",
    "NODE_EIRP_DBM",
    "NodeClassSpec",
    "NodeHardware",
    "NullRecorder",
    "OrthogonalBeamPair",
    "OtamLink",
    "OtamModulator",
    "Packet",
    "PacketCodec",
    "PacketError",
    "PhasedArray",
    "Placement",
    "PlacementSampler",
    "Point",
    "Recorder",
    "ReliableLink",
    "ResultStore",
    "Room",
    "RtoEstimator",
    "SerialExecutor",
    "SimClock",
    "SdmPacker",
    "SnrBreakdown",
    "SpectrumBook",
    "SupervisedPool",
    "TelemetryRecorder",
    "TelemetrySnapshot",
    "TimeModulatedArray",
    "Tracer",
    "comparison_table",
    "default_lab_room",
    "default_preamble_bits",
    "design_mmx_beams",
    "node_class",
    "random_bits",
    "registered_classes",
    "run_compare",
    "run_outage",
    "run_saturation",
    "scenario_injector",
    "trace_paths",
    "two_beam_gains",
]
