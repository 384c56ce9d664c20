"""Outage-survival chaos preset: a harvesting fleet rides out a
wireless-power blackout without tripping the failure machinery.

The scenario: a fleet of duty-cycled harvesting nodes (one AP pair,
one power illuminator) loses its harvesting field for a window — the
``energy_outage`` fault kind.  Every store drains, every node goes
*dormant*, and the whole point of the energy layer's "dormant ≠ dead"
contract is exercised end to end:

* each node's :class:`~repro.resilience.LinkSupervisor` **holds** its
  recovery ladder (``dormant-hold``) instead of tearing the link down
  and storming the side channel with re-inits;
* the cluster's :class:`~repro.cluster.NodeLivenessTracker` classifies
  the silence as ``dormant``, so the silence-failover path — armed! —
  records **zero false positives** while an entire fleet sleeps;
* when the field returns, stores recharge, schedulers drain their
  deferred queues, and the supervisors log ``dormant-wake``.

Packaged as a :mod:`repro.engine` campaign preset (one hermetic trial
per replicate fleet), byte-identical serial vs supervised-parallel at
a fixed master seed — gated by ``benchmarks/test_energy_nodes.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Any

import numpy as np

from ..cluster import Cluster, NodeLivenessTracker
from ..core.link import facing_link
from ..engine import Campaign, CampaignResult, ResultStore, ShardExecutor
from ..faults import EnergyOutageProcess, FaultInjector
from ..node.access_point import MmxAccessPoint
from ..resilience import LinkSupervisor
from .battery import EnergyStateMachine, EnergyStore
from .classes import HARVESTING_CLASS, node_class
from .compare import burst_profile
from .harvest import HarvestModel
from .scheduler import DutyCycleScheduler

__all__ = ["OutageConfig", "OutageResult", "default_config",
           "outage_trial", "run_outage", "render"]


@dataclass(frozen=True)
class OutageConfig:
    """Everything one outage-survival campaign depends on."""

    nodes: int = 6
    replicates: int = 4
    """Independent fleet trials (each with its own seeded shadowing,
    MAC outcomes and fault schedule)."""

    duration_s: float = 120.0
    dt_s: float = 1.0
    outage_start_s: float = 30.0
    outage_duration_s: float = 30.0
    severity: float = 1.0
    """Fraction of harvested power lost during the window."""

    harvest_distance_m: tuple[float, float] = (0.8, 1.4)
    """Illuminator-to-rectenna range band the fleet is scattered over."""

    link_distance_m: float = 4.0
    demanded_rate_bps: float = 1e6
    """Control-plane spectrum demand per node.  Far below the radio's
    burst bitrate on purpose: a duty-cycled sensor books its *average*
    rate, not the 100 Mbps its bursts momentarily touch."""

    offered_frames_per_step: int = 1
    frame_bits: int = 2048
    frame_success_probability: float = 0.98
    capacity_j: float = 50e-3
    wake_threshold_j: float = 10e-3
    reserve_j: float = 1e-3
    max_retries: int = 3
    liveness_miss_threshold: int = 5

    def __post_init__(self) -> None:
        if self.nodes < 1 or self.replicates < 1:
            raise ValueError("need at least one node and replicate")
        if self.duration_s <= 0 or self.dt_s <= 0:
            raise ValueError("need a positive simulation horizon")
        if self.outage_start_s < 0 or self.outage_duration_s <= 0:
            raise ValueError("need a valid outage window")
        if self.outage_start_s + self.outage_duration_s >= self.duration_s:
            raise ValueError("the outage must end before the run does "
                             "(recovery must be observable)")
        if not 0.0 < self.severity <= 1.0:
            raise ValueError("severity must be in (0, 1]")
        lo, hi = self.harvest_distance_m
        if not 0 < lo <= hi:
            raise ValueError("invalid harvest distance band")

    @property
    def num_trials(self) -> int:
        """Campaign size: one fleet run per replicate."""
        return self.replicates

    @property
    def num_steps(self) -> int:
        """Timesteps per fleet run."""
        return int(round(self.duration_s / self.dt_s))


def default_config(nodes: int = 6, replicates: int = 4) -> OutageConfig:
    """The stock outage drill (CLI and benchmark entry point)."""
    return OutageConfig(nodes=nodes, replicates=replicates)


def outage_trial(rng: np.random.Generator, index: int, *,
                 config: OutageConfig) -> dict[str, Any]:
    """One fleet's ride through one harvesting blackout.

    Module-level (parameterised with :func:`functools.partial`) so it
    pickles into process-pool workers.  Everything stochastic — fault
    seed, per-node ranges, shadowing, MAC coin flips, supervisor
    jitter — derives from the handed-in stream, so the trial depends
    only on its seed.
    """
    spec = node_class(HARVESTING_CLASS)
    injector = FaultInjector(
        [EnergyOutageProcess(start_s=config.outage_start_s,
                             duration_s=config.outage_duration_s,
                             severity=config.severity)],
        master_seed=int(rng.integers(2 ** 31)))
    schedule = injector.schedule(config.duration_s)
    clean = facing_link(config.link_distance_m).snr_breakdown()

    liveness = NodeLivenessTracker(
        interval_s=config.dt_s,
        miss_threshold=config.liveness_miss_threshold)
    cluster = Cluster([MmxAccessPoint(), MmxAccessPoint()],
                      liveness=liveness)

    model = HarvestModel()
    lo, hi = config.harvest_distance_m
    steps = config.num_steps
    machines: list[EnergyStateMachine] = []
    schedulers: list[DutyCycleScheduler] = []
    supervisors: list[LinkSupervisor] = []
    harvests: list[np.ndarray] = []
    for i in range(config.nodes):
        distance = float(rng.uniform(lo, hi))
        harvests.append(np.asarray(
            model.harvest_series(distance, steps, rng)))
        store = EnergyStore(capacity_j=config.capacity_j, initial_j=0.0)
        machine = EnergyStateMachine(
            store, burst_profile(spec),
            wake_threshold_j=config.wake_threshold_j,
            reserve_j=config.reserve_j,
            frame_energy_j=spec.energy_per_bit_j * config.frame_bits,
            frames_per_step=max(1, config.offered_frames_per_step * 4))
        machines.append(machine)
        schedulers.append(DutyCycleScheduler(
            machine,
            frame_success_probability=config.frame_success_probability,
            max_retries=config.max_retries))
        supervisors.append(LinkSupervisor(
            rng=np.random.default_rng(int(rng.integers(2 ** 31)))))
        cluster.register_node(i, config.demanded_rate_bps,
                              preference=[0, 1])

    outage_end_s = config.outage_start_s + config.outage_duration_s
    dormant_node_steps = 0
    brownouts = 0
    recovery_s = [float(config.duration_s - outage_end_s)] * config.nodes
    was_dormant = [False] * config.nodes
    for k in range(steps):
        t = k * config.dt_s
        scale = schedule.disturbance_at(t).harvest_scale
        for i in range(config.nodes):
            schedulers[i].offer(config.offered_frames_per_step)
            outcome = schedulers[i].step(
                config.dt_s, float(harvests[i][k]) * scale, rng)
            if outcome.dormant:
                dormant_node_steps += 1
                cluster.node_dormant(i)
                supervisors[i].step(t, clean, dormant=True)
            else:
                supervisors[i].step(t, clean)
                if outcome.frames_sent:
                    cluster.node_heard(i, t)
                    if t >= outage_end_s \
                            and recovery_s[i] == config.duration_s \
                            - outage_end_s:
                        recovery_s[i] = t - outage_end_s
            if outcome.dormant and not was_dormant[i]:
                brownouts += 1
            was_dormant[i] = outcome.dormant
        cluster.step(t)

    offered = sum(s.offered for s in schedulers)
    delivered = sum(s.delivered for s in schedulers)
    dropped = sum(s.dropped for s in schedulers)
    holds = sum(sum(a.policy == "dormant-hold" for a in s.actions)
                for s in supervisors)
    wakes = sum(sum(a.policy == "dormant-wake" for a in s.actions)
                for s in supervisors)
    reinits = sum(sum(a.policy == "reinit-attempt" for a in s.actions)
                  for s in supervisors)
    return {
        "delivery_ratio": delivered / offered if offered else 1.0,
        "dropped_frames": float(dropped),
        "dormant_fraction": dormant_node_steps / (config.nodes * steps),
        "brownouts": float(brownouts),
        "mean_recovery_s": float(np.mean(recovery_s)),
        "dormant_holds": float(holds),
        "dormant_wakes": float(wakes),
        "reinit_attempts": float(reinits),
        "silence_failovers": float(cluster.silence_failovers),
        "orphaned_nodes": float(len(cluster.orphaned)),
    }


@dataclass(frozen=True)
class OutageResult:
    """Aggregate outcome of the outage-survival drill."""

    config: OutageConfig
    campaign: CampaignResult
    delivery_ratio: float
    dropped_frames: float
    dormant_fraction: float
    brownouts: float
    mean_recovery_s: float
    dormant_holds: float
    dormant_wakes: float
    reinit_attempts: float
    silence_failovers: float
    """Failover false positives across every trial — the number this
    preset exists to pin at zero."""

    orphaned_nodes: float

    def summary(self) -> dict[str, float]:
        """JSON-friendly aggregate (CLI ``--json``, CI artifact)."""
        return {
            "delivery_ratio": self.delivery_ratio,
            "dropped_frames": self.dropped_frames,
            "dormant_fraction": self.dormant_fraction,
            "brownouts": self.brownouts,
            "mean_recovery_s": self.mean_recovery_s,
            "dormant_holds": self.dormant_holds,
            "dormant_wakes": self.dormant_wakes,
            "reinit_attempts": self.reinit_attempts,
            "silence_failovers": self.silence_failovers,
            "orphaned_nodes": self.orphaned_nodes,
        }


def run_outage(config: OutageConfig | None = None,
               master_seed: int = 0,
               executor: ShardExecutor | None = None,
               num_shards: int | None = None,
               store: ResultStore | str | None = None
               ) -> OutageResult:
    """Run the outage-survival campaign and aggregate the drill.

    Serial by default; pass a :class:`~repro.engine.SupervisedPool`
    to fan out.  The aggregate depends only on ``master_seed`` and
    ``config``.
    """
    cfg = config if config is not None else default_config()
    trial_fn = partial(outage_trial, config=cfg)
    outcome = Campaign(trial_fn, cfg.num_trials,
                       master_seed=master_seed,
                       num_shards=num_shards, executor=executor,
                       store=store).run()

    def mean(key: str) -> float:
        return float(outcome.collect(key).mean())

    def total(key: str) -> float:
        return float(outcome.collect(key).sum())

    return OutageResult(
        config=cfg,
        campaign=outcome,
        delivery_ratio=mean("delivery_ratio"),
        dropped_frames=total("dropped_frames"),
        dormant_fraction=mean("dormant_fraction"),
        brownouts=total("brownouts"),
        mean_recovery_s=mean("mean_recovery_s"),
        dormant_holds=total("dormant_holds"),
        dormant_wakes=total("dormant_wakes"),
        reinit_attempts=total("reinit_attempts"),
        silence_failovers=total("silence_failovers"),
        orphaned_nodes=total("orphaned_nodes"),
    )


def render(result: OutageResult) -> str:
    """The outage drill as a text table."""
    from ..experiments.report import format_table

    cfg = result.config
    rows = [
        ["fleet", f"{cfg.nodes} nodes × {cfg.replicates} trials"],
        ["outage window", f"{cfg.outage_start_s:.0f}–"
                          f"{cfg.outage_start_s + cfg.outage_duration_s:.0f}"
                          f" s of {cfg.duration_s:.0f} s "
                          f"(severity {cfg.severity:.2f})"],
        ["delivery ratio", f"{result.delivery_ratio:.3f}"],
        ["dropped frames", f"{result.dropped_frames:.0f}"],
        ["dormant fraction", f"{result.dormant_fraction:.3f}"],
        ["brownouts", f"{result.brownouts:.0f}"],
        ["mean recovery", f"{result.mean_recovery_s:.1f} s"],
        ["dormant holds / wakes", f"{result.dormant_holds:.0f} / "
                                  f"{result.dormant_wakes:.0f}"],
        ["re-init attempts", f"{result.reinit_attempts:.0f}"],
        ["silence-failover false positives",
         f"{result.silence_failovers:.0f}"],
        ["orphaned nodes", f"{result.orphaned_nodes:.0f}"],
    ]
    return format_table(
        ["metric", "value"], rows,
        title="Energy-outage survival — dormant ≠ dead, end to end")
