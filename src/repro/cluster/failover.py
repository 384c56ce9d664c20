"""Multi-AP failover: heartbeat detection, re-association, recovery.

Section 1 pitches mmX deployments with many APs covering a large space
(malls, libraries, parks).  One AP crashing must not silence its nodes
for the rest of the run — yet that is exactly what the seed repository
(and the frozen baseline here) does, because all control-plane state
lives in the dead AP's memory and nodes are feedback-free.

:class:`Cluster` coordinates a set of live
:class:`~repro.node.access_point.MmxAccessPoint` instances:

* every alive AP beats into a :class:`~repro.cluster.heartbeat.
  HeartbeatMonitor`; a crash is *detected*, not announced, so nodes
  stay stranded for up to ``detection_latency_s``;
* on detection, each stranded node re-associates to the best surviving
  AP in its preference order (descending link quality), falling down
  the list when an allocator is full and landing in ``orphaned`` only
  when every surviving AP is exhausted;
* alive APs checkpoint on a cadence
  (:class:`~repro.cluster.checkpoint.ApCheckpoint`), so a rebooted AP
  restores its exact pre-crash spectrum map and re-adopts whichever of
  its nodes did not migrate while it was down.

:class:`FailoverSimulation` scores the whole story in expectation
(deterministically — per-step frame-survival probabilities, the same
accounting style as :class:`repro.resilience.chaos.ChaosSimulation`)
against a frozen single-AP baseline under an ``ap_crash`` fault
schedule.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import numpy as np

from ..faults.injector import FaultSchedule
from ..network.fdm import SpectrumExhausted
from ..node.access_point import MmxAccessPoint
from ..sim.environment import Room
from ..sim.geometry import Point
from ..telemetry import NullRecorder, TelemetryRecorder
from ..units import FloatArray
from .checkpoint import ApCheckpoint, CheckpointError
from .heartbeat import (
    NODE_DORMANT,
    NODE_SILENT,
    HeartbeatMonitor,
    NodeLivenessTracker,
)

__all__ = ["ApMember", "Cluster", "FailoverResult", "FailoverSimulation"]


@dataclass
class ApMember:
    """One AP's slot in a cluster: the device, liveness, last checkpoint."""

    ap_id: int
    ap: MmxAccessPoint
    alive: bool = True
    checkpoint: ApCheckpoint | None = None


class Cluster:
    """A set of APs sharing responsibility for one node population."""

    def __init__(self, aps: Sequence[MmxAccessPoint],
                 heartbeat: HeartbeatMonitor | None = None,
                 telemetry: TelemetryRecorder | None = None,
                 checkpoint_dir: str | Path | None = None,
                 liveness: NodeLivenessTracker | None = None):
        if not aps:
            raise ValueError("a cluster needs at least one AP")
        self.members: dict[int, ApMember] = {
            i: ApMember(ap_id=i, ap=ap) for i, ap in enumerate(aps)}
        self.monitor = heartbeat or HeartbeatMonitor()
        for ap_id in self.members:
            self.monitor.watch(ap_id, 0.0)
        self.serving: dict[int, int] = {}
        self.orphaned: set[int] = set()
        self.failover_count = 0
        self.telemetry = telemetry if telemetry is not None \
            else NullRecorder()
        """Sink for the ``cluster.*`` metric family: heartbeat-death /
        failover / orphan / checkpoint / recovery counters, the alive-AP
        gauge, and one ``cluster.ap_outage`` span per declared death
        (closed on recovery, so its sim-time duration is the failover
        window).  The driver stepping the cluster owns the clock."""
        self._preferences: dict[int, tuple[int, ...]] = {}
        self._rates: dict[int, float] = {}
        self._ap_outage_spans: dict[int, Any] = {}
        self.checkpoint_dir = (None if checkpoint_dir is None
                               else Path(checkpoint_dir))
        """When set, :meth:`checkpoint_all` also persists every capture
        to ``<dir>/ap<ID>.ckpt`` (atomically, via the
        :mod:`repro.durability` seam), and :meth:`recover` falls back to
        the on-disk copy when the in-memory one is gone — the process-
        restart story the in-memory checkpoints cannot cover."""
        self.recovery_errors: list[tuple[int, str]] = []
        """``(ap_id, reason)`` per checkpoint that could not be used at
        recovery time (corrupt, unreadable).  Recovery *reports* the
        damage and reboots the AP empty instead of raising mid-failover
        — ``repro fsck`` on the checkpoint file tells the rest."""
        self.liveness = liveness
        """Optional per-node liveness tracker.  When present,
        :meth:`register_node` starts watching each admitted node and
        :meth:`node_heard` / :meth:`node_dormant` feed it, and it arms a
        second detection path in :meth:`step`: when every *awake* node
        an alive-looking AP serves has gone :data:`NODE_SILENT`, the
        AP's backhaul heartbeat is treated as a liar (a beating AP whose
        whole radio plane is mute) and its nodes fail over.  Nodes
        classified :data:`NODE_DORMANT` are exempt — a fleet recharging
        in lock step is silent *on purpose* and must never count as
        evidence — and an AP serving only dormant nodes is never
        suspected."""
        self.silence_failovers = 0
        """How many APs were failed over on node-silence evidence."""

    # --- membership -------------------------------------------------------

    def alive_ap_ids(self) -> list[int]:
        """IDs of every AP currently up (sorted)."""
        return sorted(i for i, m in self.members.items() if m.alive)

    def serving_ap(self, node_id: int) -> int | None:
        """The AP currently holding a node's registration (None if the
        node is orphaned)."""
        if node_id in self.orphaned:
            return None
        return self.serving.get(node_id)

    def is_served(self, node_id: int) -> bool:
        """Whether a node's serving AP is up *right now*.

        False both for orphans and for nodes stranded on a crashed AP
        whose death the heartbeat has not yet declared — the stranded
        window is real downtime and is scored as such.
        """
        ap_id = self.serving_ap(node_id)
        return ap_id is not None and self.members[ap_id].alive

    def register_node(self, node_id: int, demanded_rate_bps: float,
                      preference: Sequence[int] | None = None,
                      now_s: float = 0.0) -> int:
        """Admit a node on the best AP in its preference order.

        ``preference`` ranks AP ids best-first (defaults to id order);
        it is remembered so failover re-runs the same ranking against
        the surviving set.  Raises :class:`SpectrumExhausted` if no
        alive AP can fit the demand.  With a liveness tracker attached,
        admission counts as the node's first uplink at ``now_s``.
        """
        if node_id in self.serving or node_id in self.orphaned:
            raise ValueError(f"node {node_id} is already in the cluster")
        ranking = tuple(int(p) for p in (
            sorted(self.members) if preference is None else preference))
        for ap_id in ranking:
            member = self.members.get(ap_id)
            if member is None or not member.alive:
                continue
            try:
                member.ap.register_node(node_id, demanded_rate_bps)
            except SpectrumExhausted:
                continue
            self.serving[node_id] = ap_id
            self._preferences[node_id] = ranking
            self._rates[node_id] = float(demanded_rate_bps)
            if self.liveness is not None:
                self.liveness.watch(node_id, now_s)
            return ap_id
        raise SpectrumExhausted(
            f"no alive AP can admit node {node_id}")

    # --- node liveness ----------------------------------------------------

    def node_heard(self, node_id: int, now_s: float) -> None:
        """The serving AP decoded an uplink from a node (wakes it)."""
        if self.liveness is not None:
            self.liveness.heard(node_id, now_s)

    def node_dormant(self, node_id: int) -> None:
        """The energy layer declared a node asleep-on-purpose."""
        if self.liveness is not None:
            self.liveness.mark_dormant(node_id)

    # --- checkpointing ----------------------------------------------------

    def checkpoint_path(self, ap_id: int) -> Path:
        """Where one AP's on-disk checkpoint lives (dir must be set)."""
        if self.checkpoint_dir is None:
            raise ValueError("cluster has no checkpoint_dir")
        return self.checkpoint_dir / f"ap{ap_id}.ckpt"

    def checkpoint_all(self) -> dict[int, ApCheckpoint]:
        """Snapshot every alive AP (dead ones keep their last capture).

        With a ``checkpoint_dir``, each fresh capture is also persisted
        atomically; a crash mid-save leaves the previous on-disk
        checkpoint intact, never a torn file.
        """
        out: dict[int, ApCheckpoint] = {}
        captured = 0
        for member in self.members.values():
            if member.alive:
                member.checkpoint = ApCheckpoint.capture(member.ap)
                captured += 1
                if self.checkpoint_dir is not None:
                    member.checkpoint.save(
                        self.checkpoint_path(member.ap_id))
            if member.checkpoint is not None:
                out[member.ap_id] = member.checkpoint
        if self.telemetry.enabled and captured:
            self.telemetry.count("cluster.checkpoints", captured)
        return out

    # --- failure and recovery ---------------------------------------------

    def _report_bad_checkpoint(self, ap_id: int, reason: str) -> None:
        """Record (never raise) one unusable checkpoint at recovery."""
        self.recovery_errors.append((ap_id, reason))

    def crash(self, ap_id: int) -> None:
        """Kill an AP (it silently stops beating; detection comes later)."""
        member = self.members[ap_id]
        member.alive = False

    def step(self, now_s: float) -> dict[int, list[int]]:
        """One heartbeat round: alive APs beat, deaths trigger failover.

        With a :attr:`liveness` tracker, an alive-looking AP whose
        whole *awake* served population is :data:`NODE_SILENT` is also
        failed over — its backhaul beat no longer vouches for its radio
        plane.  Dormant nodes never feed that suspicion: a duty-cycled
        fleet recharging in lock step keeps its AP untouched.

        Returns ``{dead_ap_id: [migrated node ids]}`` for every death
        declared this step.
        """
        for member in self.members.values():
            if member.alive:
                self.monitor.beat(member.ap_id, now_s)
        migrations: dict[int, list[int]] = {}
        tel = self.telemetry
        for ap_id in self.monitor.newly_dead(now_s):
            if tel.enabled:
                tel.count("cluster.heartbeat_deaths")
                if ap_id not in self._ap_outage_spans:
                    self._ap_outage_spans[ap_id] = tel.begin(
                        "cluster.ap_outage", ap_id=ap_id)
            migrations[ap_id] = self.fail_over(ap_id)
        for ap_id in self._silence_suspects(now_s):
            self.crash(ap_id)
            self.silence_failovers += 1
            migrations[ap_id] = self.fail_over(ap_id)
        if tel.enabled:
            tel.gauge("cluster.alive_aps", float(len(self.alive_ap_ids())))
        return migrations

    def _silence_suspects(self, now_s: float) -> list[int]:
        """Alive APs condemned by their nodes' unexplained silence.

        An AP is suspect only when it serves at least one *awake*
        tracked node and every one of them is :data:`NODE_SILENT`.
        Dormant nodes are invisible to the test — declared sleep is not
        evidence — so a fully-dormant fleet can never condemn its AP.
        """
        if self.liveness is None:
            return []
        suspects = []
        for ap_id in self.alive_ap_ids():
            codes = [self.liveness.classify(n, now_s)
                     for n, a in self.serving.items()
                     if a == ap_id and n in self.liveness]
            awake = [c for c in codes if c != NODE_DORMANT]
            if awake and all(c == NODE_SILENT for c in awake):
                suspects.append(ap_id)
        return suspects

    def fail_over(self, dead_ap_id: int) -> list[int]:
        """Re-associate every node stranded on a dead AP.

        Each node walks its preference order over the *surviving* APs;
        a full allocator means falling to the next choice, and a node
        no survivor can fit lands in ``orphaned`` (still remembered, so
        recovery can re-adopt it).  Returns the migrated node ids.
        """
        stranded = sorted(n for n, a in self.serving.items()
                          if a == dead_ap_id)
        migrated: list[int] = []
        for node_id in stranded:
            new_ap: int | None = None
            for ap_id in self._preferences[node_id]:
                member = self.members.get(ap_id)
                if member is None or not member.alive:
                    continue
                try:
                    member.ap.register_node(node_id, self._rates[node_id])
                except SpectrumExhausted:
                    continue
                new_ap = ap_id
                break
            if new_ap is None:
                del self.serving[node_id]
                self.orphaned.add(node_id)
                if self.telemetry.enabled:
                    self.telemetry.count("cluster.orphaned")
            else:
                self.serving[node_id] = new_ap
                self.failover_count += 1
                migrated.append(node_id)
                if self.telemetry.enabled:
                    self.telemetry.count("cluster.failovers")
        return migrated

    def recover(self, ap_id: int, now_s: float) -> MmxAccessPoint:
        """Reboot a crashed AP from its last checkpoint.

        The restored AP reproduces its pre-crash spectrum map exactly;
        nodes that migrated to a survivor while it was down are then
        released from the restored copy (they live elsewhere now), and
        checkpointed nodes currently orphaned are re-adopted.  An AP
        that never checkpointed reboots empty — every registration it
        held is simply gone, which is the whole argument for the
        checkpoint cadence.

        A checkpoint that turns out to be corrupt (in memory that can't
        happen, but an on-disk one can rot, tear, or be tampered with)
        is *skipped and reported* on :attr:`recovery_errors`, and the AP
        reboots empty.
        Raising mid-failover would turn one bad file into a cluster
        outage; ``repro fsck`` on the file tells the rest of the story.
        """
        member = self.members[ap_id]
        if member.alive:
            raise ValueError(f"AP {ap_id} is not down")
        checkpoint = member.checkpoint
        if checkpoint is None and self.checkpoint_dir is not None:
            # Process-restart path: the in-memory capture is gone, but
            # the last persisted one may survive on disk.
            path = self.checkpoint_path(ap_id)
            if path.exists():
                try:
                    checkpoint = ApCheckpoint.load(path)
                except (CheckpointError, OSError) as exc:
                    self._report_bad_checkpoint(ap_id, str(exc))
        member.ap = MmxAccessPoint()
        if checkpoint is not None:
            try:
                member.ap = checkpoint.restore()
            except (CheckpointError, KeyError, TypeError,
                    ValueError) as exc:
                self._report_bad_checkpoint(ap_id, str(exc))
        for node_id in list(member.ap.registered_nodes):
            owner = self.serving.get(node_id)
            if owner == ap_id:
                continue          # never migrated; still ours
            if node_id in self.orphaned:
                self.orphaned.discard(node_id)
                self.serving[node_id] = ap_id
            elif owner is None:
                # A node this cluster has never seen: we are a restarted
                # process and the checkpoint is the only record of it.
                # Adopt it (default preference, checkpointed rate).
                self.serving[node_id] = ap_id
                self._preferences.setdefault(
                    node_id, tuple(sorted(self.members)))
                registration = member.ap.registration(node_id)
                self._rates.setdefault(
                    node_id, float(registration.config.bit_rate_bps))
            else:
                member.ap.deregister_node(node_id)
        member.alive = True
        self.monitor.beat(ap_id, now_s)
        tel = self.telemetry
        if tel.enabled:
            tel.count("cluster.recoveries")
            tel.gauge("cluster.alive_aps", float(len(self.alive_ap_ids())))
            span = self._ap_outage_spans.pop(ap_id, None)
            if span is not None:
                tel.end(span)
        return member.ap


@dataclass(frozen=True)
class FailoverResult:
    """Outcome of one adaptive-vs-frozen failover comparison."""

    times_s: FloatArray
    adaptive_success: FloatArray
    """Per-step mean expected frame survival across nodes (cluster)."""

    static_success: FloatArray
    """Same, for the frozen single-AP baseline."""

    detection_latency_s: float
    failover_count: int
    orphaned_nodes: int

    @property
    def adaptive_delivery_ratio(self) -> float:
        """Expected delivered fraction over the whole run (cluster)."""
        return float(np.mean(self.adaptive_success))

    @property
    def static_delivery_ratio(self) -> float:
        """Expected delivered fraction for the frozen baseline."""
        return float(np.mean(self.static_success))

    @property
    def gain(self) -> float:
        """How much delivery the failover machinery buys."""
        return self.adaptive_delivery_ratio - self.static_delivery_ratio


class FailoverSimulation:
    """Scores a cluster against a frozen single-AP under AP crashes.

    Both policies see the same crash schedule and the same per-(node,
    AP) frame-survival probabilities from
    :func:`repro.network.network.frame_success_matrix`, so the
    comparison is deterministic:

    * **adaptive** — the full :class:`Cluster`: heartbeat detection,
      failover to the best surviving AP, checkpointed recovery when the
      crash window ends;
    * **static** — every node on AP 0, no heartbeat, no checkpoint: the
      first crash of AP 0 erases its control-plane state and, with no
      recovery path, its nodes deliver nothing for the rest of the run
      (the seed repository's behaviour).
    """

    def __init__(self, room: Room, ap_positions: Sequence[Point],
                 node_positions: Sequence[Point],
                 demanded_rate_bps: float = 1e6,
                 payload_bytes: int = 256,
                 heartbeat: HeartbeatMonitor | None = None,
                 checkpoint_interval_s: float = 1.0,
                 telemetry: TelemetryRecorder | None = None):
        from ..network.network import frame_success_matrix

        if checkpoint_interval_s <= 0:
            raise ValueError("checkpoint interval must be positive")
        self.telemetry = telemetry if telemetry is not None \
            else NullRecorder()
        """Recorder handed to the per-run :class:`Cluster` (so the
        ``cluster.*`` family lands in the export) and whose clock this
        simulation advances one ``dt_s`` per lock-step iteration."""
        self.ap_positions = list(ap_positions)
        self.node_positions = list(node_positions)
        self.demanded_rate_bps = float(demanded_rate_bps)
        self.heartbeat = heartbeat or HeartbeatMonitor(interval_s=0.5,
                                                       miss_threshold=3)
        self.checkpoint_interval_s = float(checkpoint_interval_s)
        self.success = frame_success_matrix(
            room, self.ap_positions, self.node_positions,
            payload_bytes=payload_bytes)

    def _crash_windows(self, schedule: FaultSchedule
                       ) -> list[tuple[float, float, int]]:
        """Extract (start_s, end_s, ap_index) from ``ap_crash`` events."""
        windows: list[tuple[float, float, int]] = []
        for event in schedule.events:
            if event.kind != "ap_crash":
                continue
            ap_index = int(event.severity)
            if 0 <= ap_index < len(self.ap_positions):
                windows.append((event.start_s, event.end_s, ap_index))
        return windows

    def run(self, schedule: FaultSchedule,
            dt_s: float = 0.1) -> FailoverResult:
        """Step both policies through the schedule in lock step."""
        if dt_s <= 0:
            raise ValueError("time step must be positive")
        windows = self._crash_windows(schedule)

        # A fresh monitor per run: the one configured on the simulation
        # is a template (its parameters), not shared mutable state — a
        # second run must not see the first run's beat history.
        monitor = HeartbeatMonitor(
            interval_s=self.heartbeat.interval_s,
            miss_threshold=self.heartbeat.miss_threshold)
        cluster = Cluster(
            aps=[MmxAccessPoint() for _ in self.ap_positions],
            heartbeat=monitor,
            telemetry=self.telemetry)
        num_nodes = len(self.node_positions)
        for i in range(num_nodes):
            preference = [int(j) for j in np.argsort(-self.success[i])]
            cluster.register_node(i, self.demanded_rate_bps, preference)
        cluster.checkpoint_all()

        static_ap = MmxAccessPoint()
        for i in range(num_nodes):
            static_ap.register_node(i, self.demanded_rate_bps)
        static_state_lost = False

        times = np.arange(0.0, schedule.duration_s, dt_s)
        adaptive = np.zeros_like(times)
        static = np.zeros_like(times)
        next_checkpoint_s = self.checkpoint_interval_s

        crash_targets = sorted({ap for _, _, ap in windows})
        tel = self.telemetry
        for k, t in enumerate(times):
            if tel.enabled:
                tel.clock.advance(dt_s)
            # An AP is down while *any* of its crash windows is open
            # (windows may overlap); it reboots once all have closed.
            for ap_index in crash_targets:
                down = any(start_s <= t < end_s
                           for start_s, end_s, ap in windows
                           if ap == ap_index)
                member = cluster.members[ap_index]
                if down and member.alive:
                    cluster.crash(ap_index)
                    if ap_index == 0:
                        # The baseline AP reboots too when the window
                        # ends, but without a checkpoint its state is
                        # gone for good.
                        static_state_lost = True
                elif not down and not member.alive:
                    cluster.recover(ap_index, t)

            if t >= next_checkpoint_s:
                cluster.checkpoint_all()
                next_checkpoint_s += self.checkpoint_interval_s

            cluster.step(t)

            served = [self.success[i, cluster.serving_ap(i)]
                      for i in range(num_nodes) if cluster.is_served(i)]
            adaptive[k] = float(np.sum(served)) / num_nodes
            if not static_state_lost:
                static[k] = float(np.mean(self.success[:, 0]))

        if tel.enabled:
            tel.event("cluster.run",
                      duration_s=float(schedule.duration_s),
                      failovers=cluster.failover_count,
                      orphaned=len(cluster.orphaned))
        return FailoverResult(
            times_s=times,
            adaptive_success=adaptive,
            static_success=static,
            detection_latency_s=self.heartbeat.detection_latency_s,
            failover_count=cluster.failover_count,
            orphaned_nodes=len(cluster.orphaned),
        )
