"""Chaos runs: one fault schedule, two link-management policies.

:class:`ChaosSimulation` traces the clean analytic link once, then
replays a :class:`~repro.faults.FaultSchedule` against two policies in
lock-step:

* **static** — the seed repo's implicit policy: the conventional ASK
  decision branch, uncoded frames, the originally allocated channel,
  and a naive immediate-retry re-initialization loop.  Nothing adapts.
* **adaptive** — a :class:`~repro.resilience.supervisor.LinkSupervisor`
  with the full recovery ladder.

Both see bit-identical disturbances (one master seed drives the
injector and the supervisor's backoff jitter), so any delivery gap is
attributable to link management alone.  Delivery is accounted in
expectation — per-step frame survival probability — which keeps the
comparison deterministic and free of sampling noise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.throughput import CODING_MODES, frame_success_probability
from ..faults.injector import FaultInjector, FaultSchedule
from ..phy import ber as ber_theory
from ..telemetry import NullRecorder, TelemetryRecorder
from .health import LinkHealthMonitor, LinkHealthReport
from .supervisor import LinkSupervisor, RecoveryAction

__all__ = ["ChaosResult", "ChaosSimulation"]

HOME_CHANNEL = 0
"""FDM channel index the victim starts on (interferer scenarios target
this channel; a re-allocation moves the victim off it)."""


@dataclass(frozen=True)
class ChaosResult:
    """Lock-step adaptive-vs-static outcome of one chaos run."""

    times_s: np.ndarray
    adaptive_snr_db: np.ndarray
    """Effective decision SNR the adaptive policy operated at."""

    static_snr_db: np.ndarray
    """Decision SNR of the frozen static policy (ASK branch)."""

    adaptive_success: np.ndarray
    """Per-step frame survival probability, adaptive policy."""

    static_success: np.ndarray
    """Per-step frame survival probability, static policy."""

    clean_snr_db: float
    """Fault-free OTAM SNR at this placement (the recovery target)."""

    adaptive_report: LinkHealthReport
    static_report: LinkHealthReport
    actions: tuple[RecoveryAction, ...]
    schedule: FaultSchedule

    @property
    def adaptive_delivery_ratio(self) -> float:
        """Mean per-offered-frame survival under the adaptive policy."""
        return float(np.mean(self.adaptive_success))

    @property
    def static_delivery_ratio(self) -> float:
        """Mean per-offered-frame survival under the static policy."""
        return float(np.mean(self.static_success))

    @property
    def delivery_gain(self) -> float:
        """Adaptive minus static delivery ratio."""
        return self.adaptive_delivery_ratio - self.static_delivery_ratio

    def post_fault_snr_db(self, settle_s: float = 1.0) -> float:
        """Mean adaptive SNR after the last fault clears (+settling).

        ``nan`` when the schedule leaves no fault-free tail to measure.
        """
        start = self.schedule.last_fault_end_s() + settle_s
        tail = self.adaptive_snr_db[self.times_s >= start]
        if tail.size == 0:
            return float("nan")
        return float(np.mean(tail))

    def recovered(self, tolerance_db: float = 1.0,
                  settle_s: float = 1.0) -> bool:
        """Whether post-fault SNR returned to the clean baseline."""
        post = self.post_fault_snr_db(settle_s)
        return bool(np.isfinite(post)
                    and post >= self.clean_snr_db - tolerance_db)

    def delivery_during(self, start_s: float, end_s: float
                        ) -> tuple[float, float]:
        """(adaptive, static) mean delivery inside a window."""
        mask = (self.times_s >= start_s) & (self.times_s < end_s)
        if not np.any(mask):
            return (float("nan"), float("nan"))
        return (float(np.mean(self.adaptive_success[mask])),
                float(np.mean(self.static_success[mask])))


class _StaticPolicy:
    """The do-nothing baseline: frozen configuration, naive retries."""

    def __init__(self, payload_bytes: int):
        self.payload_bytes = payload_bytes
        self.initialized = True
        self._mode = CODING_MODES[0]

    def step(self, breakdown, *, node_down: bool,
             side_channel_up: bool) -> tuple[float, float]:
        """(decision snr, frame success) for one step."""
        if node_down:
            self.initialized = False
            return (float("-inf"), 0.0)
        if not self.initialized:
            # Immediate tight-loop retry every step until the side
            # channel answers; the handshake consumes the step.
            if side_channel_up:
                self.initialized = True
            return (float("-inf"), 0.0)
        snr = breakdown.ask_snr_db
        ber = float(ber_theory.ber_ask_table(snr))
        return (snr, frame_success_probability(ber, self.payload_bytes,
                                               self._mode))


class ChaosSimulation:
    """Replays one fault schedule against both link-management policies."""

    def __init__(self, link, injector: FaultInjector,
                 time_step_s: float = 0.1,
                 payload_bytes: int = 256,
                 supervisor_kwargs: dict | None = None,
                 telemetry: TelemetryRecorder | None = None):
        if time_step_s <= 0:
            raise ValueError("time step must be positive")
        self.link = link
        self.injector = injector
        self.time_step_s = time_step_s
        self.payload_bytes = payload_bytes
        self.supervisor_kwargs = supervisor_kwargs or {}
        self.telemetry = telemetry if telemetry is not None \
            else NullRecorder()
        """Sink for the ``chaos.*`` step counters; also handed down to
        the adaptive :class:`LinkSupervisor` so its ``resilience.*``
        family lands in the same export.  The simulation drives the
        recorder's clock one ``time_step_s`` per step."""

    def run(self, duration_s: float,
            quiet_tail_s: float = 0.0) -> ChaosResult:
        """One deterministic chaos run.

        The injector's master seed spawns both the fault schedule and
        the supervisor's backoff-jitter stream, so the whole run —
        faults, recovery timing, every reported number — regenerates
        bit-identically.  ``quiet_tail_s`` reserves a fault-free window
        at the end so post-fault recovery is always measurable.
        """
        if duration_s <= 0:
            raise ValueError("duration must be positive")
        from ..core.link import perturb_breakdown

        schedule = self.injector.schedule(duration_s, quiet_tail_s)
        ss = np.random.SeedSequence(self.injector.master_seed + 1)
        supervisor = LinkSupervisor(
            monitor=LinkHealthMonitor(),
            payload_bytes=self.payload_bytes,
            rng=np.random.default_rng(ss),
            telemetry=self.telemetry,
            **self.supervisor_kwargs)
        static = _StaticPolicy(self.payload_bytes)
        static_monitor = LinkHealthMonitor()

        clean = self.link.snr_breakdown()
        steps = int(round(duration_s / self.time_step_s))
        times = np.arange(steps) * self.time_step_s

        # The adaptive policy can leave the interfered channel; the
        # static one is stuck on it forever.  The spectrum move runs
        # through a real admission controller: the victim holds an FDM
        # plan, and rung 5 marks its channel interfered — the batched
        # re-admission pass then lands it on clean spectrum (the fresh
        # band guarantees an FDM move, so the schedule-visible outcome
        # — one successful move, then refusals — is unchanged).
        from ..admission.controller import AdmissionController

        admission = AdmissionController()
        victim_id = 0
        admission.admit(victim_id, rate_bps=1e6)
        adaptive_channel = [HOME_CHANNEL]

        def reallocate() -> bool:
            if adaptive_channel[0] != HOME_CHANNEL:
                return False
            plan = admission.decision_for(victim_id).plan
            assert plan is not None
            report = admission.mark_interference(plan.low_hz, plan.high_hz)
            if victim_id not in report.moved:
                return False
            adaptive_channel[0] = HOME_CHANNEL + 1
            return True

        adaptive_snr = np.empty(steps)
        static_snr = np.empty(steps)
        adaptive_success = np.empty(steps)
        static_success = np.empty(steps)
        tel = self.telemetry
        for i, t in enumerate(times):
            t = float(t)
            if tel.enabled:
                tel.clock.advance(self.time_step_s)
                tel.count("chaos.steps")
            channel = adaptive_channel[0]
            d_adaptive = schedule.disturbance_at(t, channel)
            b_adaptive = perturb_breakdown(clean, d_adaptive,
                                           self.link.config)
            # Both calls are pure, so until rung 5 moves the adaptive
            # policy off the home channel the static policy sees the
            # very same disturbance and breakdown.
            if channel == HOME_CHANNEL:
                d_static, b_static = d_adaptive, b_adaptive
            else:
                d_static = schedule.disturbance_at(t, HOME_CHANNEL)
                b_static = perturb_breakdown(clean, d_static,
                                             self.link.config)
            decision = supervisor.step(
                t, b_adaptive,
                node_down=d_adaptive.node_down,
                side_channel_up=d_adaptive.side_channel_up,
                reallocate=reallocate)
            adaptive_snr[i] = decision.effective_snr_db
            adaptive_success[i] = decision.frame_success
            snr, p = static.step(b_static,
                                 node_down=d_static.node_down,
                                 side_channel_up=d_static.side_channel_up)
            static_monitor.observe(t, snr)
            static_snr[i] = snr
            static_success[i] = p
            if tel.enabled:
                tel.gauge("chaos.adaptive_success", float(decision.frame_success))
                tel.gauge("chaos.static_success", float(p))
        if tel.enabled:
            tel.count("chaos.runs")
            tel.event("chaos.run", duration_s=duration_s, steps=steps,
                      faults=len(schedule.events))
        return ChaosResult(
            times_s=times,
            adaptive_snr_db=adaptive_snr,
            static_snr_db=static_snr,
            adaptive_success=adaptive_success,
            static_success=static_success,
            clean_snr_db=float(max(clean.ask_snr_db, clean.fsk_snr_db)),
            adaptive_report=supervisor.monitor.report(),
            static_report=static_monitor.report(),
            actions=tuple(supervisor.actions),
            schedule=schedule,
        )
