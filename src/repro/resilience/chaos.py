"""Chaos runs: one fault schedule, two link-management policies.

:class:`ChaosSimulation` scores the clean analytic link once, when it
is built, then replays each :class:`~repro.faults.FaultSchedule` it is
given against two policies in lock-step:

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

A step costs only what changed since the step before:

* The schedule composes each distinct active set once per schedule
  and hands back that same object while the set holds, except while a
  drift event is active, when it composes per step (see
  :class:`~repro.faults.FaultSchedule`).  A step whose disturbance is
  the very object of the step before reuses the breakdown at hand.
* A new disturbance is scored in two halves
  (:func:`~repro.core.link.perturb_breakdown` is their composition).
  The half that ignores VCO drift is scored once per run for each
  distinct (node down, beam losses, stuck beam, interference power),
  through one per-run dict shared by both policies; inside a drift
  segment only the VCO offset moves, so a drift step pays only the
  FSK drift penalty.
* The static policy reuses its last (SNR, frame success) while the
  breakdown object holds, and the supervisor searches its ladder only
  when an input of the search changed.

That is exact: the two halves, the BER curves and
:func:`~repro.core.throughput.frame_success_probability` are pure, the
dict keys hold every field the drift-free half reads, a ±0.0 field
gives the same SNRs as 0.0, and a NaN field never matches a key (only
the very same float object is found again, by identity).  Nothing is
cached across runs except the clean breakdown: the schedule, like the
dict, is built per run.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.ask_fsk import AskFskConfig
from ..core.link import (
    SnrBreakdown,
    _drift_free,
    _drift_free_key,
    _DriftFree,
    _with_drift,
)
from ..core.throughput import CODING_MODES
from ..faults.events import LinkDisturbance
from ..faults.injector import FaultInjector, FaultSchedule
from ..telemetry import NullRecorder, TelemetryRecorder
from .health import LinkHealthMonitor, LinkHealthReport
from .supervisor import LinkSupervisor, RecoveryAction, _frame_success

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


def _perturbed(memo: dict[tuple[object, ...], _DriftFree],
               clean: SnrBreakdown,
               disturbance: LinkDisturbance,
               config: AskFskConfig) -> SnrBreakdown:
    """``clean`` under ``disturbance``, its drift-free half scored once
    per key of ``memo``."""
    key = _drift_free_key(disturbance)
    part = memo.get(key)
    if part is None:
        part = memo[key] = _drift_free(clean, disturbance)
    return _with_drift(part, disturbance.vco_offset_hz, config)


_SILENT = (float("-inf"), 0.0)
"""(decision SNR, frame success) of a step without a link."""


class _StaticPolicy:
    """The do-nothing baseline: frozen configuration, naive retries.

    A live step's (SNR, frame success) depends on the breakdown alone,
    so it is scored once per breakdown object and reused while the
    chaos loop hands back that same object.
    """

    def __init__(self, payload_bytes: int):
        self.payload_bytes = payload_bytes
        self.initialized = True
        self._success_memo: dict[tuple[str, float, int], float] = {}
        self._scored: SnrBreakdown | None = None
        self._live = _SILENT

    def step(self, breakdown, *, node_down: bool,
             side_channel_up: bool) -> tuple[float, float]:
        """(decision snr, frame success) for one step."""
        if node_down:
            self.initialized = False
            return _SILENT
        if not self.initialized:
            # Immediate tight-loop retry every step until the side
            # channel answers; the handshake consumes the step.
            if side_channel_up:
                self.initialized = True
            return _SILENT
        if breakdown is not self._scored:
            snr = breakdown.ask_snr_db
            self._live = (snr, _frame_success(
                self._success_memo, "ask", snr, 0, CODING_MODES,
                self.payload_bytes))
            self._scored = breakdown
        return self._live


class ChaosSimulation:
    """Replays fault schedules against both link-management policies.

    The link is scored once, here: every :meth:`run` starts from this
    one clean breakdown, so a sweep of scenarios on one placement ray
    traces the room once.
    """

    def __init__(self, link, time_step_s: float = 0.1,
                 payload_bytes: int = 256,
                 telemetry: TelemetryRecorder | None = None):
        if not time_step_s > 0:  # NaN fails too
            raise ValueError("time step must be positive")
        self.clean = link.snr_breakdown()
        """The fault-free breakdown every run perturbs."""
        self.config = link.config
        self.time_step_s = time_step_s
        self.payload_bytes = payload_bytes
        self.telemetry = telemetry if telemetry is not None \
            else NullRecorder()
        """Sink for the ``chaos.*`` step counters; also handed down to
        the adaptive :class:`LinkSupervisor` so its ``resilience.*``
        family lands in the same export.  The simulation drives the
        recorder's clock one ``time_step_s`` per step."""

    def run(self, injector: FaultInjector, duration_s: float,
            quiet_tail_s: float = 0.0) -> ChaosResult:
        """One deterministic chaos run of ``injector``'s faults.

        The injector's master seed spawns both the fault schedule and
        the supervisor's backoff-jitter stream, so the whole run —
        faults, recovery timing, every reported number — regenerates
        bit-identically.  ``quiet_tail_s`` reserves a fault-free window
        at the end so post-fault recovery is always measurable.

        Each step costs only what changed since the step before (see
        the module docstring for how, and why that is exact).  The
        ``chaos.steps`` counter and the two success gauges are
        recorded once, after the loop, with the run's step count and
        the last step's values.
        """
        if duration_s <= 0:
            raise ValueError("duration must be positive")

        schedule = injector.schedule(duration_s, quiet_tail_s)
        ss = np.random.SeedSequence(injector.master_seed + 1)
        supervisor = LinkSupervisor(
            monitor=LinkHealthMonitor(),
            payload_bytes=self.payload_bytes,
            rng=np.random.default_rng(ss),
            telemetry=self.telemetry)
        static = _StaticPolicy(self.payload_bytes)
        static_monitor = LinkHealthMonitor()

        clean = self.clean
        steps = int(round(duration_s / self.time_step_s))
        times = np.arange(steps) * self.time_step_s

        # The adaptive policy can leave the interfered channel; the
        # static one is stuck on it forever.  The spectrum move runs
        # through a real admission controller: the victim holds an FDM
        # plan, and rung 5 marks its channel interfered — the batched
        # re-admission pass then lands it on clean spectrum (the fresh
        # band guarantees an FDM move, so the schedule-visible outcome
        # — one successful move, then refusals — is unchanged).  Only
        # the first move request builds the controller: nothing else
        # reads it, and most runs never ask.
        from ..admission.controller import AdmissionController

        admission: AdmissionController | None = None
        victim_id = 0
        adaptive_channel = [HOME_CHANNEL]

        def reallocate() -> bool:
            nonlocal admission
            if adaptive_channel[0] != HOME_CHANNEL:
                return False
            if admission is None:
                admission = AdmissionController()
                admission.admit(victim_id, rate_bps=1e6)
            plan = admission.decision_for(victim_id).plan
            assert plan is not None
            report = admission.mark_interference(plan.low_hz, plan.high_hz)
            if victim_id not in report.moved:
                return False
            adaptive_channel[0] = HOME_CHANNEL + 1
            return True

        adaptive_snr: list[float] = []
        static_snr: list[float] = []
        adaptive_success: list[float] = []
        static_success: list[float] = []
        parts: dict[tuple[object, ...], _DriftFree] = {}
        config = self.config
        tel = self.telemetry
        recording = tel.enabled
        # The recorder's clock moves one step per step, the way
        # SimClock.advance moves it; __init__ checked the step
        # positive, so the loop adds it in place and the recorded path
        # pays no call per step.
        clock, time_step_s = tel.clock, float(self.time_step_s)
        disturbance_at = schedule.disturbance_at
        supervise = supervisor.step
        static_step = static.step
        static_observe = static_monitor.observe
        d_adaptive = d_static = b_adaptive = b_static = None
        for t in times.tolist():
            if recording:
                clock.now_s += time_step_s
            channel = adaptive_channel[0]
            # Outside drift, the schedule returns the very same object
            # while its active set holds, and that object's breakdown
            # is already at hand.
            d = disturbance_at(t, channel)
            if d is not d_adaptive:
                d_adaptive = d
                b_adaptive = _perturbed(parts, clean, d, config)
            # Both calls are pure, so until rung 5 moves the adaptive
            # policy off the home channel the static policy sees the
            # very same disturbance and breakdown.
            if channel == HOME_CHANNEL:
                d_static, b_static = d_adaptive, b_adaptive
            else:
                d = disturbance_at(t, HOME_CHANNEL)
                if d is not d_static:
                    d_static = d
                    b_static = _perturbed(parts, clean, d, config)
            decision = supervise(
                t, b_adaptive,
                node_down=d_adaptive.node_down,
                side_channel_up=d_adaptive.side_channel_up,
                reallocate=reallocate)
            adaptive_snr.append(decision.effective_snr_db)
            adaptive_success.append(decision.frame_success)
            snr, p = static_step(b_static, node_down=d_static.node_down,
                                 side_channel_up=d_static.side_channel_up)
            static_observe(t, snr)
            static_snr.append(snr)
            static_success.append(p)
        if recording:
            # Exact: a counter adds whole steps exactly, and an export
            # keeps only a gauge's last value.
            if steps:
                tel.count("chaos.steps", steps)
                tel.gauge("chaos.adaptive_success", adaptive_success[-1])
                tel.gauge("chaos.static_success", static_success[-1])
            tel.count("chaos.runs")
            tel.event("chaos.run", duration_s=duration_s, steps=steps,
                      faults=len(schedule.events))
        return ChaosResult(
            times_s=times,
            adaptive_snr_db=np.array(adaptive_snr, dtype=np.float64),
            static_snr_db=np.array(static_snr, dtype=np.float64),
            adaptive_success=np.array(adaptive_success, dtype=np.float64),
            static_success=np.array(static_success, dtype=np.float64),
            clean_snr_db=float(max(clean.ask_snr_db, clean.fsk_snr_db)),
            adaptive_report=supervisor.monitor.report(),
            static_report=static_monitor.report(),
            actions=tuple(supervisor.actions),
            schedule=schedule,
        )
