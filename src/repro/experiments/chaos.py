"""Chaos-engineering experiment: fault injection vs the recovery ladder.

Not a paper figure — a robustness extension: §9.3/§9.4 show mmX
surviving *one* fault at a time (a blocker, an off-axis placement);
this experiment injects the full fault taxonomy of
:mod:`repro.faults` on a schedule and measures whether the
:class:`repro.resilience.LinkSupervisor` actually recovers, against a
frozen static baseline under bit-identical faults.

``run`` executes one named scenario; ``run_all`` sweeps every scenario
registered in :data:`repro.faults.SCENARIOS` from one master seed.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from ..cluster import FailoverResult
from ..core.link import facing_link
from ..faults import FaultInjector, scenario_injector
from ..resilience import ChaosResult, ChaosSimulation
from ..telemetry import TelemetryRecorder

__all__ = ["ChaosRunResult", "FailoverRunResult", "run", "run_all",
           "run_failover", "render", "render_all", "render_failover"]

DEFAULT_DISTANCE_M = 4.0
"""Node-AP distance for the chaos placement: mid-room, facing, well
inside Fig. 12's working range — faults, not geometry, set the SNR."""

QUIET_TAIL_S = 3.0
"""Fault-free seconds at the end of every scenario run, so post-fault
recovery is measurable; a run must last longer than this."""


@dataclass(frozen=True)
class ChaosRunResult:
    """One scenario's adaptive-vs-static outcome plus headline numbers."""

    scenario: str
    seed: int
    duration_s: float
    result: ChaosResult

    @property
    def delivery_gain(self) -> float:
        """Adaptive minus static delivery ratio."""
        return self.result.delivery_gain

    @property
    def recovered(self) -> bool:
        """Whether adaptive SNR returned to baseline after the faults."""
        return self.result.recovered()

    def action_counts(self) -> dict[str, int]:
        """How many times each recovery-ladder rung fired."""
        return dict(Counter(a.policy for a in self.result.actions))


def run(scenario: str = "kitchen-sink", seed: int = 0,
        duration_s: float = 30.0, quiet_tail_s: float = QUIET_TAIL_S,
        distance_m: float = DEFAULT_DISTANCE_M,
        time_step_s: float = 0.1,
        telemetry: TelemetryRecorder | None = None) -> ChaosRunResult:
    """One chaos run: a named fault scenario against both policies.

    Everything — the fault schedule, the supervisor's backoff jitter —
    derives from ``seed``, so the whole result regenerates
    bit-identically.  ``quiet_tail_s`` keeps the end of the run
    fault-free so post-fault recovery is measurable.  ``telemetry``
    (optional) wraps the run in a ``chaos.scenario`` span and collects
    the ``chaos.*`` / ``resilience.*`` families for export.
    """
    injector = scenario_injector(scenario, master_seed=seed)
    sim = ChaosSimulation(facing_link(distance_m), time_step_s=time_step_s,
                          telemetry=telemetry)
    return _run_scenario(sim, scenario, injector, seed, duration_s,
                         quiet_tail_s)


def _run_scenario(sim: ChaosSimulation, scenario: str,
                  injector: FaultInjector, seed: int, duration_s: float,
                  quiet_tail_s: float) -> ChaosRunResult:
    """``injector``'s run on ``sim``, inside its ``chaos.scenario`` span."""
    with sim.telemetry.span("chaos.scenario", scenario=scenario, seed=seed):
        result = sim.run(injector, duration_s, quiet_tail_s=quiet_tail_s)
    return ChaosRunResult(scenario=scenario, seed=seed,
                          duration_s=duration_s, result=result)


def run_all(seed: int = 0, duration_s: float = 30.0,
            quiet_tail_s: float = QUIET_TAIL_S,
            distance_m: float = DEFAULT_DISTANCE_M,
            telemetry: TelemetryRecorder | None = None
            ) -> list[ChaosRunResult]:
    """Every registered scenario from one master seed.

    One recorder (``telemetry``) spans the whole sweep, so scenario
    spans stack side by side on a single cumulative sim-time axis —
    exactly the shape the flamegraph export collapses.  Every scenario
    runs on the same placement, so the sweep traces and scores the link
    once and runs each scenario on that one
    :class:`~repro.resilience.ChaosSimulation`.
    """
    from ..faults import SCENARIOS

    sim = ChaosSimulation(facing_link(distance_m), telemetry=telemetry)
    return [_run_scenario(sim, name,
                          scenario_injector(name, master_seed=seed),
                          seed, duration_s, quiet_tail_s)
            for name in sorted(SCENARIOS)]


@dataclass(frozen=True)
class FailoverRunResult:
    """One AP-crash failover run plus the knobs that produced it."""

    seed: int
    duration_s: float
    crash_start_s: float
    crash_duration_s: float
    ap_index: int
    result: FailoverResult

    @property
    def delivery_gain(self) -> float:
        """Adaptive cluster minus frozen single-AP delivery ratio."""
        return self.result.gain


def run_failover(seed: int = 0, duration_s: float = 30.0,
                 crash_start_s: float = 8.0,
                 crash_duration_s: float = 12.0,
                 ap_index: int = 0,
                 time_step_s: float = 0.1,
                 telemetry: TelemetryRecorder | None = None
                 ) -> FailoverRunResult:
    """Crash one AP of a two-AP cluster and score the failover machinery.

    A 20 x 10 m hall with an AP at each end and four nodes split
    between them; the :class:`~repro.faults.ApCrashProcess` takes AP
    ``ap_index`` down for ``crash_duration_s``.  The adaptive cluster
    detects the death by heartbeat, fails the stranded nodes over to
    the survivor, and restores the rebooted AP from its checkpoint; the
    frozen baseline parks everyone on AP 0 and loses them (state and
    all) the moment it dies — the seed repository's behaviour.
    """
    from ..cluster import FailoverSimulation, HeartbeatMonitor
    from ..faults import ApCrashProcess
    from ..sim.environment import Room
    from ..sim.geometry import Point

    room = Room.rectangular(width_m=20.0, length_m=10.0)
    ap_positions = [Point(2.0, 5.0), Point(18.0, 5.0)]
    node_positions = [Point(4.0, 3.0), Point(6.0, 7.0),
                      Point(14.0, 3.0), Point(16.0, 7.0)]
    sim = FailoverSimulation(
        room, ap_positions, node_positions, demanded_rate_bps=1e6,
        heartbeat=HeartbeatMonitor(interval_s=0.5, miss_threshold=3),
        telemetry=telemetry)
    injector = FaultInjector(
        [ApCrashProcess(start_s=crash_start_s,
                        duration_s=crash_duration_s,
                        ap_index=ap_index)],
        master_seed=seed)
    tel = sim.telemetry
    with tel.span("cluster.failover_run", seed=seed,
                  ap_index=ap_index):
        result = sim.run(injector.schedule(duration_s), dt_s=time_step_s)
    return FailoverRunResult(seed=seed, duration_s=duration_s,
                             crash_start_s=crash_start_s,
                             crash_duration_s=crash_duration_s,
                             ap_index=ap_index, result=result)


def render_failover(outcome: FailoverRunResult) -> str:
    """Text report for one AP-crash failover run."""
    r = outcome.result
    return "\n".join([
        f"ap-crash failover (seed {outcome.seed}, "
        f"{outcome.duration_s:.0f} s, AP {outcome.ap_index} down "
        f"{outcome.crash_start_s:.0f}-"
        f"{outcome.crash_start_s + outcome.crash_duration_s:.0f} s)",
        f"  delivery ratio : cluster {r.adaptive_delivery_ratio:.3f}  "
        f"frozen single-AP {r.static_delivery_ratio:.3f}  "
        f"gain {r.gain:+.3f}",
        f"  detection      : {r.detection_latency_s:.1f} s heartbeat "
        f"latency",
        f"  failovers      : {r.failover_count} node(s) migrated, "
        f"{r.orphaned_nodes} orphaned",
    ])


def render(outcome: ChaosRunResult) -> str:
    """Detailed text report for one scenario."""
    r = outcome.result
    lines = [
        f"chaos scenario '{outcome.scenario}' "
        f"(seed {outcome.seed}, {outcome.duration_s:.0f} s, "
        f"faults: {', '.join(r.schedule.kinds()) or 'none'})",
        f"  delivery ratio : adaptive {r.adaptive_delivery_ratio:.3f}  "
        f"static {r.static_delivery_ratio:.3f}  "
        f"gain {r.delivery_gain:+.3f}",
        f"  availability   : adaptive {r.adaptive_report.availability:.3f}  "
        f"static {r.static_report.availability:.3f}",
        f"  MTTR           : adaptive {r.adaptive_report.mttr_s:.2f} s  "
        f"static {r.static_report.mttr_s:.2f} s",
        f"  clean SNR      : {r.clean_snr_db:.1f} dB; post-fault "
        f"{r.post_fault_snr_db():.1f} dB "
        f"(recovered: {r.recovered()})",
    ]
    counts = outcome.action_counts()
    if counts:
        summary = ", ".join(f"{name} x{count}"
                            for name, count in sorted(counts.items()))
        lines.append(f"  recovery log   : {summary}")
    else:
        lines.append("  recovery log   : (no action needed)")
    return "\n".join(lines)


def render_all(outcomes: list[ChaosRunResult]) -> str:
    """Summary table across scenarios."""
    header = (f"{'scenario':<14} {'adaptive':>8} {'static':>8} "
              f"{'gain':>7} {'avail':>6} {'mttr_s':>7} {'recovered':>9}")
    lines = [header, "-" * len(header)]
    for outcome in outcomes:
        r = outcome.result
        lines.append(
            f"{outcome.scenario:<14} "
            f"{r.adaptive_delivery_ratio:>8.3f} "
            f"{r.static_delivery_ratio:>8.3f} "
            f"{r.delivery_gain:>+7.3f} "
            f"{r.adaptive_report.availability:>6.3f} "
            f"{r.adaptive_report.mttr_s:>7.2f} "
            f"{str(outcome.recovered):>9}")
    return "\n".join(lines)
