"""Self-healing link management: detection, escalation, recovery.

The supervisor is the AP-side brain the paper never needed to describe
— mmX's air interface is feedback-free, but the *system* still owns a
WiFi/BLE side channel and the FDM allocator, which is exactly enough
actuation for an escalating recovery ladder:

1. **Branch fallback** — prefer whichever joint ASK-FSK branch is
   healthier right now (a stuck SPDT or an ambiguous-amplitude
   placement kills ASK; VCO drift kills FSK; rarely both).
2. **Coding step-down** — when degraded, re-frame with the FEC mode
   that maximises frame survival at the measured SNR
   (:mod:`repro.core.throughput`'s ladder).
3. **Rate step-down** — when even the best coding mode cannot clear
   the outage threshold, halve the bit rate (each halving buys 3 dB of
   per-bit energy at the cost of halved offered load).
4. **Side-channel re-initialization** — after a node power dropout the
   channel assignment is gone; re-init attempts run with jittered
   exponential backoff so a congested/lossy control channel is not
   hammered by a tight retry loop.
5. **Channel re-allocation** — a sustained noise-floor jump is an
   in-band interferer; ask the AP to move the node's FDM channel away
   from it.

Every action is logged as a :class:`RecoveryAction` so chaos runs can
audit exactly which rung fired when.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..core.throughput import CODING_MODES, CodingMode, \
    frame_success_probability
from ..phy import ber as ber_theory
from ..rng import ensure_rng
from ..telemetry import NullRecorder, TelemetryRecorder
from ..units import linear_to_db
from .health import DORMANT, HEALTHY, OUTAGE, LinkHealthMonitor

__all__ = [
    "RecoveryAction",
    "SupervisorDecision",
    "LinkSupervisor",
]


@dataclass(frozen=True)
class RecoveryAction:
    """One recovery-ladder rung firing at one instant."""

    time_s: float
    policy: str
    """One of 'link-lost', 'reinit-attempt', 'reinit-backoff',
    'reinit-success', 'branch-fallback', 'coding-step-down',
    'coding-step-up', 'rate-step-down', 'rate-step-up',
    'channel-reallocation', 'dormant-hold', 'dormant-wake'."""

    detail: str = ""


@dataclass(frozen=True)
class SupervisorDecision:
    """What the supervised link does for one timestep."""

    time_s: float
    transmitting: bool
    branch: str
    mode: CodingMode
    rate_fraction: float
    raw_snr_db: float
    effective_snr_db: float
    state: str
    frame_success: float
    actions: tuple[RecoveryAction, ...]

    @property
    def goodput_fraction(self) -> float:
        """Delivered fraction of the full-rate offered load."""
        if not self.transmitting:
            return 0.0
        return self.frame_success * self.rate_fraction


def _branch_ber(branch: str, snr_db: float) -> float:
    """Channel BER for the branch actually decoding (paper's §9.3 curves)."""
    if branch == "fsk":
        return float(ber_theory.ber_fsk_noncoherent(snr_db))
    return float(ber_theory.ber_ask_table(snr_db))


class LinkSupervisor:
    """Watches one link's health and applies the recovery ladder."""

    MIN_RATE_FRACTION = 0.25

    def __init__(self, monitor: LinkHealthMonitor | None = None,
                 payload_bytes: int = 256,
                 modes: tuple[CodingMode, ...] = CODING_MODES,
                 reinit_backoff_s: float = 0.2,
                 backoff_factor: float = 2.0,
                 backoff_jitter: float = 0.25,
                 max_backoff_s: float = 2.0,
                 noise_jump_db: float = 6.0,
                 recovery_hold_s: float = 1.0,
                 rng: np.random.Generator | None = None,
                 telemetry: TelemetryRecorder | None = None):
        if payload_bytes <= 0:
            raise ValueError("payload must be positive")
        if not modes:
            raise ValueError("need at least one coding mode")
        if reinit_backoff_s <= 0 or max_backoff_s < reinit_backoff_s:
            raise ValueError("invalid backoff window")
        if backoff_factor < 1.0:
            raise ValueError("backoff factor must be >= 1")
        if not 0.0 <= backoff_jitter < 1.0:
            raise ValueError("jitter must be in [0, 1)")
        if noise_jump_db <= 0:
            raise ValueError("noise jump threshold must be positive")
        self.monitor = monitor or LinkHealthMonitor()
        self.payload_bytes = payload_bytes
        self.modes = modes
        self.reinit_backoff_s = reinit_backoff_s
        self.backoff_factor = backoff_factor
        self.backoff_jitter = backoff_jitter
        self.max_backoff_s = max_backoff_s
        self.noise_jump_db = noise_jump_db
        self.recovery_hold_s = recovery_hold_s
        self.rng = ensure_rng(rng)
        self.telemetry = telemetry if telemetry is not None \
            else NullRecorder()
        """Sink for the ``resilience.*`` metric family: one counter per
        ladder rung firing, plus cross-step recovery-latency spans
        (``resilience.outage`` from leaving HEALTHY back to HEALTHY,
        ``resilience.reinit`` from link-lost to reinit-success).  The
        driver that calls :meth:`step` owns the recorder's clock."""

        # Mutable link-management state.
        self.initialized = True
        self.actions: list[RecoveryAction] = []
        self.channel_moves = 0
        self._next_reinit_s = 0.0
        self._failed_attempts = 0
        self._mode_index = 0
        self._rate_fraction = 1.0
        self._branch = "ask"
        self._nominal_noise_dbm: float | None = None
        self._healthy_since: float | None = None
        self._outage_span = None
        self._reinit_span = None
        self._dormant = False

    # --- helpers ---------------------------------------------------------

    def _log(self, time_s: float, policy: str, detail: str = ""
             ) -> RecoveryAction:
        action = RecoveryAction(time_s=time_s, policy=policy, detail=detail)
        self.actions.append(action)
        tel = self.telemetry
        if tel.enabled:
            tel.count("resilience.actions")
            tel.count(f"resilience.action.{policy}")
            tel.event("resilience.action", policy=policy, detail=detail,
                      time_s=time_s)
        return action

    def _track_state(self, state: str) -> None:
        """Open/close the recovery-latency span as health transitions.

        The span starts the first step the link leaves HEALTHY and
        closes when it returns — its sim-time duration is exactly the
        recovery latency the observability docs promise per ladder
        escalation.
        """
        tel = self.telemetry
        if not tel.enabled:
            return
        if state != HEALTHY and self._outage_span is None:
            self._outage_span = tel.begin("resilience.outage",
                                          from_state=state)
        elif state == HEALTHY and self._outage_span is not None:
            tel.end(self._outage_span)
            self._outage_span = None

    def _backoff_delay(self) -> float:
        """Jittered exponential backoff for the next re-init attempt."""
        base = min(self.reinit_backoff_s
                   * self.backoff_factor ** max(self._failed_attempts - 1, 0),
                   self.max_backoff_s)
        jitter = 1.0 + self.backoff_jitter * float(self.rng.uniform(-1, 1))
        return base * jitter

    def _silent_decision(self, time_s: float, state: str,
                         actions: list[RecoveryAction]) -> SupervisorDecision:
        return SupervisorDecision(
            time_s=time_s, transmitting=False, branch=self._branch,
            mode=self.modes[self._mode_index],
            rate_fraction=self._rate_fraction,
            raw_snr_db=float("-inf"), effective_snr_db=float("-inf"),
            state=state, frame_success=0.0, actions=tuple(actions))

    # --- the per-timestep control loop -----------------------------------

    def step(self, time_s: float, breakdown, *,
             node_down: bool = False,
             side_channel_up: bool = True,
             dormant: bool = False,
             reallocate=None) -> SupervisorDecision:
        """Observe one instant's link state and act on it.

        ``breakdown`` is the (possibly perturbed)
        :class:`repro.core.link.SnrBreakdown` the AP measures this step;
        ``reallocate`` is an optional zero-argument callable that asks
        the AP to move this node's channel, returning True on success.

        ``dormant`` marks *energy-gated sleep* (the battery state
        machine is recharging): the node is silent but alive, so the
        ladder **holds** — no link-lost, no re-init storm, no rate
        step-down; initialization and the health estimate survive the
        nap and transmission resumes the step after wake-up.  A real
        power dropout (``node_down``) still wins: a browned-out node
        genuinely lost its assignment.
        """
        actions: list[RecoveryAction] = []

        if dormant and not node_down:
            if not self._dormant:
                self._dormant = True
                actions.append(self._log(
                    time_s, "dormant-hold",
                    "energy-gated sleep; holding link state"))
            return self._silent_decision(time_s, DORMANT, actions)
        if self._dormant:
            self._dormant = False
            actions.append(self._log(time_s, "dormant-wake",
                                     "store recharged; resuming"))

        # Rung 4a: power dropout — the assignment is gone; arm an
        # immediate first re-init attempt for when power returns.
        if node_down:
            if self.initialized:
                self.initialized = False
                self._failed_attempts = 0
                self._next_reinit_s = time_s
                actions.append(self._log(time_s, "link-lost",
                                         "node power dropout"))
                if self.telemetry.enabled and self._reinit_span is None:
                    self._reinit_span = self.telemetry.begin(
                        "resilience.reinit")
            self.monitor.observe(time_s, float("-inf"))
            self._track_state(OUTAGE)
            return self._silent_decision(time_s, OUTAGE, actions)

        # Rung 4b: re-initialization over the side channel with
        # jittered exponential backoff between failed attempts.
        if not self.initialized:
            if time_s >= self._next_reinit_s:
                actions.append(self._log(time_s, "reinit-attempt",
                                         f"attempt {self._failed_attempts + 1}"))
                if side_channel_up:
                    self.initialized = True
                    self._failed_attempts = 0
                    self.monitor.reset_estimate()
                    actions.append(self._log(time_s, "reinit-success"))
                    if self._reinit_span is not None:
                        self.telemetry.end(self._reinit_span)
                        self._reinit_span = None
                else:
                    self._failed_attempts += 1
                    delay = self._backoff_delay()
                    self._next_reinit_s = time_s + delay
                    actions.append(self._log(
                        time_s, "reinit-backoff",
                        f"retry in {delay * 1e3:.0f} ms"))
            # The re-init handshake (successful or not) consumes the
            # step; transmission resumes next step.
            self.monitor.observe(time_s, float("-inf"))
            self._track_state(OUTAGE)
            return self._silent_decision(time_s, OUTAGE, actions)

        # Rung 5: a sustained noise-floor jump means an in-band
        # interferer landed on our channel — move away from it.
        if self._nominal_noise_dbm is None:
            self._nominal_noise_dbm = breakdown.noise_dbm
        elif (breakdown.noise_dbm
                > self._nominal_noise_dbm + self.noise_jump_db
                and reallocate is not None):
            if reallocate():
                self.channel_moves += 1
                self.monitor.reset_estimate()
                actions.append(self._log(
                    time_s, "channel-reallocation",
                    f"noise floor +{breakdown.noise_dbm - self._nominal_noise_dbm:.1f} dB"))
                # Re-baseline on the next measurement (taken on the new
                # channel) so one interferer triggers one move, not a
                # move every step it stays active.
                self._nominal_noise_dbm = None

        raw_snr = max(breakdown.ask_snr_db, breakdown.fsk_snr_db)
        state = self.monitor.observe(time_s, raw_snr)
        self._track_state(state)

        # Rung 3: when the link sits in outage, trade rate for SNR —
        # each halving of the bit rate doubles per-bit energy (+3 dB).
        if state == OUTAGE and math.isfinite(raw_snr) \
                and self._rate_fraction > self.MIN_RATE_FRACTION:
            self._rate_fraction /= 2.0
            actions.append(self._log(time_s, "rate-step-down",
                                     f"rate x{self._rate_fraction:g}"))
        elif state == HEALTHY:
            if self._healthy_since is None:
                self._healthy_since = time_s
            elif time_s - self._healthy_since >= self.recovery_hold_s:
                if self._rate_fraction < 1.0:
                    self._rate_fraction = min(self._rate_fraction * 2.0, 1.0)
                    actions.append(self._log(
                        time_s, "rate-step-up",
                        f"rate x{self._rate_fraction:g}"))
                elif self._mode_index != 0:
                    actions.append(self._log(
                        time_s, "coding-step-up",
                        f"{self.modes[self._mode_index].name} -> "
                        f"{self.modes[0].name}"))
                    self._mode_index = 0
                self._healthy_since = time_s
        if state != HEALTHY:
            self._healthy_since = None

        rate_bonus_db = float(linear_to_db(1.0 / self._rate_fraction))
        branch_snrs = {"ask": breakdown.ask_snr_db + rate_bonus_db,
                       "fsk": breakdown.fsk_snr_db + rate_bonus_db}

        # Rungs 1+2: pick the (branch, coding mode) pair that maximises
        # frame survival.  Outside the healthy state the whole mode
        # ladder is searched (coding step-down); while healthy only the
        # current mode is kept, so a clean link stays on its cheap
        # configuration.
        if state != HEALTHY:
            candidates = [(b, index)
                          for b in ("ask", "fsk")
                          for index in range(len(self.modes))]
        else:
            candidates = [("ask", self._mode_index),
                          ("fsk", self._mode_index)]
        branch, best_index, p_frame = self._branch, self._mode_index, -1.0
        for cand_branch, cand_index in candidates:
            p = frame_success_probability(
                _branch_ber(cand_branch, branch_snrs[cand_branch]),
                self.payload_bytes, self.modes[cand_index])
            if p > p_frame + 1e-12:
                branch, best_index, p_frame = cand_branch, cand_index, p
        if branch != self._branch:
            actions.append(self._log(time_s, "branch-fallback",
                                     f"{self._branch} -> {branch}"))
            self._branch = branch
        if best_index != self._mode_index:
            verb = ("coding-step-down" if best_index > self._mode_index
                    else "coding-step-up")
            actions.append(self._log(
                time_s, verb,
                f"{self.modes[self._mode_index].name} -> "
                f"{self.modes[best_index].name}"))
            self._mode_index = best_index

        mode = self.modes[self._mode_index]
        effective_snr = branch_snrs[branch]
        return SupervisorDecision(
            time_s=time_s, transmitting=True, branch=branch, mode=mode,
            rate_fraction=self._rate_fraction, raw_snr_db=float(raw_snr),
            effective_snr_db=float(effective_snr), state=state,
            frame_success=float(max(p_frame, 0.0)), actions=tuple(actions))
