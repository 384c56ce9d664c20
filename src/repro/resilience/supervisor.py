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
from typing import NamedTuple

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


class SupervisorDecision(NamedTuple):
    """What the supervised link does for one timestep.

    A named tuple: immutable, cheap to build once per step (built
    positionally: keyword arguments double the cost), and read by
    attribute only.
    """

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


def _branch_ber(branch: str, snr_db: float) -> float:
    """Channel BER for the branch actually decoding (paper's §9.3 curves)."""
    if branch == "fsk":
        return float(ber_theory.ber_fsk_noncoherent(snr_db))
    return float(ber_theory.ber_ask_table(snr_db))


def _frame_success(memo: dict[tuple[str, float, int], float], branch: str,
                   snr_db: float, index: int,
                   modes: tuple[CodingMode, ...], payload_bytes: int) -> float:
    """Frame survival of ``modes[index]`` on ``branch`` at ``snr_db``.

    ``memo`` is the caller's own dict, so each distinct (branch, SNR,
    mode index) is scored once per caller and every repeat is a dict
    hit.  The mode index is part of the key because one SNR is scored
    under every mode while the ladder searches.
    """
    key = (branch, snr_db, index)
    p = memo.get(key)
    if p is None:
        p = memo[key] = frame_success_probability(
            _branch_ber(branch, snr_db), payload_bytes, modes[index])
    return p


class LinkSupervisor:
    """Watches one link's health and applies the recovery ladder.

    A step costs only what changed.  The rung-1/2 ladder search is a
    pure function of five inputs: healthy or not, the current branch,
    the current coding-mode index and the two rate-adjusted SNRs.
    :meth:`step` searches again only when one of them differs from the
    step before and otherwise reuses the last (branch, mode, frame
    success), so a steady link scores no candidate at all.  A search
    looks each candidate up in a per-instance dict from (branch, SNR,
    coding-mode index) to frame survival and scores only new keys.
    Both are exact because the BER curves and
    :func:`~repro.core.throughput.frame_success_probability` are pure,
    ``payload_bytes`` and ``modes`` are fixed per instance, a ±0.0 SNR
    gives the same BER either way, and a NaN SNR never matches (only
    the very same float object is found again, by identity).  A link
    held on one unchanged breakdown (the energy-outage drill) scores
    each candidate once.
    """

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
        # Written so that NaN fails: every comparison with NaN is False.
        if not payload_bytes > 0:
            raise ValueError("payload must be positive")
        if not modes:
            raise ValueError("need at least one coding mode")
        if not reinit_backoff_s > 0 or not max_backoff_s >= reinit_backoff_s:
            raise ValueError("invalid backoff window")
        if not backoff_factor >= 1.0:
            raise ValueError("backoff factor must be >= 1")
        if not 0.0 <= backoff_jitter < 1.0:
            raise ValueError("jitter must be in [0, 1)")
        if not noise_jump_db > 0:
            raise ValueError("noise jump threshold must be positive")
        if not recovery_hold_s >= 0:
            raise ValueError("recovery hold must be non-negative")
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
        self._set_rate_fraction(1.0)
        self._branch = "ask"
        self._nominal_noise_dbm: float | None = None
        self._healthy_since: float | None = None
        self._outage_span = None
        self._reinit_span = None
        self._dormant = False
        self._success_memo: dict[tuple[str, float, int], float] = {}
        # The last ladder search: its five inputs and its (branch, mode
        # index, frame success).  No search has run yet.
        self._ladder_inputs: tuple[bool, str, int, float, float] | None = None
        self._ladder: tuple[str, int, float] = ("ask", 0, 0.0)

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

    def _set_rate_fraction(self, fraction: float) -> None:
        """Move the bit rate, and the per-bit energy bonus it buys."""
        self._rate_fraction = fraction
        self._rate_bonus_db = float(linear_to_db(1.0 / fraction))

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
            time_s, False, self._branch, self.modes[self._mode_index],
            self._rate_fraction, float("-inf"), float("-inf"), state, 0.0,
            tuple(actions))

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
        healthy = state == HEALTHY
        # The outage span has something to record only when the link
        # crosses into or out of HEALTHY.
        if healthy == (self._outage_span is not None):
            self._track_state(state)

        # Rung 3: when the link sits in outage, trade rate for SNR —
        # each halving of the bit rate doubles per-bit energy (+3 dB).
        if state == OUTAGE and math.isfinite(raw_snr) \
                and self._rate_fraction > self.MIN_RATE_FRACTION:
            self._set_rate_fraction(self._rate_fraction / 2.0)
            actions.append(self._log(time_s, "rate-step-down",
                                     f"rate x{self._rate_fraction:g}"))
        elif healthy:
            if self._healthy_since is None:
                self._healthy_since = time_s
            elif time_s - self._healthy_since >= self.recovery_hold_s:
                if self._rate_fraction < 1.0:
                    self._set_rate_fraction(
                        min(self._rate_fraction * 2.0, 1.0))
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
        if not healthy:
            self._healthy_since = None

        ask_snr = breakdown.ask_snr_db + self._rate_bonus_db
        fsk_snr = breakdown.fsk_snr_db + self._rate_bonus_db

        # Rungs 1+2: pick the (branch, coding mode) pair that maximises
        # frame survival, scanning ask before fsk and each branch's
        # modes in ladder order.  Outside the healthy state the whole
        # mode ladder is searched (coding step-down); while healthy only
        # the current mode is kept, so a clean link stays on its cheap
        # configuration.  The search reads nothing but these five
        # inputs, so it runs again only when one of them changed.
        inputs = (healthy, self._branch, self._mode_index, ask_snr, fsk_snr)
        if inputs != self._ladder_inputs:
            branch, best_index, p_frame = self._branch, self._mode_index, -1.0
            indices = (range(best_index, best_index + 1) if healthy
                       else range(len(self.modes)))
            for cand_branch in ("ask", "fsk"):
                snr = ask_snr if cand_branch == "ask" else fsk_snr
                for index in indices:
                    p = _frame_success(self._success_memo, cand_branch, snr,
                                       index, self.modes, self.payload_bytes)
                    if p > p_frame + 1e-12:
                        branch, best_index, p_frame = cand_branch, index, p
            self._ladder_inputs = inputs
            self._ladder = (branch, best_index, float(max(p_frame, 0.0)))
        branch, best_index, frame_success = self._ladder
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
        effective_snr = ask_snr if branch == "ask" else fsk_snr
        return SupervisorDecision(
            time_s, True, branch, mode, self._rate_fraction, float(raw_snr),
            float(effective_snr), state, frame_success, tuple(actions))
