"""Reference resilience paths: the chaos loop's scoring as it was before
each step cost only what changed.

These are kept verbatim so the differential tests can demand
bit-identical chaos results from the incremental paths:

* :class:`EwmaEstimator` and :class:`LinkHealthMonitor` — the monitor
  that appends one (time, value, state) tuple per sample and rebuilds
  its report from those tuples;
* :class:`SearchEveryStep` — ``LinkSupervisor.step`` searching the
  rung-1/2 ladder on every step;
* :func:`perturb_breakdown` — the whole disturbance scored in one
  call, VCO drift included;
* :class:`StaticPolicy` — the static baseline scoring every live step.

:func:`_frame_success` scores afresh on every call (its ``memo``
argument is ignored), which is how every candidate was scored before
the per-instance dicts existed.  The module shares only the data types,
the state names, the BER curves, the frame-success model and the
link-level helpers with the program; ``SearchEveryStep.step`` patches
onto :class:`~repro.resilience.LinkSupervisor`, whose helpers and
attributes it reads.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.link import (
    SnrBreakdown,
    _amplitude,
    _fsk_drift_penalty_db,
    _level,
)
from repro.core.throughput import CODING_MODES, frame_success_probability
from repro.resilience.health import (
    DEGRADED,
    DORMANT,
    HEALTHY,
    OUTAGE,
    LinkHealthReport,
)
from repro.resilience.supervisor import (
    RecoveryAction,
    SupervisorDecision,
    _branch_ber,
)
from repro.units import dbm_to_milliwatts, milliwatts_to_dbm


def _frame_success(memo, branch, snr_db, index, modes, payload_bytes):
    """Frame survival of ``modes[index]``, scored afresh every call."""
    return frame_success_probability(_branch_ber(branch, snr_db),
                                     payload_bytes, modes[index])


class EwmaEstimator:
    """Exponentially-weighted moving average over a scalar stream."""

    def __init__(self, alpha: float = 0.3):
        if not 0.0 < alpha <= 1.0:
            raise ValueError("alpha must be in (0, 1]")
        self.alpha = alpha
        self._value: float | None = None

    def update(self, sample: float) -> float:
        """Fold one sample in and return the new estimate.

        Non-finite samples (a dead capture reports -inf SNR) clamp the
        estimate hard to the sample — a dead link must not be hidden
        behind a slowly-decaying average.
        """
        if not math.isfinite(sample):
            self._value = float(sample)
            return self._value
        if self._value is None or not math.isfinite(self._value):
            self._value = float(sample)
        else:
            self._value = float(self.alpha * sample
                                + (1.0 - self.alpha) * self._value)
        return self._value

    def reset(self) -> None:
        """Forget all history (e.g. after a channel re-allocation)."""
        self._value = None


class LinkHealthMonitor:
    """EWMA-based SNR watcher with hysteretic state classification.

    State machine::

        healthy --(ewma < degraded_db)--> degraded
        degraded --(ewma < outage_db)---> outage
        degraded --(ewma > degraded_db + hysteresis)--> healthy
        outage  --(ewma > outage_db + hysteresis)----> degraded

    ``outage_db`` defaults to 10 dB — the same threshold
    :class:`repro.sim.timeline.LinkTrace` calls an outage — and the
    degraded band sits a margin above it, where frames still get
    through but only with FEC's help.
    """

    def __init__(self, outage_db: float = 10.0,
                 degraded_margin_db: float = 5.0,
                 hysteresis_db: float = 2.0,
                 alpha: float = 0.3):
        if degraded_margin_db <= 0 or hysteresis_db < 0:
            raise ValueError("margins must be positive")
        self.outage_db = outage_db
        self.degraded_db = outage_db + degraded_margin_db
        self.hysteresis_db = hysteresis_db
        self.ewma = EwmaEstimator(alpha)
        self.state = HEALTHY
        self._samples: list[tuple[float, float, str]] = []

    # --- observation -----------------------------------------------------

    def observe(self, time_s: float, snr_db: float) -> str:
        """Fold one SNR measurement in; returns the new state."""
        if self._samples and time_s < self._samples[-1][0]:
            raise ValueError("observations must arrive in time order")
        value = self.ewma.update(float(snr_db))
        if self.state == HEALTHY:
            if value < self.outage_db:
                self.state = OUTAGE
            elif value < self.degraded_db:
                self.state = DEGRADED
        elif self.state == DEGRADED:
            if value < self.outage_db:
                self.state = OUTAGE
            elif value > self.degraded_db + self.hysteresis_db:
                self.state = HEALTHY
        else:  # OUTAGE
            if value > self.outage_db + self.hysteresis_db:
                self.state = DEGRADED
        self._samples.append((float(time_s), value, self.state))
        return self.state

    def reset_estimate(self) -> None:
        """Forget the EWMA (after re-init / channel move), keep history."""
        self.ewma.reset()

    # --- reporting -------------------------------------------------------

    def outage_intervals(self) -> list[tuple[float, float]]:
        """(start_s, duration_s) of each contiguous outage episode.

        The final sample's state extends one median inter-sample gap,
        mirroring ``LinkTrace.outage_events``.
        """
        if not self._samples:
            return []
        times = [t for t, _, _ in self._samples]
        dt = (float(np.median(np.diff(times))) if len(times) > 1 else 0.0)
        intervals = []
        start = None
        for t, _, state in self._samples:
            if state == OUTAGE and start is None:
                start = t
            elif state != OUTAGE and start is not None:
                intervals.append((start, t - start))
                start = None
        if start is not None:
            intervals.append((start, times[-1] - start + dt))
        return intervals

    def report(self) -> LinkHealthReport:
        """Summarise everything observed so far."""
        if not self._samples:
            raise ValueError("no observations to report on")
        times = np.asarray([t for t, _, _ in self._samples])
        values = np.asarray([v for _, v, _ in self._samples])
        states = [s for _, _, s in self._samples]
        duration = (float(times[-1] - times[0]) if len(times) > 1
                    else 0.0)
        outage_frac = states.count(OUTAGE) / len(states)
        degraded_frac = states.count(DEGRADED) / len(states)
        intervals = self.outage_intervals()
        mttr = (float(np.mean([d for _, d in intervals]))
                if intervals else 0.0)
        if len(intervals) >= 2:
            starts = [s for s, _ in intervals]
            mtbf = float(np.mean(np.diff(starts)))
        else:
            mtbf = float("inf")
        finite = values[np.isfinite(values)]
        return LinkHealthReport(
            duration_s=duration,
            availability=1.0 - outage_frac,
            degraded_fraction=degraded_frac,
            outage_count=len(intervals),
            mttr_s=mttr,
            mtbf_s=mtbf,
            mean_snr_db=(float(np.mean(finite)) if finite.size
                         else float("-inf")),
            min_snr_db=float(np.min(values)) if values.size else 0.0,
        )


class SearchEveryStep:
    """``LinkSupervisor.step`` with the ladder searched every step."""

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
            self._set_rate_fraction(self._rate_fraction / 2.0)
            actions.append(self._log(time_s, "rate-step-down",
                                     f"rate x{self._rate_fraction:g}"))
        elif state == HEALTHY:
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
        if state != HEALTHY:
            self._healthy_since = None

        ask_snr = breakdown.ask_snr_db + self._rate_bonus_db
        fsk_snr = breakdown.fsk_snr_db + self._rate_bonus_db

        # Rungs 1+2: pick the (branch, coding mode) pair that maximises
        # frame survival, scanning ask before fsk and each branch's
        # modes in ladder order.  Outside the healthy state the whole
        # mode ladder is searched (coding step-down); while healthy only
        # the current mode is kept, so a clean link stays on its cheap
        # configuration.
        branch, best_index, p_frame = self._branch, self._mode_index, -1.0
        indices = (range(best_index, best_index + 1) if state == HEALTHY
                   else range(len(self.modes)))
        for cand_branch in ("ask", "fsk"):
            snr = ask_snr if cand_branch == "ask" else fsk_snr
            for index in indices:
                p = _frame_success(self._success_memo, cand_branch, snr,
                                   index, self.modes, self.payload_bytes)
                if p > p_frame + 1e-12:
                    branch, best_index, p_frame = cand_branch, index, p
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
            time_s=time_s, transmitting=True, branch=branch, mode=mode,
            rate_fraction=self._rate_fraction, raw_snr_db=float(raw_snr),
            effective_snr_db=float(effective_snr), state=state,
            frame_success=float(max(p_frame, 0.0)), actions=tuple(actions))


def perturb_breakdown(breakdown: SnrBreakdown,
                      disturbance,
                      config: AskFskConfig) -> SnrBreakdown:
    """Apply a :class:`repro.faults.LinkDisturbance` to a clean breakdown.

    This is the analytic fault model the chaos experiments run on: it
    recomputes every decision SNR from the *perturbed* per-beam received
    levels, so the joint ASK-FSK structure responds to each fault class
    the way the hardware would —

    * blockage subtracts per-beam excess loss (the LoS beam pays more
      than the NLoS beam, so the ASK contrast can shrink or invert);
    * a stuck SPDT radiates every symbol through the welded port,
      collapsing the ASK contrast to zero while FSK survives;
    * VCO drift detunes the Goertzel bins, degrading only the FSK
      branch (:func:`_fsk_drift_penalty_db`);
    * in-band interference raises the effective noise floor, so every
      reported SNR is really an SINR and ``noise_dbm`` is what the AP
      *measures* (the resilience layer keys interferer detection off
      that jump);
    * a node power dropout silences everything.

    The ASK level distance uses the amplitude difference of the two
    perturbed levels (phases are unknowable once faults perturb the
    traced channel); the fault-free path through
    :meth:`OtamLink.snr_breakdown` is untouched.
    """
    if disturbance.node_down:
        ninf = float("-inf")
        return SnrBreakdown(
            beam1_level_dbm=ninf, beam0_level_dbm=ninf,
            noise_dbm=breakdown.noise_dbm, ask_snr_db=ninf,
            fsk_snr_db=ninf, no_otam_snr_db=ninf, inverted=False)
    level1 = breakdown.beam1_level_dbm - disturbance.beam1_extra_loss_db
    level0 = breakdown.beam0_level_dbm - disturbance.beam0_extra_loss_db
    if disturbance.stuck_beam == 1:
        level0 = level1
    elif disturbance.stuck_beam == 0:
        level1 = level0
    noise_mw = float(dbm_to_milliwatts(breakdown.noise_dbm))
    if disturbance.has_interference:
        noise_mw += float(dbm_to_milliwatts(disturbance.interference_dbm))
    noise_dbm = float(milliwatts_to_dbm(noise_mw))
    a1, a0 = _amplitude(level1), _amplitude(level0)
    ask_snr = _level(abs(a1 - a0)) - noise_dbm
    fsk_level = _level(math.sqrt((a1 * a1 + a0 * a0) / 2.0))
    penalty = _fsk_drift_penalty_db(disturbance.vco_offset_hz, config)
    fsk_snr = float("-inf") if math.isinf(penalty) \
        else fsk_level - penalty - noise_dbm
    return SnrBreakdown(
        beam1_level_dbm=level1,
        beam0_level_dbm=level0,
        noise_dbm=noise_dbm,
        ask_snr_db=ask_snr,
        fsk_snr_db=fsk_snr,
        no_otam_snr_db=level1 - noise_dbm,
        inverted=a0 > a1,
    )



class StaticPolicy:
    """The do-nothing baseline: frozen configuration, naive retries."""

    def __init__(self, payload_bytes: int):
        self.payload_bytes = payload_bytes
        self.initialized = True
        self._success_memo: dict[tuple[str, float, int], float] = {}

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
        return (snr, _frame_success(self._success_memo, "ask", snr, 0,
                                    CODING_MODES, self.payload_bytes))
