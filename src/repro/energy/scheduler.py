"""Duty-cycle scheduler: the energy state machine meets the MAC.

A harvesting node cannot run the paper's MAC verbatim: a frame that
fails CRC would normally be retransmitted immediately, but an
energy-gated node may be *dormant* when the retry timer fires.  This
scheduler sits between offered traffic and the
:class:`~repro.energy.battery.EnergyStateMachine`:

* new frames and retries queue while the node is dormant — they are
  **deferred, not dropped** (dormant ≠ dead);
* each transmitted frame succeeds or fails against a per-frame
  delivery probability drawn from the *handed-in* seeded generator
  (the :mod:`repro.rng` discipline), failures re-queue up to
  ``max_retries`` and then drop;
* the scheduler reports delivery/retry/drop counts and the realised
  duty cycle, the numbers the outage-survival campaign aggregates.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from .battery import EnergyStateMachine, EnergyStep

__all__ = ["DutyCycleScheduler", "SchedulerStats"]


@dataclass(frozen=True)
class SchedulerStats:
    """Cumulative MAC outcome of one scheduler run."""

    offered: int
    delivered: int
    retries: int
    dropped: int
    pending: int
    duty_cycle: float
    dormant_steps: int

    @property
    def delivery_ratio(self) -> float:
        """Delivered / offered (1.0 for an idle run)."""
        return self.delivered / self.offered if self.offered else 1.0


class DutyCycleScheduler:
    """Queue + retry policy wrapped around an energy state machine."""

    def __init__(self, machine: EnergyStateMachine, *,
                 frame_success_probability: float = 1.0,
                 max_retries: int = 3,
                 queue_limit: int = 256) -> None:
        if not 0.0 <= frame_success_probability <= 1.0:
            raise ValueError("success probability must be in [0, 1]")
        if max_retries < 0:
            raise ValueError("retry budget cannot be negative")
        if queue_limit < 1:
            raise ValueError("queue must hold at least one frame")
        self.machine = machine
        self.frame_success_probability = frame_success_probability
        self.max_retries = max_retries
        self.queue_limit = queue_limit
        self._queue: deque[int] = deque()  # per-frame attempt counts
        self.offered = 0
        self.delivered = 0
        self.retries = 0
        self.dropped = 0
        self.dormant_steps = 0

    def offer(self, frames: int) -> int:
        """Enqueue new traffic; returns how many frames fit."""
        if frames < 0:
            raise ValueError("cannot offer negative traffic")
        accepted = min(frames, self.queue_limit - len(self._queue))
        self._queue.extend([0] * accepted)
        self.offered += frames
        self.dropped += frames - accepted
        return accepted

    def step(self, dt_s: float, harvest_w: float,
             rng: np.random.Generator) -> EnergyStep:
        """One timestep: advance the machine, resolve MAC outcomes.

        While dormant the machine sees zero pending traffic — retries
        are *held*, not hammered against a radio that cannot key up
        (re-queueing them every step would just melt the retry budget
        during an outage).
        """
        held = self.machine.dormant
        pending = 0 if held else len(self._queue)
        outcome = self.machine.step(dt_s, harvest_w, pending)
        if held:
            self.dormant_steps += 1
        for _ in range(outcome.frames_sent):
            attempts = self._queue.popleft()
            if float(rng.random()) < self.frame_success_probability:
                self.delivered += 1
            elif attempts < self.max_retries:
                self.retries += 1
                self._queue.append(attempts + 1)
            else:
                self.dropped += 1
        return outcome

    def stats(self) -> SchedulerStats:
        """The cumulative MAC outcome so far."""
        return SchedulerStats(offered=self.offered,
                              delivered=self.delivered,
                              retries=self.retries,
                              dropped=self.dropped,
                              pending=len(self._queue),
                              duty_cycle=self.machine.duty_cycle(),
                              dormant_steps=self.dormant_steps)
