"""Stochastic fault processes: generators of :class:`FaultEvent` lists.

A fault process has one method, ``events(rng, duration_s)``, that
emits the events of one fault class over a run of a given duration.
The two here draw theirs (Poisson blocker crossings, random
brown-outs), and they draw every random quantity from the generator
they are *handed* — they own no RNG state — so the
:class:`~repro.faults.injector.FaultInjector` can apply the same
one-master-seed, one-child-stream-per-process discipline as
:class:`repro.engine.CampaignPlan` and every chaos run regenerates
bit-identically.  A fixed window draws nothing: it is a
:class:`FaultEvent`, which is its own process
(:meth:`FaultEvent.events`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .events import FaultEvent

__all__ = ["NodeDropoutProcess", "TransientBlockerProcess"]


@dataclass(frozen=True)
class TransientBlockerProcess:
    """Poisson stream of people walking through the line of sight.

    Each crossing blocks the LoS beam for 0.5-2 s (a person at walking
    pace spans the first Fresnel zone for about that long) and costs
    a draw from the paper's 20-35 dB blocked-path excess band.
    """

    rate_per_minute: float = 6.0
    crossing_s: tuple[float, float] = (0.5, 2.0)
    loss_db: tuple[float, float] = (20.0, 35.0)

    def __post_init__(self):
        if self.rate_per_minute <= 0:
            raise ValueError("crossing rate must be positive")
        if not 0 < self.crossing_s[0] <= self.crossing_s[1]:
            raise ValueError("invalid crossing duration range")
        if not 0 < self.loss_db[0] <= self.loss_db[1]:
            raise ValueError("invalid blockage loss range")

    def events(self, rng: np.random.Generator,
               duration_s: float) -> list[FaultEvent]:
        """Draw one run's crossings."""
        events = []
        t = float(rng.exponential(60.0 / self.rate_per_minute))
        while t < duration_s:
            events.append(FaultEvent(
                kind="blockage", start_s=t,
                duration_s=float(rng.uniform(*self.crossing_s)),
                severity=float(rng.uniform(*self.loss_db))))
            t += float(rng.exponential(60.0 / self.rate_per_minute))
        return events


@dataclass(frozen=True)
class NodeDropoutProcess:
    """Random node power brown-outs (battery sag, harvester starvation).

    While down the node radiates nothing and — like a real cold boot —
    forgets its channel assignment, so it must re-initialize over the
    side channel before transmitting again.
    """

    rate_per_minute: float = 1.0
    outage_s: tuple[float, float] = (1.0, 4.0)

    def __post_init__(self):
        if self.rate_per_minute <= 0:
            raise ValueError("dropout rate must be positive")
        if not 0 < self.outage_s[0] <= self.outage_s[1]:
            raise ValueError("invalid outage duration range")

    def events(self, rng: np.random.Generator,
               duration_s: float) -> list[FaultEvent]:
        """Draw one run's brown-outs."""
        events = []
        t = float(rng.exponential(60.0 / self.rate_per_minute))
        while t < duration_s:
            width = float(rng.uniform(*self.outage_s))
            events.append(FaultEvent(kind="dropout", start_s=t,
                                     duration_s=width))
            t += width + float(rng.exponential(60.0 / self.rate_per_minute))
        return events
