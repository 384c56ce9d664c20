"""Per-link health estimation and structured degradation accounting.

The node is feedback-free, so all health intelligence lives AP-side:
the demodulator's per-capture decision SNR (and optionally a BER
estimate) feeds an EWMA, a three-state classifier (healthy / degraded /
outage, with hysteresis so a single noisy capture cannot flap the
state), and at the end of a run a :class:`LinkHealthReport` with the
numbers an operator actually asks for — availability, MTTR, MTBF.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "EwmaEstimator",
    "HEALTHY",
    "DEGRADED",
    "DORMANT",
    "OUTAGE",
    "LinkHealthMonitor",
    "LinkHealthReport",
]

HEALTHY = "healthy"
DEGRADED = "degraded"
OUTAGE = "outage"
DORMANT = "dormant"
"""Energy-gated sleep: the node is silent *on purpose* and will wake
once its store recharges.  Not a health-classifier output (the monitor
still sees silence); the supervisor reports it so outage accounting and
failover suspicion can tell sleep from death."""


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


@dataclass(frozen=True)
class LinkHealthReport:
    """Availability accounting for one monitored link."""

    duration_s: float
    availability: float
    """Fraction of observed time not in outage."""

    degraded_fraction: float
    """Fraction of observed time in the degraded state."""

    outage_count: int
    """Number of distinct outage intervals."""

    mttr_s: float
    """Mean time to recovery: average outage interval length (0 if none)."""

    mtbf_s: float
    """Mean time between failures: average gap between outage starts
    (``inf`` with fewer than two outages)."""

    mean_snr_db: float
    """Mean EWMA SNR over the samples where it was finite."""

    min_snr_db: float
    """Worst EWMA SNR observed (-inf if the link ever died)."""

    def __post_init__(self):
        if not 0.0 <= self.availability <= 1.0:
            raise ValueError("availability must be in [0, 1]")
        if not 0.0 <= self.degraded_fraction <= 1.0:
            raise ValueError("degraded fraction must be in [0, 1]")


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
