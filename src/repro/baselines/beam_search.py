"""Phased-array beam searching — what mmX exists to avoid (§2, §3, §6).

These baselines quantify the costs the paper holds against conventional
beam management: search *time* (symbols spent probing instead of
transmitting), *feedback* (every probe needs an AP response, burning node
energy), and *hardware* (a phased array's power/cost, charged via
:class:`repro.antenna.PhasedArray`).  The ablation benchmark puts them
head-to-head with OTAM.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..antenna.phased_array import PhasedArray

__all__ = [
    "BeamSearchResult",
    "ExhaustiveBeamSearch",
    "HierarchicalBeamSearch",
    "FeedbackBeamSelection",
]


@dataclass(frozen=True)
class BeamSearchResult:
    """Outcome of one beam-search run."""

    best_direction_rad: float
    best_metric_db: float
    probes: int
    feedback_messages: int

    def node_energy_j(self, probe_duration_s: float,
                      feedback_duration_s: float,
                      tx_power_w: float, rx_power_w: float) -> float:
        """Node energy burned on alignment (probing Tx + listening Rx)."""
        return (self.probes * probe_duration_s * tx_power_w
                + self.feedback_messages * feedback_duration_s * rx_power_w)


class ExhaustiveBeamSearch:
    """Probe every codebook beam; the AP feeds back a metric per probe.

    This is the 802.11ad-style sector sweep the paper calls "not fast
    enough to enable mobile applications" — O(N) probes, O(N) feedback.
    """

    def __init__(self, array: PhasedArray, num_beams: int | None = None):
        self.array = array
        self.directions = array.codebook_directions_rad(num_beams)

    def search(self, metric_fn) -> BeamSearchResult:
        """Run the sweep; ``metric_fn(direction_rad) -> SNR dB`` at the AP."""
        metrics = np.asarray([float(metric_fn(d)) for d in self.directions])
        best = int(np.argmax(metrics))
        return BeamSearchResult(
            best_direction_rad=float(self.directions[best]),
            best_metric_db=float(metrics[best]),
            probes=len(self.directions),
            feedback_messages=len(self.directions),
        )


class HierarchicalBeamSearch:
    """Coarse-to-fine search: O(k log N) probes, still O(log N) feedback.

    The compressive/hierarchical family ([6, 19, 24] in the paper) —
    faster, but every level still needs AP feedback, and the node still
    needs a phased array that can widen its beams.
    """

    def __init__(self, array: PhasedArray, levels: int = 3,
                 beams_per_level: int = 4):
        if levels < 1 or beams_per_level < 2:
            raise ValueError("need >=1 level and >=2 beams per level")
        self.array = array
        self.levels = levels
        self.beams_per_level = beams_per_level

    def search(self, metric_fn) -> BeamSearchResult:
        """Refine around the best beam of each level."""
        lo, hi = -np.pi / 2, np.pi / 2
        probes = 0
        best_dir, best_metric = 0.0, float("-inf")
        for _ in range(self.levels):
            candidates = np.linspace(lo, hi, self.beams_per_level + 2)[1:-1]
            metrics = np.asarray([float(metric_fn(d)) for d in candidates])
            probes += candidates.size
            idx = int(np.argmax(metrics))
            best_dir, best_metric = float(candidates[idx]), float(metrics[idx])
            width = (hi - lo) / self.beams_per_level
            lo, hi = best_dir - width, best_dir + width
        return BeamSearchResult(
            best_direction_rad=best_dir,
            best_metric_db=best_metric,
            probes=probes,
            feedback_messages=self.levels,
        )


class FeedbackBeamSelection:
    """Section 6's second strawman: fixed multi-beam node + AP feedback.

    The node has a handful of fixed beams (like mmX's two) and asks the
    AP which one to use.  Cheap hardware, but "due to mobility and
    environmental change, the AP needs to provide continuous feedback" —
    modelled as one feedback exchange per coherence interval.
    """

    def __init__(self, beam_directions_rad):
        self.directions = np.asarray(beam_directions_rad, dtype=float)
        if self.directions.size < 2:
            raise ValueError("need at least two fixed beams")

    def select(self, metric_fn) -> BeamSearchResult:
        """Probe each fixed beam once and take the AP's pick."""
        metrics = np.asarray([float(metric_fn(d)) for d in self.directions])
        best = int(np.argmax(metrics))
        return BeamSearchResult(
            best_direction_rad=float(self.directions[best]),
            best_metric_db=float(metrics[best]),
            probes=self.directions.size,
            feedback_messages=self.directions.size,
        )
