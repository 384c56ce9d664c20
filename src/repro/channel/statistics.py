"""Channel characterisation: sparsity, K-factor, delay/angular spread.

Section 2 leans on measurement studies ("typically there are a few paths
[42]") and §6.1 on attenuation bands.  These statistics let the
reproduction *check its own channel model* against those claims: path
counts across placements, Rician K-factor (LoS dominance), RMS delay
spread (flat-fading validity for OTAM's symbol rates) and angular spread
(why two fixed beams suffice).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..constants import CARRIER_FREQUENCY_HZ, SPEED_OF_LIGHT
from ..units import db_to_amplitude, linear_to_db
from .pathloss import free_space_path_loss_db
from .raytrace import PropagationPath, trace_paths

__all__ = [
    "path_amplitudes",
    "rician_k_factor_db",
    "rms_delay_spread_s",
    "angular_spread_rad",
    "ChannelStats",
    "characterize",
]


def path_amplitudes(paths: list[PropagationPath],
                    frequency_hz: float) -> np.ndarray:
    """Linear field amplitude of each path (isotropic antennas)."""
    amps = []
    for p in paths:
        loss_db = (float(free_space_path_loss_db(p.length_m, frequency_hz))
                   + p.excess_loss_db)
        amps.append(float(db_to_amplitude(-loss_db)))
    return np.asarray(amps)


def rician_k_factor_db(paths: list[PropagationPath],
                       frequency_hz: float) -> float:
    """K-factor: dominant-path power over the sum of the rest [dB].

    ``+inf`` for a single-path channel, ``-inf`` when no paths exist.
    A large K is what makes OTAM's level contrast reliable.
    """
    amps = path_amplitudes(paths, frequency_hz)
    if amps.size == 0:
        return float("-inf")
    if amps.size == 1:
        return float("inf")
    powers = np.sort(amps**2)[::-1]
    rest = float(np.sum(powers[1:]))
    if rest <= 0.0:
        return float("inf")
    return float(linear_to_db(powers[0] / rest))


def rms_delay_spread_s(paths: list[PropagationPath],
                       frequency_hz: float) -> float:
    """Power-weighted RMS delay spread [s].

    For mmX: symbol times are >= 10 ns (100 Mbps), while indoor traced
    spreads come out at a few ns — the flat-fading assumption behind
    simple ASK holds with margin.
    """
    amps = path_amplitudes(paths, frequency_hz)
    if amps.size == 0:
        return 0.0
    delays = np.asarray([p.length_m / SPEED_OF_LIGHT for p in paths])
    weights = amps**2 / np.sum(amps**2)
    mean_delay = float(np.sum(weights * delays))
    return float(np.sqrt(np.sum(weights * (delays - mean_delay) ** 2)))


def angular_spread_rad(paths: list[PropagationPath],
                       frequency_hz: float) -> float:
    """Power-weighted circular std of departure bearings.

    Small angular spread at the node is the geometric fact behind two
    fixed beams covering the useful directions.
    """
    amps = path_amplitudes(paths, frequency_hz)
    if amps.size == 0:
        return 0.0
    bearings = np.asarray([p.departure_bearing_rad for p in paths])
    weights = amps**2 / np.sum(amps**2)
    # Circular statistics: resultant length -> circular standard deviation.
    c = float(np.sum(weights * np.cos(bearings)))
    s = float(np.sum(weights * np.sin(bearings)))
    resultant = math.hypot(c, s)
    if resultant >= 1.0:
        return 0.0
    return float(math.sqrt(-2.0 * math.log(max(resultant, 1e-12))))


@dataclass(frozen=True)
class ChannelStats:
    """Aggregate channel statistics over many placements."""

    mean_path_count: float
    median_path_count: float
    max_path_count: int
    median_k_factor_db: float
    median_delay_spread_ns: float
    median_angular_spread_deg: float

    @property
    def is_sparse(self) -> bool:
        """The paper's 'typically a few paths' claim (section 2)."""
        return self.median_path_count <= 8.0

    def flat_fading_at(self, bit_rate_bps: float) -> bool:
        """Whether the symbol time dwarfs the delay spread (>=10x)."""
        symbol_s = 1.0 / bit_rate_bps
        return symbol_s >= 10.0 * self.median_delay_spread_ns * 1e-9


def characterize(room, placements,
                 frequency_hz: float = CARRIER_FREQUENCY_HZ,
                 max_bounces: int = 1) -> ChannelStats:
    """Trace many placements and summarise the channel's character."""
    counts, k_factors, spreads, angles = [], [], [], []
    for placement in placements:
        paths = trace_paths(placement.node_position, placement.ap_position,
                            room, max_bounces=max_bounces)
        counts.append(len(paths))
        if paths:
            k_factors.append(rician_k_factor_db(paths, frequency_hz))
            spreads.append(rms_delay_spread_s(paths, frequency_hz) * 1e9)
            angles.append(math.degrees(
                angular_spread_rad(paths, frequency_hz)))
    if not counts:
        raise ValueError("no placements to characterise")
    finite_k = [k for k in k_factors if math.isfinite(k)]
    return ChannelStats(
        mean_path_count=float(np.mean(counts)),
        median_path_count=float(np.median(counts)),
        max_path_count=int(np.max(counts)),
        median_k_factor_db=float(np.median(finite_k)) if finite_k else float("inf"),
        median_delay_spread_ns=float(np.median(spreads)) if spreads else 0.0,
        median_angular_spread_deg=float(np.median(angles)) if angles else 0.0,
    )
