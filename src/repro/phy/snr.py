"""Noise, SNR estimation and link-budget math.

The mmX AP chain (section 8.2) is LNA -> microstrip filter -> sub-harmonic
mixer -> USRP baseband.  Its sensitivity is governed by the cascade noise
figure (Friis' formula) and the thermal floor in the occupied bandwidth;
:class:`LinkBudget` assembles those pieces into received SNR.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import numpy.typing as npt

from ..constants import THERMAL_NOISE_DBM_PER_HZ
from ..units import db_to_linear, linear_to_db

__all__ = [
    "thermal_noise_dbm",
    "noise_figure_cascade_db",
    "LinkBudget",
    "estimate_snr_two_level",
]


def thermal_noise_dbm(bandwidth_hz: float, noise_figure_db: float = 0.0) -> float:
    """Thermal noise power [dBm] in ``bandwidth_hz`` plus a noise figure."""
    if bandwidth_hz <= 0:
        raise ValueError("bandwidth must be positive")
    return (THERMAL_NOISE_DBM_PER_HZ + float(linear_to_db(bandwidth_hz))
            + noise_figure_db)


def noise_figure_cascade_db(stages: list[tuple[float, float]]) -> float:
    """Friis cascade noise figure for ``[(gain_db, nf_db), ...]`` stages.

    The first stage dominates when it has high gain — which is exactly why
    the paper places the HMC751 LNA first in the AP chain (section 8.2).
    """
    if not stages:
        raise ValueError("at least one stage required")
    total_f = 0.0
    cumulative_gain = 1.0
    for i, (gain_db, nf_db) in enumerate(stages):
        f = float(db_to_linear(nf_db))
        if i == 0:
            total_f = f
        else:
            total_f += (f - 1.0) / cumulative_gain
        cumulative_gain *= float(db_to_linear(gain_db))
    return float(linear_to_db(total_f))


@dataclass
class LinkBudget:
    """Received SNR from transmit power, gains, path loss and noise.

    Attributes mirror the standard link-budget identity::

        SNR = EIRP + Grx - PL - (kTB + NF)

    where ``EIRP = Ptx + Gtx`` is folded into ``tx_eirp_dbm`` because the
    mmX node's 10 dBm figure is already a radiated (EIRP-style) number
    (section 8.1).
    """

    tx_eirp_dbm: float
    rx_antenna_gain_dbi: float
    bandwidth_hz: float
    rx_noise_figure_db: float
    implementation_loss_db: float = 0.0

    def noise_floor_dbm(self) -> float:
        """Receiver noise power in the occupied bandwidth [dBm]."""
        return thermal_noise_dbm(self.bandwidth_hz, self.rx_noise_figure_db)

    def received_power_dbm(self, path_loss_db: float) -> float:
        """Signal power at the receiver input [dBm] for a given path loss."""
        return (self.tx_eirp_dbm + self.rx_antenna_gain_dbi - path_loss_db
                - self.implementation_loss_db)

    def snr_db(self, path_loss_db: float) -> float:
        """Received SNR [dB] for a given total path loss [dB]."""
        return self.received_power_dbm(path_loss_db) - self.noise_floor_dbm()

    def max_path_loss_db(self, required_snr_db: float) -> float:
        """Largest tolerable path loss [dB] that still meets an SNR target."""
        return (self.tx_eirp_dbm + self.rx_antenna_gain_dbi
                - self.implementation_loss_db - required_snr_db
                - self.noise_floor_dbm())


def estimate_snr_two_level(samples: npt.ArrayLike,
                           decisions: npt.ArrayLike) -> float:
    """Estimate SNR [dB] of a two-level (ASK) signal from decided symbols.

    Groups envelope ``samples`` by the hard ``decisions`` made on them and
    computes (level distance)^2 / (2 * within-level variance) — the decision
    SNR of the binary detector.  Returns ``-inf`` when a level is missing or
    the signal is degenerate.
    """
    envelope = np.asarray(samples, dtype=np.float64)
    hard = np.asarray(decisions)
    if envelope.shape != hard.shape:
        raise ValueError("samples and decisions must have the same shape")
    ones = envelope[hard == 1]
    zeros = envelope[hard == 0]
    if ones.size < 2 or zeros.size < 2:
        return float("-inf")
    distance = abs(float(ones.mean()) - float(zeros.mean()))
    noise_var = 0.5 * (float(ones.var()) + float(zeros.var()))
    if noise_var <= 0.0:
        return float("inf")
    return float(linear_to_db(distance**2 / (2.0 * noise_var)))
