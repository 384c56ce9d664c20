"""Receiver noise figure and decision-SNR estimation.

The mmX AP chain (section 8.2) is LNA -> microstrip filter -> sub-harmonic
mixer -> USRP baseband.  Its sensitivity is governed by the cascade noise
figure (Friis' formula) and the thermal floor in the occupied bandwidth;
the link budget that combines them is :mod:`repro.core.link`.
"""

from __future__ import annotations

import numpy as np
import numpy.typing as npt

from ..units import db_to_linear, linear_to_db

__all__ = [
    "noise_figure_cascade_db",
    "estimate_snr_two_level",
]


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
