"""Path-loss models for 24 GHz indoor propagation.

The headline physics of the paper: "mmWave signals decay very quickly with
distance" (section 1).  Free-space loss at 24 GHz is ~20 dB worse than at
2.4 GHz, which is why every other design decision (directional beams, OTAM)
exists.
"""

from __future__ import annotations

import numpy as np
import numpy.typing as npt

from ..units import FloatArray, amplitude_to_db, wavelength

__all__ = [
    "free_space_path_loss_db",
    "friis_received_power_dbm",
    "oxygen_absorption_db",
]


def free_space_path_loss_db(distance_m: npt.ArrayLike,
                            frequency_hz: float) -> FloatArray:
    """Friis free-space path loss [dB]: ``20 log10(4 pi d / lambda)``.

    Distances below one wavelength are clamped to one wavelength — the
    far-field assumption breaks there and negative "loss" would corrupt
    link budgets.
    """
    if frequency_hz <= 0:
        raise ValueError("frequency must be positive")
    d = np.asarray(distance_m, dtype=np.float64)
    if np.any(d < 0):
        raise ValueError("distance cannot be negative")
    lam = wavelength(frequency_hz)
    d = np.maximum(d, lam)
    return amplitude_to_db(4.0 * np.pi * d / lam)


def friis_received_power_dbm(eirp_dbm: float, rx_gain_dbi: float,
                             distance_m: npt.ArrayLike,
                             frequency_hz: float) -> FloatArray:
    """Received power [dBm] over a clear free-space path."""
    return (eirp_dbm + rx_gain_dbi
            - free_space_path_loss_db(distance_m, frequency_hz))


def oxygen_absorption_db(distance_m: npt.ArrayLike,
                         frequency_hz: float) -> FloatArray:
    """Atmospheric absorption [dB] over a path.

    Negligible at 24 GHz (~0.1 dB/km) but ~15 dB/km at 60 GHz, where the
    O2 resonance sits.  Included so the 60 GHz variants (OpenMili-class
    platforms in Table 1) pay the right penalty.
    """
    d_km = np.asarray(distance_m, dtype=np.float64) / 1000.0
    f_ghz = frequency_hz / 1e9
    if 57.0 <= f_ghz <= 64.0:
        rate_db_per_km = 15.0
    elif 22.0 <= f_ghz <= 26.0:
        # Water-vapour line near 22 GHz contributes ~0.2 dB/km.
        rate_db_per_km = 0.2
    else:
        rate_db_per_km = 0.1
    return rate_db_per_km * d_km
