"""HMC533 voltage-controlled oscillator model (Fig. 7, section 8.1).

The paper measures the VCO sweeping 23.95-24.25 GHz as the control voltage
goes 3.5 V -> 4.9 V, covering the whole 24 GHz ISM band, and notes two
uses: channel selection (FDM) and the small per-bit frequency nudges that
implement the FSK half of joint ASK-FSK.
"""

from __future__ import annotations

import numpy as np

from ..constants import (
    VCO_FREQ_RANGE_HZ,
    VCO_TUNE_VOLTAGE_RANGE_V,
)
from .components import ComponentSpec, RFComponent

__all__ = ["HMC533VCO"]


class HMC533VCO(RFComponent):
    """Behavioural HMC533: monotone tuning curve with soft saturation.

    The measured Fig. 7 curve is close to linear with a slight flattening
    toward the top of the range; we reproduce that with a mild quadratic
    bend (``curvature`` fraction of the span) while holding the measured
    endpoints exactly.
    """

    def __init__(self, curvature: float = 0.06,
                 phase_noise_dbc_hz: float = -100.0):
        super().__init__(ComponentSpec(
            name="HMC533 VCO", gain_db=0.0, noise_figure_db=0.0,
            power_w=0.405, cost_usd=35.0))
        if not 0.0 <= curvature < 0.5:
            raise ValueError("curvature must be in [0, 0.5)")
        self.curvature = curvature
        self.phase_noise_dbc_hz = phase_noise_dbc_hz
        self.v_min, self.v_max = VCO_TUNE_VOLTAGE_RANGE_V
        self.f_min, self.f_max = VCO_FREQ_RANGE_HZ

    def frequency_hz(self, tuning_voltage_v) -> np.ndarray:
        """Output frequency [Hz] for a control voltage [V].

        Voltages outside the usable range clamp to the endpoints, as the
        real part rails do.
        """
        v = np.clip(np.asarray(tuning_voltage_v, dtype=float),
                    self.v_min, self.v_max)
        x = (v - self.v_min) / (self.v_max - self.v_min)  # 0..1
        # Soft saturation: slope slightly higher at the bottom of the range.
        bent = x + self.curvature * x * (1.0 - x)
        return self.f_min + bent * (self.f_max - self.f_min)

    def voltage_for_frequency(self, frequency_hz: float) -> float:
        """Control voltage [V] that produces a target frequency.

        Inverts the tuning curve numerically (it is strictly monotone).
        Raises ``ValueError`` for frequencies outside the tuning range.
        """
        if not self.f_min <= frequency_hz <= self.f_max:
            raise ValueError(
                f"{frequency_hz/1e9:.3f} GHz outside tuning range "
                f"{self.f_min/1e9:.3f}-{self.f_max/1e9:.3f} GHz")
        lo, hi = self.v_min, self.v_max
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if float(self.frequency_hz(mid)) < frequency_hz:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    def tuning_sensitivity_hz_per_v(self, tuning_voltage_v: float) -> float:
        """Local tuning slope [Hz/V] — sets how small FSK deviations can be."""
        dv = 1e-4
        f1 = float(self.frequency_hz(tuning_voltage_v - dv))
        f2 = float(self.frequency_hz(tuning_voltage_v + dv))
        return (f2 - f1) / (2.0 * dv)

    def covers_ism_band(self) -> bool:
        """Whether the tuning range spans the full 24 GHz ISM band."""
        from ..constants import ISM_24GHZ_HIGH_HZ, ISM_24GHZ_LOW_HZ

        return self.f_min <= ISM_24GHZ_LOW_HZ and self.f_max >= ISM_24GHZ_HIGH_HZ
